"""The benchmark's bindings to the package, checked without running a workload.

``perfbench/`` reads the package by name: modules, functions and record
fields. A rename in ``src/`` that breaks one of those reads passes every
other test, so these checks resolve each read statically, in well under a
second.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import types
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _ours(value) -> bool:
    name = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", None)
    return isinstance(name, str) and name.split(".")[0] == "wskg"


def _instance(annotation):
    """What a value of ``annotation`` resolves to: an instance of a package
    class, or ``None`` for anything else."""
    return ("instance", annotation) if isinstance(annotation, type) and _ours(annotation) else None


class _Reads(ast.NodeVisitor):
    """Resolves every attribute read of one perfbench file that starts at a
    package module, class or function, or at a value that a package class or
    annotated package function returned. A name keeps what its scope last
    bound to it; parameters without a default resolve to nothing, so reads
    through them are out of reach."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.scopes = [{}]
        self.found, self.missing = set(), set()

    def bind(self, name, value) -> None:
        self.scopes[-1][name] = value

    def resolve(self, node):
        if isinstance(node, ast.Name):
            return next((scope[node.id] for scope in reversed(self.scopes) if node.id in scope), None)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return None if base is None else self.member(base, node.attr, node)
        if isinstance(node, ast.Call):
            func = self.resolve(node.func)
            if func is None or func[0] != "object":
                return None
            if isinstance(func[1], type):
                return _instance(func[1])
            try:
                return _instance(typing.get_type_hints(func[1]).get("return"))
            except NameError:  # an annotation that only a type checker imports
                return None
        return None

    def member(self, base, attr: str, node: ast.Attribute):
        kind, owner = base
        label = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
        if kind == "instance" and dataclasses.is_dataclass(owner):
            fields = {field.name for field in dataclasses.fields(owner)}
        else:
            fields = set(getattr(owner, "_fields", ()) if kind == "instance" else ())
        if attr in fields:
            self.found.add(f"{label}.{attr}")
            return _instance(typing.get_type_hints(owner).get(attr))
        if not isinstance(owner, (type, types.ModuleType)):
            return None  # a function: its attributes are not the package's names
        try:
            value = getattr(owner, attr)
        except AttributeError:
            try:  # a submodule that is not loaded yet
                value = importlib.import_module(f"{owner.__name__}.{attr}")
            except (AttributeError, ImportError):
                self.missing.add(f"{self.path.name}:{node.lineno} {ast.unparse(node)}")
                return None
        self.found.add(f"{label}.{attr}")
        return ("object", value) if _ours(value) else None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "wskg":
                module = importlib.import_module(alias.name)
                top = alias.asname or alias.name.split(".")[0]
                self.bind(top, ("object", module if alias.asname else importlib.import_module("wskg")))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or (node.module or "").split(".")[0] != "wskg":
            for alias in node.names:
                self.bind(alias.asname or alias.name, None)
            return
        module = importlib.import_module(node.module)
        for alias in node.names:
            fake = ast.Attribute(value=ast.Name(node.module), attr=alias.name, lineno=node.lineno)
            self.bind(alias.asname or alias.name, self.member(("object", module), alias.name, fake))

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        value = self.resolve(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.bind(target.id, value)
            else:
                self.visit(target)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self.bind(node.id, None)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.resolve(node)
        self.generic_visit(node)

    def scope(self, node, bound: dict) -> None:
        self.scopes.append(bound)
        body = node.body
        for statement in body if isinstance(body, list) else [body]:
            self.visit(statement)
        self.scopes.pop()

    def arguments(self, args: ast.arguments) -> dict:
        """Each parameter's binding: what its default resolves to, if any."""
        for default in (*args.defaults, *filter(None, args.kw_defaults)):
            self.visit(default)
        positional = [*args.posonlyargs, *args.args]
        defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults.update((arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        every = [*positional, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        return {arg.arg: self.resolve(defaults[arg]) if arg in defaults else None for arg in every}

    def visit_FunctionDef(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        bound = self.arguments(node.args)
        self.bind(node.name, None)
        self.scope(node, bound)


    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.scope(node, self.arguments(node.args))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bind(node.name, None)
        self.scope(node, {})


def bench_reads():
    reads = [_Reads(path) for path in sorted(BENCH.glob("*.py"))]
    for read in reads:
        read.visit(ast.parse(read.path.read_text(encoding="utf-8")))
    return set().union(*(r.found for r in reads)), set().union(*(r.missing for r in reads))


def test_every_package_name_the_benchmark_reads_resolves():
    found, missing = bench_reads()
    assert missing == set()
    # Reads of each kind the resolver follows: a re-import, record fields
    # with and without a default, a submodule that ``import wskg.cli`` loads,
    # and a classmethod.
    assert {
        "wskg.randomization.randomize_trials",
        "wskg.injection.TwoLookBatch.resampled",
        "wskg.injection.TwoLookBatch.z_a",
        "wskg.cli.main",
        "wskg.params.PowerAllocation.uniform",
    } <= found


def test_the_benchmarks_layers_are_the_tracers():
    """Each layer of ``BENCHMARK.json``'s ``per_layer`` list that reports
    calls and self time is a span the tracer records, in its order."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for suffix in (".calls", ".self_s"):
        assert [name[: -len(suffix)] for name in names if name.endswith(suffix)] == list(spans.LAYER_NAMES)
