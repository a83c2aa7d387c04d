"""The benchmark's own checks: ``python3 perfbench/selfcheck.py`` from the
repository root (about a minute). Exits 0 when all of them hold:

1. Every operation of every workload passes its output check, and a
   corrupted output or exit status fails it, so ``error_rate`` rises above 0.
2. The metric names and units printed in both modes match BENCHMARK.json,
   and the result line has exactly the agreed keys.
3. Span wrappers are removed without a trace: after ``uninstall`` every
   module and class attribute is the original object again.
4. Outside a repository checkout (only BENCHMARK.json and ``perfbench/``)
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from measure import HERE, OUT, ROOT, THREAD_ENV, Runner, check_output, run_passes
from spans import LAYER_NAMES, Tracer, installed_wrappers
from workloads import WORKLOADS, build

SEED = 1


def corrupt(value):
    """A wrong version of an output: numbers x -> -x - 1, flags flipped."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return -value - 1
    if isinstance(value, dict):
        return {key: corrupt(item) for key, item in value.items()}
    if isinstance(value, list):
        return [corrupt(item) for item in value]
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: corrupt(getattr(value, f.name))
                                             for f in dataclasses.fields(value)})
    return value


def corrupt_stdout(stdout: bytes) -> bytes:
    try:
        doc = json.loads(stdout)
    except ValueError:  # CSV: change one digit
        return stdout.replace(b"0", b"1", 1)
    return (json.dumps(corrupt(doc), sort_keys=True, indent=2) + "\n").encode()


def check_outputs(work: Path) -> list:
    problems = []
    for workload in WORKLOADS:
        batch = build(workload, SEED)
        if workload == "mc-small-grid":
            batch = batch[:3]
        done = run_passes(batch, 1, Runner(work))
        for op, result in zip(batch, done.ops):
            if result.error:
                problems.append(f"{workload} {op.label}: clean output failed: {result.error}")
                continue
            if op.call is not None:
                wrong = [check_output(op, corrupt(result.output))]
            else:
                status, stdout = result.output
                wrong = [check_output(op, corrupt_stdout(stdout), status), check_output(op, stdout, 3)]
            if not all(wrong):
                problems.append(f"{workload} {op.label}: a corrupted output passed its check")
        print(f"outputs: {workload}: {len(done.ops)} clean operations passed, "
              f"{len(problems)} problems so far")
    return problems


def check_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        command = [sys.executable, str(HERE / "run.py"), "--workload", "mc-small-grid",
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, **THREAD_ENV))
        if out.returncode != 0:
            problems.append(f"trace {trace}: exit {out.returncode}: {out.stderr[-500:]}")
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expected = {m["name"]: m["unit"] for m in spec[key]}
        if printed != expected:
            problems.append(f"trace {trace}: printed metrics differ from BENCHMARK.json {key}")
        if result["failed"] or not result["correct"]:
            problems.append(f"trace {trace}: {result['failed']} operations failed")
        print(f"names: trace {trace}: {len(printed)} metrics printed")
    return problems


def check_unwrap() -> list:
    import wskg.cli  # noqa: F401  loads every module the wrappers touch

    def snapshot():
        state = {}
        for name, mod in sys.modules.items():
            if name == "wskg" or name.startswith("wskg."):
                for key, value in vars(mod).items():
                    state[(name, key)] = value
                    if isinstance(value, type):
                        state.update({(name, key, attr): raw for attr, raw in vars(value).items()})
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    problems = []
    if tracer.missing or len(installed_wrappers()) < len(LAYER_NAMES):
        problems.append(f"wrappers not installed; missing {tracer.missing}")
    from wskg import params, rates
    point = params.SystemParams(10, 5.0, 4.0, 2.0, 1.0, 1.0)
    rates.sum_rate(1.0, params.PowerAllocation.uniform(point), point)
    recorded = {s[1] for s in tracer.spans}
    if not {"rates.sum_rate", "params.PowerAllocation.uniform"} <= recorded:
        problems.append(f"calls through the wrappers were not recorded: {sorted(recorded)}")
    tracer.uninstall()
    after = snapshot()
    if installed_wrappers() or any(after.get(k) is not v for k, v in before.items()):
        problems.append("uninstall left a wrapper or a changed attribute behind")
    print(f"unwrap: {len(LAYER_NAMES)} layers wrapped and restored")
    return problems


def check_outside_checkout() -> list:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "game-cli",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare checkout: exit {out.returncode}")
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["the benchmark printed a result without the wskg sources"]
    return []


def main() -> int:
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    work = OUT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        problems = check_outputs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += check_unwrap() + check_names() + check_outside_checkout()
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck:", "FAILED" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
