import ast
import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wskg
from wskg import errors
from wskg.cli import build_parser, main
from wskg.errors import NotPositiveSemidefinite, NumericalError, ParameterError
from wskg.game import oracle_check
from wskg.injection import CHUNK_TRIALS
from wskg.metrics import CSV_HEADER
from wskg.params import PowerAllocation, RngSeed, SystemParams
from wskg.randomization import RandomizationReport
from wskg.rates import sum_rate
from wskg.stochastic import KS_SIGNIFICANCE, KsReport, ks_test_normal

from cli_contract import EXIT_CONTRACT, EXPECTED_FLAGS, GOLDEN, check, runs_without_numpy, workloads
from conftest import BLOCK_NUMPY


#: Every name ``wskg`` exports.
EXPECTED_EXPORTS = {
    "ALLOCATION_SUM_RTOL", "EquilibriumResult", "NotPositiveSemidefinite", "NumericalError",
    "ParameterError", "PowerAllocation", "RngSeed", "SystemParams", "ZeroEquilibriumPayoff",
    "coincidence_precoder", "critical_power", "gaussian_mi_from_cov", "gram",
    "ks_test_normal", "leakage_after_randomization", "leakage_bound", "mi_from_gram",
    "oracle_jammer_br", "oracle_stackelberg", "randomize_trials", "rate_array",
    "sample_complex_gaussian", "sample_qpsk_pilot", "simulate_two_look", "stackelberg_fixed",
    "stackelberg_strategic", "sum_rate", "sweep", "verify_randomization",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script, *argv):
    """Run ``script`` in a new interpreter that imports this checkout's wskg
    and ``cli_contract``, with default warning filters, so imports and stderr
    are not pytest's."""
    src = os.path.dirname(os.path.dirname(wskg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_solve_fixed_boundary_output(capsys):
    code, out, _ = run_cli(capsys, "solve-fixed", "--p-max", "10")
    payload = json.loads(out)
    assert code == 0
    assert payload["boundary_case"] is True
    assert payload["unique"] is False
    assert len(payload["profiles"]) == 2


def test_solve_strategic_emits_epsilon_interval(capsys):
    # At the default budget 5 the golden row golden-solve-strategic.json pins
    # "[0, 5)" and the threshold 2.5. No threshold senses a zero budget, so
    # every threshold >= 0 is an equilibrium, the printed 0.0 among them.
    code, out, _ = run_cli(capsys, "solve-strategic", "--p-max", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["epsilon_interval"] == "[0, inf)"
    assert payload["profiles"][0]["threshold"] == 0.0


def test_reruns_are_byte_identical(capsys):
    args = ("leakage", "--p-max", "2", "--trials", "20000", "--seed", "9")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["static_pilot_leakage_bits"] > 0.1
    assert payload["randomized_pilot_leakage_bits"] < 0.01


def test_sweep_csv_contract(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    argv = ("sweep", "--variable", "p_max", "--lo", "2.0001", "--hi", "20", "--steps", "10", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv, "--output", str(out_file))
    assert (code, out) == (0, "")
    # The file holds the bytes stdout gets without --output.
    assert out_file.read_bytes() == run_cli(capsys, *argv)[1].encode("utf-8")
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 11  # grid plus injected knee
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(2.0001)
    # 12 significant digits on non-trivial values
    assert any(len(cell.replace("-", "").replace(".", "")) >= 12 for cell in first[1:])


def test_sweep_json_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "5",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["variable"] == "gamma"
    assert [row["swept_value"] for row in payload["rows"]][0] == 0.0
    assert all(set(row) == {"swept_value", "c_se", "c_full", "c_threshold", "f", "d", "e"} for row in payload["rows"])


def test_verify_randomization_accepts(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-randomization", "--p-max", "2", "--trials", "100000", "--seed", "7",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["accepted"] is True
    assert payload["source_real_var"] == pytest.approx(2.0, rel=0.02)
    assert payload["expected_source_real_var"] == 2.0


def test_verify_randomization_prints_the_law_its_source_test_ran_against(capsys, monkeypatch):
    tested = []

    def recording(samples, variance, **kwargs):
        tested.append(variance)
        return ks_test_normal(samples, variance, **kwargs)

    monkeypatch.setattr("wskg.randomization.ks_test_normal", recording)
    code, out, _ = run_cli(capsys, "verify-randomization", "--p-max", "3", "--sigma2", "0.7",
                           "--trials", "10000", "--seed", "4")
    payload = json.loads(out)
    assert code == 0
    # The product test runs first, then the source test.
    assert tested == [3 * 0.7 / 4, payload["expected_source_real_var"]]
    assert payload["significance"] == KS_SIGNIFICANCE


def test_verify_randomization_rejection_exits_3(capsys, monkeypatch):
    rejecting = RandomizationReport(
        ks_product=KsReport(statistic=0.5, p_value=0.0, n=10000),
        ks_source=KsReport(statistic=0.5, p_value=0.0, n=10000),
        source_real_var=1.0,
    )
    monkeypatch.setattr("wskg.randomization.verify_randomization", lambda *a, **k: rejecting)
    code, out, _ = run_cli(
        capsys,
        "verify-randomization", "--trials", "10000", "--seed", "1",
    )
    assert code == 3
    assert json.loads(out)["accepted"] is False


@pytest.mark.parametrize("p_max", ["1e-6", "5"])
def test_jensen_check_rejects_a_half_value_oracle(capsys, monkeypatch, p_max):
    # At --p-max 1e-6 the sum rate is about 6e-13 bits, so only a slack
    # relative to the value can see an oracle that halves it.
    def half_value_oracle(params, samples, seed):
        uniform = PowerAllocation.uniform(params)
        return uniform, sum_rate(params.max_pilot_power, uniform, params) / 2

    monkeypatch.setattr("wskg.game.oracle_jammer_br", half_value_oracle)
    code, out, _ = run_cli(capsys, "oracle-check", "--p-max", p_max, "--trials", "10", "--seed", "1")
    payload = json.loads(out)
    assert code == 3
    assert payload["jensen_dominance"] is False
    assert payload["accepted"] is False


def test_jensen_check_accepts_the_real_oracle_over_random_params():
    rng = np.random.default_rng(2029)
    for i in range(1000):
        params = SystemParams(
            int(rng.integers(1, 65)),
            float(10.0 ** rng.uniform(-8.0, 6.0)),
            float(10.0 ** rng.uniform(-6.0, 6.0)),
            float(10.0 ** rng.uniform(-6.0, 6.0)),
            float(10.0 ** rng.uniform(-3.0, 3.0)),
            float(10.0 ** rng.uniform(-3.0, 3.0)),
        )
        payload = oracle_check(params, 50, RngSeed(i))
        assert payload["jensen_dominance"] is True, params


def test_simulate_injection_reports_model_variance(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate-injection", "--p-max", "2", "--trials", "100000", "--seed", "5",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["nominal_injected_variance"] == 4.0
    assert payload["injected_variance"] == pytest.approx(4.0, rel=0.05)


def test_monte_carlo_payload_keys_are_pinned(capsys):
    header = {"command", "params", "seed", "stream", "trials", "chunk_trials"}
    static = {"injected_variance", "nominal_injected_variance", "observation_variance", "observation_cross_moment"}
    for command, keys in (("simulate-injection", header | static),
                          ("leakage", header | static | {"static_pilot_leakage_bits", "randomized_pilot_leakage_bits"})):
        code, out, _ = run_cli(capsys, command, "--trials", "10000", "--seed", "5")
        assert code == 0
        assert set(json.loads(out)) == keys


def test_workers_sharding_is_deterministic(capsys):
    for command in ("simulate-injection", "leakage"):
        # 150000 trials are three chunks, the last one ragged.
        args = (command, "--p-max", "2", "--trials", "150000", "--seed", "5")
        runs = [run_cli(capsys, *args, "--workers", str(workers)) for workers in (1, 2, 3)]
        runs.append(run_cli(capsys, *args))  # the default: every usable CPU
        assert [code for code, _, _ in runs] == [0, 0, 0, 0]
        assert runs[0][1] == runs[1][1] == runs[2][1] == runs[3][1]
        payload = json.loads(runs[0][1])
        assert "workers" not in payload
        assert payload["chunk_trials"] == CHUNK_TRIALS


def test_simulate_injection_reads_the_sample_covariance(capsys):
    code, out, _ = run_cli(
        capsys, "simulate-injection", "--p-max", "2", "--trials", "150000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    # Reference: np.cov (divisor n - 1) of the coordinates of the three
    # chunks, the last one ragged, each on its own substream.
    params = wskg.SystemParams(10, 2.0, 4.0, 2.0, 1.0, 1.0)
    counts = (CHUNK_TRIALS, CHUNK_TRIALS, 150_000 - 2 * CHUNK_TRIALS)
    batches = [wskg.simulate_two_look(params, n, wskg.RngSeed(5, i)) for i, n in enumerate(counts)]
    rows = []
    for name in ("injected", "z_a", "z_b"):
        values = np.concatenate([getattr(batch, name) for batch in batches])
        rows += [values.real, values.imag]
    cov = np.cov(np.vstack(rows), ddof=1)
    assert payload["injected_variance"] == pytest.approx(cov[0, 0] + cov[1, 1], rel=1e-9)
    assert payload["observation_variance"] == pytest.approx(cov[2, 2] + cov[3, 3], rel=1e-9)
    assert payload["observation_cross_moment"] == pytest.approx(cov[2, 4] + cov[3, 5], rel=1e-9)


def test_leakage_command_runs_the_library_estimators(capsys):
    # Above CHUNK_TRIALS the library functions chunk as the command does.
    code, out, _ = run_cli(capsys, "leakage", "--p-max", "2", "--trials", "150000", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    params = wskg.SystemParams(10, 2.0, 4.0, 2.0, 1.0, 1.0)
    static = wskg.leakage_bound(params, 150_000, wskg.RngSeed(5))
    # The randomized stage starts after the three static chunks.
    randomized = wskg.leakage_after_randomization(params, 150_000, wskg.RngSeed(5, 3))
    assert payload["static_pilot_leakage_bits"] == static
    assert payload["randomized_pilot_leakage_bits"] == randomized


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("trials", ["10000", "140001"], ids=["1-chunk", "3-chunks"])
def test_leakage_carries_simulate_injections_statistics(capsys, trials, workers):
    # One builder gives both commands the static stage's statistics, drawn
    # from the same substreams.
    args = ("--p-max", "2", "--trials", trials, "--seed", "5", "--workers", workers)
    runs = [run_cli(capsys, command, *args) for command in ("simulate-injection", "leakage")]
    assert [code for code, _, _ in runs] == [0, 0]
    injection, leakage = (json.loads(out) for _, out, _ in runs)
    del injection["command"]
    assert {key: leakage[key] for key in injection} == injection
    assert set(leakage) - set(injection) == {
        "command", "static_pilot_leakage_bits", "randomized_pilot_leakage_bits",
    }


def test_leakage_memory_does_not_grow_with_trials(capsys):
    peaks = {}
    for trials in (150_000, 600_000):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "leakage", "--trials", str(trials), "--seed", "3", "--workers", "2",
            )
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[600_000] <= 1.25 * peaks[150_000]


def test_overflowed_knee_is_not_a_knife_edge(capsys):
    code, out, _ = run_cli(capsys, "solve-fixed", "--gamma", "1e308")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_se"] == 2.0
    assert payload["payoff"] == 8.4799690655495


def test_huge_jam_budget_allocation_does_not_overflow(capsys):
    # The contract rows jam-budget and oracle-jam-budget pin exit 0 and a silent stderr.
    assert json.loads(run_cli(capsys, "solve-strategic", "--gamma", "1e308")[1])["payoff"] == 0.0
    out = run_cli(capsys, "oracle-check", "--seed", "1", "--gamma", "1e308")[1]
    assert json.loads(out)["best_sampled_allocation_value"] == 0.0


@pytest.fixture(scope="module")
def contract_runs():
    """Each row's runs, as ``{name: [[status, stdout, stderr], ...]}``: every
    row in one fresh interpreter, then the numpy-free rows in a second one
    where numpy cannot load, and no import asks for it."""
    runner = "import json, sys\nfrom cli_contract import run\nprint(json.dumps(run(json.loads(sys.argv[1]))))\n"
    without_numpy = BLOCK_NUMPY + runner + "assert not BLOCKED, BLOCKED\n"
    runs = {}
    for script, rows in ((runner, EXIT_CONTRACT),
                         (without_numpy, list(filter(runs_without_numpy, EXIT_CONTRACT)))):
        proc = run_fresh(script, json.dumps([row.argv for row in rows]))
        assert proc.returncode == 0, proc.stderr
        # Nothing gets past the redirected streams to the process's stderr.
        assert proc.stderr == "", proc.stderr
        for row, result in zip(rows, json.loads(proc.stdout)):
            runs.setdefault(row.name, []).append(result)
    return runs


@pytest.mark.parametrize("row", EXIT_CONTRACT, ids=[row.name for row in EXIT_CONTRACT])
def test_exit_contract(contract_runs, row):
    runs = contract_runs[row.name]
    assert len(runs) == 1 + runs_without_numpy(row)
    assert [check(row, result) for result in runs] == [None] * len(runs)
    # Without numpy a run prints the same bytes.
    assert all(result == runs[0] for result in runs)


def test_exit_contract_covers_every_command_and_failure_code():
    names = [row.name for row in EXIT_CONTRACT]
    assert len(set(names)) == len(names)
    assert {row.status for row in EXIT_CONTRACT} >= {1, 2}
    # Every command has a row that finishes.
    assert {row.argv[0] for row in EXIT_CONTRACT if row.status == 0} >= set(EXPECTED_FLAGS)
    # Every golden file is some row's stdout.
    assert {row.golden for row in EXIT_CONTRACT if row.golden} == {*GOLDEN.iterdir(), *workloads.GOLDEN.iterdir()}


_MODULE_PROBE = """
import contextlib, io, json, sys
import wskg

watched = ("click", "numpy", "numpy.ma", "numpy.random", "scipy", "concurrent.futures",
           "logging", "dataclasses", "inspect")
bare = sorted(name for name in sys.modules if name.startswith("wskg.") or name in watched)
from wskg.cli import main

cli = sorted(name for name in sys.modules if name in watched)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({
    "bare": bare,
    "cli": cli,
    "code": code,
    "loaded": sorted(name for name in sys.modules if name.startswith("wskg.") or name in watched),
}))
"""

_CORE = ["wskg.cli", "wskg.errors", "wskg.params"]
_SEEDED = ["inspect", "numpy", "numpy.random", "wskg.stochastic"]
_GAME = ["wskg.game", "wskg.rates"]

#: Per command: an argv, and the wskg modules and watched packages it loads.
_LOADS = {
    "solve-fixed": (["solve-fixed"], _CORE + _GAME),
    "solve-strategic": (["solve-strategic"], _CORE + _GAME),
    "verify-randomization": (
        ["verify-randomization", "--trials", "10000", "--seed", "7"],
        _CORE + _SEEDED + ["dataclasses", "wskg.injection", "wskg.kstest", "wskg.randomization"],
    ),
    "simulate-injection": (
        ["simulate-injection", "--workers", "2", "--trials", "150000", "--seed", "5"],
        _CORE + _SEEDED + ["wskg.injection"],
    ),
    "leakage": (
        ["leakage", "--workers", "2", "--trials", "150000", "--seed", "5"],
        _CORE + _SEEDED + ["wskg.injection"],
    ),
    "oracle-check": (
        ["oracle-check", "--seed", "1", "--trials", "1000"],
        _CORE + _GAME + ["inspect", "numpy", "numpy.random"],
    ),
    "sweep": (
        ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "50"],
        _CORE + _GAME + ["wskg.metrics"],
    ),
}


def test_each_command_loads_only_the_modules_it_runs():
    """Each command in a fresh interpreter: ``import wskg`` loads no
    submodule, ``import wskg.cli`` loads none of the watched packages, and
    the command loads only the modules it runs. The closed-form commands
    load none of numpy, dataclasses and inspect. No command loads scipy,
    and none loads concurrent.futures or logging: the chunk engine's threads
    are plain ``threading.Thread``s."""
    assert set(_LOADS) == set(EXPECTED_FLAGS)
    for command, (argv, loaded) in _LOADS.items():
        proc = run_fresh(_MODULE_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert set(probe["bare"]) <= {"wskg.errors"}
        assert probe["cli"] == []
        assert probe["code"] == 0, command
        assert probe["loaded"] == sorted(loaded), command


def numpy_import_sites(module):
    """Qualified names of the scopes in ``wskg.<module>`` that import numpy
    at run time, skipping ``if TYPE_CHECKING:`` blocks."""
    sites = []

    def visit(node, scope):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    path = Path(wskg.__file__).parent / f"{module}.py"
    visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return sites


def test_closed_form_modules_import_numpy_only_where_they_need_it():
    """The modules the closed-form commands load import numpy only inside
    the functions that work on arrays."""
    sites = [
        site
        for module in ("params", "rates", "game", "metrics", "cli", "errors")
        for site in numpy_import_sites(module)
    ]
    assert sites == [
        "params.RngSeed.generator",
        "rates.rate_array",
        "game.oracle_jammer_br",
        "game.oracle_stackelberg",
    ]


def test_cli_imports_no_private_name_from_the_package():
    """Each command's numbers come from the module that owns them: every
    ``_COMMANDS`` entry names a payload builder defined in the module it
    names, and the CLI reads no ``_``-prefixed name of another wskg module."""
    for module, builder, *_ in wskg.cli._COMMANDS.values():
        assert getattr(importlib.import_module(f"wskg.{module}"), builder).__module__ == f"wskg.{module}"
    tree = ast.parse((Path(wskg.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "wskg")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_package_names_are_their_defining_modules_objects(monkeypatch):
    for name in wskg.__all__:
        module = importlib.import_module(f"wskg.{wskg._EXPORTS[name]}")
        value = getattr(module, name)
        assert getattr(wskg, name) is value, name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(wskg.__all__) <= set(dir(wskg))
    namespace = {}
    exec("from wskg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wskg.__all__)
    # Nothing is cached in the package: it reads the module's current binding.
    monkeypatch.setattr("wskg.rates.sum_rate", "patched")
    assert wskg.sum_rate == "patched"
    assert "sum_rate" not in vars(wskg)
    with pytest.raises(AttributeError, match="no_such_name"):
        wskg.no_such_name


def test_non_finite_result_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("wskg.injection.mi_from_gram", lambda g: float("nan"))
    code, out, err = run_cli(
        capsys, "leakage", "--trials", "10000", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_not_positive_semidefinite_exits_2(capsys, monkeypatch):
    def refuse(cov, target_dim):
        raise NotPositiveSemidefinite("x")

    monkeypatch.setattr("wskg.injection.gaussian_mi_from_cov", refuse)
    code, out, err = run_cli(capsys, "leakage", "--trials", "10000", "--seed", "1")
    assert (code, out, err) == (2, "", "numerical failure: x\n")


def test_every_error_has_an_exit_code_base():
    """``main`` maps errors to exit codes by two bases alone."""
    classes = [obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(classes) >= 4
    assert all(issubclass(cls, (ParameterError, NumericalError)) for cls in classes)


def test_non_finite_sweep_row_names_its_field(capsys, monkeypatch):
    from wskg.metrics import SweepRow

    rows = [SweepRow(1.0, 2.0, 1.0, 2.0, 0.5, 0.0, 0.5), SweepRow(2.0, 2.0, 1.0, math.inf, 0.5, 0.0, 0.5)]
    monkeypatch.setattr("wskg.metrics.sweep", lambda *args: rows)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "p_max", "--lo", "1", "--hi", "2", "--steps", "2", "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err == "numerical failure: non-finite value at result.rows[1].c_threshold: inf\n"


#: A ``run_fresh`` script that runs the console entry point on its arguments,
#: with an atexit hook that reports the collector's frozen object count.
_ENTRY = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
from wskg.cli import entry
entry()
"""


@pytest.mark.parametrize(
    "argv, status",
    [
        (["sweep", "--format", "json", "--steps", "1000", "--variable", "p_max", "--lo", "2.001",
          "--hi", "20"], 0),
        (["sweep", "--variable", "p_max", "--lo", "0", "--hi", "1", "--steps", "2"], 1),
        (["solve-fixed", "--p-max", "1e308"], 2),
        (["leakage", "--trials", "140001", "--seed", "1", "--workers", "2"], 0),
    ],
    ids=["sweep-json", "zero-payoff", "non-finite", "leakage-pool"],
)
def test_console_exit_keeps_pythons_contract(capsys, argv, status):
    """``entry`` freezes the collector before it exits: stdout, stderr and
    the status are ``main``'s, and atexit handlers still run. The leakage
    run's three chunks a stage start a thread pool before the freeze."""
    code, out, err = run_cli(capsys, *argv)
    proc = run_fresh(_ENTRY, *argv)
    assert (code, proc.returncode) == (status, status)
    assert proc.stdout == out
    *lines, frozen = proc.stderr.splitlines(keepends=True)
    assert "".join(lines) == err
    assert re.fullmatch(r"frozen [1-9]\d*\n", frozen)


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    for argv in (["solve-fixed"], ["leakage", "--trials", "10000", "--seed", "1"]):
        assert run_cli(capsys, *argv)[0] == 0
        assert gc.get_freeze_count() == before


def test_public_names_are_pinned():
    assert set(wskg.__all__) == EXPECTED_EXPORTS


def test_every_public_name_has_a_caller():
    """Each exported name is read by library code besides its definition, or
    by the benchmark in ``perfbench/``; a name that only tests read is not
    public."""
    used = set()
    for path in Path(wskg.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    bench = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    )
    unused = {
        name for name in wskg.__all__
        if name not in used and not re.search(rf"\b{name}\b", bench)
    }
    assert unused == set()


def test_every_command_runs_through_the_module_run(capsys, monkeypatch):
    """perfbench times each command by replacing ``wskg.cli.run`` with a
    wrapper, so ``main`` must look ``run`` up when it dispatches."""
    seen = []
    original = wskg.cli.run

    def recorder(command, **options):
        seen.append(command)
        return original(command, **options)

    monkeypatch.setattr(wskg.cli, "run", recorder)
    for argv, _ in _LOADS.values():
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert seen == list(EXPECTED_FLAGS)


_TRACER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer, installed_wrappers
import wskg.cli

tracer = Tracer()
tracer.install()  # imports the traced modules that wskg.cli did not load
tracer.uninstall()
print(json.dumps(installed_wrappers()))
"""


def test_span_tracer_leaves_no_wrapper_behind():
    """perfbench installs its span wrappers after ``import wskg.cli``, which
    loads neither ``game`` nor ``rates``; removing them must leave no module
    bound to a wrapper."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = run_fresh(_TRACER_PROBE, str(bench))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _subparsers():
    (commands,) = (action for action in build_parser()._actions if action.choices)
    return commands.choices


def _accepted_flags():
    return {
        name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, command in _subparsers().items()
    }


def test_command_flags_are_pinned():
    assert _accepted_flags() == EXPECTED_FLAGS


#: Per model flag, the field it sets and a value that moves the payload of
#: every command that reads the field, at the point ``_reading_point`` picks.
_MOVES = {
    "--n": ("n_subcarriers", 3), "--p-max": ("max_pilot_power", 20.0), "--gamma": ("jam_power_budget", 9.0),
    "--p-th": ("sense_threshold", 5.0), "--sigma2": ("legit_channel_var", 3.0), "--sigmaj2": ("jam_channel_var", 2.0),
}


def _reading_point(command, flag):
    """An argv of ``command`` whose payload depends on ``flag``'s field when
    the command reads it."""
    if command == "sweep":  # the swept value replaces its field
        return ["sweep", "--variable", "gamma" if flag == "--p-th" else "p_th", "--lo", "0.5", "--hi", "8", "--steps", "5"]
    if command == "solve-fixed" and flag != "--p-max":
        # Past the knee the leader plays full power into the jamming; below it
        # the payload reads neither the jam budget nor the jam variance.
        return ["solve-fixed", "--p-max", "20"]
    return [command, "--trials", "10000", "--seed", "1"] if "--seed" in EXPECTED_FLAGS[command] else [command]


def _payload_without_params(capsys, argv, **fields):
    """The payload ``run`` prints for ``argv``, with ``fields`` passed to it
    besides the parsed options, without its ``params``."""
    options = vars(build_parser(argv[0]).parse_args(argv))
    assert wskg.cli.run(**options, **fields) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["params"]
    return payload


@pytest.mark.parametrize("command", list(EXPECTED_FLAGS))
def test_each_command_accepts_exactly_the_model_flags_it_reads(capsys, command):
    """Every model flag a command accepts moves its payload (all keys but
    ``params``), and every field whose flag it does not accept, passed to
    ``run`` directly, leaves the payload as it is."""
    accepted = _accepted_flags()[command] & set(_MOVES)
    moved = set()
    for flag, (field, value) in _MOVES.items():
        argv = _reading_point(command, flag)
        base = _payload_without_params(capsys, argv)
        if flag in accepted:
            if _payload_without_params(capsys, [*argv, flag, str(value)]) != base:
                moved.add(flag)
        else:
            assert _payload_without_params(capsys, argv, **{field: value}) == base, flag
    assert moved == accepted


@pytest.mark.parametrize("command", list(EXPECTED_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0
    assert err == ""
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", out)) - {"--help"}
    assert listed == EXPECTED_FLAGS[command]


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert all(command in out for command in EXPECTED_FLAGS)

