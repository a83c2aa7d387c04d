import ast
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
from wskg.cli import build_parser, main
from wskg.injection import CHUNK_TRIALS
from wskg.metrics import CSV_HEADER
from wskg.randomization import RandomizationReport
from wskg.stochastic import KsReport


_MODEL_FLAGS = {"--n", "--p-max", "--gamma", "--p-th", "--sigma2", "--sigmaj2", "--output"}
_RNG_FLAGS = {"--seed", "--stream", "--trials"}

#: Every flag each command accepts (``--help`` aside).
EXPECTED_FLAGS = {
    "solve-fixed": _MODEL_FLAGS,
    "solve-strategic": _MODEL_FLAGS | {"--delta"},
    "verify-randomization": _MODEL_FLAGS | _RNG_FLAGS,
    "simulate-injection": _MODEL_FLAGS | _RNG_FLAGS | {"--workers"},
    "leakage": _MODEL_FLAGS | _RNG_FLAGS | {"--workers"},
    "oracle-check": _MODEL_FLAGS | _RNG_FLAGS,
    "sweep": _MODEL_FLAGS | {"--format", "--variable", "--lo", "--hi", "--steps"},
}

#: Every name ``wskg`` exports.
EXPECTED_EXPORTS = {
    "ALLOCATION_SUM_RTOL", "EquilibriumResult", "NotPositiveSemidefinite", "NumericalError",
    "ParameterError", "PowerAllocation", "RngSeed", "SystemParams", "ZeroEquilibriumPayoff",
    "coincidence_precoder", "critical_power", "gaussian_mi_from_cov", "gram",
    "jammer_br_strategic", "ks_test_normal", "leakage_after_randomization", "leakage_bound",
    "mi_from_gram", "oracle_jammer_br", "oracle_stackelberg", "randomize_trials", "rate_array",
    "sample_complex_gaussian", "sample_qpsk_pilot", "simulate_two_look", "stackelberg_fixed",
    "stackelberg_strategic", "strategic_threshold_gain", "sum_rate", "sweep",
    "verify_randomization",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script, *argv):
    """Run ``script`` in a new interpreter that imports this checkout's wskg,
    with default warning filters, so imports and stderr are not pytest's."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wskg.__file__))}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )


#: A ``run_fresh`` script that runs the CLI on its arguments.
_MAIN = "import sys; from wskg.cli import main; sys.exit(main(sys.argv[1:]))"


def test_solve_fixed_reference_output(capsys):
    code, out, _ = run_cli(capsys, "solve-fixed", "--p-max", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "solve-fixed"
    assert payload["p_se"] == 2.0
    assert payload["payoff"] == pytest.approx(8.47997, abs=1e-4)
    assert payload["unique"] is True
    assert payload["boundary_case"] is False
    assert payload["profiles"][0]["allocation"] == [0.0] * 10
    assert payload["params"]["max_pilot_power"] == 5.0


def test_solve_fixed_boundary_output(capsys):
    code, out, _ = run_cli(capsys, "solve-fixed", "--p-max", "10")
    payload = json.loads(out)
    assert code == 0
    assert payload["boundary_case"] is True
    assert payload["unique"] is False
    assert len(payload["profiles"]) == 2


def test_solve_strategic_emits_epsilon_interval(capsys):
    code, out, _ = run_cli(capsys, "solve-strategic", "--p-max", "5", "--delta", "0.5")
    payload = json.loads(out)
    assert code == 0
    assert payload["epsilon_interval"] == "[0, 5)"
    assert payload["profiles"][0]["threshold"] == pytest.approx(2.5)
    assert payload["payoff"] == pytest.approx(10 * math.log2(4 / 3), rel=1e-9)
    assert payload["unique"] is False


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
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--variable", "p_max",
        "--lo", "2.0001",
        "--hi", "20",
        "--steps", "10",
        "--format", "csv",
        "--output", str(out_file),
    )
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    lines = text.strip().split("\n")
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


def test_sweep_accepts_uppercase_budget_alias(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--variable", "P", "--lo", "3", "--hi", "4", "--steps", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.startswith(CSV_HEADER)


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


def test_oracle_check_accepts(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--seed", "11", "--trials", "2000",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["accepted"] is True
    assert payload["relative_gap"] <= 1e-6
    assert payload["jensen_dominance"] is True


def test_simulate_injection_reports_model_variance(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate-injection", "--p-max", "2", "--trials", "100000", "--seed", "5",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["nominal_injected_variance"] == 4.0
    assert payload["injected_variance"] == pytest.approx(4.0, rel=0.05)
    assert payload["resampled_draws"] == 0


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
        assert payload["resampled_draws"] == 0


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


def test_zero_workers_exits_1(capsys):
    code, out, err = run_cli(capsys, "leakage", "--trials", "10000", "--seed", "1", "--workers", "0")
    assert code == 1
    assert out == ""
    assert "workers must be >= 1" in err


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
    code, _, _ = run_cli(
        capsys, "sweep", "--variable", "gamma", "--lo", "0", "--hi", "1e308", "--steps", "5",
    )
    assert code == 0


def test_huge_jam_budget_allocation_does_not_overflow(capsys):
    code, out, err = run_cli(capsys, "solve-strategic", "--gamma", "1e308")
    assert code == 0
    assert json.loads(out)["payoff"] == 0.0
    assert "Traceback" not in err


_NOT_FINITE = "numerical failure: moment matrix is not finite\n"


@pytest.mark.parametrize(
    "argv, code, stderr, expected",
    [
        (("solve-strategic", "--gamma", "1e308"), 0, "", {"payoff": 0.0}),
        (
            ("solve-strategic", "--p-max", "1e308"), 2,
            "numerical failure: equilibrium payoff is not finite: nan\n", {},
        ),
        (
            ("oracle-check", "--seed", "1", "--gamma", "1e308"), 0, "",
            {"accepted": True, "best_sampled_allocation_value": 0.0},
        ),
        (("leakage", "--seed", "1", "--gamma", "1e308"), 2, _NOT_FINITE, {}),
        (("leakage", "--seed", "1", "--sigma2", "1e308"), 2, _NOT_FINITE, {}),
        (
            ("simulate-injection", "--seed", "1", "--gamma", "1e308"), 2,
            "numerical failure: non-finite value at result.injected_variance: nan\n", {},
        ),
    ],
    ids=["jam-budget", "pilot-budget", "oracle-jam-budget", "leakage-jam-budget",
         "leakage-legit-variance", "injection-jam-budget"],
)
def test_huge_budget_prints_no_warning(argv, code, stderr, expected):
    proc = run_fresh(_MAIN, *argv)
    assert proc.returncode == code
    assert proc.stderr == stderr
    if code == 0:
        payload = json.loads(proc.stdout)
        assert {key: payload[key] for key in expected} == expected
    else:
        assert proc.stdout == ""


def test_tiny_jammer_variance_finishes():
    # An absolute singularity floor redrew nearly every channel set here and
    # did not finish in two minutes.
    proc = run_fresh(
        _MAIN,
        "leakage", "--sigmaj2", "1e-300", "--trials", "10000", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["resampled_draws"] == 0


_SCIPY_PROBE = """
import contextlib, io, json, sys
from wskg.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

codes = {argv[0]: run(*argv)[0] for argv in (
    ["solve-fixed"],
    ["solve-strategic"],
    ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "50"],
    ["oracle-check", "--seed", "1", "--trials", "1000"],
    ["simulate-injection", "--trials", "20000", "--seed", "5", "--workers", "2"],
    ["leakage", "--trials", "20000", "--seed", "5", "--workers", "2"],
)}
code, out = run("verify-randomization", "--p-max", "2", "--trials", "20000", "--seed", "7")
print(json.dumps({"codes": codes, "code": code, "payload": json.loads(out),
                  "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_no_command_loads_scipy():
    proc = run_fresh(_SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert set(probe["codes"]) | {"verify-randomization"} == set(EXPECTED_FLAGS)
    assert set(probe["codes"].values()) == {0}
    assert probe["code"] == 0
    assert probe["scipy"] == []
    # scipy.special's ndtr and kolmogorov give this p-value; the port keeps their bits.
    assert probe["payload"]["ks_source"]["p_value"] == 0.4781976144831221


_MODULE_PROBE = """
import contextlib, io, json, sys
import wskg

watched = ("click", "numpy", "numpy.ma", "numpy.random", "concurrent.futures",
           "dataclasses", "inspect")
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
    "cpus": wskg.injection.usable_cpus() if "wskg.injection" in sys.modules else None,
}))
"""

_CORE = ["wskg.cli", "wskg.errors", "wskg.params"]
_SEEDED = ["dataclasses", "inspect", "numpy", "numpy.random", "wskg.stochastic"]
_GAME = ["wskg.game", "wskg.rates"]

#: Per command: an argv, and the wskg modules and watched packages it loads.
_LOADS = {
    "solve-fixed": (["solve-fixed"], _CORE + _GAME),
    "solve-strategic": (["solve-strategic"], _CORE + _GAME),
    "verify-randomization": (
        ["verify-randomization", "--trials", "10000", "--seed", "7"],
        _CORE + _SEEDED + ["wskg.injection", "wskg.kstest", "wskg.randomization"],
    ),
    "simulate-injection": (
        ["simulate-injection", "--workers", "2", "--trials", "150000", "--seed", "5"],
        _CORE + _SEEDED + ["wskg.injection"],
    ),
    "leakage": (
        ["leakage", "--workers", "2", "--trials", "150000", "--seed", "5"],
        _CORE + _SEEDED + ["wskg.injection", "wskg.randomization"],
    ),
    "oracle-check": (["oracle-check", "--seed", "1", "--trials", "1000"], _CORE + _GAME + _SEEDED),
    "sweep": (
        ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "50"],
        _CORE + _GAME + ["wskg.metrics"],
    ),
}


def test_each_command_loads_only_the_modules_it_runs():
    """Each command in a fresh interpreter: ``import wskg`` loads no
    submodule, ``import wskg.cli`` loads none of the watched packages, and
    the command loads only the modules it runs. The closed-form commands
    load none of numpy, dataclasses and inspect."""
    assert set(_LOADS) == set(EXPECTED_FLAGS)
    for command, (argv, loaded) in _LOADS.items():
        proc = run_fresh(_MODULE_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert set(probe["bare"]) <= {"wskg.errors"}
        assert probe["cli"] == []
        assert probe["code"] == 0, command
        # With one usable CPU the chunks run on the calling thread, without a pool.
        pool = ["concurrent.futures"] if "--workers" in argv and probe["cpus"] > 1 else []
        assert probe["loaded"] == sorted(loaded + pool), command


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


def test_invalid_parameter_exits_1(capsys):
    code, _, err = run_cli(capsys, "solve-fixed", "--p-max", "-3")
    assert code == 1
    assert "max_pilot_power" in err


def test_missing_seed_exits_1(capsys):
    code, _, err = run_cli(capsys, "simulate-injection")
    assert code == 1
    assert "--seed" in err


def test_unknown_option_exits_1(capsys):
    code, _, _ = run_cli(capsys, "solve-fixed", "--bogus", "1")
    assert code == 1


def test_unknown_format_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "5", "--format", "xml",
    )
    assert code == 1
    assert "xml" in err


def test_csv_unsupported_for_solver_exits_1(capsys):
    code, out, err = run_cli(capsys, "solve-fixed", "--format", "csv")
    assert code == 1
    assert out == ""
    assert "--format" in err


def test_invalid_sweep_range_exits_1(capsys):
    code, _, _ = run_cli(
        capsys,
        "sweep", "--variable", "p_max", "--lo", "5", "--hi", "1", "--steps", "10",
    )
    assert code == 1


def test_bad_delta_exits_1(capsys):
    for delta in ("0", "1", "1.5", "nan"):
        code, out, err = run_cli(capsys, "solve-strategic", "--delta", delta)
        assert code == 1
        assert out == ""
        assert f"delta must lie in (0, 1), got {float(delta)!r}" in err


@pytest.mark.parametrize("command", ("verify-randomization", "simulate-injection", "leakage", "oracle-check"))
def test_zero_trials_exits_1(capsys, command):
    code, out, err = run_cli(capsys, command, "--trials", "0", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "trials must be >= 1" in err


def test_one_trial_simulate_injection_exits_1(capsys):
    # One sample has no sample variance: no success with variances of 0.
    code, out, err = run_cli(capsys, "simulate-injection", "--trials", "1", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: a sample covariance needs >= 2 trials, got 1\n"


def test_non_finite_result_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("wskg.injection.mi_from_gram", lambda g: float("nan"))
    code, out, err = run_cli(
        capsys, "leakage", "--trials", "10000", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


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


#: Valid flags whose Monte Carlo run overflows or underflows, and the one
#: line each prints.
_NUMERICAL_FAILURES = [
    (["verify-randomization", "--n", "1", "--p-max", "1e200", "--p-th", "1", "--sigma2", "1e308",
      "--seed", "-5", "--trials", "10000"], "product variance is not a normal float: inf"),
    # Every h underflows to 0: not a rejection by the KS test (exit 3).
    (["verify-randomization", "--gamma", "1e20", "--p-th", "1e-12", "--sigma2", "5e-324",
      "--seed", "1", "--trials", "10000"], "sigma2 / 2 is not a normal float: 0.0"),
    (["leakage", "--p-max", "1e308", "--sigmaj2", "1e6", "--seed", "1", "--trials", "10000"],
     "moment matrix is not finite"),
    (["simulate-injection", "--p-max", "1e200", "--sigma2", "1e200", "--seed", "1", "--trials", "10000"],
     "non-finite value at result.observation_variance: nan"),
    # Finite moments whose sums' outer product overflows.
    (["leakage", "--sigma2", "1e303", "--seed", "2", "--trials", "10000"],
     "moment matrix is not finite"),
]


@pytest.mark.parametrize("argv, message", _NUMERICAL_FAILURES)
def test_monte_carlo_overflow_exits_2_without_warnings(argv, message):
    proc = run_fresh(_MAIN, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"numerical failure: {message}\n"


def test_leakage_too_few_trials_exits_1(capsys):
    code, out, err = run_cli(capsys, "leakage", "--trials", "5", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "10000" in err


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
    wrapper, so the click callbacks must look ``run`` up when called."""
    seen = []
    original = wskg.cli.run

    def recorder(command, **options):
        seen.append(command)
        return original(command, **options)

    monkeypatch.setattr(wskg.cli, "run", recorder)
    for argv in (
        ["solve-fixed"],
        ["solve-strategic"],
        ["verify-randomization", "--p-max", "2", "--trials", "10000", "--seed", "7"],
        ["simulate-injection", "--trials", "10000", "--seed", "5"],
        ["leakage", "--trials", "10000", "--seed", "5"],
        ["oracle-check", "--trials", "1000", "--seed", "1"],
        ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "5"],
    ):
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


def test_command_flags_are_pinned():
    accepted = {
        name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, command in _subparsers().items()
    }
    assert accepted == EXPECTED_FLAGS


@pytest.mark.parametrize("command", list(EXPECTED_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0
    assert err == ""
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", out)) - {"--help"}
    assert listed == EXPECTED_FLAGS[command]


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "COMMAND"),
        (["bogus"], "bogus"),
        (["oracle-check", "--p-m", "3", "--seed", "1"], "--p-m"),
        (["solve-fixed", "--p-ma", "3"], "--p-ma"),
        (["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "2.5"], "--steps"),
        (["solve-fixed", "--n", "ten"], "--n"),
    ],
    ids=["no-arguments", "unknown-command", "abbreviated-flag", "abbreviated-flag-unique",
         "non-integer-steps", "non-integer-n"],
)
def test_usage_error_exits_1(capsys, argv, named):
    # Flags are never abbreviated: argparse would read an unambiguous prefix as the flag.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert named in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert all(command in out for command in EXPECTED_FLAGS)


def test_negative_numbers_are_values(capsys):
    """A negative number in exponent form is read as the flag's value, as
    ``float`` reads it, not taken for an unknown option."""
    code, out, err = run_cli(capsys, "solve-fixed", "--p-max", "-1e5")
    assert (code, out) == (1, "")
    assert "max_pilot_power must be >= 0, got -100000.0" in err
    code, out, _ = run_cli(
        capsys, "sweep", "--variable", "gamma", "--lo", "-0e0", "--hi", "8", "--steps", "3",
    )
    assert code == 0
    assert json.loads(out)["lo"] == 0.0


def test_output_into_missing_directory_exits_1(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_fresh(_MAIN, "solve-fixed", "--output", str(target))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"


def test_output_naming_a_directory_exits_1(tmp_path):
    proc = run_fresh(_MAIN, "solve-fixed", "--output", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--output" in proc.stderr and str(tmp_path) in proc.stderr
    assert "Traceback" not in proc.stderr
