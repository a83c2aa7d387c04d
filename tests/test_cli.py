import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import wskg
from wskg.cli import CHUNK_TRIALS, CSV_HEADER, cli, main
from wskg.randomization import RandomizationReport
from wskg.stochastic import KsReport


_MODEL_FLAGS = {
    "--n", "--p-max", "--gamma", "--p-th", "--sigma2", "--sigmaj2",
    "--format", "--output",
}
_RNG_FLAGS = {"--seed", "--stream", "--trials"}

#: Every flag each command accepts (``--help`` aside).
EXPECTED_FLAGS = {
    "solve-fixed": _MODEL_FLAGS,
    "solve-strategic": _MODEL_FLAGS | {"--delta"},
    "verify-randomization": _MODEL_FLAGS | _RNG_FLAGS,
    "simulate-injection": _MODEL_FLAGS | _RNG_FLAGS | {"--workers"},
    "leakage": _MODEL_FLAGS | _RNG_FLAGS | {"--workers"},
    "oracle-check": _MODEL_FLAGS | _RNG_FLAGS,
    "sweep": _MODEL_FLAGS | {"--variable", "--lo", "--hi", "--steps"},
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
    monkeypatch.setattr("wskg.cli.verify_randomization", lambda *a, **k: rejecting)
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
        assert [code for code, _, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1] == runs[2][1]
        payload = json.loads(runs[0][1])
        assert "workers" not in payload
        assert payload["chunk_trials"] == CHUNK_TRIALS
        assert payload["resampled_draws"] == 0


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


def test_huge_jam_budget_prints_no_warning():
    proc = run_fresh(
        "import sys; from wskg.cli import main; sys.exit(main(sys.argv[1:]))",
        "solve-strategic", "--gamma", "1e308",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payoff"] == 0.0
    assert proc.stderr == ""


_SCIPY_PROBE = """
import contextlib, io, json, sys
from wskg.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

codes = [
    run("solve-fixed")[0],
    run("solve-strategic")[0],
    run("sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "50")[0],
    run("oracle-check", "--seed", "1", "--trials", "1000")[0],
]
before = scipy_loaded()
code, out = run("verify-randomization", "--p-max", "2", "--trials", "20000", "--seed", "7")
print(json.dumps({"codes": codes, "before": before, "code": code,
                  "after": scipy_loaded(), "payload": json.loads(out)}))
"""


def test_scipy_is_loaded_only_by_the_ks_test():
    proc = run_fresh(_SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["before"] == []
    assert probe["code"] == 0
    assert "scipy.special" in probe["after"]
    assert probe["payload"]["ks_source"]["p_value"] == 0.4781976144831221


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


def test_csv_unsupported_for_solver_exits_1(capsys):
    code, _, err = run_cli(capsys, "solve-fixed", "--format", "csv")
    assert code == 1
    assert "json" in err


def test_invalid_sweep_range_exits_1(capsys):
    code, _, _ = run_cli(
        capsys,
        "sweep", "--variable", "p_max", "--lo", "5", "--hi", "1", "--steps", "10",
    )
    assert code == 1


def test_bad_delta_exits_1(capsys):
    code, _, _ = run_cli(
        capsys, "solve-strategic", "--delta", "1.5",
    )
    assert code == 1


def test_non_finite_result_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("wskg.cli.mi_from_gram", lambda g: float("nan"))
    code, out, err = run_cli(
        capsys, "leakage", "--trials", "10000", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_leakage_too_few_trials_exits_1(capsys):
    code, out, err = run_cli(capsys, "leakage", "--trials", "5", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "10000" in err


def test_command_flags_are_pinned():
    accepted = {
        name: {flag for param in command.params for flag in param.opts + param.secondary_opts}
        for name, command in cli.commands.items()
    }
    assert accepted == EXPECTED_FLAGS
