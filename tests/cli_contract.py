"""The byte contract of the ``wskg`` CLI: one table of runs, ``EXIT_CONTRACT``,
and one ``check``. It needs only the standard library and ``wskg``.

Tier-1 (``tests/test_cli.py``) runs every row in a fresh interpreter, then
the numpy-free rows again with numpy blocked. As a script it runs every row
where numpy is installed and the numpy-free ones where it is not, prints one
line per failing row and exits 1 if any fails::

    PYTHONPATH=src python tests/cli_contract.py
"""

import argparse
import contextlib
import importlib.util
import io
import sys
import warnings
from pathlib import Path
from typing import List, NamedTuple, Optional

_ROOT = Path(__file__).resolve().parent.parent

# The benchmark's workloads give its goldens' argvs.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

_MODEL_FLAGS = {"--n", "--p-max", "--gamma", "--p-th", "--sigma2", "--sigmaj2"}
#: The model flags of the one-look laws, the injection attack's and random
#: probing's, which read no subcarrier count or threshold.
_ONE_LOOK_FLAGS = {"--p-max", "--gamma", "--sigma2", "--sigmaj2"}
_RNG_FLAGS = {"--seed", "--stream", "--trials"}

#: Every flag each command accepts (``--help`` aside), in the order the CLI
#: lists the commands: the model flags it reads, ``--output`` and its own.
EXPECTED_FLAGS = {
    "solve-fixed": _MODEL_FLAGS | {"--output"},
    "solve-strategic": _MODEL_FLAGS - {"--p-th"} | {"--output"},
    "verify-randomization": {"--p-max", "--sigma2", "--output"} | _RNG_FLAGS,
    "simulate-injection": _ONE_LOOK_FLAGS | {"--output", "--workers"} | _RNG_FLAGS,
    "leakage": _ONE_LOOK_FLAGS | {"--output", "--workers"} | _RNG_FLAGS,
    "oracle-check": _MODEL_FLAGS | {"--output"} | _RNG_FLAGS,
    "sweep": _MODEL_FLAGS | {"--output", "--format", "--variable", "--lo", "--hi", "--steps"},
}

_U64 = 2**64
_NOT_FINITE = "numerical failure: moment matrix is not finite"
#: oracle-check's golden artifacts; the benchmark's are in ``workloads.GOLDEN``.
GOLDEN = _ROOT / "tests" / "golden"


def _invalid_choice(prog, flag, value, choices):
    """argparse's error line for ``value`` outside ``choices``, as the
    running Python words it: newer versions print the choices unquoted."""
    parser = argparse.ArgumentParser(prog=prog, exit_on_error=False)
    parser.add_argument(flag, choices=choices)
    try:
        parser.parse_args([value] if flag.isupper() else [flag, value])
    except argparse.ArgumentError as error:
        return f"{prog}: error: {error}"
    raise AssertionError(f"{value!r} is one of {choices}")


class Row(NamedTuple):
    """One case of the contract. ``stderr`` is the one line the run prints
    there (none on success), or for an argparse usage error the last line,
    after the usage message. A run whose status is not 0 leaves stdout
    empty; a row with a ``golden`` file requires stdout to be its bytes."""

    name: str
    argv: List[str]
    status: int
    stderr: str
    golden: Optional[Path] = None


EXIT_CONTRACT = [Row(*row) for row in [
    # Usage errors. Flags are never abbreviated: argparse would read an
    # unambiguous prefix as the flag.
    ("no-arguments", [], 1, "wskg: error: the following arguments are required: COMMAND"),
    ("unknown-command", ["bogus"], 1, _invalid_choice("wskg", "COMMAND", "bogus", tuple(EXPECTED_FLAGS))),
    ("unknown-option", ["solve-fixed", "--bogus", "1"], 1, "wskg: error: unrecognized arguments: --bogus 1"),
    # The representative threshold is fixed: no flag chooses it.
    ("delta-flag", ["solve-strategic", "--delta", "0.5"], 1, "wskg: error: unrecognized arguments: --delta 0.5"),
    ("abbreviated-flag", ["oracle-check", "--p-m", "3", "--seed", "1"], 1,
     "wskg: error: unrecognized arguments: --p-m 3"),
    ("abbreviated-flag-unique", ["solve-fixed", "--p-ma", "3"], 1, "wskg: error: unrecognized arguments: --p-ma 3"),
    ("csv-for-a-solver", ["solve-fixed", "--format", "csv"], 1, "wskg: error: unrecognized arguments: --format csv"),
    # Each field has one name.
    ("sweep-variable-P", ["sweep", "--variable", "P", "--lo", "3", "--hi", "4", "--steps", "2"], 1,
     _invalid_choice("wskg sweep", "--variable", "P", ("p_max", "gamma", "sigma2", "p_th"))),
    # A command accepts only the model flags it reads.
    *((f"unread-{flag[2:]}-{command}", [command, *(["--seed", "1"] if "--seed" in flags else []), flag, "1"], 1,
       f"wskg: error: unrecognized arguments: {flag} 1")
      for command, flags in EXPECTED_FLAGS.items() for flag in sorted(_MODEL_FLAGS - flags)),
    ("unknown-format", ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "5", "--format", "xml"], 1,
     _invalid_choice("wskg sweep", "--format", "xml", ("csv", "json"))),
    ("non-integer-steps", ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "2.5"], 1,
     "wskg sweep: error: argument --steps: invalid int value: '2.5'"),
    ("non-integer-n", ["solve-fixed", "--n", "ten"], 1,
     "wskg solve-fixed: error: argument --n: invalid int value: 'ten'"),
    ("missing-seed", ["simulate-injection"], 1,
     "wskg simulate-injection: error: the following arguments are required: --seed"),
    # An empty path names no file: it must not fall back to stdout.
    ("empty-output-path", ["solve-fixed", "--output", ""], 1,
     "wskg solve-fixed: error: argument --output: the path is empty"),
    ("output-is-a-directory", ["solve-fixed", "--output", "."], 1,
     "wskg solve-fixed: error: argument --output: '.' is a directory"),
    # Invalid configurations.
    ("invalid-parameter", ["solve-fixed", "--p-max", "-3"], 1, "error: max_pilot_power must be >= 0, got -3.0"),
    # A negative number in exponent form is a value, not an unknown option.
    ("negative-exponent-value", ["solve-fixed", "--p-max", "-1e5"], 1,
     "error: max_pilot_power must be >= 0, got -100000.0"),
    ("output-into-missing-directory", ["solve-fixed", "--output", "/nonexistent-wskg/x.json"], 1,
     "error: cannot write /nonexistent-wskg/x.json: No such file or directory"),
    # A sweep checks its field's domain at lo, the grid's smallest value.
    *((f"sweep-{variable}-from-minus-{lo[1:]}", ["sweep", "--variable", variable, "--lo", lo, "--hi", "5", "--steps", "10"],
       1, f"error: {message}") for variable, lo, message in [
        ("p_max", "-1", "max_pilot_power must be >= 0, got -1.0"),
        ("gamma", "-1", "jam_power_budget must be >= 0, got -1.0"),
        ("gamma", "-1e-300", "jam_power_budget must be >= 0, got -1e-300"),
        ("p_th", "-1", "sense_threshold must be >= 0, got -1.0"),
        ("sigma2", "-1", "legit_channel_var must be > 0, got -1.0")]),
    ("invalid-sweep-range", ["sweep", "--variable", "p_max", "--lo", "5", "--hi", "1", "--steps", "10"], 1,
     "error: need lo < hi, got lo=5.0, hi=1.0"),
    # A ZeroEquilibriumPayoff exits 1 through its base, ParameterError.
    ("zero-payoff", ["sweep", "--variable", "p_max", "--lo", "0", "--hi", "1", "--steps", "2"], 1,
     "error: equilibrium payoff is zero; relative metrics are undefined"),
    *((f"zero-trials-{command}", [command, "--trials", "0", "--seed", "1"], 1, "error: trials must be >= 1, got 0")
      for command in ("verify-randomization", "simulate-injection", "leakage", "oracle-check")),
    # simulate-injection's covariances need as many trials as leakage's estimates.
    ("one-trial-injection", ["simulate-injection", "--trials", "1", "--seed", "1"], 1,
     "error: n_trials must be >= 10000 for covariance estimation, got 1"),
    ("injection-too-few-trials", ["simulate-injection", "--trials", "9999", "--seed", "1"], 1,
     "error: n_trials must be >= 10000 for covariance estimation, got 9999"),
    ("leakage-too-few-trials", ["leakage", "--trials", "5", "--seed", "1"], 1,
     "error: n_trials must be >= 10000 for covariance estimation, got 5"),
    ("zero-workers", ["leakage", "--trials", "10000", "--seed", "1", "--workers", "0"], 1,
     "error: workers must be >= 1, got 0"),
    ("verify-too-few-trials", ["verify-randomization", "--trials", "5", "--seed", "1"], 1,
     "error: n_samples must be >= 10000, got 5"),
    ("one-step-sweep", ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "1"], 1,
     "error: steps must be >= 2, got 1"),
    ("verify-zero-pilot-power", ["verify-randomization", "--trials", "10000", "--seed", "1", "--p-max", "0"], 1,
     "error: max_pilot_power must be > 0 to verify the defense"),
    # Seeds and streams outside [0, 2**64), which Philox would reduce to one
    # inside. ``run`` rejects them before the command runs: oracle-check
    # before its leader-grid search loads numpy.
    ("oracle-negative-seed", ["oracle-check", "--seed", "-1"], 1, "error: seed must lie in [0, 2**64), got -1"),
    ("negative-seed", ["leakage", "--seed", "-1", "--trials", "10000"], 1,
     "error: seed must lie in [0, 2**64), got -1"),
    # Rejected before the variance checks that fail on these flags with a seed in range.
    ("verify-overflowing-model", ["verify-randomization", "--p-max", "1e200", "--sigma2", "1e308", "--seed", "-5",
                                  "--trials", "10000"], 1,
     "error: seed must lie in [0, 2**64), got -5"),
    ("seed-2**64", ["leakage", "--seed", str(_U64), "--trials", "10000"], 1,
     f"error: seed must lie in [0, 2**64), got {_U64}"),
    ("stream-2**64", ["verify-randomization", "--seed", "1", "--stream", str(_U64), "--trials", "10000"], 1,
     f"error: stream must lie in [0, 2**64), got {_U64}"),
    ("negative-stream", ["oracle-check", "--seed", "1", "--stream", "-1", "--trials", "10"], 1,
     "error: stream must lie in [0, 2**64), got -1"),
    # Three chunks a stage: the run's six substreams would wrap to 0.
    ("leakage-wraps", ["leakage", "--seed", "1", "--stream", str(_U64 - 1), "--trials", "140001"], 1,
     f"error: substreams {_U64 - 1} to {_U64 + 4} pass 2**64 - 1"),
    ("injection-wraps", ["simulate-injection", "--seed", "1", "--stream", str(_U64 - 2), "--trials", "140001"], 1,
     f"error: substreams {_U64 - 2} to {_U64} pass 2**64 - 1"),
    # Runs that finish. A self-check exits 0 only when it accepts: oracle-check
    # at the default size, 1024 subcarriers and one-candidate sample blocks;
    # verify-randomization one past a 16384-value KS block and a 16384-bit
    # pilot block, at several blocks of an odd size, and at the benchmark's size.
    ("injection-runs", ["simulate-injection", "--trials", "10000", "--seed", "1"], 0, ""),
    ("oracle-default-size", ["oracle-check", "--seed", "11", "--trials", "2000"], 0, ""),
    ("oracle-1024-subcarriers", ["oracle-check", "--n", "1024", "--trials", "2000", "--seed", "1"], 0, ""),
    ("oracle-16385-subcarriers", ["oracle-check", "--n", "16385", "--trials", "3", "--seed", "1"], 0, ""),
    *((f"verify-{trials}-trials", ["verify-randomization", "--trials", trials, "--seed", "1"], 0, "")
      for trials in ("16385", "140001", "1000000")),
    # Half the smallest subnormal budget rounds to a threshold of 0, below it.
    ("subnormal-budget", ["solve-strategic", "--p-max", "5e-324"], 0, ""),
    # Huge budgets: each run either succeeds or fails on a non-finite
    # quantity, and never prints a warning.
    ("non-finite-payoff", ["solve-fixed", "--p-max", "1e308"], 2,
     "numerical failure: equilibrium payoff is not finite: nan"),
    ("pilot-budget", ["solve-strategic", "--p-max", "1e308"], 2,
     "numerical failure: equilibrium payoff is not finite: nan"),
    ("jam-budget", ["solve-strategic", "--gamma", "1e308"], 0, ""),
    # An overflowed knee is no knife edge.
    ("sweep-overflowed-knee", ["sweep", "--variable", "gamma", "--lo", "0", "--hi", "1e308", "--steps", "5"], 0, ""),
    ("oracle-jam-budget", ["oracle-check", "--seed", "1", "--gamma", "1e308"], 0, ""),
    ("non-finite-full-power-payoff",
     ["sweep", "--variable", "gamma", "--lo", "6e199", "--hi", "7e199", "--steps", "2", "--p-max", "1e200"], 2,
     "numerical failure: full-power payoff is not finite: nan"),
    # The rate's denominator b*(b + 2a) overflows where its rate is a normal
    # float: both payoffs at the knee still tie, and no payoff above it is 0.
    ("knee-overflowed-denominator", ["solve-fixed", "--gamma", "1e200", "--p-th", "1e-100", "--p-max", "1e100"], 0,
     ""),
    ("sweep-overflowed-denominator", ["sweep", "--gamma", "1e200", "--p-th", "1e-100", "--variable", "p_max",
                                      "--lo", "2e100", "--hi", "3e100", "--steps", "3"], 0, ""),
    ("leakage-jam-budget", ["leakage", "--seed", "1", "--gamma", "1e308"], 2, _NOT_FINITE),
    ("leakage-legit-variance", ["leakage", "--seed", "1", "--sigma2", "1e308"], 2, _NOT_FINITE),
    ("injection-jam-budget", ["simulate-injection", "--seed", "1", "--gamma", "1e308"], 2,
     "numerical failure: non-finite value at result.injected_variance: nan"),
    # Valid flags whose Monte Carlo run overflows or underflows.
    ("verify-product-variance", ["verify-randomization", "--p-max", "1e200", "--sigma2", "1e308", "--seed", "5",
                                 "--trials", "10000"], 2,
     "numerical failure: product variance is not a normal float: inf"),
    # Every h underflows to 0: not a rejection by the KS test (exit 3).
    ("verify-underflow", ["verify-randomization", "--sigma2", "5e-324", "--seed", "1", "--trials", "10000"], 2,
     "numerical failure: sigma2 / 2 is not a normal float: 0.0"),
    ("leakage-moments", ["leakage", "--p-max", "1e308", "--sigmaj2", "1e6", "--seed", "1", "--trials", "10000"], 2,
     _NOT_FINITE),
    ("injection-observations", ["simulate-injection", "--p-max", "1e200", "--sigma2", "1e200", "--seed", "1",
                                "--trials", "10000"], 2,
     "numerical failure: non-finite value at result.observation_variance: nan"),
    # Every jammer gain underflows to 0, and so does each precoder
    # denominator: the moments are NaN. Each trial is drawn once.
    ("injection-zero-jam-gains", ["simulate-injection", "--sigmaj2", "5e-324", "--seed", "1", "--trials", "10000"], 2,
     "numerical failure: non-finite value at result.injected_variance: nan"),
    ("leakage-zero-jam-gains", ["leakage", "--sigmaj2", "5e-324", "--seed", "1", "--trials", "10000"], 2, _NOT_FINITE),
    # Tiny but normal jammer gains: the run finishes as at unit variance.
    ("leakage-tiny-jam-variance", ["leakage", "--sigmaj2", "1e-300", "--trials", "10000", "--seed", "1"], 0, ""),
    # Finite moments whose sums' outer product overflows.
    ("leakage-outer-product", ["leakage", "--sigma2", "1e303", "--seed", "2", "--trials", "10000"], 2, _NOT_FINITE),
    # Goldens, byte for byte: the benchmark's closed-form outputs, read only,
    # at the argvs its workloads run, and oracle-check's artifacts.
    *((f"golden-{path.name}", argv, 0, "", path) for path, argv in [
        (workloads.GOLDEN / "solve-fixed.json", ["solve-fixed"]),
        (workloads.GOLDEN / "solve-strategic.json", ["solve-strategic"]),
        *((workloads.GOLDEN / f"sweep-{name}.csv", workloads.sweep_argv(name, lo, hi)) for name, lo, hi in workloads.SWEEPS),
        (GOLDEN / "oracle-check-seed5.json", ["oracle-check", "--trials", "100000", "--seed", "5"]),
        (GOLDEN / "oracle-check-n37.json",
         ["oracle-check", "--n", "37", "--p-max", "1.5", "--trials", "20000", "--seed", "3"]),
    ]),
    # The default budget spelled out prints the default's bytes, and a sweep
    # from -0 or -0e0 the sweep from 0's: a negative number is a value.
    ("golden-solve-fixed-p-max-5", ["solve-fixed", "--p-max", "5"], 0, "", workloads.GOLDEN / "solve-fixed.json"),
    *((f"sweep-gamma-from-minus-{lo[1:]}", workloads.sweep_argv("gamma", lo, "8"), 0, "",
       workloads.GOLDEN / "sweep-gamma.csv") for lo in ("-0", "-0e0")),
]]

def runs_without_numpy(row):
    """Whether a row's run needs no numpy: a closed-form command, a usage
    error, which argparse reports before any command runs, or a seed or
    stream that ``run`` rejects before the command runs."""
    return (bool(row.argv) and row.argv[0] in ("solve-fixed", "solve-strategic", "sweep")
            or row.stderr.startswith(("wskg", "error: seed ", "error: stream ")))


def run(argvs):
    """``main`` on each argv, in this interpreter: one ``[status, stdout,
    stderr]`` a run. Every warning prints, also from a line that warned in
    an earlier run."""
    warnings.simplefilter("always")
    from wskg.cli import main

    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append([main(argv), out.getvalue(), err.getvalue()])
    return runs


def check(row, result):
    """``None`` when ``result``, a ``[status, stdout, stderr]``, keeps
    ``row``'s contract, else the first breach in one line."""
    status, out, err = result
    lines = err.splitlines(keepends=True)
    if status != row.status:
        return f"exit status {status}, expected {row.status}; stderr {err!r}"
    if status != 0 and out:
        return f"stdout is not empty: {out[:80]!r}"
    if row.golden is not None and out.encode("utf-8") != row.golden.read_bytes():
        return f"stdout differs from {row.golden.relative_to(_ROOT)}"
    if lines[-1:] != ([f"{row.stderr}\n"] if row.stderr else []):
        return f"stderr ends {lines[-1:]!r}, expected {row.stderr!r}"
    # Only argparse's usage message comes before the line.
    if len(lines) > 1 and not (row.stderr.startswith("wskg") and lines[0].startswith("usage: wskg")):
        return f"stderr has more than its line: {err!r}"
    return None


def main():
    rows = EXIT_CONTRACT if importlib.util.find_spec("numpy") else list(filter(runs_without_numpy, EXIT_CONTRACT))
    failures = [f"{row.name}: {reason}" for row, result in zip(rows, run([row.argv for row in rows]))
                if (reason := check(row, result)) is not None]
    for line in failures:
        print(line)
    print(f"{len(rows) - len(failures)} of {len(rows)} rows passed; "
          f"{len(EXIT_CONTRACT) - len(rows)} rows need numpy and did not run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
