"""The three workloads: their fixed batches of operations and output checks.

A batch is built once per run from the workload seed and then repeated pass
after pass, so every pass does the same work. Each operation carries its own
check; ``check`` returns ``None`` for a correct output or a one-line reason.

Monte Carlo outputs are checked against closed forms with tolerances scaled
by ``1/sqrt(trials)``, never against exact bytes: seeded values already
change with ``--workers``. Closed-form outputs are compared byte for byte
with goldens in ``golden/``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("mc-large", "mc-small-grid", "game-cli")

MC_LARGE_TRIALS = 1_000_000
MC_LARGE_P_MAX = 2.0
SMALL_TRIALS = 10_000  # the library's minimum for covariance estimation
GRID_POINTS = 32
ORACLE_SAMPLES = 100_000
SWEEP_STEPS = 1000
#: (variable, lo, hi) of the four reference sweeps; every other parameter is
#: at its CLI default (n 10, p-max 5, gamma 4, p-th 2, sigma2 1, sigmaj2 1).
SWEEPS = (
    ("p_max", "2.001", "20"),
    ("gamma", "0", "8"),
    ("sigma2", "0.1", "4"),
    ("p_th", "0.1", "8"),
)

#: Accepted KS p-value for the in-process ``verify_randomization`` calls:
#: family-wise level 1e-3 over up to 1000 distinct calls (Bonferroni).
SMALL_KS_FLOOR = 1e-6
#: Randomized leakage stays below this many bits times 1/trials. The plug-in
#: estimate's mean bias is about 5.8/trials bits; any real leakage at these
#: trial counts is above 0.05 bits.
RANDOMIZED_LEAKAGE_PER_TRIAL = 200.0
#: Closed-form tolerances, in units of 1/sqrt(trials): about eight standard
#: deviations of the estimators, measured over 450 seeded grid points.
LEAKAGE_ABS_TOL = 11.0
VARIANCE_REL_TOL = 10.0


@dataclass(frozen=True)
class Op:
    """One operation of a batch: a CLI command or an in-process library call.

    ``argv`` holds the ``wskg`` arguments of a CLI command; ``call`` runs a
    library call and returns its value. ``check`` takes the command's
    (stdout bytes, exit status) or the call's value; an exception it raises
    counts as a failed check. ``trials`` counts the Monte Carlo trials one
    run completes and ``rows`` the sweep rows it emits.
    """

    label: str
    check: Callable
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None
    trials: int = 0
    rows: int = 0


def leakage_closed_form(p_max: float, gamma: float) -> float:
    """Gaussian MI, in bits, of the injected value and both static looks.

    With unit channel variances, the common term p_max and the injected term
    gamma over unit noise give I = log2((2(p_max + gamma) + 1) / (2 p_max + 1)).
    The covariance-based estimator converges to it whatever the injected
    value's law.
    """
    return math.log2((2.0 * (p_max + gamma) + 1.0) / (2.0 * p_max + 1.0))


def _near(value: float, expected: float, rel_tol: float, what: str) -> Optional[str]:
    if not (math.isfinite(value) and abs(value - expected) <= rel_tol * abs(expected)):
        return f"{what} {value!r} is not within {rel_tol:.3g} of {expected!r}"
    return None


def _static_leakage(bits: float, p_max: float, gamma: float, trials: int) -> Optional[str]:
    expected = leakage_closed_form(p_max, gamma)
    tol = LEAKAGE_ABS_TOL / math.sqrt(trials)
    if not (math.isfinite(bits) and abs(bits - expected) <= tol and bits > tol):
        return f"static leakage {bits!r} bits is not within {tol:.3g} of {expected:.6g}"
    return None


def _randomized_leakage(bits: float, trials: int) -> Optional[str]:
    limit = RANDOMIZED_LEAKAGE_PER_TRIAL / trials
    if not (math.isfinite(bits) and 0.0 <= bits <= limit):
        return f"randomized leakage {bits!r} bits is not in [0, {limit:.3g}]"
    return None


def _first_error(*errors: Optional[str]) -> Optional[str]:
    return next((e for e in errors if e), None)


def _json_output(stdout: bytes, status: int) -> dict:
    if status != 0:
        raise ValueError(f"exit status {status}")
    return json.loads(stdout)


def _cli_check(inner: Callable[[dict], Optional[str]]) -> Callable:
    return lambda stdout, status: inner(_json_output(stdout, status))


def _golden_check(name: str) -> Callable:
    expected = (GOLDEN / name).read_bytes()

    def check(stdout: bytes, status: int) -> Optional[str]:
        if status != 0:
            return f"exit status {status}"
        if stdout != expected:
            return f"output differs from golden/{name}"
        return None

    return check


def _accepted(out: dict) -> Optional[str]:
    return None if out["accepted"] is True else "accepted is not true"


def _mc_large(seed: int) -> List[Op]:
    cli_seed = random.Random(seed).randrange(2**31)
    n, p_max, gamma = MC_LARGE_TRIALS, MC_LARGE_P_MAX, 4.0
    common = ["--p-max", f"{p_max:g}", "--trials", str(n), "--seed", str(cli_seed)]

    def leakage(out: dict) -> Optional[str]:
        return _first_error(
            None if out["trials"] == n else f"trials {out['trials']} != {n}",
            _static_leakage(out["static_pilot_leakage_bits"], p_max, gamma, n),
            _randomized_leakage(out["randomized_pilot_leakage_bits"], n),
        )

    def injection(out: dict) -> Optional[str]:
        tol = VARIANCE_REL_TOL / math.sqrt(n)
        nominal = gamma  # jam channel variance 1 times the jam budget
        return _first_error(
            _near(out["nominal_injected_variance"], nominal, 1e-12, "nominal injected variance"),
            _near(out["injected_variance"], nominal, tol, "injected variance"),
            _near(out["observation_variance"], p_max + gamma + 1.0, tol, "observation variance"),
            _near(out["observation_cross_moment"], p_max + gamma, tol, "cross moment"),
        )

    def randomization(out: dict) -> Optional[str]:
        tol = VARIANCE_REL_TOL * math.sqrt(2.0 / n)
        return _first_error(
            _accepted(out),
            _near(out["source_real_var"], p_max * p_max / 2.0, tol, "source variance"),
        )

    return [
        Op("leakage --workers 1", _cli_check(leakage),
           argv=["leakage", *common, "--workers", "1"], trials=2 * n),
        Op("leakage --workers 2", _cli_check(leakage),
           argv=["leakage", *common, "--workers", "2"], trials=2 * n),
        Op("simulate-injection", _cli_check(injection),
           argv=["simulate-injection", *common], trials=n),
        Op("verify-randomization", _cli_check(randomization),
           argv=["verify-randomization", *common], trials=n),
    ]


def _mc_small_grid(seed: int) -> List[Op]:
    from wskg import injection, randomization
    from wskg.params import SystemParams
    from wskg.stochastic import RngSeed

    rng = random.Random(seed)
    n = SMALL_TRIALS
    ops = []
    for _ in range(GRID_POINTS):
        p_max, gamma = rng.uniform(0.5, 4.0), rng.uniform(1.0, 8.0)
        point_seed = rng.randrange(2**31)
        params = SystemParams(
            n_subcarriers=10, max_pilot_power=p_max, jam_power_budget=gamma,
            sense_threshold=2.0, legit_channel_var=1.0, jam_channel_var=1.0,
        )
        seeds = [RngSeed(point_seed, stream) for stream in range(3)]
        tag = f"p_max={p_max:.4g} gamma={gamma:.4g} seed={point_seed}"

        def verify(report, p_max=p_max) -> Optional[str]:
            low = min(report.ks_product.p_value, report.ks_source.p_value)
            return _first_error(
                None if low >= SMALL_KS_FLOOR else f"KS p-value {low!r} < {SMALL_KS_FLOOR}",
                _near(report.source_real_var, p_max * p_max / 2.0,
                      VARIANCE_REL_TOL * math.sqrt(2.0 / n), "source variance"),
            )

        # Module attributes are looked up at call time, so traced runs see
        # the span wrappers and untraced runs the plain functions.
        ops += [
            Op(f"leakage_bound {tag}",
               lambda bits, p=p_max, g=gamma: _static_leakage(bits, p, g, n),
               call=lambda a=params, s=seeds[0]: injection.leakage_bound(a, n, s), trials=n),
            Op(f"leakage_after_randomization {tag}",
               lambda bits: _randomized_leakage(bits, n),
               call=lambda a=params, s=seeds[1]: randomization.leakage_after_randomization(a, n, s),
               trials=n),
            Op(f"verify_randomization {tag}", verify,
               call=lambda a=params, s=seeds[2]: randomization.verify_randomization(a, n, s),
               trials=n),
        ]
    return ops


def _game_cli(seed: int) -> List[Op]:
    cli_seed = random.Random(seed).randrange(2**31)
    ops = [
        Op("solve-fixed", _golden_check("solve-fixed.json"), argv=["solve-fixed"]),
        Op("solve-strategic", _golden_check("solve-strategic.json"), argv=["solve-strategic"]),
        Op("oracle-check", _cli_check(_accepted),
           argv=["oracle-check", "--trials", str(ORACLE_SAMPLES), "--seed", str(cli_seed)],
           trials=ORACLE_SAMPLES),
    ]
    for variable, lo, hi in SWEEPS:
        golden = f"sweep-{variable}.csv"
        rows = (GOLDEN / golden).read_bytes().count(b"\n") - 1
        ops.append(Op(f"sweep {variable}", _golden_check(golden),
                      argv=sweep_argv(variable, lo, hi), rows=rows))
    return ops


def sweep_argv(variable: str, lo: str, hi: str) -> List[str]:
    return ["sweep", "--format", "csv", "--steps", str(SWEEP_STEPS),
            "--variable", variable, "--lo", lo, "--hi", hi]


_BUILDERS = {"mc-large": _mc_large, "mc-small-grid": _mc_small_grid, "game-cli": _game_cli}


def build(workload: str, seed: int) -> List[Op]:
    """The fixed batch of one workload, generated from the workload seed."""
    return _BUILDERS[workload](seed)
