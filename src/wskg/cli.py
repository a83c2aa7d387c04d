"""Command-line harness: solvers, verifications, simulations, and sweeps.

Every command is a deterministic function of its option values; commands that
draw random numbers require an explicit ``--seed`` (there is no wall-clock
default). JSON output has sorted keys and CSV numbers carry 12 significant
digits, so identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure
(non-finite result), 3 a verification command rejected its own check.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING, List, Optional

from .errors import (
    NotPositiveSemidefinite,
    NumericalError,
    ParameterError,
    ZeroEquilibriumPayoff,
)
from .params import EquilibriumResult, PowerAllocation, SystemParams

if TYPE_CHECKING:
    from .stochastic import RngSeed

# Each command imports what it runs when it runs: the closed-form commands
# (solve-fixed, solve-strategic, sweep) never load numpy, dataclasses or
# inspect (params' records are named tuples), oracle-check loads
# numpy but not the Monte Carlo modules, the Monte Carlo commands never load
# game, rates or metrics, and only sweep loads metrics.

#: Significance level for the self-checking verification commands.
KS_SIGNIFICANCE = 0.001


def _profile_dict(profile) -> dict:
    return {
        "pilot_power": profile.pilot_power,
        "allocation": [float(g) for g in profile.allocation.gamma],
        "threshold": profile.threshold,
    }


def _equilibrium_payload(result: EquilibriumResult) -> dict:
    return {
        "p_se": result.profiles[0].pilot_power,
        "payoff": result.payoff,
        "unique": result.unique,
        "boundary_case": result.boundary_case,
        "profiles": [_profile_dict(profile) for profile in result.profiles],
    }


def _cmd_solve_fixed(params: SystemParams) -> dict:
    from .game import stackelberg_fixed

    return _equilibrium_payload(stackelberg_fixed(params))


def _cmd_solve_strategic(params: SystemParams, delta: float) -> dict:
    from .game import stackelberg_strategic

    payload = _equilibrium_payload(stackelberg_strategic(params, delta))
    payload["delta"] = delta
    payload["epsilon_interval"] = f"[0, {params.max_pilot_power:.12g})"
    return payload


def _cmd_verify_randomization(params: SystemParams, seed: RngSeed, trials: int) -> dict:
    from dataclasses import asdict

    from .randomization import verify_randomization

    report = verify_randomization(params, trials, seed)
    power = params.max_pilot_power
    return {
        "trials": trials,
        "ks_product": asdict(report.ks_product),
        "ks_source": asdict(report.ks_source),
        "source_real_var": report.source_real_var,
        "expected_source_real_var": power * power * params.legit_channel_var / 2.0,
        "significance": KS_SIGNIFICANCE,
        "accepted": (
            report.ks_product.p_value > KS_SIGNIFICANCE
            and report.ks_source.p_value > KS_SIGNIFICANCE
        ),
    }


def _cmd_simulate_injection(params: SystemParams, seed: RngSeed, trials: int, workers: Optional[int]) -> dict:
    from .injection import CHUNK_TRIALS, chunked_grams, covariance, simulate_two_look

    ((total, resampled),) = chunked_grams(params, trials, seed, (simulate_two_look,), workers)
    # Python floats, so an overflowing sum is a silent inf that run rejects.
    cov = covariance(total).tolist()
    return {
        "trials": trials,
        "chunk_trials": CHUNK_TRIALS,
        "injected_variance": cov[0][0] + cov[1][1],
        "nominal_injected_variance": params.jam_channel_var * params.jam_power_budget,
        "observation_variance": cov[2][2] + cov[3][3],
        "observation_cross_moment": cov[2][4] + cov[3][5],
        "resampled_draws": resampled,
    }


def _cmd_leakage(params: SystemParams, seed: RngSeed, trials: int, workers: Optional[int]) -> dict:
    from .injection import CHUNK_TRIALS, chunked_grams, mi_from_gram, simulate_two_look
    from .randomization import randomize_trials

    # One pool runs both stages; the randomized chunks continue on the
    # substreams after the static ones.
    (static, resampled), (randomized, _) = chunked_grams(
        params, trials, seed, (simulate_two_look, randomize_trials), workers
    )
    return {
        "trials": trials,
        "chunk_trials": CHUNK_TRIALS,
        "resampled_draws": resampled,
        "static_pilot_leakage_bits": mi_from_gram(static),
        "randomized_pilot_leakage_bits": mi_from_gram(randomized),
    }


def _cmd_oracle_check(params: SystemParams, seed: RngSeed, trials: int) -> dict:
    from .game import LEADER_GRID_POINTS, oracle_jammer_br, oracle_stackelberg, stackelberg_fixed
    from .rates import sum_rate

    closed = stackelberg_fixed(params)
    p_best, oracle_value = oracle_stackelberg(params)
    gap = abs(closed.payoff - oracle_value) / max(abs(closed.payoff), 1e-300)
    _, best_value = oracle_jammer_br(params.max_pilot_power, params, trials, seed)
    uniform_value = sum_rate(
        params.max_pilot_power, PowerAllocation.uniform(params), params
    )
    jensen_ok = uniform_value <= best_value + 1e-9
    return {
        "allocation_samples": trials,
        "leader_grid_points": LEADER_GRID_POINTS,
        "closed_form_payoff": closed.payoff,
        "oracle_payoff": oracle_value,
        "oracle_p_best": p_best,
        "relative_gap": gap,
        "uniform_allocation_value": uniform_value,
        "best_sampled_allocation_value": best_value,
        "jensen_dominance": jensen_ok,
        "accepted": gap <= 1e-6 and jensen_ok,
    }


def _cmd_sweep(params: SystemParams, variable: str, lo: float, hi: float, steps: int) -> dict:
    from .metrics import sweep

    variable = "p_max" if variable == "P" else variable
    rows = sweep(params, variable, lo, hi, steps)
    return {
        "variable": variable,
        "lo": lo,
        "hi": hi,
        "steps": steps,
        "rows": rows,
    }


def _output_file(path: str) -> str:
    """``--output``'s type: any path but an existing directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


_COMMON_OPTIONS = (
    ("--n", dict(dest="n_subcarriers", type=int, default=10, help="Number of subcarriers.")),
    ("--p-max", dict(dest="max_pilot_power", type=float, default=5.0, help="Leader pilot power budget.")),
    ("--gamma", dict(dest="jam_power_budget", type=float, default=4.0, help="Jammer average power budget per subcarrier.")),
    ("--p-th", dict(dest="sense_threshold", type=float, default=2.0, help="Jammer sensing threshold.")),
    ("--sigma2", dict(dest="legit_channel_var", type=float, default=1.0, help="Legitimate channel gain variance.")),
    ("--sigmaj2", dict(dest="jam_channel_var", type=float, default=1.0, help="Jammer channel gain variance.")),
    ("--output", dict(dest="output_path", type=_output_file, help="Write the artifact to this file instead of stdout.")),
)

_RNG_OPTIONS = (
    ("--seed", dict(type=int, required=True, help="RNG seed.")),
    ("--stream", dict(type=int, default=0, help="RNG substream id. The chunked commands draw chunk i from substream stream + i, so "
                      "independent replicates need different seeds, or streams as far apart as a run's substreams.")),
    ("--trials", dict(type=int, default=100_000, help="Monte Carlo trials / oracle samples.")),
)

_WORKERS_OPTION = ("--workers", dict(
    type=int,
    help="Monte Carlo chunks run at once, capped at min(workers, chunks, usable CPUs); "
         "the output does not depend on it (default: usable CPU count).",
))

_DELTA_OPTION = ("--delta", dict(type=float, default=0.5, help="Representative-threshold policy in (0, 1)."))

_SWEEP_OPTIONS = (
    ("--format", dict(choices=("csv", "json"), default="json", help="Output format.")),
    ("--variable", dict(choices=("p_max", "P", "gamma", "sigma2", "p_th"), required=True,
                        help="Parameter to sweep (P is an alias for p_max).")),
    ("--lo", dict(type=float, required=True, help="Lower end of the sweep range.")),
    ("--hi", dict(type=float, required=True, help="Upper end of the sweep range.")),
    ("--steps", dict(type=int, required=True, help="Number of grid points (endpoints included).")),
)

#: Command name -> (payload builder, help text, options beyond _COMMON_OPTIONS).
_COMMANDS = {
    "solve-fixed": (_cmd_solve_fixed, "Solve the fixed-threshold leader-follower game.", ()),
    "solve-strategic": (_cmd_solve_strategic, "Solve the strategic-threshold leader-follower game.", (_DELTA_OPTION,)),
    "verify-randomization": (_cmd_verify_randomization, "KS-verify the Gaussian laws behind the randomized-probing defense.", _RNG_OPTIONS),
    "simulate-injection": (_cmd_simulate_injection, "Simulate the coincident-injection attack and report summary statistics.", (*_RNG_OPTIONS, _WORKERS_OPTION)),
    "leakage": (_cmd_leakage, "Estimate attacker leakage with static and with randomized pilots.", (*_RNG_OPTIONS, _WORKERS_OPTION)),
    "oracle-check": (_cmd_oracle_check, "Cross-check the closed-form equilibrium against brute-force search.", _RNG_OPTIONS),
    "sweep": (_cmd_sweep, "Sweep one parameter and tabulate payoffs and deviation metrics.", _SWEEP_OPTIONS),
}


def _ensure_finite(value, path="result") -> None:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalError(f"non-finite value at {path}: {value!r}")
    elif hasattr(value, "_fields"):  # a sweep row: all floats, walked only to name a failure
        if not all(map(math.isfinite, value)):
            _ensure_finite(value._asdict(), path)
    elif isinstance(value, dict):
        for key, item in value.items():
            _ensure_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _ensure_finite(item, f"{path}[{i}]")


def _csv_text(rows: List[tuple]) -> str:
    from .metrics import CSV_HEADER, SweepRow

    template = ",".join(["%.12g"] * len(SweepRow._fields))
    return "\n".join([CSV_HEADER, *(template % row for row in rows)]) + "\n"


def run(command: str, output_path: Optional[str] = None, format: str = "json", **options) -> int:
    """Execute one command, emit its artifact, and return the exit status.

    ``options`` are the command's flags by parameter name: the six model
    flags, which become the run's :class:`SystemParams`, and the command's
    own. Every artifact names its command and parameters, and a seeded one
    its seed and stream. The status is 0, or 3 when the command's
    ``accepted`` check fails. Configuration and numerical errors propagate;
    ``main`` maps them to exit codes.
    """
    params = SystemParams(**{name: options.pop(name) for name in SystemParams._fields})
    header = {"command": command, "params": params._asdict()}
    if "seed" in options:
        from .stochastic import RngSeed

        if options["trials"] < 1:
            raise ParameterError(f"trials must be >= 1, got {options['trials']}")
        seed = options["seed"] = RngSeed(options["seed"], options.pop("stream"))
        header.update(seed=seed.seed, stream=seed.stream)
    payload = {**header, **_COMMANDS[command][0](params, **options)}
    _ensure_finite(payload)
    if format == "csv":
        text = _csv_text(payload["rows"])
    else:
        import json

        if "rows" in payload:
            payload["rows"] = [row._asdict() for row in payload["rows"]]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {output_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if payload.get("accepted", True) else 3


#: A negative number in any form ``float`` reads (``-1e5``, ``-inf``), which
#: argparse would otherwise take for an option and refuse as a value.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``wskg`` parser: one subcommand per entry of ``_COMMANDS``.

    Given the name of a command, only that subcommand gets its flags (the
    others stay empty), which spares a few milliseconds of setup per run.
    """
    parser = argparse.ArgumentParser(
        prog="wskg",
        description="Simulation and game-solving toolkit for key generation under attack.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (_, description, extra) in _COMMANDS.items():
        subparser = commands.add_parser(name, help=description, description=description, allow_abbrev=False)
        if command not in _COMMANDS or command == name:
            subparser._negative_number_matcher = _NEGATIVE_NUMBER
            for flag, spec in (*_COMMON_OPTIONS, *extra):
                if spec.get("default") is not None:
                    spec = {**spec, "help": spec["help"] + " (default: %(default)s)"}
                subparser.add_argument(flag, **spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Invoke the CLI; returns the exit status instead of raising SystemExit."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        options = vars(build_parser(argv[0] if argv else None).parse_args(argv))
    except SystemExit as exc:  # argparse printed the help (0) or a usage error
        return 1 if exc.code else 0
    try:
        # ``run`` is read from the module at call time, so a wrapper
        # installed over ``cli.run`` sees every command.
        return run(options.pop("command"), **options)
    except (ParameterError, ZeroEquilibriumPayoff) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, NotPositiveSemidefinite) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
