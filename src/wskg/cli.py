"""Command-line harness: solvers, verifications, simulations, and sweeps.

Every command is a deterministic function of its option values; commands that
draw random numbers require an explicit ``--seed`` (there is no wall-clock
default). JSON output has sorted keys and CSV numbers carry 12 significant
digits, so identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure
(non-finite result), 3 a verification command rejected its own check.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, List, Optional, Tuple

import click
import numpy as np

from .errors import (
    NotPositiveSemidefinite,
    NumericalError,
    ParameterError,
    ZeroEquilibriumPayoff,
)
from .game import OracleConfig, oracle_jammer_br, oracle_stackelberg, stackelberg_fixed, stackelberg_strategic
from .injection import gram, mi_from_gram, simulate_two_look
from .metrics import sweep as run_sweep
from .params import EquilibriumResult, PowerAllocation, SystemParams
from .randomization import randomize_trials, verify_randomization
from .rates import sum_rate
from .stochastic import RngSeed

#: Monte Carlo trials per chunk; chunk ``i`` draws from substream ``stream + i``.
CHUNK_TRIALS = 1 << 16

#: Significance level for the self-checking verification commands.
KS_SIGNIFICANCE = 0.001

CSV_HEADER = "swept_value,c_se,c_full,c_threshold,f,d,e"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation of one harness command."""

    command: str
    params: SystemParams
    seed: Optional[RngSeed] = None
    output_path: Optional[str] = None
    format: str = "json"
    sweep_spec: Optional[Tuple[str, float, float, int]] = None
    trials: int = 100_000
    delta: float = 0.5
    workers: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got {self.format!r}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")


def _chunked_gram(simulate: Callable, config: RunConfig, first_chunk: int = 0) -> Tuple[np.ndarray, int]:
    """Summed :func:`gram` of ``config.trials`` trials, and their resampled
    channel draws (a ``RandomizedBatch`` resamples none).

    Trials are drawn in chunks of ``CHUNK_TRIALS``; chunk ``i`` uses substream
    ``stream + first_chunk + i``. ``--workers`` only sets how many chunks run
    at once: the matrices are added in chunk order, so the result depends on
    ``(seed, stream, trials)`` alone.
    """
    counts = [min(CHUNK_TRIALS, config.trials - start) for start in range(0, config.trials, CHUNK_TRIALS)]

    def chunk(i: int) -> Tuple[np.ndarray, int]:
        batch = simulate(config.params, counts[i], config.seed.with_stream(config.seed.stream + first_chunk + i))
        return gram(batch), getattr(batch, "resampled", 0)

    with ThreadPoolExecutor(max_workers=min(config.workers, len(counts))) as pool:
        grams, resampled = zip(*pool.map(chunk, range(len(counts))))
    return sum(grams), sum(resampled)


def _profile_dict(leader, jammer) -> dict:
    return {
        "pilot_power": leader.pilot_power,
        "allocation": [float(g) for g in jammer.allocation.gamma],
        "threshold": jammer.threshold,
    }


def _equilibrium_payload(command: str, config: RunConfig, result: EquilibriumResult) -> dict:
    return {
        "command": command,
        "params": config.params.to_dict(),
        "p_se": result.profiles[0][0].pilot_power,
        "payoff": result.payoff,
        "unique": result.unique,
        "boundary_case": result.boundary_case,
        "profiles": [_profile_dict(ls, js) for ls, js in result.profiles],
    }


def _cmd_solve_fixed(config: RunConfig) -> Tuple[dict, int]:
    return _equilibrium_payload("solve-fixed", config, stackelberg_fixed(config.params)), 0


def _cmd_solve_strategic(config: RunConfig) -> Tuple[dict, int]:
    result = stackelberg_strategic(config.params, config.delta)
    payload = _equilibrium_payload("solve-strategic", config, result)
    payload["delta"] = config.delta
    payload["epsilon_interval"] = f"[0, {config.params.max_pilot_power:.12g})"
    return payload, 0


def _cmd_verify_randomization(config: RunConfig) -> Tuple[dict, int]:
    report = verify_randomization(config.params, config.trials, config.seed)
    accepted = (
        report.ks_product.p_value > KS_SIGNIFICANCE
        and report.ks_source.p_value > KS_SIGNIFICANCE
    )
    power = config.params.max_pilot_power
    s2 = config.params.legit_channel_var
    payload = {
        "command": "verify-randomization",
        "params": config.params.to_dict(),
        "seed": config.seed.seed,
        "stream": config.seed.stream,
        "trials": config.trials,
        "ks_product": asdict(report.ks_product),
        "ks_source": asdict(report.ks_source),
        "source_real_var": report.source_real_var,
        "expected_source_real_var": power * power * s2 / 2.0,
        "significance": KS_SIGNIFICANCE,
        "accepted": accepted,
    }
    return payload, 0 if accepted else 3


def _cmd_simulate_injection(config: RunConfig) -> Tuple[dict, int]:
    g, resampled = _chunked_gram(simulate_two_look, config)
    moments = g / g[0, 0]
    cov = moments[1:, 1:] - np.outer(moments[0, 1:], moments[0, 1:])
    nominal = config.params.jam_channel_var * config.params.jam_power_budget
    payload = {
        "command": "simulate-injection",
        "params": config.params.to_dict(),
        "seed": config.seed.seed,
        "stream": config.seed.stream,
        "trials": config.trials,
        "chunk_trials": CHUNK_TRIALS,
        "injected_variance": float(cov[0, 0] + cov[1, 1]),
        "nominal_injected_variance": nominal,
        "observation_variance": float(cov[2, 2] + cov[3, 3]),
        "observation_cross_moment": float(moments[3, 5] + moments[4, 6]),
        "resampled_draws": resampled,
    }
    return payload, 0


def _cmd_leakage(config: RunConfig) -> Tuple[dict, int]:
    static_gram, resampled = _chunked_gram(simulate_two_look, config)
    # The randomized stage continues on the substreams after the static chunks.
    static_chunks = -(-config.trials // CHUNK_TRIALS)
    randomized_gram, _ = _chunked_gram(randomize_trials, config, static_chunks)
    payload = {
        "command": "leakage",
        "params": config.params.to_dict(),
        "seed": config.seed.seed,
        "stream": config.seed.stream,
        "trials": config.trials,
        "chunk_trials": CHUNK_TRIALS,
        "resampled_draws": resampled,
        "static_pilot_leakage_bits": mi_from_gram(static_gram),
        "randomized_pilot_leakage_bits": mi_from_gram(randomized_gram),
    }
    return payload, 0


def _cmd_oracle_check(config: RunConfig) -> Tuple[dict, int]:
    params = config.params
    cfg = OracleConfig(leader_grid_points=1001, allocation_samples=config.trials, seed=config.seed)
    closed = stackelberg_fixed(params)
    p_best, oracle_value = oracle_stackelberg(params, cfg)
    gap = abs(closed.payoff - oracle_value) / max(abs(closed.payoff), 1e-300)
    best_alloc, best_value = oracle_jammer_br(params.max_pilot_power, params, cfg)
    uniform_value = sum_rate(
        params.max_pilot_power, PowerAllocation.uniform(params), params
    )
    jensen_ok = uniform_value <= best_value + 1e-9
    accepted = gap <= 1e-6 and jensen_ok
    payload = {
        "command": "oracle-check",
        "params": params.to_dict(),
        "seed": config.seed.seed,
        "stream": config.seed.stream,
        "allocation_samples": config.trials,
        "leader_grid_points": cfg.leader_grid_points,
        "closed_form_payoff": closed.payoff,
        "oracle_payoff": oracle_value,
        "oracle_p_best": p_best,
        "relative_gap": gap,
        "uniform_allocation_value": uniform_value,
        "best_sampled_allocation_value": best_value,
        "jensen_dominance": jensen_ok,
        "accepted": accepted,
    }
    return payload, 0 if accepted else 3


def _cmd_sweep(config: RunConfig) -> Tuple[dict, int]:
    variable, lo, hi, steps = config.sweep_spec
    rows = run_sweep(config.params, variable, lo, hi, steps)
    payload = {
        "command": "sweep",
        "params": config.params.to_dict(),
        "variable": variable,
        "lo": lo,
        "hi": hi,
        "steps": steps,
        "rows": [vars(row).copy() for row in rows],
    }
    return payload, 0


_COMMON_OPTIONS = (
    click.Option(["--n", "n_subcarriers"], type=int, default=10, show_default=True, help="Number of subcarriers."),
    click.Option(["--p-max", "max_pilot_power"], type=float, default=5.0, show_default=True, help="Leader pilot power budget."),
    click.Option(["--gamma", "jam_power_budget"], type=float, default=4.0, show_default=True, help="Jammer average power budget per subcarrier."),
    click.Option(["--p-th", "sense_threshold"], type=float, default=2.0, show_default=True, help="Jammer sensing threshold."),
    click.Option(["--sigma2", "legit_channel_var"], type=float, default=1.0, show_default=True, help="Legitimate channel gain variance."),
    click.Option(["--sigmaj2", "jam_channel_var"], type=float, default=1.0, show_default=True, help="Jammer channel gain variance."),
    click.Option(["--format"], type=click.Choice(["csv", "json"]), default="json", show_default=True, help="Output format."),
    click.Option(["--output", "output_path"], type=click.Path(dir_okay=False), default=None, help="Write the artifact to this file instead of stdout."),
)

_RNG_OPTIONS = (
    click.Option(["--seed"], type=int, required=True, help="RNG seed."),
    click.Option(["--stream"], type=int, default=0, show_default=True, help="RNG substream id."),
    click.Option(["--trials"], type=int, default=100_000, show_default=True, help="Monte Carlo trials / oracle samples."),
)

_WORKERS_OPTION = click.Option(["--workers"], type=int, default=1, show_default=True, help="Monte Carlo chunks run at once (the output does not depend on it).")

_DELTA_OPTION = click.Option(["--delta"], type=float, default=0.5, show_default=True, help="Representative-threshold policy in (0, 1).")

_SWEEP_OPTIONS = (
    click.Option(["--variable"], type=click.Choice(("p_max", "P", "gamma", "sigma2", "p_th")), required=True, help="Parameter to sweep (P is an alias for p_max)."),
    click.Option(["--lo"], type=float, required=True, help="Lower end of the sweep range."),
    click.Option(["--hi"], type=float, required=True, help="Upper end of the sweep range."),
    click.Option(["--steps"], type=int, required=True, help="Number of grid points (endpoints included)."),
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
    elif isinstance(value, dict):
        for key, item in value.items():
            _ensure_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _ensure_finite(item, f"{path}[{i}]")


def _csv_text(rows: List[dict]) -> str:
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format(row[name], ".12g") for name in columns))
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute one command, emit its artifact, and return the exit status.

    Configuration and numerical errors propagate; ``main`` maps them to exit
    codes.
    """
    payload, code = _COMMANDS[config.command][0](config)
    _ensure_finite(payload)
    if config.command == "sweep" and config.format == "csv":
        text = _csv_text(payload["rows"])
    elif config.format == "csv":
        raise ParameterError(f"{config.command} supports only --format json")
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)
    return code


def _invoke(command: str, **values) -> int:
    """Click callback shared by every command: build the run and execute it."""
    params = SystemParams(**{field.name: values.pop(field.name) for field in fields(SystemParams)})
    seed, stream = values.pop("seed", None), values.pop("stream", 0)
    if command == "sweep":
        variable = values.pop("variable")
        values["sweep_spec"] = (
            "p_max" if variable == "P" else variable, values.pop("lo"), values.pop("hi"), values.pop("steps")
        )
    rng_seed = None if seed is None else RngSeed(seed, stream)
    return run(RunConfig(command=command, params=params, seed=rng_seed, **values))


@click.group()
def cli() -> None:
    """Simulation and game-solving toolkit for key generation under attack."""


for _name, (_, _help, _extra) in _COMMANDS.items():
    cli.add_command(
        click.Command(_name, params=[*_COMMON_OPTIONS, *_extra], callback=partial(_invoke, _name), help=_help)
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Invoke the CLI; returns the exit status instead of raising SystemExit."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (ParameterError, ZeroEquilibriumPayoff) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (NumericalError, NotPositiveSemidefinite, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    return int(result) if isinstance(result, int) else 0


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
