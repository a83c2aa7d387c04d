"""Command-line harness: solvers, verifications, simulations, and sweeps.

This module computes no model quantity and builds no payload: it parses
flags, calls the payload builder that ``_COMMANDS`` names in the module that
owns the command's numbers, adds the header, checks that every value is
finite and writes the artifact. Every command is a deterministic
function of its option values; commands that draw random numbers require an
explicit ``--seed`` in ``[0, 2**64)`` (there is no wall-clock default). JSON
output has sorted keys and CSV numbers carry 12 significant digits, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure
(non-finite result), 3 a verification command rejected its own check.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import re
import sys
from typing import List, Optional

from .errors import NumericalError, ParameterError
from .params import RngSeed, SystemParams


def _output_file(path: str) -> str:
    """``--output``'s type: any path but the empty one or an existing directory."""
    if not path:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


#: The model flags, each setting the SystemParams field its dest names; a command accepts those it reads.
_MODEL_OPTIONS = {
    "--n": dict(dest="n_subcarriers", type=int, default=10, help="Number of subcarriers."),
    "--p-max": dict(dest="max_pilot_power", type=float, default=5.0, help="Leader pilot power budget."),
    "--gamma": dict(dest="jam_power_budget", type=float, default=4.0, help="Jammer average power budget per subcarrier."),
    "--p-th": dict(dest="sense_threshold", type=float, default=2.0, help="Jammer sensing threshold."),
    "--sigma2": dict(dest="legit_channel_var", type=float, default=1.0, help="Legitimate channel gain variance."),
    "--sigmaj2": dict(dest="jam_channel_var", type=float, default=1.0, help="Jammer channel gain variance."),
}
#: Injection and random probing look once per trial: their laws read no subcarrier count or threshold.
_ONE_LOOK = ("--p-max", "--gamma", "--sigma2", "--sigmaj2")
_OUTPUT_OPTION = ("--output", dict(dest="output_path", type=_output_file, help="Write the artifact to this file instead of stdout."))

_RNG_OPTIONS = (
    ("--seed", dict(type=int, required=True, help="RNG seed, in [0, 2**64).")),
    ("--stream", dict(type=int, default=0, help="RNG substream id, in [0, 2**64). The chunked commands draw chunk i of stage "
                      "k from substream stream + k * chunks + i, up to 2**64 - 1 (leakage's randomized stage starts after "
                      "its static one), so independent replicates need different seeds, or streams as far apart as a "
                      "run's substreams.")),
    ("--trials", dict(type=int, default=100_000, help="Monte Carlo trials / oracle samples.")),
)

_WORKERS_OPTION = ("--workers", dict(
    type=int,
    help="Monte Carlo chunks run at once, capped at min(workers, chunks, usable CPUs); "
         "the output does not depend on it (default: usable CPU count).",
))

_SWEEP_OPTIONS = (
    ("--format", dict(choices=("csv", "json"), default="json", help="Output format.")),
    ("--variable", dict(choices=("p_max", "gamma", "sigma2", "p_th"), required=True, help="Parameter to sweep.")),
    ("--lo", dict(type=float, required=True, help="Lower end of the sweep range.")),
    ("--hi", dict(type=float, required=True, help="Upper end of the sweep range.")),
    ("--steps", dict(type=int, required=True, help="Number of grid points (endpoints included).")),
)

# Each command imports the module that builds its payload when it runs: the
# closed-form commands (solve-fixed, solve-strategic, sweep) load no numpy,
# dataclasses or inspect, oracle-check no Monte Carlo module and no
# dataclasses (params' records are named tuples), the Monte Carlo commands no
# game, rates or metrics, and only sweep loads metrics.
#: Command name -> (module, its payload builder, help text, model flags it reads, options beyond those and --output).
_COMMANDS = {
    "solve-fixed": ("game", "fixed_payload", "Solve the fixed-threshold leader-follower game.", _MODEL_OPTIONS, ()),
    "solve-strategic": ("game", "strategic_payload", "Solve the strategic-threshold leader-follower game.",
                        ("--n", "--p-max", "--gamma", "--sigma2", "--sigmaj2"), ()),
    "verify-randomization": ("randomization", "verify_check",
                             "KS-verify the Gaussian laws behind the randomized-probing defense.",
                             ("--p-max", "--sigma2"), _RNG_OPTIONS),
    "simulate-injection": ("injection", "injection_payload",
                           "Simulate the coincident-injection attack and report summary statistics.",
                           _ONE_LOOK, (*_RNG_OPTIONS, _WORKERS_OPTION)),
    "leakage": ("injection", "leakage_check", "Estimate attacker leakage with static and with randomized pilots.",
                _ONE_LOOK, (*_RNG_OPTIONS, _WORKERS_OPTION)),
    "oracle-check": ("game", "oracle_check", "Cross-check the closed-form equilibrium against brute-force search.",
                     _MODEL_OPTIONS, _RNG_OPTIONS),
    "sweep": ("metrics", "sweep_payload", "Sweep one parameter and tabulate payoffs and deviation metrics.",
              _MODEL_OPTIONS, _SWEEP_OPTIONS),
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

    ``options`` are the command's flags by parameter name: the model flags
    it reads, which become the run's :class:`SystemParams` with every other
    field at its flag's default, and the command's own, which go by name to
    the command's payload builder with that record. Every artifact names
    its command and parameters, and a seeded one its seed and stream. The
    status is 0, or 3 when the command's ``accepted`` check fails.
    Configuration and numerical errors propagate; ``main`` maps them to exit
    codes.
    """
    params = SystemParams(**{spec["dest"]: options.pop(spec["dest"], spec["default"]) for spec in _MODEL_OPTIONS.values()})
    header = {"command": command, "params": params._asdict()}
    if "seed" in options:
        if options["trials"] < 1:
            raise ParameterError(f"trials must be >= 1, got {options['trials']}")
        seed = options["seed"] = RngSeed(options["seed"], options.pop("stream"))
        header.update(seed=seed.seed, stream=seed.stream)
    module, builder = _COMMANDS[command][:2]
    payload = {**header, **getattr(importlib.import_module(f"wskg.{module}"), builder)(params, **options)}
    _ensure_finite(payload)
    if format == "csv":
        text = _csv_text(payload["rows"])
    else:
        import json

        if "rows" in payload:
            payload["rows"] = [row._asdict() for row in payload["rows"]]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_path is not None:
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
    for name, (_, _, description, model, extra) in _COMMANDS.items():
        subparser = commands.add_parser(name, help=description, description=description, allow_abbrev=False)
        if command not in _COMMANDS or command == name:
            subparser._negative_number_matcher = _NEGATIVE_NUMBER
            for flag, spec in (*((flag, _MODEL_OPTIONS[flag]) for flag in model), _OUTPUT_OPTION, *extra):
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
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Console-script entry point."""
    import gc

    status = main()
    # The process is about to exit, so its final collections need not walk the objects numpy and
    # the package loaded; atexit handlers, flushing and teardown still run. ``main`` never
    # freezes, since tests and library callers run it many times in one process.
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
