"""wskg benchmark driver.

    python3 perfbench/run.py --workload {mc-large,mc-small-grid,game-cli,all}
                             --seed N [--seconds S] [--trace 0|1]

Run from the repository root. ``--trace 0`` measures the workload's
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced
run (see ``layers.py``). Every output is checked; a failed check counts in
``failed``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a run record and
every operation's result go to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import (CHILD_ENV, IMPORT_COMMAND, OUT, PROBES, ROOT, THREAD_ENV, Runner, SpeedProbe, per_second,
                     probe_command, run_passes, tail, time_import, warm_up)
from workloads import WORKLOADS, build

SPEC = ROOT / "BENCHMARK.json"

#: Median pass length of each workload over 20 runs on the 2-core reference
#: machine. A run repeats the batch round(seconds / nominal) times (at least
#: MIN_PASSES), so both sides of a comparison do the same work.
NOMINAL_PASS_S = {"mc-large": 5.4, "mc-small-grid": 0.47, "game-cli": 5.2}
MIN_PASSES = 3
#: The speed probe of each workload: the one whose time its operations follow.
PROBE_OF = {"mc-large": "monte-carlo", "mc-small-grid": "monte-carlo", "game-cli": "start-up"}
#: No new pass starts once a run has measured this many times ``--seconds``.
DEADLINE_FACTOR = 1.75
#: Fresh-interpreter imports timed per run, spread evenly between the passes
#: so that ``setup_s`` sees the same machine conditions as the workload.
SETUP_REPEATS = 7


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple:
    """(metrics, operation results, notes) of one untraced run.

    Every time is scaled to the reference machine speed by the speed probe
    (see ``SpeedProbe``); the raw figures are in the notes.
    """
    batch = build(workload, seed)
    time_import(work, 1)  # compiles the package's bytecode once
    warm_up(batch)
    probe = SpeedProbe(work, PROBE_OF[workload])
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    # After which passes to time an import: SETUP_REPEATS slots, evenly spaced.
    slots = [min(passes - 1, int((k + 0.5) * passes / SETUP_REPEATS)) for k in range(SETUP_REPEATS)]
    setup: list = []

    def time_setup(repeats: int) -> None:
        for wall in time_import(work, repeats):
            setup.append((wall, probe.end_segment()))

    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    done = run_passes(batch, passes, Runner(work), deadline, lambda index: time_setup(slots.count(index)),
                      probe)
    time_setup(SETUP_REPEATS - len(setup))  # passes cut by the deadline
    probe.apply(done.ops)
    setup_s = [wall * probe.scale(segment) for wall, segment in setup]

    size = len(batch)
    per_pass = [done.ops[i:i + size] for i in range(0, len(done.ops), size)]
    scaled_pass_walls = [sum(r.scaled_s for r in ops) for ops in per_pass]

    def timings(attr: str) -> dict:
        # The tail of each pass (which holds every operation once), then the
        # median over passes: machine-wide stalls slow many consecutive
        # millisecond calls at once, and must not decide the figure.
        tails = [tail([getattr(r, attr) for r in ops])[0] for ops in per_pass]
        return {
            "wall_s": statistics.median(scaled_pass_walls if attr == "scaled_s" else done.pass_walls),
            "op_p50_s": statistics.median(getattr(r, attr) for r in done.ops),
            "op_tail_s": statistics.median(tails),
            "trials_per_s": per_second(done.ops, batch, "trials", scaled=attr == "scaled_s"),
        }

    scaled, raw = timings("scaled_s"), timings("wall_s")
    if workload == "mc-small-grid":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # The largest child RSS of each pass, then the median over passes:
        # thread timing under --workers 2 makes single peaks bimodal.
        rss_kb = statistics.median([max(r.max_rss_kb for r in ops) for ops in per_pass])
    metrics = {"setup_s": statistics.median(setup_s), **scaled, "peak_rss_mb": rss_kb / 1024.0}
    notes = {
        "passes": len(done.pass_walls),
        "operations_per_pass": len(batch),
        "op_tail_percentile": tail([r.wall_s for r in per_pass[0]])[1],
        "setup_samples": setup_s,
        "pass_walls": scaled_pass_walls,
        "probe_samples": probe.samples,
        "probe": PROBE_OF[workload],
        "probe_reference_s": probe.reference_s,
        "unscaled": {**raw, "pass_walls": done.pass_walls, "setup_samples": setup},
    }
    if any(op.rows for op in batch):
        notes["sweep_points_per_s"] = per_second(done.ops, batch, "rows", scaled=True)
    return metrics, done.ops, notes


def expected_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_sha():
    if not (ROOT / ".git").exists():  # a bare checkout: do not report an enclosing repository
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wskg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, workload: str, results) -> dict:
    """How the run was made: machine, versions, source, seed, commands."""
    commands = {shlex.join(IMPORT_COMMAND)} | {shlex.join(probe_command(name)) for name in PROBES}
    commands |= {shlex.join(r.command) for r in results if r.command}
    return {
        "argv": [sys.executable, *sys.argv],
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "versions": {name: importlib.metadata.version(name) for name in ("numpy", "scipy", "click")},
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "child_env": CHILD_ENV,
        "commands": sorted(commands),
    }


def run_one(args, workload: str) -> int:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            from layers import traced_run

            metrics, results, trace = traced_run(workload, args.seed, work)
        else:
            metrics, results, notes = end_to_end(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = expected_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"error: metric names differ from {SPEC.name}: "
              f"extra {sorted(set(metrics) - set(units))}, missing {sorted(set(units) - set(metrics))}",
              file=sys.stderr)
        return 1
    failed = [r for r in results if r.error]
    record = run_record(args, workload, results)
    record["attempted"], record["failed"] = len(results), len(failed)
    record["error_rate"] = len(failed) / len(results)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(trace))
        record["missing_layers"] = trace["missing_layers"]
    else:
        record.update(notes)
    record["operations"] = [{"label": r.label, "wall_s": r.wall_s, "segment": r.segment, "scale": r.scale,
                             "max_rss_kb": r.max_rss_kb, "error": r.error} for r in results]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for r in failed[:20]:
        print(f"FAILED {r.label}: {r.error}")
    for name in sorted(metrics):
        print(f"{workload} {name} = {metrics[name]:.6g} {units[name]}")
    summary = {key: value for key, value in record.items()
               if key not in ("argv", "child_env", "commands", "operations", "setup_samples", "pass_walls",
                              "probe_samples", "unscaled")}
    print(f"{workload} record {json.dumps(summary, sort_keys=True)} (full record: {OUT.name}/{stem}.json)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wskg" / "cli.py").is_file():
        print(f"error: no wskg sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Before numpy is imported: in-process calls get the same thread limits
    # as the CLI children.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_one(args, workload) or status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
