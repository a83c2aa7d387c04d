"""Running operations and passes, and the statistics reported over them."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Run records, traces and per-run scratch directories.
OUT = ROOT / "perfbench-out"

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
#: One thread each keeps ``--workers 2`` within the two cores measured on.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
#: A command still running after this long is killed and counted as failed.
OP_TIMEOUT_S = 150.0
#: What every child's environment sets on top of the driver's; children run
#: in ROOT.
CHILD_ENV = {"PYTHONPATH": "src", **THREAD_ENV}
IMPORT_COMMAND = [sys.executable, "-c", "import wskg.cli"]
#: Speed probes (see ``SpeedProbe``): the code a fresh interpreter runs, and
#: its median wall time on the 2-vCPU reference machine. Neither uses
#: anything of ``wskg``, so no change to the package moves them.
PROBES = {
    # Interpreter start and numpy's import, which CLI start-up follows.
    "start-up": ("import numpy", 0.18),
    # Start-up plus numpy work of the kind the Monte Carlo commands and calls do.
    "monte-carlo": ("import numpy\n"
                    "rng = numpy.random.default_rng(0)\n"
                    "x = rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)\n"
                    "y = numpy.abs(x)\n"
                    "y.sort()\n"
                    "numpy.cov(x.real, y)\n", 0.28),
}


@dataclass
class Result:
    """One operation run: wall time, status, check outcome and resources."""

    label: str
    wall_s: float
    error: Optional[str]
    output: object = None
    max_rss_kb: int = 0
    spans_path: Optional[Path] = None
    spans: list = field(default_factory=list)
    command: Optional[List[str]] = None
    #: The speed probe's segment that measured this operation, and the scale
    #: it gives (see ``SpeedProbe``).
    segment: Optional[int] = None
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference machine speed."""
        return self.wall_s * self.scale


def run_process(command: List[str], work: Path, tag: str) -> tuple:
    """Run a child to completion: (wall seconds, status, stdout, max RSS in KB).

    The child is reaped with ``os.wait4`` so its own peak RSS is read, rather
    than ``RUSAGE_CHILDREN``, which is a running maximum over all children.
    """
    with open(work / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                env=dict(os.environ, **CHILD_ENV), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        except BaseException:  # interrupted: stop the child before reaping it
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, stdout, usage.ru_maxrss


def check_output(op: Op, *output) -> Optional[str]:
    """``op.check`` on an output, with an exception as the failure reason."""
    try:
        return op.check(*output)
    except Exception as exc:  # an output of an unexpected shape fails its check
        return f"check raised {type(exc).__name__}: {exc}"


def probe_command(name: str) -> List[str]:
    return [sys.executable, "-c", PROBES[name][0]]


class SpeedProbe:
    """Tracks how fast the machine runs, so that its drift can be taken out.

    The 2-vCPU reference machine changes speed by itself, by up to 80%
    within a minute, in CPU time as much as in wall time. A fresh interpreter
    running a fixed piece of code slows with it. So the probe runs after
    every measured segment (and once before the first), and a segment's
    times are scaled by the probe's reference time over the mean of the two
    probe times at its ends. The scale depends on the machine only: a change
    to ``wskg`` moves the scaled times by as much as the raw ones.
    """

    def __init__(self, work: Path, name: str) -> None:
        self.work = work
        self.command = probe_command(name)
        self.reference_s = PROBES[name][1]
        self.samples: List[float] = []
        self._run()

    def _run(self) -> None:
        wall, status, _, _ = run_process(self.command, self.work, "probe")
        if status != 0:
            raise RuntimeError(f"the speed probe exited {status}; see {self.work / 'probe.err'}")
        self.samples.append(wall)

    def end_segment(self) -> int:
        """Probe again; the index of the segment measured since the last probe."""
        self._run()
        return len(self.samples) - 1

    def scale(self, segment: int) -> float:
        return self.reference_s / (0.5 * (self.samples[segment - 1] + self.samples[segment]))

    def apply(self, results: List[Result]) -> None:
        """Set the scale of every result measured in a segment."""
        for result in results:
            if result.segment is not None:
                result.scale = self.scale(result.segment)


class Runner:
    """Runs operations, untraced or through the traced child entry script."""

    def __init__(self, work: Path, traced: bool = False) -> None:
        self.work = work
        self.traced = traced
        self._count = 0

    def __call__(self, op: Op) -> Result:
        self._count += 1
        tag = f"op{self._count}"
        if op.call is not None:
            start = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                return Result(op.label, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            return Result(op.label, wall, check_output(op, value), output=value)
        spans_path = None
        command = [sys.executable, "-m", "wskg.cli", *op.argv]
        if self.traced:
            spans_path = self.work / f"{tag}.spans.json"
            command = [sys.executable, str(HERE / "child.py"), str(spans_path), *op.argv]
        wall, status, stdout, rss = run_process(command, self.work, tag)
        return Result(op.label, wall, check_output(op, stdout, status), output=(status, stdout),
                      max_rss_kb=rss, spans_path=spans_path, command=command)


@dataclass
class Passes:
    """Every operation result and each pass's summed operation wall time."""

    ops: List[Result] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)


def run_passes(batch: List[Op], passes: int, runner: Callable[[Op], Result],
               deadline: float = math.inf,
               after_pass: Callable[[int], None] = lambda index: None,
               probe: Optional[SpeedProbe] = None) -> Passes:
    """Repeat the batch closed-loop; later passes must reproduce pass one.

    ``after_pass(index)`` runs between passes, outside their wall time. No
    new pass starts after ``deadline`` (a ``time.perf_counter`` value), so a
    program that became far slower still ends in time. With a ``probe``, a
    CLI command is one measured segment and the in-process calls of a pass
    are another; the probe runs after each, outside the operations' times.
    """
    done = Passes()
    first: List[object] = []
    for index in range(passes):
        if index and time.perf_counter() > deadline:
            break
        in_process = []
        for position, op in enumerate(batch):
            result = runner(op)
            if index == 0:
                first.append(result.output)
            elif result.error is None and result.output != first[position]:
                result.error = "output differs from the first pass"
            done.ops.append(result)
            if op.call is not None:
                in_process.append(result)
            elif probe is not None:
                result.segment = probe.end_segment()
        if probe is not None and in_process:
            segment = probe.end_segment()
            for result in in_process:
                result.segment = segment
        done.pass_walls.append(sum(r.wall_s for r in done.ops[-len(batch):]))
        after_pass(index)
    return done


def warm_up(batch: List[Op]) -> None:
    """Run each distinct in-process call once, untimed, so lazy set-up in
    numpy and the package finishes before measurement."""
    seen = set()
    for op in batch:
        kind = op.label.split()[0]
        if op.call is not None and kind not in seen:
            seen.add(kind)
            op.call()


def tail(values: List[float]) -> tuple:
    """(value, percentile) of the highest order statistic that still has at
    least ten samples above it; with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def time_import(work: Path, repeats: int) -> List[float]:
    """Wall times of fresh interpreters running ``import wskg.cli``."""
    times = []
    for index in range(repeats):
        wall, status, _, _ = run_process(IMPORT_COMMAND, work, f"import{index}")
        if status != 0:
            raise RuntimeError(f"import wskg.cli failed with status {status}; "
                               f"see {work / f'import{index}.err'}")
        times.append(wall)
    return times


def per_second(results: List[Result], batch: List[Op], count: str, scaled: bool = False) -> float:
    """Sum of ``Op.<count>`` over the operations that have it, per second of
    their wall time (``scaled``: at the reference machine speed). Each
    operation's time is its median over the passes, so one stalled command
    does not decide the rate; ``results`` are whole passes over ``batch``."""
    size = len(batch)
    count_sum = time_sum = 0.0
    for position, op in enumerate(batch):
        if getattr(op, count):
            count_sum += getattr(op, count)
            time_sum += statistics.median(r.scaled_s if scaled else r.wall_s
                                          for r in results[position::size])
    return count_sum / time_sum
