"""Per-layer metrics: one traced pass of every workload plus standalone timings.

The traced run repeats each workload once with span wrappers installed (in
the driver for in-process calls, in ``child.py`` for CLI commands), removes
the wrappers, checks that none is left, and repeats each workload once more
untraced. ``<module>.<fn>.calls`` and ``.self_s`` sum the spans of all three
workloads; the trace file written by ``run.py`` also holds them per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

from measure import Passes, Runner, per_second, run_passes, run_process, warm_up
from spans import LAYER_NAMES, Tracer, installed_wrappers, layer_totals
from workloads import WORKLOADS, build

SAMPLER_DRAWS = 1_000_000
SAMPLER_REPEATS = 5
IMPORT_REPEATS = 5
#: Parameters of the standalone Monte Carlo measurements (as in mc-large).
P_MAX, GAMMA = 2.0, 4.0

_IMPORT_TIMER = "import time; t = time.perf_counter(); import wskg.cli; print(time.perf_counter() - t)"


def _prefixed(prefix: str, spans: list) -> list:
    """Span ids made unique across processes."""
    return [(f"{prefix}:{s[0]}", s[1], s[2], s[3], None if s[4] is None else f"{prefix}:{s[4]}", s[5])
            for s in spans]


def _traced_pass(batch, work: Path, missing: set) -> tuple:
    """One traced pass: (Passes, spans); adds layers not found to ``missing``.

    In-process calls are traced by wrappers in this process, CLI commands by
    ``child.py``.
    """
    tracer = Tracer()
    tracer.install()
    try:
        done = run_passes(batch, 1, Runner(work, traced=True))
    finally:
        tracer.uninstall()
    missing.update(tracer.missing)
    spans = _prefixed("driver", tracer.spans)
    for index, result in enumerate(done.ops):
        if result.spans_path is None:
            continue
        try:
            recorded = json.loads(result.spans_path.read_text())
        except (OSError, ValueError) as exc:
            result.error = result.error or f"no spans recorded: {exc}"
            continue
        missing.update(recorded["missing"])
        result.spans = _prefixed(str(index), recorded["spans"])
        spans += result.spans
    return done, spans


def _process_overhead(done: Passes) -> List[float]:
    """Per traced command: subprocess wall time minus its ``cli.run`` span."""
    return [r.wall_s - sum(s[3] - s[2] for s in r.spans if s[1] == "cli.run")
            for r in done.ops if r.spans]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def standalone(seed: int, work: Path) -> Dict[str, float]:
    """Layer metrics timed through public functions at fixed sizes."""
    import wskg.cli
    from wskg import injection, randomization, stochastic
    from wskg.params import SystemParams

    imports = []
    for index in range(IMPORT_REPEATS):
        _, status, stdout, _ = run_process([sys.executable, "-c", _IMPORT_TIMER], work, f"it{index}")
        if status != 0:
            raise RuntimeError(f"import wskg.cli failed with status {status}")
        imports.append(float(stdout))

    rng_seed = stochastic.RngSeed(seed)
    params = SystemParams(n_subcarriers=10, max_pilot_power=P_MAX, jam_power_budget=GAMMA,
                          sense_threshold=2.0, legit_channel_var=1.0, jam_channel_var=1.0)
    metrics = {
        "cli.import_s": statistics.median(imports),
        "stochastic.sample_complex_gaussian_s": _median_time(
            lambda: stochastic.sample_complex_gaussian(1.0, SAMPLER_DRAWS, rng_seed), SAMPLER_REPEATS),
        "stochastic.sample_qpsk_pilot_s": _median_time(
            lambda: stochastic.sample_qpsk_pilot(1.0, SAMPLER_DRAWS, rng_seed), SAMPLER_REPEATS),
    }
    for label, trials in (("1e5", 100_000), ("1e6", 1_000_000)):
        metrics[f"injection.simulate_two_look_peak_mb_{label}"] = _peak_mb(
            lambda: injection.simulate_two_look(params, trials, rng_seed))
        metrics[f"randomization.randomize_trials_peak_mb_{label}"] = _peak_mb(
            lambda: randomization.randomize_trials(params, trials, rng_seed))
    batch = injection.simulate_two_look(params, 1_000_000, rng_seed)
    # Computed from the array sizes, not measured traffic.
    metrics["injection.batch_bytes_1e6"] = batch.z_a.nbytes + batch.z_b.nbytes + batch.injected.nbytes
    metrics["injection.resampled_draws"] = batch.resampled
    del batch

    leakage_s = {}
    for workers in (1, 2):
        argv = ["leakage", "--p-max", f"{P_MAX:g}", "--trials", "1000000", "--seed", str(seed),
                "--workers", str(workers), "--output", str(work / f"leakage-w{workers}.json")]
        start = time.perf_counter()
        status = wskg.cli.main(argv)
        leakage_s[workers] = time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"in-process leakage --workers {workers} exited {status}")
    metrics["cli.leakage_workers2_speedup"] = leakage_s[1] / leakage_s[2]
    return metrics


def traced_run(workload: str, seed: int, work: Path) -> tuple:
    """(metrics, all operation results, trace) of a traced run. The trace
    holds the spans and layer totals per workload, and the wrapped functions
    that the sources no longer define (reported as 0 calls)."""
    batches = {name: build(name, seed) for name in WORKLOADS}
    warm_up(batches["mc-small-grid"])
    traced: Dict[str, Passes] = {}
    spans: Dict[str, list] = {}
    missing: set = set()
    for name in WORKLOADS:
        traced[name], spans[name] = _traced_pass(batches[name], work, missing)
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")
    untraced = {name: run_passes(batches[name], 1, Runner(work)) for name in WORKLOADS}

    metrics: Dict[str, float] = {}
    totals = layer_totals([s for name in WORKLOADS for s in spans[name]])
    for layer in LAYER_NAMES:
        calls, self_s = totals[layer]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    overheads = _process_overhead(traced["mc-large"]) + _process_overhead(traced["game-cli"])
    metrics["cli.process_overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_s"] = traced[workload].pass_walls[0] - untraced[workload].pass_walls[0]

    metrics["sweep_points_per_s"] = per_second(untraced["game-cli"].ops, batches["game-cli"], "rows")
    metrics.update(standalone(seed, work))

    results = [r for name in WORKLOADS for r in traced[name].ops + untraced[name].ops]
    per_workload = {name: {layer: list(v) for layer, v in layer_totals(spans[name]).items()}
                    for name in WORKLOADS}
    return metrics, results, {"missing_layers": sorted(missing), "layers_per_workload": per_workload,
                              "spans": spans}
