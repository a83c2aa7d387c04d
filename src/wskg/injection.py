"""Coincident-signal injection attack: precoding, the Monte Carlo kernel, leakage.

A two-antenna attacker with knowledge of both of its channel vectors can
precode its transmission so the identical waveform arrives at both legitimate
receivers, planting attacker-chosen material in their shared randomness. The
leakage bound quantifies, in bits, how much of the distilled key material the
attacker controls when the probing pilots are deterministic.

:func:`coincidence_precoder` is that construction. No kernel runs it: the
value it lands has a proven law, from which :func:`simulate_two_look` draws.

One Monte Carlo kernel, :func:`_two_look`, serves both stages, static
pilots (:func:`simulate_two_look`) and the randomized-probing defense of
:mod:`wskg.randomization` (:func:`randomize_trials`). It lives here, beside
the buffer set it writes into and the payloads of ``simulate-injection`` and
``leakage``, which run it.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ParameterError
from .params import RngSeed, SystemParams, _require_integer
from .stochastic import (
    DRAW_BLOCK,
    MIN_TRIALS,
    _complex_normal,
    _pilot_indices,
    _qpsk_points,
    _require_normal,
    _take_points,
    gaussian_mi_from_cov,
)

#: Monte Carlo trials per chunk. :func:`chunked_grams` draws chunk ``i`` of
#: kernel ``k`` from substream ``stream + k * chunks + i``, so ``leakage``'s
#: randomized stage starts after its static one.
CHUNK_TRIALS = 1 << 16

#: Most batches that :func:`chunked_grams` splits a kernel's chunks into:
#: it keeps one matrix a batch, so its memory does not grow with trials.
BATCHES = 64


def coincidence_precoder(h_a2, h_b2, denom):
    """Unit-power precoder whose signal lands identically at both receivers.

    The antenna weights ``(ratio, 1) / norm``, with
    ``ratio = (h_b2 - h_a2) / denom`` for ``denom = h_a1 - h_b1`` and
    ``norm = sqrt(1 + |ratio|^2)``, give the same gain
    ``(h_a1 ratio + h_a2) / norm`` at Alice as ``(h_b1 ratio + h_b2) / norm``
    at Bob, at unit transmit power. The first-antenna gains enter only
    through ``denom``. Under the continuous channel law it is nonzero with
    probability one; a zero ``denom`` gives non-finite values.
    Returns ``(ratio, norm)``.
    """
    ratio = (h_b2 - h_a2) / denom
    return ratio, np.sqrt(1.0 + np.abs(ratio) ** 2)


class ChunkBuffers:
    """Work arrays for Monte Carlo chunks of up to ``size`` trials.

    ``slots`` holds five complex values per trial: :func:`_two_look` leaves
    its results (``injected``, ``z_a``, ``z_b``) in slots 2 to 4, and
    :func:`gram` writes its rows over slots 0 to 3. ``index`` holds the
    randomized stage's pilots as point indices, one byte each, x's then
    y's, until row 0 takes their class ``4 x + y``. ``draw`` is the block
    of reals through which every Gaussian is drawn: ``DRAW_BLOCK``, or
    ``size`` rounded up to even when that is fewer. A kernel of ``n`` trials
    uses the first ``n`` of each row, so a set serves chunk after chunk, and
    reuses a slot only once its contents are dead.
    """

    def __init__(self, size: int) -> None:
        self.slots = np.empty((5, size), dtype=complex)
        self.index = np.empty((2, size), dtype=np.uint8)
        self.draw = np.empty(min(size + size % 2, DRAW_BLOCK))


def _source_variances(params: SystemParams) -> Tuple[float, float, float, float]:
    """Variances of the sources ``(H, W, N_a, N_b)`` of :func:`stage_model`.
    Raises ``NumericalError`` for a nonzero W variance whose half, the
    variance of W's parts, is not a normal float."""
    injected = params.jam_channel_var * params.jam_power_budget
    if injected != 0.0:
        _require_normal("sigmaj2 * gamma / 2", injected / 2.0)
    return params.legit_channel_var, injected, 1.0, 1.0


def _draw(rng, buffers: ChunkBuffers, key: int, variance: float, n_trials: int) -> np.ndarray:
    """``n_trials`` complex normal draws into slot ``key``, through the set's
    draw block."""
    return _complex_normal(rng, variance, n_trials, buffers.slots[key, :n_trials], buffers.draw)


class TwoLookBatch(NamedTuple):
    """Vectorized Monte Carlo trials of both parties' looks under injection.

    ``injected`` holds the attacker's injected value. With static pilots it
    appears identically in both observations; with randomized probing each
    look holds it multiplied by that party's pilot. ``resampled`` is always
    0: no kernel redraws a trial. Only the benchmark's trace still reads it,
    and it goes with that read (ROADMAP item 1b).
    """

    z_a: np.ndarray
    z_b: np.ndarray
    injected: np.ndarray
    resampled: int = 0


@np.errstate(over="ignore", invalid="ignore")
def _two_look(
    params: SystemParams, n_trials: int, seed: RngSeed, buffers: Optional[ChunkBuffers], randomized: bool
) -> TwoLookBatch:
    """Monte Carlo trials of :func:`stage_model`'s randomized stage, or of
    its static one, in three complex draws a trial.

    Given the pilots x and y (1 for static pilots) and ``c = P sigma2`` at
    pilot power P, the looks are ``z_a = x (W + u_a)`` and
    ``z_b = y (W + u_b)``, with ``u_a ~ CN(0, c + 1)`` and
    ``u_b = rho u_a + v``: ``rho = Cov(u_b, u_a) / (c + 1)`` is
    ``c / (c + 1)`` for static pilots and ``x conj(y) sigma2 / (c + 1)`` for
    QPSK ones, and ``v ~ CN(0, (2 c + 1) / (c + 1))``. The draws are the
    randomized pilots' indices, x's then y's, then W at
    :func:`_source_variances`' variance (whose check raises before any
    draw), u_a and v.
    ``tests/test_identities.py::test_two_look_construction_is_the_stage_model``
    proves it is the model's law, class by class, and
    ``tests/test_injection.py::test_kernel_covariance_matches_its_stage_model``
    samples the kernel against it. Every complex product is out of place:
    numpy rounds a lone complex value otherwise in place. The returned
    arrays are views into ``buffers`` when given. Overflow is silent here:
    callers reject the non-finite moments it leads to.
    """
    n_trials = _require_integer("n_trials", n_trials, 1)
    injected_var = _source_variances(params)[1]
    rng = seed.generator()
    if buffers is None:
        buffers = ChunkBuffers(n_trials)
    slots = buffers.slots[:, :n_trials]
    power = params.max_pilot_power
    c = power * params.legit_channel_var
    rho = c / (c + 1.0)
    if randomized:
        # Each pilot pair's class 4 x + y, in uint8, indexes its x, y and rho.
        x_index, y_index = (_pilot_indices(rng, power, n_trials, row[:n_trials]) for row in buffers.index)
        classes = np.bitwise_or(np.left_shift(x_index, 2, out=x_index), y_index, out=x_index)
        points = _qpsk_points(power)
        x, y = np.repeat(points, 4), np.tile(points, 4)
        rho = _take_points(x * np.conj(y) * (params.legit_channel_var / (c + 1.0)), classes, slots[0])
    # Slots: W in 2; u_a in 3; rho u_a, then u_b, in 1; v in 4.
    w = _draw(rng, buffers, 2, injected_var, n_trials)
    u_a = _draw(rng, buffers, 3, c + 1.0, n_trials)
    u_b = np.multiply(rho, u_a, out=slots[1])
    v = _draw(rng, buffers, 4, (2.0 * c + 1.0) / (c + 1.0), n_trials)
    u_b += v
    if not randomized:
        return TwoLookBatch(z_a=np.add(u_a, w, out=u_a), z_b=np.add(u_b, w, out=v), injected=w)
    # W + u_a in v's slot and W + u_b in u_b's, each times its pilot.
    look_a, look_b = np.add(u_a, w, out=v), np.add(u_b, w, out=u_b)
    z_a = np.multiply(_take_points(x, classes, slots[0]), look_a, out=u_a)
    z_b = np.multiply(_take_points(y, classes, slots[0]), look_b, out=look_a)
    return TwoLookBatch(z_a=z_a, z_b=z_b, injected=w)


def simulate_two_look(
    params: SystemParams, n_trials: int, seed: RngSeed, buffers: Optional[ChunkBuffers] = None
) -> TwoLookBatch:
    """Trials of both parties' looks ``sqrt(P) H + W + N_a`` and
    ``sqrt(P) H + W + N_b`` under a deterministic pilot at full power P:
    :func:`_two_look` of the static stage.

    W is the value that :func:`coincidence_precoder`, driven at amplitude
    2 sqrt(jam_power_budget), lands at both receivers, drawn from its exact
    law: with s = (h_a + h_b) / 2 and d = h_a - h_b for the attacker's
    gains, the unit precoder v has d . v = 0 and depends on d alone, s is
    independent of d, and both looks get s . v ~ CN(0, jam_channel_var / 4).
    ``tests/test_identities.py::test_coincident_gain_is_the_mean_gain``
    proves the algebra, and
    ``tests/test_injection.py::test_precoded_injection_has_the_drawn_law``
    samples the precoder against this law.
    """
    return _two_look(params, n_trials, seed, buffers, False)


def randomize_trials(
    params: SystemParams, n_trials: int, seed: RngSeed, buffers: Optional[ChunkBuffers] = None
) -> TwoLookBatch:
    """Trials of both parties' post-multiplied looks ``XYH + XW + X N_a`` and
    ``XYH + YW + Y N_b`` under independent QPSK pilots X and Y at full pilot
    power: :func:`_two_look` of the randomized stage."""
    return _two_look(params, n_trials, seed, buffers, True)


@np.errstate(over="ignore", invalid="ignore")
def gram(batch: TwoLookBatch, buffers: Optional[ChunkBuffers] = None) -> np.ndarray:
    """7x7 raw-moment matrix of ``(1, injected, z_a, z_b)`` in real coordinates.

    Entry ``[0, 0]`` is the trial count and row 0 holds the coordinate sums,
    so the matrices of disjoint batches add up to the matrix of their union.
    Serves both observation models: the static-pilot looks of
    :func:`simulate_two_look` and the post-multiplied looks of
    :func:`randomize_trials`.
    The stacked coordinates are written into ``buffers`` when given, over
    the batch that a kernel left there, so the batch is overwritten: the
    ``(7, n)`` rows are the first ``7 n`` reals of ``slots``, which lie over
    slots 0 to 3. They are written in order, so each one lands only on
    values that earlier rows have already read: rows 4 and 5 on
    ``injected``'s slot 2, row 6 on ``z_a``'s slot 3. This holds for any
    batch of up to the set's size.
    Overflow is silent here: :func:`mi_from_gram` rejects a non-finite matrix.
    """
    n = batch.injected.size
    rows = np.empty((7, n)) if buffers is None else buffers.slots.reshape(-1).view(float)[: 7 * n].reshape(7, n)
    rows[0] = 1.0
    for i, values in enumerate((batch.injected, batch.z_a, batch.z_b)):
        rows[1 + 2 * i] = values.real
        rows[2 + 2 * i] = values.imag
    return rows @ rows.T


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size(workers: Optional[int], n_jobs: int) -> int:
    """Threads that run ``n_jobs`` jobs: ``min(workers, n_jobs, usable
    CPUs)``, with ``workers`` defaulting to the usable CPU count. Each thread
    owns one buffer set, so memory grows with this number. With two or
    more, :func:`chunked_grams` pins each to a CPU of its own."""
    cpus = usable_cpus()
    workers = cpus if workers is None else _require_integer("workers", workers, 1)
    return min(workers, n_jobs, cpus)


def _pin(cpus) -> None:
    """Confine the calling thread to ``cpus``, where the platform allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # best effort: the thread runs unpinned
        pass


def chunked_grams(
    params: SystemParams,
    n_trials: int,
    seed: RngSeed,
    kernels: Sequence[Callable],
    workers: Optional[int] = None,
) -> List[np.ndarray]:
    """Chunked Monte Carlo engine: one matrix per kernel, the sum of its
    chunks' :func:`gram` matrices.

    Each kernel (:func:`simulate_two_look` or :func:`randomize_trials`) runs
    ``n_trials`` trials in chunks of ``CHUNK_TRIALS``. Chunk ``i`` of kernel
    ``k`` uses substream ``stream + k * chunks + i``, so each kernel
    continues on the substreams after the previous one, and the last of them
    must not pass ``2**64 - 1``, the last stream a seed has. Each kernel's
    chunks fall into at most ``BATCHES`` jobs of ``ceil(chunks / BATCHES)``
    contiguous chunks, shared among :func:`pool_size` threads: thread ``w``
    of ``T`` runs jobs ``w, w + T, w + 2T, ...``, summing each job's
    matrices in chunk order, in one buffer set of its own, sized to the
    largest chunk and freed when the call returns. Thread 0 is the calling
    thread. With more than one thread, thread ``w`` is pinned to CPU ``w``
    (modulo their number) of the caller's mask before its first job; where
    CPU affinity is missing or refused, the threads run unpinned. A failure
    in any thread, a helper that fails to start or an interrupt while the
    caller waits stops the threads before their next chunk. The call has one
    way out: it joins every started thread, restores the caller's mask and
    raises the first failure, if any. The jobs' matrices are added in job
    order, so the result depends on ``(seed, stream, n_trials)`` alone, and
    the call holds one matrix a job, whatever the trial count.
    """
    n_trials = _require_integer("n_trials", n_trials, 1)
    chunks = -(-n_trials // CHUNK_TRIALS)
    per_batch = -(-chunks // BATCHES)
    batches = -(-chunks // per_batch)
    n_jobs = len(kernels) * batches
    last = seed.stream + len(kernels) * chunks - 1
    if last >= 1 << 64:
        raise ParameterError(f"substreams {seed.stream} to {last} pass 2**64 - 1")
    threads = pool_size(workers, n_jobs)
    results: List[Optional[np.ndarray]] = [None] * n_jobs
    failures: List[BaseException] = []
    # One CPU a thread, so that the threads cannot take turns on one core.
    cpus = sorted(os.sched_getaffinity(0)) if threads > 1 and hasattr(os, "sched_setaffinity") else []

    def work(first: int) -> None:
        try:
            if cpus:
                _pin({cpus[first % len(cpus)]})
            buffers = ChunkBuffers(min(CHUNK_TRIALS, n_trials))
            for job in range(first, n_jobs, threads):
                kernel, batch = divmod(job, batches)
                for chunk in range(batch * per_batch, min((batch + 1) * per_batch, chunks)):
                    if failures:
                        return
                    count = min(CHUNK_TRIALS, n_trials - chunk * CHUNK_TRIALS)
                    stream = seed.stream + kernel * chunks + chunk
                    g = gram(kernels[kernel](params, count, seed.with_stream(stream), buffers), buffers)
                    results[job] = g if results[job] is None else results[job] + g
        except BaseException as failure:  # raised again on the calling thread
            failures.append(failure)

    helpers: List[threading.Thread] = []
    try:
        for first in range(1, threads):
            helpers.append(threading.Thread(target=work, args=(first,)))
            helpers[-1].start()
        work(0)
    except BaseException as failure:  # a helper that did not start: the started ones stop
        failures.append(failure)
    for helper in helpers:
        while helper.is_alive():
            try:
                helper.join()
            except BaseException as failure:  # an interrupt, say: the helpers stop, then it is raised
                failures.append(failure)
    if cpus:
        _pin(cpus)
    if failures:
        raise failures[0]
    return [sum(results[k * batches : (k + 1) * batches]) for k in range(len(kernels))]


@np.errstate(over="ignore", invalid="ignore")
def covariance(g: np.ndarray) -> np.ndarray:
    """Sample covariance, divided by ``n - 1``, of the coordinates of a
    (summed) :func:`gram` matrix of ``n >= MIN_TRIALS`` trials: every
    Monte Carlo statistic is read from it.

    Subtracting the outer product of the sums from the raw moments is
    accurate here because every coordinate is zero-mean by construction.
    Overflow is silent here: callers reject a non-finite covariance.
    """
    n_trials = g[0, 0]
    if n_trials < MIN_TRIALS:
        raise ParameterError(
            f"n_trials must be >= {MIN_TRIALS} for covariance estimation, got {int(n_trials)}"
        )
    sums = g[0, 1:]
    return (g[1:, 1:] - np.outer(sums, sums) / n_trials) / (n_trials - 1.0)


class StageModel(NamedTuple):
    """One Monte Carlo stage's law: with probability ``weights[k]`` the
    pilots fall in class ``k``, and then ``(W, z_a, z_b) = maps[k] @ g`` for
    independent circularly-symmetric complex Gaussians
    ``g = (H, W, N_a, N_b)`` of variances ``variances``."""

    weights: np.ndarray
    maps: np.ndarray
    variances: Tuple[float, float, float, float]


def stage_model(params: SystemParams, randomized: bool) -> StageModel:
    """The law that :func:`randomize_trials` (``randomized``) or
    :func:`simulate_two_look` draws from.

    In each class the looks are ``z_a = c H + x (W + N_a)`` and
    ``z_b = c H + y (W + N_b)``. The static stage has one class, with
    ``x = y = 1`` and ``c = sqrt(P)`` at pilot power P. The randomized stage
    has the 16 equally likely pilot pairs of :func:`_qpsk_points`, ``x``
    major, with ``c = x y``.
    """
    if randomized:
        points = _qpsk_points(params.max_pilot_power)
        pilots = [(x, y, x * y) for x in points for y in points]
    else:
        pilots = [(1.0, 1.0, math.sqrt(params.max_pilot_power))]
    maps = np.array([[[0, 1, 0, 0], [c, x, x, 0], [c, y, 0, y]] for x, y, c in pilots], dtype=complex)
    return StageModel(np.full(len(maps), 1.0 / len(maps)), maps, _source_variances(params))


def model_covariance(model: StageModel) -> np.ndarray:
    """The 6x6 real covariance of ``(W, z_a, z_b)`` under ``model``, in
    :func:`gram`'s coordinate order: what :func:`covariance` of a kernel's
    summed :func:`gram` matrix estimates. The classes are summed exactly
    (``math.fsum``), so an entry whose terms cancel over them is 0.0."""
    # A complex entry a acts on a source's real and imaginary parts as
    # [[Re a, -Im a], [Im a, Re a]], and each part has half its variance.
    maps = np.kron(model.maps.real, np.eye(2)) + np.kron(model.maps.imag, [[0.0, -1.0], [1.0, 0.0]])
    maps *= np.sqrt(np.repeat(model.variances, 2) / 2.0)
    terms = model.weights[:, None, None] * np.einsum("kia,kja->kij", maps, maps)
    return np.apply_along_axis(math.fsum, 0, terms)


def static_stage(params: SystemParams, n_trials: int, total: np.ndarray) -> dict:
    """``simulate-injection``'s payload, which ``leakage`` carries too, from
    the static stage's summed :func:`gram` matrix."""
    # Python floats, so an overflowing sum is a silent inf that callers reject.
    # gram's rows less its first: injected at 0 and 1, z_a at 2 and 3, z_b at 4 and 5.
    cov = covariance(total).tolist()
    return {
        "trials": n_trials,
        "chunk_trials": CHUNK_TRIALS,
        "injected_variance": cov[0][0] + cov[1][1],
        "nominal_injected_variance": _source_variances(params)[1],
        "observation_variance": cov[2][2] + cov[3][3],
        "observation_cross_moment": cov[2][4] + cov[3][5],
    }


def mi_from_gram(g: np.ndarray) -> float:
    """Gaussian MI estimate, in bits, between the injected value and both
    looks, from the :func:`covariance` of a (summed) :func:`gram` matrix."""
    cov = covariance(g)
    if not np.isfinite(cov).all():
        raise NumericalError("moment matrix is not finite")
    return gaussian_mi_from_cov(cov, target_dim=2)


def injection_payload(params: SystemParams, trials: int, seed: RngSeed, workers: Optional[int]) -> dict:
    """``wskg simulate-injection``'s payload: :func:`static_stage` of the
    static kernel's :func:`chunked_grams` matrix."""
    (static,) = chunked_grams(params, trials, seed, (simulate_two_look,), workers)
    return static_stage(params, trials, static)


def leakage_check(params: SystemParams, trials: int, seed: RngSeed, workers: Optional[int]) -> dict:
    """``wskg leakage``'s payload: :func:`static_stage` and both stages'
    :func:`mi_from_gram` estimates, from one :func:`chunked_grams` pool whose
    randomized chunks continue on the substreams after the static ones."""
    stages = chunked_grams(params, trials, seed, (simulate_two_look, randomize_trials), workers)
    # The estimates come first: they reject a non-finite matrix.
    static_bits, randomized_bits = map(mi_from_gram, stages)
    return {**static_stage(params, trials, stages[0]), "static_pilot_leakage_bits": static_bits,
            "randomized_pilot_leakage_bits": randomized_bits}


def leakage_bound(params: SystemParams, n_trials: int, seed: RngSeed) -> float:
    """Estimated upper bound, in bits, on the key material the attacker controls.

    Estimates the joint covariance of the injected value and both observations
    over stacked real coordinates, with :func:`chunked_grams`, and evaluates
    the jointly-Gaussian mutual information closed form.
    """
    (total,) = chunked_grams(params, n_trials, seed, (simulate_two_look,))
    return mi_from_gram(total)
