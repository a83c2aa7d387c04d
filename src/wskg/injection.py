"""Coincident-signal injection attack: precoding, both Monte Carlo kernels, leakage.

A two-antenna attacker with knowledge of both of its channel vectors can
precode its transmission so the identical waveform arrives at both legitimate
receivers, planting attacker-chosen material in their shared randomness. The
leakage bound quantifies, in bits, how much of the distilled key material the
attacker controls when the probing pilots are deterministic.

Both Monte Carlo kernels live here, beside the buffer set they write into:
:func:`simulate_two_look` (static pilots) and :func:`randomize_trials`
(the randomized-probing defense of :mod:`wskg.randomization`), and the
payloads of ``simulate-injection`` and ``leakage``, which run them.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .params import RngSeed, SystemParams, _require_integer
from .stochastic import (
    DRAW_BLOCK,
    MIN_TRIALS,
    _complex_normal,
    _pilot_indices,
    _qpsk_points,
    _take_points,
    gaussian_mi_from_cov,
)

#: Monte Carlo trials per chunk. :func:`chunked_grams` draws chunk ``i`` of
#: kernel ``k`` from substream ``stream + k * chunks + i``, so ``leakage``'s
#: randomized stage starts after its static one.
CHUNK_TRIALS = 1 << 16


def coincidence_precoder(h_a2, h_b2, denom, scratch=None):
    """Unit-power precoder whose signal lands identically at both receivers.

    The antenna weights ``(ratio, 1) / norm``, with
    ``ratio = (h_b2 - h_a2) / denom`` for ``denom = h_a1 - h_b1`` and
    ``norm = sqrt(1 + |ratio|^2)``, give the same gain
    ``(h_a1 ratio + h_a2) / norm`` at Alice as ``(h_b1 ratio + h_b2) / norm``
    at Bob, at unit transmit power. The first-antenna gains enter only
    through ``denom``. Under the continuous channel law it is nonzero with
    probability one; a zero ``denom`` gives non-finite values, which the
    callers' finiteness checks reject.
    Returns ``(ratio, norm)``, computed in place: ``ratio`` overwrites
    ``h_b2``, and ``norm`` is written into ``scratch`` when given, which may
    lie over ``denom``: ``denom`` is read in full first.
    """
    ratio = np.subtract(h_b2, h_a2, out=h_b2)
    ratio /= denom
    norm = np.square(np.abs(ratio, out=scratch), out=scratch)
    norm += 1.0
    return ratio, np.sqrt(norm, out=norm)


class ChunkBuffers:
    """Work arrays for Monte Carlo chunks of up to ``size`` trials.

    ``slots`` holds five complex values per trial: every kernel leaves its
    results (``injected``, ``z_a``, ``z_b``) in slots 2 to 4, and
    :func:`gram` writes its rows over slots 0 to 3. ``index`` holds the
    randomized kernel's pilots as point indices, one byte each, x's then y's.
    ``draw`` is the block of reals through which every Gaussian is drawn:
    ``DRAW_BLOCK``, or ``size`` rounded up to even when that is fewer. A
    kernel of ``n`` trials uses the first ``n`` of each row, so a set serves
    chunk after chunk, and reuses a slot only once its contents are dead.
    """

    def __init__(self, size: int) -> None:
        self.slots = np.empty((5, size), dtype=complex)
        self.index = np.empty((2, size), dtype=np.uint8)
        self.draw = np.empty(min(size + size % 2, DRAW_BLOCK))


def _injected_variance(params: SystemParams) -> float:
    """Variance of the injected value in the attack model of both kernels."""
    return params.jam_channel_var * params.jam_power_budget


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


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def simulate_two_look(
    params: SystemParams, n_trials: int, seed: RngSeed, buffers: Optional[ChunkBuffers] = None
) -> TwoLookBatch:
    """Monte Carlo trials of both parties' observations under injection.

    Per trial: a reciprocal channel gain H ~ CN(0, legit_channel_var), the
    attacker's four link gains each CN(0, jam_channel_var / 2), unit-variance
    receiver noise, a deterministic pilot at full power, and a constant
    unit-modulus attack symbol steered through the coincidence precoder. The
    injected value is identical in both observations by construction.

    The unit-power :func:`coincidence_precoder` has an effective gain of
    variance jam_channel_var / 4 (forcing the same value at both receivers
    costs the array gain twice over). The simulator therefore drives it with
    amplitude 2 sqrt(jam_power_budget), a transmit power of 4x the budget, so
    that the injected value has variance jam_channel_var * jam_power_budget,
    the nominal attack model.

    Each trial is drawn once, whatever its gains. The returned arrays are
    views into ``buffers`` when given. Overflow and a zero precoder
    denominator are silent here: callers reject the non-finite moments they
    lead to.
    """
    n_trials = _require_integer("n_trials", n_trials, 1)
    rng = seed.generator()
    entry_var = params.jam_channel_var / 2.0
    if buffers is None:
        buffers = ChunkBuffers(n_trials)
    # Slots: h in 0; h_b1, then denom and norm, in 1; h_a1, then injected,
    # in 2; h_a2, then z_a, in 3; h_b2, then ratio and z_b, in 4.
    h, h_a1, h_a2, h_b1 = (_draw(rng, buffers, key, variance, n_trials) for key, variance in
                           ((0, params.legit_channel_var), (2, entry_var), (3, entry_var), (1, entry_var)))
    denom = np.subtract(h_a1, h_b1, out=h_b1)
    h_b2 = _draw(rng, buffers, 4, entry_var, n_trials)

    # In place: injected = 2 sqrt(budget) (h_a1 ratio + h_a2) / norm xj.
    # norm's reals lie over denom, which is dead once it has divided ratio.
    ratio, norm = coincidence_precoder(h_a2, h_b2, denom, denom.view(float)[:n_trials])
    injected = np.multiply(h_a1, ratio, out=h_a1)
    injected += h_a2
    injected /= norm
    np.multiply(2.0 * math.sqrt(params.jam_power_budget), injected, out=injected)
    injected *= 1.0 + 0.0j  # the attack symbol xj; the product sets the sign of zero parts

    # h_a2 and the ratio are dead: the noises reuse their slots.
    z_a, z_b = (_draw(rng, buffers, key, 1.0, n_trials) for key in (3, 4))
    common = np.add(np.multiply(math.sqrt(params.max_pilot_power), h, out=h), injected, out=h)
    z_a += common
    z_b += common
    return TwoLookBatch(z_a=z_a, z_b=z_b, injected=injected)


@np.errstate(over="ignore", invalid="ignore")
def randomize_trials(
    params: SystemParams, n_trials: int, seed: RngSeed, buffers: Optional[ChunkBuffers] = None
) -> TwoLookBatch:
    """Monte Carlo trials of both parties' post-multiplied observations.

    Per trial: independent QPSK pilots X and Y at full pilot power, a channel
    gain H ~ CN(0, legit_channel_var), an injected value
    W ~ CN(0, jam_channel_var * jam_power_budget), and unit-variance noises.
    Returns Z~_a = XYH + XW + X N_a and Z~_b = XYH + YW + Y N_b, as views into
    ``buffers`` when given. Overflow is silent here: callers reject the
    non-finite moments it leads to.
    """
    n_trials = _require_integer("n_trials", n_trials, 1)
    rng = seed.generator()
    if buffers is None:
        buffers = ChunkBuffers(n_trials)
    power = params.max_pilot_power
    points = _qpsk_points(power)
    # Slots: x, then y w, noise_a and noise_b, in 0; y in 1; w in 2; h,
    # then z_a, in 3; z_b in 4. The pilots' point indices have bytes of
    # their own.
    x_index, y_index = (_pilot_indices(rng, power, n_trials, row[:n_trials]) for row in buffers.index)
    x = _take_points(points, x_index, buffers.slots[0, :n_trials])
    y = _take_points(points, y_index, buffers.slots[1, :n_trials])
    h = _draw(rng, buffers, 3, params.legit_channel_var, n_trials)
    # In place, in the operation order of z_a = x y h + x w + x noise_a, etc.
    # Each of w, noise_a and noise_b is drawn once a slot is free for it;
    # each product keeps its pilot as the first operand, as the plain
    # expressions do.
    z_b = np.multiply(x, y, out=buffers.slots[4, :n_trials])
    z_b *= h
    w = _draw(rng, buffers, 2, _injected_variance(params), n_trials)
    z_a = np.multiply(x, w, out=h)
    z_a += z_b
    z_b += np.multiply(y, w, out=x)
    noise_a = _draw(rng, buffers, 0, 1.0, n_trials)
    # x's slot now holds noise_a, so x is taken again from its indices, in
    # blocks that fit the draw block as complex values. numpy multiplies a
    # lone complex value in place without its SIMD loop, which rounds
    # differently, so the blocks split the trials evenly: none holds a
    # single trial unless the batch does.
    block = buffers.draw.view(complex)
    n_blocks = -(-n_trials // block.size)
    edges = [n_trials * i // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(edges, edges[1:]):
        noise = noise_a[start:stop]
        x_part = _take_points(points, x_index[start:stop], block[: stop - start])
        z_a[start:stop] += np.multiply(x_part, noise, out=noise)
    noise_b = _draw(rng, buffers, 0, 1.0, n_trials)
    z_b += np.multiply(y, noise_b, out=noise_b)
    return TwoLookBatch(z_a=z_a, z_b=z_b, injected=w)


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


def pool_size(workers: Optional[int], n_chunks: int) -> int:
    """Threads that run ``n_chunks`` chunks: ``min(workers, n_chunks, usable
    CPUs)``, with ``workers`` defaulting to the usable CPU count. Each thread
    owns one buffer set, so memory grows with this number, not with trials.
    With two or more, :func:`chunked_grams` pins each to a CPU of its own."""
    cpus = usable_cpus()
    workers = cpus if workers is None else _require_integer("workers", workers, 1)
    return min(workers, n_chunks, cpus)


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
    ``k`` uses substream ``stream + k * n_chunks + i``, so each kernel
    continues on the substreams after the previous one, and the last of them
    must not pass ``2**64 - 1``, the last stream a seed has. All chunks are
    shared among :func:`pool_size` threads: thread ``w`` of ``T`` runs chunks
    ``w, w + T, w + 2T, ...`` in one buffer set of its own, sized to the
    largest chunk and freed when the call returns. Thread 0 is the calling
    thread. With more than one thread, thread ``w`` is pinned to CPU ``w``
    (modulo their number) of the caller's mask before its first chunk, and
    the caller's mask is restored once every thread has stopped, whether the
    pool returns or raises. Where CPU affinity is missing or refused, the
    threads run unpinned. The first failure, a helper that fails to start
    included, is raised on the calling thread once every started thread has
    stopped; the others stop before their next chunk.
    The matrices are added in chunk order, so the result depends on
    ``(seed, stream, n_trials)`` alone.
    """
    n_trials = _require_integer("n_trials", n_trials, 1)
    counts = [min(CHUNK_TRIALS, n_trials - start) for start in range(0, n_trials, CHUNK_TRIALS)]
    last = seed.stream + len(kernels) * len(counts) - 1
    if last >= 1 << 64:
        raise ParameterError(f"substreams {seed.stream} to {last} pass 2**64 - 1")
    jobs = [
        (kernel, count, seed.with_stream(seed.stream + k * len(counts) + i))
        for k, kernel in enumerate(kernels)
        for i, count in enumerate(counts)
    ]
    threads = pool_size(workers, len(jobs))
    results: List[Optional[np.ndarray]] = [None] * len(jobs)
    failures: List[BaseException] = []
    # One CPU a thread, so that the threads cannot take turns on one core.
    cpus = sorted(os.sched_getaffinity(0)) if threads > 1 and hasattr(os, "sched_setaffinity") else []

    def work(first: int) -> None:
        try:
            if cpus:
                _pin({cpus[first % len(cpus)]})
            buffers = ChunkBuffers(counts[0])
            for i in range(first, len(jobs), threads):
                if failures:
                    return
                kernel, count, chunk_seed = jobs[i]
                results[i] = gram(kernel(params, count, chunk_seed, buffers), buffers)
        except BaseException as failure:  # raised again on the calling thread
            failures.append(failure)

    helpers: List[threading.Thread] = []
    try:
        try:
            for first in range(1, threads):
                helper = threading.Thread(target=work, args=(first,))
                helper.start()
                helpers.append(helper)
            work(0)
        except BaseException as failure:  # a helper that did not start: the started ones stop
            failures.append(failure)
        for helper in helpers:
            helper.join()
    finally:
        if cpus:
            _pin(cpus)
    if failures:
        raise failures[0]
    return [sum(results[k * len(counts) : (k + 1) * len(counts)]) for k in range(len(kernels))]


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
        "nominal_injected_variance": _injected_variance(params),
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
