"""Coincident-signal injection attack: precoding, both Monte Carlo kernels, leakage.

A two-antenna attacker with knowledge of both of its channel vectors can
precode its transmission so the identical waveform arrives at both legitimate
receivers, planting attacker-chosen material in their shared randomness. The
leakage bound quantifies, in bits, how much of the distilled key material the
attacker controls when the probing pilots are deterministic.

Both Monte Carlo kernels live here, beside the buffer layout they write into:
:func:`simulate_two_look` (static pilots) and :func:`randomize_trials`
(the randomized-probing defense of :mod:`wskg.randomization`).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .params import RngSeed, SystemParams
from .stochastic import _complex_normal, _qpsk, gaussian_mi_from_cov

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
    ``h_b2``, and ``norm`` is written into ``scratch`` when given.
    """
    ratio = np.subtract(h_b2, h_a2, out=h_b2)
    ratio /= denom
    norm = np.square(np.abs(ratio, out=scratch), out=scratch)
    norm += 1.0
    return ratio, np.sqrt(norm, out=norm)


#: The arrays of one buffer set: key -> (offset in bytes per trial, dtype,
#: values per trial). Keys 0 to 5 are complex slots; every kernel leaves its
#: results in slots 0 to 2, and the Gram rows lie over slots 3 to 5 and
#: ``scratch``.
_BUFFER_LAYOUT = {
    **{key: (16 * key, complex, 1) for key in range(6)},
    "gram": (48, float, 7),
    "scratch": (96, float, 1),
}

#: Bytes per trial of one buffer set: six complex slots and ``scratch``.
BUFFER_BYTES_PER_TRIAL = max(offset + np.dtype(dtype).itemsize * count
                             for offset, dtype, count in _BUFFER_LAYOUT.values())


class ChunkBuffers:
    """Work arrays for Monte Carlo chunks of up to ``size`` trials.

    Every array of ``_BUFFER_LAYOUT`` is a view into one allocation of
    ``BUFFER_BYTES_PER_TRIAL`` bytes per trial, so repeated calls reuse one
    heap block instead of faulting in fresh pages per array. ``take`` hands
    out the first ``n`` trials of one of them, so a set serves chunk after
    chunk. Arrays that overlap are never live at once: a kernel reuses a
    slot only once the slot's previous contents are dead.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._block = np.empty(BUFFER_BYTES_PER_TRIAL * size, dtype=np.uint8)

    def take(self, key, n: int) -> np.ndarray:
        """First ``n`` trials of the array under ``key``: a C-contiguous
        ``(values per trial, n)`` block when that is more than one."""
        offset, dtype, per_trial = _BUFFER_LAYOUT[key]
        start = offset * self.size
        view = self._block[start : start + np.dtype(dtype).itemsize * per_trial * n].view(dtype)
        return view.reshape(per_trial, n) if per_trial > 1 else view


def _injected_variance(params: SystemParams) -> float:
    """Variance of the injected value in the attack model of both kernels."""
    return params.jam_channel_var * params.jam_power_budget


def _draw(rng, buffers: ChunkBuffers, key: int, variance: float, n_trials: int) -> np.ndarray:
    """``n_trials`` complex normal draws into slot ``key``, through the set's
    scratch array."""
    scratch = buffers.take("scratch", n_trials)
    return _complex_normal(rng, variance, n_trials, buffers.take(key, n_trials), scratch)


@dataclass(frozen=True)
class TwoLookBatch:
    """Vectorized Monte Carlo trials of both parties' looks under injection.

    ``injected`` holds the attacker's injected value. With static pilots it
    appears identically in both observations; with randomized probing each
    look holds it multiplied by that party's pilot. ``resampled`` is always
    0: no kernel redraws a trial. Only the benchmark's trace still reads it,
    and it goes with that read (ROADMAP item 1).
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
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    rng = seed.generator()
    entry_var = params.jam_channel_var / 2.0
    if buffers is None:
        buffers = ChunkBuffers(n_trials)
    scratch = buffers.take("scratch", n_trials)
    h = _draw(rng, buffers, 3, params.legit_channel_var, n_trials)
    h_a1, h_a2, h_b1, h_b2 = (_draw(rng, buffers, key, entry_var, n_trials) for key in (0, 4, 5, 1))

    # In place: injected = 2 sqrt(budget) (h_a1 ratio + h_a2) / norm xj.
    denom = np.subtract(h_a1, h_b1, out=buffers.take(2, n_trials))
    ratio, norm = coincidence_precoder(h_a2, h_b2, denom, scratch)
    injected = np.multiply(h_a1, ratio, out=h_a1)
    injected += h_a2
    injected /= norm
    np.multiply(2.0 * math.sqrt(params.jam_power_budget), injected, out=injected)
    injected *= 1.0 + 0.0j  # the attack symbol xj; the product sets the sign of zero parts

    # The ratio and denom are dead: the noises reuse their slots.
    z_a, z_b = (_draw(rng, buffers, key, 1.0, n_trials) for key in (1, 2))
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
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    rng = seed.generator()
    if buffers is None:
        buffers = ChunkBuffers(n_trials)
    scratch = buffers.take("scratch", n_trials)
    x, y = (_qpsk(rng, params.max_pilot_power, n_trials, buffers.take(key, n_trials), scratch)
            for key in (3, 4))
    h = _draw(rng, buffers, 1, params.legit_channel_var, n_trials)
    # In place, in the operation order of z_a = x y h + x w + x noise_a, etc.
    # Each of w, noise_a and noise_b is drawn once a slot is free for it.
    z_b = np.multiply(x, y, out=buffers.take(2, n_trials))
    z_b *= h
    w = _draw(rng, buffers, 0, _injected_variance(params), n_trials)
    z_a = np.multiply(x, w, out=h)
    z_a += z_b
    noise_a = _draw(rng, buffers, 5, 1.0, n_trials)
    z_a += np.multiply(x, noise_a, out=noise_a)
    z_b += np.multiply(y, w, out=noise_a)
    noise_b = _draw(rng, buffers, 3, 1.0, n_trials)  # x is dead
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
    slots 3 to 5 and ``scratch``, so the batch must lie in slots 0 to 2.
    Overflow is silent here: :func:`mi_from_gram` rejects a non-finite matrix.
    """
    n = batch.injected.size
    rows = np.empty((7, n)) if buffers is None else buffers.take("gram", n)
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
    owns one buffer set, so memory grows with this number, not with trials."""
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    cpus = usable_cpus()
    return min(cpus if workers is None else workers, n_chunks, cpus)


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
    thread. The first failure is raised on the calling thread once every
    thread has stopped; the others stop before their next chunk. The
    matrices are added in chunk order, so the result depends on
    ``(seed, stream, n_trials)`` alone.
    """
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
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

    def work(first: int) -> None:
        try:
            buffers = ChunkBuffers(counts[0])
            for i in range(first, len(jobs), threads):
                if failures:
                    return
                kernel, count, chunk_seed = jobs[i]
                results[i] = gram(kernel(params, count, chunk_seed, buffers), buffers)
        except BaseException as failure:  # raised again on the calling thread
            failures.append(failure)

    helpers = [threading.Thread(target=work, args=(first,)) for first in range(1, threads)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return [sum(results[k * len(counts) : (k + 1) * len(counts)]) for k in range(len(kernels))]


@np.errstate(over="ignore", invalid="ignore")
def covariance(g: np.ndarray) -> np.ndarray:
    """Sample covariance, divided by ``n - 1``, of the coordinates of a
    (summed) :func:`gram` matrix of ``n`` trials.

    Subtracting the outer product of the sums from the raw moments is
    accurate here because every coordinate is zero-mean by construction.
    Overflow is silent here: callers reject a non-finite covariance.
    """
    n_trials = g[0, 0]
    if n_trials < 2:
        raise ParameterError(f"a sample covariance needs >= 2 trials, got {int(n_trials)}")
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
    n_trials = g[0, 0]
    if n_trials < 10_000:
        raise ParameterError(
            f"n_trials must be >= 10000 for covariance estimation, got {int(n_trials)}"
        )
    cov = covariance(g)
    if not np.isfinite(cov).all():
        raise NumericalError("moment matrix is not finite")
    return gaussian_mi_from_cov(cov, target_dim=2)


def leakage_bound(params: SystemParams, n_trials: int, seed: RngSeed) -> float:
    """Estimated upper bound, in bits, on the key material the attacker controls.

    Estimates the joint covariance of the injected value and both observations
    over stacked real coordinates, with :func:`chunked_grams`, and evaluates
    the jointly-Gaussian mutual information closed form.
    """
    (total,) = chunked_grams(params, n_trials, seed, (simulate_two_look,))
    return mi_from_gram(total)
