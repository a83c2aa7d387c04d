"""The Monte Carlo kernels against textbook reference implementations.

The kernels work in place and build only the arrays they need, but they must
give the same bits as the plain expressions below, which allocate a fresh
array per operation. Comparing the raw bits (sign of zero included) pins this
on whatever numpy runs the suite, where a seeded golden would only pin one
numpy's output.
"""

import gc
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wskg import (
    NumericalError,
    ParameterError,
    RngSeed,
    SystemParams,
    ks_test_normal,
    randomize_trials,
    simulate_two_look,
    verify_randomization,
)
from wskg import injection
from wskg.randomization import VERIFY_BLOCK, RandomizationReport
from wskg import kstest
from wskg.kstest import cdf_bulk, kolmogorov_sf, ndtr
from wskg.stochastic import (
    BLOCK,
    DRAW_BLOCK,
    KsReport,
    _complex_normal,
    _qpsk,
    _variance,
)

SEED = RngSeed(2718, 5)
SIZES = (10_000, 65_537)
# One either side of a block of pilot bits. Both are odd, so the second
# draw of pilot bits starts on the spare 32-bit half of a Philox word that
# the first leaves.
PILOT_EDGES = (BLOCK - 1, BLOCK + 1)
# Around one block of Gaussian draws. The randomized kernel takes its pilot
# again in blocks of DRAW_BLOCK // 2 trials, so DRAW_BLOCK + 1 trials would
# leave a block of one trial unless the blocks split the trials evenly.
DRAW_EDGES = (DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1)
P_MAX = (1e-3, 0.37, 2.0, 5.0)


def ref_complex_normal(rng, variance, count):
    if variance == 0.0:
        return np.zeros(count, dtype=complex)
    scale = math.sqrt(variance / 2.0)
    return rng.normal(0.0, scale, count) + 1j * rng.normal(0.0, scale, count)


def ref_qpsk(rng, power, count):
    if power == 0.0:
        return np.zeros(count, dtype=complex)
    r = math.sqrt(power / 2.0)
    re = 2.0 * rng.integers(0, 2, count) - 1.0
    im = 2.0 * rng.integers(0, 2, count) - 1.0
    return r * (re + 1j * im)


def in_place_product(a, b):
    """``a * b`` for a product that the kernels compute in place.

    numpy multiplies a lone complex value in place without its SIMD loop,
    which rounds otherwise than the loop of a plain ``a * b``. So a batch of
    one trial is multiplied in place, over a copy of ``a``, as the kernels
    multiply it; longer batches, whose bits do not depend on it, out of place.
    A real factor's product rounds alike in both loops, so it stays plain.
    """
    if a.size != 1:
        return a * b
    product = a.copy()
    product *= b
    return product


def ref_simulate_two_look(params, n_trials, seed):
    """(z_a, z_b, injected)."""
    rng = seed.generator()
    entry_var = params.jam_channel_var / 2.0
    h = ref_complex_normal(rng, params.legit_channel_var, n_trials)
    h_a1, h_a2, h_b1, h_b2 = (ref_complex_normal(rng, entry_var, n_trials) for _ in range(4))
    ratio = (h_b2 - h_a2) / (h_a1 - h_b1)
    unit_gain = (in_place_product(h_a1, ratio) + h_a2) / np.sqrt(1.0 + np.abs(ratio) ** 2)
    xj = 1.0 + 0.0j
    injected = in_place_product(2.0 * math.sqrt(params.jam_power_budget) * unit_gain, xj)
    pilot = math.sqrt(params.max_pilot_power)
    noise_a = ref_complex_normal(rng, 1.0, n_trials)
    noise_b = ref_complex_normal(rng, 1.0, n_trials)
    z_a = pilot * h + injected + noise_a
    z_b = pilot * h + injected + noise_b
    return z_a, z_b, injected


def ref_randomize_trials(params, n_trials, seed):
    """(z_a, z_b, injected, x, y), with x and y Alice's and Bob's pilots."""
    rng = seed.generator()
    power = params.max_pilot_power
    x = ref_qpsk(rng, power, n_trials)
    y = ref_qpsk(rng, power, n_trials)
    h = ref_complex_normal(rng, params.legit_channel_var, n_trials)
    w = ref_complex_normal(rng, params.jam_channel_var * params.jam_power_budget, n_trials)
    noise_a = ref_complex_normal(rng, 1.0, n_trials)
    noise_b = ref_complex_normal(rng, 1.0, n_trials)
    common = in_place_product(x * y, h)
    z_a = common + x * w + in_place_product(x, noise_a)
    z_b = common + y * w + in_place_product(y, noise_b)
    return z_a, z_b, w, x, y


def ref_gram(z_a, z_b, injected):
    ones = np.ones(injected.size)
    rows = np.stack([ones, injected.real, injected.imag, z_a.real, z_a.imag, z_b.real, z_b.imag])
    return rows @ rows.T


def ref_chunked_gram(ref_kernel, params, n_trials, first_stream):
    """Reference sum of the chunks' grams in chunk order."""
    counts = [min(injection.CHUNK_TRIALS, n_trials - s) for s in range(0, n_trials, injection.CHUNK_TRIALS)]
    return sum(
        ref_gram(*ref_kernel(params, count, SEED.with_stream(first_stream + i))[:3])
        for i, count in enumerate(counts)
    )


def ref_ks_test_normal(samples, variance):
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = scipy.special.ndtr(x / math.sqrt(variance))
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    statistic = max(d_plus, d_minus, 0.0)
    p_value = float(scipy.special.kolmogorov(math.sqrt(n) * statistic))
    return KsReport(statistic=statistic, p_value=p_value, n=n)


def ref_verify_randomization(params, n_samples, seed):
    power = params.max_pilot_power
    s2 = params.legit_channel_var
    rng = seed.generator()
    x = ref_qpsk(rng, power, n_samples)
    y = ref_qpsk(rng, power, n_samples)
    h = ref_complex_normal(rng, s2, n_samples)
    product = x.real * h.real
    source_real = (x * y * h).real
    return RandomizationReport(
        ks_product=ref_ks_test_normal(product, power * s2 / 4.0),
        ks_source=ref_ks_test_normal(source_real, power * power * s2 / 2.0),
        source_real_var=float(np.var(source_real)),
    )


def same_bits(a, b):
    """Equal dtype, shape and bits; unlike ``==``, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def make_params(p_max, gamma=3.0):
    return SystemParams(10, p_max, gamma, 2.0, 1.7, 0.6)


@pytest.mark.parametrize("count", SIZES + PILOT_EDGES + DRAW_EDGES)
@pytest.mark.parametrize("power", (0.0,) + P_MAX)
def test_samplers_match_reference(count, power):
    assert same_bits(
        _complex_normal(SEED.generator(), power, count),
        ref_complex_normal(SEED.generator(), power, count),
    )
    assert same_bits(_qpsk(SEED.generator(), power, count), ref_qpsk(SEED.generator(), power, count))


@pytest.mark.parametrize("n_trials", (1,) + SIZES + DRAW_EDGES)
@pytest.mark.parametrize("gamma", (0.0, 3.0))
@pytest.mark.parametrize("p_max", P_MAX)
def test_simulate_two_look_matches_reference(n_trials, gamma, p_max):
    params = make_params(p_max, gamma)
    batch = simulate_two_look(params, n_trials, SEED)
    z_a, z_b, injected = ref_simulate_two_look(params, n_trials, SEED)
    assert same_bits(batch.z_a, z_a)
    assert same_bits(batch.z_b, z_b)
    assert same_bits(batch.injected, injected)
    assert batch.resampled == 0


@pytest.mark.parametrize("n_trials", (1,) + SIZES + DRAW_EDGES)
@pytest.mark.parametrize("gamma", (0.0, 3.0))
@pytest.mark.parametrize("p_max", (0.0,) + P_MAX)
def test_randomize_trials_matches_reference(n_trials, gamma, p_max):
    params = make_params(p_max, gamma)
    batch = randomize_trials(params, n_trials, SEED)
    expected = ref_randomize_trials(params, n_trials, SEED)
    got = (batch.z_a, batch.z_b, batch.injected)
    assert all(same_bits(a, b) for a, b in zip(got, expected[:3]))
    assert batch.resampled == 0


@pytest.mark.parametrize("p_max", (0.37, 5.0))
def test_one_trial_batches_match_reference(p_max):
    # A lone trial's product rounds otherwise in place than out of place on
    # a quarter to a half of the streams, so one stream may not show a
    # product that a kernel takes out of place; forty do.
    params = make_params(p_max)
    for stream in range(40):
        seed = SEED.with_stream(stream)
        static = simulate_two_look(params, 1, seed)
        randomized = randomize_trials(params, 1, seed)
        for batch, expected in ((static, ref_simulate_two_look(params, 1, seed)),
                                (randomized, ref_randomize_trials(params, 1, seed))):
            got = (batch.z_a, batch.z_b, batch.injected)
            assert all(same_bits(a, b) for a, b in zip(got, expected[:3])), stream


# 10_001 is odd, so a block boundary falls on a pilot bit drawn from the
# spare 32-bit half of a Philox word, as it does at the pilot block's edges;
# the others sit at the edges of the verify blocks and of the KS test's
# blocks, at or above verify's 10000-sample minimum.
VERIFY_CASES = [(p_max, n) for n in SIZES + (10_001,) for p_max in P_MAX] + [
    (2.0, n) for n in PILOT_EDGES + (3 * VERIFY_BLOCK + 1, 4 * BLOCK, 8 * BLOCK + 1)
]


@pytest.mark.parametrize("p_max, n_samples", VERIFY_CASES)
def test_verify_randomization_matches_reference(p_max, n_samples):
    params = make_params(p_max)
    assert verify_randomization(params, n_samples, SEED) == ref_verify_randomization(
        params, n_samples, SEED
    )


# Sizes below numpy's unrolled sums (8) and its pairwise leaves (128), at
# and either side of one and two of the helper's leaves, and above many.
VARIANCE_SIZES = (
    1, 7, 8, 9, 127, 128, 129,
    BLOCK - 1, BLOCK, BLOCK + 1,
    2 * BLOCK - 1, 2 * BLOCK + 1, 65_537, 1_000_000,
)


@pytest.mark.parametrize("n", VARIANCE_SIZES)
def test_variance_matches_np_var_bits(n):
    # Magnitudes over seven decades and a nonzero mean, so that a sum in
    # another order would round differently.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.exp(rng.uniform(-8.0, 8.0, n)) + 1.5
    assert same_bits(_variance(x), float(np.var(x)))


def test_variance_follows_numpys_split_rule():
    # Above two leaves, the first split falls at half the length rounded
    # down to a multiple of 8. A sum split elsewhere (at the exact half, or
    # at a multiple of 16) rounds differently at several of these sizes.
    for n in range(2 * BLOCK + 9, 2 * BLOCK + 200, 12):
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        assert same_bits(_variance(x), float(np.var(x))), n


def test_variance_overflows_as_np_var_does():
    x = np.array([1e300, -1e300, 3.0] * 7_000)
    with np.errstate(over="ignore"):
        got, expected = _variance(x), float(np.var(x))
    assert same_bits(got, expected) and got == math.inf


# One sample, two, and sizes around one, four and eight CDF blocks.
KS_SIZES = (
    1, 2,
    BLOCK - 1, BLOCK, BLOCK + 1,
    4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1,
    8 * BLOCK + 1,
)


@pytest.mark.parametrize("seed", (9, 10, 11))
@pytest.mark.parametrize("variance", (0.5, 1.5, 9.0))
@pytest.mark.parametrize("n", KS_SIZES)
def test_ks_test_matches_reference(n, variance, seed):
    samples = np.random.default_rng(seed).normal(0.0, 1.3, n)
    before = samples.copy()
    assert ks_test_normal(samples, variance) == ref_ks_test_normal(samples, variance)
    assert same_bits(samples, before)


@pytest.mark.parametrize("n", KS_SIZES)
def test_ks_overwrite_input_gives_the_same_report(n):
    samples = np.random.default_rng(n).normal(0.0, 1.3, n)
    assert ks_test_normal(samples.copy(), 1.5, overwrite_input=True) == ks_test_normal(
        samples, 1.5
    )


def test_ks_recheck_covers_near_ties():
    # At the normal quantiles of (i + 0.5) / n every exact deviation is
    # 0.5 / n to within a few ulps, so the bulk CDF's error puts the largest
    # bulk deviation on an arbitrary point. Every point within the margin
    # must be evaluated again.
    n = 70_000
    samples = scipy.special.ndtri((np.arange(n) + 0.5) / n) * math.sqrt(1.5)
    assert ks_test_normal(samples, 1.5) == ref_ks_test_normal(samples, 1.5)


# Quantile samples of size 3 * BLOCK - 1, every exact deviation 0.5 / n, with
# the samples below index k shifted down (the largest deviation is then
# i/n - F) or from index k on shifted up (then F - (i-1)/n). A small shift
# puts the largest deviation next to k, a large one near the quantile of
# -+shift / 2 (about 0.84 n for the upper side, 0.16 n for the lower).
@pytest.mark.parametrize(
    "side, k, shift, first_block",
    [
        ("upper", BLOCK // 2, 0.05, True),
        ("upper", 3 * BLOCK - BLOCK // 8, 2.0, False),
        ("lower", BLOCK // 4, 2.0, True),
        ("lower", 2 * BLOCK + BLOCK // 4, 0.05, False),
    ],
)
def test_ks_statistic_from_either_side_in_any_block(side, k, shift, first_block):
    n = 3 * BLOCK - 1
    samples = scipy.special.ndtri((np.arange(n) + 0.5) / n)
    if side == "upper":
        samples[:k] -= shift
    else:
        samples[k:] += shift
    cdf = scipy.special.ndtr(samples)
    steps = np.arange(1, n + 1) / n
    deviations = {"upper": steps - cdf, "lower": cdf - (steps - 1.0 / n)}
    other = deviations.pop("lower" if side == "upper" else "upper")
    top = int(np.argmax(deviations[side]))
    assert deviations[side][top] > other.max()
    assert (top < BLOCK) == first_block
    assert ks_test_normal(samples, 1.0) == ref_ks_test_normal(samples, 1.0)


def assert_ndtr_matches_scipy(a):
    """The port gives scipy's bits; the bulk CDF stays within half the KS
    test's recheck margin."""
    a = np.asarray(a, dtype=float)
    expected = scipy.special.ndtr(a)
    assert same_bits(np.array([ndtr(v) for v in a.tolist()]), expected)
    assert np.all(np.abs(cdf_bulk(a) - expected) < 2.9e-8)


def neighbours(points, steps=3):
    """Each point and its ``steps`` nearest doubles on either side."""
    out = []
    for p in points:
        out.append(p)
        for toward in (-math.inf, math.inf):
            q = p
            for _ in range(steps):
                q = math.nextafter(q, toward)
                out.append(q)
    return out


def test_ndtr_matches_scipy_at_branch_edges():
    # x = a / sqrt(2) crosses erf/erfc at |x| = 1, the (P, Q)/(R, S) tables
    # at |x| = 8 and the underflow where x * x exceeds MAXLOG.
    edges = [0.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * kstest._MAXLOG)]
    edges = neighbours([sign * e for e in edges for sign in (1.0, -1.0)])
    assert_ndtr_matches_scipy(edges + [-1e308, 1e308, -37.7, 37.7, -0.0])
    # (P, Q) and (R, S) disagree in most last bits just past |x| = 8.
    assert_ndtr_matches_scipy(np.linspace(-8.5 * math.sqrt(2.0), -7.5 * math.sqrt(2.0), 20_001))
    # Around the underflow edge scipy returns exact zeros on one side only.
    edge = np.linspace(-37.68, -37.67, 20_001)
    assert_ndtr_matches_scipy(edge)
    assert 0.0 < scipy.special.ndtr(edge[-1]) and scipy.special.ndtr(edge[0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=st.floats(-60.0, 60.0)))
def test_ndtr_matches_scipy_on_sorted_arrays(a):
    assert_ndtr_matches_scipy(np.sort(a))


def test_bulk_cdf_nodes_and_error_bound():
    nodes = np.arange(kstest._NODES.size) * kstest._STEP - kstest._SPAN
    assert np.all(np.abs(kstest._NODES - scipy.special.ndtr(nodes)) < 1e-15)
    # The interpolation error peaks midway between nodes where |ndtr''| is
    # largest, at |a| = 1.
    mid = np.concatenate([nodes[:-1] + kstest._STEP / 2, np.linspace(-1.01, 1.01, 200_001)])
    error = np.abs(cdf_bulk(mid) - scipy.special.ndtr(mid))
    assert 2.8e-8 < error.max() < 2.9e-8 < kstest.RECHECK / 2


def test_kolmogorov_matches_scipy():
    cutoff = math.pi / math.sqrt(746.0 * 8.0)  # scipy returns 1.0 at and below it
    points = neighbours([0.0, cutoff, 0.82], steps=5)
    rng = np.random.default_rng(6)
    for lo, hi in ((0.0, 0.2), (cutoff - 1e-3, cutoff + 1e-3), (0.8, 0.84), (0.0, 4.0), (4.0, 40.0)):
        points += rng.uniform(lo, hi, 3_000).tolist()
    points += [5.0, 20.0, 27.0, 30.0, 100.0, 1e10, 1e300]
    x = np.array(points)
    expected = scipy.special.kolmogorov(x)
    assert same_bits(np.array([kolmogorov_sf(v) for v in points]), expected)
    assert expected[-1] == 0.0 and np.count_nonzero(expected == 1.0) > 10


def test_injected_scales_with_the_jammer_gains():
    # Every gain of the jammer scales by 1e-9 at 1e-18 times the variance,
    # and so does the injected value: no draw depends on the gains' size.
    unit = simulate_two_look(SystemParams(10, 2.0, 3.0, 2.0, 1.7, 1.0), 10_000, SEED)
    tiny = simulate_two_look(SystemParams(10, 2.0, 3.0, 2.0, 1.7, 1e-18), 10_000, SEED)
    np.testing.assert_allclose(tiny.injected, unit.injected * 1e-9, rtol=1e-12)


def test_a_zero_precoder_denominator_gives_non_finite_moments(monkeypatch):
    # Bob's first-antenna gain set to Alice's on every other trial: each such
    # trial's injected value is NaN, silently, and the moments reject it.
    draw = injection._draw
    drawn = []

    def coinciding(rng, buffers, key, variance, n_trials):
        values = draw(rng, buffers, key, variance, n_trials)
        drawn.append(values)
        if len(drawn) == 4:  # h_b1, drawn after h, h_a1 and h_a2
            values[::2] = drawn[1][::2]
        return values

    monkeypatch.setattr(injection, "_draw", coinciding)
    batch = simulate_two_look(make_params(2.0), 10_000, SEED)
    assert np.isnan(batch.injected[::2]).all() and np.isfinite(batch.injected[1::2]).all()
    with pytest.raises(NumericalError, match="moment matrix is not finite"):
        injection.mi_from_gram(injection.gram(batch))


# 150000 trials are three chunks; the last one is ragged, so it runs in
# buffers larger than itself.
ENGINE_TRIALS = 150_000


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize(
    "p_max, gamma, n_trials",
    # CHUNK_TRIALS + 1 trials leave a last chunk of one trial.
    [(2.0, 3.0, ENGINE_TRIALS), (0.0, 0.0, ENGINE_TRIALS), (0.37, 3.0, injection.CHUNK_TRIALS + 1)],
    ids=["reference", "zero-variance", "one-trial-last-chunk"],
)
def test_chunked_grams_match_reference(monkeypatch, workers, p_max, gamma, n_trials):
    # Enough CPUs that ``workers`` threads really run.
    monkeypatch.setattr(injection, "usable_cpus", lambda: 8)
    params = make_params(p_max, gamma)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches between the workers
    try:
        static, randomized = injection.chunked_grams(
            params, n_trials, SEED, (simulate_two_look, randomize_trials), workers
        )
    finally:
        sys.setswitchinterval(interval)
    stream, chunks = SEED.stream, -(-n_trials // injection.CHUNK_TRIALS)
    for total, ref_kernel, first_stream in (
        (static, ref_simulate_two_look, stream),
        (randomized, ref_randomize_trials, stream + chunks),
    ):
        assert same_bits(total, ref_chunked_gram(ref_kernel, params, n_trials, first_stream))


def test_chunks_of_one_worker_reuse_its_buffers(monkeypatch):
    monkeypatch.setattr(injection, "usable_cpus", lambda: 8)
    params = make_params(2.0)
    for workers in (1, 2):
        runs = {}

        def recording(params, n_trials, seed, buffers):
            batch = simulate_two_look(params, n_trials, seed, buffers)
            runs.setdefault(threading.get_ident(), []).append(batch)
            return batch

        injection.chunked_grams(params, ENGINE_TRIALS, SEED, (recording, recording), workers)
        assert len(runs) <= workers
        if workers == 1:  # one worker runs on the calling thread
            assert list(runs) == [threading.get_ident()]
        assert sum(map(len, runs.values())) == 6
        for batches in runs.values():
            for first, second in zip(batches, batches[1:]):
                assert np.shares_memory(first.z_a, second.z_a)
                assert np.shares_memory(first.injected, second.injected)
        heads = [batches[0].z_a for batches in runs.values()]
        assert not any(np.shares_memory(a, b) for a, b in zip(heads, heads[1:]))


def test_pool_size_is_capped_by_workers_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(injection, "usable_cpus", lambda: 2)
    # --workers 100000 at 1e9 trials: 15259 chunks, yet two threads.
    assert injection.pool_size(10**6, 15_259) == 2
    assert injection.pool_size(None, 15_259) == 2
    assert injection.pool_size(None, 1) == 1
    assert injection.pool_size(1, 15_259) == 1
    monkeypatch.setattr(injection, "usable_cpus", lambda: 64)
    assert injection.pool_size(10**6, 3) == 3
    assert injection.pool_size(5, 15_259) == 5
    assert injection.pool_size(None, 15_259) == 64
    with pytest.raises(ParameterError, match="workers must be >= 1"):
        injection.pool_size(0, 3)
    with pytest.raises(ParameterError, match="^workers must be >= 1, got 0$"):
        injection.pool_size(np.int64(0), 3)
    with pytest.raises(ParameterError, match="^workers must be an integer, got 1.5$"):
        injection.pool_size(1.5, 3)


def test_one_chunk_runs_inline_in_buffers_of_its_size():
    params = make_params(2.0)
    runs = []

    def recording(params, n_trials, seed, buffers):
        runs.append((threading.get_ident(), buffers.slots.shape[1]))
        return simulate_two_look(params, n_trials, seed, buffers)

    # One chunk runs on the calling thread whatever the worker count.
    injection.chunked_grams(params, 10_000, SEED, (recording,), workers=4)
    assert runs == [(threading.get_ident(), 10_000)]


def test_a_failing_helper_raises_on_the_calling_thread(monkeypatch):
    # Thread 0 is the calling thread, so with two threads only chunk 1 of
    # three runs off it and fails; the call returns once both have stopped.
    monkeypatch.setattr(injection, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    running = threading.active_count()

    def failing_off_the_caller(params, n_trials, seed, buffers):
        if threading.get_ident() != caller:
            raise ArithmeticError(f"chunk on substream {seed.stream}")
        return simulate_two_look(params, n_trials, seed, buffers)

    with pytest.raises(ArithmeticError, match=f"chunk on substream {SEED.stream + 1}$"):
        injection.chunked_grams(make_params(2.0), ENGINE_TRIALS, SEED, (failing_off_the_caller,), 2)
    assert threading.active_count() == running


def test_a_helper_that_fails_to_start_stops_the_started_ones(monkeypatch):
    # Three threads, two kernels of three chunks: helper 1 starts and would
    # run chunks 1 and 4, helper 2 fails to start. The call raises once
    # helper 1 has stopped, after its first chunk.
    monkeypatch.setattr(injection, "usable_cpus", lambda: 4)
    start = threading.Thread.start
    started = []

    def failing_second_start(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing_second_start)
    caller = threading.get_ident()
    helper_streams = []

    def slow_off_the_caller(params, n_trials, seed, buffers):
        if threading.get_ident() != caller:
            helper_streams.append(seed.stream)
            time.sleep(0.2)  # still running when the second start fails
        return simulate_two_look(params, n_trials, seed, buffers)

    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    with pytest.raises(RuntimeError, match="can't start new thread"):
        injection.chunked_grams(make_params(2.0), ENGINE_TRIALS, SEED, (slow_off_the_caller,) * 2, 4)
    assert not any(thread.is_alive() for thread in started)
    assert helper_streams == [SEED.stream + 1]
    if before is not None:
        assert os.sched_getaffinity(0) == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("failing_on", (None, "helper", "caller"))
def test_the_pool_restores_the_callers_cpu_mask(monkeypatch, failing_on):
    # The set-up above: two threads, chunks 0 and 2 on the calling thread.
    monkeypatch.setattr(injection, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    before = os.sched_getaffinity(0)

    def failing(params, n_trials, seed, buffers):
        if failing_on == ("caller" if threading.get_ident() == caller else "helper"):
            raise ArithmeticError(f"chunk on substream {seed.stream}")
        return simulate_two_look(params, n_trials, seed, buffers)

    if failing_on is None:
        injection.chunked_grams(make_params(2.0), ENGINE_TRIALS, SEED, (failing,), 2)
    else:
        with pytest.raises(ArithmeticError, match="chunk on substream"):
            injection.chunked_grams(make_params(2.0), ENGINE_TRIALS, SEED, (failing,), 2)
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("affinity", ("refused", "missing"))
def test_a_pool_that_cannot_pin_its_threads_gives_the_same_bits(monkeypatch, affinity):
    monkeypatch.setattr(injection, "usable_cpus", lambda: 2)

    def refused(pid, cpus):
        raise OSError("sched_setaffinity refused")

    if affinity == "refused":
        monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    params = make_params(2.0)
    (total,) = injection.chunked_grams(params, ENGINE_TRIALS, SEED, (simulate_two_look,), 2)
    assert same_bits(total, ref_chunked_gram(ref_simulate_two_look, params, ENGINE_TRIALS, SEED.stream))


def test_a_pool_of_one_thread_makes_no_affinity_call(monkeypatch):
    monkeypatch.setattr(injection, "usable_cpus", lambda: 8)
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus), raising=False)
    params = make_params(2.0)
    injection.chunked_grams(params, ENGINE_TRIALS, SEED, (simulate_two_look,), workers=1)
    injection.chunked_grams(params, 10_000, SEED, (simulate_two_look,), workers=4)  # one chunk
    assert calls == []


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs"
)
def test_each_thread_of_a_pool_runs_on_a_cpu_of_its_own():
    cpus = sorted(os.sched_getaffinity(0))
    caller = threading.get_ident()
    masks = {}

    def recording(params, n_trials, seed, buffers):
        masks.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
        return simulate_two_look(params, n_trials, seed, buffers)

    injection.chunked_grams(make_params(2.0), ENGINE_TRIALS, SEED, (recording,), 2)
    assert masks.pop(caller) == {frozenset(cpus[:1])}
    assert list(masks.values()) == [{frozenset(cpus[1:2])}]


def test_substreams_past_the_last_stream_are_rejected_before_any_chunk():
    # Three chunks a kernel: two kernels take substreams stream to stream + 5.
    params = make_params(2.0)
    streams = []

    def recording(params, n_trials, seed, buffers):
        streams.append(seed.stream)
        return simulate_two_look(params, n_trials, seed, buffers)

    with pytest.raises(ParameterError, match="n_trials must be >= 1, got 0"):
        injection.chunked_grams(params, 0, SEED, (recording,), 1)
    with pytest.raises(ParameterError, match="^n_trials must be an integer, got True$"):
        injection.chunked_grams(params, True, SEED, (recording,), 1)
    last = 2**64 - 1
    with pytest.raises(ParameterError, match=f"substreams {last - 4} to {last + 1} pass 2\\*\\*64 - 1"):
        injection.chunked_grams(params, ENGINE_TRIALS, RngSeed(1, last - 4), (recording, recording), 1)
    assert streams == []
    injection.chunked_grams(params, ENGINE_TRIALS, RngSeed(1, last - 5), (recording, recording), 1)
    assert streams == list(range(last - 5, last + 1))


def peak_bytes_per_trial(fn, n):
    tracemalloc.start()
    try:
        fn(n)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_randomize_trials_peak_memory_per_trial():
    # Its 82-byte buffer set with the pilots' point indices as bytes, the
    # set's 256 KB draw block and one 128 KB block of index bits or of their
    # intp copy: about 82.40 bytes per trial at 1e6.
    params = make_params(2.0)
    peak = peak_bytes_per_trial(lambda n: randomize_trials(params, n, SEED), 1_000_000)
    assert peak <= 82.5


def test_verify_randomization_peak_memory_per_sample():
    # One tested array (8 bytes per sample) and one byte per pilot pair set
    # the peak, with 128 KB blocks: the two passes never hold both tested
    # arrays, the KS tests sort in place and the variance needs no
    # whole-array temporary. About 9.88 bytes per sample at 1e6 samples with
    # kstest imported (this module imports it; a fresh interpreter's first
    # call also counts its tables), against about 17.7 with both tested
    # arrays alive at once.
    params = make_params(2.0)
    peak = peak_bytes_per_trial(lambda n: verify_randomization(params, n, SEED), 1_000_000)
    assert peak <= 10.5


def test_verify_randomization_leaves_no_cycles():
    # Arrays held by a reference cycle live until the cycle collector runs,
    # so repeated calls would pile up their samples.
    gc.collect()
    gc.disable()
    try:
        verify_randomization(make_params(2.0), 10_000, SEED)
        assert gc.collect() == 0
    finally:
        gc.enable()


def gram_rows(buffers, n):
    """The rows that ``gram`` writes into a buffer set: its slots' first 7 n reals."""
    return buffers.slots.reshape(-1).view(float)[: 7 * n].reshape(7, n)


def test_full_chunk_buffer_set_is_82_bytes_per_trial_and_one_draw_block():
    tracemalloc.start()
    try:
        buffers = injection.ChunkBuffers(injection.CHUNK_TRIALS)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert buffers.slots.nbytes + buffers.index.nbytes == 82 * injection.CHUNK_TRIALS == 5_373_952
    expected = 5_373_952 + 8 * DRAW_BLOCK
    assert expected <= size < expected + 4096
    assert buffers.draw.shape == (DRAW_BLOCK,)
    assert gram_rows(buffers, injection.CHUNK_TRIALS).shape == (7, injection.CHUNK_TRIALS)


# The last Gram row that reads each result: injected fills rows 1 and 2,
# z_a rows 3 and 4, z_b rows 5 and 6.
LAST_ROW_READING = {"injected": 2, "z_a": 4, "z_b": 6}


# A full chunk and 60001 trials in a full chunk's set overlay rows on
# results; the last chunk of ENGINE_TRIALS, 18928 trials, does not.
@pytest.mark.parametrize("n_trials, overlaid", [
    pytest.param(n, overlaid, id=str(n)) for n, overlaid in (
        (injection.CHUNK_TRIALS, True), (60_001, True), (ENGINE_TRIALS % injection.CHUNK_TRIALS, False),
    )
])
@pytest.mark.parametrize("kernel", (simulate_two_look, randomize_trials))
def test_gram_rows_overlay_no_result(kernel, n_trials, overlaid):
    # The Gram rows overwrite the batch, but no row lies over a result that a
    # later row still reads.
    params = make_params(2.0)
    buffers = injection.ChunkBuffers(injection.CHUNK_TRIALS)
    batch = kernel(params, n_trials, SEED, buffers)
    rows = gram_rows(buffers, n_trials)
    shared = [(i, name) for i, row in enumerate(rows) for name in LAST_ROW_READING
              if np.shares_memory(row, getattr(batch, name))]
    assert all(i > LAST_ROW_READING[name] for i, name in shared)
    assert bool(shared) == overlaid
    before = [values.copy() for values in (batch.z_a, batch.z_b, batch.injected)]
    assert same_bits(injection.gram(batch, buffers), ref_gram(*before))


def test_simulate_two_look_peak_memory_per_trial():
    # One 82-byte buffer set of its size, its 256 KB draw block and about
    # 135 KB of temporaries whatever the size: about 83.99 bytes per trial
    # at 2e5.
    params = make_params(2.0)
    peak = peak_bytes_per_trial(lambda n: simulate_two_look(params, n, SEED), 200_000)
    assert peak <= 84.5


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_ks_test_rejects_non_finite_samples(bad):
    with pytest.raises(ParameterError, match="samples must be finite"):
        ks_test_normal(np.array([0.1, bad, -0.3] * 5000), 1.0)
