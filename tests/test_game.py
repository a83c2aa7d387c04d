import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wskg import game, metrics
from wskg import (
    ParameterError,
    PowerAllocation,
    RngSeed,
    SystemParams,
    critical_power,
    oracle_jammer_br,
    oracle_stackelberg,
    rate_array,
    stackelberg_fixed,
    stackelberg_strategic,
    sum_rate,
)

from conftest import params_with


def random_params(rng, gamma_lo=0.0):
    return SystemParams(
        int(rng.integers(1, 13)),
        float(rng.uniform(0.2, 30.0)),
        float(rng.uniform(gamma_lo, 6.0)),
        float(rng.uniform(0.05, 6.0)),
        float(rng.uniform(0.2, 3.0)),
        float(rng.uniform(0.2, 3.0)),
    )


def test_fixed_br_boundary_is_not_sensed():
    # A pilot at exactly the threshold goes unjammed, in the closed form and the oracle.
    params = params_with(2.0)
    result = stackelberg_fixed(params)
    profile = result.profiles[0]
    assert result.unique
    assert profile.pilot_power == 2.0
    assert profile.allocation.gamma == (0.0,) * 10
    assert oracle_stackelberg(params) == (2.0, result.payoff)


def test_critical_power_values(ref_params):
    assert critical_power(ref_params) == 10.0
    assert critical_power(params_with(5.0, gamma=0.0)) == 2.0
    assert critical_power(params_with(5.0, p_th=0.0)) == 0.0


def test_fixed_equilibrium_below_knee(ref_params):
    result = stackelberg_fixed(ref_params)
    assert result.unique and not result.boundary_case
    profile = result.profiles[0]
    assert profile.pilot_power == 2.0
    assert profile.allocation.gamma == (0.0,) * 10
    assert result.payoff == pytest.approx(10 * math.log2(1.8), rel=1e-12)
    assert result.payoff == pytest.approx(8.47997, abs=1e-4)


def test_fixed_equilibrium_above_knee():
    result = stackelberg_fixed(params_with(20.0))
    profile = result.profiles[0]
    assert profile.pilot_power == 20.0
    assert profile.allocation.gamma == (4.0,) * 10
    assert result.payoff == pytest.approx(10 * math.log2(1 + 20 / 11.25), rel=1e-12)
    assert result.payoff == pytest.approx(14.7393, abs=1e-3)


def test_fixed_equilibrium_at_knee_has_two_profiles():
    result = stackelberg_fixed(params_with(10.0))
    assert result.boundary_case and not result.unique
    powers = sorted(profile.pilot_power for profile in result.profiles)
    assert powers == [2.0, 10.0]
    assert result.payoff == pytest.approx(8.47997, abs=1e-4)
    payoffs = [
        sum_rate(profile.pilot_power, profile.allocation, params_with(10.0))
        for profile in result.profiles
    ]
    assert payoffs[0] == pytest.approx(payoffs[1], rel=1e-9)


def test_fixed_equilibrium_trivial_when_budget_below_threshold():
    result = stackelberg_fixed(params_with(1.5))
    profile = result.profiles[0]
    assert profile.pilot_power == 1.5
    assert profile.allocation.gamma == (0.0,) * 10
    assert result.unique


def test_fixed_equilibrium_knee_selection_is_sharp():
    knee = critical_power(params_with(20.0))
    below = stackelberg_fixed(params_with(knee * (1 - 1e-6)))
    above = stackelberg_fixed(params_with(knee * (1 + 1e-6)))
    assert below.profiles[0].pilot_power == 2.0
    assert above.profiles[0].pilot_power == knee * (1 + 1e-6)


def test_strategic_br_jams_any_positive_power(ref_params):
    (profile,) = stackelberg_strategic(ref_params).profiles
    assert profile.pilot_power == 5.0
    assert profile.allocation == PowerAllocation.uniform(ref_params)
    assert profile.threshold == pytest.approx(2.5)
    # Sensed even below the fixed threshold parameter, 2.
    params = params_with(0.5)
    (low,) = stackelberg_strategic(params).profiles
    assert low.pilot_power == 0.5
    assert low.allocation == PowerAllocation.uniform(params)
    assert low.threshold == 0.25


def test_strategic_br_zero_power():
    # No threshold senses a zero budget.
    params = params_with(0.0)
    (profile,) = stackelberg_strategic(params).profiles
    assert profile.pilot_power == 0.0
    assert profile.allocation == PowerAllocation.silent(params)
    assert profile.threshold == 0.0


def test_strategic_threshold_lies_below_every_positive_budget():
    # The representative threshold must lie in [0, p_max): a jammer at
    # threshold p_max would not sense the budget. The tiny variance keeps
    # the payoff finite at the largest float.
    rng = np.random.default_rng(3131)
    odd_mantissas = [1, 3, 5, 7, 2**52 - 1, *(2 * rng.integers(1, 2**51, 20) + 1)]
    subnormals = [math.ldexp(int(k), -1074) for k in odd_mantissas]
    # Every positive finite float is a bit pattern in [1, 0x7FF0000000000000).
    random_floats = rng.integers(1, 0x7FF0000000000000, 2000, dtype=np.int64).view(np.float64)
    budgets = [*subnormals, sys.float_info.min, 1.0, sys.float_info.max, *map(float, random_floats)]
    for budget in budgets:
        (profile,) = stackelberg_strategic(params_with(budget, sigma2=1e-160)).profiles
        assert 0.0 <= profile.threshold < budget, budget.hex()
    for budget in (0.0, -0.0):
        (profile,) = stackelberg_strategic(params_with(budget)).profiles
        assert profile.threshold.hex() == "0x0.0p+0", budget


def test_strategic_equilibrium_reference(ref_params):
    result = stackelberg_strategic(ref_params)
    assert not result.unique
    profile = result.profiles[0]
    assert profile.pilot_power == 5.0
    assert profile.threshold == pytest.approx(2.5)
    assert result.payoff == pytest.approx(10 * math.log2(4 / 3), rel=1e-12)
    assert result.payoff == pytest.approx(4.15037, abs=1e-4)


def test_strategic_equilibrium_matches_fixed_above_knee():
    fixed = stackelberg_fixed(params_with(20.0))
    strategic = stackelberg_strategic(params_with(20.0))
    assert strategic.payoff == fixed.payoff


def test_strategic_equilibrium_zero_budget_jammer_is_harmless():
    params = params_with(5.0, gamma=0.0)
    result = stackelberg_strategic(params)
    assert result.payoff == pytest.approx(
        10 * float(rate_array(5.0, 0.0, 1.0, 1.0)), rel=1e-12
    )


def test_strategic_jammer_dominates_fixed_jammer():
    rng = np.random.default_rng(808)
    for _ in range(200):
        params = random_params(rng)
        fixed = stackelberg_fixed(params).payoff
        strategic = stackelberg_strategic(params).payoff
        assert strategic <= fixed + 1e-12


def test_uniformly_jammed_payoff_has_one_path():
    # The strategic payoff and oracle-check's uniform value are the fixed
    # game's full-power payoff, bit for bit, as is sum_rate over the uniform
    # allocation: each rounds the exact sum once. For n on both sides of 128
    # and at zero pilot and jam budgets.
    rng = np.random.default_rng(2031)
    for i in range(300):
        p_max, gamma = (float(10.0 ** rng.uniform(-8.0, 6.0)) for _ in range(2))
        params = SystemParams(
            int(rng.integers(1, 129) if i % 2 else rng.integers(129, 2049)),
            0.0 if i % 5 == 0 else p_max,
            0.0 if i % 7 == 0 else gamma,
            float(10.0 ** rng.uniform(-6.0, 6.0)),
            float(10.0 ** rng.uniform(-3.0, 3.0)),
            float(10.0 ** rng.uniform(-3.0, 3.0)),
        )
        expected = game._fixed_payoffs(*params)[1].hex()
        uniform = PowerAllocation.uniform(params)
        assert sum_rate(params.max_pilot_power, uniform, params).hex() == expected, params
        assert stackelberg_strategic(params).payoff.hex() == expected, params
        verdict = game.oracle_check(params, 1, RngSeed(i))
        assert verdict["uniform_allocation_value"].hex() == expected, params


def test_fixed_payoff_monotone_in_budgets():
    budgets = np.linspace(0.5, 25.0, 60)
    payoffs = [stackelberg_fixed(params_with(float(b))).payoff for b in budgets]
    assert all(a <= b + 1e-12 for a, b in zip(payoffs, payoffs[1:]))
    jams = np.linspace(0.0, 8.0, 60)
    payoffs = [
        stackelberg_fixed(params_with(5.0, gamma=float(g))).payoff for g in jams
    ]
    assert all(a >= b - 1e-12 for a, b in zip(payoffs, payoffs[1:]))


def test_oracle_br_prefers_uniform_allocation():
    params = SystemParams(2, 5.0, 1.0, 2.0, 1.0, 1.0)
    best, value = oracle_jammer_br(params, 2000, RngSeed(1))
    uniform_value = sum_rate(5.0, PowerAllocation.uniform(params), params)
    lopsided_value = sum_rate(5.0, PowerAllocation((2.0, 0.0), 1.0), params)
    assert value == pytest.approx(uniform_value, rel=1e-12)
    assert value < lopsided_value
    assert best.gamma == pytest.approx((1.0, 1.0))


def test_oracle_br_single_subcarrier():
    params = SystemParams(1, 5.0, 3.0, 2.0, 1.0, 1.0)
    best, value = oracle_jammer_br(params, 500, RngSeed(2))
    assert best.gamma == pytest.approx((3.0,))
    assert value == pytest.approx(float(rate_array(5.0, 3.0, 1.0, 1.0)), rel=1e-12)


def test_oracle_br_jensen_dominance(ref_params):
    _, value = oracle_jammer_br(ref_params, 5000, RngSeed(3))
    uniform_value = sum_rate(5.0, PowerAllocation.uniform(ref_params), ref_params)
    # oracle-check's slack for the closed-form and array rates' round-off
    slack = 2 * ref_params.n_subcarriers * sys.float_info.epsilon * uniform_value
    assert uniform_value <= value + slack


def test_vertex_sum_rates_agree_across_subcarriers():
    # oracle_jammer_br searches the vertex on subcarrier 0 alone: every
    # subcarrier shares one rate function, so the others differ by rounding.
    rng = np.random.default_rng(2424)
    for _ in range(50):
        n = int(rng.integers(1, 301))
        params = SystemParams(n, *random_params(rng)[1:])
        vertices = np.eye(n) * n * params.jam_power_budget
        sums = rate_array(
            params.max_pilot_power, vertices, params.legit_channel_var, params.jam_channel_var
        ).sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= n * sys.float_info.epsilon * sums[0], params


def ref_oracle_jammer_br(params, samples, seed, rate=rate_array):
    """The one-shot search: every candidate in one array, one argmin."""
    n = params.n_subcarriers
    total = n * params.jam_power_budget
    rng = seed.generator()
    spacings = rng.standard_exponential((samples, n))
    simplex = spacings / spacings.sum(axis=1, keepdims=True) * total
    candidates = np.vstack(
        [
            np.full((1, n), params.jam_power_budget),
            np.eye(1, n) * total,
            simplex,
        ]
    )
    values = rate(params.max_pilot_power, candidates, params.legit_channel_var, params.jam_channel_var).sum(axis=1)
    best = int(np.argmin(values))
    return PowerAllocation(tuple(candidates[best]), params.jam_power_budget), float(values[best])


def assert_same_bits(got, want):
    assert [float(g).hex() for g in got[0].gamma] == [float(g).hex() for g in want[0].gamma]
    assert float(got[1]).hex() == float(want[1]).hex()


def wavy_rate(p, gamma, sigma2, sigmaj2):
    """Neither convex nor concave, so a sampled allocation is the argmin,
    where the real rate always picks the uniform one."""
    return np.sin(1.7 * np.asarray(gamma))


@pytest.mark.parametrize("n", [1, 10, 37])
@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7), (0, 100_000)],
    ids=["1", "block-1", "block", "block+1", "3*block+7", "1e5"],
)
def test_streamed_oracle_matches_one_shot_search(monkeypatch, n, blocks, extra):
    # Under the real rate the uniform point wins; the wavy rate checks the
    # sampled blocks.
    count = blocks * max(1, game.ORACLE_BLOCK_VALUES // n) + extra
    for rate in (rate_array, wavy_rate):
        monkeypatch.setattr("wskg.rates.rate_array", rate)
        for seed, p in ((0, 5.0), (1, 1.5), (2, 0.0), (3, 5.0)):
            args = (params_with(p, n=n), count, RngSeed(seed, seed))
            assert_same_bits(oracle_jammer_br(*args), ref_oracle_jammer_br(*args, rate))


def concave_rate(p, gamma, sigma2, sigmaj2):
    """Concave, so a vertex is the exact argmin over the simplex."""
    return np.sqrt(gamma)


@pytest.mark.parametrize("n", [1, 2, 10, 37, 130, 300, 1024])
def test_oracle_matches_one_shot_search_at_any_block_size(monkeypatch, n):
    # Sample blocks of any width, one sample wide included, and a draw
    # straddling their edges: a row sums to the same bits in any block, on
    # both sides of the 128 values where numpy's row sum starts halving.
    block_sizes = {1, max(1, n - 1), n, 7 * n + 3, 1 << 14, 1 << 16}
    if n > 300:  # blocks of 1, 16 and 64 samples, to stay under 2 s here
        block_sizes = {1, n - 1, 1 << 14, 1 << 16}
    for block_values in sorted(block_sizes):
        monkeypatch.setattr(game, "ORACLE_BLOCK_VALUES", block_values)
        for seed, (p, samples) in enumerate(((5.0, 1), (1.5, 300), (5.0, 2000))):
            params = params_with(p, n=n)
            args = (params, samples, RngSeed(seed, n))
            assert_same_bits(oracle_jammer_br(*args), ref_oracle_jammer_br(*args))
            for rate in (wavy_rate, concave_rate):
                with monkeypatch.context() as patch:
                    patch.setattr("wskg.rates.rate_array", rate)
                    got = oracle_jammer_br(*args)
                assert_same_bits(got, ref_oracle_jammer_br(*args, rate))
            # Under the concave rate the one vertex must still be found.
            assert sorted(got[0].gamma, reverse=True) == [n * params.jam_power_budget] + [0.0] * (n - 1)


def test_streamed_oracle_keeps_argmins_order_across_blocks(monkeypatch):
    # Coarse values tie across sample blocks, and a band of samples is NaN;
    # with one to four samples a block, the first NaN and the tied minima
    # lie several sample blocks in.
    def coarse(p, gamma, sigma2, sigmaj2):
        values = np.round(rate_array(p, gamma, sigma2, sigmaj2), 1)
        return np.where((gamma > 7.0) & (gamma < 7.05), np.nan, values)

    monkeypatch.setattr(game, "ORACLE_BLOCK_VALUES", 8)
    monkeypatch.setattr("wskg.rates.rate_array", coarse)
    for n in (2, 3, 5):
        params = params_with(5.0, n=n)
        for samples in (3, 40, 4000):
            for seed in range(4):
                got = oracle_jammer_br(params, samples, RngSeed(seed))
                assert_same_bits(got, ref_oracle_jammer_br(params, samples, RngSeed(seed), coarse))
        assert math.isnan(got[1])


def test_oracle_memory_does_not_grow_with_samples(ref_params):
    peaks = {}
    for samples in (100_000, 400_000):
        tracemalloc.start()
        try:
            oracle_jammer_br(ref_params, samples, RngSeed(8))
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400_000] <= 1.25 * peaks[100_000]


def test_oracle_memory_does_not_grow_with_subcarriers_squared():
    # The search holds the uniform point, one vertex and one sample block,
    # never an n-by-n array of vertices, which alone is 8 MB at n = 1024.
    tracemalloc.start()
    try:
        oracle_jammer_br(params_with(5.0, n=1024), 100, RngSeed(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_oracle_grid_search_below_knee(ref_params):
    p_best, value = oracle_stackelberg(ref_params)
    assert p_best == 2.0
    assert value == pytest.approx(stackelberg_fixed(ref_params).payoff, rel=1e-12)


def test_oracle_grid_search_above_knee():
    params = params_with(20.0)
    p_best, value = oracle_stackelberg(params)
    assert p_best == 20.0
    assert value == pytest.approx(14.7393, abs=1e-3)


def test_oracle_grid_search_sees_both_knee_optima():
    params = params_with(10.0)
    _, value = oracle_stackelberg(params)
    threshold_payoff = sum_rate(2.0, PowerAllocation.silent(params), params)
    full_payoff = sum_rate(10.0, PowerAllocation.uniform(params), params)
    assert abs(threshold_payoff - value) <= 1e-9 * value
    assert abs(full_payoff - value) <= 1e-9 * value


def test_closed_form_matches_oracle_on_random_draws():
    rng = np.random.default_rng(909)
    for _ in range(50):
        params = random_params(rng)
        closed = stackelberg_fixed(params).payoff
        _, oracle = oracle_stackelberg(params)
        assert oracle == pytest.approx(closed, rel=1e-6)


def deduplicated_grid_oracle(params):
    """oracle_stackelberg over ``np.unique``'s grid: each power once."""
    budget, threshold = params.max_pilot_power, params.sense_threshold
    extras = [0.0, budget]
    if threshold <= budget:
        extras.append(threshold)
    knee = critical_power(params)
    if knee <= budget:
        extras.append(knee)
    grid = np.unique(np.append(np.linspace(0.0, budget, 1001), extras))
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    jammed = rate_array(grid, params.jam_power_budget, s2, j2)
    silent = rate_array(grid, 0.0, s2, j2)
    payoffs = params.n_subcarriers * np.where(grid > threshold, jammed, silent)
    best = int(np.argmax(payoffs))
    return float(grid[best]), float(payoffs[best])


def test_sorted_grid_oracle_matches_deduplicated_grid_bits():
    # Equal powers sit side by side in the sorted grid and np.argmax keeps
    # the first of equal payoffs, so duplicates change no bit of the result.
    rng = np.random.default_rng(2121)
    cases = [
        params_with(-0.0),
        params_with(0.0, p_th=-0.0),
        params_with(-0.0, gamma=0.0, p_th=-0.0),
        params_with(10.0),  # the knee
        params_with(2.0),  # the threshold
        *(random_params(rng) for _ in range(200)),
    ]
    for params in cases:
        oracle = np.array(oracle_stackelberg(params))
        assert oracle.tobytes() == np.array(deduplicated_grid_oracle(params)).tobytes(), params


def test_oracle_config_validation(ref_params):
    with pytest.raises(ParameterError, match="allocation_samples must be >= 1, got 0"):
        oracle_jammer_br(ref_params, 0, RngSeed(0))
    with pytest.raises(ParameterError, match="^allocation_samples must be an integer, got True$"):
        oracle_jammer_br(ref_params, True, RngSeed(0))


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6),
    width=st.floats(1e-9, 1e6),
    num=st.integers(2, 3000),
)
def test_linspace_matches_np_linspace_bits(lo, width, num):
    hi = lo + width
    assume(lo < hi)
    assert np.array(metrics.linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes()


@pytest.mark.parametrize(
    "lo, hi, num",
    [(0.0, 5e-324, 3), (0.0, 1e-320, 3000), (-0.0, 1.0, 2), (-1e-300, 1e-300, 7), (2.001, 20.0, 1000)],
)
def test_linspace_edges_match_np_linspace_bits(lo, hi, num):
    # The first two take numpy's branch for a step that underflows to zero.
    assert np.array(metrics.linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes()
