import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wskg import game
from wskg import (
    ParameterError,
    PowerAllocation,
    RngSeed,
    SystemParams,
    critical_power,
    jammer_br_strategic,
    oracle_jammer_br,
    oracle_stackelberg,
    rate_array,
    stackelberg_fixed,
    stackelberg_strategic,
    sum_rate,
)


def params_with(p_max, gamma=4.0, p_th=2.0, sigma2=1.0, sigmaj2=1.0, n=10):
    return SystemParams(n, p_max, gamma, p_th, sigma2, sigmaj2)


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
    profile = jammer_br_strategic(5.0, ref_params, 0.5)
    assert profile.pilot_power == 5.0
    assert profile.allocation == PowerAllocation.uniform(ref_params)
    assert profile.threshold == pytest.approx(2.5)
    # sensed even below the fixed threshold parameter
    low = jammer_br_strategic(0.5, ref_params, 0.5)
    assert low.allocation == PowerAllocation.uniform(ref_params)


def test_strategic_br_zero_power(ref_params):
    profile = jammer_br_strategic(0.0, ref_params, 0.5)
    assert profile.pilot_power == 0.0
    assert profile.allocation == PowerAllocation.silent(ref_params)
    assert profile.threshold == 0.0


def test_strategic_br_validates_policy(ref_params):
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            jammer_br_strategic(5.0, ref_params, bad)


def test_strategic_equilibrium_reference(ref_params):
    result = stackelberg_strategic(ref_params, 0.5)
    assert not result.unique
    profile = result.profiles[0]
    assert profile.pilot_power == 5.0
    assert profile.threshold == pytest.approx(2.5)
    assert result.payoff == pytest.approx(10 * math.log2(4 / 3), rel=1e-12)
    assert result.payoff == pytest.approx(4.15037, abs=1e-4)


def test_strategic_equilibrium_matches_fixed_above_knee():
    fixed = stackelberg_fixed(params_with(20.0))
    strategic = stackelberg_strategic(params_with(20.0), 0.5)
    assert strategic.payoff == fixed.payoff


def test_strategic_equilibrium_zero_budget_jammer_is_harmless():
    params = params_with(5.0, gamma=0.0)
    result = stackelberg_strategic(params, 0.5)
    assert result.payoff == pytest.approx(
        10 * float(rate_array(5.0, 0.0, 1.0, 1.0)), rel=1e-12
    )


def test_strategic_jammer_dominates_fixed_jammer():
    rng = np.random.default_rng(808)
    for _ in range(200):
        params = random_params(rng)
        fixed = stackelberg_fixed(params).payoff
        strategic = stackelberg_strategic(params, 0.5).payoff
        assert strategic <= fixed + 1e-12


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
    best, value = oracle_jammer_br(5.0, params, 2000, RngSeed(1))
    uniform_value = sum_rate(5.0, PowerAllocation.uniform(params), params)
    lopsided_value = sum_rate(5.0, PowerAllocation((2.0, 0.0), 1.0), params)
    assert value == pytest.approx(uniform_value, rel=1e-12)
    assert value < lopsided_value
    assert best.gamma == pytest.approx((1.0, 1.0))


def test_oracle_br_single_subcarrier():
    params = SystemParams(1, 5.0, 3.0, 2.0, 1.0, 1.0)
    best, value = oracle_jammer_br(5.0, params, 500, RngSeed(2))
    assert best.gamma == pytest.approx((3.0,))
    assert value == pytest.approx(float(rate_array(5.0, 3.0, 1.0, 1.0)), rel=1e-12)


def test_oracle_br_jensen_dominance(ref_params):
    _, value = oracle_jammer_br(5.0, ref_params, 5000, RngSeed(3))
    uniform_value = sum_rate(5.0, PowerAllocation.uniform(ref_params), ref_params)
    assert uniform_value <= value + 1e-9


def ref_oracle_jammer_br(p, params, samples, seed, rate=rate_array):
    """The one-shot search: every candidate in one array, one argmin."""
    n = params.n_subcarriers
    total = n * params.jam_power_budget
    rng = seed.generator()
    spacings = rng.standard_exponential((samples, n))
    simplex = spacings / spacings.sum(axis=1, keepdims=True) * total
    candidates = np.vstack(
        [
            np.full((1, n), params.jam_power_budget),
            np.eye(n) * total,
            simplex,
        ]
    )
    values = rate(p, candidates, params.legit_channel_var, params.jam_channel_var).sum(axis=1)
    best = int(np.argmin(values))
    return PowerAllocation(tuple(candidates[best]), params.jam_power_budget), float(values[best])


def assert_same_bits(got, want):
    assert [float(g).hex() for g in got[0].gamma] == [float(g).hex() for g in want[0].gamma]
    assert float(got[1]).hex() == float(want[1]).hex()


@pytest.mark.parametrize("n", [1, 10, 37])
@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7), (0, 100_000)],
    ids=["1", "block-1", "block", "block+1", "3*block+7", "1e5"],
)
def test_streamed_oracle_matches_one_shot_search(n, blocks, extra):
    count = blocks * max(1, game.ORACLE_BLOCK_VALUES // n) + extra
    params = params_with(5.0, n=n)
    for seed, p in ((0, 5.0), (1, 1.5), (2, 0.0), (3, 5.0)):
        args = (p, params, count, RngSeed(seed, seed))
        assert_same_bits(oracle_jammer_br(*args), ref_oracle_jammer_br(*args))


def test_streamed_oracle_keeps_argmins_order_across_blocks(monkeypatch):
    # Coarse values tie across blocks, and a band of samples is NaN; with
    # four rows a block both land in blocks after the first.
    def coarse(p, gamma, sigma2, sigmaj2):
        values = np.round(rate_array(p, gamma, sigma2, sigmaj2), 1)
        return np.where((gamma > 7.0) & (gamma < 7.05), np.nan, values)

    monkeypatch.setattr(game, "ORACLE_BLOCK_VALUES", 8)
    monkeypatch.setattr("wskg.rates.rate_array", coarse)
    # With three or five subcarriers the vertices span two or five blocks.
    for n in (2, 3, 5):
        params = params_with(5.0, n=n)
        for samples in (3, 40, 4000):
            for seed in range(4):
                got = oracle_jammer_br(5.0, params, samples, RngSeed(seed))
                assert_same_bits(got, ref_oracle_jammer_br(5.0, params, samples, RngSeed(seed), coarse))
        assert math.isnan(got[1])


def test_oracle_memory_does_not_grow_with_samples(ref_params):
    peaks = {}
    for samples in (100_000, 400_000):
        tracemalloc.start()
        try:
            oracle_jammer_br(5.0, ref_params, samples, RngSeed(8))
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400_000] <= 1.25 * peaks[100_000]


def test_oracle_memory_does_not_grow_with_subcarriers_squared():
    # The n vertices come in blocks too; all n at once took 32 MB at n = 1024.
    tracemalloc.start()
    try:
        oracle_jammer_br(5.0, params_with(5.0, n=1024), 100, RngSeed(8))
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


def test_oracle_config_validation(ref_params):
    with pytest.raises(ParameterError, match="allocation_samples must be >= 1, got 0"):
        oracle_jammer_br(5.0, ref_params, 0, RngSeed(0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sorted_union_matches_np_unique_bits(data):
    lo = data.draw(st.sampled_from([0.0, -0.0, -1.0]) | st.floats(-1e3, 1e3))
    grid = np.linspace(lo, lo + data.draw(st.floats(1e-9, 1e3)), data.draw(st.integers(2, 1100)))
    point = st.one_of(
        st.integers(0, grid.size - 1).map(lambda i: float(grid[i])),  # an interior point or an endpoint
        st.sampled_from([0.0, -0.0]),
        st.floats(-2e3, 2e3),
    )
    extras = data.draw(st.lists(point, max_size=8))
    if extras:
        extras += data.draw(st.lists(st.sampled_from(extras), max_size=3))  # duplicates
    expected = np.unique(np.append(grid, extras))
    assert game.sorted_union(grid, extras).tobytes() == expected.tobytes()


def test_sorted_union_takes_a_scalar_and_keeps_one_zero():
    grid = np.linspace(0.0, 4.0, 5)
    for extras in (2.5, -0.0, [-0.0, 0.0, 4.0, 4.0]):
        expected = np.unique(np.append(grid, extras))
        assert game.sorted_union(grid, extras).tobytes() == expected.tobytes()
    assert game.sorted_union(grid, [-0.0, 0.0]).size == 5
