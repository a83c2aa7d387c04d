import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wskg import ParameterError, PowerAllocation, SystemParams, rate_array, rates, sum_rate


def raw_rate(p, gamma, sigma2, sigmaj2):
    """Direct transcription of the rate formula, with p in a denominator."""
    b = 1.0 + gamma * sigmaj2
    return math.log2(1.0 + p * sigma2 / (2.0 * b + b * b / (p * sigma2)))


def test_unjammed_reference_value():
    assert float(rate_array(2.0, 0.0, 1.0, 1.0)) == pytest.approx(math.log2(1.8), abs=1e-12)
    assert float(rate_array(2.0, 0.0, 1.0, 1.0)) == pytest.approx(0.847997, abs=1e-6)


def test_knee_equality_value():
    # full power against full jamming ties the threshold-power silent rate
    assert float(rate_array(10.0, 4.0, 1.0, 1.0)) == pytest.approx(
        float(rate_array(2.0, 0.0, 1.0, 1.0)), rel=1e-12
    )


def test_zero_pilot_power_is_zero():
    assert float(rate_array(0.0, 0.0, 1.0, 1.0)) == 0.0
    assert float(rate_array(0.0, 7.0, 2.0, 3.0)) == 0.0


def test_matches_raw_formula():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        p = rng.uniform(1e-3, 50.0)
        gamma = rng.uniform(0.0, 20.0)
        s2 = rng.uniform(0.1, 5.0)
        j2 = rng.uniform(0.1, 5.0)
        assert float(rate_array(p, gamma, s2, j2)) == pytest.approx(
            raw_rate(p, gamma, s2, j2), rel=1e-10
        )


def test_sum_rate_uniform_zero_allocation(ref_params):
    params = SystemParams(10, 5.0, 4.0, 2.0, 1.0, 1.0)
    total = sum_rate(2.0, PowerAllocation.silent(params), params)
    assert total == pytest.approx(10.0 * math.log2(1.8), rel=1e-12)
    assert total == pytest.approx(8.47997, abs=1e-4)


def test_sum_rate_interior_allocation():
    params = SystemParams(2, 5.0, 1.0, 2.0, 1.0, 1.0)
    uniform = sum_rate(5.0, PowerAllocation((1.0, 1.0), 1.0), params)
    assert uniform == pytest.approx(raw_rate(5, 1, 1, 1) * 2, rel=1e-12)
    assert uniform == pytest.approx(2.05948, abs=1e-4)
    lopsided = sum_rate(5.0, PowerAllocation((2.0, 0.0), 1.0), params)
    assert lopsided == pytest.approx(
        raw_rate(5, 2, 1, 1) + math.log2(1 + 5 / (2 + 1 / 5)), rel=1e-12
    )
    assert lopsided == pytest.approx(0.71466 + 1.71053, abs=1e-4)
    # concentrating power jams less than spreading it
    assert lopsided > uniform


def test_sum_rate_length_mismatch(ref_params):
    with pytest.raises(ParameterError):
        sum_rate(2.0, PowerAllocation((4.0,) * 9, 4.0), ref_params)


def test_monotone_increasing_in_pilot_power():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        gamma = rng.uniform(0.0, 10.0)
        s2, j2 = rng.uniform(0.2, 3.0, 2)
        p1, p2 = np.sort(rng.uniform(0.0, 30.0, 2))
        assert rate_array(p1, gamma, s2, j2) <= rate_array(p2, gamma, s2, j2) + 1e-12


def test_monotone_decreasing_in_jam_power():
    rng = np.random.default_rng(22)
    for _ in range(2000):
        p = rng.uniform(1e-6, 30.0)
        s2, j2 = rng.uniform(0.2, 3.0, 2)
        g1, g2 = np.sort(rng.uniform(0.0, 10.0, 2))
        assert rate_array(p, g1, s2, j2) >= rate_array(p, g2, s2, j2) - 1e-12


def test_midpoint_convex_in_jam_power():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        p = rng.uniform(1e-6, 30.0)
        s2, j2 = rng.uniform(0.2, 3.0, 2)
        g1, g2 = rng.uniform(0.0, 10.0, 2)
        mid = float(rate_array(p, (g1 + g2) / 2.0, s2, j2))
        avg = (float(rate_array(p, g1, s2, j2)) + float(rate_array(p, g2, s2, j2))) / 2.0
        assert mid <= avg + 1e-12


def test_budget_scaling_identity():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        p_th = rng.uniform(0.05, 5.0)
        gamma = rng.uniform(0.0, 8.0)
        s2, j2 = rng.uniform(0.1, 3.0, 2)
        lhs = float(rate_array(p_th * (j2 * gamma + 1.0), gamma, s2, j2))
        rhs = float(rate_array(p_th, 0.0, s2, j2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_pairwise_sum_matches_np_sum_bits():
    # numpy's order changes at 8 and 128 values; a sequential sum differs
    # from it in the last bit for most of these vectors.
    rng = np.random.default_rng(31)
    for n in [*range(1, 301), 1000, 4099, 65_536, 1_000_003]:
        for values in (
            rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n),
            rng.standard_normal(n),
        ):
            assert rates._pairwise_sum(values.tolist()).hex() == float(np.sum(values)).hex(), n
        value = rng.uniform(0.0, 20.0)
        expected = float(np.sum(np.full(n, value))).hex()
        assert rates._pairwise_sum([value] * n).hex() == expected, n
        assert rates._repeated_sum(value, n).hex() == expected, n


@pytest.mark.parametrize(
    "value", [0.0, -0.0, 5e-324, 1e-310, 1 / 3, 1e308, 1.7e308, math.inf, -math.inf, math.nan]
)
def test_repeated_sum_matches_pairwise_sum_bits(value):
    # Signed zeros, subnormals, overflow (1.7e308 doubles to inf) and
    # non-finite values, through all three of numpy's summation regimes.
    for n in [*range(1, 301), 1000, 4097, 65_536, 10**6]:
        got, expected = rates._repeated_sum(value, n), rates._pairwise_sum([value] * n)
        if math.isnan(expected):
            assert math.isnan(got), n
        else:
            assert got.hex() == expected.hex(), n


@settings(max_examples=500, deadline=None)
@given(
    p=st.floats(0.0, 1e100),
    gamma=st.floats(0.0, 1e100),
    sigma2=st.floats(1e-3, 1e3),
    sigmaj2=st.floats(1e-3, 1e3),
)
def test_scalar_rate_is_rate_array_up_to_log1p(p, gamma, sigma2, sigmaj2):
    """The closed forms' rate differs from rate_array only in its log1p,
    libm's instead of numpy's. The two agree within 1 ulp; dividing by ln 2
    can stretch one ulp of log1p to two of the rate."""
    a = p * sigma2
    b = 1.0 + gamma * sigmaj2
    argument = a * a / (b * (b + 2.0 * a))
    libm, numpy_log1p = math.log1p(argument), float(np.log1p(argument))
    assert abs(libm - numpy_log1p) <= math.ulp(numpy_log1p)
    scalar = rates._rate(p, gamma, sigma2, sigmaj2, math.log1p)
    array = float(rate_array(p, gamma, sigma2, sigmaj2))
    assert scalar == libm / rates._LN2 and array == numpy_log1p / rates._LN2
    assert abs(scalar - array) <= 2.0 * math.ulp(array)
