import math

import numpy as np
import pytest

from wskg import ParameterError, PowerAllocation, SystemParams, rate_array, sum_rate


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
