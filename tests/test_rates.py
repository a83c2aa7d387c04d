import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wskg import ParameterError, PowerAllocation, SystemParams, game, rate_array, rates, sum_rate


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
    with pytest.raises(ParameterError, match="p must be finite, got inf"):
        sum_rate(math.inf, PowerAllocation.uniform(ref_params), ref_params)
    for bad in (True, "1", 10**400, -1.0):
        with pytest.raises(ParameterError, match="^p must be "):
            sum_rate(bad, PowerAllocation.uniform(ref_params), ref_params)


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


def test_closed_form_sums_round_once():
    # n * rate and sum_rate are the exact sum of the rates rounded once, for
    # n on both sides of 128 and at zero pilot and jam budgets; an inf rate
    # sums to inf and a nan rate to nan.
    rng = np.random.default_rng(31)
    for i in range(2000):
        n = int(rng.integers(1, 129) if i % 2 else rng.integers(129, 5001))
        p = 0.0 if i % 5 == 0 else float(10.0 ** rng.uniform(-8.0, 6.0))
        gamma = 0.0 if i % 7 == 0 else float(10.0 ** rng.uniform(-8.0, 6.0))
        s2, j2 = (float(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(2))
        r = rates._rate(p, gamma, s2, j2, math.log1p)
        assert game._uniform_sum_rate(n, p, gamma, s2, j2) == float(Fraction(r) * n), (n, p, gamma)
    for i in range(300):
        n = int(rng.integers(1, 129) if i % 2 else rng.integers(129, 2049))
        p = 0.0 if i % 5 == 0 else float(10.0 ** rng.uniform(-8.0, 6.0))
        budget = 0.0 if i % 7 == 0 else float(10.0 ** rng.uniform(-8.0, 6.0))
        params = SystemParams(n, p, budget, 1.0, *(10.0 ** rng.uniform(-3.0, 3.0, 2)))
        allocation = PowerAllocation(tuple(budget * rng.random(n)), budget)
        s2, j2 = params.legit_channel_var, params.jam_channel_var
        exact = sum(Fraction(rates._rate(p, g, s2, j2, math.log1p)) for g in allocation.gamma)
        assert sum_rate(p, allocation, params) == float(exact), params
    # p * sigma2 = 1e200: the rate's numerator overflows to inf, and a jam
    # power of 1e300 makes its denominator inf too, so that rate is nan.
    assert game._uniform_sum_rate(3, 1e200, 4.0, 1.0, 1.0) == math.inf
    assert math.isnan(game._uniform_sum_rate(3, 1e200, 1e300, 1.0, 1.0))
    params = SystemParams(3, 1e200, 1e300, 2.0, 1.0, 1.0)
    assert sum_rate(1e200, PowerAllocation((4.0, 0.0, 8.0), 4.0), params) == math.inf
    assert math.isnan(sum_rate(1e200, PowerAllocation((4.0, 1e300, 8.0), 1e300), params))


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


#: Unit roundoff of a double.
_U = 2.0**-53

#: A relative error bound on ``_rate(p, gamma, sigma2, sigmaj2, math.log1p)``,
#: counted forward through its roundings, gamma_k = k*u / (1 - k*u) (Higham):
#:   a = p*s2 (1); b = 1 + g*j2 (2); b + 2a (3, as 2a is exact); b*(b + 2a) (6);
#:   a*a (3); x = a*a / (b*(b + 2a)) (3 + 6 + 1 = 10).
#: A relative error e in x moves log1p(x) by a relative x*e / ((1 + x)*log1p(x)),
#: at most e, since log1p(x) >= x / (1 + x). Then libm's log1p adds at most
#: 1 ulp (glibc's documented bound), which is at most 2u of its value; the
#: rounded ln 2 adds u and the division u: 10 + 2 + 1 + 1 = 14. numpy's log1p
#: documents no bound; ``rate_array`` is held to the same one all the same
#: (worst seen on either path: 6.55 u).
RATE_RELATIVE_BOUND = 14 * _U / (1 - 14 * _U)


def _mp_rate(p, gamma, s2, j2):
    """The rate at the working precision of mpmath, from the floats' exact values."""
    a, b = mpmath.mpf(p) * s2, 1 + mpmath.mpf(gamma) * j2
    return mpmath.log1p(a * a / (b * (b + 2 * a))) / mpmath.log(2)


def test_scalar_rate_matches_a_200_bit_reference():
    """``_rate`` on libm's log1p, and ``rate_array`` on numpy's, stay within
    its forward error bound of a 200-bit evaluation over 12 decades of every
    parameter, the jam budget also at 0, and where b*(b + 2a) overflows
    while the rate is a normal float. The arguments keep
    x = a^2 / (b*(b + 2a)) far from underflow."""
    rng = np.random.default_rng(41)
    points = [(float(p), 0.0 if i % 5 == 0 else float(gamma), float(s2), float(j2))
              for i, (p, gamma, s2, j2) in enumerate(10.0 ** rng.uniform(-6.0, 6.0, (5000, 4)))]
    # a = p*s2 up to 1e154, so a*a stays finite, and b = 1 + gamma*j2 from
    # 1.6e154, so b*b overflows, up to 150 decades above a: x >= 1e-300 / 3.
    for log_a, log_s2, log_j2 in rng.uniform((100.0, -3.0, -3.0), (154.0, 3.0, 3.0), (1000, 3)).tolist():
        s2, j2 = 10.0**log_s2, 10.0**log_j2
        p, gamma = 10.0**log_a / s2, 10.0 ** rng.uniform(154.2, log_a + 150.0) / j2
        a, b = p * s2, 1.0 + gamma * j2
        assert b * (b + 2.0 * a) == math.inf and a * a < math.inf
        points.append((p, gamma, s2, j2))
    with mpmath.workprec(200):
        ln2 = mpmath.log(2)
        assert abs(mpmath.mpf(rates._LN2) - ln2) <= _U * ln2
        for p, gamma, s2, j2 in points:
            exact = _mp_rate(p, gamma, s2, j2)
            for rate in (rates._rate(p, gamma, s2, j2, math.log1p), float(rate_array(p, gamma, s2, j2))):
                error = float(abs(rate - exact) / exact)
                assert error <= RATE_RELATIVE_BOUND, (p, gamma, s2, j2, rate, error / _U)


#: The knee p_th*(j2*G + 1) rounds three times, so it is within gamma_3 of
#: its exact value K, and R(K(1 + e), G) lies within a factor (1 + e)^2 of
#: R(K, G): x grows at most as p^2, and log1p(c*x) lies between log1p(x) and
#: c*log1p(x) for c >= 1. Each payoff n*R is within RATE_RELATIVE_BOUND, and
#: then one rounding, of its exact value. So at p_max = critical_power the
#: two float payoffs, whose exact values tie, differ by at most this, relative;
#: two rates, without the rounding of n*R, by less.
KNEE_GAP_BOUND = ((1 + 3 * _U / (1 - 3 * _U)) ** 2 * (1 + RATE_RELATIVE_BOUND) * (1 + _U)
                  / ((1 - RATE_RELATIVE_BOUND) * (1 - _U)) - 1)


def test_budget_scaling_identity():
    """At the critical power the jammed full-power rate is the unjammed
    threshold rate, R(p_th (j2 G + 1), G) = R(p_th, 0), at 200 bits; in
    floats, c_full and c_threshold there, and both rate_array values, differ
    by at most ``KNEE_GAP_BOUND``, over 12 decades of every parameter."""
    rng = np.random.default_rng(43)
    with mpmath.workprec(200):
        for _ in range(5000):
            p_th, gamma, s2, j2 = (float(v) for v in 10.0 ** rng.uniform(-6.0, 6.0, 4))
            silent, exact_knee = _mp_rate(p_th, 0.0, s2, j2), mpmath.mpf(p_th) * (mpmath.mpf(j2) * gamma + 1)
            assert abs(_mp_rate(exact_knee, gamma, s2, j2) - silent) <= 2.0**-190 * silent
            knee = game.critical_power(SystemParams(1, 1.0, gamma, p_th, s2, j2))
            params = SystemParams(int(rng.integers(1, 65)), knee, gamma, p_th, s2, j2)
            _, c_full, c_threshold, _, boundary = game._fixed_payoffs(*params)
            assert boundary and abs(c_full - c_threshold) <= KNEE_GAP_BOUND * c_threshold, params
            full, threshold = float(rate_array(knee, gamma, s2, j2)), float(rate_array(p_th, 0.0, s2, j2))
            assert abs(full - threshold) <= KNEE_GAP_BOUND * threshold, params
