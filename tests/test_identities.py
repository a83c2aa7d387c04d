"""The model's algebra, proved exactly with sympy.

The float tests sample these identities and check their rounding; here each
is an identity of rational functions (or of polynomials), so ``cancel``
reduces the difference of its two sides to 0 for all parameters. Where the
package states the expression, the test runs the package's own code on
symbols.
"""

import itertools

import sympy

from wskg import game, rates
from wskg.stochastic import _qpsk_points

p, p_th, g, s2, j2 = sympy.symbols("p p_th gamma sigma2 sigmaj2", positive=True)
a, b, v = sympy.symbols("a b v", positive=True)


def rate_argument(p, gamma, sigma2, sigmaj2):
    """The ``x`` that ``rates._rate`` hands to ``log1p`` (its rate is
    ``log2(1 + x)``), with the code's float constants made exact. The guard
    only splits a quotient that overflowed, so it is left out."""
    arguments = []

    def log1p(x):
        arguments.append(x)
        return 0.0

    rates._rate(p, gamma, sigma2, sigmaj2, log1p, guard=lambda x, a, b: x)
    return sympy.nsimplify(arguments[0], rational=True)


def assert_identity(lhs, rhs):
    assert sympy.cancel(sympy.together(lhs - rhs)) == 0


def test_knee_ties_jammed_full_power_with_silent_threshold_power():
    """``game.critical_power``: R(p_th (sigmaj2 G + 1), G) = R(p_th, 0)."""
    knee = sympy.nsimplify(game._knee(p_th, g, j2), rational=True)
    assert_identity(knee, p_th * (j2 * g + 1))
    assert_identity(rate_argument(knee, g, s2, j2), rate_argument(p_th, 0, s2, j2))


def test_rate_argument_is_the_rearranged_snr():
    """``rates._rate``: with a = p s2 and b = 1 + g j2,
    a / (2b + b^2/a) = a^2 / (b (b + 2a))."""
    a_, b_ = p * s2, 1 + g * j2
    assert_identity(rate_argument(p, g, s2, j2), a_ / (2 * b_ + b_**2 / a_))
    assert_identity(rate_argument(p, g, s2, j2), a_**2 / (b_ * (b_ + 2 * a_)))


def test_rate_is_convex_in_the_jam_power():
    """The rate's second derivative in b = 1 + g j2, times ln 2, is
    1/b^2 + 1/(b + 2a)^2 - 2/(b + a)^2, which factors into positive terms.
    So the sum rate is convex in the allocation, and uniform jamming, the
    symmetric point, minimizes it."""
    curvature = sympy.diff(sympy.log(1 + rate_argument(a, b - 1, 1, 1)), b, 2)
    assert_identity(curvature, 1 / b**2 + 1 / (b + 2 * a) ** 2 - 2 / (b + a) ** 2)
    factored = 2 * a**2 * (2 * a**2 + 6 * a * b + 3 * b**2) / (b**2 * (a + b) ** 2 * (2 * a + b) ** 2)
    assert_identity(curvature, factored)
    assert factored.is_positive


def test_static_leakage_closed_form():
    """With v = sigmaj2 gamma and a = p_max sigma2, the static stage's looks
    are Z = sqrt(a) H + W + N, one unit-variance H and one W of variance v
    shared and a unit-variance noise N each, all independent. So
    (W, Z_a, Z_b) = M (H, W, N_a, N_b) has the complex covariance
    C = M diag(1, v, 1, 1) M^T, and the leakage
    log2(v det C[1:, 1:] / det C) is log2((1 + 2 (a + v)) / (1 + 2 a))."""
    m = sympy.Matrix([[0, 1, 0, 0], [sympy.sqrt(a), 1, 1, 0], [sympy.sqrt(a), 1, 0, 1]])
    c = m * sympy.diag(1, v, 1, 1) * m.T
    assert_identity(v * c[1:, 1:].det() / c.det(), (1 + 2 * (a + v)) / (1 + 2 * a))


def test_rate_rises_with_pilot_power():
    """With a = p sigma2 and b = 1 + gamma sigmaj2, d/da ln(1 + x) is
    2a / ((a + b)(2a + b)) > 0, so the rate rises with pilot power at every
    jam power. A jammer that senses every positive pilot therefore leaves the
    leader its budget as best reply (``game.stackelberg_strategic``), and the
    strategic jammer's gain ``e`` in ``metrics`` equals the full-power
    deviation's loss ``f``."""
    a_, b_ = p * s2, 1 + g * j2
    slope = 2 * a_ / ((a_ + b_) * (2 * a_ + b_))
    assert_identity(sympy.diff(sympy.log(1 + rate_argument(p, g, s2, j2)), p), s2 * slope)
    assert slope.is_positive


def test_randomized_observations_are_uncorrelated_with_the_injection():
    """``randomize_trials``' observations Z_a = XYH + XW + X N_a and
    Z_b = XYH + YW + Y N_b: for every value of the other variables, each
    real coordinate of W times each real coordinate of Z_a averages to 0
    over the four equiprobable QPSK points X, and of Z_b over Y. The pilots
    are independent of the rest, so every cross-covariance of W with the
    observations is 0: the injection is reduced to jamming."""
    r = sympy.Symbol("r", positive=True)
    points = [r * sympy.nsimplify(z) for z in _qpsk_points(2.0)]
    h, w, n_a, n_b, x, y = (sympy.Symbol(f"{s}_re", real=True) + sympy.I * sympy.Symbol(f"{s}_im", real=True)
                            for s in ("h", "w", "n_a", "n_b", "x", "y"))
    observations = (lambda pilot: pilot * y * h + pilot * w + pilot * n_a,  # Z_a, over X
                    lambda pilot: x * pilot * h + pilot * w + pilot * n_b)  # Z_b, over Y
    for observation in observations:
        for w_part, z_part in itertools.product((sympy.re, sympy.im), repeat=2):
            mean = sum(w_part(w) * z_part(sympy.expand(observation(point))) for point in points) / 4
            assert sympy.expand(mean) == 0
