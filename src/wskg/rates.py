"""Per-subcarrier key rate and the multi-subcarrier sum rate.

The rate is one expression, :func:`_rate`, evaluated on floats with
``math.log1p`` by the closed forms and on arrays with ``np.log1p`` by
:func:`rate_array`, which only the brute-force oracles call. So this module
imports numpy only inside :func:`rate_array`, and the closed-form commands
run without it. Every closed-form sum of rates is rounded once, from the
exact sum.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .errors import ParameterError
from .params import PowerAllocation, SystemParams, _require_real

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)


def _choose(condition, if_true, if_false):
    """``np.where`` on floats."""
    return if_true if condition else if_false


def _unless_overflowed(x, a, b, where: Callable = _choose):
    """``x = a*a / (b*(b + 2a))``, except where b*(b + 2a) overflowed and
    a*a did not, which left x at 0: there the same quotient as
    (a/b) * (a/(b + 2a)), with as many roundings."""
    return where((x == 0.0) & (b * (b + 2.0 * a) == math.inf), a / b * (a / (b + 2.0 * a)), x)


def _rate(p, gamma, sigma2, sigmaj2, log1p: Callable, guard: Callable = _unless_overflowed):
    """log2(1 + p*s2 / (2*(1 + g*j2) + (1 + g*j2)^2 / (p*s2))), with ``log1p``.

    With a = p*s2 and b = 1 + g*j2 the argument rearranges to
    x = a^2 / (b*(b + 2a)) (``tests/test_identities.py`` proves it, and
    that the rate is convex in b), which stays accurate for tiny p*s2 under
    log1p and needs no special case at p = 0. b >= 1, so no division
    divides by zero. Where b*(b + 2a) overflows and a*a does not, ``guard``
    (:func:`_unless_overflowed`) splits the quotient, so a rate that is a
    normal float is not rounded to 0. Where a*a overflows too, x is
    inf/inf = nan (pilot powers near 1e308); callers reject the non-finite
    payoffs themselves.
    """
    a = p * sigma2
    b = 1.0 + gamma * sigmaj2
    return log1p(guard(a * a / (b * (b + 2.0 * a)), a, b)) / _LN2


def rate_array(p, gamma, sigma2: float, sigmaj2: float) -> np.ndarray:
    """Key rate in bits per channel use; broadcasts over pilot and jam powers.

    The array form of :func:`_rate`, with ``np.log1p`` and ``np.where``;
    overflow is silent.
    """
    import numpy as np

    def guard(x, a, b):
        # Only a 0 in x can be an overflowed quotient; most arrays hold none.
        return x if x.all() else _unless_overflowed(x, a, b, np.where)

    with np.errstate(over="ignore", invalid="ignore"):
        return _rate(
            np.asarray(p, dtype=float), np.asarray(gamma, dtype=float), sigma2, sigmaj2, np.log1p, guard
        )


def sum_rate(p: float, allocation: PowerAllocation, params: SystemParams) -> float:
    """The leader's payoff under any jamming allocation: the sum of the
    per-subcarrier rates, correctly rounded (``math.fsum``), so an inf rate
    gives inf and a nan rate nan. Over ``n`` equal rates it has the bits of
    the closed forms' ``n * rate``, which also rounds once."""
    gammas = allocation.gamma
    if len(gammas) != params.n_subcarriers:
        raise ParameterError(
            f"allocation length {len(gammas)} does not match "
            f"n_subcarriers {params.n_subcarriers}"
        )
    p = _require_real("p", p)
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    return math.fsum([_rate(p, g, s2, j2, math.log1p) for g in gammas])
