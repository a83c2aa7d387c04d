"""Per-subcarrier key rate and the multi-subcarrier sum rate.

The rate is one expression, :func:`_rate`, evaluated on floats with
``math.log1p`` by the closed forms and on arrays with ``np.log1p`` by
:func:`rate_array`, which only the brute-force oracles call. So this module
imports numpy only inside :func:`rate_array`, and the closed-form commands
run without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ParameterError
from .params import PowerAllocation, SystemParams

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)


def _rate(p, gamma, sigma2, sigmaj2, log1p: Callable):
    """log2(1 + p*s2 / (2*(1 + g*j2) + (1 + g*j2)^2 / (p*s2))), with ``log1p``.

    With a = p*s2 and b = 1 + g*j2 the argument rearranges to
    1 + a^2 / (b*(b + 2a)), which stays accurate for tiny p*s2 under log1p
    and needs no special case at p = 0. b >= 1, so the division never
    divides by zero; b*(b + 2a) overflows to inf for jam budgets near 1e308,
    where the rate is 0, and a*a / (b*(b + 2a)) is inf/inf = nan for pilot
    powers near 1e308; callers reject the non-finite payoffs themselves.
    """
    a = p * sigma2
    b = 1.0 + gamma * sigmaj2
    return log1p(a * a / (b * (b + 2.0 * a))) / _LN2


def _half(n: int) -> int:
    """Length of the first half numpy sums when it splits ``n`` values."""
    half = n // 2
    return half - half % 8


def _pairwise_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a float64 vector, in its order and so with its bits.

    numpy adds fewer than 8 values in sequence, up to 128 values in eight
    interleaved accumulators folded as a tree, and more by summing two
    halves (the first a multiple of 8 long) and adding the results.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[tail:]:
            total += value
        return total
    half = _half(n)
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _repeated_sum(value: float, n: int) -> float:
    """``_pairwise_sum([value] * n)`` without the list: up to 128 values,
    numpy's eight accumulators all hold the same ``n // 8``-term sum. Above,
    a block's sum depends only on its length and each halving level has at
    most three distinct lengths, so each is summed once, in O(log n) adds."""
    if n > 128:
        sums = {}

        def block(m: int) -> float:
            if m not in sums:
                half = _half(m)
                sums[m] = _repeated_sum(value, m) if m <= 128 else block(half) + block(m - half)
            return sums[m]

        return block(n)
    total, tail = 0.0, n
    if n >= 8:
        r = value
        for _ in range(n // 8 - 1):
            r += value
        total, tail = ((r + r) + (r + r)) + ((r + r) + (r + r)), n % 8
    for _ in range(tail):
        total += value
    return total


def rate_array(p, gamma, sigma2: float, sigmaj2: float) -> np.ndarray:
    """Key rate in bits per channel use; broadcasts over pilot and jam powers.

    The array form of :func:`_rate`, with ``np.log1p``; overflow is silent.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return _rate(
            np.asarray(p, dtype=float), np.asarray(gamma, dtype=float), sigma2, sigmaj2, np.log1p
        )


def sum_rate(p: float, allocation: PowerAllocation, params: SystemParams) -> float:
    """Sum of the per-subcarrier rates under the given jamming allocation,
    added as ``np.sum`` adds them."""
    gammas = allocation.gamma
    if len(gammas) != params.n_subcarriers:
        raise ParameterError(
            f"allocation length {len(gammas)} does not match "
            f"n_subcarriers {params.n_subcarriers}"
        )
    if not (math.isfinite(p) and p >= 0.0):
        raise ParameterError(f"p must be finite and >= 0, got {p!r}")
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    return _pairwise_sum([_rate(float(p), g, s2, j2, math.log1p) for g in gammas])
