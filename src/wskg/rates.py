"""Per-subcarrier key rate and the multi-subcarrier sum rate."""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import ParameterError
from .params import PowerAllocation, SystemParams

_LN2 = math.log(2.0)

ArrayLike = Union[float, np.ndarray]


# b*(b + 2a) overflows to inf for jam budgets near 1e308, where the rate is 0.
@np.errstate(over="ignore")
def rate_array(p: ArrayLike, gamma: ArrayLike, sigma2: float, sigmaj2: float) -> np.ndarray:
    """Key rate in bits per channel use; broadcasts over pilot and jam powers.

    Evaluates log2(1 + p*s2 / (2*(1 + g*j2) + (1 + g*j2)^2 / (p*s2))).
    With a = p*s2 and b = 1 + g*j2 the argument rearranges to
    1 + a^2 / (b*(b + 2a)), which stays accurate for tiny p*s2 under log1p
    and needs no special case at p = 0.
    """
    a = np.asarray(p, dtype=float) * sigma2
    b = 1.0 + np.asarray(gamma, dtype=float) * sigmaj2
    return np.log1p(a * a / (b * (b + 2.0 * a))) / _LN2


def skg_rate(p: float, gamma: float, sigma2: float, sigmaj2: float) -> float:
    """Key rate on one subcarrier: pilot power ``p`` against jam power ``gamma``.

    The rate depends on the channel gains only through their variances
    ``sigma2`` (legitimate link) and ``sigmaj2`` (jammer link); it vanishes
    continuously as ``p`` goes to 0.
    """
    for name, value in (("p", p), ("gamma", gamma)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    for name, value in (("sigma2", sigma2), ("sigmaj2", sigmaj2)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be > 0, got {value!r}")
    return float(rate_array(p, gamma, sigma2, sigmaj2))


def sum_rate(p: float, allocation: PowerAllocation, params: SystemParams) -> float:
    """Sum of the per-subcarrier rates under the given jamming allocation."""
    gammas = allocation.as_array()
    if gammas.ndim != 1 or gammas.size != params.n_subcarriers:
        raise ParameterError(
            f"allocation length {gammas.size} does not match "
            f"n_subcarriers {params.n_subcarriers}"
        )
    if not (math.isfinite(p) and p >= 0.0):
        raise ParameterError(f"p must be finite and >= 0, got {p!r}")
    return float(
        np.sum(rate_array(p, gammas, params.legit_channel_var, params.jam_channel_var))
    )
