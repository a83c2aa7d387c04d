"""Numerics of the one-sample KS test against the normal law.

``scipy.special.ndtr`` (Cephes' normal CDF) and ``scipy.special.kolmogorov``
(the Kolmogorov survival function), ported to ``math`` with scipy's bits,
and the KS statistic of sorted samples evaluated in blocks.
:func:`wskg.stochastic.ks_test_normal` is the interface.

The statistic reads the CDF only through the largest deviation, so the
bulk of the samples goes through a linear interpolation in a table of the
CDF, and only the points that can hold the largest deviation go through
the exact port.
"""

from __future__ import annotations

import math

import numpy as np

from .stochastic import BLOCK


def ks_statistic(a: np.ndarray) -> float:
    """sup |ECDF - ndtr| of ascending standardized samples ``a``.

    Sample ``i`` (from 1) deviates by ``max(i/n - F, F - (i-1)/n)``, which is
    its midpoint distance ``|F - (i - 1/2)/n|`` plus ``1/(2n)``. Over ``a``
    in blocks of ``BLOCK`` values, the midpoint distances by :func:`cdf_bulk`
    pick the points within ``RECHECK`` of the block's largest, and only
    those take the exact deviation by :func:`ndtr`.
    """
    n = a.size
    statistic = 0.0
    for start in range(0, n, BLOCK):
        block = a[start:start + BLOCK]
        distance = cdf_bulk(block)
        distance -= (np.arange(start, start + block.size) + 0.5) / n
        np.abs(distance, out=distance)
        near = (distance >= distance.max() - RECHECK).nonzero()[0]
        for i, cdf in zip((start + near + 1).tolist(), map(ndtr, block[near].tolist())):
            upper = i / n
            statistic = max(statistic, upper - cdf, cdf - (upper - 1.0 / n))
    return statistic


# Cephes ndtr, erf and erfc as scipy.special builds them: their coefficient
# tables, Horner order and underflow test. p1evl tables omit the leading 1.0.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996732e2  # ln(DBL_MAX): erfc(z) is 0 where z * z exceeds it
_SQRT1_2 = math.sqrt(0.5)


def _polevl(z, coefs):
    acc = z * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return acc


def _p1evl(z, coefs):
    acc = z + coefs[0]
    for c in coefs[1:]:
        acc *= z
        acc += c
    return acc


def _erf_cdf(x):
    """0.5 + 0.5 * erf(x) for |x| < 1, x a float or an array."""
    zz = x * x
    y = _polevl(zz, _T)
    y *= x
    y /= _p1evl(zz, _U)
    y *= 0.5
    y += 0.5
    return y


def _half_erfc(z, exp, num, den):
    """0.5 * erfc(z) below its underflow for z >= 1, with ``exp`` for e^(-z^2)."""
    y = exp(-z * z)
    y *= _polevl(z, num)
    y /= _p1evl(z, den)
    y *= 0.5
    return y


def ndtr(a: float) -> float:
    """``scipy.special.ndtr`` of one value, with its bits (libm's exp)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return _erf_cdf(x)
    if -z * z < -_MAXLOG:
        y = 0.0
    else:
        y = _half_erfc(z, math.exp, *((_P, _Q) if z < 8.0 else (_R, _S)))
    return 1.0 - y if x > 0 else y


# The bulk CDF interpolates linearly between nodes _STEP apart on
# [-_SPAN, _SPAN]. Its error is at most _STEP^2 / 8 * max|ndtr''| =
# 2^-23 * exp(-1/2) / sqrt(2 pi) < 2.885e-8, plus under 1e-14 from the node
# values and the arithmetic; outside the span ndtr is within 1e-17 of 0 or 1.
# Halving _STEP made KS tests at 1e4 samples slower between other work,
# which evicts its 557 KB of tables from the cache.
_STEP = 2.0 ** -10
_SPAN = 8.5
#: Over twice the bulk error: a point whose bulk midpoint distance falls
#: more than this below the largest has a smaller exact deviation than the
#: point holding that largest one.
RECHECK = 1e-7


def _node_cdf() -> np.ndarray:
    """ndtr at the nodes: Cephes' erf and (P, Q) erfc branches with np.exp."""
    x = (np.arange(round(2 * _SPAN / _STEP) + 1) * _STEP - _SPAN) * _SQRT1_2
    z = np.abs(x)
    tail = _half_erfc(z, np.exp, _P, _Q)
    return np.where(z < 1.0, _erf_cdf(x), np.where(x > 0.0, 1.0 - tail, tail))


_NODES = _node_cdf()
_RISES = np.diff(_NODES)


def cdf_bulk(a: np.ndarray) -> np.ndarray:
    """ndtr of ``a`` within 2.9e-8, by the node table."""
    t = np.clip(a, -_SPAN, _SPAN - _STEP)
    t += _SPAN
    t *= 1.0 / _STEP
    left = np.floor(t)
    t -= left
    node = left.astype(np.intp)
    t *= _RISES.take(node)
    t += _NODES.take(node)
    return t


_KOLMOGOROV_CUTOVER = 0.82
_KOLMOGOROV_ONE = math.pi / math.sqrt(746.0 * 8.0)  # exp(-pi^2 / (8 x^2)) is 0 below


def kolmogorov_sf(x: float) -> float:
    """``scipy.special.kolmogorov``: the Kolmogorov survival function.

    A port of scipy's series with libm's exp and pow, which gives its bits.
    scipy's log-space branch for an underflowing CDF series is left out: the
    survival function is 1.0 there either way.
    """
    if x <= _KOLMOGOROV_ONE:
        return 1.0
    if x <= _KOLMOGOROV_CUTOVER:
        w = math.sqrt(2.0 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8.0)
        u8 = math.exp(logu8)
        p = 1.0 + u8 ** 3
        p = 1.0 + u8 * u8 * p
        p = 1.0 + u8 * p
        sf = 1.0 - w * u * p
    else:
        v = math.exp(-2.0 * x * x)
        v3 = v ** 3
        p = 1.0 - v3 * v3 * v
        p = 1.0 - v3 * (v * v) * p
        p = 1.0 - v3 * p
        sf = 2.0 * v * p
    return min(max(sf, 0.0), 1.0)
