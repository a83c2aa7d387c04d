"""Seeded randomness, goodness-of-fit testing, and a Gaussian MI helper.

All sampling is driven by an explicit (seed, stream) pair mapped onto a
counter-based generator, so Monte Carlo work can be partitioned into
independent substreams and reproduced exactly. There is no global RNG state.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import NotPositiveSemidefinite, ParameterError
from .params import RngSeed  # re-exported: its home is params, which loads no numpy
from .params import _require_integer, _require_real

_LN2 = math.log(2.0)


#: Values per block of every streamed temporary: 128 KB of float64 or
#: ``intp`` (:func:`_take_points`' index copy, :func:`_variance`'s leaves,
#: the KS test's CDF blocks), or 64 KB of :func:`_pilot_indices`' ``uint32``
#: bits. Pilot blocks of 128 KB, glibc's mmap threshold, raised the resident
#: size of two-thread ``leakage`` runs.
BLOCK = 1 << 14

#: Real values per block of :func:`_complex_normal`'s draws: 256 KB, the
#: most draw scratch a Monte Carlo buffer set holds, whatever its size.
DRAW_BLOCK = 2 * BLOCK


def _complex_normal(
    rng: np.random.Generator,
    variance: float,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Circularly-symmetric complex normal draws; variance 0 yields zeros.

    Writes into ``out`` (``count`` complex entries) when given, and
    allocates it otherwise. The real parts are drawn first, then the
    imaginary parts, by :func:`_scaled_normal`, ``DRAW_BLOCK`` values at a
    time through ``scratch`` (at least ``min(count, DRAW_BLOCK)`` real
    entries, allocated when not given). Split draws give the bits of one
    whole draw, so no ``count``-length real array is needed.
    """
    out = np.empty(count, dtype=complex) if out is None else out
    if variance == 0.0:
        out.fill(0.0)
        return out
    scale = math.sqrt(variance / 2.0)
    block = np.empty(min(count, DRAW_BLOCK)) if scratch is None else scratch
    for part in (out.real, out.imag):
        for start in range(0, count, DRAW_BLOCK):
            values = part[start : start + DRAW_BLOCK]
            values[...] = _scaled_normal(rng, scale, block[: values.size])
    return out


def _scaled_normal(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """``out.size`` draws of ``Generator.normal(0.0, scale)``, in place.

    ``Generator.normal`` returns ``loc + scale * z``, so adding 0.0 after the
    scaling keeps its bits, signs of zero included. Consecutive calls give
    the draws of one call over their total size.
    """
    rng.standard_normal(out=out)
    np.multiply(out, scale, out=out)
    return np.add(out, 0.0, out=out)


def _pilot_indices(
    rng: np.random.Generator, power: float, count: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Indices ``2 * re + im`` into ``_qpsk_points(power)`` of ``count`` QPSK
    pilots, with the bits of two whole ``rng.integers(0, 2, count)`` draws,
    ``re`` first; zeros, drawing nothing, at power 0. Written into ``out``
    (``count`` bytes) when given, and into bytes otherwise.

    Each draw is made ``BLOCK`` values at a time: ``Generator.integers``
    continues one stream across calls, and its ``uint32`` draws in ``[0, 2)``
    give the bits of its ``int64`` ones.
    """
    index = np.empty(count, dtype=np.uint8) if out is None else out
    if power == 0.0:
        index.fill(0)
        return index
    for first in (True, False):
        for start in range(0, count, BLOCK):
            part = index[start : start + BLOCK]
            bits = rng.integers(0, 2, part.size, dtype=np.uint32)
            if first:
                np.left_shift(bits, 1, out=part, casting="unsafe")
            else:
                np.add(part, bits, out=part, casting="unsafe")
    return index


def _take_points(points: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``points[index]`` into ``out``, ``BLOCK`` indices at a time.

    ``np.take`` copies indices of any other type to ``intp``; in blocks,
    byte indices cost one 128 KB copy instead of 8 bytes per index.
    """
    for start in range(0, index.size, BLOCK):
        block = slice(start, start + BLOCK)
        np.take(points, index[block], out=out[block], mode="clip")  # mode "raise" copies through a buffer
    return out


def _qpsk(rng: np.random.Generator, power: float, count: int) -> np.ndarray:
    """Uniform draws from the four constant-modulus points +-r +-jr,
    r=sqrt(power/2): :func:`_pilot_indices` taken from :func:`_qpsk_points`."""
    index = _pilot_indices(rng, power, count)
    return _take_points(_qpsk_points(power), index, np.empty(count, dtype=complex))


def _qpsk_points(power: float) -> np.ndarray:
    """The four points +-r +-jr, indexed by 2 * (real part > 0) + (imag part > 0).
    At power 0 all four are ``0j``, as the pilots drawn at that power are."""
    if power == 0.0:
        return np.zeros(4, dtype=complex)
    r = math.sqrt(power / 2.0)
    return np.array([complex(-r, -r), complex(-r, r), complex(r, -r), complex(r, r)])


def sample_complex_gaussian(variance: float, count: int, seed: RngSeed) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian samples.

    Each of the real and imaginary parts carries half the requested variance.
    """
    variance = _require_real("variance", variance, positive=True)
    count = _require_integer("count", count, 0)
    return _complex_normal(seed.generator(), variance, count)


def sample_qpsk_pilot(pilot_power: float, count: int, seed: RngSeed) -> np.ndarray:
    """i.i.d. random pilots with |X|^2 = pilot_power and zero mean."""
    pilot_power = _require_real("pilot_power", pilot_power)
    count = _require_integer("count", count, 0)
    return _qpsk(seed.generator(), pilot_power, count)


def _variance(x: np.ndarray) -> float:
    """``float(np.var(x))`` of a non-empty contiguous float64 array, bit for bit,
    on one ``BLOCK`` temporary instead of a whole-array one.

    numpy sums a contiguous float64 array as one pairwise tree, which splits
    a run of more than 128 values at half its length rounded down to a
    multiple of 8. So the squared deviations from the mean are summed down
    that rule, and numpy itself squares and sums each run of at most
    ``BLOCK`` values. Overflow warns as in ``np.var``.
    """
    mean = np.add.reduce(x) / x.size
    return float(_squared_deviations(x, mean, np.empty(min(x.size, BLOCK))) / x.size)


def _squared_deviations(x: np.ndarray, mean: np.float64, scratch: np.ndarray) -> np.float64:
    """numpy's pairwise sum of ``(x - mean) ** 2``, leaves squared in ``scratch``."""
    if x.size <= BLOCK:
        deviation = np.subtract(x, mean, out=scratch[: x.size])
        return np.add.reduce(np.multiply(deviation, deviation, out=deviation))
    half = x.size // 2
    half -= half % 8
    return _squared_deviations(x[:half], mean, scratch) + _squared_deviations(x[half:], mean, scratch)


class KsReport(NamedTuple):
    """One-sample Kolmogorov-Smirnov result: sup-distance, p-value, sample size."""

    statistic: float
    p_value: float
    n: int


#: p-value at or below which a self-checking command rejects its KS test.
KS_SIGNIFICANCE = 0.001

#: Fewest trials every Monte Carlo covariance (``injection.covariance``,
#: under both leakage estimates and ``simulate-injection``'s statistics) and
#: the KS tests (``randomization.verify_randomization``) are drawn from.
MIN_TRIALS = 10_000


def ks_test_normal(
    samples: np.ndarray, variance: float, overwrite_input: bool = False
) -> KsReport:
    """One-sample KS test of real samples against the zero-mean normal law.

    The p-value comes from the asymptotic Kolmogorov distribution, which is
    accurate in the large-sample regime this toolkit operates in. The normal
    CDF and the p-value give the bits of ``scipy.special.ndtr`` and
    ``scipy.special.kolmogorov`` (see :mod:`wskg.kstest`).

    As in ``np.median``, ``overwrite_input=True`` lets the test sort and
    scale a float ``samples`` array in place instead of a copy; its contents
    are then undefined. The report is the same either way.
    """
    # Imported here so that only callers of this test load and compile it.
    from .kstest import kolmogorov_sf, ks_statistic

    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ParameterError("samples must be non-empty")
    variance = _require_real("variance", variance, positive=True)
    if overwrite_input:
        a = x.reshape(-1)
        a.sort()
    else:
        a = np.sort(x, axis=None)
    if not (math.isfinite(a[0]) and math.isfinite(a[-1])):  # NaNs sort last
        raise ParameterError("samples must be finite")
    statistic = ks_statistic(np.divide(a, math.sqrt(variance), out=a))
    p_value = kolmogorov_sf(math.sqrt(n) * statistic)
    return KsReport(statistic=statistic, p_value=p_value, n=n)


def gaussian_mi_from_cov(cov_joint: np.ndarray, target_dim: int) -> float:
    """Mutual information in bits between jointly Gaussian target and
    observation blocks, from their joint covariance.

    The leading ``target_dim`` rows/columns are the targets. Uses
    I = 1/2 * log2(det(Sigma_tgt) * det(Sigma_obs) / det(Sigma_joint)).
    Complex variables are handled by stacking their real coordinates before
    calling this. Returns 0 exactly when the cross-covariance block is zero,
    and +inf when the joint covariance is singular while the blocks are not
    (an observation then determines some target coordinate).
    """
    c = np.asarray(cov_joint, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ParameterError(f"covariance must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ParameterError("covariance must be finite")
    if not np.allclose(c, c.T, rtol=1e-9, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    dim, target_dim = c.shape[0], _require_integer("target_dim", target_dim)
    if not 1 <= target_dim < dim:
        raise ParameterError(
            f"target_dim must be in [1, {dim - 1}], got {target_dim}"
        )
    # Rounding error grows with the matrix's scale, so the tolerance does too.
    eigenvalues = np.linalg.eigvalsh(c)
    tolerance = 1e-9 * max(1.0, float(eigenvalues.max()))
    if float(eigenvalues.min()) < -tolerance:
        raise NotPositiveSemidefinite(
            f"covariance has eigenvalue {eigenvalues.min()} below -{tolerance:.6g}"
        )
    cross = c[:target_dim, target_dim:]
    if not cross.any():
        return 0.0
    sign_t, logdet_t = np.linalg.slogdet(c[:target_dim, :target_dim])
    sign_o, logdet_o = np.linalg.slogdet(c[target_dim:, target_dim:])
    sign_j, logdet_j = np.linalg.slogdet(c)
    if sign_t <= 0 or sign_o <= 0 or sign_j <= 0:
        return math.inf
    mi = (logdet_t + logdet_o - logdet_j) / (2.0 * _LN2)
    return max(mi, 0.0)
