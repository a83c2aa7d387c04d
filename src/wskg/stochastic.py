"""Seeded randomness, goodness-of-fit testing, and a Gaussian MI helper.

All sampling is driven by an explicit (seed, stream) pair mapped onto a
counter-based generator, so Monte Carlo work can be partitioned into
independent substreams and reproduced exactly. There is no global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveSemidefinite, ParameterError

_LN2 = math.log(2.0)
_U64 = 1 << 64

@dataclass(frozen=True)
class RngSeed:
    """Seed plus substream id addressing one stream of a counter-based RNG."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream); same pair, same output."""
        key = ((self.stream % _U64) << 64) | (self.seed % _U64)
        return np.random.Generator(np.random.Philox(key=key))

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


def _complex_normal(rng: np.random.Generator, variance: float, count: int) -> np.ndarray:
    """Circularly-symmetric complex normal draws; variance 0 yields zeros."""
    if variance == 0.0:
        return np.zeros(count, dtype=complex)
    scale = math.sqrt(variance / 2.0)
    return rng.normal(0.0, scale, count) + 1j * rng.normal(0.0, scale, count)


def _qpsk(rng: np.random.Generator, power: float, count: int) -> np.ndarray:
    """Uniform draws from the four constant-modulus points +-r +-jr, r=sqrt(power/2)."""
    if power == 0.0:
        return np.zeros(count, dtype=complex)
    r = math.sqrt(power / 2.0)
    re = 2.0 * rng.integers(0, 2, count) - 1.0
    im = 2.0 * rng.integers(0, 2, count) - 1.0
    return r * (re + 1j * im)


def sample_complex_gaussian(variance: float, count: int, seed: RngSeed) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian samples.

    Each of the real and imaginary parts carries half the requested variance.
    """
    if not (math.isfinite(variance) and variance > 0.0):
        raise ParameterError(f"variance must be > 0, got {variance!r}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    return _complex_normal(seed.generator(), variance, count)


def sample_qpsk_pilot(pilot_power: float, count: int, seed: RngSeed) -> np.ndarray:
    """i.i.d. random pilots with |X|^2 = pilot_power and zero mean."""
    if not (math.isfinite(pilot_power) and pilot_power >= 0.0):
        raise ParameterError(f"pilot_power must be >= 0, got {pilot_power!r}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    return _qpsk(seed.generator(), pilot_power, count)


@dataclass(frozen=True)
class KsReport:
    """One-sample Kolmogorov-Smirnov result: sup-distance, p-value, sample size."""

    statistic: float
    p_value: float
    n: int


def ks_test_normal(samples: np.ndarray, variance: float) -> KsReport:
    """One-sample KS test of real samples against the zero-mean normal law.

    The p-value comes from the asymptotic Kolmogorov distribution, which is
    accurate in the large-sample regime this toolkit operates in.
    """
    # Imported here so that only callers of this test pay scipy's import time.
    from scipy.special import kolmogorov, ndtr

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ParameterError("samples must be non-empty")
    if not (math.isfinite(variance) and variance > 0.0):
        raise ParameterError(f"variance must be > 0, got {variance!r}")
    cdf = ndtr(x / math.sqrt(variance))
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    statistic = max(d_plus, d_minus, 0.0)
    p_value = float(kolmogorov(math.sqrt(n) * statistic))
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
    dim = c.shape[0]
    if not 1 <= target_dim < dim:
        raise ParameterError(
            f"target_dim must be in [1, {dim - 1}], got {target_dim}"
        )
    eigenvalues = np.linalg.eigvalsh(c)
    if float(eigenvalues.min()) < -1e-9:
        raise NotPositiveSemidefinite(
            f"covariance has eigenvalue {eigenvalues.min()} below -1e-9"
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
