"""Coincident-signal injection attack: precoding, two-look simulation, leakage.

A two-antenna attacker with knowledge of both of its channel vectors can
precode its transmission so the identical waveform arrives at both legitimate
receivers, planting attacker-chosen material in their shared randomness. The
leakage bound quantifies, in bits, how much of the distilled key material the
attacker controls when the probing pilots are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .errors import NearSingularChannels, ParameterError
from .params import SystemParams
from .stochastic import RngSeed, _complex_normal, gaussian_mi_from_cov

if TYPE_CHECKING:
    from .randomization import RandomizedBatch

#: Scale of the singularity rejection floor for the precoder denominator.
#: Equality of the two first-antenna gains has probability zero under the
#: continuous channel law, but finite precision still needs a floor.
_SINGULARITY_FLOOR_SCALE = 1e-9


def _coincidence_floor(h_a1, h_b1):
    floor = np.abs(h_a1)
    floor += np.abs(h_b1)
    floor += 1.0
    floor *= _SINGULARITY_FLOOR_SCALE
    return floor


@dataclass(frozen=True)
class MisoChannels:
    """Channel vectors from the attacker's two antennas to each receiver."""

    h_a: Tuple[complex, complex]
    h_b: Tuple[complex, complex]

    def __post_init__(self) -> None:
        for name, pair in (("h_a", self.h_a), ("h_b", self.h_b)):
            values = tuple(complex(v) for v in pair)
            if len(values) != 2:
                raise ParameterError(f"{name} must hold exactly two gains")
            for v in values:
                if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                    raise ParameterError(f"{name} entries must be finite, got {v!r}")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class Precoder:
    """Two-antenna precoding pair making the injected signal coincide."""

    p1: complex
    p2: complex

    @property
    def transmit_power(self) -> float:
        return abs(self.p1) ** 2 + abs(self.p2) ** 2


@dataclass(frozen=True)
class TwoLookBatch:
    """Vectorized Monte Carlo trials of the two-look observation model.

    ``injected`` holds the common injected value appearing identically in
    both observations; ``resampled`` counts channel draws rejected by the
    singularity floor and redrawn.
    """

    z_a: np.ndarray
    z_b: np.ndarray
    injected: np.ndarray
    resampled: int = 0


def compute_precoder(
    channels: MisoChannels, jam_budget: float, xj_power: float
) -> Precoder:
    """Precoder whose injected signal coincides at both receivers.

    ``p1 = (h_b2 - h_a2) / (h_a1 - h_b1) * p2`` forces the coincidence;
    ``p2`` is chosen real positive and scaled so the transmit power
    ``(|p1|^2 + |p2|^2) * xj_power`` meets ``jam_budget`` with equality
    (the injected power, and hence the leakage, is monotone in the budget,
    so the attacker always spends all of it).
    """
    if not (math.isfinite(jam_budget) and jam_budget >= 0.0):
        raise ParameterError(f"jam_budget must be >= 0, got {jam_budget!r}")
    if not (math.isfinite(xj_power) and xj_power > 0.0):
        raise ParameterError(f"xj_power must be > 0, got {xj_power!r}")
    h_a1, h_a2 = channels.h_a
    h_b1, h_b2 = channels.h_b
    denom = h_a1 - h_b1
    if abs(denom) < _coincidence_floor(h_a1, h_b1):
        raise NearSingularChannels(
            f"|h_a1 - h_b1| = {abs(denom)} is below the stability floor"
        )
    ratio = (h_b2 - h_a2) / denom
    p2 = math.sqrt(jam_budget / xj_power / (1.0 + abs(ratio) ** 2))
    return Precoder(p1=ratio * p2, p2=complex(p2))


def injected_signal(
    channels: MisoChannels, precoder: Precoder, xj: complex
) -> Tuple[complex, complex]:
    """Injected values received at each party: (h_a . p * xj, h_b . p * xj)."""
    at_alice = (channels.h_a[0] * precoder.p1 + channels.h_a[1] * precoder.p2) * xj
    at_bob = (channels.h_b[0] * precoder.p1 + channels.h_b[1] * precoder.p2) * xj
    return at_alice, at_bob


def simulate_two_look(params: SystemParams, n_trials: int, seed: RngSeed) -> TwoLookBatch:
    """Monte Carlo trials of both parties' observations under injection.

    Per trial: a reciprocal channel gain H ~ CN(0, legit_channel_var), the
    attacker's four link gains each CN(0, jam_channel_var / 2), unit-variance
    receiver noise, a deterministic pilot at full power, and a constant
    unit-modulus attack symbol steered through the coincidence precoder. The
    injected value is identical in both observations by construction.

    The coincidence beamformer has a channel-independent effective gain of
    variance jam_channel_var / 4 per unit transmit power (forcing the same
    value at both receivers costs the array gain twice over), so the injected
    amplitude is normalized to realize the nominal attack model
    CN(0, jam_channel_var * jam_power_budget).
    """
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    rng = seed.generator()
    entry_var = params.jam_channel_var / 2.0

    h = _complex_normal(rng, params.legit_channel_var, n_trials)
    h_a1 = _complex_normal(rng, entry_var, n_trials)
    h_a2 = _complex_normal(rng, entry_var, n_trials)
    h_b1 = _complex_normal(rng, entry_var, n_trials)
    h_b2 = _complex_normal(rng, entry_var, n_trials)

    resampled = 0
    denom = h_a1 - h_b1
    bad = np.flatnonzero(np.abs(denom) < _coincidence_floor(h_a1, h_b1))
    while bad.size:
        resampled += bad.size
        for arr in (h_a1, h_a2, h_b1, h_b2):
            arr[bad] = _complex_normal(rng, entry_var, bad.size)
        denom[bad] = h_a1[bad] - h_b1[bad]
        bad = bad[np.abs(denom[bad]) < _coincidence_floor(h_a1[bad], h_b1[bad])]

    # In place: injected = 2 sqrt(budget) (h_a1 ratio + h_a2) / sqrt(1 + |ratio|^2) xj.
    ratio = np.subtract(h_b2, h_a2, out=h_b2)
    ratio /= denom
    injected = np.multiply(h_a1, ratio, out=h_a1)
    injected += h_a2
    injected /= np.sqrt(1.0 + np.abs(ratio) ** 2)
    del h_a2, h_b1, h_b2, ratio, denom
    np.multiply(2.0 * math.sqrt(params.jam_power_budget), injected, out=injected)
    injected *= 1.0 + 0.0j  # the attack symbol xj; the product sets the sign of zero parts

    z_a = _complex_normal(rng, 1.0, n_trials)
    z_b = _complex_normal(rng, 1.0, n_trials)
    common = np.add(np.multiply(math.sqrt(params.max_pilot_power), h, out=h), injected, out=h)
    z_a += common
    z_b += common
    return TwoLookBatch(z_a=z_a, z_b=z_b, injected=injected, resampled=resampled)


def gram(batch: TwoLookBatch | RandomizedBatch) -> np.ndarray:
    """7x7 raw-moment matrix of ``(1, injected, z_a, z_b)`` in real coordinates.

    Entry ``[0, 0]`` is the trial count and row 0 holds the coordinate sums,
    so the matrices of disjoint batches add up to the matrix of their union.
    Serves both observation models: the static-pilot looks of a
    ``TwoLookBatch`` and the post-multiplied looks of a ``RandomizedBatch``.
    """
    rows = np.empty((7, batch.injected.size))
    rows[0] = 1.0
    for i, values in enumerate((batch.injected, batch.z_a, batch.z_b)):
        rows[1 + 2 * i] = values.real
        rows[2 + 2 * i] = values.imag
    return rows @ rows.T


def mi_from_gram(g: np.ndarray) -> float:
    """Gaussian MI estimate, in bits, between the injected value and both looks.

    Takes a (summed) :func:`gram` matrix. Subtracting the outer product of the
    sums from the raw moments is accurate here because every coordinate is
    zero-mean by construction.
    """
    n_trials = g[0, 0]
    if n_trials < 10_000:
        raise ParameterError(
            f"n_trials must be >= 10000 for covariance estimation, got {int(n_trials)}"
        )
    sums = g[0, 1:]
    cov = (g[1:, 1:] - np.outer(sums, sums) / n_trials) / (n_trials - 1.0)
    return gaussian_mi_from_cov(cov, target_dim=2)


def leakage_bound(params: SystemParams, n_trials: int, seed: RngSeed) -> float:
    """Estimated upper bound, in bits, on the key material the attacker controls.

    Estimates the joint covariance of the injected value and both observations
    over stacked real coordinates and evaluates the jointly-Gaussian mutual
    information closed form.
    """
    return mi_from_gram(gram(simulate_two_look(params, n_trials, seed)))
