"""Leader-follower solution of the jamming game and brute-force cross-checks.

The legitimate pair commits to a pilot power first; a power-sensing jammer
observes it and responds. The follower's best response and the resulting
equilibria have closed forms, and the oracle routines re-derive them by
direct search so every closed-form branch is verified independently.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from typing import TYPE_CHECKING, Tuple

import numpy as np

# rates' functions are read through the module at call time, so a wrapper
# installed over them (perfbench's span tracer) sees game's calls and is gone
# after its removal, even when game is first imported while it is installed.
from . import rates
from .errors import NumericalError, ParameterError
from .params import EquilibriumResult, PowerAllocation, Profile, SystemParams

if TYPE_CHECKING:
    from .stochastic import RngSeed

#: Relative width of the knife-edge band where the leader budget is treated
#: as equal to the critical power and both equilibria are reported.
BOUNDARY_RTOL = 1e-12

#: Simplex sample values :func:`oracle_jammer_br` draws and evaluates at once.
ORACLE_BLOCK_VALUES = 1 << 16

#: Evenly spaced leader powers :func:`oracle_stackelberg` searches, before
#: the exact breakpoints are added.
LEADER_GRID_POINTS = 1001


def sorted_union(grid, extras) -> np.ndarray:
    """The distinct values of ``grid`` and ``extras``, sorted.

    For NaN-free input these are the bits of
    ``np.unique(np.append(grid, extras))``: the same sort, then the first
    value and every value that differs from its predecessor. ``np.unique``
    itself would import ``numpy.ma`` on numpy 2.4.
    """
    values = np.append(grid, extras)
    values.sort()
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _knee(p_th, gamma, sigmaj2):
    return p_th * (sigmaj2 * gamma + 1.0)


def critical_power(params: SystemParams) -> float:
    """Leader budget at which full-power jammed transmission ties
    threshold-power silent transmission.

    Equals sense_threshold * (jam_channel_var * jam_power_budget + 1); the
    rate identity R(p_th * (j2*G + 1), G) = R(p_th, 0) holds exactly.
    """
    return _knee(params.sense_threshold, params.jam_power_budget, params.jam_channel_var)


@np.errstate(over="ignore", invalid="ignore")
def _fixed_payoffs(n, p_max, gamma, p_th, sigma2, sigmaj2):
    """Fixed-threshold game payoffs, broadcast over array-valued parameters.

    Returns ``(c_se, c_full, c_threshold, threshold_wins, boundary)``: the
    equilibrium payoff, the payoff of full power under uniform jamming, the
    payoff of the unjammed deviation to min(p_th, p_max), whether the leader
    plays that deviation, and the knife-edge flag where both profiles tie.
    The arguments follow the field order of :class:`SystemParams`, so
    ``_fixed_payoffs(*astuple(params))`` solves one point.
    Overflow is silent here: callers reject non-finite payoffs themselves.
    """

    def total(p, g):
        # Summing n equal rates over an explicit axis rounds exactly as
        # sum_rate does over an n-vector allocation; n * rate does not.
        return np.repeat(rates.rate_array(p, g, sigma2, sigmaj2)[..., None], n, -1).sum(-1)

    p_max = np.asarray(p_max, dtype=float)
    knee = _knee(p_th, gamma, sigmaj2)
    c_full, c_threshold = np.broadcast_arrays(
        total(p_max, gamma), total(np.minimum(p_th, p_max), 0.0)
    )
    # Below the threshold the leader is never sensed and plays its budget.
    jammed = p_max > p_th
    # An overflowed knee is no knife edge: every finite budget lies below it.
    boundary = jammed & np.isfinite(knee) & (
        np.abs(p_max - knee) <= BOUNDARY_RTOL * np.maximum(np.abs(p_max), np.abs(knee))
    )
    scale = np.maximum(np.maximum(np.abs(c_threshold), np.abs(c_full)), 1e-300)
    disagree = boundary & (np.abs(c_threshold - c_full) > 1e-9 * scale)
    if disagree.any():
        i = np.argmax(disagree)
        raise NumericalError(
            "tied equilibria disagree on payoff: "
            f"{float(c_threshold.flat[i])} vs {float(c_full.flat[i])}"
        )
    threshold_wins = ~jammed | boundary | (p_max < knee)
    c_se = np.where(threshold_wins, c_threshold, c_full)
    return c_se, c_full, c_threshold, threshold_wins, boundary


def stackelberg_fixed(params: SystemParams) -> EquilibriumResult:
    """Equilibrium of the fixed-threshold game.

    With the budget below the sensing threshold the leader simply transmits at
    full power and is never jammed. Otherwise the leader picks between the two
    branch optima, threshold power (silent jammer) and full power (uniform
    jamming), and the winner flips exactly at the critical power; on that
    knife edge both profiles tie and are both returned.
    """
    budget = params.max_pilot_power
    c_se, _, _, threshold_wins, boundary = _fixed_payoffs(*astuple(params))
    profiles = ()
    if threshold_wins:
        deviation = min(params.sense_threshold, budget)
        profiles += (Profile(deviation, PowerAllocation.silent(params)),)
    if boundary or not threshold_wins:
        profiles += (Profile(budget, PowerAllocation.uniform(params)),)
    return EquilibriumResult(
        profiles, float(c_se), unique=not boundary, boundary_case=bool(boundary)
    )


def jammer_br_strategic(p: float, params: SystemParams, delta: float) -> Profile:
    """Profile at leader power ``p`` with the follower's best response when
    the threshold is part of its strategy.

    Any positive pilot power is sensed and uniformly jammed, since the jammer
    can place its threshold anywhere in [0, p). That interval is open, so it
    has no maximal element; the returned threshold is the representative
    p * (1 - delta) with delta in (0, 1).
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta!r}")
    if not (math.isfinite(p) and p >= 0.0):
        raise ParameterError(f"p must be >= 0, got {p!r}")
    if p == 0.0:
        return Profile(p, PowerAllocation.silent(params), 0.0)
    return Profile(p, PowerAllocation.uniform(params), p * (1.0 - delta))


def stackelberg_strategic(params: SystemParams, delta: float) -> EquilibriumResult:
    """Equilibria of the strategic-threshold game.

    The jammer sensing every positive power leaves the leader a jammed rate
    that increases with pilot power, so the leader plays its full budget. One
    equilibrium exists for every threshold in [0, budget); the result carries
    the representative profile and is flagged non-unique.
    """
    budget = params.max_pilot_power
    profile = jammer_br_strategic(budget, params, delta)
    payoff = rates.sum_rate(budget, profile.allocation, params)
    return EquilibriumResult((profile,), payoff, unique=False, boundary_case=False)


def oracle_jammer_br(
    p: float, params: SystemParams, samples: int, seed: RngSeed
) -> Tuple[PowerAllocation, float]:
    """Brute-force search for the sum-rate-minimizing feasible allocation.

    Samples the budget-tight simplex face uniformly (exponential spacings),
    and always includes the uniform point and every vertex, so both interior
    and extreme allocations are covered: ``samples`` draws from ``seed``.
    Returns the best allocation found and its sum rate.
    """
    if samples < 1:
        raise ParameterError(f"allocation_samples must be >= 1, got {samples}")
    if not (math.isfinite(p) and p >= 0.0):
        raise ParameterError(f"p must be >= 0, got {p!r}")
    n = params.n_subcarriers
    total = n * params.jam_power_budget
    rng = seed.generator()
    rows = max(1, ORACLE_BLOCK_VALUES // n)

    def blocks():
        yield np.full((1, n), params.jam_power_budget)
        for start in range(0, n, rows):
            count = min(rows, n - start)
            vertices = np.zeros((count, n))
            vertices[np.arange(count), start + np.arange(count)] = total
            yield vertices
        # Filled in sequence, the blocks hold the values of one big draw.
        for start in range(0, samples, rows):
            spacings = rng.standard_exponential((min(rows, samples - start), n))
            yield spacings / spacings.sum(axis=1, keepdims=True) * total

    best, best_value = None, math.nan
    for block in blocks():
        values = rates.rate_array(p, block, params.legit_channel_var, params.jam_channel_var).sum(axis=1)
        i = int(np.argmin(values))
        # np.argmin's order across blocks: a NaN beats every number, a tie keeps the earlier.
        if best is None or (not math.isnan(best_value) and (values[i] < best_value or math.isnan(values[i]))):
            best, best_value = block[i], float(values[i])
    return PowerAllocation(tuple(best), params.jam_power_budget), best_value


def oracle_stackelberg(params: SystemParams) -> Tuple[float, float]:
    """Grid search over the leader's power with the follower's exact response.

    The induced payoff is discontinuous at the sensing threshold, so the grid
    always contains 0, the budget, and (when admissible) the threshold and the
    critical power exactly. Ties resolve to the smaller power.
    """
    budget = params.max_pilot_power
    threshold = params.sense_threshold
    grid = np.linspace(0.0, budget, LEADER_GRID_POINTS)
    extras = [0.0, budget]
    if threshold <= budget:
        extras.append(threshold)
    knee = critical_power(params)
    if knee <= budget:
        extras.append(knee)
    grid = sorted_union(grid, extras)
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    jammed = rates.rate_array(grid, params.jam_power_budget, s2, j2)
    silent = rates.rate_array(grid, 0.0, s2, j2)
    payoffs = params.n_subcarriers * np.where(grid > threshold, jammed, silent)
    best = int(np.argmax(payoffs))
    return float(grid[best]), float(payoffs[best])
