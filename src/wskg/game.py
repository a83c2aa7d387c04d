"""Leader-follower solution of the jamming game and brute-force cross-checks.

The legitimate pair commits to a pilot power first; a power-sensing jammer
observes it and responds. The follower's best response and the resulting
equilibria have closed forms, and the oracle routines re-derive them by
direct search so every closed-form branch is verified independently.
The three game commands' payloads are built here: :func:`fixed_payload`,
:func:`strategic_payload` and :func:`oracle_check`, the verdict on the two,
with the rounding argument behind its tolerances.

The closed forms run on floats and round each sum of rates once, so this
module imports numpy only inside the two oracles: :func:`oracle_jammer_br`
sums rates with numpy, and :func:`oracle_stackelberg` only multiplies, sorts
and takes an argmax.
"""

from __future__ import annotations

import math
import sys
from typing import Tuple

# rates' functions are read through the module at call time, so a wrapper
# installed over them (perfbench's span tracer) sees game's calls and is gone
# after its removal, even when game is first imported while it is installed.
from . import rates
from .errors import NumericalError
from .params import EquilibriumResult, PowerAllocation, Profile, RngSeed, SystemParams, _require_integer

#: Relative width of the knife-edge band where the leader budget is treated
#: as equal to the critical power and both equilibria are reported.
BOUNDARY_RTOL = 1e-12

#: Simplex sample values :func:`oracle_jammer_br` draws and evaluates at once.
ORACLE_BLOCK_VALUES = 1 << 14

#: Evenly spaced leader powers :func:`oracle_stackelberg` searches, before
#: the exact breakpoints are added.
LEADER_GRID_POINTS = 1001

#: Where :func:`stackelberg_strategic`'s representative threshold sits in the
#: jammer's best-response interval ``[0, p_max)``: ``p_max * (1 - STRATEGIC_DELTA)``.
#: Halving rounds below every positive float, subnormals included.
STRATEGIC_DELTA = 0.5


def _knee(p_th, gamma, sigmaj2):
    return p_th * (sigmaj2 * gamma + 1.0)


def critical_power(params: SystemParams) -> float:
    """Leader budget at which full-power jammed transmission ties
    threshold-power silent transmission.

    Equals sense_threshold * (jam_channel_var * jam_power_budget + 1); the
    rate identity R(p_th * (j2*G + 1), G) = R(p_th, 0) holds exactly
    (``tests/test_identities.py`` proves it on symbols).
    """
    return _knee(params.sense_threshold, params.jam_power_budget, params.jam_channel_var)


def _uniform_sum_rate(n, p, g, sigma2, sigmaj2):
    """Sum rate at pilot power ``p`` of ``n`` subcarriers jammed at ``g`` each:
    ``n * rate`` rounds the exact sum once, as ``rates.sum_rate`` does."""
    return n * rates._rate(p, g, sigma2, sigmaj2, math.log1p)


def _fixed_payoffs(n, p_max, gamma, p_th, sigma2, sigmaj2):
    """Fixed-threshold game payoffs at one point.

    Returns ``(c_se, c_full, c_threshold, threshold_wins, boundary)``: the
    equilibrium payoff, the payoff of full power under uniform jamming, the
    payoff of the unjammed deviation to min(p_th, p_max), whether the leader
    plays that deviation, and the knife-edge flag where both profiles tie.
    The arguments follow the field order of :class:`SystemParams`, so
    ``_fixed_payoffs(*params)`` solves one point.
    Overflow is silent here: callers reject non-finite payoffs themselves.
    """
    knee = _knee(p_th, gamma, sigmaj2)
    c_full = _uniform_sum_rate(n, p_max, gamma, sigma2, sigmaj2)
    c_threshold = _uniform_sum_rate(n, min(p_th, p_max), 0.0, sigma2, sigmaj2)
    # Below the threshold the leader is never sensed and plays its budget.
    jammed = p_max > p_th
    # An overflowed knee is no knife edge: every finite budget lies below it.
    boundary = jammed and math.isfinite(knee) and (
        abs(p_max - knee) <= BOUNDARY_RTOL * max(abs(p_max), abs(knee))
    )
    scale = max(abs(c_threshold), abs(c_full), 1e-300)
    if boundary and abs(c_threshold - c_full) > 1e-9 * scale:
        raise NumericalError(f"tied equilibria disagree on payoff: {c_threshold} vs {c_full}")
    threshold_wins = not jammed or boundary or p_max < knee
    c_se = c_threshold if threshold_wins else c_full
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
    c_se, _, _, threshold_wins, boundary = _fixed_payoffs(*params)
    profiles = ()
    if threshold_wins:
        deviation = min(params.sense_threshold, budget)
        profiles += (Profile(deviation, PowerAllocation.silent(params)),)
    if boundary or not threshold_wins:
        profiles += (Profile(budget, PowerAllocation.uniform(params)),)
    return EquilibriumResult(profiles, c_se, unique=not boundary, boundary_case=boundary)


def _equilibrium_payload(result: EquilibriumResult) -> dict:
    # Each Profile as {pilot_power, allocation, threshold}.
    profiles = [{**profile._asdict(), "allocation": list(profile.allocation.gamma)} for profile in result.profiles]
    return {"p_se": result.profiles[0].pilot_power, "payoff": result.payoff, "unique": result.unique,
            "boundary_case": result.boundary_case, "profiles": profiles}


def fixed_payload(params: SystemParams) -> dict:
    """``wskg solve-fixed``'s payload: :func:`stackelberg_fixed`'s equilibria."""
    return _equilibrium_payload(stackelberg_fixed(params))


def threshold_interval(p: float) -> Tuple[float, float]:
    """Ends of ``[lo, hi)``, the jammer's best-response thresholds at leader power ``p``:
    ``[0, p)`` senses a positive ``p``, and none senses ``p == 0``, so there all do: ``[0, inf)``."""
    return 0.0, p if p > 0.0 else math.inf


def stackelberg_strategic(params: SystemParams) -> EquilibriumResult:
    """Equilibria of the strategic-threshold game.

    The jammer can place its threshold anywhere in [0, p) (:func:`threshold_interval`),
    so it senses and uniformly jams every positive pilot power ``p``. The
    jammed rate increases with pilot power (``tests/test_identities.py``
    proves it), so the leader plays its full budget. One equilibrium exists
    for every threshold in the budget's interval; that interval is open, so
    the result carries the representative threshold
    ``p_max * (1 - STRATEGIC_DELTA)`` and is flagged non-unique. No threshold
    senses a zero budget: there the jammer is silent at threshold 0.
    """
    budget = params.max_pilot_power
    if budget == 0.0:
        profile = Profile(budget, PowerAllocation.silent(params), 0.0)
    else:
        profile = Profile(budget, PowerAllocation.uniform(params), budget * (1.0 - STRATEGIC_DELTA))
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    payoff = _uniform_sum_rate(params.n_subcarriers, budget, profile.allocation.gamma[0], s2, j2)
    return EquilibriumResult((profile,), payoff, unique=False, boundary_case=False)


def strategic_payload(params: SystemParams) -> dict:
    """``wskg solve-strategic``'s payload: :func:`stackelberg_strategic`'s
    equilibrium and the interval its threshold represents."""
    result = stackelberg_strategic(params)
    lo, hi = threshold_interval(result.profiles[0].pilot_power)
    return {**_equilibrium_payload(result), "delta": STRATEGIC_DELTA, "epsilon_interval": f"[{lo:.12g}, {hi:.12g})"}


def oracle_jammer_br(params: SystemParams, samples: int, seed: RngSeed) -> Tuple[PowerAllocation, float]:
    """Brute-force search for the allocation that minimizes the sum rate at
    the leader's full budget.

    Samples the budget-tight simplex face uniformly (exponential spacings):
    ``samples`` draws from ``seed``. It always includes the uniform point and,
    for the extreme allocations, the vertex on subcarrier 0; every subcarrier
    shares one rate function, so the other vertices' sum rates differ from it
    only by rounding.
    Returns the best allocation found and its sum rate.
    """
    samples = _require_integer("allocation_samples", samples, 1)
    import numpy as np

    n, p_max, gamma, _, s2, j2 = params
    total = n * gamma
    rng = seed.generator()
    width = max(1, ORACLE_BLOCK_VALUES // n)
    # A block is a C-contiguous (count, n) array, one candidate per row, and
    # each sum over subcarriers is numpy's sum along a row: its bits depend
    # on the row alone, not on how many rows share the block.

    def blocks():
        first = np.zeros((2, n))
        first[0], first[1, 0] = gamma, total
        yield first
        # Filled in sequence, the blocks hold the values of one big draw.
        for start in range(0, samples, width):
            spacings = rng.standard_exponential((min(width, samples - start), n))
            yield spacings / spacings.sum(axis=1, keepdims=True) * total

    best = None
    for block in blocks():
        values = rates.rate_array(p_max, block, s2, j2).sum(axis=1)
        i = int(np.argmin(values))
        # np.argmin's order across blocks: a NaN beats every number, a tie keeps the earlier.
        if best is None or np.argmin((best_value, values[i])) == 1:
            best, best_value = block[i], float(values[i])
    return PowerAllocation(tuple(best), gamma), best_value


def oracle_stackelberg(params: SystemParams) -> Tuple[float, float]:
    """Grid search over the leader's power with the follower's exact response.

    The induced payoff is discontinuous at the sensing threshold, so the grid
    always contains 0, the budget, and (when admissible) the threshold and the
    critical power exactly. The grid is sorted, not deduplicated: equal
    powers sit side by side and ``np.argmax`` keeps the first of equal
    payoffs, so ties resolve to the smaller power.
    """
    import numpy as np

    budget = params.max_pilot_power
    threshold = params.sense_threshold
    extras = [0.0, budget]
    if threshold <= budget:
        extras.append(threshold)
    knee = critical_power(params)
    if knee <= budget:
        extras.append(knee)
    grid = np.sort(np.append(np.linspace(0.0, budget, LEADER_GRID_POINTS), extras))
    s2, j2 = params.legit_channel_var, params.jam_channel_var
    response = np.where(grid > threshold, params.jam_power_budget, 0.0)
    payoffs = params.n_subcarriers * rates.rate_array(grid, response, s2, j2)
    best = int(np.argmax(payoffs))
    return float(grid[best]), float(payoffs[best])


def oracle_check(params: SystemParams, trials: int, seed: RngSeed) -> dict:
    """Verdict of ``wskg oracle-check``: the closed-form equilibrium against
    :func:`oracle_stackelberg`, and uniform jamming against
    :func:`oracle_jammer_br`'s ``trials`` allocations drawn from ``seed``.

    Returns the command's ten payload fields. ``accepted`` needs the grid
    search's payoff within a relative ``1e-6`` of the closed form and no
    sampled allocation below the uniform point's sum rate by more than the
    rounding slack (``jensen_dominance``).
    """
    closed = stackelberg_fixed(params)
    p_best, oracle_value = oracle_stackelberg(params)
    gap = abs(closed.payoff - oracle_value) / max(abs(closed.payoff), 1e-300)
    _, best_value = oracle_jammer_br(params, trials, seed)
    n, p_max, gamma, _, s2, j2 = params
    uniform_value = _uniform_sum_rate(n, p_max, gamma, s2, j2)
    # n * rate rounds once (eps / 2); the oracle's row sum of the uniform point adds
    # n rates, each within 2 ulps of that rate, and rounds by at most (n - 1) eps / 2.
    # Together (n / 2 + 2) eps of the value, within 2 n eps for n >= 2; at n = 1
    # both sums are exact and the rates' 2 ulps are within 2 eps.
    slack = 2 * n * sys.float_info.epsilon * uniform_value
    jensen_ok = uniform_value <= best_value + slack
    return {
        "allocation_samples": trials,
        "leader_grid_points": LEADER_GRID_POINTS,
        "closed_form_payoff": closed.payoff,
        "oracle_payoff": oracle_value,
        "oracle_p_best": p_best,
        "relative_gap": gap,
        "uniform_allocation_value": uniform_value,
        "best_sampled_allocation_value": best_value,
        "jensen_dominance": jensen_ok,
        "accepted": gap <= 1e-6 and jensen_ok,
    }
