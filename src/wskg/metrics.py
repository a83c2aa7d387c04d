"""Equilibrium-deviation and strategic-jammer comparison metrics, plus sweeps.

The three relative quantities emitted per operating point (columns ``f``,
``d``, ``e`` in sweep output) share the fixed-threshold equilibrium payoff as
denominator: ``f`` is the loss when the leader deviates to full power and is
jammed, ``d`` the loss when it deviates to the sensing threshold, ``e`` the
extra damage a jammer gains by choosing its own threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .errors import NumericalError, ParameterError, ZeroEquilibriumPayoff
from .game import critical_power, stackelberg_fixed, stackelberg_strategic
from .params import PowerAllocation, SystemParams
from .rates import sum_rate

_SWEEP_FIELDS = {
    "p_max": "max_pilot_power",
    "gamma": "jam_power_budget",
    "sigma2": "legit_channel_var",
    "p_th": "sense_threshold",
}

#: Numerical slack allowed below 0 for the relative metrics.
_METRIC_FLOOR = -1e-9


@dataclass(frozen=True)
class SweepRow:
    """One operating point: payoffs of the equilibrium and both deviations,
    plus the three relative metrics."""

    swept_value: float
    c_se: float
    c_full: float
    c_threshold: float
    f: float
    d: float
    e: float

    def __post_init__(self) -> None:
        for name in ("f", "d", "e"):
            value = getattr(self, name)
            if not math.isfinite(value) or not _METRIC_FLOOR <= value <= 1.0:
                raise NumericalError(f"metric {name} out of [0, 1]: {value!r}")


def _row(params: SystemParams, epsilon_policy: float, swept_value: float = math.nan) -> SweepRow:
    """Payoffs and the three relative metrics at one operating point, from a
    single fixed-threshold solve."""
    c_se = stackelberg_fixed(params).payoff
    if c_se <= 0.0:
        raise ZeroEquilibriumPayoff(
            "equilibrium payoff is zero; relative metrics are undefined"
        )
    c_full = sum_rate(params.max_pilot_power, PowerAllocation.uniform(params), params)
    deviation = min(params.sense_threshold, params.max_pilot_power)
    c_threshold = sum_rate(deviation, PowerAllocation.silent(params), params)
    c_strategic = stackelberg_strategic(params, epsilon_policy).payoff
    return SweepRow(
        swept_value=swept_value,
        c_se=c_se,
        c_full=c_full,
        c_threshold=c_threshold,
        f=(c_se - c_full) / c_se,
        d=(c_se - c_threshold) / c_se,
        e=(c_se - c_strategic) / c_se,
    )


def full_power_deviation_loss(params: SystemParams) -> float:
    """Relative sum rate lost if the leader leaves the equilibrium and
    transmits at full budget while the jammer spends its whole budget."""
    return _row(params, 0.5).f


def threshold_deviation_loss(params: SystemParams) -> float:
    """Relative sum rate lost if the leader deviates to the sensing threshold,
    staying undetected.

    A threshold above the leader budget is not a playable power, so the
    deviation power is capped at the budget (the deviation then coincides
    with the equilibrium and the loss is zero).
    """
    return _row(params, 0.5).d


def strategic_threshold_gain(params: SystemParams, epsilon_policy: float = 0.5) -> float:
    """Relative payoff the jammer gains by choosing its sensing threshold
    strategically instead of keeping it fixed."""
    return _row(params, epsilon_policy).e


def _knee_value(params: SystemParams, variable: str) -> float | None:
    """Swept value at which the leader budget equals the critical power."""
    j2 = params.jam_channel_var
    if variable == "p_max":
        return critical_power(params)
    if variable == "gamma":
        if params.sense_threshold <= 0.0:
            return None
        return (params.max_pilot_power / params.sense_threshold - 1.0) / j2
    if variable == "p_th":
        return params.max_pilot_power / (j2 * params.jam_power_budget + 1.0)
    return None  # the critical power does not depend on sigma2


def sweep(
    params: SystemParams,
    variable: str,
    lo: float,
    hi: float,
    steps: int,
    epsilon_policy: float = 0.5,
) -> List[SweepRow]:
    """Evaluate equilibrium payoffs and the three metrics along one parameter.

    The grid spans [lo, hi] inclusive with ``steps`` points; the value where
    the swept parameter crosses the critical-power knee is injected as an
    extra point when it falls strictly inside the range, since uniform grids
    miss the knife edge.
    """
    if variable not in _SWEEP_FIELDS:
        raise ParameterError(
            f"variable must be one of {sorted(_SWEEP_FIELDS)}, got {variable!r}"
        )
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
    if steps < 2:
        raise ParameterError(f"steps must be >= 2, got {steps}")
    grid = np.linspace(lo, hi, int(steps))
    knee = _knee_value(params, variable)
    if knee is not None and lo < knee < hi:
        grid = np.unique(np.append(grid, knee))
    field = _SWEEP_FIELDS[variable]
    return [
        _row(replace(params, **{field: float(value)}), epsilon_policy, float(value))
        for value in grid
    ]
