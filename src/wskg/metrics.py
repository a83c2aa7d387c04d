"""Equilibrium-deviation and strategic-jammer comparison metrics, plus sweeps.

The three relative quantities emitted per operating point (columns ``f``,
``d``, ``e`` in sweep output) share the fixed-threshold equilibrium payoff as
denominator: ``f`` is the loss when the leader deviates to full power and is
jammed, ``d`` the loss when it deviates to the sensing threshold, ``e`` the
extra damage a jammer gains by choosing its own threshold. ``e`` equals
``f``: a jammer that picks its own threshold senses every positive pilot, so
the leader's best reply is full power under uniform jamming, which is the
full-power deviation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import List

import numpy as np

from .errors import NumericalError, ParameterError, ZeroEquilibriumPayoff
from .game import _fixed_payoffs, critical_power
from .params import SystemParams

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


def _reject_point(c_se: float, c_full: float, f: float, d: float) -> None:
    """Raise the first failed check of one operating point, in solve order."""
    if not math.isfinite(c_se):
        raise NumericalError(f"equilibrium payoff is not finite: {c_se!r}")
    if c_se <= 0.0:
        raise ZeroEquilibriumPayoff(
            "equilibrium payoff is zero; relative metrics are undefined"
        )
    if not math.isfinite(c_full):
        raise NumericalError(f"equilibrium payoff is not finite: {c_full!r}")
    for name, value in (("f", f), ("d", d)):
        if not _METRIC_FLOOR <= value <= 1.0:
            raise NumericalError(f"metric {name} out of [0, 1]: {value!r}")


@np.errstate(divide="ignore", invalid="ignore")
def _rows(params: SystemParams, field: str, values) -> List[SweepRow]:
    """Payoffs and the three relative metrics at each value of one field,
    the other fields held at ``params``, in one array pass."""
    values = np.asarray(values, dtype=float)
    c_se, c_full, c_threshold, _, _ = _fixed_payoffs(
        *{**asdict(params), field: values}.values()
    )
    f = (c_se - c_full) / c_se
    d = (c_se - c_threshold) / c_se
    # A zero or non-finite payoff makes f or d fall outside [0, 1] as well.
    ok = (f >= _METRIC_FLOOR) & (f <= 1.0) & (d >= _METRIC_FLOOR) & (d <= 1.0)
    if not ok.all():
        i = int(np.argmin(ok))
        _reject_point(c_se[i].item(), c_full[i].item(), f[i].item(), d[i].item())
    columns = (values, c_se, c_full, c_threshold, f, d, f)
    return [SweepRow(*row) for row in zip(*(column.tolist() for column in columns))]


def strategic_threshold_gain(params: SystemParams) -> float:
    """Relative payoff the jammer gains by choosing its sensing threshold
    strategically instead of keeping it fixed: column ``e`` of the sweep row
    at ``params``, which equals the full-power deviation loss ``f`` in this
    model."""
    return _rows(params, "max_pilot_power", [params.max_pilot_power])[0].e


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
    params: SystemParams, variable: str, lo: float, hi: float, steps: int
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
    field = _SWEEP_FIELDS[variable]
    # Every field's domain is bounded below and lo is the smallest grid
    # value, so validating it validates the whole grid.
    replace(params, **{field: float(lo)})
    grid = np.linspace(lo, hi, int(steps))
    knee = _knee_value(params, variable)
    if knee is not None and lo < knee < hi:
        grid = np.unique(np.append(grid, knee))
    return _rows(params, field, grid)
