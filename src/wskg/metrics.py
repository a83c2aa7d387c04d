"""Equilibrium-deviation and strategic-jammer comparison metrics, plus sweeps.

The three relative quantities emitted per operating point (columns ``f``,
``d``, ``e`` in sweep output) share the fixed-threshold equilibrium payoff as
denominator: ``f`` is the loss when the leader deviates to full power and is
jammed, ``d`` the loss when it deviates to the sensing threshold, ``e`` the
extra damage a jammer gains by choosing its own threshold. ``e`` equals
``f``: a jammer that picks its own threshold senses every positive pilot, and
the rate rises with pilot power (``tests/test_identities.py`` proves it), so
the leader's best reply is full power under uniform jamming, which is the
full-power deviation.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

from .errors import NumericalError, ParameterError, ZeroEquilibriumPayoff
from .game import _fixed_payoffs, critical_power
from .params import SystemParams, _require_integer

_SWEEP_FIELDS = {
    "p_max": "max_pilot_power",
    "gamma": "jam_power_budget",
    "sigma2": "legit_channel_var",
    "p_th": "sense_threshold",
}

#: Numerical slack allowed below 0 for the relative metrics; a value in
#: the slack is round-off at the knee and is emitted as 0.0.
_METRIC_SLACK = -1e-9


class SweepRow(NamedTuple):
    """One operating point: payoffs of the equilibrium and both deviations,
    plus the three relative metrics."""

    swept_value: float
    c_se: float
    c_full: float
    c_threshold: float
    f: float
    d: float
    e: float


#: The sweep CSV's header: the row fields in order.
CSV_HEADER = ",".join(SweepRow._fields)


def linspace(lo: float, hi: float, num: int) -> List[float]:
    """The bits of ``np.linspace(lo, hi, num).tolist()`` for ``num >= 2``.

    numpy computes ``i * step + lo`` with ``step = (hi - lo) / (num - 1)``,
    or ``i / (num - 1) * (hi - lo) + lo`` when the step underflows to zero,
    and sets the last point to ``hi``.
    """
    lo, hi, div = float(lo), float(hi), num - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + lo for i in range(num)]
    else:
        values = [i * step + lo for i in range(num)]
    values[-1] = hi
    return values


def _row(value: float, c_se: float, c_full: float, c_threshold: float) -> SweepRow:
    """The sweep row of one operating point; raises its first failed check,
    in solve order."""
    if not math.isfinite(c_se):
        raise NumericalError(f"equilibrium payoff is not finite: {c_se!r}")
    if c_se <= 0.0:
        raise ZeroEquilibriumPayoff(
            "equilibrium payoff is zero; relative metrics are undefined"
        )
    if not math.isfinite(c_full):
        raise NumericalError(f"full-power payoff is not finite: {c_full!r}")
    f = (c_se - c_full) / c_se
    d = (c_se - c_threshold) / c_se
    for name, metric in (("f", f), ("d", d)):
        if not _METRIC_SLACK <= metric <= 1.0:
            raise NumericalError(f"metric {name} out of [0, 1]: {metric!r}")
    f, d = max(f, 0.0), max(d, 0.0)
    return SweepRow(value, c_se, c_full, c_threshold, f, d, f)


def _rows(params: SystemParams, field: str, values) -> List[SweepRow]:
    """Payoffs and the three relative metrics at each value of one field,
    the other fields held at ``params``.

    Every point is solved before any row is checked, so a knife-edge
    disagreement anywhere is reported before a failed check at an earlier
    point, and failed checks in point order.
    """
    args, slot = list(params), SystemParams._fields.index(field)
    payoffs = []
    for value in map(float, values):
        args[slot] = value
        payoffs.append((value, *_fixed_payoffs(*args)[:3]))
    return [_row(*payoff) for payoff in payoffs]


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
    steps = _require_integer("steps", steps, 2)
    field = _SWEEP_FIELDS[variable]
    # Every field's domain is bounded below and lo is the smallest grid
    # value, so validating it validates the whole grid. Built through the
    # class: ``_replace`` would skip the validation.
    SystemParams(**{**params._asdict(), field: float(lo)})
    grid = linspace(lo, hi, steps)
    knee = _knee_value(params, variable)
    if knee is not None and lo < knee < hi:
        # The grid holds no -0.0 (its first point is 0 * step + lo), so the
        # set drops only copies with the same bits, as np.unique does.
        grid = sorted({*grid, knee})
    return _rows(params, field, grid)


def sweep_payload(params: SystemParams, variable: str, lo: float, hi: float, steps: int) -> dict:
    """``wskg sweep``'s payload: the grid's ends and size, and :func:`sweep`'s rows."""
    return {"variable": variable, "lo": lo, "hi": hi, "steps": steps, "rows": sweep(params, variable, lo, hi, steps)}
