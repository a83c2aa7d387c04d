"""Shared parameter and strategy types with their validity invariants.

All power and variance quantities are linear (never dB). Every type here is
immutable after construction, so values can be shared freely across workers.

The records are named tuples: they iterate in field order and have
``_asdict``. The validating ones check their fields in ``__new__``, which
``_make`` and ``_replace`` skip, so build them through the class.

Every number, here, in ``stochastic``'s samplers and ``target_dim``, in
``rates.sum_rate``'s ``p``, ``injection.pool_size``'s ``workers``, the
kernels' and ``chunked_grams``' ``n_trials``, ``verify_randomization``'s
``n_samples``, ``oracle_jammer_br``'s ``samples`` and ``metrics.sweep``'s
``steps``, goes through one of two checks: an integer is taken by
``__index__`` and, where it has a floor, held to it in the same call
(``stochastic.MIN_TRIALS`` for ``n_samples``), a real number is a finite
``int`` or ``float``, neither is a bool, and each raises ``ParameterError``.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from .errors import NumericalError, ParameterError

if TYPE_CHECKING:
    import numpy as np

#: Relative slack on the allocation sum constraint, absorbing float accumulation
#: when budget-tight vectors are assembled in floating point.
ALLOCATION_SUM_RTOL = 1e-12


def _require_integer(name: str, value: object, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``: any type with ``__index__`` but bool. Below
    ``minimum``, when given, it raises ``{name} must be >= {minimum}, got
    {value}`` with the ``int``, so a numpy integer prints as a plain one."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_real(name: str, value: object, positive: bool = False) -> float:
    """``value`` as a finite float >= 0, > 0 if ``positive``: an int or float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the largest float
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if value < 0.0 or positive and value == 0.0:
        raise ParameterError(f"{name} must be {'>' if positive else '>='} 0, got {value}")
    return value


# A NamedTuple class may not define ``__new__``, so each validating record
# subclasses a tuple of its fields; the base's ``__new__`` binds the
# arguments, positional or keyword, before the subclass checks them.
class _SystemParams(NamedTuple):
    n_subcarriers: int
    max_pilot_power: float
    jam_power_budget: float
    sense_threshold: float
    legit_channel_var: float
    jam_channel_var: float


class SystemParams(_SystemParams):
    """Scalar model parameters of the jammed key-generation channel.

    n_subcarriers: number of parallel fading blocks probed per round.
    max_pilot_power: leader's per-subcarrier pilot power budget.
    jam_power_budget: jammer's average per-subcarrier power budget.
    sense_threshold: pilot power above which the jammer detects a transmission.
    legit_channel_var: variance of the fading gain between the legitimate users.
    jam_channel_var: variance scale of the fading gains on the jammer's links.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SystemParams":
        n, *raw = super().__new__(cls, *args, **kwargs)
        n = _require_integer("n_subcarriers", n, 1)
        reals = [_require_real(name, value, positive=name.endswith("_var"))
                 for name, value in zip(cls._fields[1:], raw)]
        return super().__new__(cls, n, *reals)


class _PowerAllocation(NamedTuple):
    gamma: Tuple[float, ...]
    budget: float


class PowerAllocation(_PowerAllocation):
    """Per-subcarrier jamming powers under an average-power budget.

    The sum constraint ``sum(gamma) <= len(gamma) * budget`` is enforced at
    construction with a small relative slack (:data:`ALLOCATION_SUM_RTOL`).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PowerAllocation":
        gamma, budget = super().__new__(cls, *args, **kwargs)
        try:
            entries = iter(gamma)
        except TypeError as exc:
            raise ParameterError(f"allocation entries must be real numbers: {exc}") from None
        gamma = tuple(_require_real("allocation entries", g) for g in entries)
        if not gamma:
            raise ParameterError("allocation must cover at least one subcarrier")
        budget = _require_real("budget", budget)
        # Comparing the mean, not the sum, keeps finite entries from overflowing.
        mean = math.fsum(g / len(gamma) for g in gamma)
        if mean > budget * (1.0 + ALLOCATION_SUM_RTOL):
            raise ParameterError(
                f"allocation sum {mean * len(gamma)} exceeds budget {len(gamma)} * {budget}"
            )
        return super().__new__(cls, gamma, budget)

    @classmethod
    def uniform(cls, params: SystemParams) -> "PowerAllocation":
        """Full budget spread evenly over all subcarriers."""
        return cls(
            (params.jam_power_budget,) * params.n_subcarriers,
            params.jam_power_budget,
        )

    @classmethod
    def silent(cls, params: SystemParams) -> "PowerAllocation":
        """No jamming power anywhere."""
        return cls((0.0,) * params.n_subcarriers, params.jam_power_budget)


class _RngSeed(NamedTuple):
    seed: int
    stream: int = 0


class RngSeed(_RngSeed):
    """Seed plus substream id addressing one stream of a counter-based RNG.

    Each is an integer in ``[0, 2**64)``, stored as an ``int``, as a word of
    a Philox key that a number outside would alias. A named tuple, so it
    equals the plain tuple ``(seed, stream)``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RngSeed":
        words = []
        for name, value in zip(cls._fields, super().__new__(cls, *args, **kwargs)):
            value = _require_integer(name, value)
            if not 0 <= value < 2**64:
                raise ParameterError(f"{name} must lie in [0, 2**64), got {value}")
            words.append(value)
        return super().__new__(cls, *words)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream); same pair, same output."""
        import numpy as np

        return np.random.Generator(np.random.Philox(key=(self.stream << 64) | self.seed))

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


class Profile(NamedTuple):
    """One strategy profile: the leader's pilot power, the jammer's
    allocation, and its sensing threshold when that threshold is itself part
    of the jammer's strategy."""

    pilot_power: float
    allocation: PowerAllocation
    threshold: Optional[float] = None


class _EquilibriumResult(NamedTuple):
    profiles: Tuple[Profile, ...]
    payoff: float
    unique: bool
    boundary_case: bool


class EquilibriumResult(_EquilibriumResult):
    """Stackelberg solution: one or more strategy profiles sharing a payoff.

    ``payoff`` is the sum rate over all subcarriers, in bits per
    ``n_subcarriers`` channel uses. ``boundary_case`` flags the knife-edge
    where the leader budget equals the critical power and two profiles tie.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "EquilibriumResult":
        result = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(result.payoff):
            raise NumericalError(f"equilibrium payoff is not finite: {result.payoff!r}")
        return result
