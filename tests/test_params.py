import math

import numpy as np
import pytest

from wskg import (
    ALLOCATION_SUM_RTOL,
    EquilibriumResult,
    NumericalError,
    ParameterError,
    PowerAllocation,
    RngSeed,
    SystemParams,
    sweep,
)
from wskg.params import Profile


def make(**overrides):
    """SystemParams built by keyword, the reference values with ``overrides``."""
    values = {
        "n_subcarriers": 10,
        "max_pilot_power": 5.0,
        "jam_power_budget": 4.0,
        "sense_threshold": 2.0,
        "legit_channel_var": 1.0,
        "jam_channel_var": 1.0,
    }
    values.update(overrides)
    return SystemParams(**values)


def test_reference_record_is_valid():
    params = make(sense_threshold=2)
    assert params.n_subcarriers == 10
    assert params.max_pilot_power == 5.0
    assert isinstance(params.sense_threshold, float)


def test_zero_subcarriers_rejected():
    with pytest.raises(ParameterError):
        make(n_subcarriers=0)


def test_negative_power_rejected():
    with pytest.raises(ParameterError):
        make(max_pilot_power=-1.0)
    with pytest.raises(ParameterError):
        make(jam_power_budget=-0.5)


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            make(sense_threshold=bad)


def test_zero_variance_rejected():
    with pytest.raises(ParameterError):
        make(legit_channel_var=0.0)
    with pytest.raises(ParameterError):
        make(jam_channel_var=-1.0)


def test_non_integer_subcarriers_rejected():
    for bad in (10.0, 10.5):
        with pytest.raises(ParameterError):
            make(n_subcarriers=bad)


def test_bool_values_rejected():
    with pytest.raises(ParameterError):
        make(n_subcarriers=True)
    with pytest.raises(ParameterError):
        make(max_pilot_power=True)


def test_params_are_immutable(ref_params):
    with pytest.raises(AttributeError):
        ref_params.max_pilot_power = 1.0


#: Each validating record's fields at a valid point.
_VALID = {
    SystemParams: {"n_subcarriers": 10, "max_pilot_power": 5.0, "jam_power_budget": 4.0,
                   "sense_threshold": 2.0, "legit_channel_var": 1.0, "jam_channel_var": 1.0},
    PowerAllocation: {"gamma": (4.0,) * 10, "budget": 4.0},
    EquilibriumResult: {"profiles": (), "payoff": 1.0, "unique": True, "boundary_case": False},
}

#: (record, field, bad value, error, message).
_BAD_FIELDS = [
    (SystemParams, "n_subcarriers", 0, ParameterError, "n_subcarriers must be >= 1, got 0"),
    (SystemParams, "n_subcarriers", True, ParameterError, "n_subcarriers must be an integer, got True"),
    (SystemParams, "max_pilot_power", -1.0, ParameterError, "max_pilot_power must be >= 0, got -1.0"),
    (SystemParams, "jam_power_budget", math.nan, ParameterError, "jam_power_budget must be finite, got nan"),
    (SystemParams, "sense_threshold", "2", ParameterError, "sense_threshold must be a real number, got '2'"),
    (SystemParams, "legit_channel_var", 0.0, ParameterError, "legit_channel_var must be > 0, got 0.0"),
    (SystemParams, "jam_channel_var", -math.inf, ParameterError, "jam_channel_var must be finite, got -inf"),
    (PowerAllocation, "gamma", (), ParameterError, "allocation must cover at least one subcarrier"),
    (PowerAllocation, "gamma", (4.0,) * 9 + (-0.1,), ParameterError, "allocation entries must be >= 0, got -0.1"),
    (PowerAllocation, "gamma", (4.0,) * 9 + (1j,), ParameterError,
     "allocation entries must be real numbers: float() argument must be a string or a real number, not 'complex'"),
    (PowerAllocation, "gamma", (4.0,) * 9 + (math.nan,), ParameterError, "allocation entries must be finite, got nan"),
    (PowerAllocation, "budget", math.inf, ParameterError, "budget must be finite and >= 0, got inf"),
    (PowerAllocation, "budget", 3.0, ParameterError, "allocation sum 40.0 exceeds budget 10 * 3.0"),
    (EquilibriumResult, "payoff", math.inf, NumericalError, "equilibrium payoff is not finite: inf"),
]


@pytest.mark.parametrize("record, field, value, error, message", _BAD_FIELDS)
def test_records_validate_positional_and_keyword_construction(record, field, value, error, message):
    values = {**_VALID[record], field: value}
    for build in (lambda: record(*values.values()), lambda: record(**values)):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("variable, field, lo", [
    ("p_max", "max_pilot_power", -1.0),
    ("gamma", "jam_power_budget", -1e-300),
    ("p_th", "sense_threshold", -2.0),
    ("sigma2", "legit_channel_var", 0.0),
])
def test_sweep_validates_its_lowest_point_through_the_class(ref_params, variable, field, lo):
    with pytest.raises(ParameterError) as direct:
        SystemParams(**{**ref_params._asdict(), field: lo})
    with pytest.raises(ParameterError) as swept:
        sweep(ref_params, variable, lo, 8.0, 5)
    assert str(swept.value) == str(direct.value)


def test_records_coerce_to_float():
    params = SystemParams(3, 5, 4, 2, 1, 1)
    assert [type(value) for value in params] == [int] + [float] * 5
    allocation = PowerAllocation([1, 2], 2)
    assert allocation == ((1.0, 2.0), 2.0)
    assert type(allocation.gamma) is tuple and type(allocation.budget) is float


@pytest.mark.parametrize("record", [*_VALID, Profile])
def test_record_fields_cannot_be_assigned(record):
    values = _VALID.get(record, {"pilot_power": 1.0, "allocation": PowerAllocation((1.0,), 1.0)})
    built = record(**values)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(built, field, getattr(built, field))
    with pytest.raises(AttributeError):
        built.extra = 1.0


def test_allocation_accepts_budget_tight_vector(ref_params):
    alloc = PowerAllocation((4.0,) * 10, ref_params.jam_power_budget)
    assert math.fsum(alloc.gamma) == pytest.approx(40.0)
    assert PowerAllocation.uniform(ref_params).gamma == (4.0,) * 10
    assert PowerAllocation.silent(ref_params).gamma == (0.0,) * 10


def test_allocation_sum_above_budget_rejected(ref_params):
    over = 10 * 4.0 * (1.0 + 10 * ALLOCATION_SUM_RTOL)
    with pytest.raises(ParameterError):
        PowerAllocation((over / 10,) * 10, ref_params.jam_power_budget)


def test_allocation_negative_entry_rejected(ref_params):
    with pytest.raises(ParameterError):
        PowerAllocation((4.0,) * 9 + (-0.1,), ref_params.jam_power_budget)


def test_allocation_empty_rejected():
    with pytest.raises(ParameterError):
        PowerAllocation((), 4.0)


@pytest.mark.parametrize(
    "seed, stream, message",
    [
        (-1, 0, "seed must lie in [0, 2**64), got -1"),
        (2**64, 0, "seed must lie in [0, 2**64), got 18446744073709551616"),
        (0, -1, "stream must lie in [0, 2**64), got -1"),
        (0, 2**64, "stream must lie in [0, 2**64), got 18446744073709551616"),
        (1.5, 0, "seed must be an integer, got 1.5"),
        ("3", 0, "seed must be an integer, got '3'"),
        (True, 0, "seed must be an integer, got True"),
        (0, 2.0, "stream must be an integer, got 2.0"),
        (0, False, "stream must be an integer, got False"),
    ],
    ids=["negative-seed", "seed-2**64", "negative-stream", "stream-2**64", "float-seed", "str-seed",
         "bool-seed", "float-stream", "bool-stream"],
)
def test_generator_rejects_numbers_outside_64_bits(seed, stream, message):
    # Reduced mod 2**64, each would draw the bits of a seed inside the range;
    # a bool would draw seed 1's, and a float or a string fail in the generator.
    with pytest.raises(ParameterError) as info:
        RngSeed(seed, stream).generator()
    assert str(info.value) == message


def test_seed_range_is_checked_at_construction():
    """An ``RngSeed`` outside the range is never built, so the check does
    not wait for a generator (nor for numpy, which ``generator`` loads)."""
    with pytest.raises(ParameterError, match=r"^seed must lie in \[0, 2\*\*64\), got -1$"):
        RngSeed(-1)
    with pytest.raises(ParameterError, match=r"^stream must lie in \[0, 2\*\*64\), got 18446744073709551616$"):
        RngSeed(0).with_stream(2**64)
    assert RngSeed(seed=3) == (3, 0)


def test_generator_accepts_both_ends_of_the_range():
    top = 2**64 - 1
    draws = [RngSeed(seed, stream).generator().random() for seed in (0, top) for stream in (0, top)]
    assert len(set(draws)) == 4
    # numpy integers are accepted and stored as ints, with the same bits.
    assert RngSeed(np.int64(3), np.int8(1)) == (3, 1)
    seed = RngSeed(np.uint64(top), np.uint64(top))
    assert [type(word) for word in seed] == [int, int]
    assert seed.generator().random() == draws[3]
