import dataclasses
import math

import pytest

from wskg import (
    ALLOCATION_SUM_RTOL,
    ParameterError,
    PowerAllocation,
    SystemParams,
)


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
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref_params.max_pilot_power = 1.0


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
