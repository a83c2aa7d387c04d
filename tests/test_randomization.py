import math

import numpy as np
import pytest
import scipy.stats

from wskg import (
    ParameterError,
    RngSeed,
    SystemParams,
    ks_test_normal,
    leakage_after_randomization,
    leakage_bound,
    randomize_trials,
    sample_complex_gaussian,
    sample_qpsk_pilot,
    verify_randomization,
)
from wskg.stochastic import _qpsk

SEED = RngSeed(31337)


def make_params(p_max=2.0, gamma=4.0, sigma2=1.0, sigmaj2=1.0):
    return SystemParams(10, p_max, gamma, 2.0, sigma2, sigmaj2)


def test_zero_pilot_power_gives_zero_observations():
    params = make_params(p_max=0.0)
    batch = randomize_trials(params, 1000, SEED)
    assert np.all(batch.z_a == 0.0)
    assert np.all(batch.z_b == 0.0)


def test_observation_cross_moment_is_common_source_power():
    params = make_params(p_max=2.0, sigma2=1.0)
    batch = randomize_trials(params, 1_000_000, SEED)
    cross = np.mean(batch.z_a * np.conj(batch.z_b))
    expected = params.max_pilot_power**2 * params.legit_channel_var
    assert cross.real == pytest.approx(expected, rel=0.02)
    assert abs(cross.imag) < 0.02 * expected


def test_scrambled_injection_copies_are_uncorrelated():
    params = make_params()
    seed = SEED.with_stream(1)
    batch = randomize_trials(params, 1_000_000, seed)
    # randomize_trials draws Alice's pilots first, then Bob's, from the seed.
    rng = seed.generator()
    x, y = (_qpsk(rng, params.max_pilot_power, 1_000_000) for _ in range(2))
    xw = x * batch.injected
    yw = y * batch.injected
    bound = 0.01 * (
        params.jam_channel_var * params.jam_power_budget * params.max_pilot_power
    )
    assert abs(np.mean(xw * np.conj(yw))) < bound


def test_injected_value_decorrelates_from_observations():
    params = make_params()
    batch = randomize_trials(params, 1_000_000, SEED.with_stream(2))
    n = batch.z_a.size
    w_var = params.jam_channel_var * params.jam_power_budget / 2.0
    z_var = float(np.var(batch.z_a.real))
    bound = 5.0 * math.sqrt(w_var * z_var / n)
    for w_part in (batch.injected.real, batch.injected.imag):
        for z_part in (batch.z_a.real, batch.z_a.imag, batch.z_b.real, batch.z_b.imag):
            cov = np.mean(w_part * z_part) - np.mean(w_part) * np.mean(z_part)
            assert abs(cov) < bound


def test_product_histogram_matches_density():
    n = 1_000_000
    power, s2 = 2.0, 1.0
    x = sample_qpsk_pilot(power, n, SEED.with_stream(3))
    h = sample_complex_gaussian(s2, n, SEED.with_stream(4))
    product = x.real * h.real
    sigma = math.sqrt(power * s2 / 4.0)
    inner_edges = scipy.stats.norm.ppf(np.linspace(0, 1, 101)[1:-1], scale=sigma)
    counts = np.bincount(np.searchsorted(inner_edges, product), minlength=100)
    expected = n / 100.0
    assert np.max(np.abs(counts - expected)) < 5.0 * math.sqrt(expected)


def test_verify_randomization_reference_case():
    params = make_params(p_max=2.0, sigma2=1.0)
    report = verify_randomization(params, 1_000_000, SEED.with_stream(5))
    assert report.source_real_var == pytest.approx(2.0, rel=0.01)
    assert report.ks_product.p_value > 0.001
    assert report.ks_source.p_value > 0.001


def test_pilot_channel_product_variance():
    n = 1_000_000
    x = sample_qpsk_pilot(2.0, n, SEED.with_stream(6))
    h = sample_complex_gaussian(1.0, n, SEED.with_stream(7))
    assert np.var(x.real * h.real) == pytest.approx(0.5, rel=0.01)


def test_all_four_real_products_are_gaussian():
    n = 200_000
    power, s2 = 2.0, 1.0
    x = sample_qpsk_pilot(power, n, SEED.with_stream(8))
    h = sample_complex_gaussian(s2, n, SEED.with_stream(9))
    variance = power * s2 / 4.0
    for product in (
        x.real * h.real,
        x.imag * h.imag,
        x.imag * h.real,
        x.real * h.imag,
    ):
        assert ks_test_normal(product, variance).p_value > 0.001


def test_verify_randomization_validation():
    with pytest.raises(ParameterError):
        verify_randomization(make_params(), 5000, SEED)
    with pytest.raises(ParameterError):
        verify_randomization(make_params(p_max=0.0), 20_000, SEED)


def test_leakage_collapses_after_randomization():
    params = make_params()
    randomized = leakage_after_randomization(params, 100_000, SEED.with_stream(10))
    assert 0.0 <= randomized < 0.01
    silent = leakage_after_randomization(
        make_params(gamma=0.0), 100_000, SEED.with_stream(11)
    )
    assert 0.0 <= silent < 0.01
    static = leakage_bound(params, 100_000, SEED.with_stream(10))
    assert static > 0.1 > randomized


def test_leakage_after_randomization_requires_enough_trials():
    with pytest.raises(ParameterError):
        leakage_after_randomization(make_params(), 500, SEED)
