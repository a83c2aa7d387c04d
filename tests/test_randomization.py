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
from wskg.randomization import verify_check
from wskg.stochastic import _qpsk

from conftest import SAMPLER_FAMILY_LEVEL, _two_sided_z

SEED = RngSeed(31337)


def make_params(p_max=2.0, gamma=4.0, sigma2=1.0, sigmaj2=1.0):
    return SystemParams(10, p_max, gamma, 2.0, sigma2, sigmaj2)


def test_zero_pilot_power_gives_zero_observations():
    params = make_params(p_max=0.0)
    batch = randomize_trials(params, 1000, SEED)
    assert np.all(batch.z_a == 0.0)
    assert np.all(batch.z_b == 0.0)


def test_observation_cross_moment_is_common_source_power():
    # Two checks. With S = XYH ~ CN(0, v), v = P^2 s2, U = W + N_a and
    # V = W + N_b, Z_a conj(Z_b) - v is |S|^2 - v plus three terms that are
    # uncorrelated with it and with each other, of second moments P v (q + 1)
    # twice and P^2 E|U|^2|V|^2 = P^2 ((q + 1)^2 + q^2), q = j2 G. Only
    # |S|^2 - v has a pseudo-variance, v^2, so the real part carries it.
    n = 1_000_000
    params = make_params(p_max=2.0, sigma2=1.0)
    batch = randomize_trials(params, n, SEED)
    cross = np.mean(batch.z_a * np.conj(batch.z_b))
    p = params.max_pilot_power
    v = p * p * params.legit_channel_var
    q = params.jam_channel_var * params.jam_power_budget
    imag_var = p * v * (q + 1.0) + p * p * ((q + 1.0) ** 2 + q * q) / 2.0
    z = _two_sided_z(2)  # about 3.48
    assert abs(cross.real - v) <= z * math.sqrt((v * v + imag_var) / n)
    assert abs(cross.imag) <= z * math.sqrt(imag_var / n)


def test_scrambled_injection_copies_are_uncorrelated():
    params = make_params()
    seed = SEED.with_stream(1)
    batch = randomize_trials(params, 1_000_000, seed)
    # randomize_trials draws Alice's pilots first, then Bob's, from the seed.
    rng = seed.generator()
    x, y = (_qpsk(rng, params.max_pilot_power, 1_000_000) for _ in range(2))
    xw = x * batch.injected
    yw = y * batch.injected
    # X conj(Y) |W|^2 is P c |W|^2, c uniform on {1, i, -1, -i}, so each
    # coordinate of the mean has standard error P q / sqrt(n), q = j2 G,
    # independently; the modulus of the mean is Rayleigh in those units.
    n = x.size
    q = params.jam_channel_var * params.jam_power_budget
    z = math.sqrt(2.0 * math.log(1.0 / SAMPLER_FAMILY_LEVEL))  # about 3.72
    assert abs(np.mean(xw * np.conj(yw))) <= z * params.max_pilot_power * q / math.sqrt(n)


def test_injected_value_decorrelates_from_observations():
    params = make_params()
    batch = randomize_trials(params, 1_000_000, SEED.with_stream(2))
    n = batch.z_a.size
    # Eight checks. For a coordinate w of W and z of Z_a or Z_b, E[w z] = 0
    # and E[w^2 z^2] = q v / 4 + P q^2 / 2 + P q / 4, with q = j2 G and
    # v = P^2 s2: the XW term adds a fourth moment of W.
    p = params.max_pilot_power
    v = p * p * params.legit_channel_var
    q = params.jam_channel_var * params.jam_power_budget
    bound = _two_sided_z(8) * math.sqrt((q * v / 4.0 + p * q * q / 2.0 + p * q / 4.0) / n)
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
    # A hundred checks: each count is binomial(n, 1/100).
    expected = n / 100.0
    assert np.max(np.abs(counts - expected)) <= _two_sided_z(100) * math.sqrt(expected * 0.99)


def test_verify_randomization_reference_case():
    params = make_params(p_max=2.0, sigma2=1.0)
    n = 1_000_000
    report = verify_randomization(params, n, SEED.with_stream(5))
    # One moment check beside the two KS tests: the real part of the source
    # is N(0, 2), and a normal sample variance s2 has standard error
    # s2 sqrt(2 / n).
    assert abs(report.source_real_var - 2.0) <= _two_sided_z(1) * 2.0 * math.sqrt(2.0 / n)
    assert report.ks_product.p_value > 0.001
    assert report.ks_source.p_value > 0.001


def test_verify_check_keeps_scipys_p_value():
    # scipy.special's ndtr and kolmogorov give this p-value; the port keeps their bits.
    verdict = verify_check(SystemParams(10, 2, 4, 2, 1, 1), 20000, RngSeed(7))
    assert verdict["ks_source"]["p_value"] == 0.4781976144831221


def test_pilot_channel_product_variance():
    n = 1_000_000
    x = sample_qpsk_pilot(2.0, n, SEED.with_stream(6))
    h = sample_complex_gaussian(1.0, n, SEED.with_stream(7))
    # x.real is +-1 and h.real N(0, 1/2), so the product is N(0, 1/2).
    assert abs(np.var(x.real * h.real) - 0.5) <= _two_sided_z(1) * 0.5 * math.sqrt(2.0 / n)


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
    with pytest.raises(ParameterError, match="^n_samples must be >= 10000, got 9999$"):
        verify_randomization(make_params(), 9_999, SEED)
    for bad in (1e4, "20000"):
        with pytest.raises(ParameterError, match=f"^n_samples must be an integer, got {bad!r}$"):
            verify_randomization(make_params(), bad, SEED)
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
