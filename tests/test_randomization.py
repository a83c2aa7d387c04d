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
from wskg.injection import CHUNK_TRIALS, chunked_grams, covariance
from wskg.randomization import verify_check
from wskg.rates import rate_array
from wskg.stochastic import _qpsk, gaussian_mi_from_cov

from conftest import SAMPLER_FAMILY_LEVEL, _two_sided_z

SEED = RngSeed(31337)


def make_params(p_max=2.0, gamma=4.0, sigma2=1.0, sigmaj2=1.0):
    return SystemParams(10, p_max, gamma, 2.0, sigma2, sigmaj2)


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


def test_randomized_key_rate_is_the_jammed_rate():
    # Randomized probing reduces injection to jamming: the Gaussian key rate
    # of the randomized looks, from the covariance of (z_a, z_b), is the
    # rate under jamming, rate_array(p_max, gamma). Four parameter sets drawn
    # log-uniform, p_max on [1, 100] and the rest on [0.1, 10], twenty
    # one-chunk replicates at each. The standard error comes from the
    # replicates, so the bound is Student's t with 19 degrees of freedom at
    # SAMPLER_FAMILY_LEVEL / 4 (about 4.49).
    sets, replicates = 4, 20
    bound = scipy.stats.t.ppf(1.0 - SAMPLER_FAMILY_LEVEL / sets / 2, replicates - 1)
    draws = np.random.default_rng(22)
    for s in range(sets):
        p_max, gamma, sigma2, sigmaj2 = np.exp(draws.uniform(np.log([1.0, 0.1, 0.1, 0.1]), np.log([100.0, 10, 10, 10])))
        params = make_params(p_max, gamma, sigma2, sigmaj2)
        rates = []
        for r in range(replicates):
            seed = SEED.with_stream(100 + s * replicates + r)
            (g,) = chunked_grams(params, CHUNK_TRIALS, seed, (randomize_trials,))
            rates.append(gaussian_mi_from_cov(covariance(g)[2:, 2:], 2))
        error = np.std(rates, ddof=1) / math.sqrt(replicates)
        assert abs(np.mean(rates) - rate_array(p_max, gamma, sigma2, sigmaj2)) <= bound * error


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
