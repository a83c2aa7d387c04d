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
    sample_complex_gaussian,
    sample_qpsk_pilot,
    verify_randomization,
)
from wskg.randomization import verify_check

from conftest import _two_sided_z

SEED = RngSeed(31337)


def make_params(p_max=2.0, gamma=4.0, sigma2=1.0, sigmaj2=1.0):
    return SystemParams(10, p_max, gamma, 2.0, sigma2, sigmaj2)


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
