import math

import numpy as np
import pytest
import scipy.stats

from wskg import (
    ParameterError,
    RngSeed,
    SystemParams,
    gaussian_mi_from_cov,
    gram,
    ks_test_normal,
    leakage_bound,
    mi_from_gram,
    randomize_trials,
    simulate_two_look,
)
from wskg.injection import CHUNK_TRIALS, coincidence_precoder, covariance

from conftest import SAMPLER_FAMILY_LEVEL, _two_sided_z

SEED = RngSeed(77001)


def make_params(p_max=2.0, gamma=4.0, sigma2=1.0, sigmaj2=1.0):
    return SystemParams(10, p_max, gamma, 2.0, sigma2, sigmaj2)


def precoded_gains(h_a1, h_a2, h_b1, h_b2):
    """Antenna weights of the unit-power coincidence precoder and the gains
    they give at Alice and at Bob."""
    ratio, norm = coincidence_precoder(h_a2, h_b2, h_a1 - h_b1)
    p1, p2 = ratio / norm, 1.0 / norm
    return p1, p2, h_a1 * p1 + h_a2 * p2, h_b1 * p1 + h_b2 * p2


def channels(*gains):
    """Each gain as a one-entry complex array."""
    return [np.array([g], dtype=complex) for g in gains]


def test_precoder_symmetric_channels():
    # h_a = (1, 0), h_b = (0, 1): ratio 1.
    p1, p2, at_alice, at_bob = precoded_gains(*channels(1, 0, 0, 1))
    assert p1 == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert p2 == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert at_alice == pytest.approx(p2)
    assert at_bob == pytest.approx(p2)


def test_precoder_ratio_and_coincidence():
    # h_a = (2, 1), h_b = (1, 3): ratio 2, norm sqrt(5).
    p1, p2, at_alice, at_bob = precoded_gains(*channels(2, 1, 1, 3))
    assert p1 == pytest.approx(2.0 * p2, rel=1e-15)
    assert at_alice == pytest.approx(5.0 * p2, rel=1e-12)
    assert at_bob == pytest.approx(5.0 * p2, rel=1e-12)


def test_precoder_coincidence_and_budget_over_random_draws():
    rng = np.random.default_rng(5150)
    scale = math.sqrt(0.5 / 2.0)  # per-component std for entry variance 1/2
    gains = rng.normal(0.0, scale, (8, 20_000))
    p1, p2, at_alice, at_bob = precoded_gains(*(gains[0::2] + 1j * gains[1::2]))
    assert np.max(np.abs(np.abs(p1) ** 2 + np.abs(p2) ** 2 - 1.0)) <= 1e-12
    assert np.max(np.abs(at_alice - at_bob) / np.abs(at_alice)) <= 1e-10


def test_precoded_injection_has_the_drawn_law():
    # simulate_two_look draws the injected value W ~ CN(0, sigmaj2 gamma),
    # independent of the rest of the trial. Here W comes from the attack
    # itself: drawn gains through the precoder, driven at 2 sqrt(gamma).
    # Three checks at SAMPLER_FAMILY_LEVEL / 3: KS tests of W's real and
    # imaginary parts against N(0, sigmaj2 gamma / 2), and a z-test of the
    # correlation of |W|^2 with the precoder's |ratio|^2. That ratio is
    # F(2, 2) distributed, with no finite mean, so the test correlates
    # ranks, whose correlation has variance 1 / (n - 1) under independence.
    params = make_params(gamma=3.0, sigmaj2=0.6)
    n, checks = 100_000, 3
    scale = math.sqrt(params.jam_channel_var / 4.0)  # entry variance jam_channel_var / 2
    gains = np.random.default_rng(4242).normal(0.0, scale, (8, n))
    h_a1, h_a2, h_b1, h_b2 = gains[0::2] + 1j * gains[1::2]
    ratio, norm = coincidence_precoder(h_a2, h_b2, h_a1 - h_b1)
    injected = 2.0 * math.sqrt(params.jam_power_budget) * (h_a1 * ratio + h_a2) / norm
    variance = params.jam_channel_var * params.jam_power_budget
    for part in (injected.real, injected.imag):
        assert ks_test_normal(part, variance / 2.0).p_value > SAMPLER_FAMILY_LEVEL / checks
    ranks = [np.argsort(np.argsort(values)) for values in (np.abs(injected) ** 2, np.abs(ratio) ** 2)]
    correlation = np.corrcoef(ranks)[0, 1]
    assert abs(correlation) * math.sqrt(n - 1) <= _two_sided_z(checks)


def test_simulation_is_deterministic():
    params = make_params()
    a = simulate_two_look(params, 1000, SEED)
    b = simulate_two_look(params, 1000, SEED)
    assert np.array_equal(a.z_a, b.z_a)
    assert np.array_equal(a.injected, b.injected)


def test_simulated_injection_variance_matches_model():
    # Three checks. |W|^2 is exponential with mean q = gamma sigmaj2 and
    # |d|^2, for the look difference d, with mean 2, so each complex
    # variance v has standard error v / sqrt(n). W and d are independent
    # with E|d|^2 |W|^2 = 2 q, so each coordinate of mean(d conj(W)) has
    # standard error sqrt(q / n) and its modulus is Rayleigh in those units.
    params = make_params(gamma=4.0, sigmaj2=1.0)
    n, checks, q = 200_000, 3, 4.0
    batch = simulate_two_look(params, n, SEED)
    z_var = _two_sided_z(checks)  # about 3.59
    assert abs(np.var(batch.injected) - q) <= z_var * q / math.sqrt(n)
    # the injected value cancels between the looks, leaving only noise
    diff = batch.z_a - batch.z_b
    assert abs(np.var(diff) - 2.0) <= z_var * 2.0 / math.sqrt(n)
    z_mean = math.sqrt(2.0 * math.log(checks / SAMPLER_FAMILY_LEVEL))  # about 4.00
    assert abs(np.mean(diff * np.conj(batch.injected))) <= z_mean * math.sqrt(q / n)


def test_zero_budget_simulation_is_noise_only():
    params = make_params(gamma=0.0)
    n = 100_000
    batch = simulate_two_look(params, n, SEED)
    assert np.all(batch.injected == 0.0)
    assert abs(np.var(batch.z_a - batch.z_b) - 2.0) <= _two_sided_z(1) * 2.0 / math.sqrt(n)


def test_simulate_rejects_bad_trial_count():
    with pytest.raises(ParameterError):
        simulate_two_look(make_params(), 0, SEED)
    with pytest.raises(ParameterError, match="n_trials must be >= 1, got 0"):
        randomize_trials(make_params(), 0, SEED)
    with pytest.raises(ParameterError, match="^n_trials must be an integer, got 2.0$"):
        simulate_two_look(make_params(), 2.0, SEED)
    with pytest.raises(ParameterError, match="^n_trials must be an integer, got True$"):
        randomize_trials(make_params(), True, SEED)


def test_leakage_positive_and_near_analytic_value():
    # Two looks at the injected value, no fading masking, unit noise: with
    # a = p_max sigma2 and v = sigmaj2 gamma, the leakage is
    # log2((1 + 2 (a + v)) / (1 + 2 a)) (tests/test_identities.py), about
    # log2(3) here. Twenty one-chunk replicates; the standard error comes
    # from them, so the bound is Student's t with 19 degrees of freedom at
    # SAMPLER_FAMILY_LEVEL (about 3.88 standard errors, about 0.006 bits).
    # The plug-in estimate's bias, about 9e-5 bits at one chunk, is under a
    # tenth of a standard error.
    params = SystemParams(1, 2.0, 1.0, 2.0, 1e-12, 1.0)
    a = params.max_pilot_power * params.legit_channel_var
    v = params.jam_channel_var * params.jam_power_budget
    expected = math.log2((1 + 2 * (a + v)) / (1 + 2 * a))
    replicates = 20
    estimates = [leakage_bound(params, CHUNK_TRIALS, SEED.with_stream(r)) for r in range(replicates)]
    assert min(estimates) > 0.0
    bound = scipy.stats.t.ppf(1.0 - SAMPLER_FAMILY_LEVEL / 2, replicates - 1)
    error = np.std(estimates, ddof=1) / math.sqrt(replicates)
    assert abs(np.mean(estimates) - expected) <= bound * error


def test_leakage_zero_budget_is_exactly_zero():
    assert leakage_bound(make_params(gamma=0.0), 20_000, SEED) == 0.0


def test_leakage_decreases_with_fading_masking():
    low = leakage_bound(make_params(sigma2=0.25), 100_000, SEED)
    high = leakage_bound(make_params(sigma2=4.0), 100_000, SEED)
    assert low > high > 0.0


def test_leakage_positive_whenever_injection_runs():
    rng = np.random.default_rng(99)
    for i in range(5):
        params = SystemParams(
            1,
            float(rng.uniform(0.0, 6.0)),
            float(rng.uniform(0.1, 6.0)),
            1.0,
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        assert leakage_bound(params, 20_000, SEED.with_stream(i)) > 0.0


def test_leakage_requires_enough_trials():
    with pytest.raises(ParameterError):
        leakage_bound(make_params(), 5000, SEED)


@pytest.mark.parametrize("simulate", [simulate_two_look, randomize_trials])
def test_gram_of_chunks_sums_to_the_mean_centred_covariance(simulate):
    params = make_params()
    chunks = [simulate(params, n, SEED.with_stream(i)) for i, n in enumerate((30_000, 12_345))]
    total = gram(chunks[0]) + gram(chunks[1])
    assert total[0, 0] == 42_345

    def coordinates(name):
        values = np.concatenate([getattr(b, name) for b in chunks])
        return [values.real, values.imag]

    # Reference: np.cov of the concatenated real coordinates.
    rows = np.vstack(coordinates("injected") + coordinates("z_a") + coordinates("z_b"))
    reference = np.cov(rows)
    np.testing.assert_allclose(covariance(total), reference, rtol=1e-9, atol=0)
    expected = gaussian_mi_from_cov(reference, target_dim=2)
    assert mi_from_gram(total) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_mi_from_gram_requires_enough_trials():
    with pytest.raises(ParameterError, match="got 9999"):
        mi_from_gram(gram(simulate_two_look(make_params(), 9_999, SEED)))
