import math

import numpy as np
import pytest
import scipy.stats

from wskg import (
    NumericalError,
    ParameterError,
    RngSeed,
    SystemParams,
    gaussian_mi_from_cov,
    gram,
    ks_test_normal,
    leakage_after_randomization,
    leakage_bound,
    mi_from_gram,
    randomize_trials,
    rate_array,
    simulate_two_look,
)
from wskg.injection import (
    CHUNK_TRIALS,
    chunked_grams,
    coincidence_precoder,
    covariance,
    model_covariance,
    stage_model,
)

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
    # simulate_two_look draws the injected value W ~ CN(0, sigmaj2 gamma), at
    # its stage model's variance, independent of the rest of the trial. Here
    # W comes from the attack itself: drawn gains through the precoder,
    # driven at 2 sqrt(gamma). Three checks at SAMPLER_FAMILY_LEVEL / 3: KS
    # tests of W's real and imaginary parts against N(0, sigmaj2 gamma / 2),
    # and a z-test of the correlation of |W|^2 with the precoder's
    # |ratio|^2. That ratio is F(2, 2) distributed, with no finite mean, so
    # the test correlates ranks, whose correlation has variance 1 / (n - 1)
    # under independence.
    params = make_params(gamma=3.0, sigmaj2=0.6)
    n, checks = 100_000, 3
    scale = math.sqrt(params.jam_channel_var / 4.0)  # entry variance jam_channel_var / 2
    gains = np.random.default_rng(4242).normal(0.0, scale, (8, n))
    h_a1, h_a2, h_b1, h_b2 = gains[0::2] + 1j * gains[1::2]
    ratio, norm = coincidence_precoder(h_a2, h_b2, h_a1 - h_b1)
    injected = 2.0 * math.sqrt(params.jam_power_budget) * (h_a1 * ratio + h_a2) / norm
    variance = stage_model(params, False).variances[1]
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


@pytest.mark.parametrize("kernel", [simulate_two_look, randomize_trials])
def test_kernel_covariance_matches_its_stage_model(kernel):
    # Five parameter sets: three drawn log-uniform, p_max on [1, 100] and
    # the rest on [0.1, 10], one without injection and one without pilot
    # power. At each, twenty one-chunk replicates of the kernel's covariance
    # against model_covariance, over the 21 entries of the upper triangle.
    # The standard error comes from the replicates, so the bound is
    # Student's t with 19 degrees of freedom at SAMPLER_FAMILY_LEVEL / (5 * 21)
    # (about 5.97). An entry that the model and every replicate hold at
    # exactly 0 (W's at gamma = 0, the randomized looks' at p_max = 0) has
    # no spread, so it is checked exactly.
    draws = np.exp(np.random.default_rng(24).uniform(np.log([1.0, 0.1, 0.1, 0.1]), np.log([100.0, 10, 10, 10]), (3, 4)))
    sets = [*(make_params(*d) for d in draws), make_params(gamma=0.0), make_params(p_max=0.0)]
    replicates, upper = 20, np.triu_indices(6)
    bound = scipy.stats.t.ppf(1.0 - SAMPLER_FAMILY_LEVEL / (len(sets) * upper[0].size) / 2, replicates - 1)
    for s, params in enumerate(sets):
        expected = model_covariance(stage_model(params, kernel is randomize_trials))[upper]
        seeds = (SEED.with_stream(s * replicates + r) for r in range(replicates))
        estimates = np.array([covariance(chunked_grams(params, CHUNK_TRIALS, seed, (kernel,))[0])[upper]
                              for seed in seeds])
        error = np.std(estimates, axis=0, ddof=1) / math.sqrt(replicates)
        assert np.all(np.abs(np.mean(estimates, axis=0) - expected) <= bound * error), params


def test_stage_models_meet_their_closed_forms():
    # At 1000 parameter sets, each of p_max, gamma, sigma2 and sigmaj2 drawn
    # log-uniform on [1e-3, 1e3]: the static leakage is the closed form
    # that tests/test_identities.py proves; the randomized W-look block is
    # exactly 0, so that leakage is exactly 0.0; and the MI of the
    # randomized looks is rate_array's key rate. gaussian_mi_from_cov
    # subtracts log-determinants, each off by a few eps times its own size
    # plus about dim eps cond(C) from the roundings of the factorization and
    # of the model's entries. So each MI may miss by 4 eps times the sum,
    # over its three blocks, of |ln det| + dim cond(C), in bits; the worst
    # seen is under half an eps of that sum.
    def tolerance(c):
        blocks = (c, c[:2, :2], c[2:, 2:])
        scale = sum(abs(np.linalg.slogdet(b)[1]) + len(b) * np.linalg.cond(c) for b in blocks)
        return 4.0 * np.finfo(float).eps * scale / (2.0 * math.log(2.0))

    draws = np.random.default_rng(2024)
    for _ in range(1000):
        p_max, gamma, sigma2, sigmaj2 = np.exp(draws.uniform(np.log(1e-3), np.log(1e3), 4))
        params = make_params(p_max, gamma, sigma2, sigmaj2)
        static = model_covariance(stage_model(params, False))
        a, v = p_max * sigma2, sigmaj2 * gamma
        expected = math.log2((1 + 2 * (a + v)) / (1 + 2 * a))
        assert abs(gaussian_mi_from_cov(static, 2) - expected) <= tolerance(static)
        randomized = model_covariance(stage_model(params, True))
        assert not randomized[:2, 2:].any()
        assert gaussian_mi_from_cov(randomized, 2) == 0.0
        looks = randomized[2:, 2:]
        assert abs(gaussian_mi_from_cov(looks, 2) - rate_array(p_max, gamma, sigma2, sigmaj2)) <= tolerance(looks)


@pytest.mark.parametrize("gamma, sigmaj2, half", [(1e-323, 1.0, "5e-324"), (1e308, 10.0, "inf")])
def test_both_stages_refuse_the_same_injected_variance(gamma, sigmaj2, half):
    # Either kernel draws W's parts at variance sigmaj2 gamma / 2, which
    # must be a normal float.
    params = make_params(gamma=gamma, sigmaj2=sigmaj2)
    for estimate in (leakage_bound, leakage_after_randomization):
        with pytest.raises(NumericalError, match=rf"^sigmaj2 \* gamma / 2 is not a normal float: {half}$"):
            estimate(params, 20_000, SEED)


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
    # Two looks at the injected value, no fading masking, unit noise: the
    # static stage model's Gaussian leakage, about log2(3) here (its closed
    # form is checked by test_stage_models_meet_their_closed_forms). Twenty
    # one-chunk replicates; the standard error comes from them, so the
    # bound is Student's t with 19 degrees of freedom at
    # SAMPLER_FAMILY_LEVEL (about 3.88 standard errors, about 0.006 bits).
    # The plug-in estimate's bias, about 9e-5 bits at one chunk, is under a
    # tenth of a standard error.
    params = SystemParams(1, 2.0, 1.0, 2.0, 1e-12, 1.0)
    expected = gaussian_mi_from_cov(model_covariance(stage_model(params, False)), 2)
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
