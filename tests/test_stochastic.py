import ast
import inspect
import math
import re
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import wskg
from wskg import (
    NotPositiveSemidefinite,
    ParameterError,
    RngSeed,
    gaussian_mi_from_cov,
    ks_test_normal,
    sample_complex_gaussian,
    sample_qpsk_pilot,
)

from wskg.stochastic import BLOCK, _pilot_indices

from conftest import SAMPLER_FAMILY_LEVEL, _two_sided_z

SEED = RngSeed(20240815)


def test_same_seed_is_bit_identical():
    a = sample_complex_gaussian(1.0, 1000, SEED)
    b = sample_complex_gaussian(1.0, 1000, SEED)
    assert np.array_equal(a, b)
    qa = sample_qpsk_pilot(2.0, 1000, SEED)
    qb = sample_qpsk_pilot(2.0, 1000, SEED)
    assert np.array_equal(qa, qb)


def test_distinct_streams_are_uncorrelated():
    n = 1_000_000
    a = sample_complex_gaussian(1.0, n, SEED.with_stream(0)).real
    b = sample_complex_gaussian(1.0, n, SEED.with_stream(1)).real
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    # The sample correlation of independent draws has standard error 1/sqrt(n).
    assert abs(corr) <= _two_sided_z(1) / math.sqrt(n)  # about 3.29 / 1000


def test_complex_gaussian_moments():
    # Four checks. A complex variance v has standard error v / sqrt(n), a
    # real coordinate's variance s2 one of s2 sqrt(2 / n), and each
    # coordinate's mean one of sqrt(s2 / n); the modulus of the complex mean
    # is then Rayleigh in those units, exceeding z with probability
    # exp(-z^2 / 2).
    n, checks = 1_000_000, 4
    z_var = _two_sided_z(checks)  # about 3.66
    z = sample_complex_gaussian(1.0, n, SEED)
    assert abs(np.var(z) - 1.0) <= z_var * 1.0 / math.sqrt(n)
    z4 = sample_complex_gaussian(4.0, n, SEED.with_stream(3))
    for coordinate in (z4.real, z4.imag):
        assert abs(np.var(coordinate) - 2.0) <= z_var * 2.0 * math.sqrt(2.0 / n)
    z_mean = math.sqrt(2.0 * math.log(checks / SAMPLER_FAMILY_LEVEL))  # about 4.07
    assert abs(np.mean(z4)) <= z_mean * math.sqrt(2.0 / n)


def test_complex_gaussian_rejects_bad_variance():
    with pytest.raises(ParameterError):
        sample_complex_gaussian(0.0, 10, SEED)
    with pytest.raises(ParameterError):
        sample_complex_gaussian(-1.0, 10, SEED)
    with pytest.raises(ParameterError, match="^variance must be a real number, got '1'$"):
        sample_complex_gaussian("1", 10, SEED)
    with pytest.raises(ParameterError, match="count must be >= 0, got -1"):
        sample_complex_gaussian(1.0, -1, SEED)
    with pytest.raises(ParameterError, match="^count must be an integer, got 1.5$"):
        sample_complex_gaussian(1.0, 1.5, SEED)


def test_qpsk_constellation_exact_power():
    x = sample_qpsk_pilot(2.0, 10_000, SEED)
    assert np.all(x.real**2 + x.imag**2 == 2.0)
    points = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    assert set(np.unique(x)) == points
    assert np.all(sample_qpsk_pilot(0.0, 100, SEED) == 0.0)
    with pytest.raises(ParameterError, match="count must be >= 0, got -1"):
        sample_qpsk_pilot(2.0, -1, SEED)
    with pytest.raises(ParameterError):
        sample_qpsk_pilot(-2.0, 10, SEED)
    with pytest.raises(ParameterError, match="^pilot_power must be a real number, got '1'$"):
        sample_qpsk_pilot("1", 10, SEED)
    with pytest.raises(ParameterError, match="^count must be an integer, got 1.5$"):
        sample_qpsk_pilot(2.0, 1.5, SEED)


#: Family-wise false-rejection level of ``test_qpsk_points_equiprobable``'s
#: four per-point checks, each run at a quarter of it (Bonferroni).
QPSK_FAMILY_LEVEL = 0.001


def test_qpsk_points_equiprobable():
    n, p = 400_000, 0.25
    z = NormalDist().inv_cdf(1.0 - QPSK_FAMILY_LEVEL / 4 / 2)  # two-sided, about 3.66
    bound = z * math.sqrt(p * (1.0 - p) / n)
    x = sample_qpsk_pilot(2.0, n, SEED.with_stream(7))
    for point in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
        freq = np.mean(x == point)
        assert abs(freq - p) <= bound


def test_independent_pilots_have_zero_cross_moment():
    # Each coordinate of x y is -2, 0 or 2 with probabilities 1/4, 1/2, 1/4,
    # so has variance 2 and its mean a standard error of sqrt(2 / n); the
    # modulus of the mean is then Rayleigh in those units, exceeding z with
    # probability exp(-z^2 / 2).
    n = 1_000_000
    x = sample_qpsk_pilot(2.0, n, SEED.with_stream(11))
    y = sample_qpsk_pilot(2.0, n, SEED.with_stream(12))
    z = math.sqrt(2.0 * math.log(1.0 / SAMPLER_FAMILY_LEVEL))  # about 3.72
    assert abs(np.mean(x * y)) <= z * math.sqrt(2.0 / n)


def philox_state(rng):
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["buffer"].tolist(),
        state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


# Around one and two blocks of pilot bits.
PILOT_COUNTS = (0, 1, 2, 3, 10_001, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


@pytest.mark.parametrize("pre", (0, 1, 2, 3))  # an odd count leaves a spare 32-bit half
@pytest.mark.parametrize("count", PILOT_COUNTS)
@pytest.mark.parametrize("seed", (RngSeed(0), SEED.with_stream(3), RngSeed(2**64 - 1, 2**64 - 1)))
def test_pilot_indices_are_two_integer_draws(seed, count, pre):
    rng, ref = seed.generator(), seed.generator()
    rng.integers(0, 2, pre)
    ref.integers(0, 2, pre)
    index = _pilot_indices(rng, 2.0, count)
    expected = 2 * ref.integers(0, 2, count) + ref.integers(0, 2, count)
    assert index.dtype == np.uint8 and np.array_equal(index, expected)
    # The generator is left as the two draws leave it, stale half included.
    assert philox_state(rng) == philox_state(ref)
    assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))
    assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


def test_package_draws_through_generator_methods_alone():
    """No module reads a bit generator's raw words or its spare 32-bit half,
    and the one write of a generator's state is ``verify_randomization``'s
    restore of the state it saved before its first pass."""
    writes = []
    for path in sorted(Path(wskg.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"random_raw|has_uint32|uinteger", text), path.name
        writes += [
            (path.stem, ast.unparse(node))
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute) and target.attr == "state"
        ]
    assert writes == [("randomization", "rng.bit_generator.state = real_parts")]
    restore = inspect.getsource(wskg.verify_randomization)
    assert "real_parts = rng.bit_generator.state" in restore


def test_ks_accepts_own_gaussian_sampler():
    n = 1_000_000
    samples = sample_complex_gaussian(2.0, n, SEED.with_stream(2)).real
    report = ks_test_normal(samples, 1.0)
    assert report.n == n
    assert report.statistic < 1.95 / math.sqrt(n)
    assert report.p_value > 0.001


def test_ks_point_mass_statistic():
    report = ks_test_normal(np.zeros(1000), 1.0)
    assert report.statistic == pytest.approx(0.5, abs=1e-12)


def test_ks_rejects_gross_mismatch():
    u = SEED.with_stream(4).generator().uniform(-1.0, 1.0, 1_000_000)
    assert ks_test_normal(u, 1.0).p_value < 1e-6


def test_ks_input_validation():
    with pytest.raises(ParameterError):
        ks_test_normal(np.array([]), 1.0)
    with pytest.raises(ParameterError):
        ks_test_normal(np.ones(10), 0.0)
    with pytest.raises(ParameterError, match="^variance must be a real number, got '1'$"):
        ks_test_normal(np.ones(10), "1")


def test_gaussian_mi_single_look():
    cov = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert gaussian_mi_from_cov(cov, 1) == pytest.approx(0.5, abs=1e-12)


def test_gaussian_mi_two_looks():
    cov = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert gaussian_mi_from_cov(cov, 1) == pytest.approx(
        0.5 * math.log2(3.0), abs=1e-12
    )


def test_gaussian_mi_zero_cross_covariance():
    assert gaussian_mi_from_cov(np.diag([1.0, 2.0, 3.0]), 1) == 0.0


def test_gaussian_mi_invariant_under_block_rescaling():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(5, 5))
    cov = base @ base.T + 0.5 * np.eye(5)
    mi = gaussian_mi_from_cov(cov, 2)
    assert mi > 0
    block_t = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    block_o = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    transform = np.zeros((5, 5))
    transform[:2, :2] = block_t
    transform[2:, 2:] = block_o
    rescaled = transform @ cov @ transform.T
    rescaled = (rescaled + rescaled.T) / 2
    assert gaussian_mi_from_cov(rescaled, 2) == pytest.approx(mi, abs=1e-9)


def test_gaussian_mi_input_validation():
    with pytest.raises(ParameterError):
        gaussian_mi_from_cov(np.array([[1.0, 0.5], [0.0, 1.0]]), 1)
    with pytest.raises(ParameterError):
        gaussian_mi_from_cov(np.eye(3), 3)
    with pytest.raises(ParameterError, match="covariance must be square, got shape \\(2, 3\\)"):
        gaussian_mi_from_cov(np.ones((2, 3)), 1)
    with pytest.raises(ParameterError, match="covariance must be finite"):
        gaussian_mi_from_cov(np.array([[1.0, math.inf], [math.inf, 1.0]]), 1)
    with pytest.raises(NotPositiveSemidefinite):
        gaussian_mi_from_cov(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)
    for bad in (True, 1.5):
        with pytest.raises(ParameterError, match=f"^target_dim must be an integer, got {bad}$"):
            gaussian_mi_from_cov(np.eye(3), bad)


def test_psd_tolerance_scales_with_the_covariance():
    # A rank-3 PSD matrix at 1e20 scale: eigvalsh's rounding gives its zero
    # eigenvalues magnitudes far above 1e-9, which an absolute tolerance
    # rejected. The singular joint covariance means +inf bits.
    factor = np.random.default_rng(3).normal(size=(7, 3))
    cov = factor @ factor.T * 1e20
    assert np.linalg.eigvalsh(cov).min() < -1e-9
    assert gaussian_mi_from_cov(cov, 2) == math.inf
    with pytest.raises(NotPositiveSemidefinite, match="below"):
        gaussian_mi_from_cov(np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e20, 1)
