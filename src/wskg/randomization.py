"""Random QPSK probing defense and its statistical verification.

Both parties probe with independent random QPSK pilots X and Y and
post-multiply their observation by their own pilot. The common term X Y H
remains exactly complex Gaussian, while the injected term decorrelates from
both post-multiplied observations, reducing the injection to plain
uncorrelated jamming (``tests/test_identities.py`` proves the zero
cross-covariances). So the second-order (covariance) leakage estimate
collapses to zero. The injected value is uncorrelated with the looks, not
independent of them, and the exact ``I(W; Z_a, Z_b)`` is not computed yet.

Its Monte Carlo kernel, ``randomize_trials``, lives in :mod:`wskg.injection`,
beside the other kernel and the buffer layout both write into.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .injection import chunked_grams, mi_from_gram, randomize_trials
from .params import RngSeed, SystemParams, _require_integer
from .stochastic import (
    KS_SIGNIFICANCE,
    MIN_TRIALS,
    KsReport,
    _pilot_indices,
    _qpsk_points,
    _scaled_normal,
    _variance,
    ks_test_normal,
)


@dataclass(frozen=True)
class RandomizationReport:
    """Goodness-of-fit evidence that the randomized source is exactly Gaussian.

    ``ks_product`` tests the real pilot-channel product against
    N(0, P * s^2 / 4); ``ks_source`` tests the real part of the full
    randomized source against N(0, P^2 * s^2 / 2); ``source_real_var`` is the
    empirical variance behind the second test.
    """

    ks_product: KsReport
    ks_source: KsReport
    source_real_var: float


#: Samples per block of :func:`verify_randomization`'s streamed draws: 128 KB
#: of complex values per block temporary.
VERIFY_BLOCK = 1 << 13


def _law_variances(params: SystemParams):
    """Variances of the product's and the source's laws, as RandomizationReport names them."""
    power, s2 = params.max_pilot_power, params.legit_channel_var
    return power * s2 / 4.0, power * power * s2 / 2.0


def verify_randomization(
    params: SystemParams, n_samples: int, seed: RngSeed
) -> RandomizationReport:
    """Sample the defense's product laws and KS-test them against their
    claimed Gaussian forms."""
    n_samples = _require_integer("n_samples", n_samples, MIN_TRIALS)
    power, s2 = params.max_pilot_power, params.legit_channel_var
    if power <= 0.0:
        raise ParameterError("max_pilot_power must be > 0 to verify the defense")
    product_var, source_var = _law_variances(params)
    # The QPSK points and h are drawn with scales sqrt(p_max / 2) and
    # sqrt(sigma2 / 2), and the samples are tested against the two laws'
    # variances. If any of these is not a normal float, a draw or a sample
    # overflows or loses the bits the test resolves (every h is 0 once
    # sigma2 / 2 underflows): a numerical failure, not a rejection.
    for name, value in (("p_max / 2", power / 2.0), ("sigma2 / 2", s2 / 2.0),
                        ("product variance", product_var), ("source variance", source_var)):
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise NumericalError(f"{name} is not a normal float: {value!r}")
    # The draws of _qpsk and _complex_normal. x's point indices are drawn
    # whole and shifted left by 2, then y's are drawn and ORed in: one byte
    # per pilot pair (4 * x + y). Pass 1 draws h's real parts whole into
    # ``product``, turns them into the product block by block and KS-tests
    # it. Pass 2 draws them again, from the state saved before them, into
    # ``source_real``, and h's imaginary parts, which follow them, block by
    # block. So only one tested array is alive at a time.
    rng = seed.generator()
    pilots = _pilot_indices(rng, power, n_samples)
    pilots <<= 2
    pilots |= _pilot_indices(rng, power, n_samples)
    scale = math.sqrt(s2 / 2.0)
    points = _qpsk_points(power)
    blocks = [slice(start, start + VERIFY_BLOCK) for start in range(0, n_samples, VERIFY_BLOCK)]
    real_parts = rng.bit_generator.state
    product = _scaled_normal(rng, scale, np.empty(n_samples))
    for s in blocks:
        product[s] *= points.take(pilots[s] >> 2).real
    ks_product = ks_test_normal(product, product_var, overwrite_input=True)
    del product
    rng.bit_generator.state = real_parts
    source_real = _scaled_normal(rng, scale, np.empty(n_samples))
    imag = np.empty(VERIFY_BLOCK)
    h = np.empty(VERIFY_BLOCK, dtype=complex)
    for s in blocks:
        hs = h[: source_real[s].size]
        hs.real, hs.imag = source_real[s], _scaled_normal(rng, scale, imag[: hs.size])
        x, y = points.take(pilots[s] >> 2), points.take(pilots[s] & 3)
        # Named operands: numpy may multiply a temporary operand in place
        # with the operands swapped, and a fused complex multiply is not
        # symmetric in its last bit. Products stay complex: numpy may fuse
        # a*c - b*d into one rounding.
        source_real[s] = (x * y * hs).real
    del pilots
    with np.errstate(over="ignore"):  # an overflowed variance is returned as inf
        # np.var's bits, before the sort: the sum order sets them.
        source_real_var = _variance(source_real)
    ks_source = ks_test_normal(source_real, source_var, overwrite_input=True)
    return RandomizationReport(
        ks_product=ks_product, ks_source=ks_source, source_real_var=source_real_var
    )


def verify_check(params: SystemParams, trials: int, seed: RngSeed) -> dict:
    """``wskg verify-randomization``'s seven payload fields: the report, the
    source law's variance, and ``accepted``, both p-values above ``KS_SIGNIFICANCE``."""
    report = verify_randomization(params, trials, seed)
    return {
        "trials": trials,
        "ks_product": asdict(report.ks_product),
        "ks_source": asdict(report.ks_source),
        "source_real_var": report.source_real_var,
        "expected_source_real_var": _law_variances(params)[1],
        "significance": KS_SIGNIFICANCE,
        "accepted": report.ks_product.p_value > KS_SIGNIFICANCE and report.ks_source.p_value > KS_SIGNIFICANCE,
    }


def leakage_after_randomization(params: SystemParams, n_trials: int, seed: RngSeed) -> float:
    """Second-order leakage estimate under randomized probing; vanishes as
    trials grow.

    All second moments between the injected value and the post-multiplied
    observations are zero, so the Gaussian MI estimate is pure sampling noise.
    It does not bound the exact ``I(W; Z_a, Z_b)``, which is not computed:
    the injected value is uncorrelated with the looks, not independent of them.
    Runs on :func:`~wskg.injection.chunked_grams`, as the ``leakage``
    command's randomized stage does.
    """
    (total,) = chunked_grams(params, n_trials, seed, (randomize_trials,))
    return mi_from_gram(total)
