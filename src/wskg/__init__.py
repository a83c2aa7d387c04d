"""Toolkit for wireless secret-key generation under active attack.

Covers the coincident-injection attack and its randomized-QPSK-probing
defense over a block-fading AWGN channel, the reactive-jammer power game and
its Stackelberg solutions, and brute-force oracles cross-checking every
closed form.
"""

from .errors import (
    NearSingularChannels,
    NotPositiveSemidefinite,
    NumericalError,
    ParameterError,
    ZeroEquilibriumPayoff,
)
from .game import (
    OracleConfig,
    critical_power,
    jammer_br_fixed,
    jammer_br_strategic,
    oracle_jammer_br,
    oracle_stackelberg,
    stackelberg_fixed,
    stackelberg_strategic,
)
from .injection import (
    MisoChannels,
    compute_precoder,
    gram,
    injected_signal,
    leakage_bound,
    mi_from_gram,
    simulate_two_look,
)
from .metrics import (
    full_power_deviation_loss,
    strategic_threshold_gain,
    sweep,
    threshold_deviation_loss,
)
from .params import (
    ALLOCATION_SUM_RTOL,
    EquilibriumResult,
    JammerStrategy,
    LeaderStrategy,
    PowerAllocation,
    SystemParams,
    validate_params,
)
from .randomization import (
    leakage_after_randomization,
    product_pdf,
    randomize_trials,
    verify_randomization,
)
from .rates import rate_array, skg_rate, sum_rate
from .stochastic import (
    RngSeed,
    gaussian_mi_from_cov,
    ks_test_normal,
    sample_complex_gaussian,
    sample_qpsk_pilot,
)

__version__ = "0.1.0"

__all__ = [
    "ALLOCATION_SUM_RTOL",
    "EquilibriumResult",
    "JammerStrategy",
    "LeaderStrategy",
    "MisoChannels",
    "NearSingularChannels",
    "NotPositiveSemidefinite",
    "NumericalError",
    "OracleConfig",
    "ParameterError",
    "PowerAllocation",
    "RngSeed",
    "SystemParams",
    "ZeroEquilibriumPayoff",
    "compute_precoder",
    "critical_power",
    "full_power_deviation_loss",
    "gaussian_mi_from_cov",
    "gram",
    "injected_signal",
    "jammer_br_fixed",
    "jammer_br_strategic",
    "ks_test_normal",
    "leakage_after_randomization",
    "leakage_bound",
    "mi_from_gram",
    "oracle_jammer_br",
    "oracle_stackelberg",
    "product_pdf",
    "randomize_trials",
    "rate_array",
    "sample_complex_gaussian",
    "sample_qpsk_pilot",
    "simulate_two_look",
    "skg_rate",
    "stackelberg_fixed",
    "stackelberg_strategic",
    "strategic_threshold_gain",
    "sum_rate",
    "sweep",
    "threshold_deviation_loss",
    "validate_params",
    "verify_randomization",
]
