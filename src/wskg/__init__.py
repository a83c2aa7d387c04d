"""Toolkit for wireless secret-key generation under active attack.

Covers the coincident-injection attack and its randomized-QPSK-probing
defense over a block-fading AWGN channel, the reactive-jammer power game and
its Stackelberg solutions, and brute-force oracles cross-checking every
closed form.

The public names are resolved on first access (PEP 562), so ``import wskg``
loads no submodule and each name loads only the module that defines it.
``wskg.X`` always reads ``wskg.<module>.X``: nothing is cached here.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("NotPositiveSemidefinite", "NumericalError", "ParameterError",
                   "ZeroEquilibriumPayoff"),
        "game": ("critical_power", "oracle_jammer_br", "oracle_stackelberg", "stackelberg_fixed",
                 "stackelberg_strategic"),
        "injection": ("coincidence_precoder", "gram", "leakage_bound", "mi_from_gram",
                      "randomize_trials", "simulate_two_look"),
        "metrics": ("sweep",),
        "params": ("ALLOCATION_SUM_RTOL", "EquilibriumResult", "PowerAllocation", "RngSeed",
                   "SystemParams"),
        "randomization": ("leakage_after_randomization", "verify_randomization"),
        "rates": ("rate_array", "sum_rate"),
        "stochastic": ("gaussian_mi_from_cov", "ks_test_normal", "sample_complex_gaussian",
                       "sample_qpsk_pilot"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
