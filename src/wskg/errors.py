"""Exception types shared across the package: each is a ParameterError
(exit code 1) or a NumericalError (exit code 2)."""


class ParameterError(ValueError):
    """A model parameter, strategy, or run configuration is out of domain."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where a finite result is required."""


class NotPositiveSemidefinite(NumericalError):
    """Covariance matrix has an eigenvalue below the PSD tolerance."""


class ZeroEquilibriumPayoff(ParameterError):
    """Comparison metric undefined because the equilibrium payoff is zero."""
