"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A model parameter, strategy, or run configuration is out of domain."""


class NotPositiveSemidefinite(ValueError):
    """Covariance matrix has an eigenvalue below the PSD tolerance."""


class ZeroEquilibriumPayoff(ValueError):
    """Comparison metric undefined because the equilibrium payoff is zero."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where a finite result is required."""
