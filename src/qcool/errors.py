"""Exception types shared across the package."""


class QcoolError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QcoolError):
    """Invalid or inconsistent run configuration."""


class TruncationError(QcoolError):
    """Population leaked past the retained Fock/excitation range."""

    def __init__(self, message, leakage=None):
        super().__init__(message)
        self.leakage = leakage


class SearchFailureError(QcoolError):
    """Optimal-time search found no admissible optimum in the window."""

    def __init__(self, message, best_t=None, best_residual=None):
        super().__init__(message)
        self.best_t = best_t
        self.best_residual = best_residual


class ConstructionError(QcoolError):
    """A constructed matrix violates its defining invariant."""
