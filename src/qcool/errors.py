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
    """Optimal-time search found no local optimum at all in the window."""


class ConstructionError(QcoolError):
    """A constructed matrix violates its defining invariant."""
