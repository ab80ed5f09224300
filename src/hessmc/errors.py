"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class NumericalError(Exception):
    """A solver or factorization failed to produce a usable result."""


class FactorizationError(NumericalError):
    """A matrix could not be factored, so nothing was solved with it."""
