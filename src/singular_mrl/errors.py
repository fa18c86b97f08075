"""Exception types shared across the package."""


class SingularMrlError(Exception):
    """Base class for all library errors."""


class DomainError(SingularMrlError, ValueError):
    """An evaluation point lies outside the distribution's support [0, 1]."""


class ParameterError(SingularMrlError, ValueError):
    """A configuration or family parameter is invalid (e.g. p <= 0)."""


class ResourceLimitError(SingularMrlError, RuntimeError):
    """A computation would exceed a configured resource cap."""


class ConvergenceError(SingularMrlError, RuntimeError):
    """A solver failed to converge or to certify its root, or a scan's count was not 1."""
