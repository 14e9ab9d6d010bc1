"""Exception types shared across the package."""


class MelnlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MelnlabError):
    """Invalid or malformed system configuration."""


class DomainError(MelnlabError):
    """Argument outside the mathematical domain of an operation."""


class SequencingError(MelnlabError):
    """Lower-order data required by a recursion step is not available."""


class NumericalError(MelnlabError):
    """A numerical routine failed to reach its accuracy target.

    Carries optional diagnostics (interval, degrees tried, tail size).
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class EventDegeneracyError(MelnlabError):
    """Trajectory meets the switching set tangentially (or starts on it)."""


class EscapeError(MelnlabError):
    """Trajectory left the admissible radial annulus."""
