"""Exception types shared across disclab modules, and the integer check
that their bounds share."""

import numbers


class DisclabError(Exception):
    """Base class for all disclab errors."""


class ConfigurationError(DisclabError):
    """Invalid configuration value or malformed config file."""


class OutOfRangeError(DisclabError, ValueError):
    """Argument outside the supported range (e.g. beyond a sieve table)."""


class DomainError(DisclabError, ValueError):
    """Input violates a mathematical precondition of the requested quantity."""


class UnsupportedError(DisclabError):
    """Exact evaluation is not available for this input; refuse, never guess."""


class ModelError(DisclabError):
    """A sequence model violates one of its structural requirements."""


class ResourceError(DisclabError):
    """Resource budget exceeded."""


def require_integers(**values) -> None:
    """Refuse, with DomainError, any of the named values that is not an
    integer (a Python or numpy integer): a float bound such as 1e4 or 1.5."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
