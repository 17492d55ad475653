"""Exception types shared across disclab modules."""


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
