"""Exception types shared across disclab modules, and the checks that
their bounds share: integers, and the one window rule."""

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


def require_integers(**values) -> tuple[int, ...]:
    """The named values as ints, in order.  Refuse, with DomainError, any
    that is not an integer (a Python or numpy integer): a float bound such
    as 1e4 or 1.5."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    return tuple(map(int, values.values()))


def require_window(lo, hi, width: int, top: int) -> tuple[int, int]:
    """[lo, hi] as ints, the one rule for a window's bounds: DomainError for
    a non-integer end or anything but 1 <= lo <= hi, ResourceError for more
    than width integers or an end past top.  Budgets: the sieve's
    (sequences.MAX_WINDOW, MAX_TABLE_LIMIT) and the kernel's (harness._KERNEL)."""
    lo, hi = require_integers(lo=lo, hi=hi)
    if not 1 <= lo <= hi:
        raise DomainError(f"bad window [{lo}, {hi}]")
    if hi - lo + 1 > width:
        raise ResourceError(f"window [{lo}, {hi}] too wide: more than {width} integers")
    if hi > top:
        raise ResourceError(f"window [{lo}, {hi}] ends past {top}")
    return lo, hi
