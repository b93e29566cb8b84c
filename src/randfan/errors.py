"""Exceptions shared across the package, and the one rule for numeric input."""

import math

import numpy as np

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


class ValidationError(ValueError):
    """Caller-supplied input violates a documented precondition."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""


def check_int(value, name: str, lo=-math.inf, hi=math.inf) -> int:
    """value as a Python int, if it is a Python or numpy integer in [lo, hi].
    bool, float, str, None and all else are rejected, never truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], got {value}")
    return value


def check_real(value, name: str, lo=-math.inf, hi=math.inf, *, exclusive: bool = False) -> float:
    """value as a Python float, if it is a finite Python or numpy number in
    [lo, hi], or in (lo, hi) when exclusive.  bool, str and None are rejected."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    inside = lo < number < hi if exclusive else lo <= number <= hi
    if not (inside and math.isfinite(number)):
        interval = f"({lo}, {hi})" if exclusive else f"[{lo}, {hi}]"
        raise ValidationError(f"{name} must be a finite number in {interval}, got {value!r}")
    return number
