"""Exceptions shared across the package, and the one rule for numeric input."""

import math
import reprlib
import sys


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than str() converts: named by its size
            return f"<int of {x.bit_length()} bits>"


#: reprlib's repr of an offending value: a few dozen characters at most, so
#: an error message stays short whatever the input.
brief = _Brief().repr


def _numpy_types(*names) -> tuple:
    """numpy's types of these names, each () while numpy is not loaded: no
    numpy value exists until it is, so an isinstance check needs no import."""
    numpy = sys.modules.get("numpy")
    return tuple(getattr(numpy, name) if numpy else () for name in names)


class ValidationError(ValueError):
    """Caller-supplied input violates a documented precondition."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""


def check_int(value, name: str, lo=-math.inf, hi=math.inf) -> int:
    """value as a Python int, if it is a Python or numpy integer in [lo, hi].
    bool, float, str, None and all else are rejected, never truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, *_numpy_types("integer"))):
        raise ValidationError(f"{name} must be an integer, got {brief(value)}")
    value = int(value)
    if not lo <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], got {brief(value)}")
    return value


def check_real(value, name: str, lo=-math.inf, hi=math.inf, *, exclusive: bool = False) -> float:
    """value as a Python float, if it is a finite Python or numpy number in
    [lo, hi], or in (lo, hi) when exclusive; -0.0 is returned as 0.0.  bool,
    str and None are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, *_numpy_types("integer", "floating"))):
        raise ValidationError(f"{name} must be a real number, got {brief(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    inside = lo < number < hi if exclusive else lo <= number <= hi
    if not (inside and math.isfinite(number)):
        interval = f"({lo}, {hi})" if exclusive else f"[{lo}, {hi}]"
        raise ValidationError(f"{name} must be a finite number in {interval}, got {brief(value)}")
    return number + 0.0  # -0.0 + 0.0 is 0.0
