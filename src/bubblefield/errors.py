"""Shared exception bases and the number checks of the option types.

Every module defines its own concrete exceptions; they all derive from one
of the two bases below so the CLI can map failures to exit codes
(InvalidInput -> 1, NumericalFailure -> 2).
"""

import math

import numpy as np


class BubblefieldError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(BubblefieldError):
    """Rejected user-supplied data or parameters."""


class NumericalFailure(BubblefieldError):
    """A numerical procedure could not complete."""


def real(name: str, value, allow_inf: bool = False) -> float:
    """value as a float; InvalidInput unless it is a finite number (or an infinity, if allowed).

    Text is rejected even where float() would read it, and so is a boolean.
    """
    if isinstance(value, (str, bytes)):
        raise InvalidInput(f"{name} must be a number, not text, got {value!r}")
    try:
        x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidInput(f"{name} must be a number, got {value!r}") from e
    if math.isnan(x) or (math.isinf(x) and not allow_inf):
        kind = "a number" if allow_inf else "a finite number"
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    return x


def reals(name: str, value) -> np.ndarray:
    """value as a float array; InvalidInput unless every entry is a finite number.

    Text is rejected even where numpy would read it, and so is a boolean.
    """
    entries = np.asarray(value, dtype=object).flat
    if any(isinstance(x, (str, bytes, bool, np.bool_)) for x in entries):
        raise InvalidInput(f"{name} must hold numbers, not text or booleans, got {value!r}")
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidInput(f"{name} must hold numbers, got {value!r}") from e
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{name} must hold finite numbers, got {value!r}")
    return x
