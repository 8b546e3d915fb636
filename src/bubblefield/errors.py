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
    """value as a float; InvalidInput for a boolean, NaN, or an infinity unless allowed."""
    x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    if math.isnan(x) or (math.isinf(x) and not allow_inf):
        kind = "a number" if allow_inf else "a finite number"
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    return x


def reals(name: str, value) -> np.ndarray:
    """value as a float array; InvalidInput for a boolean or non-finite entry."""
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        raise InvalidInput(f"{name} must hold numbers, not booleans, got {value!r}")
    x = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{name} must hold finite numbers, got {value!r}")
    return x
