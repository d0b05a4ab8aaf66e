"""Type, finiteness and range checks shared by the constructors, which get
config values as parsed JSON: a bool, a string or a non-finite number is
rejected on entry instead of failing deep inside a run."""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np


def require_int(name: str, value, lo: int | None = None, choices: tuple | None = None) -> None:
    """An integer (not a bool, float or str), at least lo or one of choices."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")


def require_real(name: str, value, sign: str | None = None) -> None:
    """A finite real number (not a bool, str or None), optionally with
    sign "positive" or "nonnegative"."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if (sign == "positive" and not value > 0) or (sign == "nonnegative" and not value >= 0):
        raise ValueError(f"{name} must be {sign}, got {value!r}")


def require_reals(name: str, values, min_len: int = 0, sign: str | None = None) -> None:
    """A 1-D list, tuple or array of at least min_len numbers, each checked
    by require_real."""
    if isinstance(values, (str, bytes)) or np.ndim(values) != 1 or len(values) < min_len:
        raise TypeError(f"{name} must be a list of at least {min_len} numbers, got {values!r}")
    for v in values:
        require_real(f"{name} entry", v, sign)
