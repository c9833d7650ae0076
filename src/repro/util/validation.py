"""Argument-validation helpers shared across the library.

All raise ``ValueError``/``TypeError`` with messages that name the offending
argument, so failures deep inside an experiment point at the actual culprit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_1d",
    "check_2d",
    "check_positive",
    "check_probability",
    "check_in_range",
]


def check_1d(x, name: str = "x", *, min_len: int = 0) -> np.ndarray:
    """Coerce *x* to a 1-D float array of length at least *min_len*."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < min_len:
        raise ValueError(f"{name} must have at least {min_len} elements, got {arr.shape[0]}")
    return arr


def check_2d(x, name: str = "x") -> np.ndarray:
    """Coerce *x* to a 2-D float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def check_positive(value: float, name: str = "value") -> float:
    """Require ``value > 0``."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_probability(p: float, name: str = "p") -> float:
    """Require ``0 <= p <= 1``."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")
    return p


def check_in_range(
    value: float,
    lo: float,
    hi: float,
    name: str = "value",
    *,
    inclusive: bool = True,
) -> float:
    """Require *value* to lie in ``[lo, hi]`` (or ``(lo, hi)``)."""
    value = float(value)
    if inclusive:
        ok = lo <= value <= hi
        bounds = f"[{lo}, {hi}]"
    else:
        ok = lo < value < hi
        bounds = f"({lo}, {hi})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value}")
    return value
