"""Shared argument-validation helpers.

These functions raise :class:`repro.exceptions.ConfigurationError` (a
``ValueError`` subclass) with messages that name the offending parameter,
so every public entry point reports mistakes the same way.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .exceptions import ConfigurationError, DataShapeError


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number ``>= 0``."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_probability(value: float, name: str, *, allow_zero: bool = True,
                      allow_one: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (bounds optionally open).

    The error names the interval actually enforced, e.g. ``(0, 1)`` for
    a δ that enters ``log(1/δ)``.
    """
    value = float(value)
    low_ok = value > 0 or (allow_zero and value == 0)
    high_ok = value < 1 or (allow_one and value == 1)
    if not np.isfinite(value) or not (low_ok and high_ok):
        interval = f"{'[' if allow_zero else '('}0, 1{']' if allow_one else ')'}"
        raise ConfigurationError(f"{name} must be a probability in {interval}, got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` (a bool is not one)."""
    try:
        valid = (not isinstance(value, (bool, np.bool_))
                 and int(value) == value and value >= 1)
    except (TypeError, ValueError, OverflowError):  # inf, nan, non-numbers
        valid = False
    if not valid:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_vector(x: np.ndarray, name: str, *, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``x`` to a float 1-D array, optionally of a required length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DataShapeError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DataShapeError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return arr


def check_matrix(x: np.ndarray, name: str) -> np.ndarray:
    """Coerce ``x`` to a float 2-D array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DataShapeError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return arr


def check_dataset(features: np.ndarray, labels: np.ndarray,
                  name: str = "dataset") -> Tuple[np.ndarray, np.ndarray]:
    """Validate an ``(X, y)`` pair: 2-D features, matching 1-D labels."""
    X = check_matrix(features, f"{name}.features")
    y = check_vector(labels, f"{name}.labels")
    if X.shape[0] != y.shape[0]:
        raise DataShapeError(
            f"{name}: features have {X.shape[0]} rows but labels have {y.shape[0]} entries"
        )
    if X.shape[0] == 0:
        raise ConfigurationError(f"{name} is empty")
    return X, y


def check_in_choices(value: str, name: str, choices: Sequence[str]) -> str:
    """Validate a string option against an allowed set."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value
