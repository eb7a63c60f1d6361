"""Light-weight argument validation helpers.

They raise early, with messages that name the offending argument, so that
errors surface at the public API boundary instead of deep inside a simulator
loop.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def check_integer(value: Any, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """Validate that ``value`` is an integer within ``[minimum, maximum]``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_bool(value: Any, name: str) -> bool:
    """Validate that ``value`` is a boolean (not merely truthy)."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a boolean, got {type(value).__name__}")
    return bool(value)


def check_positive_integer(value: Any, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer."""
    return check_integer(value, name, minimum=1)


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` is a float in ``[0, 1]``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if not (0.0 <= value <= 1.0) or not np.isfinite(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_square_matrix(matrix: Any, name: str) -> np.ndarray:
    """Validate that ``matrix`` is a 2-D square array and return it as ndarray."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def check_symmetric(matrix: Any, name: str, atol: float = 1e-10) -> np.ndarray:
    """Validate that ``matrix`` is (numerically) symmetric/Hermitian."""
    arr = check_square_matrix(matrix, name)
    if not np.allclose(arr, arr.conj().T, atol=atol):
        raise ValueError(f"{name} must be symmetric/Hermitian to tolerance {atol}")
    return arr


def check_power_of_two(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive integer power of two."""
    value = check_positive_integer(value, name)
    if value & (value - 1) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value
