"""Small argument-validation helpers used across the library.

The helpers raise :class:`ValueError`/:class:`TypeError` with uniform
messages so that user-facing APIs (job submission forms, backend builders,
requirement models) report problems consistently.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def require_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = require_finite_float(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_finite_float(value: float, name: str) -> float:
    """Validate that ``value`` is a finite real number and return it as float."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number") from exc
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Validate that ``low <= value <= high``."""
    value = require_finite_float(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def require_qubit_index(index: int, num_qubits: int, name: str = "qubit") -> int:
    """Validate that ``index`` addresses a qubit in a ``num_qubits`` register."""
    require_non_negative_int(index, name)
    if index >= num_qubits:
        raise ValueError(
            f"{name} index {index} is out of range for a register of {num_qubits} qubits"
        )
    return index


def require_distinct(indices: Sequence[int], name: str = "qubits") -> Sequence[int]:
    """Validate that a gate's qubit operands are pairwise distinct."""
    if len(set(indices)) != len(indices):
        raise ValueError(f"{name} must be distinct, got {tuple(indices)}")
    return indices


def require_name(value: str, name: str) -> str:
    """Validate that ``value`` is a non-empty string identifier."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")
    if not value.strip():
        raise ValueError(f"{name} must be a non-empty string")
    return value


def require_one_of(value, options: Iterable, name: str):
    """Validate that ``value`` is one of ``options``."""
    options = list(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value
