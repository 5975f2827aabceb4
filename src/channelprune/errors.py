"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CapacityError",
    "ConfigError",
    "DegenerateInputError",
    "MatrixFormatError",
    "MatrixValidationError",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or combination)."""


class MatrixFormatError(ValueError):
    """A matrix file could not be parsed.

    `offset` is the byte position where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MatrixValidationError(ValueError):
    """A parsed matrix violates a value constraint (e.g. non-finite entry)."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        if row is not None and col is not None:
            message = f"{message} (row {row}, col {col})"
        super().__init__(message)
        self.row = row
        self.col = col


class CapacityError(RuntimeError):
    """An oracle or certificate problem has more subsets than the configured cap."""


class DegenerateInputError(ValueError):
    """An input is degenerate for the requested computation (e.g. zero norm)."""
