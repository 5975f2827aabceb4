"""Dense matrix primitives and attention reconstruction error.

A `ChannelMatrix` holds tokens in rows and channels in columns, each
channel's column contiguous in memory (Fortran order), so the evaluator
gathers a pruned set's columns as whole blocks. Pruning a
set of channels zeroes those columns in both the query and key matrices;
the resulting change in the pre-softmax attention product Q @ K.T is the
quantity every selection algorithm in this package tries to minimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import DegenerateInputError, MatrixValidationError

__all__ = [
    "ChannelMatrix",
    "IndexSet",
    "attention_norm",
    "exact_ceil",
    "reconstruction_error_sq",
]


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Immutable 2-d float64 matrix with a column-as-channel view.

    The constructor copies the input into a frozen channel-major
    (Fortran-order) buffer, whatever its layout, so instances are safe to
    share across threads and never alias a caller's array. Entries must be
    finite; the first non-finite one in row-major order raises
    MatrixValidationError naming its position.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="F")  # always a copy
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must have at least one row and one column, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise MatrixValidationError("non-finite matrix entry", row=int(r), col=int(c))
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IndexSet:
    """Ordered collection of distinct channel indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError(f"negative channel index in {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate channel index in {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def empty(cls) -> "IndexSet":
        return cls(())

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def validate_within(self, dim: int) -> None:
        """Raise IndexError unless every index is in [0, dim)."""
        for i in self.indices:
            if i >= dim:
                raise IndexError(f"channel index {i} out of range for dimension {dim}")


def exact_ceil(x: float, d: int) -> int:
    """ceil(x * d) with x read as the decimal it prints as.

    The float product can land just above an integer (0.55 * 100 is
    55.00000000000001), which would over-count by one.
    """
    return math.ceil(Fraction(str(x)) * d)


def reconstruction_error_sq(q: ChannelMatrix, k: ChannelMatrix, pruned: IndexSet) -> float:
    """Squared Frobenius error of the attention product after pruning.

    Zeroing the channels S changes Q K^T by exactly Q_S K_S^T, so the error
    is ||Q_S K_S^T||_F^2, computed from the pruned columns alone. This is
    the package's only error evaluator: every selector's error_sq and
    every relative error come from it, so equal sets always score equal.
    """
    if q.cols != k.cols:
        raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
    pruned.validate_within(q.cols)
    if len(pruned) == 0:
        return 0.0
    idx = pruned.as_array()
    product = q.data[:, idx] @ k.data[:, idx].T
    return float(np.vdot(product, product))


def attention_norm(q: ChannelMatrix, k: ChannelMatrix, label: str) -> float:
    """||Q K^T||_F, the denominator of a relative error.

    Raises DegenerateInputError when the product is identically zero or
    its norm overflows; `label` names the queries in the message.
    """
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum((q.data @ k.data.T) ** 2)))
    if not 0.0 < norm < math.inf:
        problem = "identically zero" if norm == 0.0 else "too large: its norm overflows float64"
        raise DegenerateInputError(f"attention product of {label} queries is {problem}")
    return norm
