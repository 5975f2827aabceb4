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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .errors import MatrixValidationError

__all__ = [
    "ChannelMatrix",
    "IndexSet",
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

    The column extremes that check this, taken without a full-size |arr|
    temporary, also give the read-only `exponents`, e_j the `frexp`
    exponent of column j's largest |entry| (0 for a zero column), and
    `gram`, the Gram of the columns scaled exactly by 2^-e_j, which the
    `W` build uses and whose diagonal protection reads.
    """

    data: np.ndarray
    exponents: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.data):  # converting would drop the imaginary part
            raise ValueError("expected a real matrix, got a complex one")
        arr = np.array(self.data, dtype=np.float64, order="F")  # always a copy
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must have at least one row and one column, got shape {arr.shape}")
        # Each column's largest |entry| (NaN or inf if it holds one), faster with `initial` than via |arr|.
        top = np.maximum.reduce(arr, axis=0, initial=0.0)
        largest = np.maximum(top, -np.minimum.reduce(arr, axis=0, initial=0.0))
        if not np.isfinite(largest).all():
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise MatrixValidationError("non-finite matrix entry", row=int(r), col=int(c))
        exponents = np.frexp(largest)[1]
        arr.setflags(write=False)
        exponents.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "exponents", exponents)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only G with data.T @ data = G_ij 2^(e_i + e_j), e = `exponents`, formed once and kept.

        Column j is scaled exactly by 2^-e_j, so no square overflows and G fits
        where data.T @ data would not. Concurrent first reads may each form G, with equal bits.
        """
        scaled = np.ldexp(self.data, -self.exponents)
        gram = scaled.T @ scaled
        gram.setflags(write=False)
        return gram


@dataclass(frozen=True)
class IndexSet:
    """Ordered collection of distinct channel indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(map(operator.index, self.indices))  # TypeError for 1.5, not a silent 1
        if idx and min(idx) < 0:
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
        """Raise IndexError, naming the first offending index, unless every index is in [0, dim)."""
        if self.indices and max(self.indices) >= dim:
            i = next(i for i in self.indices if i >= dim)
            raise IndexError(f"channel index {i} out of range for dimension {dim}")


def exact_ceil(x: float, d: int) -> int:
    """ceil(x * d) with x read as the decimal it prints as.

    The float product can land just above an integer (0.55 * 100 is
    55.00000000000001), which would over-count by one. The answer depends
    on x only through str(x), so it is computed once per printed value and
    d: a float32 and a float64 of equal value print differently and get
    their own entries.
    """
    return _decimal_ceil(str(x), d)


@lru_cache(maxsize=1024)
def _decimal_ceil(text: str, d: int) -> int:
    return math.ceil(Fraction(text) * d)


def reconstruction_error_sq(q: ChannelMatrix, k: ChannelMatrix, pruned: IndexSet) -> float:
    """Squared Frobenius error of the attention product after pruning.

    Zeroing the channels S changes Q K^T by exactly Q_S K_S^T, so the error
    is ||Q_S K_S^T||_F^2, computed from the pruned columns alone by
    `_error_sq_blocks`, the package's only error evaluator: every
    selector's error_sq and every relative error come from it, so equal
    sets always score equal.
    """
    if q.cols != k.cols:
        raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
    pruned.validate_within(q.cols)
    return _error_sq_blocks(q.data, k.data, pruned.as_array(), (slice(None),))[0]


def _error_sq_blocks(
    q: np.ndarray, k: np.ndarray, idx: np.ndarray | slice, blocks: tuple[slice, ...]
) -> list[float]:
    """||Q_S K_S^T||_F^2 of each row slice in `blocks` of the stacked queries `q`, S = `idx`, from one product.

    K_S is gathered once (`slice(None)` gathers nothing and gives ||Q K^T||_F^2)
    and one GEMM covers every block. Each block is a C-contiguous row slice
    of the C-order product, so numpy's pairwise `np.add.reduce` sums its
    squares exactly as it would a separate product's; it is not a BLAS dot,
    so the bits do not depend on the BLAS thread count.
    """
    with np.errstate(over="ignore"):  # an overflowing error is +inf, without a warning
        product = q[:, idx] @ k[:, idx].T  # all zeros when idx is empty
        np.square(product, out=product)
        return [float(np.add.reduce(product[rows], axis=None)) for rows in blocks]

