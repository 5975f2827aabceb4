"""Channel interaction graph and restricted-eigenvalue certificates.

The graph is complete and dense: node weights (diagonal) are each
channel's standalone contribution to the reconstruction error, edge
weights (off-diagonal) are the pairwise interaction terms. The stored
matrix W satisfies f(S) = 1_S^T W 1_S, i.e. the factor 2 on each edge is
realized by symmetric double counting rather than stored explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np

from .core import ChannelMatrix, IndexSet
from .errors import CapacityError

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "EigenCertificate",
    "InteractionGraph",
    "build_interaction_graph",
    "quadratic_form",
    "restricted_eigenvalues",
]

# The oracle and the certificate refuse problems with more subsets than this.
DEFAULT_ENUMERATION_CAP = 2_000_000
_SUBSET_CHUNK = 4096  # subsets enumerated, gathered and reduced together


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Symmetric d x d interaction matrix over channel indices."""

    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.w, dtype=np.float64, order="C")  # always a copy, even of an ndarray subclass
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"interaction matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("graph needs at least one channel")
        if not np.isfinite(arr).all():
            raise ValueError("interaction matrix has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("interaction matrix must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class EigenCertificate:
    """Extremal eigenvalues of all size-k principal submatrices of W.

    kappa is mu_max / mu_min, or +inf when mu_min is not strictly
    positive. Every support is enumerated and solved, so for every size-k
    set S, k * mu_min <= f(S) = 1_S^T W 1_S <= k * mu_max (the Rayleigh
    quotient of W[S][:, S] at 1_S, whose squared norm is k). Hence kappa
    bounds the ratio f(S) / f(S') of any two size-k sets: the approximation
    ratio of every selector at that size, not only the greedy's.
    """

    k: int
    mu_min: float
    mu_max: float

    def __post_init__(self) -> None:
        if self.mu_min > self.mu_max:
            raise ValueError(f"mu_min {self.mu_min} exceeds mu_max {self.mu_max}")

    @property
    def kappa(self) -> float:
        return self.mu_max / self.mu_min if self.mu_min > 0.0 else math.inf


def build_interaction_graph(q: ChannelMatrix, k: ChannelMatrix) -> InteractionGraph:
    """Hadamard product of the query and key Gram matrices.

    W[i, j] = (q_i . q_j) * (k_i . k_j). Each Gram is `ChannelMatrix.gram`,
    formed from exactly rescaled columns by a symmetric rank-k update that
    numpy mirrors, and W gets the power-of-two scales back, so W is exactly
    symmetric and right whenever it fits. `+ 0.0` makes a -0.0 product +0.0,
    so a zero entry's bytes ignore its factors' signs. W is positive
    semi-definite as the elementwise product of two Gram matrices.
    """
    if q.cols != k.cols:
        raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
    s = q.exponents + k.exponents
    with np.errstate(over="ignore"):  # a W that overflows float64 is inf here, and refused
        return InteractionGraph(np.ldexp(q.gram * k.gram + 0.0, s[:, None] + s))


def quadratic_form(g: InteractionGraph, s: IndexSet) -> float:
    """f(S) = 1_S^T W 1_S, the summed principal submatrix."""
    s.validate_within(g.dim)
    idx = s.as_array()
    return float(g.w[np.ix_(idx, idx)].sum())


def _check_capacity(n: int, k: int, cap: int) -> int:
    """C(n, k), or CapacityError when it exceeds `cap`."""
    total = math.comb(n, k)
    if total > cap:
        raise CapacityError(f"C({n}, {k}) = {total} subsets exceed the enumeration cap {cap}")
    return total


def _subsets(n: int, k: int, cap: int) -> Iterator[np.ndarray]:
    """Every size-k subset of range(n) in lexicographic order, as (<= 4096, k) index arrays.

    The package's one full-subset walk: the certificate's supports, and
    the prefixes of the oracle's one-block case. Raises CapacityError
    before the first chunk when C(n, k) exceeds `cap`.
    """
    total = _check_capacity(n, k, cap)
    walk = combinations(range(n), k)
    for start in range(0, total, _SUBSET_CHUNK):
        rows = min(_SUBSET_CHUNK, total - start)
        flat = chain.from_iterable(islice(walk, rows))
        yield np.fromiter(flat, dtype=np.intp, count=rows * k).reshape(rows, k)


def restricted_eigenvalues(
    g: InteractionGraph, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> EigenCertificate:
    """Exact restricted eigenvalues over every support of size exactly k.

    mu_min (mu_max) is the smallest (largest) eigenvalue over all k x k
    principal submatrices of W, each chunk of supports gathered into one
    stack and solved by one LAPACK `eigvalsh` call: the first support, in
    lexicographic order, that attains it gives its bits. Each eigenvalue
    is within p(k) eps ||A||_2 <= 16 k^2 eps k max|w_ij| of the exact one
    (LAPACK Users' Guide, 4.7), at any scale of W. Raises CapacityError,
    with the same message as the oracle, when C(d, k) exceeds `cap`.
    """
    if not 1 <= k <= g.dim:
        raise ValueError(f"subset size {k} out of range for dimension {g.dim}")
    mu_min, mu_max = math.inf, -math.inf
    for rows in _subsets(g.dim, k, cap):
        eig = np.linalg.eigvalsh(g.w[rows[:, :, None], rows[:, None, :]])
        # First extremum of the chunk, and an earlier chunk keeps a tie.
        mu_min = min(mu_min, float(eig[np.argmin(eig[:, 0]), 0]))
        mu_max = max(mu_max, float(eig[np.argmax(eig[:, -1]), -1]))
    return EigenCertificate(k=k, mu_min=mu_min, mu_max=mu_max)
