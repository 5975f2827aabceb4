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
    "jacobi_eigenvalues",
    "quadratic_form",
    "restricted_eigenvalues",
]

# The oracle and the certificate refuse problems with more subsets than this.
DEFAULT_ENUMERATION_CAP = 2_000_000
_SUBSET_CHUNK = 4096  # subsets enumerated, gathered and reduced together
_JACOBI_TOL = 1e-10  # Jacobi rotates entries above this magnitude
_JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Symmetric d x d interaction matrix over channel indices."""

    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.w, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"interaction matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("graph needs at least one channel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("interaction matrix has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("interaction matrix must be exactly symmetric")
        if arr is self.w:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class EigenCertificate:
    """Extremal eigenvalues of all size-k principal submatrices of W.

    kappa is mu_max / mu_min, or +inf when mu_min is not strictly
    positive. Every support is enumerated and screened, and every one
    that can hold an extremum is solved, so kappa bounds the greedy's
    approximation ratio.
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

    W[i, j] = (q_i . q_j) * (k_i . k_j). The upper triangle is computed
    once and mirrored, so symmetry is exact. W is positive semi-definite
    as the elementwise product of two Gram matrices.
    """
    if q.cols != k.cols:
        raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
    gram_q = q.data.T @ q.data
    gram_k = k.data.T @ k.data
    raw = gram_q * gram_k
    upper = np.triu(raw, 1)
    w = upper + upper.T
    np.fill_diagonal(w, np.diag(raw))
    return InteractionGraph(w)


def quadratic_form(g: InteractionGraph, s: IndexSet) -> float:
    """f(S) = 1_S^T W 1_S, the summed principal submatrix."""
    s.validate_within(g.dim)
    if len(s) == 0:
        return 0.0
    idx = s.as_array()
    return float(g.w[np.ix_(idx, idx)].sum())


@np.errstate(over="ignore")  # once per call: entered per rotation, it cost about 7% of the kernel
def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of a stack (..., n, n) of them, by cyclic Jacobi.

    Sweeps the strict upper triangle row by row and annihilates every
    entry larger than `_JACOBI_TOL` in magnitude, rotating only the
    matrices where it is, so each matrix gets the bits it gets alone;
    stops after the first sweep that performs no rotation, and raises
    RuntimeError when `_JACOBI_MAX_SWEEPS` sweeps do not get there.
    Returns eigenvalues ascending along the last axis.

    Overflow raises no warning. theta * theta, or theta itself, overflows
    to inf when |theta| > ~1e154, and t then takes its correct limit 0.
    Rotations preserve the Frobenius norm, so a rotated entry can overflow
    only when ||A||_F is within sqrt(2) of the float maximum, where the
    certificate's slack is already +inf.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(math.prod(a.shape[:-2]), n, n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                live = np.flatnonzero(np.abs(stack[:, p, q]) > _JACOBI_TOL)
                if live.size == 0:
                    continue
                rotated = True
                m = stack[live]  # a c = 1, s = 0 rotation would still flip signed zeros
                theta = (m[:, q, q] - m[:, p, p]) / (2.0 * m[:, p, q])
                # -1/x is -(1/x) bit for bit, and theta = -0.0 takes t > 0
                t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
                s = t[:, None] * c
                col_p, col_q = m[:, :, p], m[:, :, q]
                m[:, :, p], m[:, :, q] = c * col_p - s * col_q, s * col_p + c * col_q
                row_p, row_q = m[:, p, :], m[:, q, :]
                m[:, p, :], m[:, q, :] = c * row_p - s * row_q, s * row_p + c * row_q
                m[:, p, q] = m[:, q, p] = 0.0
                stack[live] = m
        if not rotated:
            return np.sort(np.diagonal(stack, axis1=1, axis2=2), axis=-1).reshape(a.shape[:-1])
    raise RuntimeError(f"Jacobi eigenvalues did not converge within {_JACOBI_MAX_SWEEPS} sweeps")


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

    mu_min (mu_max) is the smallest (largest) Jacobi eigenvalue over all
    k x k principal submatrices of W: the first support, in lexicographic
    order, that attains it gives its bits. Raises CapacityError, with the
    same message as the oracle, when C(d, k) exceeds `cap`.

    Screen, then solve. Each chunk of supports is gathered once and
    screened by one LAPACK `eigvalsh` over the stack; Jacobi then runs,
    in one call, only on the supports whose screened smallest eigenvalue
    is within 2 * slack of the chunk's smallest screened one, or whose
    screened largest is within 2 * slack of the largest. If both solvers
    are within `slack` of the exact eigenvalues, a support attaining the
    Jacobi minimum has screened value at most its Jacobi value + slack
    <= the screened minimizer's Jacobi value + slack <= the screened
    minimum + 2 * slack, and likewise for the maximum; the stacked Jacobi
    gives each matrix the bits it gets alone, so the result is the bits
    of solving every support. A NaN or infinite screened value keeps its
    support and is left out of the chunk's extremes, so it drops nothing.

    Slack. Every support A has ||A||_2 <= ||A||_F <= N = k max|w_ij|.
    With u = eps / 2:
    - Jacobi stops when every off-diagonal is at most `_JACOBI_TOL`, so
      its diagonal is the spectrum of a matrix E away, ||E||_2 <=
      ||E||_F <= sqrt(k (k - 1)) `_JACOBI_TOL` (Weyl).
    - It applies at most R = `_JACOBI_MAX_SWEEPS` k (k - 1) / 2
      rotations. Each is an exact rotation of the current matrix plus a
      backward error of at most 16 eps times its Frobenius norm: rounding
      in t, c and s, in the two-sided update, and the entry it zeroes
      (Higham, Accuracy and Stability of Numerical Algorithms, 19.6).
      The norm stays below 2 N, so 32 R eps N covers all rotations.
    - `eigvalsh` is within p(k) eps ||A||_2 of each eigenvalue (LAPACK
      Users' Guide, 4.7), p(k) a modest function of k; the Householder
      tridiagonalization and the tridiagonal QR each give a backward
      error of order k^2 u (Higham 19.3), so p(k) = 16 k^2 covers both.
    `slack` is their sum plus 4 eps N, which covers the rounding of N and
    of the thresholds. When 64 N overflows, an intermediate of either
    solver may overflow too, and the slack is +inf: every support is
    solved.
    """
    if not 1 <= k <= g.dim:
        raise ValueError(f"subset size {k} out of range for dimension {g.dim}")
    bound = k * float(np.abs(g.w).max())
    eps = float(np.finfo(np.float64).eps)
    rotations = _JACOBI_MAX_SWEEPS * k * (k - 1) // 2
    slack = math.inf
    if math.isfinite(64.0 * bound):
        slack = math.sqrt(k * (k - 1)) * _JACOBI_TOL + (32 * rotations + 16 * k * k + 4) * eps * bound
    mu_min, mu_max = math.inf, -math.inf
    for rows in _subsets(g.dim, k, cap):
        stack = g.w[rows[:, :, None], rows[:, None, :]]
        screened = np.linalg.eigvalsh(stack)
        low, high = screened[:, 0], screened[:, -1]
        low_finite, high_finite = np.isfinite(low), np.isfinite(high)
        low_cut = np.min(low, where=low_finite, initial=math.inf) + 2.0 * slack
        high_cut = np.max(high, where=high_finite, initial=-math.inf) - 2.0 * slack
        keep = (low <= low_cut) | (high >= high_cut) | ~low_finite | ~high_finite
        eig = jacobi_eigenvalues(stack[keep])
        # First extremum of the chunk, and an earlier chunk keeps a tie.
        mu_min = min(mu_min, float(eig[np.argmin(eig[:, 0]), 0]))
        mu_max = max(mu_max, float(eig[np.argmax(eig[:, -1]), -1]))
    return EigenCertificate(k=k, mu_min=mu_min, mu_max=mu_max)
