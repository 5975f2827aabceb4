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
from itertools import combinations, islice

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
    "restricted_eigenvalues_sampled",
]

# Exhaustive subset enumeration is refused above this count.
DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Symmetric d x d interaction matrix over channel indices."""

    dim: int
    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.w, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"interaction matrix must be square, got shape {arr.shape}")
        if arr.shape[0] != self.dim:
            raise ValueError(f"dim={self.dim} does not match matrix shape {arr.shape}")
        if self.dim < 1:
            raise ValueError("graph needs at least one channel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("interaction matrix has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("interaction matrix must be exactly symmetric")
        if arr is self.w:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)


@dataclass(frozen=True)
class EigenCertificate:
    """Extremal eigenvalues of all size-k principal submatrices of W.

    kappa is mu_max / mu_min, or +inf when mu_min is not strictly
    positive. `exact` records whether every support was enumerated or the
    extrema were estimated from a random sample.
    """

    k: int
    mu_min: float
    mu_max: float
    kappa: float
    exact: bool = True

    def __post_init__(self) -> None:
        if self.mu_min > self.mu_max:
            raise ValueError(f"mu_min {self.mu_min} exceeds mu_max {self.mu_max}")


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
    return InteractionGraph(dim=q.cols, w=w)


def quadratic_form(g: InteractionGraph, s: IndexSet) -> float:
    """f(S) = 1_S^T W 1_S, the summed principal submatrix."""
    s.validate_within(g.dim)
    if len(s) == 0:
        return 0.0
    idx = s.as_array()
    return float(g.w[np.ix_(idx, idx)].sum())


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle row by row and annihilates every
    entry larger than `tol` in magnitude; stops after the first sweep
    that performs no rotation. The sweep order is fixed, so results are
    bit-reproducible for a given input. Returns eigenvalues ascending.
    """
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 1:
        return m.diagonal().copy()

    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= tol:
                    continue
                rotated = True
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
                m[p, q] = 0.0
                m[q, p] = 0.0
        if not rotated:
            break
    return np.sort(m.diagonal())


def _certificate_from_supports(g: InteractionGraph, k: int, supports) -> tuple[float, float]:
    w = g.w
    mu_min = math.inf
    mu_max = -math.inf
    for support in supports:
        idx = np.asarray(support, dtype=np.intp)
        eig = jacobi_eigenvalues(w[np.ix_(idx, idx)])
        if eig[0] < mu_min:
            mu_min = float(eig[0])
        if eig[-1] > mu_max:
            mu_max = float(eig[-1])
    return mu_min, mu_max


def _kappa(mu_min: float, mu_max: float) -> float:
    return mu_max / mu_min if mu_min > 0.0 else math.inf


def restricted_eigenvalues(
    g: InteractionGraph, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> EigenCertificate:
    """Exact restricted eigenvalues over every support of size exactly k.

    mu_min (mu_max) is the smallest (largest) eigenvalue over all k x k
    principal submatrices of W. Raises CapacityError when C(d, k) exceeds
    `cap`; use `restricted_eigenvalues_sampled` in that regime.
    """
    if not 1 <= k <= g.dim:
        raise ValueError(f"subset size {k} out of range for dimension {g.dim}")
    total = math.comb(g.dim, k)
    if total > cap:
        raise CapacityError(
            f"C({g.dim}, {k}) = {total} supports exceed the enumeration cap {cap}; "
            "use restricted_eigenvalues_sampled for a sampled certificate"
        )
    mu_min, mu_max = _certificate_from_supports(g, k, combinations(range(g.dim), k))
    return EigenCertificate(k=k, mu_min=mu_min, mu_max=mu_max, kappa=_kappa(mu_min, mu_max))


def restricted_eigenvalues_sampled(
    g: InteractionGraph, k: int, n_samples: int = 1000, seed: int = 0
) -> EigenCertificate:
    """Sampled stand-in for `restricted_eigenvalues` beyond the cap.

    Draws uniform random size-k supports with a seeded generator. The
    result brackets a subset of the true range: mu_min is an upper bound
    on the exact minimum and mu_max a lower bound on the exact maximum.
    """
    if not 1 <= k <= g.dim:
        raise ValueError(f"subset size {k} out of range for dimension {g.dim}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n_samples = min(n_samples, math.comb(g.dim, k))
    supports = (rng.choice(g.dim, size=k, replace=False) for _ in range(n_samples))
    mu_min, mu_max = _certificate_from_supports(g, k, islice(supports, n_samples))
    return EigenCertificate(
        k=k, mu_min=mu_min, mu_max=mu_max, kappa=_kappa(mu_min, mu_max), exact=False
    )
