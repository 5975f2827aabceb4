"""Channel interaction graph and restricted-eigenvalue certificates.

The graph is complete and dense: node weights (diagonal) are each
channel's standalone contribution to the reconstruction error, edge
weights (off-diagonal) are the pairwise interaction terms. The stored
matrix W satisfies f(S) = 1_S^T W 1_S, i.e. the factor 2 on each edge is
realized by symmetric double counting rather than stored explicitly.
One lexicographic walk over size-k sets, `_BranchAndBound`, serves the
oracle, `_first_minimizer`, and the certificate, and alone gathers W's
principal submatrices. A walk whose sets fit one chunk of at most `_BLOCK`
reads a memoized table; any other bounds iff its slack is finite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

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


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Symmetric d x d interaction matrix over channel indices."""

    w: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.w):  # converting would drop the imaginary part
            raise ValueError("interaction matrix must be real, got a complex one")
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


_BLOCK = 4096  # prefixes bounded or expanded together, and the most sets of one table
_GATHER = 2**16  # floats of leaves gathered together: max(1, _GATHER // k^2) leaves of (k, k)


@functools.lru_cache(maxsize=8)  # an entry holds at most _GATHER offsets and _GATHER // k positions
def _lexicographic(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: the size-k sets of range(n) in lexicographic order (C(n, k), k), and their
    flat offsets into an n x n matrix, (C(n, k), k, k) with [b, a, c] = n S[b, a] + S[b, c]."""
    sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    offsets = sets[:, :, None] * n + sets[:, None, :]
    for table in (sets, offsets):
        table.setflags(write=False)
    return sets, offsets


def _unpruned(bounds: np.ndarray, limit: float) -> np.ndarray:
    """Rows whose bound does not exceed `limit`; a NaN or infinite bound never prunes."""
    return ~(bounds > limit) | ~np.isfinite(bounds)


def _rounding_slack(w: np.ndarray) -> float:
    """32 D eps sum|w|, D = n^2 + 2n, or +inf when 64 sum|w| overflows: see `_BranchAndBound`."""
    n, total = len(w), float(np.abs(w).sum())
    return 32.0 * (n * n + 2 * n) * np.finfo(np.float64).eps * total if math.isfinite(64.0 * total) else math.inf


class _BranchAndBound:
    """Depth-first walk over the size-k sets of positions, in lexicographic order, bounded by a slack.

    `w` is a symmetric matrix over positions 0..n-1 (the oracle's W restricted
    to its pool, or the certificate's W). A set's value is its gathered sum
    w[S][:, S].sum(). `leaves` yields, in lexicographic order and a chunk at a
    time with its stack of w[S][:, S], every size-k set that the bound below
    cannot rule out beyond `limit` (+inf at first, lowered between chunks).
    Two rules, read at construction, decide the walk. n and k alone decide
    the table: with C(n, k) <= `_BLOCK` and C(n, k) k^2 <= `_GATHER`, `leaves`
    yields the memoized `_lexicographic(n, k)` table as one chunk, its stack
    gathered by the flat offsets, `w.ravel()[offsets]`: the same C-order
    stack as the DFS chunks' fancy index `w[S[:, :, None], S[:, None, :]]`,
    so the same bits. Each of the memo's 8 entries holds at most `_GATHER`
    offsets and its sets, about 60 KB for C(10, 5). Any other walk bounds iff
    its slack is finite, and at an infinite one (the certificate's) enumerates
    every set, carrying no values.

    The walk grows sorted prefixes P from the empty one, with r = k - |P|
    left to choose, in blocks of at most `_BLOCK` rows, pushed last first so
    `pending` pops them in lexicographic order. A bounded block also holds
    each row's f(P) and its row sums rs_P = sum_{p in P} w[p, :], carried from
    its parent: f(P + j) = f(P) + w_jj + 2 rs_P[j] and rs_{P + j} = rs_P +
    w[j, :]. A completion R of P lies in [s, n), s one past P's last
    position, and f(P + R) >= f(P) + sum_{j in R} c_j with c_j = w_jj +
    2 rs_P[j] + (the sum of the r - 1 smallest w[j, i], i in [s, n) - j).
    So f(P) plus the r smallest c_j bounds every completion from below; the
    smallest-entry sums depend only on (s, r) and are tabulated once. The
    empty prefix is not bounded: its bound is at most any set's gathered sum
    plus the slack, an incumbent's included, so it prunes nothing. At
    r = 1 a prefix's children are leaves, and a leaf's bound is its value
    f(P) + w_jj + 2 rs_P[j]. One rule drops a prefix or a leaf: its bound
    exceeds limit + slack (a NaN or infinite bound never drops, `_unpruned`).

    Slack. Every value compared (a bound, a leaf's value, a gathered sum)
    is a floating-point sum of at most D = n^2 + 2n terms +-w_ij or
    +-2 w_ij (a carried f(P) or rs_P adds the same terms as a gathered sum
    in another order, and doubling is exact), whose absolute values total
    at most 20 M, M = sum |w|. In any order such a sum is within
    gamma_D * 20 M of its exact value (gamma_D = D u / (1 - D u),
    u = eps / 2; Higham, Accuracy and Stability of Numerical Algorithms,
    4.2). A bound takes the r smallest computed c_j, which sum to no more
    than any completion's computed c_j, so a bound exceeds a completion's
    gathered sum by at most the errors of the two, and a leaf's value
    differs from its gathered sum by at most the same: 2 gamma_D * 20 M,
    about 20 D eps M. `_rounding_slack` is 32 D eps M, which also covers the
    rounding of M, of the slack and of `limit + slack`. Sums below
    2^-1021 are exact, so tiny W needs no floor. When 64 M overflows, a
    partial sum may overflow too, and the slack is +inf: nothing is
    bounded.
    """

    def __init__(self, w: np.ndarray, k: int, slack: float):
        n = len(w)
        self.w, self.n, self.k, self.slack, self.limit = w, n, k, slack, math.inf
        self.diag = w.diagonal()
        total = math.comb(n, k)
        self.lex = _lexicographic(n, k) if total <= _BLOCK and total * k * k <= _GATHER else None
        self.bounded = self.lex is None and math.isfinite(slack)
        if self.bounded:
            # A prefix ending at s - 1 holds at most s channels and leaves r >= 2 to choose from
            # [s, n), so it asks for the c = r - 1 smallest entries only for c from lo[s] + 1 =
            # max(1, k - 1 - s) to min(k - 1, n - s - 1): at most min(k - 1, n - k + 1) counts.
            # table[s, c - 1 - lo[s], j] is the sum of the c smallest w[j, i] over i in [s, n) - j,
            # +inf where j < s. A prefix leaves s <= n - 2, and s > 0 occurs only if k > 2.
            off = w.copy()
            np.fill_diagonal(off, np.inf)
            self.lo = np.maximum(k - 2 - np.arange(n), 0)
            self.table = np.full((n - 1 if k > 2 else 1, min(k - 1, n - k + 1), n), np.inf)
            for s in range(len(self.table)):
                c = min(k - 1, n - s - 1)
                sums = np.cumsum(np.sort(off[s:, s:], axis=1)[:, :c], axis=1)
                self.table[s, : c - self.lo[s], s:] = sums[:, self.lo[s] :].T

    def bounds(self, f: np.ndarray, rs: np.ndarray, first: np.ndarray, r: int) -> np.ndarray:
        """f(P) plus the r smallest c_j over j >= first: a lower bound on every completion."""
        c = self.table[first, r - 2 - self.lo[first]]
        c += rs
        c += rs
        c += self.diag
        c.partition(r - 1, axis=1)
        return f + c[:, :r].sum(axis=1)

    def leaves(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Unpruned leaves in lexicographic order: (b, k) position sets, b <= max(1, _GATHER // k^2), with
        their (b, k, k) C-order stack of w[S][:, S], the table's flat gather or a DFS chunk's fancy index; k >= 1.

        `limit` is read as each block is popped, so what a caller sets between chunks prunes what follows.
        """
        if self.lex is not None:
            yield self.lex[0], self.w.ravel()[self.lex[1]]  # `take` would copy the read-only offsets first
            return
        n, k, bounded = self.n, self.k, self.bounded
        cand = np.empty((1, 0), dtype=np.intp)  # the empty prefix
        f, rs = (np.zeros(1), np.zeros((1, n))) if bounded else (None, None)
        pending = []
        while True:
            r = k - cand.shape[1]
            first = cand[:, -1] + 1 if cand.shape[1] else np.zeros(len(cand), dtype=np.intp)
            limit = self.limit + self.slack
            if r == 1:
                keep = np.arange(n) >= first[:, None]
                if bounded:
                    values = 2.0 * rs
                    values += self.diag
                    values += f[:, None]
                    keep &= _unpruned(values, limit)
                    del values
                rows, cols = np.nonzero(keep)
                del keep
                step = max(1, _GATHER // (k * k))
                for lo in range(0, len(rows), step):
                    sets = np.concatenate((cand[rows[lo : lo + step]], cols[lo : lo + step, None]), axis=1)
                    yield sets, self.w[sets[:, :, None], sets[:, None, :]]
            else:
                if bounded and r < k:
                    keep = _unpruned(self.bounds(f, rs, first, r), limit)
                    cand, f, rs, first = cand[keep], f[keep], rs[keep], first[keep]
                ends = np.cumsum(n - r + 1 - first)  # children j in [first, n - r]
                base = n - r + 1 - ends  # child rank i of row p is j = base[p] + i
                total = int(ends[-1]) if len(ends) else 0
                for lo in reversed(range(0, total, _BLOCK)):
                    pending.append((cand, f, rs, ends, base, lo, min(lo + _BLOCK, total)))
            if not pending:
                return
            cand, f, rs = self._children(*pending.pop())

    def _children(self, cand, f, rs, ends, base, lo, hi):
        """Children of ranks [lo, hi) of a block, in lexicographic order, valued from their parents if bounded."""
        ranks = np.arange(lo, hi)
        parent = np.searchsorted(ends, ranks, side="right")
        j = base[parent] + ranks
        children = np.concatenate((cand[parent], j[:, None]), axis=1)
        if not self.bounded:
            return children, None, None
        child_rs = rs[parent]
        child_rs += self.w[j]
        return children, f[parent] + self.diag[j] + 2.0 * rs[parent, j], child_rs


def _first_minimizer(w: np.ndarray, k: int, incumbent: Callable[[], float]) -> np.ndarray:
    """Positions of the lexicographically first size-k set whose value w[S][:, S].sum() no earlier set beats
    with a strict `<`, a NaN sum read as +inf, so it returns k positions even if no sum is finite: summing every
    set gives it, tie for tie (the k-cluster problem; Feige, Peleg & Kortsarz, Algorithmica 2001). Unless it reads
    the table, the walk bounds at `_rounding_slack(w)` if finite; only a bounding walk calls `incumbent()`, the value
    of some size-k set, once, to start its `limit`, which the best value lowers."""
    search = _BranchAndBound(w, k, _rounding_slack(w))
    search.limit = upper = incumbent() if search.bounded else math.inf
    best, best_value = None, math.inf
    for sets, stack in search.leaves():
        values = stack.sum(axis=(1, 2))
        values[np.isnan(values)] = np.inf
        pos = int(np.argmin(values))
        if best is None or values[pos] < best_value:  # strict: the first minimum is lexicographically smallest
            best, best_value = sets[pos], values[pos]
        search.limit = min(best_value, upper)
    return best


def restricted_eigenvalues(
    g: InteractionGraph, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> EigenCertificate:
    """Exact restricted eigenvalues over every support of size exactly k.

    mu_min (mu_max) is the smallest (largest) eigenvalue over all k x k
    principal submatrices of W. `_BranchAndBound` at an infinite slack walks
    every support, in lexicographic chunks of at most 2^16 floats (or one
    support); each chunk's stack, as the walk yields it, is solved by
    one LAPACK `eigvalsh` call: the first support, in lexicographic order,
    that attains it gives its bits. Each eigenvalue is within p(k) eps ||A||_2 <=
    16 k^2 eps k max|w_ij| of the exact one (LAPACK Users' Guide, 4.7), at any scale
    of W. Raises CapacityError, with the oracle's message, before any work when C(d, k) > `cap`.
    """
    if not 1 <= k <= g.dim:
        raise ValueError(f"subset size {k} out of range for dimension {g.dim}")
    _check_capacity(g.dim, k, cap)
    mu_min, mu_max = math.inf, -math.inf
    for _, stack in _BranchAndBound(g.w, k, math.inf).leaves():
        eig = np.linalg.eigvalsh(stack)
        # First extremum of the chunk, and an earlier chunk keeps a tie.
        mu_min = min(mu_min, float(eig[np.argmin(eig[:, 0]), 0]))
        mu_max = max(mu_max, float(eig[np.argmax(eig[:, -1]), -1]))
    return EigenCertificate(k=k, mu_min=mu_min, mu_max=mu_max)
