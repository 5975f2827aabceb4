"""Channel selection: greedy minimum-incremental-error, score baselines,
a branch-and-bound oracle, and salient-channel protection.

A `Problem` holds one instance: query/key matrices, a protected set and
optional future queries. Each selector produces a removal order over the
unprotected channels; its first n_prune = ceil(lambda * d) entries,
clamped to the unprotected count, are the pruned set, and both its errors
always come from the one evaluator in `core`. The pruned set is therefore
disjoint from the protected set, its size is the budget, and equal sets score equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .core import ChannelMatrix, IndexSet, _error_sq_blocks, exact_ceil
from .errors import DegenerateInputError
from .graph import DEFAULT_ENUMERATION_CAP, InteractionGraph, _check_capacity, _subsets, build_interaction_graph

__all__ = [
    "Problem",
    "ProtectionPolicy",
    "PruneSelection",
    "Selector",
    "mies_select",
    "oracle_select",
    "protect_channels",
    "random_select",
    "think_select",
]


class Selector(str, Enum):
    """Available channel-selection strategies."""

    MIES = "mies"
    THINK = "think"
    RANDOM = "random"
    ORACLE = "oracle"


@dataclass(frozen=True)
class ProtectionPolicy:
    """Statistical shield for high-norm key channels.

    Channels whose column norm exceeds mean + threshold_sigma * std are
    counted, the resulting proportion is clamped to [a, b], and that many
    top-norm channels are excluded from pruning.
    """

    threshold_sigma: float = 1.0
    a: float = 0.01
    b: float = 0.125
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= self.b <= 1.0:
            raise ValueError(f"clamp bounds must satisfy 0 <= a <= b <= 1, got [{self.a}, {self.b}]")
        if not 0.0 <= self.threshold_sigma < math.inf:
            raise ValueError(f"threshold_sigma must be nonnegative and finite, got {self.threshold_sigma}")


@dataclass(frozen=True, eq=False)
class PruneSelection:
    """Result of one selection run.

    `order` is the removal order of the pruned channels: greedy steps for
    mies, ascending static score for think, draw order for random, and
    ascending index for oracle. `pruned` holds the same channels sorted.
    `error_future_sq` scores them on the future queries, None without any.
    """

    selector: Selector
    lam: float
    n_prune: int
    pruned: IndexSet
    order: tuple[int, ...]
    error_sq: float
    budget_clamped: bool = False
    error_future_sq: float | None = None


def _budget(lam: float, d: int, n_protected: int) -> tuple[int, bool]:
    """ceil(lam * d), clamped to the number of unprotected channels."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1], got {lam}")
    requested = exact_ceil(lam, d)
    available = d - n_protected
    return min(requested, available), requested > available


def _greedy(
    w: np.ndarray, candidates: np.ndarray, steps: list[tuple[np.ndarray, np.ndarray]] | None = None
) -> Iterator[int]:
    """Yield the minimum-incremental-error order over `candidates`, one channel per step.

    Each candidate's score is the total error of the pruned set extended
    by that candidate: scores start at the self-importance W_jj, and
    after pruning the arg-min channel j* every remaining score picks up
    the interaction term 2 * W[c, j*] plus the error increment of j*
    itself. The increment is the same for every candidate, so the order
    is exactly that of updating with the interaction terms alone;
    maintaining the full cumulative error keeps the scores directly
    comparable against fresh quadratic-form evaluation. Ties break toward
    the lower channel index. No step depends on how many steps are taken,
    so stopping at any budget gives a prefix of the full order. With a
    `steps` list, a (candidates, scores) snapshot is appended before each
    step.

    The work is over the candidate block alone: W[cand][:, cand] is doubled
    once (an overflowing entry is +inf, without a warning; W is symmetric, so
    row i is candidate i's column), and the scores, +inf once pruned, are
    updated in place only where still active. W's other entries, such as a
    protected channel's, are never read. `candidates` must be ascending.
    """
    with np.errstate(over="ignore"):
        doubled = 2.0 * w[candidates][:, candidates]
    active = np.ones(len(candidates), dtype=bool)
    scores = w[candidates, candidates]
    increment = np.empty(len(candidates))
    accumulated = 0.0  # f(pruned so far)
    for _ in range(len(candidates)):
        if steps is not None:
            steps.append((candidates[active], scores[active]))
        i = int(scores.argmin())  # first minimum, so the lowest channel wins ties
        if not active[i]:  # every active score overflowed to +inf and ties the pruned ones
            i = int(active.argmax())
        chosen = float(scores[i])
        active[i] = False
        scores[i] = np.inf
        np.add(doubled[i], chosen - accumulated, out=increment, where=active)
        np.add(scores, increment, out=scores, where=active)
        accumulated = chosen
        yield int(candidates[i])


class Problem:
    """One selection instance: query/key matrices, the protected set and optional future queries.

    The inputs are validated once. W, the greedy order over the
    unprotected channels, the think order and the oracle order of each
    budget are built on first use and kept, so selecting at several
    ratios builds W once and runs the greedy once, and asking the oracle
    again for a budget costs nothing; mies and think answer each ratio
    with a prefix. The greedy is resumed, not restarted, when a larger
    budget asks for more of its order, so it never runs past the largest
    budget requested.
    """

    def __init__(
        self, q: ChannelMatrix, k: ChannelMatrix, protected: IndexSet = IndexSet.empty(),
        q_future: ChannelMatrix | None = None,
    ):
        for name, m in (("q", q), ("q_future", q_future)):
            if m is not None and m.cols != k.cols:
                raise ValueError(f"channel count mismatch: {name} has {m.cols}, k has {k.cols}")
        protected.validate_within(q.cols)
        self.q, self.k, self.q_future = q, k, q_future
        windows = (q,) if q_future is None else (q, q_future)
        self._queries = np.asfortranarray(np.concatenate([m.data for m in windows]))  # one GEMM scores both
        self._queries.setflags(write=False)
        self._window_rows = tuple(m.rows for m in windows)
        self.protected = protected
        mask = np.ones(q.cols, dtype=bool)
        mask[protected.as_array()] = False
        self.candidates = np.flatnonzero(mask)
        self._greedy_order: list[int] = []
        self._greedy_run: Iterator[int] | None = None
        self._oracle_orders: dict[int, tuple[int, ...]] = {}

    def attention_norms(self) -> tuple[float, ...]:
        """||Q K^T||_F per query window, observed then future, in one evaluator call; refuses 0 and +inf."""
        squares = _error_sq_blocks(self._queries, self.k.data, slice(None), self._window_rows)
        norms = tuple(map(math.sqrt, squares))
        for label, norm in zip(("observed", "future"), norms):
            if not 0.0 < norm < math.inf:
                problem = "identically zero" if norm == 0.0 else "too large: its norm overflows float64"
                raise DegenerateInputError(f"attention product of {label} queries is {problem}")
        return norms

    @cached_property
    def graph(self) -> InteractionGraph:
        return build_interaction_graph(self.q, self.k)

    def _greedy_prefix(self, n: int) -> tuple[int, ...]:
        """First n channels of the greedy order, running the greedy only as far as needed."""
        if n > len(self._greedy_order):
            if self._greedy_run is None:
                self._greedy_run = _greedy(self.graph.w, self.candidates)
            self._greedy_order.extend(islice(self._greedy_run, n - len(self._greedy_order)))
        return tuple(self._greedy_order[:n])

    @cached_property
    def _think_order(self) -> tuple[int, ...]:
        """Unprotected channels by ascending W_jj, ties to the lower index.

        W_jj = ||q_j||^2 ||k_j||^2 is ThinK's independent score ||q_j|| ||k_j||
        squared, which keeps its order: the greedy's first-step scores, never updated.
        """
        scores = np.diag(self.graph.w)[self.candidates]
        return tuple(int(j) for j in self.candidates[np.argsort(scores, kind="stable")])

    def select(
        self, selector: Selector, lam: float, seed: int = 0, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> PruneSelection:
        """Prune ceil(lam * d) unprotected channels (clamped) with `selector`.

        `seed` drives the random selector; `cap` bounds the oracle's
        subset count (CapacityError above it).
        """
        selector = Selector(selector)
        n_prune, clamped = _budget(lam, self.q.cols, len(self.protected))
        if selector is Selector.MIES:
            order = self._greedy_prefix(n_prune)
        elif selector is Selector.THINK:
            order = self._think_order[:n_prune]
        elif selector is Selector.RANDOM:
            drawn = np.random.default_rng(seed).choice(self.candidates, size=n_prune, replace=False)
            order = tuple(int(j) for j in drawn)
        else:
            self.check_oracle_capacity(lam, cap)
            if n_prune not in self._oracle_orders:
                self._oracle_orders[n_prune] = self._oracle_order(n_prune)
            order = self._oracle_orders[n_prune]
        pruned = IndexSet(tuple(sorted(order)))
        error_sq, *future = _error_sq_blocks(self._queries, self.k.data, pruned.as_array(), self._window_rows)
        return PruneSelection(
            selector=selector,
            lam=lam,
            n_prune=n_prune,
            pruned=pruned,
            order=order,
            error_sq=error_sq,
            budget_clamped=clamped,
            error_future_sq=future[0] if future else None,
        )

    def check_oracle_capacity(self, lam: float, cap: int) -> None:
        """CapacityError when the oracle at `lam` would search more than `cap` subsets.

        The count is C(d - n_protected, n_prune). `select` applies this
        before any oracle work; a caller may apply it before building W.
        """
        _check_capacity(len(self.candidates), _budget(lam, self.q.cols, len(self.protected))[0], cap)

    def _oracle_order(self, n_prune: int) -> tuple[int, ...]:
        """Lexicographically smallest minimizer of 1_S^T W 1_S over size-n_prune sets.

        The greedy prefix, when the search bounds at all, is the incumbent
        that prunes before the first leaf is reached.
        """
        pool = self.candidates
        search = _BranchAndBound(self.graph.w[np.ix_(pool, pool)], n_prune)
        incumbent = math.inf
        if search.bounded:
            greedy = np.searchsorted(pool, sorted(self._greedy_prefix(n_prune)))
            incumbent = float(search.gathered(greedy[None, :])[0])
        return tuple(int(j) for j in pool[search.run(incumbent)])


_BLOCK = 4096  # prefixes bounded, expanded or screened together
_GATHER = 1024  # leaves gathered together, as (1024, k, k) floats


def _unpruned(bounds: np.ndarray, limit: float) -> np.ndarray:
    """Rows whose bound does not exceed `limit`; a NaN or infinite bound never prunes."""
    return ~(bounds > limit) | ~np.isfinite(bounds)


class _BranchAndBound:
    """Depth-first branch and bound for the first minimizer of the gathered sum over size-k sets.

    `w` is W restricted to the pool; positions index its rows. A set's
    value is its gathered sum w[S][:, S].sum(), the one number that
    decides, and the winner is the lexicographically first set whose value
    no earlier set beats with a strict `<` (the k-cluster problem; Feige,
    Peleg & Kortsarz, Algorithmica 2001).

    The search grows sorted prefixes P, with r = k - |P| left to choose,
    in blocks of at most `_BLOCK` rows. A block is its (b, |P|)
    positions; one BLAS product over its 0/1 indicator rows gives the row
    sums sum_{p in P} w[p, :] and from them f(P). A completion R of P lies
    in [s, n), s one past P's last position, and f(P + R) >= f(P) +
    sum_{j in R} c_j with c_j = w_jj + 2 sum_{p in P} w[p, j] + (the sum of
    the r - 1 smallest w[j, i], i in [s, n) - j). So f(P) plus the r
    smallest c_j bounds every completion from below; the smallest-entry
    sums depend only on (s, r) and are tabulated once. A row whose bound
    exceeds min(best, incumbent) + slack is dropped, and the survivors'
    children are pushed in blocks, last first, so the stack pops them in
    lexicographic order. At r = 1 a prefix's children are leaves, each
    valued f(P) + w_jj + 2 sum_{p in P} w[p, j]; a leaf is gathered only
    if that value is within 2 * slack of the block's smallest and within
    slack of min(best, incumbent), or is NaN. With C(n, k) <= `_BLOCK`
    nothing is bounded: every prefix of k - 1 positions is built at once
    and the whole problem is one screened leaf block.

    Slack. Every value compared (a bound, a leaf's value, a gathered sum)
    is a floating-point sum of at most D = n^2 + 2n terms +-w_ij or
    +-2 w_ij (the 0/1 products are exact), whose absolute values total at
    most 20 M, M = sum |w|. In any order such a sum is within
    gamma_D * 20 M of its exact value (gamma_D = D u / (1 - D u),
    u = eps / 2; Higham, Accuracy and Stability of Numerical Algorithms,
    4.2). A bound takes the r smallest computed c_j, which sum to no more
    than any completion's computed c_j, so a bound exceeds a completion's
    gathered sum by at most the errors of the two, and a leaf's value
    differs from its gathered sum by at most the same: 2 gamma_D * 20 M,
    about 20 D eps M. `slack` is 32 D eps M, which also covers the
    rounding of M, of the slack and of `limit + slack`. Sums below
    2^-1021 are exact, so tiny W needs no floor. When 64 M overflows, a
    partial sum may overflow too, and the slack is +inf: nothing is
    pruned and nothing is screened out.
    """

    def __init__(self, w: np.ndarray, k: int):
        n = len(w)
        self.w, self.n, self.k = w, n, k
        self.diag = np.diag(w)
        total = float(np.abs(w).sum())
        eps = np.finfo(np.float64).eps
        self.slack = 32.0 * (n * n + 2 * n) * eps * total if math.isfinite(64.0 * total) else math.inf
        self.bounded = math.comb(n, k) > _BLOCK
        if self.bounded:
            # table[s, c - 1, j]: the c smallest w[j, i] over i in [s, n) - j, for c in [1, k - 1];
            # +inf where j < s or fewer than c remain. A prefix ending at s - 1 leaves s <= n - 2,
            # and s > 0 occurs only if k > 2.
            off = np.hstack((w, np.full((n, k), np.inf)))
            np.fill_diagonal(off, np.inf)
            self.table = np.full((n - 1 if k > 2 else 1, k - 1, n), np.inf)
            for s in range(len(self.table)):
                self.table[s, :, s:] = np.cumsum(np.sort(off[s:, s:], axis=1)[:, : k - 1], axis=1).T

    def gathered(self, sets: np.ndarray) -> np.ndarray:
        """The gathered sum of each row of position sets (b, k)."""
        return self.w[sets[:, :, None], sets[:, None, :]].sum(axis=(1, 2))

    def bounds(self, f: np.ndarray, rs: np.ndarray, first: np.ndarray, r: int) -> np.ndarray:
        """f(P) plus the r smallest c_j over j >= first: a lower bound on every completion."""
        c = self.table[first, r - 2]
        c += rs
        c += rs
        c += self.diag
        c.partition(r - 1, axis=1)
        return f + c[:, :r].sum(axis=1)

    def run(self, incumbent: float) -> np.ndarray:
        """Positions of the first minimizer; `incumbent` is some set's gathered sum, or +inf."""
        n, k = self.n, self.k
        if k == 0:
            return np.arange(0)
        if self.bounded:
            cand = np.empty((1, 0), dtype=np.intp)
        else:  # one leaf block: every prefix of k - 1 positions
            cand = np.concatenate(list(_subsets(n - 1, k - 1, _BLOCK)))
        best, best_value = None, math.inf
        pending = []
        while True:
            r = k - cand.shape[1]
            first = cand[:, -1] + 1 if cand.shape[1] else np.zeros(len(cand), dtype=np.intp)
            limit = min(best_value, incumbent) + self.slack
            if r == 1:
                for sets in self._leaves(cand, *self._values(cand), first, limit):
                    values = self.gathered(sets)
                    if best is None:
                        best, best_value = sets[0], values[0]
                    pos = int(np.argmin(np.where(np.isnan(values), np.inf, values)))
                    if values[pos] < best_value:  # strict: the first minimum is lexicographically smallest
                        best, best_value = sets[pos], values[pos]
            else:
                keep = _unpruned(self.bounds(*self._values(cand), first, r), limit)
                cand, first = cand[keep], first[keep]
                ends = np.cumsum(n - r + 1 - first)  # children j in [first, n - r]
                base = n - r + 1 - ends  # child rank i of row p is j = base[p] + i
                total = int(ends[-1]) if len(ends) else 0
                for lo in reversed(range(0, total, _BLOCK)):
                    pending.append((cand, ends, base, lo, min(lo + _BLOCK, total)))
            if not pending:
                return best
            cand = self._children(*pending.pop())

    def _values(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(P) and the row sums sum_{p in P} w[p, :] of a block of prefixes, via its 0/1 indicator rows."""
        indicator = np.zeros((len(cand), self.n))
        indicator[np.arange(len(cand))[:, None], cand] = 1.0
        rs = indicator @ self.w
        return np.einsum("ij,ij->i", indicator, rs), rs

    def _children(self, cand, ends, base, lo, hi):
        """Children of ranks [lo, hi) of a block, in lexicographic order."""
        ranks = np.arange(lo, hi)
        parent = np.searchsorted(ends, ranks, side="right")
        return np.concatenate((cand[parent], (base[parent] + ranks)[:, None]), axis=1)

    def _leaves(self, cand, f, rs, first, limit):
        """The screened leaves under a block of r = 1 prefixes, as (<= _GATHER, k) position sets."""
        values = 2.0 * rs
        values += self.diag
        values += f[:, None]
        valid = np.arange(self.n) >= first[:, None]
        threshold = np.min(values, where=valid, initial=np.inf) + 2.0 * self.slack
        if limit < threshold:
            threshold = limit
        rows, cols = np.nonzero(valid & ~(values > threshold))
        del values, valid
        for lo in range(0, len(rows), _GATHER):
            yield np.concatenate((cand[rows[lo : lo + _GATHER]], cols[lo : lo + _GATHER, None]), axis=1)


def think_select(
    q: ChannelMatrix, k: ChannelMatrix, lam: float, protected: IndexSet = IndexSet.empty()
) -> PruneSelection:
    """Prune the unprotected channels of lowest self-importance W_jj, ignoring interactions.

    Ties break toward the lower channel index. A W with non-finite
    entries is refused with ValueError, as for mies and the oracle.
    """
    return Problem(q, k, protected).select(Selector.THINK, lam)


def mies_select(
    q: ChannelMatrix, k: ChannelMatrix, lam: float, protected: IndexSet = IndexSet.empty()
) -> PruneSelection:
    """Greedy selection that minimizes the cumulative reconstruction error.

    See `_greedy` for the score maintenance. Protected channels never
    enter the candidate set.
    """
    return Problem(q, k, protected).select(Selector.MIES, lam)


def oracle_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PruneSelection:
    """Exact minimizer of the pruning error over all feasible sets.

    Returns the global minimum of the quadratic set function over every
    size-n_prune subset of the unprotected channels, found by branch and
    bound (see `_BranchAndBound`) with the same answer as summing every
    subset; ties go to the lexicographically smallest index set. Raises
    CapacityError, before any work, when the subset count exceeds `cap`.
    """
    return Problem(q, k, protected).select(Selector.ORACLE, lam, cap=cap)


def random_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    seed: int = 0,
) -> PruneSelection:
    """Uniform random baseline over the unprotected channels."""
    return Problem(q, k, protected).select(Selector.RANDOM, lam, seed=seed)


def protect_channels(k: ChannelMatrix, policy: ProtectionPolicy) -> IndexSet:
    """Channels whose key-column norm is an outlier under the policy.

    The threshold is mean + threshold_sigma * std of all column norms
    (population std, divisor d). The raw exceedance proportion is clamped
    to [a, b] and ceil(p * d) top-norm channels are returned, ties going
    to the lower index. A disabled policy protects nothing.
    """
    if not policy.enabled:
        return IndexSet.empty()
    d = k.cols
    norms = _column_norms(k.data, 0)
    # Outside [2^-400, 2^400] a key's or a deviation's square may leave float64: rescale max|k| to [1/2, 1).
    if not 2.0**-400 <= norms.max() <= 2.0**400:
        norms = _column_norms(k.data, math.frexp(float(np.abs(k.data).max()))[1])
    tau = norms.mean() + policy.threshold_sigma * norms.std()
    count = int(np.sum(norms > tau))
    p_raw = count / d
    p_protect = min(max(p_raw, policy.a), policy.b)
    if p_protect == p_raw:
        n_protect = count
    else:
        n_protect = exact_ceil(p_protect, d)
    if n_protect == 0:
        return IndexSet.empty()
    by_norm_desc = np.lexsort((np.arange(d), -norms))
    return IndexSet(tuple(sorted(int(j) for j in by_norm_desc[:n_protect])))


def _column_norms(k: np.ndarray, e: int) -> np.ndarray:
    """Column norms of k * 2^-e (exact), each adding its squares in row order, from a row-major copy.

    numpy sums a contiguous column pairwise, which would move the norms' last bits. At d = 1 the
    copy is column-contiguous too, but there std = 0 and the clamp alone sets the count.
    """
    squares = np.ldexp(k, -e, order="C") if e else np.array(k, order="C")
    with np.errstate(over="ignore"):  # an overflowing square or sum is rescaled by the caller
        squares *= squares
        return np.sqrt(np.sum(squares, axis=0))
