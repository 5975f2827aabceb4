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
from .graph import DEFAULT_ENUMERATION_CAP, _check_capacity, _first_minimizer, build_interaction_graph, quadratic_form

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
    counted, the count is clamped to [ceil(a * d), ceil(b * d)], and that
    many top-norm channels are excluded from pruning; b = 0 protects nothing.
    """

    threshold_sigma: float = 1.0
    a: float = 0.01
    b: float = 0.125

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
    row i is candidate i's column) into a private block. Pruning candidate i
    sets its score and the block's column i to +inf, so each step adds
    doubled[i] + gap (gap = the chosen score minus the previous one) to every
    score, unmasked: a pruned channel's increment is +inf + gap = +inf, so its
    score stays +inf, and each active score gets the same sums, with the same
    bits and floating-point warnings, as an update of the active scores alone.
    Only a gap of NaN or -inf, reachable once scores overflow, would make
    +inf + gap NaN; such a step updates the active scores alone. W's other
    entries, such as a protected channel's, are never read. `candidates` must
    be ascending.
    """
    with np.errstate(over="ignore"):
        doubled = 2.0 * w[candidates][:, candidates]
    active = np.ones(len(candidates), dtype=bool)
    scores = w[candidates, candidates]
    increment = np.empty(len(candidates))
    channels = candidates.tolist()
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
        doubled[:, i] = np.inf
        gap = chosen - accumulated
        if gap > -math.inf:
            np.add(doubled[i], gap, out=increment)
            scores += increment
        else:  # NaN or -inf
            np.add(doubled[i], gap, out=increment, where=active)
            np.add(scores, increment, out=scores, where=active)
        accumulated = chosen
        yield channels[i]


class Problem:
    """One selection instance: query/key matrices, the protected set and optional future queries.

    The inputs are validated once. W (`w`, a read-only array), the greedy order over the
    unprotected channels, the think order and the oracle order of each
    budget are built on first use and kept, so selecting at several
    ratios builds W once and runs the greedy once, and asking the oracle
    again for a budget costs nothing; mies and think answer each ratio
    with a prefix. The greedy is resumed, not restarted, when a larger
    budget asks for more of its order, so it never runs past the largest
    budget requested. Each random call draws from a fresh
    `np.random.default_rng(seed)`, for any seed that numpy accepts.
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
        self._windows = (slice(0, q.rows),) if q_future is None else (slice(0, q.rows), slice(q.rows, None))
        self.protected = protected
        mask = np.ones(q.cols, dtype=bool)
        mask[protected.as_array()] = False
        self.candidates = np.flatnonzero(mask)
        self._greedy_order: list[int] = []
        self._greedy_run: Iterator[int] | None = None
        self._oracle_orders: dict[int, tuple[int, ...]] = {}

    def attention_norms(self) -> tuple[float, ...]:
        """||Q K^T||_F per query window, observed then future, in one evaluator call; refuses a 0 or +inf square."""
        squares = _error_sq_blocks(self._queries, self.k.data, slice(None), self._windows)
        for label, square in zip(("observed", "future"), squares):
            if not 0.0 < square < math.inf:
                problem = "zero or too small: its squared Frobenius norm is 0" if square == 0.0 else (
                    "too large: its squared Frobenius norm overflows float64")
                raise DegenerateInputError(f"attention product of {label} queries is {problem}")
        return tuple(map(math.sqrt, squares))

    @cached_property
    def w(self) -> np.ndarray:
        return build_interaction_graph(self.q, self.k)

    def _greedy_prefix(self, n: int) -> tuple[int, ...]:
        """First n channels of the greedy order, running the greedy only as far as needed."""
        if n > len(self._greedy_order):
            if self._greedy_run is None:
                self._greedy_run = _greedy(self.w, self.candidates)
            try:
                self._greedy_order.extend(islice(self._greedy_run, n - len(self._greedy_order)))
            except BaseException:  # a raising generator is spent: restart the greedy on the next call
                self._greedy_order, self._greedy_run = [], None
                raise
        return tuple(self._greedy_order[:n])

    @cached_property
    def _think_order(self) -> tuple[int, ...]:
        """Unprotected channels by ascending W_jj, ties to the lower index.

        W_jj = ||q_j||^2 ||k_j||^2 is ThinK's independent score ||q_j|| ||k_j||
        squared, which keeps its order: the greedy's first-step scores, never updated.
        """
        scores = self.w.diagonal()[self.candidates]
        return tuple(self.candidates[np.argsort(scores, kind="stable")].tolist())

    def select(
        self, selector: Selector, lam: float, seed: int = 0, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> PruneSelection:
        """Prune ceil(lam * d) unprotected channels (clamped) with `selector`.

        mies, think and the oracle refuse with ValueError a W with non-finite
        entries at a nonzero budget. The oracle returns the global minimum of
        1_S^T W 1_S over every size-n_prune subset S of the unprotected channels,
        found by branch and bound (see `graph._first_minimizer`) with the same
        answer as summing every subset; ties go to the lexicographically
        smallest index set. It raises CapacityError, before any work, when that
        subset count exceeds `cap`. Each random call draws from a fresh
        `np.random.default_rng(seed)`, for any seed that numpy accepts.
        """
        selector = Selector(selector)
        n_prune, clamped = _budget(lam, self.q.cols, len(self.protected))
        if selector is Selector.ORACLE:
            self.check_oracle_capacity(lam, cap)  # before the zero budget: cap=0 refuses even C(n, 0)
        if n_prune == 0:  # no selector reads W to prune nothing
            order = ()
        elif selector is Selector.MIES:
            order = self._greedy_prefix(n_prune)
        elif selector is Selector.THINK:
            order = self._think_order[:n_prune]
        elif selector is Selector.RANDOM:
            drawn = np.random.default_rng(seed).choice(self.candidates, size=n_prune, replace=False)
            order = tuple(drawn.tolist())
        else:
            if n_prune not in self._oracle_orders:
                self._oracle_orders[n_prune] = self._oracle_order(n_prune)
            order = self._oracle_orders[n_prune]
        pruned = IndexSet(tuple(sorted(order)))
        error_sq, *future = _error_sq_blocks(self._queries, self.k.data, pruned.as_array(), self._windows)
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
        """`_first_minimizer` over the unprotected pool, its incumbent the greedy prefix's `quadratic_form`."""
        pool = self.candidates
        best = _first_minimizer(self.w[np.ix_(pool, pool)], n_prune, lambda: quadratic_form(
            self.w, IndexSet(tuple(sorted(self._greedy_prefix(n_prune))))))
        return tuple(pool[best].tolist())


def think_select(
    q: ChannelMatrix, k: ChannelMatrix, lam: float, protected: IndexSet = IndexSet.empty()
) -> PruneSelection:
    """`Problem(q, k, protected).select(Selector.THINK, lam)`, kept for bench/ until ROADMAP item 3."""
    return Problem(q, k, protected).select(Selector.THINK, lam)


def mies_select(
    q: ChannelMatrix, k: ChannelMatrix, lam: float, protected: IndexSet = IndexSet.empty()
) -> PruneSelection:
    """`Problem(q, k, protected).select(Selector.MIES, lam)`, kept for bench/ until ROADMAP item 3."""
    return Problem(q, k, protected).select(Selector.MIES, lam)


def oracle_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PruneSelection:
    """`Problem(q, k, protected).select(Selector.ORACLE, lam, cap=cap)`, kept for bench/ until ROADMAP item 3."""
    return Problem(q, k, protected).select(Selector.ORACLE, lam, cap=cap)


def random_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    seed: int = 0,
) -> PruneSelection:
    """`Problem(q, k, protected).select(Selector.RANDOM, lam, seed=seed)`, kept for bench/ until ROADMAP item 3."""
    return Problem(q, k, protected).select(Selector.RANDOM, lam, seed=seed)


def protect_channels(k: ChannelMatrix, policy: ProtectionPolicy) -> IndexSet:
    """Channels whose key-column norm is an outlier under the policy.

    The threshold is mean + threshold_sigma * std of all column norms
    (population std, divisor d). The count of norms above it is clamped to
    [ceil(a * d), ceil(b * d)], each bound read as the decimal it prints as,
    and that many top-norm channels are returned, ties going to the lower
    index. Column j's norm is the square root of the key Gram's diagonal
    entry (`k.gram`, the one the W build uses), 2^-e_j times the true norm;
    the norms then share one scale, 2^-e_j for the largest e_j of a nonzero
    column, which moves neither their order nor their side of tau.
    """
    d, e = k.cols, k.exponents
    norms = np.sqrt(k.gram.diagonal())
    norms = np.ldexp(norms, e - e.max(where=norms > 0, initial=e.min()))  # a zero column's e (0) sets no scale
    mean = np.add.reduce(norms) / d  # norms.mean(), and below norms.std(), by numpy's own two passes
    deviations = norms - mean
    tau = mean + policy.threshold_sigma * math.sqrt(np.add.reduce(deviations * deviations) / d)
    count = np.count_nonzero(norms > tau)
    n_protect = min(max(count, exact_ceil(policy.a, d)), exact_ceil(policy.b, d))
    by_norm_desc = np.argsort(-norms, kind="stable")
    return IndexSet(tuple(sorted(by_norm_desc[:n_protect].tolist())))
