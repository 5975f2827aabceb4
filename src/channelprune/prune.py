"""Channel selection: greedy minimum-incremental-error, score baselines,
an exhaustive oracle, and salient-channel protection.

A `Problem` holds one instance (query/key matrices and a protected set).
Each selector produces a removal order over the unprotected channels;
the first n_prune entries, n_prune = ceil(lambda * d) clamped to the
unprotected count, are the pruned set, and its error always comes from
`reconstruction_error_sq`. The pruned set is therefore disjoint from the
protected set, its size is the budget, and equal sets score equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .core import ChannelMatrix, IndexSet, exact_ceil, reconstruction_error_sq
from .graph import DEFAULT_ENUMERATION_CAP, InteractionGraph, _subsets, build_interaction_graph

__all__ = [
    "Problem",
    "ProtectionPolicy",
    "PruneSelection",
    "Selector",
    "mies_select",
    "oracle_select",
    "protect_channels",
    "random_select",
    "think_scores",
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
        if self.threshold_sigma < 0.0:
            raise ValueError(f"threshold_sigma must be nonnegative, got {self.threshold_sigma}")

    @classmethod
    def disabled(cls) -> "ProtectionPolicy":
        return cls(enabled=False)


@dataclass(frozen=True, eq=False)
class PruneSelection:
    """Result of one selection run.

    `order` is the removal order of the pruned channels: greedy steps for
    mies, ascending static score for think, draw order for random, and
    ascending index for oracle. `pruned` holds the same channels sorted.
    step_scores, when requested from `mies_select`, snapshots
    (candidates, scores) before every greedy step.
    """

    selector: Selector
    lam: float
    n_prune: int
    protected: IndexSet
    pruned: IndexSet
    order: tuple[int, ...]
    error_sq: float
    budget_clamped: bool = False
    step_scores: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None


def _budget(lam: float, d: int, n_protected: int) -> tuple[int, bool]:
    """ceil(lam * d), clamped to the number of unprotected channels."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1], got {lam}")
    requested = exact_ceil(lam, d)
    available = d - n_protected
    return min(requested, available), requested > available


def think_scores(q: ChannelMatrix, k: ChannelMatrix) -> np.ndarray:
    """Per-channel importance ||q_j|| * ||k_j||.

    This is the Frobenius norm of the rank-1 outer product q_j k_j^T, the
    independent score that ignores channel interactions.
    """
    if q.cols != k.cols:
        raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
    q_norms = np.sqrt(np.sum(q.data * q.data, axis=0))
    k_norms = np.sqrt(np.sum(k.data * k.data, axis=0))
    return q_norms * k_norms


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
    """
    scores = np.diag(w).copy()
    active = np.zeros(len(scores), dtype=bool)
    active[candidates] = True
    accumulated = 0.0  # f(pruned so far)
    for _ in range(len(candidates)):
        if steps is not None:
            steps.append((np.flatnonzero(active), scores[active].copy()))
        masked = np.where(active, scores, np.inf)
        j = int(np.argmin(masked))  # first minimum, so the lowest index wins ties
        if not active[j]:  # every active score overflowed to +inf and ties the mask
            j = int(np.flatnonzero(active)[0])
        chosen = float(scores[j])
        active[j] = False
        scores[active] += 2.0 * w[active, j] + (chosen - accumulated)
        accumulated = chosen
        yield j


class Problem:
    """One selection instance: query/key matrices and the protected set.

    The inputs are validated once. W, the greedy order over the
    unprotected channels and the think order are built on first use and
    kept, so selecting at several ratios builds W once and runs the
    greedy once; mies and think answer each ratio with a prefix. The
    greedy is resumed, not restarted, when a larger budget asks for more
    of its order, so it never runs past the largest budget requested.
    """

    def __init__(self, q: ChannelMatrix, k: ChannelMatrix, protected: IndexSet = IndexSet.empty()):
        if q.cols != k.cols:
            raise ValueError(f"channel count mismatch: q has {q.cols}, k has {k.cols}")
        protected.validate_within(q.cols)
        self.q = q
        self.k = k
        self.protected = protected
        mask = np.ones(q.cols, dtype=bool)
        mask[protected.as_array()] = False
        self.candidates = np.flatnonzero(mask)
        self._greedy_order: list[int] = []
        self._greedy_run: Iterator[int] | None = None

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
        """Unprotected channels by ascending think score, ties to the lower index."""
        scores = think_scores(self.q, self.k)[self.candidates]
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
            order = self._oracle_order(n_prune, cap)
        pruned = IndexSet(tuple(sorted(order)))
        return PruneSelection(
            selector=selector,
            lam=lam,
            n_prune=n_prune,
            protected=self.protected,
            pruned=pruned,
            order=order,
            error_sq=reconstruction_error_sq(self.q, self.k, pruned),
            budget_clamped=clamped,
        )

    def _oracle_order(self, n_prune: int, cap: int) -> tuple[int, ...]:
        """Lexicographically smallest minimizer of 1_S^T W 1_S over size-n_prune sets.

        A chunk is screened by one product over its 0/1 indicator rows, which
        differs from a subset's gathered sum by at most `slack` in any order:
        a tie with the chunk's minimum screens within 2 * slack of the screen's
        minimum, a win within slack of the best. Only those rows (and NaN ones)
        are gathered and summed, and only the gathered sums decide.
        """
        w = self.graph.w
        d = len(w)
        slack = 2.0 * (2 * d + n_prune**2) * np.finfo(np.float64).eps * float(np.abs(w).sum())
        best: tuple[int, ...] | None = None
        best_value = math.inf
        for rows in _subsets(self.candidates, n_prune, cap):
            indicator = np.zeros((len(rows), d))
            indicator[np.arange(len(rows))[:, None], rows] = 1.0
            screen = ((indicator @ w) * indicator).sum(axis=1)
            rows = rows[~(screen > min(screen.min() + 2.0 * slack, best_value + slack))]
            if len(rows) == 0:
                continue
            values = w[rows[:, :, None], rows[:, None, :]].sum(axis=(1, 2))
            pos = int(np.argmin(values))
            # strict: the first minimum is lexicographically smallest, even when it is +inf
            if best is None or values[pos] < best_value:
                best_value = float(values[pos])
                best = tuple(int(j) for j in rows[pos])
        return best


def think_select(
    q: ChannelMatrix, k: ChannelMatrix, lam: float, protected: IndexSet = IndexSet.empty()
) -> PruneSelection:
    """Prune the lowest-scoring unprotected channels by independent score.

    Ties break toward the lower channel index.
    """
    return Problem(q, k, protected).select(Selector.THINK, lam)


def mies_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    record_steps: bool = False,
) -> PruneSelection:
    """Greedy selection that minimizes the cumulative reconstruction error.

    See `_greedy` for the score maintenance. Protected channels never
    enter the candidate set. With `record_steps`, the result carries a
    (candidates, scores) snapshot taken before each greedy step, which is
    what the soundness self-check replays against direct quadratic-form
    evaluation.
    """
    problem = Problem(q, k, protected)
    selection = problem.select(Selector.MIES, lam)
    if record_steps:
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        list(islice(_greedy(problem.graph.w, problem.candidates, steps), selection.n_prune))
        selection = replace(selection, step_scores=tuple(steps))
    return selection


def oracle_select(
    q: ChannelMatrix,
    k: ChannelMatrix,
    lam: float,
    protected: IndexSet = IndexSet.empty(),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PruneSelection:
    """Exhaustive minimizer of the pruning error over all feasible sets.

    Enumerates every size-n_prune subset of the unprotected channels and
    returns the global minimum of the quadratic set function; ties go to
    the lexicographically smallest index set. Raises CapacityError when
    the subset count exceeds `cap`.
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
    norms = np.sqrt(np.sum(k.data * k.data, axis=0))
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

