"""Property-based tests for the selection invariants.

Instances are seeded normal matrices, with about one column in ten scaled
up as an outlier, and a random protected set. Ratios are two-decimal
values, so budgets land on the products where a float ceil(lambda * d)
over-counts. Examples are derandomized so the suite is reproducible.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from channelprune import (
    ChannelMatrix,
    IndexSet,
    Problem,
    Selector,
    mies_select,
    reconstruction_error_sq,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ratios = st.integers(0, 100).map(lambda i: i / 100)


@st.composite
def instances(draw, d_max=16):
    d = draw(st.integers(1, d_max))
    rows_q, rows_k = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.where(rng.random(d) < 0.1, draw(st.sampled_from([10.0, 100.0])), 1.0)
    q = ChannelMatrix(rng.standard_normal((rows_q, d)) * scales)
    k = ChannelMatrix(rng.standard_normal((rows_k, d)) * scales)
    protected = IndexSet(tuple(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))))
    return q, k, protected


@PROPERTY
@given(instances(), st.lists(ratios, min_size=2, max_size=4))
def test_mies_and_think_orders_are_prefix_consistent(instance, lams):
    q, k, protected = instance
    shared = Problem(q, k, protected)  # resumes its greedy as the budgets grow or shrink
    for selector in (Selector.MIES, Selector.THINK):
        fresh = [Problem(q, k, protected).select(selector, lam).order for lam in lams]
        assert [shared.select(selector, lam).order for lam in lams] == fresh
        by_length = sorted(fresh, key=len)
        for shorter, longer in zip(by_length, by_length[1:]):
            assert longer[: len(shorter)] == shorter


@PROPERTY
@given(instances(), ratios)
def test_recorded_steps_pick_the_order(instance, lam):
    # record_steps reruns the greedy for exactly n_prune steps; each step's
    # arg-min (first minimum) must be the order's entry at that step.
    q, k, protected = instance
    sel = mies_select(q, k, lam, protected, record_steps=True)
    assert len(sel.step_scores) == sel.n_prune
    for step, (candidates, scores) in enumerate(sel.step_scores):
        assert int(candidates[np.argmin(scores)]) == sel.order[step]


@PROPERTY
@given(instances(d_max=10), ratios, st.integers(0, 1000))
def test_error_sq_is_the_evaluator_bitwise(instance, lam, seed):
    q, k, protected = instance
    problem = Problem(q, k, protected)
    for selector in Selector:
        sel = problem.select(selector, lam, seed=seed)
        assert sel.error_sq == reconstruction_error_sq(q, k, sel.pruned)


@PROPERTY
@given(instances(d_max=10), ratios, st.integers(0, 1000))
def test_pruned_avoids_protected_and_meets_exact_budget(instance, lam, seed):
    q, k, protected = instance
    budget = min(math.ceil(Fraction(str(lam)) * q.cols), q.cols - len(protected))
    problem = Problem(q, k, protected)
    for selector in Selector:
        sel = problem.select(selector, lam, seed=seed)
        assert not set(sel.pruned) & set(protected)
        assert len(sel.pruned) == sel.n_prune == budget
        assert sorted(sel.order) == list(sel.pruned)


@PROPERTY
@given(instances(), st.data())
def test_evaluator_matches_longdouble_reference(instance, data):
    q, k, _ = instance
    pruned = IndexSet(tuple(sorted(data.draw(st.sets(st.integers(0, q.cols - 1), min_size=1)))))
    idx = pruned.as_array()
    product = q.data[:, idx].astype(np.longdouble) @ k.data[:, idx].astype(np.longdouble).T
    reference = np.sum(product * product)
    assert abs(np.longdouble(reconstruction_error_sq(q, k, pruned)) - reference) <= 1e-12 * reference
