"""Property-based tests for the selection invariants, the subset
enumerator, the branch-and-bound oracle and its bound, the stacked Jacobi
and the configuration and matrix round-trips.

Instances are seeded normal matrices, with about one column in ten scaled
up as an outlier, and a random protected set. Ratios are two-decimal
values, so budgets land on the products where a float ceil(lambda * d)
over-counts. Examples are derandomized so the suite is reproducible.
"""

import math
import string
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from channelprune import (
    ChannelMatrix,
    IndexSet,
    Problem,
    Selector,
    build_interaction_graph,
    jacobi_eigenvalues,
    mies_select,
    oracle_select,
    quadratic_form,
    reconstruction_error_sq,
)
from channelprune import graph, prune
from channelprune.cli import ExperimentConfig, load_matrix, parse_config_lines, render_report, save_matrix
from channelprune.cli.experiment import ExperimentReport

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


@PROPERTY
@given(st.integers(0, 14), st.sampled_from([37, graph._SUBSET_CHUNK]), st.data())
def test_subsets_chunks_equal_itertools(n, chunk, data):
    # A non-contiguous pool, every size, and a small chunk so that ranks cross chunk boundaries.
    pool = np.array(sorted(data.draw(st.sets(st.integers(0, 60), min_size=n, max_size=n))), dtype=np.intp)
    with mock.patch.object(graph, "_SUBSET_CHUNK", chunk):
        for k in range(n + 1):
            expected = list(combinations(pool.tolist(), k))
            chunks = list(graph._subsets(n, k, cap=len(expected)))
            assert [len(rows) for rows in chunks] == [min(chunk, len(expected) - s) for s in range(0, len(expected), chunk)]
            assert all(rows.dtype == np.intp and rows.shape[1:] == (k,) for rows in chunks)
            assert [tuple(row) for rows in chunks for row in pool[rows].tolist()] == expected


def first_minimizer(q, k, protected, size):
    """Lexicographically first arg-min of the quadratic form over every feasible size-`size` set."""
    g = build_interaction_graph(q, k)
    candidates = [j for j in range(q.cols) if j not in set(protected)]
    best, best_value = (), math.inf
    for s in combinations(candidates, size):
        value = quadratic_form(g, IndexSet(s))
        if value < best_value:
            best, best_value = s, value
    return best


@st.composite
def tie_heavy_instances(draw):
    """Small instances with duplicated, zeroed and small-integer columns, so many sets tie."""
    d = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q, k = (rng.integers(-2, 3, (rows, d)).astype(np.float64) for _ in range(2))
    else:
        q, k = rng.standard_normal((rows, d)), rng.standard_normal((rows, d))
    copied, source = rng.random(d) < 0.3, rng.integers(0, d, d)
    q[:, copied], k[:, copied] = q[:, source[copied]], k[:, source[copied]]
    q[:, rng.random(d) < 0.3] = 0.0
    protected = IndexSet(tuple(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d // 2)))))
    return ChannelMatrix(q), ChannelMatrix(k), protected


@PROPERTY
@given(tie_heavy_instances(), ratios)
def test_oracle_is_the_first_minimizer(instance, lam):
    q, k, protected = instance
    sel = oracle_select(q, k, lam, protected)
    assert tuple(sel.pruned) == first_minimizer(q, k, protected, sel.n_prune)


def test_oracle_keeps_subsets_whose_screen_is_nan():
    # W = v v^T with three channels at v = 1e154: any set holding two of them overflows a
    # column sum of the screen, which times a 0 indicator is NaN; their gathered sums are inf.
    v = np.array([1e154, 1e154, 1e154, 1.0, 2.0, -3.0])
    q, k = ChannelMatrix(v[None, :]), ChannelMatrix(np.ones((1, 6)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert tuple(oracle_select(q, k, 0.5).pruned) == first_minimizer(q, k, (), 3) == (3, 4, 5)


@st.composite
def tie_free_instances(draw):
    """Standard-normal instances with 11-14 channels, where no two sets share a value."""
    d = draw(st.integers(11, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = rng.standard_normal((draw(st.integers(2, 8)), d)), rng.standard_normal((draw(st.integers(2, 8)), d))
    protected = IndexSet(tuple(sorted(draw(st.sets(st.integers(0, d - 1), max_size=2)))))
    return ChannelMatrix(q), ChannelMatrix(k), protected


@PROPERTY
@given(tie_free_instances(), ratios, st.sampled_from([5, 64, prune._BLOCK]))
def test_branch_and_bound_is_the_first_minimizer(instance, lam, block):
    # At d <= 14 every problem fits one leaf block of the default size; smaller
    # blocks make the search bound every level and split blocks mid-expansion.
    q, k, protected = instance
    with mock.patch.object(prune, "_BLOCK", block), mock.patch.object(prune, "_GATHER", block):
        sel = oracle_select(q, k, lam, protected)
    assert tuple(sel.pruned) == first_minimizer(q, k, protected, sel.n_prune)


# (q, k) scales: W entries near 1, 1e300 and 1e-300.
SCALES = [(1.0, 1.0), (1e150, 1.0), (1e75, 1e75), (1e-150, 1.0), (1e-75, 1e-75)]


@PROPERTY
@given(st.integers(4, 9), st.integers(0, 2**32 - 1), st.sampled_from(SCALES), st.data())
def test_block_bounds_never_exceed_a_completion(d, seed, scales, data):
    # Every prefix with r >= 2 left to choose, bounded alone; its value and row
    # sums are gathered and summed, in another order than the search's product.
    rng = np.random.default_rng(seed)
    q, k = (ChannelMatrix(rng.standard_normal((3, d)) * scale) for scale in scales)
    w = build_interaction_graph(q, k).w
    size = data.draw(st.integers(2, d - 2))
    with mock.patch.object(prune, "_BLOCK", 0):  # tabulate even when one leaf block would do
        search = prune._BranchAndBound(w, size)
    assert math.isfinite(search.slack)
    for t in range(size - 1):
        r = size - t
        for prefix in combinations(range(d - r), t):
            first = prefix[-1] + 1 if t else 0
            rows = list(prefix)
            bound = search.bounds(np.array([w[np.ix_(rows, rows)].sum()]), w[rows].sum(axis=0)[None, :], np.array([first]), r)[0]
            sets = [rows + list(rest) for rest in combinations(range(first, d), r)]
            assert bound <= search.gathered(np.array(sets)).min() + search.slack


def test_nan_or_infinite_bounds_never_prune():
    bounds = np.array([np.nan, np.inf, -np.inf, 1.0, 3.0])
    assert prune._unpruned(bounds, 2.0).tolist() == [True, True, True, True, False]
    assert prune._unpruned(bounds, np.nan).all()
    # sum |W| overflows, so the slack is +inf: the bounded search still reaches the first minimizer.
    v = np.array([1e154, 1e154, 1e154, 1.0, 2.0, -3.0])
    q, k = ChannelMatrix(v[None, :]), ChannelMatrix(np.ones((1, 6)))
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(prune, "_BLOCK", 1):
        assert tuple(oracle_select(q, k, 0.5).pruned) == first_minimizer(q, k, (), 3) == (3, 4, 5)


# Signed zeros, subnormals and the extremes of the finite range, beside ordinary floats.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308])
finite_floats = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


def scalar_jacobi(a, tol=1e-10, max_sweeps=100):
    """The one-matrix, one-rotation-at-a-time loop the stacked kernel replaced."""
    m = np.array(a, dtype=np.float64)
    n = m.shape[0]
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
                col_p, col_q = m[:, p].copy(), m[:, q].copy()
                m[:, p], m[:, q] = c * col_p - s * col_q, s * col_p + c * col_q
                row_p, row_q = m[p, :].copy(), m[q, :].copy()
                m[p, :], m[q, :] = c * row_p - s * row_q, s * row_p + c * row_q
                m[p, q] = m[q, p] = 0.0
        if not rotated:
            break
    return np.sort(m.diagonal())


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_stacked_jacobi_equals_each_matrix_alone_bitwise(count, n, equal_diagonal, data):
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))
    raw = data.draw(arrays(np.float64, (count, n, n), elements=entries))
    if equal_diagonal:  # a negative a_pq then gives theta = -0.0
        raw[:, np.arange(n), np.arange(n)] = 1.5
    stack = np.triu(raw) + np.swapaxes(np.triu(raw, 1), 1, 2)  # symmetric, zeros included
    together = jacobi_eigenvalues(stack)
    assert together.shape == (count, n)
    for i in range(count):
        assert together[i].tobytes() == jacobi_eigenvalues(stack[i]).tobytes()
        assert together[i].tobytes() == scalar_jacobi(stack[i]).tobytes()


@st.composite
def configs(draw):
    unit = st.one_of(st.sampled_from([0.0, -0.0, 0.5000000000001, 1.0]), st.floats(0.0, 1.0))
    big = st.floats(0.0, 1e6)
    names = st.text(string.ascii_letters + string.digits + "._-", min_size=1, max_size=16)
    files = draw(st.booleans())  # from-files mode needs q_path and k_path; synthetic embeds them too
    L = draw(st.integers(1, 4096))
    a = draw(unit)
    return ExperimentConfig(
        mode="from-files" if files else "synthetic",
        q_path=draw(names if files else st.none() | names),
        k_path=draw(names if files else st.none() | names),
        q_future_path=draw(st.none() | names),
        d=draw(st.integers(1, 4096)),
        L=L,
        L_obs=draw(st.integers(1, L)),
        L_future=draw(st.integers(1, 4096)),
        outlier_fraction=draw(unit),
        outlier_scale=draw(st.floats(5e-324, 1e6)),
        drift_gamma=draw(big),
        lambdas=tuple(draw(st.lists(unit, min_size=1, max_size=4))),
        selectors=tuple(draw(st.lists(st.sampled_from(Selector), min_size=1, max_size=4))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4))),
        protect=draw(st.booleans()),
        protect_sigma=draw(big),
        protect_bounds=(a, draw(st.floats(a, 1.0))),
        oracle=draw(st.booleans()),
        enumeration_cap=draw(st.integers(0, 2**40)),
        timing=draw(st.booleans()),
    ).validate()


@PROPERTY
@given(configs())
def test_config_survives_its_embedded_lines(cfg):
    text = render_report(ExperimentReport(config=cfg, rows=()))
    embedded = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    again = parse_config_lines(embedded).validate()
    assert repr(again) == repr(cfg)  # repr tells -0.0 from 0.0 and shows every float digit


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=finite_floats))
def test_grcm_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "property.grcm"
    save_matrix(ChannelMatrix(values), path)
    assert load_matrix(path).data.tobytes() == values.tobytes()
