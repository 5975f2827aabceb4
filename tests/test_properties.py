"""Property-based tests for the selection invariants, the lexicographic
subset walk, the branch-and-bound oracle and its bound, the chunked
certificate, the configuration and matrix round-trips and the sweep's
report contract.

Instances are seeded normal matrices, with about one column in ten scaled
up as an outlier, and a random protected set. Ratios are two-decimal
values, so budgets land on the products where a float ceil(lambda * d)
over-counts. Examples are derandomized so the suite is reproducible.
"""

import math
import re
import string
import warnings
from fractions import Fraction
from itertools import combinations, islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from channelprune import (
    CapacityError,
    ChannelMatrix,
    IndexSet,
    InteractionGraph,
    Problem,
    ProtectionPolicy,
    Selector,
    build_interaction_graph,
    generate_instance,
    oracle_select,
    protect_channels,
    quadratic_form,
    reconstruction_error_sq,
    restricted_eigenvalues,
)
from channelprune import graph, prune
from channelprune.cli import (
    ExperimentConfig,
    load_matrix,
    parse_config_lines,
    render_report,
    replay_report,
    run_experiment,
    save_matrix,
    write_report,
)
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
@given(instances(), st.lists(st.tuples(st.integers(0, 3), ratios), min_size=1, max_size=8))
def test_each_random_draw_equals_a_fresh_generators(instance, cells):
    # One Problem answers every call with a fresh generator, so repeated seeds draw alike.
    q, k, protected = instance
    shared = Problem(q, k, protected)
    for seed, lam in cells:
        sel = shared.select(Selector.RANDOM, lam, seed=seed)
        fresh = np.random.default_rng(seed).choice(shared.candidates, size=sel.n_prune, replace=False)
        assert sel.order == tuple(fresh.tolist())


@PROPERTY
@given(instances(), ratios)
def test_recorded_steps_pick_the_order(instance, lam):
    # Each (candidates, scores) snapshot of the greedy that `Problem` runs has its
    # arg-min (first minimum) at the mies order's entry for that step.
    problem = Problem(*instance)
    sel = problem.select(Selector.MIES, lam)
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    list(islice(prune._greedy(problem.graph.w, problem.candidates, steps), sel.n_prune))
    for step, (candidates, scores) in enumerate(steps):
        assert int(candidates[np.argmin(scores)]) == sel.order[step]


@PROPERTY
@given(instances(d_max=10), ratios, st.integers(0, 1000), st.integers(2, 12))
def test_error_sq_is_the_evaluator_bitwise(instance, lam, seed, rows_future):
    q, k, protected = instance
    q_future = ChannelMatrix(np.random.default_rng(seed).standard_normal((rows_future, q.cols)))
    observed_only = Problem(q, k, protected)
    problem = Problem(q, k, protected, q_future)
    for selector in Selector:
        alone = observed_only.select(selector, lam, seed=seed)
        sel = problem.select(selector, lam, seed=seed)
        assert alone.error_future_sq is None
        assert alone.error_sq == sel.error_sq == reconstruction_error_sq(q, k, sel.pruned)
        assert sel.error_future_sq == reconstruction_error_sq(q_future, k, sel.pruned)


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
@given(instances(), st.floats(0.0, 1e308))
def test_a_zero_clamp_protects_nothing(instance, sigma):
    _, k, _ = instance
    assert len(protect_channels(k, ProtectionPolicy(threshold_sigma=sigma, a=0.0, b=0.0))) == 0


@PROPERTY
@given(instances(), st.integers(-1000, 1000), st.integers(0, 30))
@example((None, ChannelMatrix([[0.9], [0.5]]), None), 512, 10)  # no square overflows, but their sum does
@example((None, ChannelMatrix([[3.0] * 8 + [1.0] * 7 + [0.0]]), None), -565, 10)  # a zero column among tiny ones
def test_protected_set_does_not_depend_on_a_power_of_two_scale(instance, e, tenths):
    # Scaling the keys by 2^e is exact while every nonzero entry stays finite and normal, so
    # the protected set must not move, even where the squares overflow or underflow.
    _, k, _ = instance
    scaled = np.ldexp(k.data, e)
    assume(np.all(np.isfinite(scaled)) and np.all((np.abs(scaled) >= np.finfo(np.float64).tiny) | (k.data == 0)))
    policy = ProtectionPolicy(threshold_sigma=tenths / 10, a=0.0, b=1.0)
    assert protect_channels(ChannelMatrix(scaled), policy) == protect_channels(k, policy)


@PROPERTY
@given(instances(), st.data())
def test_exponents_shift_by_an_exact_channel_scale(instance, data):
    # Column j times 2^a_j is exact while every nonzero entry stays finite and normal, so
    # exponents[j] moves by exactly a_j; a zero column keeps exponent 0 at any scale.
    _, k, _ = instance
    d = k.cols
    a = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d)), dtype=np.int32)
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    base = np.where(zero, 0.0, k.data)
    scaled = np.ldexp(base, a)
    assume(np.all(np.isfinite(scaled)) and np.all((np.abs(scaled) >= np.finfo(np.float64).tiny) | (base == 0)))
    e = ChannelMatrix(base).exponents
    assert e[zero].tolist() == [0] * int(zero.sum())
    assert ChannelMatrix(scaled).exponents.tolist() == np.where(zero, 0, e + a).tolist()


@PROPERTY
@given(instances(), st.data())
def test_evaluator_matches_longdouble_reference(instance, data):
    q, k, _ = instance
    pruned = IndexSet(tuple(sorted(data.draw(st.sets(st.integers(0, q.cols - 1), min_size=1)))))
    idx = pruned.as_array()
    product = q.data[:, idx].astype(np.longdouble) @ k.data[:, idx].astype(np.longdouble).T
    reference = np.sum(product * product)
    assert abs(np.longdouble(reconstruction_error_sq(q, k, pruned)) - reference) <= 1e-12 * reference


@st.composite
def signed_zero_pairs(draw):
    """q and k with +0.0 and -0.0 columns, so that many Gram products are -0.0."""
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = (rng.standard_normal((draw(st.integers(1, 6)), d)) for _ in range(2))
    for m in (q, k):
        m[:, rng.random(d) < 0.4] = draw(st.sampled_from([0.0, -0.0]))
    return ChannelMatrix(q), ChannelMatrix(k)


def mirrored_w(q, k):
    """W as it was built before: the Gram product's strict upper triangle, mirrored, and its diagonal."""
    raw = (q.data.T @ q.data) * (k.data.T @ k.data)
    upper = np.triu(raw, 1)
    w = upper + upper.T
    np.fill_diagonal(w, np.diag(raw))
    return w


@PROPERTY
@given(signed_zero_pairs())
@example((ChannelMatrix(np.array([[0.0, 1.0]])), ChannelMatrix(np.array([[1.0, -1.0]]))))  # raw W[0, 1] is -0.0
def test_w_equals_the_mirrored_upper_triangle_bytewise(pair):
    assert build_interaction_graph(*pair).w.tobytes() == mirrored_w(*pair).tobytes()


@PROPERTY
@given(instances(), st.data())
def test_w_and_orders_do_not_depend_on_exact_channel_scales(instance, data):
    # Channel j of q times 2^a_j and of k times 2^-a_j leaves W as it is. Those scalings are exact
    # while every entry stays finite and normal, so W's bytes and every order must not move, even
    # where a direct Gram would overflow or underflow float64.
    q, k, protected = instance
    d = q.cols
    a = data.draw(
        st.one_of(
            st.integers(-1000, 1000).map(lambda e: [e] * d),
            st.lists(st.integers(-1000, 1000), min_size=d, max_size=d),
        )
    )
    q_scaled, k_scaled = np.ldexp(q.data, a), np.ldexp(k.data, np.negative(a))
    for m in (q_scaled, k_scaled):
        assume(np.all(np.isfinite(m)) and np.all(np.abs(m) >= np.finfo(np.float64).tiny))
    base, scaled = Problem(q, k, protected), Problem(ChannelMatrix(q_scaled), ChannelMatrix(k_scaled), protected)
    assert scaled.graph.w.tobytes() == base.graph.w.tobytes()
    for selector in (Selector.MIES, Selector.THINK, Selector.ORACLE):
        assert scaled.select(selector, 0.5).order == base.select(selector, 0.5).order


@PROPERTY
@given(st.integers(1, 14), st.sampled_from([(5, 37), (graph._BLOCK, graph._GATHER)]), st.integers(0, 2**32 - 1))
def test_a_walk_that_does_not_bound_yields_every_subset_in_order(n, sizes, seed):
    # Small blocks and chunks split every level and every leaf block; W holds ties and zeros.
    # An infinite slack never bounds, nor does a finite one when the walk reads the table: either
    # walk enumerates, with nothing pruned or dropped.
    rng = np.random.default_rng(seed)
    a = rng.integers(-1, 2, (n, n)).astype(np.float64)
    w = a + a.T
    with mock.patch.object(graph, "_BLOCK", sizes[0]), mock.patch.object(graph, "_GATHER", sizes[1]):
        for k, slack in product(range(1, n + 1), (math.inf, graph._rounding_slack(w))):
            search = graph._BranchAndBound(w, k, slack)
            if search.lex is None and math.isfinite(slack):
                continue
            assert not search.bounded  # a walk that does not bound builds no bound table
            chunks = [sets for sets, _ in search.leaves()]
            assert all(rows.dtype == np.intp and rows.ndim == 2 and rows.shape[1] == k for rows in chunks)
            assert all(1 <= len(rows) <= max(1, sizes[1] // (k * k)) for rows in chunks)
            assert [tuple(row) for rows in chunks for row in rows.tolist()] == list(combinations(range(n), k))


@PROPERTY
@given(st.integers(1, 14), st.data())
def test_the_memoized_table_is_the_lexicographic_walk(n, data):
    # The table is every size-k set in `combinations` order; a walk that fits one chunk yields it
    # as that chunk, and with a smaller gather budget the walk's own chunks give the same rows.
    k = data.draw(st.integers(1, n))
    sets, offsets = graph._lexicographic(n, k)
    assert sets.dtype == offsets.dtype == np.intp and sets.shape == (math.comb(n, k), k)
    assert [tuple(row) for row in sets.tolist()] == list(combinations(range(n), k))
    assert offsets.tolist() == (sets[:, :, None] * n + sets[:, None, :]).tolist()
    w = np.zeros((n, n))
    floats = math.comb(n, k) * k * k
    with mock.patch.object(graph, "_GATHER", max(floats, graph._GATHER)):
        ((chunk, _),) = graph._BranchAndBound(w, k, math.inf).leaves()
    assert chunk is sets
    if floats > 1:
        with mock.patch.object(graph, "_GATHER", data.draw(st.integers(1, floats - 1))):
            search = graph._BranchAndBound(w, k, math.inf)
            assert search.lex is None
            chunks = [rows for rows, _ in search.leaves()]
        assert np.concatenate(chunks).tolist() == sets.tolist()


@PROPERTY
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e306, 1e-300]), st.data())
def test_the_flat_gather_is_the_fancy_index_bitwise(n, seed, scale, data):
    # Near 1e306 the sums overflow to inf and near 1e-300 they are subnormal or exact: each stack
    # the walk yields, the table's and the DFS chunks', and so every sum and eigenvalue of it, has
    # the fancy index's bits.
    k = data.draw(st.integers(1, n))
    a = np.random.default_rng(seed).standard_normal((n, n))
    w = (a + a.T) * scale
    sets, offsets = graph._lexicographic(n, k)
    fancy = w[sets[:, :, None], sets[:, None, :]]
    assert w.ravel().take(offsets).tobytes() == w.ravel()[offsets].tobytes() == fancy.tobytes()
    floats = math.comb(n, k) * k * k
    with mock.patch.object(graph, "_GATHER", max(floats, graph._GATHER)):
        ((chunk, stack),) = graph._BranchAndBound(w, k, math.inf).leaves()
    assert chunk is sets
    assert stack.flags.c_contiguous and stack.shape == fancy.shape and stack.tobytes() == fancy.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert stack.sum(axis=(1, 2)).tobytes() == fancy.sum(axis=(1, 2)).tobytes()
    if floats > 1:
        with mock.patch.object(graph, "_GATHER", data.draw(st.integers(1, floats - 1))):
            chunks = list(graph._BranchAndBound(w, k, math.inf).leaves())
        for rows, stack in chunks:
            assert stack.flags.c_contiguous and stack.shape == (len(rows), k, k)
            assert stack.tobytes() == w[rows[:, :, None], rows[:, None, :]].tobytes()
        assert np.concatenate([stack for _, stack in chunks]).tobytes() == fancy.tobytes()


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


@settings(PROPERTY, max_examples=120)
@given(tie_heavy_instances(), ratios, st.sampled_from([(graph._BLOCK, graph._GATHER), (graph._BLOCK, 16), (5, 5)]))
def test_oracle_is_the_first_minimizer(instance, lam, sizes):
    # Blocks of 5 send ties, zero and duplicated columns through the bound table, the
    # carried sums and children split across pending blocks that share a parent. A 16-float
    # gather keeps almost every walk off the lexicographic table, so it bounds at the default block.
    q, k, protected = instance
    with mock.patch.object(graph, "_BLOCK", sizes[0]), mock.patch.object(graph, "_GATHER", sizes[1]):
        sel = oracle_select(q, k, lam, protected)
    assert tuple(sel.pruned) == first_minimizer(q, k, protected, sel.n_prune)


def test_oracle_passes_over_subsets_whose_gathered_sum_overflows():
    # W = v v^T with three channels at v = 1e154: the gathered sum of any set holding two of
    # them overflows to inf, and the fold still returns the first minimizer among the rest.
    v = np.array([1e154, 1e154, 1e154, 1.0, 2.0, -3.0])
    q, k = ChannelMatrix(v[None, :]), ChannelMatrix(np.ones((1, 6)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert tuple(oracle_select(q, k, 0.5).pruned) == first_minimizer(q, k, (), 3) == (3, 4, 5)


def masked_greedy(w, candidates, steps):
    """The greedy loop that masked the scores and gathered W's active column at every step."""
    scores = np.diag(w).copy()
    active = np.zeros(len(scores), dtype=bool)
    active[candidates] = True
    accumulated = 0.0
    for _ in range(len(candidates)):
        steps.append((np.flatnonzero(active), scores[active].copy()))
        masked = np.where(active, scores, np.inf)
        j = int(np.argmin(masked))
        if not active[j]:
            j = int(np.flatnonzero(active)[0])
        chosen = float(scores[j])
        active[j] = False
        scores[active] += 2.0 * w[active, j] + (chosen - accumulated)
        accumulated = chosen
        yield j


@st.composite
def greedy_inputs(draw):
    """W of a tie-heavy instance, sometimes scaled so that sums of its entries overflow float64.

    The scaled W stays finite: its largest entry is at most the float64 maximum, and the sum
    of its absolute values is 1/4, 1 or 4 times that maximum where the largest entry allows.
    """
    q, k, protected = draw(tie_heavy_instances())
    w = build_interaction_graph(q, k).w
    peak, total = np.abs(w).max(), np.abs(w).sum()
    factor = draw(st.sampled_from([None, 0.25, 1.0, 4.0]))
    if factor is not None and peak > 0.0:  # scores and 2 * W overflow to +inf
        w = w * min(1.0 / peak, factor / total) * np.finfo(np.float64).max
    candidates = np.setdiff1d(np.arange(q.cols), protected.as_array())
    return w, candidates


def greedy_run(greedy, w, candidates):
    steps = []
    return list(greedy(w, candidates, steps)), steps


@settings(PROPERTY, max_examples=200)
@given(greedy_inputs())
def test_greedy_equals_the_masked_loop_bitwise(inputs):
    w, candidates = inputs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = greedy_run(masked_greedy, w, candidates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning the masked loop did not raise fails here
        for message in {str(c.message) for c in caught}:
            warnings.filterwarnings("ignore", message=re.escape(message))
        got = greedy_run(prune._greedy, w, candidates)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1]) == len(candidates)
    for (got_c, got_s), (want_c, want_s) in zip(got[1], want[1]):
        assert got_c.tobytes() == want_c.tobytes() and got_s.tobytes() == want_s.tobytes()


def masked_block_greedy(w, candidates, steps):
    """The greedy whose two adds per step were masked to the active scores."""
    with np.errstate(over="ignore"):
        doubled = 2.0 * w[candidates][:, candidates]
    active = np.ones(len(candidates), dtype=bool)
    scores = w[candidates, candidates]
    increment = np.empty(len(candidates))
    accumulated = 0.0
    for _ in range(len(candidates)):
        steps.append((candidates[active], scores[active]))
        i = int(scores.argmin())
        if not active[i]:
            i = int(active.argmax())
        chosen = float(scores[i])
        active[i] = False
        scores[i] = np.inf
        np.add(doubled[i], chosen - accumulated, out=increment, where=active)
        np.add(scores, increment, out=scores, where=active)
        accumulated = chosen
        yield int(candidates[i])


@st.composite
def overflowing_greedy_inputs(draw):
    """A symmetric W with entries near +-1e307, where sums of a few overflow, and an ascending candidate subset.

    Entries up to +-1.7e308 double to +-inf, so a score can fall to -inf, a step's gap can be -inf or NaN,
    and a later score can be NaN.
    """
    n = draw(st.integers(1, 9))
    near = st.sampled_from([1e307, -1e307, 4e307, -4e307, 1.7e308, -1.7e308, 0.0, 1.0])
    entries = st.lists(near | st.floats(-1.7e308, 1.7e308), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    w = np.zeros((n, n))
    w[np.triu_indices(n)] = draw(entries)
    w += np.triu(w, 1).T
    candidates = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
    return w, candidates


@settings(PROPERTY, max_examples=400)
@given(overflowing_greedy_inputs())
def test_the_unmasked_greedy_step_equals_the_masked_one_bitwise(inputs):
    # Orders, every (candidates, scores) snapshot and the warnings raised, in order, must all match.
    w, candidates = inputs
    runs = []
    for greedy in (masked_block_greedy, prune._greedy):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            order, steps = greedy_run(greedy, w, candidates)
        runs.append((order, [(c.tobytes(), s.tobytes()) for c, s in steps], [(c.category, str(c.message)) for c in caught]))
    assert runs[1] == runs[0]


def test_greedy_never_reads_a_protected_channels_entries():
    # Channel 0 is protected with W entries near the float64 maximum, where 2 * W overflows.
    w = np.array([[1.7e308, 1e308, -1e308], [1e308, 1.0, 0.5], [-1e308, 0.5, 2.0]])
    candidates = np.array([1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert greedy_run(prune._greedy, w, candidates)[0] == greedy_run(masked_greedy, w, candidates)[0] == [1, 2]


@st.composite
def tie_free_instances(draw):
    """Standard-normal instances with 11-14 channels, where no two sets share a value."""
    d = draw(st.integers(11, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = rng.standard_normal((draw(st.integers(2, 8)), d)), rng.standard_normal((draw(st.integers(2, 8)), d))
    protected = IndexSet(tuple(sorted(draw(st.sets(st.integers(0, d - 1), max_size=2)))))
    return ChannelMatrix(q), ChannelMatrix(k), protected


@PROPERTY
@given(tie_free_instances(), ratios, st.sampled_from([5, 64, graph._BLOCK]))
def test_branch_and_bound_is_the_first_minimizer(instance, lam, block):
    # At d <= 14 every problem fits one leaf block of the default size; smaller
    # blocks make the search bound every level and split blocks mid-expansion.
    q, k, protected = instance
    with mock.patch.object(graph, "_BLOCK", block), mock.patch.object(graph, "_GATHER", block):
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
    with mock.patch.object(graph, "_BLOCK", 0):  # tabulate even when one leaf block would do
        search = graph._BranchAndBound(w, size, graph._rounding_slack(w))
    assert math.isfinite(search.slack)
    for t in range(size - 1):
        r = size - t
        for prefix in combinations(range(d - r), t):
            first = prefix[-1] + 1 if t else 0
            rows = list(prefix)
            bound = search.bounds(np.array([w[np.ix_(rows, rows)].sum()]), w[rows].sum(axis=0)[None, :], np.array([first]), r)[0]
            sets = np.array([rows + list(rest) for rest in combinations(range(first, d), r)])
            assert bound <= w[sets[:, :, None], sets[:, None, :]].sum(axis=(1, 2)).min() + search.slack


@PROPERTY
@given(st.integers(3, 9), st.integers(0, 2**32 - 1), st.sampled_from(SCALES), st.data())
def test_carried_values_and_row_sums_stay_within_the_slack(d, seed, scales, data):
    # Every block the search expands, against its prefixes' gathered f(P) and row sums.
    rng = np.random.default_rng(seed)
    q, k = (ChannelMatrix(rng.standard_normal((3, d)) * scale) for scale in scales)
    w = build_interaction_graph(q, k).w
    with mock.patch.object(graph, "_BLOCK", 1):  # only a bounding walk carries values; C(d, d) = 1 never bounds
        search = graph._BranchAndBound(w, data.draw(st.integers(2, d - 1)), graph._rounding_slack(w))
    assert search.bounded
    blocks, children = [], search._children

    def recorded(*args):
        blocks.append(children(*args))
        return blocks[-1]

    with mock.patch.object(search, "_children", recorded):
        list(search.leaves())
    assert blocks
    for cand, f, rs in blocks:
        for rows, value, sums in zip(cand.tolist(), f, rs):
            assert abs(value - w[np.ix_(rows, rows)].sum()) <= search.slack
            assert np.all(np.abs(sums - w[rows].sum(axis=0)) <= search.slack)


def test_nan_or_infinite_bounds_never_prune():
    bounds = np.array([np.nan, np.inf, -np.inf, 1.0, 3.0])
    assert graph._unpruned(bounds, 2.0).tolist() == [True, True, True, True, False]
    assert graph._unpruned(bounds, np.nan).all()
    # sum |W| overflows, so the slack is +inf and the walk only enumerates: the fold, whose gathered sums
    # overflow, still reaches the first minimizer.
    v = np.array([1e154, 1e154, 1e154, 1.0, 2.0, -3.0])
    q, k = ChannelMatrix(v[None, :]), ChannelMatrix(np.ones((1, 6)))
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(graph, "_BLOCK", 1):
        assert tuple(oracle_select(q, k, 0.5).pruned) == first_minimizer(q, k, (), 3) == (3, 4, 5)


# Signed zeros, subnormals and the extremes of the finite range, beside ordinary floats.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308])
finite_floats = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


def one_support_at_a_time(g, k):
    """(mu_min, mu_max) hex from one `eigvalsh` call per support, first extremum kept."""
    mu_min, mu_max = math.inf, -math.inf
    for support in combinations(range(g.dim), k):
        eig = np.linalg.eigvalsh(g.w[np.ix_(support, support)])
        mu_min, mu_max = min(mu_min, float(eig[0])), max(mu_max, float(eig[-1]))
    return mu_min.hex(), mu_max.hex()


def certificate_hex(g, k):
    cert = restricted_eigenvalues(g, k)
    return cert.mu_min.hex(), cert.mu_max.hex()


@st.composite
def certificate_graphs(draw):
    """W of a Gram product, c I, block-constant or equal-diagonal kind, scaled by 1e-150 to 1e150."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gram", "identity", "blocks", "equal-diagonal"]))
    if kind == "gram":
        w = build_interaction_graph(ChannelMatrix(rng.standard_normal((6, d))), ChannelMatrix(rng.standard_normal((6, d)))).w
    elif kind == "identity":  # every support ties at both extremes
        w = np.eye(d) * 3.0
    elif kind == "blocks":  # supports with the same block counts tie, and zero blocks give signed zeros
        levels = rng.integers(-2, 3, (3, 3)).astype(np.float64)
        labels = rng.integers(0, 3, d)
        w = (levels + levels.T)[labels[:, None], labels[None, :]]
    else:  # every k = 1 support ties at both extremes
        a = rng.standard_normal((d, d)).round(2)
        w = a + a.T
        np.fill_diagonal(w, 1.5)
    return InteractionGraph(w * draw(st.sampled_from([1e-150, 1e-20, 1.0, 1e20, 1e150])))


@PROPERTY
@given(certificate_graphs(), st.sampled_from([7, graph._GATHER]), st.data())
def test_chunked_certificate_is_one_support_at_a_time_bitwise(g, chunk, data):
    # A small chunk carries ties and extremes across chunks; k = 1 and k = dim always run.
    with mock.patch.object(graph, "_GATHER", chunk):
        for k in sorted({1, data.draw(st.integers(1, g.dim)), g.dim}):
            assert certificate_hex(g, k) == one_support_at_a_time(g, k)


def test_certificate_near_overflow_solves_every_support():
    a = np.random.default_rng(11).standard_normal((7, 7))
    g = InteractionGraph((a + a.T) * 1e306)  # k max|w| is within a factor 10 of overflow
    for k in (1, 3, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certificate_hex(g, k) == one_support_at_a_time(g, k)


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
        lambdas=tuple(draw(st.lists(unit, min_size=1, max_size=4, unique=True))),
        selectors=tuple(draw(st.lists(st.sampled_from(Selector), min_size=1, max_size=4, unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))),
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
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=finite_floats), st.sampled_from("CF"))
def test_grcm_round_trip_is_bit_exact(tmp_path_factory, values, order):
    # A matrix stores its channels contiguously; the file holds its rows, whatever the input's layout.
    path = tmp_path_factory.getbasetemp() / "property.grcm"
    save_matrix(ChannelMatrix(np.asarray(values, order=order)), path)
    assert path.read_bytes().endswith(values.tobytes(order="C"))
    assert load_matrix(path).data.tobytes() == values.tobytes()


@st.composite
def small_sweeps(draw):
    """A synthetic sweep config of d <= 12, with ratios at 0, 1, integer lambda * d and two decimals."""
    d = draw(st.integers(1, 12))
    L_obs = draw(st.integers(1, 8))
    ratio = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, d).map(lambda i: i / d), ratios)
    return ExperimentConfig(
        d=d,
        L=draw(st.integers(L_obs, 8)),
        L_obs=L_obs,
        L_future=draw(st.integers(1, 8)),
        lambdas=tuple(draw(st.lists(ratio, min_size=1, max_size=4, unique=True))),
        selectors=tuple(draw(st.lists(st.sampled_from(Selector), min_size=1, max_size=4, unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))),
        protect=draw(st.booleans()),
        oracle=draw(st.booleans()),
    ).validate()


@PROPERTY
@given(small_sweeps(), st.data())
def test_a_sweep_report_keeps_its_contract(tmp_path_factory, cfg, data):
    # Each seed's instance, rebuilt from its spec, fixes the expected budgets, errors and subset counts.
    problems = {}
    for seed in cfg.seeds:
        q, k, q_future = generate_instance(cfg.synthetic_spec(seed))
        problems[seed] = Problem(q, k, protect_channels(k, cfg.policy()), q_future)
    budgets = {
        (seed, lam): min(math.ceil(Fraction(str(lam)) * cfg.d), cfg.d - len(problem.protected))
        for seed, problem in problems.items()
        for lam in cfg.lambdas
    }
    subsets = {cell: math.comb(cfg.d - len(problems[cell[0]].protected), n) for cell, n in budgets.items()}
    cap = data.draw(st.sampled_from(sorted(set(subsets.values())))) - data.draw(st.integers(0, 1))  # some cells over it
    cfg = cfg.with_updates(enumeration_cap=cap)
    over = {cell for cell, count in subsets.items() if count > cfg.enumeration_cap}

    if Selector.ORACLE in cfg.selectors and over:
        with mock.patch.object(Problem, "select", autospec=True, side_effect=Problem.select) as select:
            with pytest.raises(CapacityError):
                run_experiment(cfg)
        assert not select.called  # refused before any cell
        return
    report = run_experiment(cfg)
    grid = [(seed, lam, selector) for seed in sorted(cfg.seeds) for lam in sorted(cfg.lambdas)
            for selector in sorted(cfg.selectors, key=lambda s: s.value)]
    assert [(row.seed, row.lam, row.selector) for row in report.rows] == grid
    for row in report.rows:
        problem = problems[row.seed]
        norms = problem.attention_norms()
        expected = problem.select(row.selector, row.lam, seed=row.seed)
        assert row.n_prune == expected.n_prune == budgets[row.seed, row.lam]
        assert row.n_protected == len(problem.protected)
        assert row.error_sq == expected.error_sq
        assert row.relative_error == math.sqrt(expected.error_sq) / norms[0]
        assert row.error_future == math.sqrt(expected.error_future_sq) / norms[1]
        if not cfg.oracle:
            assert row.approx_ratio is None
        elif (row.seed, row.lam) in over:
            assert row.approx_ratio == "oracle_skipped"
        else:
            assert row.approx_ratio >= 1.0 - 1e-12

    path = tmp_path_factory.getbasetemp() / "sweep.csv"
    write_report(report, path)
    assert replay_report(path) == []
    assert render_report(run_experiment(cfg)) == path.read_text(encoding="utf-8")
