"""Selector and protection tests.

Frozen expected values were computed with exhaustive or per-step oracles
(itertools enumeration, direct quadratic-form evaluation) before being
asserted here; see the per-test comments.
"""

import math
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest

from channelprune import (
    CapacityError,
    ChannelMatrix,
    DegenerateInputError,
    IndexSet,
    Problem,
    ProtectionPolicy,
    Selector,
    SyntheticSpec,
    build_interaction_graph,
    generate_instance,
    protect_channels,
    quadratic_form,
    reconstruction_error_sq,
    restricted_eigenvalues,
)
from channelprune import graph, prune


def normal_pair(seed, rows=16, d=8):
    rng = np.random.default_rng(seed)
    return ChannelMatrix(rng.standard_normal((rows, d))), ChannelMatrix(rng.standard_normal((rows, d)))


def brute_force_minimum(q, k, n_prune, protected=IndexSet.empty()):
    candidates = [i for i in range(q.cols) if i not in protected]
    best, best_val = None, math.inf
    for combo in combinations(candidates, n_prune):
        val = reconstruction_error_sq(q, k, IndexSet(combo))
        if val < best_val:
            best, best_val = combo, val
    return best, best_val


class TestThinkScores:
    """Think scores channel j by W_jj = ||q_j||^2 ||k_j||^2 alone."""

    def test_zero_column_scores_zero(self):
        q = ChannelMatrix(np.array([(0, 0), (1, 2)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 1), (1, 1)], dtype=float).T)
        sel = Problem(q, k).select(Selector.THINK, 0.5)
        assert sel.order == (0,) and sel.error_sq == 0.0

    def test_outer_product_frobenius_oracle(self):
        q = ChannelMatrix(np.array([(3, 4)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0, 0)], dtype=float).T)
        outer = np.outer(q.data[:, 0], k.data[:, 0])
        assert Problem(q, k).w[0, 0] == pytest.approx(float(np.linalg.norm(outer)) ** 2, rel=1e-12)
        assert Problem(q, k).select(Selector.THINK, 1.0).error_sq == pytest.approx(25.0, rel=1e-12)

    def test_sign_flip_invariance(self):
        q, k = normal_pair(0, d=5)
        flipped_q = q.data.copy()
        flipped_q[:, 2] *= -1.0
        flipped = Problem(ChannelMatrix(flipped_q), k).select(Selector.THINK, 1.0)
        assert flipped.order == Problem(q, k).select(Selector.THINK, 1.0).order

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            Problem(ChannelMatrix(np.ones((2, 3))), ChannelMatrix(np.ones((2, 2)))).select(Selector.THINK, 0.5)

    def test_future_width_mismatch(self):
        q, k = normal_pair(0, d=3)
        with pytest.raises(ValueError, match="channel count"):
            Problem(q, k, IndexSet.empty(), ChannelMatrix(np.ones((2, 2))))


class TestThinkSelect:
    def test_lambda_zero(self):
        q, k = normal_pair(1)
        sel = Problem(q, k).select(Selector.THINK, 0.0)
        assert len(sel.pruned) == 0 and sel.error_sq == 0.0

    def test_sort_oracle_example(self):
        # scores [1, 4, 2, 3]: two lowest are channels 0 and 2
        q = ChannelMatrix(np.ones((1, 4)))
        k = ChannelMatrix(np.array([[1.0, 4.0, 2.0, 3.0]]))
        sel = Problem(q, k).select(Selector.THINK, 0.5)
        assert sel.pruned.indices == (0, 2)

    def test_protected_excluded(self):
        q = ChannelMatrix(np.ones((1, 4)))
        k = ChannelMatrix(np.array([[1.0, 4.0, 2.0, 3.0]]))
        sel = Problem(q, k, IndexSet((0,))).select(Selector.THINK, 0.5)
        assert sel.pruned.indices == (2, 3)

    def test_tie_break_lower_index_first(self):
        q = ChannelMatrix(np.ones((1, 4)))
        k = ChannelMatrix(np.array([[2.0, 2.0, 2.0, 2.0]]))
        sel = Problem(q, k).select(Selector.THINK, 0.5)
        assert sel.pruned.indices == (0, 1)

    def test_budget_clamped_and_recorded(self):
        q, k = normal_pair(2, d=4)
        sel = Problem(q, k, IndexSet((0, 1))).select(Selector.THINK, 1.0)
        assert sel.n_prune == 2
        assert sel.budget_clamped
        assert set(sel.pruned) == {2, 3}

    def test_an_overflowing_sum_of_finite_squares_is_inf_without_a_warning(self):
        # W is finite (6e307 everywhere); the two squares of Q K^T are 1.2e308 each, and their sum overflows.
        q = ChannelMatrix(np.full((2, 2), math.sqrt(3e307)))
        sel = Problem(q, ChannelMatrix(np.ones((1, 2)))).select(Selector.THINK, 1.0)
        assert sel.n_prune == 2 and sel.error_sq == math.inf

    def test_refuses_non_finite_w(self):
        # W_00 = (2e320)(2) overflows; mies and the oracle refuse the same W.
        q = ChannelMatrix(np.array([[1e160, 1.0], [1e160, 1.0]]))
        k = ChannelMatrix(np.ones((2, 2)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            Problem(q, k).select(Selector.THINK, 0.5)


class TestMiesSelect:
    def test_lambda_zero(self):
        q, k = normal_pair(3)
        sel = Problem(q, k).select(Selector.MIES, 0.0)
        assert len(sel.pruned) == 0 and sel.error_sq == 0.0

    def test_first_prune_is_min_self_importance(self):
        for seed in range(10):
            q, k = normal_pair(seed)
            w = build_interaction_graph(q, k)
            sel = Problem(q, k).select(Selector.MIES, 0.5)
            assert sel.order[0] == int(np.argmin(np.diag(w)))

    def test_first_step_agrees_with_think(self):
        # Both start from W's diagonal, so think's lowest score is the first greedy pick.
        for seed in range(10):
            q, k = normal_pair(seed)
            sel = Problem(q, k).select(Selector.MIES, 0.5)
            assert sel.order[0] == Problem(q, k).select(Selector.THINK, 0.5).order[0]

    def test_regression_seed0(self):
        # Frozen after computing once with this implementation and verifying
        # with the per-step quadratic-form oracle and the exhaustive minimum.
        q, k = normal_pair(0)
        sel = Problem(q, k).select(Selector.MIES, 0.5)
        assert sel.pruned.indices == (0, 1, 4, 5)
        assert sel.error_sq == pytest.approx(666.7518179858898, rel=1e-9)
        direct = reconstruction_error_sq(q, k, sel.pruned)
        assert abs(sel.error_sq - direct) <= 1e-9 * max(1.0, direct)

    @staticmethod
    def greedy_steps(problem, n_steps):
        """(candidates, scores) before each of the first n_steps steps of the greedy `problem` runs."""
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        list(islice(prune._greedy(problem.w, problem.candidates, steps), n_steps))
        return steps

    def test_per_step_scores_equal_quadratic_form(self):
        for seed in range(5):
            problem = Problem(*normal_pair(seed, d=10))
            sel = problem.select(Selector.MIES, 0.5)
            pruned_so_far: list[int] = []
            for step, (cands, scores) in enumerate(self.greedy_steps(problem, sel.n_prune)):
                for c, s in zip(cands, scores):
                    f = quadratic_form(problem.w, IndexSet(tuple(pruned_so_far) + (int(c),)))
                    assert abs(s - f) <= 1e-9 * max(1.0, abs(f))
                pruned_so_far.append(sel.order[step])

    def test_trace_tracks_cumulative_error(self):
        # The minimum score at each step is the error of the order's prefix after that step.
        problem = Problem(*normal_pair(4, d=10))
        sel = problem.select(Selector.MIES, 0.5)
        for step, (_, scores) in enumerate(self.greedy_steps(problem, sel.n_prune)):
            f = quadratic_form(problem.w, IndexSet(sel.order[: step + 1]))
            assert abs(scores.min() - f) <= 1e-9 * max(1.0, abs(f))

    def test_beats_think_on_most_seeds(self):
        wins = ties = 0
        for seed in range(200):
            q, k = normal_pair(seed)
            m = Problem(q, k).select(Selector.MIES, 0.5).error_sq
            t = Problem(q, k).select(Selector.THINK, 0.5).error_sq
            wins += m < t
            ties += m == t
        assert (wins + ties) / 200 >= 0.8  # measured 0.855 on these seeds

    def test_adversarial_negative_interactions(self):
        # W = [[1,-1,0],[-1,1,0],[0,0,1]]: pruning {0,1} cancels exactly.
        q = ChannelMatrix(np.array([(1, 0), (1, 0), (0, 1)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (-1, 0), (0, 1)], dtype=float).T)
        sel = Problem(q, k).select(Selector.MIES, 2 / 3)
        assert sel.pruned.indices == (0, 1)
        assert sel.error_sq == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_perturbed_fixture(self):
        # k2 = (0, 0.9) perturbs W_22 to 0.81. Greedy and the static baseline
        # both prune {2, 0} for error 1.81; the true optimum is {0, 1} with 0.
        # All three frozen values verified by enumerating the 3 subsets.
        q = ChannelMatrix(np.array([(1, 0), (1, 0), (0, 1)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (-1, 0), (0, 0.9)], dtype=float).T)
        best, best_val = brute_force_minimum(q, k, 2)
        assert best == (0, 1) and best_val == pytest.approx(0.0, abs=1e-12)
        m = Problem(q, k).select(Selector.MIES, 2 / 3)
        t = Problem(q, k).select(Selector.THINK, 2 / 3)
        o = Problem(q, k).select(Selector.ORACLE, 2 / 3)
        assert m.pruned.indices == (0, 2) and m.error_sq == pytest.approx(1.81, rel=1e-12)
        assert t.pruned.indices == (0, 2) and t.error_sq == pytest.approx(1.81, rel=1e-12)
        assert o.pruned.indices == (0, 1) and o.error_sq == pytest.approx(0.0, abs=1e-12)

    def test_overflowing_scores_never_repick_a_removed_channel(self):
        # W is finite (3.6e307 everywhere), but the cumulative scores reach +inf
        # after one step and tie with the +inf mask on removed channels.
        with np.errstate(over="ignore"):
            problem = Problem(ChannelMatrix(np.full((1, 6), 6e153)), ChannelMatrix(np.ones((1, 6))))
            sel = problem.select(Selector.MIES, 0.5)
        assert sel.order == (0, 1, 2)
        assert sel.pruned.indices == (0, 1, 2)

    def test_a_greedy_interrupted_by_an_error_restarts_in_full(self):
        # Under over="raise" the greedy's sixth step overflows after five channels were
        # taken; the next select must prune the whole budget, not those five.
        rng = np.random.default_rng(0)
        q, k = (ChannelMatrix(rng.standard_normal((4, 8)) * 3.9e76) for _ in range(2))
        problem = Problem(q, k)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            problem.select(Selector.MIES, 0.75)
        with np.errstate(over="ignore"):
            sel = problem.select(Selector.MIES, 0.75)
            fresh = Problem(q, k).select(Selector.MIES, 0.75)
        assert sel.n_prune == len(sel.order) == 6
        assert sel.order == fresh.order


class TestOracleSelect:
    def test_lambda_zero(self):
        q, k = normal_pair(5)
        sel = Problem(q, k).select(Selector.ORACLE, 0.0)
        assert len(sel.pruned) == 0 and sel.error_sq == 0.0

    def test_symmetric_tie_lexicographic(self):
        q = ChannelMatrix(np.array([(1, 1), (1, 0)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (1, 1)], dtype=float).T)
        sel = Problem(q, k).select(Selector.ORACLE, 0.5)  # W = [[2,1],[1,2]], f({0}) = f({1}) = 2
        assert sel.pruned.indices == (0,)

    def test_matches_brute_force(self):
        for seed in range(10):
            q, k = normal_pair(seed, rows=12, d=7)
            sel = Problem(q, k).select(Selector.ORACLE, 0.5)
            best, best_val = brute_force_minimum(q, k, sel.n_prune)
            assert sel.pruned.indices == best
            assert abs(sel.error_sq - best_val) <= 1e-9 * max(1.0, best_val)

    def test_dominates_every_selector(self):
        # Set-function dominance is evaluated on the route the oracle
        # minimizes (the quadratic form over a single graph), so last-bit
        # differences from the evaluator cannot flip the comparison.
        for seed in range(15):
            q, k = normal_pair(seed, d=10)
            w = build_interaction_graph(q, k)
            exact = Problem(q, k).select(Selector.ORACLE, 0.5)
            assert exact.error_sq == reconstruction_error_sq(q, k, exact.pruned)
            for other in (
                Problem(q, k).select(Selector.MIES, 0.5),
                Problem(q, k).select(Selector.THINK, 0.5),
                Problem(q, k).select(Selector.RANDOM, 0.5, seed=seed),
            ):
                assert quadratic_form(w, exact.pruned) <= quadratic_form(w, other.pruned)

    def test_every_sum_overflowing_keeps_the_budget(self):
        # Every gathered sum is +inf: the first subset is the lexicographic minimum.
        problem = Problem(ChannelMatrix(np.full((1, 6), 1e154)), ChannelMatrix(np.ones((1, 6))))
        sel = problem.select(Selector.ORACLE, 0.5)
        assert sel.n_prune == 3
        assert sel.pruned.indices == (0, 1, 2)
        assert sel.error_sq == math.inf

    @pytest.mark.parametrize("huge, small", [
        ((1.2e154, 1.2e154, -1.2e154), (1, 2, -3)),
        ((1.2e154, -1.2e154, 1.2e154), (1, 2, -3, 1, 2, -3, 1, 2, -3, 1, 2)),
    ], ids=["table", "walk"])
    def test_a_first_set_summing_to_nan_is_replaced(self, huge, small):
        # With k all ones, f(S) = (sum of q over S)^2. Every set holding a channel of +-1.2e154 sums to
        # about 1.44e308, +inf or NaN, the first set (0, 1, 2, ...) to NaN, so the optimum is the first best
        # set of the small channels: in the lexicographic table (d=6), or a later chunk of the walk (d=14).
        q = ChannelMatrix(np.array([[*huge, *small]]))
        d = q.cols
        expected = min(combinations(range(3, d), d // 2), key=lambda s: sum(small[i - 3] for i in s) ** 2)
        sel = Problem(q, ChannelMatrix(np.ones((1, d)))).select(Selector.ORACLE, 0.5)
        assert sel.pruned.indices == expected
        assert sel.error_sq == sum(small[i - 3] for i in expected) ** 2 == 0

    @pytest.mark.parametrize("lam, pruned", [(0.5, (0,)), (1.0, (0, 1))])
    def test_a_finite_w_whose_sums_overflow_warns_nothing(self, lam, pruned):
        # W is 6e307 everywhere, so sum |W| overflows (an infinite slack), and at 1.0 so does the one set's sum.
        q = ChannelMatrix(np.full((2, 2), math.sqrt(3e307)))
        sel = Problem(q, ChannelMatrix(np.ones((1, 2)))).select(Selector.ORACLE, lam)
        assert sel.pruned.indices == pruned
        assert math.isfinite(sel.error_sq) == (lam == 0.5)

    def test_the_greedy_incumbent_runs_only_when_the_walk_bounds(self):
        # The C(10, 5) = 252 sets fit the lexicographic table, so the walk reads it, does not bound,
        # and an incumbent would prune nothing. C(14, 7) = 3,432 sets of 7 exceed one table's 2^16
        # floats, so that walk bounds however few its sets, as does a d=20 draw's; the greedy seeds both.
        rng = np.random.default_rng([0, 1])  # the 16 x 10 bracket draw
        q, k = (ChannelMatrix(rng.standard_normal((16, 10))) for _ in range(2))
        table = Problem(q, k)
        table.select(Selector.ORACLE, 0.5)
        assert table._greedy_order == []
        q, k = (ChannelMatrix(rng.standard_normal((8, 14))) for _ in range(2))
        off_table = Problem(q, k)
        sel = off_table.select(Selector.ORACLE, 0.5)
        assert math.comb(14, 7) <= graph._BLOCK and math.comb(14, 7) * 7 * 7 > graph._GATHER
        assert len(off_table._greedy_order) == sel.n_prune == 7
        q, k, _ = generate_instance(SyntheticSpec(d=20, seed=0))
        bounded = Problem(q, k, protect_channels(k, ProtectionPolicy()))
        sel = bounded.select(Selector.ORACLE, 0.5)
        assert math.comb(len(bounded.candidates), sel.n_prune) > graph._BLOCK
        assert len(bounded._greedy_order) == sel.n_prune

    def test_capacity_error(self):
        q, k = normal_pair(6, d=10)
        with pytest.raises(CapacityError):
            Problem(q, k).select(Selector.ORACLE, 0.5, cap=10)

    def test_all_tied_worst_case_stays_bounded(self):
        # W is all 16s, so every set of 10 ties and no bound prunes: all C(20, 10)
        # leaves survive the bound and are gathered, a chunk at a time.
        ones = ChannelMatrix(np.ones((4, 20)))
        tracemalloc.start()
        try:
            sel = Problem(ones, ones).select(Selector.ORACLE, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.pruned.indices == tuple(range(10))
        assert peak <= 8 * 2**20

    def test_a_high_ratio_bound_table_keeps_only_reachable_counts(self):
        # d=200 at lambda=0.99 prunes k = 198: C(200, 198) = 19,900 subsets, within the cap. A prefix
        # ending at s - 1 can ask for at most min(k - 1, n - k + 1) = 3 counts of smallest entries;
        # a table of every count 1..k - 1 per start is (199, 197, 200) floats, 60 MiB.
        rng = np.random.default_rng(0)
        q, k = (ChannelMatrix(rng.standard_normal((16, 200))) for _ in range(2))
        tracemalloc.start()
        try:
            sel = Problem(q, k).select(Selector.ORACLE, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.n_prune == 198
        assert peak <= 8 * 2**20

    def test_the_leaf_gather_is_bounded_by_floats_not_leaves(self):
        # C(90, 88) = 4,005 tied subsets, far inside the cap and too few to bound, so every
        # one is gathered: 8 leaves of 88 x 88 at a time, where 1,024 leaves would be 60 MiB.
        ones = ChannelMatrix(np.ones((4, 90)))
        tracemalloc.start()
        try:
            sel = Problem(ones, ones).select(Selector.ORACLE, 88 / 90)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.pruned.indices == tuple(range(88))
        assert peak <= 16 * 2**20

    def test_the_certificate_gather_is_bounded_by_floats_not_supports(self):
        # The certificate walks the oracle's leaves: C(64, 62) = 2,016 supports, solved 17 of
        # 62 x 62 at a time; one stack of them all would be 59 MiB.
        rng = np.random.default_rng(0)
        q, k = (ChannelMatrix(rng.standard_normal((8, 64))) for _ in range(2))
        w = build_interaction_graph(q, k)
        tracemalloc.start()
        try:
            cert = restricted_eigenvalues(w, 62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= cert.mu_min <= cert.mu_max
        assert peak <= 8 * 2**20


class TestRandomSelect:
    def test_lambda_zero(self):
        q, k = normal_pair(7)
        assert len(Problem(q, k).select(Selector.RANDOM, 0.0, seed=1).pruned) == 0

    def test_deterministic_per_seed(self):
        q, k = normal_pair(8)
        a = Problem(q, k).select(Selector.RANDOM, 0.5, seed=123)
        b = Problem(q, k).select(Selector.RANDOM, 0.5, seed=123)
        assert a.pruned == b.pruned
        draws = {Problem(q, k).select(Selector.RANDOM, 0.5, seed=seed).pruned.indices for seed in range(10)}
        assert len(draws) > 1  # C(8, 4) = 70 sets, so ten seeds do not all draw one

    def test_uniform_inclusion_frequency(self):
        q, k = normal_pair(9, rows=8, d=10)
        counts = np.zeros(10)
        for seed in range(1000):
            counts[list(Problem(q, k).select(Selector.RANDOM, 0.5, seed=seed).pruned)] += 1
        freq = counts / 1000
        assert np.all(np.abs(freq - 0.5) <= 0.05)  # measured max deviation 0.048

    def test_uniform_inclusion_frequency_with_protection(self):
        # n_prune / (d - |protected|) = 5/9 per unprotected channel
        q, k = normal_pair(9, rows=8, d=10)
        counts = np.zeros(10)
        for seed in range(1000):
            counts[list(Problem(q, k, IndexSet((0,))).select(Selector.RANDOM, 0.5, seed=seed).pruned)] += 1
        assert counts[0] == 0
        freq = counts[1:] / 1000
        assert np.all(np.abs(freq - 5 / 9) <= 0.05)  # measured max deviation 0.043

    def test_every_seed_form_draws_as_a_fresh_generator(self):
        # One Problem answers an int, a list and two arrays in turn as fresh generators would.
        q, k, _ = generate_instance(SyntheticSpec(d=64, seed=0))
        problem = Problem(q, k)
        for seed in (5, [7, 1], np.array([1, 2]), np.array([1, 3])):
            sel = problem.select(Selector.RANDOM, 0.5, seed=seed)
            fresh = np.random.default_rng(seed).choice(problem.candidates, size=sel.n_prune, replace=False)
            assert sel.order == tuple(fresh.tolist())

    def test_seed_none_draws_afresh_each_call(self):
        # Two draws of 32 from 64 match with chance 1/C(64, 32), about 5e-19.
        q, k, _ = generate_instance(SyntheticSpec(d=64, seed=0))
        problem = Problem(q, k)
        a, b = (problem.select(Selector.RANDOM, 0.5, seed=None) for _ in range(2))
        assert a.n_prune == 32 and a.pruned != b.pruned

    def test_respects_protection(self):
        q, k = normal_pair(10, d=10)
        protected = IndexSet((0, 3))
        for seed in range(50):
            sel = Problem(q, k, protected).select(Selector.RANDOM, 0.6, seed=seed)
            assert not set(sel.pruned) & set(protected)


class TestProtectChannels:
    def test_worked_example(self):
        # norms [1,1,1,1,10]: mean 2.8, population std 3.6, tau 6.4, raw p 0.2
        k = ChannelMatrix(np.array([[1.0, 1.0, 1.0, 1.0, 10.0]]))
        policy = ProtectionPolicy(threshold_sigma=1.0, a=0.05, b=0.25)
        assert protect_channels(k, policy).indices == (4,)

    def test_upper_clamp_end_to_end(self):
        # threshold_sigma 0 puts tau at the mean, so half the channels exceed it
        k = ChannelMatrix(np.array([[1.0, 1.0, 3.0, 3.0]]))
        policy = ProtectionPolicy(threshold_sigma=0.0, a=0.0, b=0.1)
        protected = protect_channels(k, policy)
        assert protected.indices == (2,)  # ceil(0.1 * 4) = 1, tie broken to lower index

    def test_degenerate_identical_norms(self):
        k = ChannelMatrix(np.full((3, 4), 2.0))
        policy = ProtectionPolicy(threshold_sigma=1.0, a=0.25, b=0.5)
        protected = protect_channels(k, policy)  # p = 0 -> a -> ceil(0.25 * 4) = 1
        assert protected.indices == (0,)

    def test_disabled_policy(self):
        k = ChannelMatrix(np.array([[1.0, 100.0]]))
        assert len(protect_channels(k, ProtectionPolicy(a=0.0, b=0.0))) == 0

    def test_zero_lower_bound_can_protect_nothing(self):
        k = ChannelMatrix(np.full((2, 4), 1.0))
        policy = ProtectionPolicy(threshold_sigma=1.0, a=0.0, b=0.5)
        assert len(protect_channels(k, policy)) == 0

    def test_norms_are_the_square_roots_of_the_key_gram_diagonal(self):
        # The column norms are the square roots of the diagonal of the key Gram that the W build
        # uses, not each column's squares added in row order: the two differ in the last bits of
        # most norms. Find seeded keys and a threshold where that moves a channel across tau,
        # and check that the Gram-diagonal set is protected.
        def protected_by(norms, sigma):
            tau = norms.mean() + sigma * norms.std()
            count = int(np.sum(norms > tau))
            return tuple(sorted(int(j) for j in np.lexsort((np.arange(len(norms)), -norms))[:count]))

        for seed in range(50):
            keys = np.random.default_rng(seed).standard_normal((512, 16))
            by_rows = np.zeros(16)
            for row in keys:
                by_rows += row * row
            by_rows = np.sqrt(by_rows)
            columns = np.asfortranarray(keys)
            by_gram = np.sqrt(np.diag(columns.T @ columns))
            sigmas = [(by_gram[j] - by_gram.mean()) / by_gram.std() for j in range(16)]
            for sigma in (s for t in sigmas if t >= 0.0 for s in (t, np.nextafter(t, 0.0), np.nextafter(t, 1.0))):
                if protected_by(by_rows, sigma) != protected_by(by_gram, sigma):
                    policy = ProtectionPolicy(threshold_sigma=float(sigma), a=0.0, b=1.0)
                    assert protect_channels(ChannelMatrix(keys), policy).indices == protected_by(by_gram, sigma)
                    return
        pytest.fail("no seeded keys where row-order and Gram-diagonal norms protect different sets")

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_squares_that_overflow_or_underflow_keep_the_protected_set(self, scale):
        # Column 2 is 50x the rest. At 1e160 its squares overflow and at 1e-170 every square
        # underflows to 0; the norms come from the keys rescaled by a power of two, without a warning.
        k = np.ones((4, 6))
        k[:, 2] = 50.0
        assert protect_channels(ChannelMatrix(k * scale), ProtectionPolicy()).indices == (2,)

    def test_norms_whose_squares_underflow_at_scale_one_keep_their_order(self):
        # Columns 1-3 have squares below the smallest subnormal; each column is rescaled on its
        # own, so their norms keep their order and the largest of them is protected, not the first.
        k = np.ones((4, 4))
        k[:, 1:] = [1e-170, 2e-170, 3e-170]
        assert protect_channels(ChannelMatrix(k), ProtectionPolicy(a=0.5, b=0.5)).indices == (0, 3)

    def test_a_zero_column_does_not_set_the_common_scale_of_tiny_norms(self):
        # frexp gives the zero column exponent 0, above every other column's; were it the common
        # scale, the squared deviations of norms near 1e-170 would underflow and tau fall to the mean.
        k = np.ones((4, 16))
        k[:, :8] = 3.0
        k[:, 15] = 0.0
        for scale in (1.0, 1e-170):
            assert protect_channels(ChannelMatrix(k * scale), ProtectionPolicy()).indices == (0,)

    def test_count_is_clamped_to_the_exact_ceiling_of_the_printed_bound(self):
        # 5 of 6 norms exceed tau, and the float 5 / 6 equals a, but a = 0.8333333333333334
        # is above 5/6 as a decimal: ceil(a * 6) = 6 channels are protected.
        k = ChannelMatrix(np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 0.0]]))
        policy = ProtectionPolicy(threshold_sigma=0.0, a=0.8333333333333334, b=1.0)
        assert len(protect_channels(k, policy)) == 6
        assert len(protect_channels(k, ProtectionPolicy(threshold_sigma=0.0, a=0.8, b=1.0))) == 5

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ProtectionPolicy(a=0.5, b=0.2)
        with pytest.raises(ValueError):
            ProtectionPolicy(threshold_sigma=-1.0)


class TestAttentionNorms:
    def test_one_norm_per_window_equals_one_product_per_window_bitwise(self):
        for d, L in ((64, 64), (128, 1024), (20, 64)):
            q, k, q_future = generate_instance(SyntheticSpec(d=d, L=L, L_obs=32, L_future=32, seed=d))
            expected = tuple(float(np.sqrt(np.sum((m.data @ k.data.T) ** 2))) for m in (q, q_future))
            assert Problem(q, k, q_future=q_future).attention_norms() == expected
            assert Problem(q, k).attention_norms() == expected[:1]

    @pytest.mark.parametrize(
        "q, q_future, k, message",
        [
            (0.0, 0.0, 1.0, "observed queries is zero or too small: its squared Frobenius norm is 0"),
            (1.0, 0.0, 1.0, "future queries is zero or too small: its squared Frobenius norm is 0"),
            (1e-163, 1.0, 1.0, "observed queries is zero or too small: its squared Frobenius norm is 0"),
            (1e154, 1.0, 1.0, "observed queries is too large: its squared Frobenius norm overflows float64"),
            (1e-200, 1e200, 1e200, "future queries is too large: its squared Frobenius norm overflows float64"),
            (np.full((2, 2), math.sqrt(3e307)), None, np.ones((1, 2)),
             "observed queries is too large: its squared Frobenius norm overflows float64"),
        ],
        ids=["observed-zero", "future-zero", "observed-underflow", "observed-overflow", "future-overflow",
             "observed-sum-overflow"],
    )
    def test_the_first_degenerate_window_is_refused(self, q, q_future, k, message):
        # A number fills a 2 x 3 matrix. Q K^T is nonzero at 1e-163, but its squares underflow to 0.
        # 1e154 overflows the squares of Q K^T, 1e200 * 1e200 the product itself, and the last pair
        # only the sum of two finite squares (1.2e308 each), all without a warning.
        q, q_future, k = (x if x is None else ChannelMatrix(np.full((2, 3), x) if np.ndim(x) == 0 else x)
                          for x in (q, q_future, k))
        with pytest.raises(DegenerateInputError, match=f"^attention product of {message}$"):
            Problem(q, k, q_future=q_future).attention_norms()


class TestValueChannels:
    """Pruning value channels S changes the attention output A V W_O by A V_S W_{O,S}, so
    Problem(ChannelMatrix(A @ V), ChannelMatrix(W_O.T)) is value-channel pruning, evaluator included."""

    @staticmethod
    def attention_and_values(rng, l_obs=32, length=256, d=64):
        logits = rng.standard_normal((l_obs, length))
        a = np.exp(logits - logits.max(axis=1, keepdims=True))
        return a / a.sum(axis=1, keepdims=True), rng.standard_normal((length, d))  # A is row-stochastic

    def test_the_error_is_that_of_the_attention_output(self):
        rng = np.random.default_rng(0)
        a, v = self.attention_and_values(rng)
        w_o = rng.standard_normal((64, 512))
        problem = Problem(ChannelMatrix(a @ v), ChannelMatrix(w_o.T))
        for selector in (Selector.MIES, Selector.THINK, Selector.RANDOM):
            sel = problem.select(selector, 0.5)
            s = sel.pruned.as_array()
            direct = float(np.sum((a @ v[:, s] @ w_o[s, :]) ** 2))
            assert sel.n_prune == 32 and sel.error_sq == pytest.approx(direct, rel=1e-12)

    def test_an_identity_output_projection_leaves_no_interactions(self):
        # With W_O = I the channels' contributions are orthogonal, so the greedy is the independent score.
        a, v = self.attention_and_values(np.random.default_rng(1))
        problem = Problem(ChannelMatrix(a @ v), ChannelMatrix(np.eye(64)))
        assert np.all(problem.w[~np.eye(64, dtype=bool)] == 0.0)
        mies, think = (problem.select(selector, 0.5) for selector in (Selector.MIES, Selector.THINK))
        assert mies.pruned == think.pruned


class TestSelectionContracts:
    @pytest.mark.parametrize("selector", list(Selector))
    def test_error_matches_direct_reconstruction(self, selector):
        for seed in range(8):
            q, k = normal_pair(seed, d=9)
            sel = Problem(q, k).select(selector, 0.5, seed=seed)
            direct = reconstruction_error_sq(q, k, sel.pruned)
            assert abs(sel.error_sq - direct) <= 1e-9 * max(1.0, direct)

    @pytest.mark.parametrize("selector", list(Selector))
    def test_protection_containment_and_budget(self, selector):
        rng = np.random.default_rng(31)
        for seed in range(5):
            q, k = normal_pair(seed, d=12)
            protected = protect_channels(k, ProtectionPolicy(a=0.1, b=0.3))
            sel = Problem(q, k, protected).select(selector, 0.5, seed=seed)
            assert not set(sel.pruned) & set(protected)
            assert len(sel.pruned) == sel.n_prune == min(math.ceil(0.5 * 12), 12 - len(protected))

    @pytest.mark.parametrize("selector", list(Selector))
    def test_scale_equivariance(self, selector):
        q, k = normal_pair(17, d=8)
        base = Problem(q, k).select(selector, 0.5, seed=3)
        scaled = Problem(ChannelMatrix(2.5 * q.data), k).select(selector, 0.5, seed=3)
        assert scaled.pruned == base.pruned
        assert scaled.error_sq == pytest.approx(2.5**2 * base.error_sq, rel=1e-9)

    @pytest.mark.parametrize("selector", list(Selector))
    def test_a_zero_budget_reads_no_w(self, selector):
        # W_00 = (2e320)(2) overflows, so building W would refuse the instance; pruning nothing needs no W.
        problem = Problem(ChannelMatrix(np.array([[1e160, 1.0], [1e160, 1.0]])), ChannelMatrix(np.ones((2, 2))))
        sel = problem.select(selector, 0.0)
        assert len(sel.pruned) == 0 and sel.error_sq == 0.0
        assert "graph" not in vars(problem)

    def test_the_capacity_check_precedes_the_zero_budget(self):
        q, k = normal_pair(18)
        with pytest.raises(CapacityError, match="C\\(8, 0\\) = 1 subsets exceed the enumeration cap 0"):
            Problem(q, k).select(Selector.ORACLE, 0.0, cap=0)

    def test_invalid_ratio(self):
        q, k = normal_pair(18)
        with pytest.raises(ValueError):
            Problem(q, k).select(Selector.MIES, 1.5)
        with pytest.raises(ValueError):
            Problem(q, k).select(Selector.THINK, -0.1)

    def test_budget_counts_are_exact(self):
        # A float ceil(lam * d) over-prunes by one here: 0.55 * 100 is 55.00000000000001.
        q, k = normal_pair(20, rows=4, d=100)
        problem = Problem(q, k)
        for lam, expected in ((0.07, 7), (0.14, 14), (0.28, 28), (0.55, 55), (0.56, 56)):
            for selector in (Selector.MIES, Selector.THINK, Selector.RANDOM):
                sel = problem.select(selector, lam)
                assert sel.n_prune == len(sel.pruned) == expected
        flat = ChannelMatrix(np.ones((2, 100)))  # p = 0 -> a, protecting ceil(a * d)
        assert len(protect_channels(flat, ProtectionPolicy(a=0.07, b=0.5))) == 7
