import math
import warnings
from functools import cache
from itertools import combinations
from unittest import mock

import mpmath
import numpy as np
import pytest

from channelprune import graph
from channelprune import (
    CapacityError,
    ChannelMatrix,
    EigenCertificate,
    IndexSet,
    Problem,
    Selector,
    build_interaction_graph,
    quadratic_form,
    restricted_eigenvalues,
)


def random_pair(rng, d, rows_q=None, rows_k=None):
    q = ChannelMatrix(rng.standard_normal((rows_q or int(rng.integers(4, 20)), d)))
    k = ChannelMatrix(rng.standard_normal((rows_k or int(rng.integers(4, 20)), d)))
    return q, k


class TestBuild:
    def test_orthogonal_query_columns_kill_interaction(self):
        q = ChannelMatrix(np.array([(1, 0), (0, 2)], dtype=float).T)
        k = ChannelMatrix(np.random.default_rng(0).standard_normal((5, 2)))
        w = build_interaction_graph(q, k)
        assert w[0, 1] == 0.0

    def test_worked_example(self):
        q = ChannelMatrix(np.array([(1, 1), (1, 0)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (1, 1)], dtype=float).T)
        w = build_interaction_graph(q, k)
        assert w.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_against_naive_loop_oracle(self):
        rng = np.random.default_rng(5)
        q, k = random_pair(rng, 6)
        w = build_interaction_graph(q, k)
        for i in range(6):
            for j in range(6):
                qq = float(q.data[:, i] @ q.data[:, j])
                kk = float(k.data[:, i] @ k.data[:, j])
                assert w[i, j] == pytest.approx(qq * kk, rel=1e-12)

    def test_diagonal_is_norm_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q, k = random_pair(rng, int(rng.integers(2, 10)))
            w = build_interaction_graph(q, k)
            for i in range(q.cols):
                expected = float(np.sum(q.data[:, i] ** 2) * np.sum(k.data[:, i] ** 2))
                assert w[i, i] == pytest.approx(expected, rel=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            build_interaction_graph(ChannelMatrix(np.ones((2, 3))), ChannelMatrix(np.ones((2, 2))))

    @pytest.mark.parametrize(
        "q_scale, k_scale", [(1e-160, 1e160), (2.0**-580, 2.0**500)], ids=["1e-160,1e160", "2^-580,2^500"]
    )
    def test_a_gram_outside_float64_gives_the_scale_one_orders(self, q_scale, k_scale):
        # At 1e160 a direct key Gram would overflow; at 2^-580 a direct query Gram would underflow to zero.
        # W fits either way.
        rng = np.random.default_rng(0)
        q, k = rng.standard_normal((8, 6)), rng.standard_normal((16, 6))
        problem = Problem(ChannelMatrix(q * q_scale), ChannelMatrix(k * k_scale))
        w = build_interaction_graph(ChannelMatrix(q), ChannelMatrix(k))
        np.testing.assert_allclose(problem.w, w * (q_scale * k_scale) ** 2, rtol=1e-13)
        orders = [problem.select(selector, 0.5).order for selector in (Selector.MIES, Selector.THINK, Selector.ORACLE)]
        assert orders == [(4, 2, 1), (4, 2, 1), (1, 2, 4)]

    def test_exact_symmetry_and_readonly(self):
        rng = np.random.default_rng(7)
        q, k = random_pair(rng, 9)
        w = build_interaction_graph(q, k)
        assert np.array_equal(w, w.T)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0

    def test_returns_a_new_read_only_c_order_array(self):
        q, k = random_pair(np.random.default_rng(7), 9)
        w = build_interaction_graph(q, k)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (9, 9)
        assert w.flags.c_contiguous and not w.flags.writeable
        assert not np.shares_memory(w, q.gram) and not np.shares_memory(w, k.gram)

    def test_psd_over_seeded_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            q, k = random_pair(rng, int(rng.integers(2, 16)))
            w = build_interaction_graph(q, k)
            smallest = float(np.linalg.eigvalsh(w)[0])
            assert smallest >= -1e-8 * float(np.linalg.norm(w))

    def test_channel_permutation_conjugates_w(self):
        rng = np.random.default_rng(8)
        q, k = random_pair(rng, 7)
        w = build_interaction_graph(q, k)
        perm = rng.permutation(7)
        w2 = build_interaction_graph(ChannelMatrix(q.data[:, perm]), ChannelMatrix(k.data[:, perm]))
        assert np.allclose(w2, w[np.ix_(perm, perm)], rtol=1e-12, atol=0)


class TestQuadraticForm:
    def test_empty(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert quadratic_form(w, IndexSet.empty()) == 0.0

    def test_empty_is_positive_zero_bit_for_bit(self):
        # The gathered sum of an empty block, even of a negative W, is +0.0 and warns of nothing.
        w = np.array([[-2.0, -1.0], [-1.0, -2.0]])
        assert quadratic_form(w, IndexSet.empty()).hex() == (0.0).hex() == "0x0.0p+0"

    def test_worked_pair(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert quadratic_form(w, IndexSet((0, 1))) == 6.0

    def test_full_set_sums_everything(self):
        rng = np.random.default_rng(9)
        q, k = random_pair(rng, 5)
        w = build_interaction_graph(q, k)
        full = IndexSet(tuple(range(5)))
        assert quadratic_form(w, full) == pytest.approx(float(w.sum()), rel=1e-12)

    def test_agrees_with_decomposed_grouping(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            q, k = random_pair(rng, 10)
            w = build_interaction_graph(q, k)
            size = int(rng.integers(0, 11))
            s = IndexSet(tuple(sorted(rng.choice(10, size=size, replace=False).tolist())))
            sub = w[np.ix_(s.as_array(), s.as_array())]
            cross = sub.copy()
            np.fill_diagonal(cross, 0.0)
            a, b = quadratic_form(w, s), float(np.trace(sub)) + float(cross.sum())  # self + interaction terms
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q, k = random_pair(rng, 8)
            w = build_interaction_graph(q, k)
            size = int(rng.integers(1, 9))
            s = IndexSet(tuple(sorted(rng.choice(8, size=size, replace=False).tolist())))
            assert quadratic_form(w, s) >= -1e-8 * float(np.linalg.norm(w))


class TestSubsets:
    def test_chunks_enumerate_every_subset_in_order(self):
        pool = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
        chunks = [sets for sets, _ in graph._BranchAndBound(np.zeros((16, 16)), 8, math.inf).leaves()]
        assert all(1 <= len(c) <= graph._GATHER // 64 for c in chunks)  # (8, 8) leaves of 2^16 floats
        assert sum(len(c) for c in chunks) == math.comb(16, 8)
        flat = [tuple(int(j) for j in row) for chunk in chunks for row in pool[chunk]]
        assert flat == list(combinations(pool.tolist(), 8))

    def test_empty_subset_is_one_row(self):
        # The walk starts from the empty prefix, one row: its children are the singletons,
        # and at k = n its one leaf is the full set. The oracle answers k = 0 without a walk.
        ((chunk, _),) = graph._BranchAndBound(np.eye(4), 1, math.inf).leaves()
        assert chunk.tolist() == [[0], [1], [2], [3]]
        ((chunk, _),) = graph._BranchAndBound(np.eye(4), 4, math.inf).leaves()
        assert chunk.tolist() == [[0, 1, 2, 3]]
        problem = Problem(ChannelMatrix(np.eye(4)), ChannelMatrix(np.eye(4)))
        with mock.patch.object(graph._BranchAndBound, "leaves") as leaves:
            assert problem.select(Selector.ORACLE, 0.0).order == ()
        leaves.assert_not_called()

    def test_the_memoized_table_is_read_only(self):
        sets, offsets = graph._lexicographic(10, 5)
        ((chunk, _),) = graph._BranchAndBound(np.eye(10), 5, math.inf).leaves()
        assert chunk is sets  # every walk over C(10, 5) reads the one table
        for arr in (sets, offsets):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0
        assert sets[0].tolist() == [0, 1, 2, 3, 4] and offsets[0, 0].tolist() == [0, 1, 2, 3, 4]

    def test_a_bounding_walk_never_bounds_the_empty_prefix(self):
        # The empty prefix's bound is at most the greedy incumbent plus the slack, so it prunes
        # nothing; it is the only prefix with all k positions left to choose.
        rng = np.random.default_rng(3)
        q, k = random_pair(rng, 20, 16, 16)
        expected = Problem(q, k).select(Selector.ORACLE, 0.5).pruned
        bounds = graph._BranchAndBound.bounds
        with mock.patch.object(graph._BranchAndBound, "bounds", autospec=True, side_effect=bounds) as spy:
            assert Problem(q, k).select(Selector.ORACLE, 0.5).pruned == expected
        assert spy.call_count > 0
        for call in spy.call_args_list:
            search, f, rs, first, r = call.args
            assert r < search.k and len(f) == len(rs) == len(first)

    def test_cap_raises_before_the_first_chunk(self):
        w = np.eye(20)
        with mock.patch.object(graph, "_BranchAndBound") as walk:
            with pytest.raises(CapacityError, match="184756 subsets exceed the enumeration cap 1000"):
                restricted_eigenvalues(w, 10, cap=1000)
        walk.assert_not_called()


class TestRestrictedEigenvalues:
    def test_k1_is_diagonal_extrema(self):
        rng = np.random.default_rng(12)
        q, k = random_pair(rng, 6)
        w = build_interaction_graph(q, k)
        cert = restricted_eigenvalues(w, 1)
        assert cert.mu_min == pytest.approx(float(np.diag(w).min()), rel=1e-12)
        assert cert.mu_max == pytest.approx(float(np.diag(w).max()), rel=1e-12)

    def test_identity_graph(self):
        w = np.eye(4)
        cert = restricted_eigenvalues(w, 2)
        assert (cert.mu_min, cert.mu_max, cert.kappa) == (1.0, 1.0, 1.0)

    def test_brackets_every_subset(self):
        rng = np.random.default_rng(13)
        q, k = random_pair(rng, 8, rows_q=16, rows_k=16)
        w = build_interaction_graph(q, k)
        cert = restricted_eigenvalues(w, 4)
        for _ in range(50):
            support = sorted(rng.choice(8, size=4, replace=False).tolist())
            eigs = np.linalg.eigvalsh(w[np.ix_(support, support)])
            assert cert.mu_min <= eigs[0] + 1e-9
            assert eigs[-1] <= cert.mu_max + 1e-9

    def test_rayleigh_bound_on_indicators(self):
        rng = np.random.default_rng(14)
        q, k = random_pair(rng, 7, rows_q=12, rows_k=12)
        w = build_interaction_graph(q, k)
        for ksz in (2, 3):
            cert = restricted_eigenvalues(w, ksz)
            for support in combinations(range(7), ksz):
                f = quadratic_form(w, IndexSet(support))
                assert cert.mu_min * ksz <= f <= cert.mu_max * ksz

    def test_k_out_of_range(self):
        w = np.eye(3)
        with pytest.raises(ValueError):
            restricted_eigenvalues(w, 0)
        with pytest.raises(ValueError):
            restricted_eigenvalues(w, 4)

    def test_capacity_error_shares_the_oracle_cap_message(self):
        q = k = ChannelMatrix(np.eye(20))
        message = r"^C\(20, 10\) = 184756 subsets exceed the enumeration cap 1000$"
        with pytest.raises(CapacityError, match=message):
            restricted_eigenvalues(build_interaction_graph(q, k), 10, cap=1000)
        with pytest.raises(CapacityError, match=message):
            Problem(q, k).select(Selector.ORACLE, 0.5, cap=1000)

    def test_certificate_kappa_flags_zero_mu_min(self):
        w = np.zeros((3, 3))
        cert = restricted_eigenvalues(w, 2)
        assert cert.mu_min == 0.0
        assert math.isinf(cert.kappa)

    @pytest.mark.parametrize("w, message", [
        (np.array([[1.0, 2.0], [3.0, 1.0]]), "interaction matrix must be exactly symmetric"),
        (np.ones((2, 3)), "interaction matrix must be square"),
        (np.ones(3), "interaction matrix must be square"),
        (np.zeros((0, 0)), "graph needs at least one channel"),
        (np.array([[1.0, 2j], [2j, 1.0]]), "complex"),
        (np.array([[1.0, 0.0], [0.0, math.nan]]), "interaction matrix has non-finite entries"),
        (np.array([[1.0, 0.0], [0.0, math.inf]]), "interaction matrix has non-finite entries"),
    ], ids=["asymmetric", "non-square", "one-dimensional", "empty", "complex", "nan", "inf"])
    def test_refuses_a_matrix_it_cannot_certify(self, w, message):
        with pytest.raises(ValueError, match=message):
            restricted_eigenvalues(w, 1)

    def test_certificate_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            EigenCertificate(k=2, mu_min=2.0, mu_max=1.0)


def _reference_graphs() -> dict[str, np.ndarray]:
    """Small W of every sign pattern the certificate meets, none with a subnormal entry."""
    rng = np.random.default_rng(21)
    zeroed = rng.standard_normal((16, 7))
    zeroed[:, [2, 5]] = 0.0  # exact zero eigenvalues, and supports tied at them
    a = rng.standard_normal((6, 6))
    return {
        "gram-16x8": build_interaction_graph(ChannelMatrix(rng.standard_normal((16, 8))), ChannelMatrix(rng.standard_normal((16, 8)))),
        "zero-channels": build_interaction_graph(ChannelMatrix(zeroed), ChannelMatrix(rng.standard_normal((16, 7)))),
        "indefinite": a + a.T,
    }


REFERENCE_GRAPHS = _reference_graphs()


def mpmath_extremes(w: np.ndarray, k: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(mu_min, mu_max) over every size-k support of `w`, by mpmath's `eigsy` at 40 digits."""
    with mpmath.workdps(40):
        low, high = mpmath.inf, -mpmath.inf
        for support in combinations(range(len(w)), k):
            sub = mpmath.matrix([[mpmath.mpf(float(w[i, j])) for j in support] for i in support])
            eig = mpmath.eigsy(sub, eigvals_only=True)
            low, high = min(low, min(eig)), max(high, max(eig))
        return low, high


@cache
def _reference_extremes(name: str, k: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    return mpmath_extremes(REFERENCE_GRAPHS[name], k)


def assert_within_lapack_bound(cert: EigenCertificate, w: np.ndarray, low, high, scale: float = 1.0) -> None:
    """Both extremes within 16 k^2 eps ||A||_2 of scale * (low, high), with k max|w| bounding ||A||_2."""
    k = cert.k
    tol = 16 * k * k * float(np.finfo(np.float64).eps) * (k * float(np.abs(w).max()))
    assert math.isfinite(cert.mu_min) and math.isfinite(cert.mu_max)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(cert.mu_min) - low * scale) <= tol, (cert.mu_min, low * scale, tol)
        assert abs(mpmath.mpf(cert.mu_max) - high * scale) <= tol, (cert.mu_max, high * scale, tol)


class TestCertificateReference:
    @pytest.mark.parametrize("exponent", [-1000, -500, -100, -40, -10, 0, 10, 40, 100, 500, 1000])
    @pytest.mark.parametrize("name", REFERENCE_GRAPHS)
    def test_matches_mpmath_at_every_power_of_two_scale(self, name, exponent):
        # A power-of-two scale is exact in both arithmetics, so the reference scales with W.
        scale = math.ldexp(1.0, exponent)
        w = REFERENCE_GRAPHS[name] * scale
        assert np.array_equal(w / scale, REFERENCE_GRAPHS[name])
        for k in range(1, len(w) + 1):
            low, high = _reference_extremes(name, k)
            cert = restricted_eigenvalues(w, k)
            assert_within_lapack_bound(cert, w, low, high, scale)

    def test_tiny_rank_one_block(self):
        # An absolute stopping tolerance would take the diagonal, [1e-150, 1e-150], as converged.
        w = np.ones((2, 2)) * 1e-150
        cert = restricted_eigenvalues(w, 2)
        assert_within_lapack_bound(cert, w, mpmath.mpf(0), 2 * mpmath.mpf(1e-150))

    @pytest.mark.parametrize("scale", [1e306, 1e-300])
    def test_extreme_scales_are_finite_and_warn_nothing(self, scale):
        a = np.random.default_rng(11).standard_normal((7, 7))
        w = (a + a.T) * scale
        for k in (1, 3, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = restricted_eigenvalues(w, k)
            assert_within_lapack_bound(cert, w, *mpmath_extremes(w, k))
