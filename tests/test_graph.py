import math
import warnings
from functools import cache
from itertools import combinations

import mpmath
import numpy as np
import pytest

from channelprune import graph
from channelprune import (
    CapacityError,
    ChannelMatrix,
    EigenCertificate,
    IndexSet,
    InteractionGraph,
    build_interaction_graph,
    oracle_select,
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
        g = build_interaction_graph(q, k)
        assert g.w[0, 1] == 0.0

    def test_worked_example(self):
        q = ChannelMatrix(np.array([(1, 1), (1, 0)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (1, 1)], dtype=float).T)
        g = build_interaction_graph(q, k)
        assert g.w.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_against_naive_loop_oracle(self):
        rng = np.random.default_rng(5)
        q, k = random_pair(rng, 6)
        g = build_interaction_graph(q, k)
        for i in range(6):
            for j in range(6):
                qq = float(q.data[:, i] @ q.data[:, j])
                kk = float(k.data[:, i] @ k.data[:, j])
                assert g.w[i, j] == pytest.approx(qq * kk, rel=1e-12)

    def test_diagonal_is_norm_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q, k = random_pair(rng, int(rng.integers(2, 10)))
            g = build_interaction_graph(q, k)
            for i in range(q.cols):
                expected = float(np.sum(q.data[:, i] ** 2) * np.sum(k.data[:, i] ** 2))
                assert g.w[i, i] == pytest.approx(expected, rel=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            build_interaction_graph(ChannelMatrix(np.ones((2, 3))), ChannelMatrix(np.ones((2, 2))))

    def test_exact_symmetry_and_readonly(self):
        rng = np.random.default_rng(7)
        q, k = random_pair(rng, 9)
        g = build_interaction_graph(q, k)
        assert np.array_equal(g.w, g.w.T)
        with pytest.raises(ValueError):
            g.w[0, 0] = 1.0

    def test_copies_an_ndarray_subclass(self):
        class Tagged(np.ndarray):
            pass

        w = np.array([[2.0, 1.0], [1.0, 2.0]]).view(Tagged)
        g = InteractionGraph(w)
        w[0, 0] = 100.0
        assert type(g.w) is np.ndarray and not np.shares_memory(g.w, w)
        assert quadratic_form(g, IndexSet((0, 1))) == 6.0

    def test_constructor_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            InteractionGraph(w=np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_constructor_rejects_a_non_square_or_empty_matrix(self):
        for w in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match="interaction matrix must be square"):
                InteractionGraph(w)
        with pytest.raises(ValueError, match="graph needs at least one channel"):
            InteractionGraph(np.zeros((0, 0)))

    def test_psd_over_seeded_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            q, k = random_pair(rng, int(rng.integers(2, 16)))
            g = build_interaction_graph(q, k)
            smallest = float(np.linalg.eigvalsh(g.w)[0])
            assert smallest >= -1e-8 * float(np.linalg.norm(g.w))

    def test_channel_permutation_conjugates_w(self):
        rng = np.random.default_rng(8)
        q, k = random_pair(rng, 7)
        g = build_interaction_graph(q, k)
        perm = rng.permutation(7)
        g2 = build_interaction_graph(ChannelMatrix(q.data[:, perm]), ChannelMatrix(k.data[:, perm]))
        assert np.allclose(g2.w, g.w[np.ix_(perm, perm)], rtol=1e-12, atol=0)


class TestQuadraticForm:
    def test_empty(self):
        g = InteractionGraph(w=np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert quadratic_form(g, IndexSet.empty()) == 0.0

    def test_worked_pair(self):
        g = InteractionGraph(w=np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert quadratic_form(g, IndexSet((0, 1))) == 6.0

    def test_full_set_sums_everything(self):
        rng = np.random.default_rng(9)
        q, k = random_pair(rng, 5)
        g = build_interaction_graph(q, k)
        full = IndexSet(tuple(range(5)))
        assert quadratic_form(g, full) == pytest.approx(float(g.w.sum()), rel=1e-12)

    def test_agrees_with_decomposed_grouping(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            q, k = random_pair(rng, 10)
            g = build_interaction_graph(q, k)
            size = int(rng.integers(0, 11))
            s = IndexSet(tuple(sorted(rng.choice(10, size=size, replace=False).tolist())))
            sub = g.w[np.ix_(s.as_array(), s.as_array())]
            cross = sub.copy()
            np.fill_diagonal(cross, 0.0)
            a, b = quadratic_form(g, s), float(np.trace(sub)) + float(cross.sum())  # self + interaction terms
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q, k = random_pair(rng, 8)
            g = build_interaction_graph(q, k)
            size = int(rng.integers(1, 9))
            s = IndexSet(tuple(sorted(rng.choice(8, size=size, replace=False).tolist())))
            assert quadratic_form(g, s) >= -1e-8 * float(np.linalg.norm(g.w))


class TestSubsets:
    def test_chunks_enumerate_every_subset_in_order(self):
        pool = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
        chunks = list(graph._subsets(len(pool), 8, cap=math.comb(16, 8)))
        assert [len(c) for c in chunks] == [4096, 4096, 4096, 582]
        flat = [tuple(int(j) for j in row) for chunk in chunks for row in pool[chunk]]
        assert flat == list(combinations(pool.tolist(), 8))

    def test_empty_subset_is_one_row(self):
        (chunk,) = graph._subsets(4, 0, cap=1)
        assert chunk.shape == (1, 0)

    def test_cap_raises_before_the_first_chunk(self):
        chunks = graph._subsets(20, 10, cap=1000)
        with pytest.raises(CapacityError, match="184756 subsets exceed the enumeration cap 1000"):
            next(chunks)


class TestRestrictedEigenvalues:
    def test_k1_is_diagonal_extrema(self):
        rng = np.random.default_rng(12)
        q, k = random_pair(rng, 6)
        g = build_interaction_graph(q, k)
        cert = restricted_eigenvalues(g, 1)
        assert cert.mu_min == pytest.approx(float(np.diag(g.w).min()), rel=1e-12)
        assert cert.mu_max == pytest.approx(float(np.diag(g.w).max()), rel=1e-12)

    def test_identity_graph(self):
        g = InteractionGraph(w=np.eye(4))
        cert = restricted_eigenvalues(g, 2)
        assert (cert.mu_min, cert.mu_max, cert.kappa) == (1.0, 1.0, 1.0)

    def test_brackets_every_subset(self):
        rng = np.random.default_rng(13)
        q, k = random_pair(rng, 8, rows_q=16, rows_k=16)
        g = build_interaction_graph(q, k)
        cert = restricted_eigenvalues(g, 4)
        for _ in range(50):
            support = sorted(rng.choice(8, size=4, replace=False).tolist())
            eigs = np.linalg.eigvalsh(g.w[np.ix_(support, support)])
            assert cert.mu_min <= eigs[0] + 1e-9
            assert eigs[-1] <= cert.mu_max + 1e-9

    def test_rayleigh_bound_on_indicators(self):
        rng = np.random.default_rng(14)
        q, k = random_pair(rng, 7, rows_q=12, rows_k=12)
        g = build_interaction_graph(q, k)
        for ksz in (2, 3):
            cert = restricted_eigenvalues(g, ksz)
            for support in combinations(range(7), ksz):
                f = quadratic_form(g, IndexSet(support))
                assert cert.mu_min * ksz <= f <= cert.mu_max * ksz

    def test_k_out_of_range(self):
        g = InteractionGraph(w=np.eye(3))
        with pytest.raises(ValueError):
            restricted_eigenvalues(g, 0)
        with pytest.raises(ValueError):
            restricted_eigenvalues(g, 4)

    def test_capacity_error_shares_the_oracle_cap_message(self):
        q = k = ChannelMatrix(np.eye(20))
        message = r"^C\(20, 10\) = 184756 subsets exceed the enumeration cap 1000$"
        with pytest.raises(CapacityError, match=message):
            restricted_eigenvalues(build_interaction_graph(q, k), 10, cap=1000)
        with pytest.raises(CapacityError, match=message):
            oracle_select(q, k, 0.5, cap=1000)

    def test_certificate_kappa_flags_zero_mu_min(self):
        g = InteractionGraph(w=np.zeros((3, 3)))
        cert = restricted_eigenvalues(g, 2)
        assert cert.mu_min == 0.0
        assert math.isinf(cert.kappa)

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
        "gram-16x8": build_interaction_graph(ChannelMatrix(rng.standard_normal((16, 8))), ChannelMatrix(rng.standard_normal((16, 8)))).w,
        "zero-channels": build_interaction_graph(ChannelMatrix(zeroed), ChannelMatrix(rng.standard_normal((16, 7)))).w,
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
            cert = restricted_eigenvalues(InteractionGraph(w), k)
            assert_within_lapack_bound(cert, w, low, high, scale)

    def test_tiny_rank_one_block(self):
        # An absolute stopping tolerance would take the diagonal, [1e-150, 1e-150], as converged.
        w = np.ones((2, 2)) * 1e-150
        cert = restricted_eigenvalues(InteractionGraph(w), 2)
        assert_within_lapack_bound(cert, w, mpmath.mpf(0), 2 * mpmath.mpf(1e-150))

    @pytest.mark.parametrize("scale", [1e306, 1e-300])
    def test_extreme_scales_are_finite_and_warn_nothing(self, scale):
        a = np.random.default_rng(11).standard_normal((7, 7))
        w = (a + a.T) * scale
        for k in (1, 3, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = restricted_eigenvalues(InteractionGraph(w), k)
            assert_within_lapack_bound(cert, w, *mpmath_extremes(w, k))
