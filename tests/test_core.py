from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from channelprune import (
    ChannelMatrix,
    IndexSet,
    MatrixValidationError,
    build_interaction_graph,
    quadratic_form,
    reconstruction_error_sq,
)
from channelprune import core
from channelprune.core import exact_ceil


class TestChannelMatrix:
    def test_shape_and_accessors(self):
        m = ChannelMatrix(np.arange(6.0).reshape(2, 3))
        assert (m.rows, m.cols) == (2, 3)
        assert m.data[:, 1].tolist() == [1.0, 4.0]

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            ChannelMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            ChannelMatrix(np.zeros(4))

    def test_rejects_a_complex_array(self):
        with pytest.raises(ValueError, match="complex"):
            ChannelMatrix(np.array([[1 + 2j, 3.0]]))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[1, 0] = np.nan
        with pytest.raises(MatrixValidationError, match="row 1, col 0") as err:
            ChannelMatrix(bad)
        assert (err.value.row, err.value.col) == (1, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_lone_non_finite_entry_among_any_signs(self, value):
        # The check reads each column's max and min, so a -inf must show through the min.
        bad = np.array([[1.0, -2.0, 0.0], [-0.0, 3.0, -4.0]])
        bad[1, 2] = value
        with pytest.raises(MatrixValidationError, match="row 1, col 2"):
            ChannelMatrix(bad)

    def test_immutable_and_decoupled_from_source(self):
        src = np.ones((2, 2))
        m = ChannelMatrix(src)
        src[0, 0] = 99.0
        assert m.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


    def test_first_non_finite_is_named_in_row_major_order(self):
        bad = np.asfortranarray(np.ones((2, 2)))
        bad[1, 0] = np.inf
        bad[0, 1] = np.nan
        with pytest.raises(MatrixValidationError) as err:
            ChannelMatrix(bad)
        assert (err.value.row, err.value.col) == (0, 1)

    @pytest.mark.parametrize(
        "layout",
        ["C-ordered", "F-ordered", "one row", "one column", "strided view"],
    )
    def test_stores_channels_contiguously_in_its_own_frozen_buffer(self, layout):
        base = np.arange(1.0, 49.0).reshape(6, 8) * np.array([1.0, -0.0, 0.5, -3.0, 1e-310, 7.0, 2.0, -1.0])
        source = {
            "C-ordered": base,
            "F-ordered": np.asfortranarray(base),
            "one row": base[:1].copy(),
            "one column": base[:, :1].copy(),
            "strided view": base[::2, 1::3],
        }[layout]
        expected = source.copy()
        m = ChannelMatrix(source)
        assert m.data.flags.f_contiguous and not m.data.flags.writeable
        assert m.data.shape == expected.shape and m.data.tobytes() == expected.tobytes()
        source[...] = 99.0  # the caller's buffer (through the view, the base array's)
        assert m.data.tobytes() == expected.tobytes()
        assert m.exponents.tolist() == np.frexp(np.abs(expected).max(axis=0))[1].tolist()
        assert not m.exponents.flags.writeable
        assert [e for e, column in zip(m.exponents.tolist(), expected.T) if not column.any()] == (
            [] if layout == "one column" else [0]  # the -0.0 column
        )


    def test_gram_is_the_read_only_gram_of_the_exactly_rescaled_columns_formed_once(self):
        # Column 1's squares overflow float64 and column 3's underflow; the -0.0 column has e = 0.
        base = np.random.default_rng(0).standard_normal((7, 5)) * np.array([1.0, 1e200, -0.0, 1e-200, 3.0])
        m = ChannelMatrix(base)
        s = np.ldexp(m.data, -m.exponents)
        expected = s.T @ s
        assert m.gram.tobytes() == expected.tobytes() and np.all(np.isfinite(m.gram))
        assert not m.gram.flags.writeable
        assert m.gram is m.gram


class TestIndexSet:
    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            IndexSet((1, 1))
        with pytest.raises(ValueError):
            IndexSet((-1,))

    def test_rejects_non_integer_indices(self):
        # 1.5 used to become 1 silently; numpy integers are still indices.
        for bad in ((1.5, 2.9), (np.float64(1.0),), ("1",)):
            with pytest.raises(TypeError):
                IndexSet(bad)
        assert IndexSet((np.int64(3), np.intp(0))).indices == (3, 0)

    def test_membership_and_order(self):
        s = IndexSet((3, 0, 2))
        assert list(s) == [3, 0, 2]
        assert 0 in s and 1 not in s
        assert len(s) == 3

    def test_validate_within(self):
        IndexSet((0, 4)).validate_within(5)
        with pytest.raises(IndexError):
            IndexSet((0, 5)).validate_within(5)


class TestReconstructionError:
    def test_empty_prune_is_zero(self):
        rng = np.random.default_rng(0)
        q = ChannelMatrix(rng.standard_normal((4, 6)))
        k = ChannelMatrix(rng.standard_normal((5, 6)))
        assert reconstruction_error_sq(q, k, IndexSet.empty()) == 0.0

    def test_full_prune_is_whole_product(self):
        rng = np.random.default_rng(1)
        q = ChannelMatrix(rng.standard_normal((4, 6)))
        k = ChannelMatrix(rng.standard_normal((5, 6)))
        everything = IndexSet(tuple(range(6)))
        expected = float(np.sum((q.data @ k.data.T) ** 2))
        assert reconstruction_error_sq(q, k, everything) == pytest.approx(expected, rel=1e-12)

    def test_worked_two_channel_example(self):
        # By the decomposition: w0 = 2, w1 = 2, interaction 2*(1)*(1) = 2, total 6.
        # The direct Frobenius computation gives the same.
        q = ChannelMatrix(np.array([(1, 1), (1, 0)], dtype=float).T)
        k = ChannelMatrix(np.array([(1, 0), (1, 1)], dtype=float).T)
        assert reconstruction_error_sq(q, k, IndexSet((0, 1))) == pytest.approx(6.0, abs=1e-12)

    def test_width_mismatch(self):
        q = ChannelMatrix(np.ones((2, 3)))
        k = ChannelMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            reconstruction_error_sq(q, k, IndexSet.empty())

    def test_invariant_under_row_permutation_of_q(self):
        rng = np.random.default_rng(7)
        q_data = rng.standard_normal((9, 5))
        k = ChannelMatrix(rng.standard_normal((6, 5)))
        s = IndexSet((1, 3))
        base = reconstruction_error_sq(ChannelMatrix(q_data), k, s)
        perm = rng.permutation(9)
        shuffled = reconstruction_error_sq(ChannelMatrix(q_data[perm]), k, s)
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestDecomposedError:
    """The decomposed error 1_S^T W 1_S, as `quadratic_form` evaluates it."""

    def test_empty_sum(self):
        q = ChannelMatrix(np.ones((2, 3)))
        w = build_interaction_graph(q, q)
        assert quadratic_form(w, IndexSet.empty()) == 0.0

    def test_singleton_is_outer_product_norm(self):
        rng = np.random.default_rng(11)
        q = ChannelMatrix(rng.standard_normal((6, 4)))
        k = ChannelMatrix(rng.standard_normal((8, 4)))
        w = build_interaction_graph(q, k)
        for i in range(4):
            outer = np.outer(q.data[:, i], k.data[:, i])
            assert quadratic_form(w, IndexSet((i,))) == pytest.approx(
                float(np.sum(outer * outer)), rel=1e-12
            )

    def test_matches_direct_on_random_instance(self):
        rng = np.random.default_rng(13)
        q = ChannelMatrix(rng.standard_normal((16, 12)))
        k = ChannelMatrix(rng.standard_normal((16, 12)))
        w = build_interaction_graph(q, k)
        s = IndexSet(tuple(sorted(rng.choice(12, size=6, replace=False).tolist())))
        direct = reconstruction_error_sq(q, k, s)
        assert abs(quadratic_form(w, s) - direct) <= 1e-9 * max(1.0, direct)

    def test_index_out_of_range(self):
        q = ChannelMatrix(np.ones((2, 3)))
        w = build_interaction_graph(q, q)
        with pytest.raises(IndexError):
            quadratic_form(w, IndexSet((3,)))


def test_decomposition_identity_property():
    # Eq-style identity on a seeded grid of shapes and subsets.
    rng = np.random.default_rng(42)
    for _ in range(60):
        d = int(rng.integers(2, 20))
        q = ChannelMatrix(rng.standard_normal((int(rng.integers(2, 20)), d)))
        k = ChannelMatrix(rng.standard_normal((int(rng.integers(2, 20)), d)))
        w = build_interaction_graph(q, k)
        for _ in range(3):
            size = int(rng.integers(0, d + 1))
            s = IndexSet(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))
            direct = reconstruction_error_sq(q, k, s)
            assert abs(quadratic_form(w, s) - direct) <= 1e-9 * max(1.0, direct)


def test_superset_error_can_decrease():
    # Negative interactions mean the error is not monotone in the pruned set.
    q = ChannelMatrix(np.array([(1, 0), (1, 0)], dtype=float).T)
    k = ChannelMatrix(np.array([(1, 0), (-1, 0)], dtype=float).T)
    single = reconstruction_error_sq(q, k, IndexSet((0,)))
    both = reconstruction_error_sq(q, k, IndexSet((0, 1)))
    assert both < single
    assert both == pytest.approx(0.0, abs=1e-12)


def test_exact_ceil_is_taken_once_per_printed_value():
    core._decimal_ceil.cache_clear()
    with mock.patch.object(core, "Fraction", wraps=Fraction) as parse:
        assert [exact_ceil(0.55, 100) for _ in range(3)] == [55, 55, 55]
        assert parse.call_count == 1
        # Equal values that print differently are different budgets: 10 of 100, then 11.
        narrow = np.float32(0.1)
        assert narrow == float(narrow) and str(narrow) != str(float(narrow))
        assert exact_ceil(narrow, 100) == 10
        assert exact_ceil(float(narrow), 100) == 11
        assert exact_ceil(narrow, 100) == 10
        assert parse.call_count == 3
