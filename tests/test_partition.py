"""Group splitting, per-group row ordering, and the connectivity-row plan."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import NMPruneError, assign_blocks, order_rows, plan_groups, rri


class TestSplitGroups:
    """order_rows splits the columns into contiguous groups of width m."""

    def test_two_groups(self):
        assert order_rows(np.ones((3, 8)), 4).shape == (2, 3)

    def test_single_group(self):
        assert order_rows(np.ones((3, 4)), 4).shape == (1, 3)

    def test_non_divisible(self):
        with pytest.raises(NMPruneError, match="groups of width 4"):
            order_rows(np.ones((2, 6)), 4)

    def test_cover_and_disjoint(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(7, 24))
        order = order_rows(scores, 4)
        assert order.shape == (6, 7)
        for g in range(6):
            sums = scores[:, 4 * g : 4 * g + 4].sum(axis=1)
            np.testing.assert_array_equal(order[g], np.argsort(sums, kind="stable"))


class TestOrderRows:
    def test_ascending_by_sum(self):
        scores = np.array([[0.9], [0.1], [0.5]])
        np.testing.assert_array_equal(order_rows(scores, 1), [[1, 2, 0]])

    def test_ties_keep_row_index(self):
        scores = np.full((4, 2), 0.5)
        np.testing.assert_array_equal(order_rows(scores, 2), [[0, 1, 2, 3]])

    def test_single_row(self):
        np.testing.assert_array_equal(order_rows(np.array([[1.0, 2.0]]), 2), [[0]])

    def test_count_truncates(self):
        scores = np.array([[0.9], [0.1], [0.5]])
        np.testing.assert_array_equal(order_rows(scores, 1, 2), [[1, 2]])
        np.testing.assert_array_equal(order_rows(scores, 1, 5), [[1, 2, 0]])
        assert order_rows(scores, 1, 0).shape == (1, 0)

    def test_range_checked(self):
        for cols, m in [(2, 4), (4, 0)]:
            with pytest.raises(NMPruneError, match="groups of width"):
                order_rows(np.ones((2, cols)), m)
        with pytest.raises(NMPruneError, match="2-D"):
            order_rows(np.ones(8), 4)


class TestAssignBlocks:
    def test_one_connectivity_block(self):
        rows = assign_blocks(np.arange(8)[None], 4, 1)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, [[[0, 1, 2, 3]]])

    def test_b_zero_all_importance(self):
        assert assign_blocks(np.arange(8)[None], 4, 0).shape == (1, 0, 4)

    def test_clamp_and_partial_tail(self):
        # two full blocks and a tail of two rows: the tail never gets connectivity
        with pytest.warns(UserWarning, match="clamping"):
            rows = assign_blocks(np.arange(10)[None], 4, 3)
        np.testing.assert_array_equal(rows, [[[0, 1, 2, 3], [4, 5, 6, 7]]])

    def test_rows_partitioned(self):
        order = np.array([[3, 1, 4, 0, 2, 5], [5, 4, 3, 2, 1, 0]])
        np.testing.assert_array_equal(
            assign_blocks(order, 2, 2), [[[3, 1], [4, 0]], [[5, 4], [3, 2]]]
        )

    def test_connectivity_blocks_always_full(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert assign_blocks(np.arange(6)[None], 4, 2).shape == (1, 1, 4)
        with pytest.warns(UserWarning, match="clamping"):
            assert assign_blocks(np.arange(3)[None], 4, 1).shape == (1, 0, 4)

    def test_clamp_warns_once_per_group(self):
        order = np.tile(np.arange(6), (3, 1))
        with pytest.warns(UserWarning, match="clamping") as caught:
            rows = assign_blocks(order, 4, 2)
        assert rows.shape == (3, 1, 4)
        assert [str(w.message) for w in caught] == [
            "connectivity block count 2 exceeds 1 full blocks; clamping"
        ] * 3


class TestPlanGroups:
    def test_connectivity_rows_have_lowest_scores(self):
        rng = np.random.default_rng(42)
        scores = rri(rng.standard_normal((12, 8)))
        rows = plan_groups(scores, 4, 1)
        assert rows.shape == (2, 1, 4)
        for g in range(2):
            sums = scores[:, 4 * g : 4 * g + 4].sum(axis=1)
            rest = np.setdiff1d(np.arange(12), rows[g])
            assert sums[rows[g]].max() <= sums[rest].min()

    def test_orders_are_per_group(self):
        # a row can be low-importance in one group and high in another
        w = np.array(
            [[0.01, 0.01, 0.01, 0.01, 10.0, 10.0, 10.0, 10.0],
             [10.0, 10.0, 10.0, 10.0, 0.01, 0.01, 0.01, 0.01]]
        )
        scores = rri(w)
        np.testing.assert_array_equal(order_rows(scores, 4), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(plan_groups(scores, 2, 1)[:, 0],
                                      [[0, 1], [0, 1], [1, 0], [1, 0]])

    def test_every_row_in_exactly_one_block_per_group(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=(10, 12))
        rows = plan_groups(scores, 4, 2)
        assert rows.shape == (3, 2, 4)
        for g, order in enumerate(order_rows(scores, 4)):
            assert sorted(order.tolist()) == list(range(10))
            np.testing.assert_array_equal(rows[g].ravel(), order[:8])

    def test_clamped_plan_warns_once_per_group(self):
        rng = np.random.default_rng(5)
        with pytest.warns(UserWarning, match="clamping") as caught:
            rows = plan_groups(rng.uniform(size=(6, 16)), 4, 3)
        assert rows.shape == (4, 1, 4)
        assert len(caught) == 4


class TestPartialOrder:
    """order_rows sorts only the rows it returns; plan_groups asks for the
    first b * m. Both must agree with one full stable argsort per group."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 40),
           st.integers(1, 4), st.integers(0, 6), st.sampled_from(["float", "integer", "equal"]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_stable_argsort(self, seed, m, f_out, groups, b, kind, exact):
        if exact and b:
            f_out = b * m  # the blocks take every row: b_eff * m == f_out
        rng = np.random.default_rng(seed)
        shape = (f_out, groups * m)
        if kind == "float":
            scores = rng.uniform(size=shape)
        elif kind == "integer":
            scores = rng.integers(0, 3, size=shape).astype(float)
        else:
            scores = np.ones(shape)
        want = helpers.order_rows_oracle(scores, m)
        for count in range(f_out + 2):
            np.testing.assert_array_equal(order_rows(scores, m, count), want[:, :count])
        np.testing.assert_array_equal(order_rows(scores, m), want)

        full = f_out // m
        effective = min(b, full)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = plan_groups(scores, m, b)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(
            rows, want[:, : effective * m].reshape(groups, effective, m))
        clamp = f"connectivity block count {b} exceeds {full} full blocks; clamping"
        assert [str(w.message) for w in caught] == [clamp] * (groups if b > full else 0)


class TestSharedOrder:
    """One order_rows call at the largest count serves every smaller count,
    so a sweep over B can order rows once and slice per B."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8).map(lambda h: 2 * h), st.integers(1, 24),
           st.integers(1, 3), st.integers(0, 30), st.sampled_from(["float", "integer"]))
    @settings(max_examples=150, deadline=None)
    def test_counts_are_prefixes_of_the_largest(self, seed, m, f_out, groups, big, kind):
        rng = np.random.default_rng(seed)
        shape = (f_out, groups * m)
        if kind == "float":
            scores = rng.uniform(size=shape)
        else:  # integer sums tie often
            scores = rng.integers(0, 3, size=shape).astype(float)
        oracle = helpers.order_rows_oracle(scores, m)
        shared = order_rows(scores, m, big)
        assert shared.shape == (groups, min(big, f_out))
        for k in range(big + 1):  # big may exceed f_out
            np.testing.assert_array_equal(order_rows(scores, m, k), shared[:, :k])
            np.testing.assert_array_equal(shared[:, :k], oracle[:, :k])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8).map(lambda h: 2 * h), st.integers(1, 24),
           st.integers(1, 3), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_sliced_blocks_match_plan_groups(self, seed, m, f_out, groups, max_b):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=(f_out, groups * m)).astype(float)
        shared = order_rows(scores, m, max_b * m)
        for b in range(max_b + 1):  # b above f_out // m is clamped, with its warnings
            got, got_warnings = helpers.outcome(assign_blocks, shared[:, : b * m], m, b)
            want, want_warnings = helpers.outcome(plan_groups, scores, m, b)
            np.testing.assert_array_equal(got, want)
            assert got.shape == want.shape and got_warnings == want_warnings
