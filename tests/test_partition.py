"""Group splitting, per-group row ordering, and the connectivity-row plan."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import ActivationNorms, NMPruneError, masks, metrics
from nmprune.masks import ria_select
from nmprune.metrics import BlockSource, layer_sums, rri, weight_blocks
from nmprune.partition import assign_blocks, order_rows, plan_groups


def kernel_plan(w, m, plan, act=None):
    """What ``plan``, in plan_groups' place, returns from the rri group sums that
    masks.ria_select makes as it scores ``w``: a BlockSource of (rows, groups)
    row blocks."""
    act = ActivationNorms(np.ones(np.shape(w)[1])) if act is None else act
    with mock.patch.object(masks, "plan_groups", lambda sums, *_: plan(sums)):
        return ria_select(weight_blocks(w), np.shape(w), layer_sums(w, act)[:2], 1, m, 0)[2]


def group_sums(w, m, act=None):
    """The rri group sums the kernel hands to order_rows, shape (rows, groups),
    joined from masks.ria_select's row blocks, each copied as it comes: a block
    is valid until the next is read."""
    def join(source):
        blocks = [block.copy() for block in source.blocks]
        parts = metrics.row_blocks(*np.shape(w))
        assert [len(b) for b in blocks] == [p.stop - p.start for p in parts]
        sums = np.concatenate(blocks)
        assert sums.dtype == source.dtype == np.float64 and sums.shape == source.shape
        return sums
    return kernel_plan(w, m, join, act)


class TestSplitGroups:
    """The kernel sums rri over contiguous groups of m columns for order_rows."""

    def test_two_groups(self):
        assert group_sums(np.ones((3, 8)), 4).shape == (3, 2)
        assert order_rows(group_sums(np.ones((3, 8)), 4)).shape == (2, 3)

    def test_single_group(self):
        assert order_rows(group_sums(np.ones((3, 4)), 4)).shape == (1, 3)

    def test_non_divisible(self):
        with pytest.raises(NMPruneError, match="6 columns not divisible by window width 4"):
            group_sums(np.ones((2, 6)), 4)

    def test_cover_and_disjoint(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((7, 24))
        scores = rri(w)
        order = order_rows(group_sums(w, 4))
        assert order.shape == (6, 7)
        for g in range(6):
            sums = scores[:, 4 * g : 4 * g + 4].sum(axis=1)
            np.testing.assert_array_equal(order[g], np.argsort(sums, kind="stable"))


def kernel_layer(seed, f_out, f_in, kind):
    rng = np.random.default_rng(seed)
    if kind == "integer":  # equal group sums tie often
        w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(f_out, f_in))
    else:
        w = rng.standard_normal((f_out, f_in))
    if kind == "dead":  # exact-zero rows and columns, each sum dividing as 1
        w[rng.random(f_out) < 0.25] = 0.0
        w[:, rng.random(f_in) < 0.25] = 0.0
        w[:, rng.integers(f_in)] = 0.0
    w = w.astype(np.float32) if kind == "float32" else w
    return w, ActivationNorms(rng.uniform(0.1, 2.0, size=f_in))


class TestKernelGroupSums:
    """masks.ria_select adds each row's rri over every group as it scores each
    row block; its blocks, joined, equal one whole-matrix reduction of rri bit
    for bit, so the row order equals the oracle's. A small _TOPK_CHUNK gives
    one row per block, or a partial tail block of rows."""

    KINDS = ["float32", "float64", "integer", "dead"]

    @staticmethod
    def check(w, act, m, chunk):
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            sums = group_sums(w, m, act)
        want_rri = helpers.ria_rri_oracle(w, act)[1]
        assert sums.tobytes() == helpers.group_sums(want_rri, m).tobytes()
        np.testing.assert_array_equal(order_rows(sums), helpers.order_rows_oracle(want_rri, m))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(1, 30),
           st.integers(1, 5), st.integers(1, 1 << 9), st.sampled_from(KINDS))
    @settings(max_examples=200, deadline=None)
    def test_match_the_whole_matrix_reduction(self, seed, m, f_out, groups, chunk, kind):
        self.check(*kernel_layer(seed, f_out, groups * m, kind), m, chunk)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 16])
    @pytest.mark.parametrize("rows, groups, per_block", [
        (lambda m: 5, 3, 2),  # blocks of 2, 2 and 1 rows
        (lambda m: m + 1, 1, 1),  # one group, one row per block
        (lambda m: m - 1, 4, 3),  # F_out < M, in blocks of 3 rows and a tail
        (lambda m: 1, 4, 3),  # a single row
    ], ids=["tail", "one-group", "narrow", "one-row"])
    def test_edges(self, m, kind, rows, groups, per_block):
        self.check(*kernel_layer(m, rows(m), groups * m, kind), m, per_block * groups * m)


class TestStreamedOrder:
    """order_rows and plan_groups on the group sums that masks.ria_select makes
    as it scores equal one full stable argsort per group of the oracle's rri
    sums, bit for bit: integer layers tie often, dead rows and columns sum to
    0, the count runs from 0 to past F_out, and a small _TOPK_CHUNK gives one
    row per block or a partial tail block."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8, 16]), st.integers(1, 30),
           st.integers(1, 4), st.sampled_from(TestKernelGroupSums.KINDS), st.integers(0, 34),
           st.integers(0, 5), st.integers(1, 1 << 9))
    @settings(max_examples=200, deadline=None)
    def test_match_the_oracle(self, seed, m, f_out, groups, kind, count, b, chunk):
        w, act = kernel_layer(seed, f_out, groups * m, kind)
        want = helpers.order_rows_oracle(helpers.ria_rri_oracle(w, act)[1], m)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got = kernel_plan(w, m, lambda sums: order_rows(sums, count), act)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = kernel_plan(w, m, lambda sums: plan_groups(sums, m, b), act)
        assert got.dtype == np.int64 and got.tobytes() == want[:, :count].tobytes()
        full = f_out // m
        effective = min(b, full)
        np.testing.assert_array_equal(rows, want[:, : effective * m].reshape(groups, effective, m))
        assert len(caught) == (groups if b > full else 0)


class TestOrderRows:
    """order_rows takes the (rows, groups) sums; one line is one row."""

    def test_ascending_by_sum(self):
        sums = np.array([[0.9], [0.1], [0.5]])
        np.testing.assert_array_equal(order_rows(sums), [[1, 2, 0]])

    def test_ties_keep_row_index(self):
        np.testing.assert_array_equal(order_rows(np.full((4, 1), 1.0)), [[0, 1, 2, 3]])

    def test_single_row(self):
        np.testing.assert_array_equal(order_rows(np.array([[3.0]])), [[0]])

    def test_count_truncates(self):
        sums = np.array([[0.9], [0.1], [0.5]])
        np.testing.assert_array_equal(order_rows(sums, 2), [[1, 2]])
        np.testing.assert_array_equal(order_rows(sums, 5), [[1, 2, 0]])
        assert order_rows(sums, 0).shape == (1, 0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 12), st.integers(1, 4),
           st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_block_source_matches_the_array(self, seed, groups, f_out, per_block, count):
        # blocks of per_block rows, the last one partial when per_block does not divide
        sums = np.random.default_rng(seed).integers(0, 3, size=(f_out, groups)).astype(float)

        def source():
            blocks = [sums[r : r + per_block] for r in range(0, f_out, per_block)]
            return BlockSource(sums.dtype, sums.shape, iter(blocks))

        np.testing.assert_array_equal(order_rows(source(), count), order_rows(sums, count))
        np.testing.assert_array_equal(order_rows(source()), order_rows(sums))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a B above the full blocks clamps
            np.testing.assert_array_equal(plan_groups(source(), 2, count),
                                          plan_groups(sums, 2, count))

    def test_block_source_unread_without_a_count(self):
        def blocks():
            raise AssertionError("read")
            yield
        assert order_rows(BlockSource(np.dtype(np.float64), (5, 3), blocks()), 0).shape == (3, 0)

    def test_range_checked(self):
        for sums in (np.ones(8), np.ones((2, 2, 2)), np.array([[1.0], [np.inf]]),
                     np.array([[np.nan, 1.0]])):
            with pytest.raises(NMPruneError, match="group sums must be 2-D and finite"):
                order_rows(sums)
        for m in (0, -1):
            with pytest.raises(NMPruneError, match="groups of width"):
                plan_groups(np.ones((2, 8)), m, 1)
            with pytest.raises(NMPruneError, match="groups of width"):
                assign_blocks(np.arange(8)[None], m, 1)


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
        w = rng.standard_normal((12, 8))
        scores = rri(w)
        rows = plan_groups(group_sums(w, 4), 4, 1)
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
        np.testing.assert_array_equal(order_rows(group_sums(w, 4)), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(plan_groups(group_sums(w, 2), 2, 1)[:, 0],
                                      [[0, 1], [0, 1], [1, 0], [1, 0]])

    def test_every_row_in_exactly_one_block_per_group(self):
        rng = np.random.default_rng(9)
        sums = helpers.group_sums(rng.uniform(size=(10, 12)), 4)
        rows = plan_groups(sums, 4, 2)
        assert rows.shape == (3, 2, 4)
        for g, order in enumerate(order_rows(sums)):
            assert sorted(order.tolist()) == list(range(10))
            np.testing.assert_array_equal(rows[g].ravel(), order[:8])

    def test_clamped_plan_warns_once_per_group(self):
        rng = np.random.default_rng(5)
        with pytest.warns(UserWarning, match="clamping") as caught:
            rows = plan_groups(helpers.group_sums(rng.uniform(size=(6, 16)), 4), 4, 3)
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
        sums = helpers.group_sums(scores, m)
        for count in range(f_out + 2):
            np.testing.assert_array_equal(order_rows(sums, count), want[:, :count])
        np.testing.assert_array_equal(order_rows(sums), want)

        full = f_out // m
        effective = min(b, full)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = plan_groups(sums, m, b)
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
        sums = helpers.group_sums(scores, m)
        shared = order_rows(sums, big)
        assert shared.shape == (groups, min(big, f_out))
        for k in range(big + 1):  # big may exceed f_out
            np.testing.assert_array_equal(order_rows(sums, k), shared[:, :k])
            np.testing.assert_array_equal(shared[:, :k], oracle[:, :k])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8).map(lambda h: 2 * h), st.integers(1, 24),
           st.integers(1, 3), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_sliced_blocks_match_plan_groups(self, seed, m, f_out, groups, max_b):
        rng = np.random.default_rng(seed)
        sums = helpers.group_sums(rng.integers(0, 3, size=(f_out, groups * m)), m)
        shared = order_rows(sums, max_b * m)
        for b in range(max_b + 1):  # b above f_out // m is clamped, with its warnings
            got, got_warnings = helpers.outcome(assign_blocks, shared[:, : b * m], m, b)
            want, want_warnings = helpers.outcome(plan_groups, sums, m, b)
            np.testing.assert_array_equal(got, want)
            assert got.shape == want.shape and got_warnings == want_warnings


class TestChunkedOrder:
    """order_rows merges a block of rows at a time, _TOPK_CHUNK // groups rows
    per block; the order must not depend on where the blocks split."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8).map(lambda h: 2 * h), st.integers(1, 24),
           st.integers(1, 7), st.integers(0, 30), st.sampled_from(["float", "integer"]),
           st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_chunks_match_the_oracle_and_one_chunk(self, seed, m, f_out, groups, count, kind,
                                                   per_chunk):
        rng = np.random.default_rng(seed)
        shape = (f_out, groups * m)
        if kind == "float":
            scores = rng.uniform(size=shape)
        else:  # integer sums tie often
            scores = rng.integers(0, 3, size=shape).astype(float)
        sums = helpers.group_sums(scores, m)
        whole = order_rows(sums, count)  # the default chunk holds every row here
        want = helpers.order_rows_oracle(scores, m)[:, :count]  # count may exceed f_out
        # one row per block, then per_chunk rows, which leaves a partial
        # tail whenever per_chunk does not divide the row count
        for chunk in (groups, per_chunk * groups + groups - 1):
            with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
                got = order_rows(sums, count)
            assert got.dtype == np.int64 and got.tobytes() == whole.tobytes()
            np.testing.assert_array_equal(got, want)
