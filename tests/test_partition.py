"""Group splitting, row ordering, and block strategy assignment."""

import numpy as np
import pytest

from nmprune import (
    ShapeError,
    assign_blocks,
    order_rows,
    plan_groups,
    rri,
    split_groups,
)
from nmprune.partition import Strategy


class TestSplitGroups:
    def test_two_groups(self):
        assert split_groups(8, 4) == [(0, 4), (4, 8)]

    def test_single_group(self):
        assert split_groups(4, 4) == [(0, 4)]

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            split_groups(6, 4)

    def test_cover_and_disjoint(self):
        ranges = split_groups(24, 4)
        flat = [c for start, stop in ranges for c in range(start, stop)]
        assert flat == list(range(24))


class TestOrderRows:
    def test_ascending_by_sum(self):
        scores = np.array([[0.9], [0.1], [0.5]])
        np.testing.assert_array_equal(order_rows(scores, (0, 1)), [1, 2, 0])

    def test_ties_keep_row_index(self):
        scores = np.full((4, 2), 0.5)
        np.testing.assert_array_equal(order_rows(scores, (0, 2)), [0, 1, 2, 3])

    def test_single_row(self):
        np.testing.assert_array_equal(order_rows(np.array([[1.0, 2.0]]), (0, 2)), [0])

    def test_range_checked(self):
        with pytest.raises(ShapeError):
            order_rows(np.ones((2, 4)), (2, 6))


class TestAssignBlocks:
    def test_one_connectivity_block(self):
        blocks = assign_blocks(np.arange(8), 4, 1)
        assert [b.strategy for b in blocks] == [Strategy.CONNECTIVITY, Strategy.IMPORTANCE]
        assert blocks[0].row_indices == (0, 1, 2, 3)

    def test_b_zero_all_importance(self):
        blocks = assign_blocks(np.arange(8), 4, 0)
        assert all(b.strategy is Strategy.IMPORTANCE for b in blocks)

    def test_clamp_and_partial_tail(self):
        blocks = assign_blocks(np.arange(10), 4, 3)
        strategies = [b.strategy for b in blocks]
        assert strategies == [Strategy.CONNECTIVITY, Strategy.CONNECTIVITY, Strategy.IMPORTANCE]
        assert blocks[2].row_indices == (8, 9)

    def test_rows_partitioned(self):
        blocks = assign_blocks(np.array([3, 1, 4, 0, 2]), 2, 1)
        seen = [r for b in blocks for r in b.row_indices]
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_connectivity_blocks_always_full(self):
        blocks = assign_blocks(np.arange(6), 4, 2)
        conn = [b for b in blocks if b.strategy is Strategy.CONNECTIVITY]
        assert len(conn) == 1 and len(conn[0].row_indices) == 4


class TestPlanGroups:
    def test_connectivity_rows_have_lowest_scores(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((12, 8))
        scores = rri(w)
        for plan in plan_groups(scores, 4, 1):
            sums = scores[:, plan.col_start : plan.col_stop].sum(axis=1)
            conn = [r for b in plan.blocks if b.strategy is Strategy.CONNECTIVITY
                    for r in b.row_indices]
            imp_full = [r for b in plan.blocks
                        if b.strategy is Strategy.IMPORTANCE and len(b.row_indices) == 4
                        for r in b.row_indices]
            assert sums[conn].max() <= sums[imp_full].min()

    def test_orders_are_per_group(self):
        # a row can be low-importance in one group and high in another
        w = np.array(
            [[0.01, 0.01, 0.01, 0.01, 10.0, 10.0, 10.0, 10.0],
             [10.0, 10.0, 10.0, 10.0, 0.01, 0.01, 0.01, 0.01]]
        )
        scores = rri(w)
        plans = plan_groups(scores, 4, 0)
        np.testing.assert_array_equal(plans[0].row_order, [0, 1])
        np.testing.assert_array_equal(plans[1].row_order, [1, 0])

    def test_every_row_in_exactly_one_block_per_group(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=(10, 12))
        for plan in plan_groups(scores, 4, 2):
            rows = sorted(r for b in plan.blocks for r in b.row_indices)
            assert rows == list(range(10))
