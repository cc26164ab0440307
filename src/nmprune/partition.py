"""Pruning-group layout: per-group row order and connectivity rows.

A pruning group is a run of m adjacent columns. The plan is one integer
array: for every group, the rows of its connectivity blocks. Rows are
ordered virtually for block assignment; masks are always written back at
original row positions.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NMPruneError
from .metrics import BlockSource, row_blocks, tiled_blocks

_BAD_SUMS = "group sums must be 2-D and finite, in row blocks that tile their shape"


def order_rows(sums, count: int | None = None) -> np.ndarray:
    """Per pruning group, row indices sorted ascending by the row's score sum
    over the group; ties keep the lower row index. ``sums`` holds those
    finite sums, shape (rows, groups): an array, or a BlockSource of its row
    blocks, such as masks.ria_select makes as it scores, read and checked in
    order only if a row is asked for. Each group keeps only the first ``count``
    rows of its order (all by default) as the blocks come: shape (groups, min(count, rows)).
    """
    if not isinstance(sums, BlockSource):
        sums = np.asarray(sums, dtype=np.float64)
        if sums.ndim != 2:
            raise NMPruneError(_BAD_SUMS)
    f_out, groups = sums.shape
    count = f_out if count is None else min(max(count, 0), f_out)
    # +inf stands for a row not seen yet; made first, below the pass's buffers
    kept = np.full((groups, count), np.inf), np.empty((groups, count), dtype=np.int64)
    for rows, block in tiled_blocks(sums, _BAD_SUMS) if count else ():
        if not np.isfinite(block).all():
            raise NMPruneError(_BAD_SUMS)
        _merge(*kept, block, rows.start, count)
    return kept[1]


def _merge(sums, rows, block, start: int, count: int) -> None:
    """Merge a block of rows from ``start`` into each group's ``count`` lowest
    (sum, row) pairs of the rows before it, kept in that order in place."""
    below = block < sums[:, -1]  # an equal sum loses to the kept row, which is lower
    hits = below.sum(axis=0)
    hit_groups = np.flatnonzero(hits)
    width = count + hits.max(initial=0)
    for part in row_blocks(len(hit_groups), 64 * width):  # candidates of 2^12 pairs or fewer
        g = hit_groups[part]
        line, r = np.divmod(np.flatnonzero(below.T[g]), len(block))  # rows in order per group
        # a group's candidates: its kept pairs, then its hits, then +inf
        cand = np.full((len(g), width), np.inf)
        cand_rows = np.empty(cand.shape, dtype=np.int64)
        cand[:, :count], cand_rows[:, :count] = sums[g], rows[g]
        slots = np.arange(width - count) < hits[g, None]
        cand[:, count:][slots], cand_rows[:, count:][slots] = block[r, g[line]], start + r
        # they stand in (sum, row) order but for their sums, so a stable sort finishes it
        order = np.argsort(cand, axis=1, kind="stable")[:, :count]
        sums[g] = np.take_along_axis(cand, order, axis=1)
        rows[g] = np.take_along_axis(cand_rows, order, axis=1)


def assign_blocks(order, m: int, b: int) -> np.ndarray:
    """Connectivity rows of every group, shape (groups, b_eff, m), int64.

    Each group's ordered rows are chunked into blocks of m; the first
    b_eff = min(b, rows // m) full blocks, i.e. those holding the
    lowest-scoring rows, get the connectivity strategy. Every other row,
    including a trailing partial chunk, keeps importance selection. b
    beyond the available full blocks is clamped with a warning per group.
    """
    if m < 1:
        raise NMPruneError(f"rows cannot be split into groups of width {m}")
    order = np.asarray(order, dtype=np.int64)
    groups, n_rows = order.shape
    full = n_rows // m
    if b > full:
        for _ in range(groups):
            warnings.warn(
                f"connectivity block count {b} exceeds {full} full blocks; clamping",
                stacklevel=2,
            )
    effective = min(max(b, 0), full)
    return order[:, : effective * m].reshape(groups, effective, m)


def plan_groups(sums, m: int, b: int) -> np.ndarray:
    """Connectivity rows per pruning group, shape (groups, b_eff, m), from
    the (rows, groups) group sums that order_rows takes, an array or a
    BlockSource of row blocks.

    Ordering is computed independently per group, so a row may sit in a
    connectivity block in one group and an importance block in another.
    """
    return assign_blocks(order_rows(sums, max(b, 0) * m), m, b)
