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
from .metrics import BlockSource, row_blocks


def order_rows(sums, count: int | None = None) -> np.ndarray:
    """Per pruning group, row indices sorted ascending by the row's score sum
    over the group; ties keep the lower row index. ``sums`` holds those
    sums, shape (groups, rows), one contiguous line per group: an array, or
    a BlockSource of blocks of groups, such as masks.group_sums', each
    sorted as it arrives and read only if a row is asked for.

    Only the first ``count`` rows of each order are sorted and returned
    (all rows by default). Returns shape (groups, min(count, rows)).
    """
    if not isinstance(sums, BlockSource):
        s = np.asarray(sums, dtype=np.float64)
        if s.ndim != 2:
            raise NMPruneError("group sums must be 2-D")
        sums = BlockSource(s.dtype, s.shape, (s[part] for part in row_blocks(*s.shape)))
    groups, f_out = sums.shape
    count = f_out if count is None else min(max(count, 0), f_out)
    order = np.empty((groups, count), dtype=np.int64)
    if not count:
        return order
    start = 0
    for chunk in sums.blocks:  # groups are independent: a block at a time
        # candidates: the rows at or below each group's count-th smallest sum.
        # A stable argsort of "above" lists them first, in row order; sorting
        # as many leading rows as the widest group has candidates is enough,
        # since any non-candidate among them sorts after every candidate
        kth = np.partition(chunk, count - 1, axis=1)[:, [count - 1]]
        above = chunk > kth
        width = f_out - int(above.sum(axis=1).min())
        rows = np.argsort(above, axis=1, kind="stable")[:, :width]
        ranked = np.argsort(np.take_along_axis(chunk, rows, axis=1), axis=1, kind="stable")
        order[start : start + len(chunk)] = np.take_along_axis(rows, ranked[:, :count], axis=1)
        start += len(chunk)
    return order


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
    the (groups, rows) group sums that order_rows takes, an array or a
    BlockSource of blocks of groups.

    Ordering is computed independently per group, so a row may sit in a
    connectivity block in one group and an importance block in another.
    """
    return assign_blocks(order_rows(sums, max(b, 0) * m), m, b)
