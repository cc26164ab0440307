"""Binary N:M mask construction.

Two selection strategies are combined: per-window top-k retention driven by
a score matrix, and a connectivity-preserving diagonal pattern applied to
square blocks so every input and output channel keeps at least one edge.
All tie-breaks are positional (lower column, then lower row) so masks are
bit-identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NMPruneError, VerificationError
from .metrics import (ActivationNorms, BlockSource, layer_sums, ria_blocks, ria_cells,
                      row_blocks, tiled_blocks, weight_blocks)
from .partition import plan_groups


@dataclass(frozen=True)
class PruneConfig:
    """N:M sparsity parameters plus the per-group connectivity block count b.

    m must be even because diagonal selection splits blocks into quadrants.
    """

    n: int
    m: int
    b: int = 1

    def __post_init__(self):
        _check_nm(self.n, self.m)
        if self.m % 2:
            raise ConfigError(f"M must be even, got {self.m}")
        if not isinstance(self.b, (int, np.integer)) or self.b < 0:
            raise ConfigError(f"B must be a non-negative integer, got {self.b!r}")


def _check_nm(n, m) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ConfigError(f"N and M must be integers, got {n!r}:{m!r}")
    if not 0 < n < m:
        raise ConfigError(f"need 0 < N < M, got {n}:{m}")


def importance_select(scores, n: int, m: int, out=None) -> np.ndarray:
    """Keep the top m-n scores in every row window of width m.

    Ties retain the lower column index. Returns a uint8 mask, written into
    ``out``, a C-contiguous uint8 array of the scores' shape, if given.
    """
    _check_nm(n, m)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise NMPruneError("score matrix must be 2-D")
    cols = s.shape[1]
    if cols % m:
        raise NMPruneError(f"{cols} columns not divisible by window width {m}")
    if s.size and np.isnan(s.max()):  # max propagates NaN, with no temporary
        raise NMPruneError("scores must not be NaN")
    windows = s.reshape(-1, m)
    keep = (np.empty(s.shape, dtype=np.uint8) if out is None else out).reshape(windows.shape)
    # rank[k] counts the columns of its window that beat column k. It
    # starts at k, as if every earlier column won; a later column beats an
    # earlier one only when strictly larger, which moves that point from
    # the later column's rank to the earlier one's, on strided views in place.
    rank_type = np.min_scalar_type(m - 1)
    start_rank = np.arange(m, dtype=rank_type)[:, None]
    # a quarter of a block's windows at a time: the rank planes stay in cache
    for chunk in row_blocks(windows.shape[0], 4 * m):
        planes = windows[chunk].T
        rank = np.repeat(start_rank, planes.shape[1], axis=1)
        later_wins = np.empty((m - 1, planes.shape[1]), dtype=bool)
        for j in range(m - 1):
            wins = np.greater(planes[j + 1 :], planes[j], out=later_wins[: m - 1 - j])
            rank[j] += wins.sum(axis=0, dtype=rank_type)
            rank[j + 1 :] -= wins
        np.less(rank, m - n, out=keep[chunk].T)
    return keep.reshape(s.shape)


def diagonal_select(block) -> np.ndarray:
    """Pick a permutation pattern of retained entries in a square block.

    The block is split into four quadrants; each quadrant contributes its
    main or anti diagonal, whichever has the larger absolute sum (ties take
    the main diagonal). The (top-left, bottom-right) picks form one pair,
    (top-right, bottom-left) the other; the pair with the larger combined
    sum is retained (ties take the first pair). The result has exactly one
    1 per row and per column. A stack of shape (..., m, m) is selected
    block by block.
    """
    b = np.asarray(block, dtype=np.float64)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise NMPruneError(f"diagonal selection needs a square block, got shape {b.shape}")
    m = b.shape[-1]
    if m < 2 or m % 2:
        raise ConfigError(f"diagonal selection needs an even block size, got {m}")
    h = m // 2
    a = np.abs(b)

    # quadrants tl, tr, bl, br by their top-left corner
    r0 = np.array([0, 0, h, h])[:, None]
    c0 = np.array([0, h, 0, h])[:, None]
    i = np.arange(h)
    main = a[..., r0 + i, c0 + i].sum(axis=-1)
    anti = a[..., r0 + i, c0 + h - 1 - i].sum(axis=-1)
    use_main = main >= anti
    best = np.where(use_main, main, anti)
    first_pair = best[..., 0] + best[..., 3] >= best[..., 1] + best[..., 2]

    # column of the retained entry in each row of each quadrant; the top rows
    # take tl or tr, the bottom rows br or bl
    picked = c0 + np.where(use_main[..., None], i, h - 1 - i)
    pair = np.where(first_pair, 0, 1)[..., None, None]
    cols = np.take_along_axis(picked, np.concatenate([pair, 3 - pair], axis=-2), axis=-2)
    cols = cols.reshape(b.shape[:-1])
    mask = np.zeros(b.shape, dtype=np.uint8)
    np.put_along_axis(mask, cols[..., None], 1, axis=-1)
    return mask


def connectivity_select(block_w, block_scores, n: int, m: int) -> np.ndarray:
    """Diagonal selection plus per-row top-(m-n-1) fill from the scores.

    The diagonal position is excluded from the fill contest, so each row
    ends with exactly m-n ones and each column keeps at least one. Stacks
    of shape (..., m, m) are selected block by block.
    """
    _check_nm(n, m)
    w = np.asarray(block_w, dtype=np.float64)
    s = np.asarray(block_scores, dtype=np.float64)
    if w.shape[-2:] != (m, m) or s.shape != w.shape:
        raise NMPruneError(f"connectivity selection needs {m}x{m} blocks, got {w.shape} and {s.shape}")
    mask = diagonal_select(w)
    if m - n - 1:
        # each block row is one window; -inf keeps the diagonal out of the top m-n-1
        fill = np.where(mask == 1, -np.inf, s).reshape(-1, m)
        mask |= importance_select(fill, n + 1, m).reshape(mask.shape)
    return mask


def select_blocks(blocks, shape, n: int, m: int) -> np.ndarray:
    """importance_select over a kernel's (rows, scores) blocks into one uint8 mask."""
    mask = np.empty(shape, dtype=np.uint8)
    for rows, scores in blocks:
        importance_select(scores, n, m, out=mask[rows])
    return mask


def ria_select(blocks, shape, sums, n: int, m: int, b=None):
    """One pass over a layer's checked (rows, block) pairs, from its layer_sums'
    (column sums, norms**alpha): the top-k ria mask, the (row sums, column sums,
    norms**alpha) that overlay_blocks takes and, unless ``b`` is None, plan_groups'
    rows at ``b``, read from the (F_out, G) rri group sums as each block makes
    its own in its spent ria buffer. Every block is scored, read or not."""
    mask, row_sums = np.empty(shape, dtype=np.uint8), np.empty(shape[0])

    def scored():
        for rows, scores, rri, block_sums in ria_blocks(blocks, sums):
            importance_select(scores, n, m, out=mask[rows])
            row_sums[rows] = block_sums
            if b is None:
                continue
            out = scores.reshape(-1)[: rri.size // m].reshape(len(rri), -1)
            # each row adds |w_ij| / r_i over a group's m cells as np.add.reduce
            # does: pairwise from M = 8 up, below left to right, as these views do faster
            if m >= 8:
                np.add.reduce(rri.reshape(len(rri), -1, m), axis=2, out=out)
            else:
                np.add(rri[:, 0::m], rri[:, 1::m], out=out)
                for j in range(2, m):
                    out += rri[:, j::m]
            yield out

    stream = scored()
    plan = None if b is None else plan_groups(
        BlockSource(np.dtype(np.float64), (shape[0], shape[1] // m), stream), m, b)
    for _ in stream:
        pass
    return mask, (row_sums, *sums), plan


def eggs_prune(w_perm, act_perm: ActivationNorms, cfg: PruneConfig) -> np.ndarray:
    """Mask a channel-permuted matrix with mixed selection strategies.

    Scores are computed row block by row block on the permuted matrix. Per
    pruning group, the cfg.b row blocks with the lowest aggregated
    row-relative importance get connectivity-aware selection (diagonal
    pattern plus score fill); all remaining rows keep their top m-n scores
    per window. With b = 0 this degenerates to plain score-driven pruning.
    Every input column ends with degree >= min(b, rows // m).
    """
    mask, sums, rows = ria_select(weight_blocks(w_perm), np.shape(w_perm),
                                  layer_sums(w_perm, act_perm)[:2], cfg.n, cfg.m, cfg.b or None)
    if cfg.b:
        overlay_blocks(mask, w_perm, sums, rows, cfg.n, cfg.m)
    return mask


def overlay_blocks(mask, w, sums, rows, n: int, m: int):
    """Give the blocks of a (groups, blocks, m) row plan connectivity
    selection on their cells of ``w``, scored by ria from ria_select's sums,
    in the mask in place. Groups own disjoint columns and blocks disjoint rows.
    Returns the cells' index and their previous (groups, blocks, m, m) values:
    ``mask[cells] = previous`` takes the overlay back."""
    cols = np.arange(mask.shape[1]).reshape(-1, m)
    cells = rows[..., None], cols[:, None, None, :]
    block_w = np.asarray(w)[cells]
    scores = ria_cells(np.abs(block_w, dtype=np.float64), sums, *cells)[0]
    selected, previous = connectivity_select(block_w, scores, n, m), mask[cells]
    mask[cells] = selected
    return cells, previous


def apply_mask(w, mask) -> np.ndarray:
    """Elementwise product of weights and a binary mask."""
    w_arr = np.asarray(w)
    m_arr = np.asarray(mask)
    if w_arr.shape != m_arr.shape:
        raise NMPruneError(f"mask shape {m_arr.shape} does not match weights shape {w_arr.shape}")
    # the ufunc casts the mask chunk by chunk, so no full-size cast copy is made
    return np.multiply(w_arr, m_arr, dtype=w_arr.dtype, casting="unsafe")


class MaskCounts(NamedTuple):
    """What count_mask finds in a 2-D mask: check_nm_pattern's verdict (None
    when it passes), each output's and input's degree, as int64 sums, and
    whether those are counts: not when an entry is NaN or infinite."""
    nm_violation: str | None
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    counted: bool = True


def _bad_window(ones, start: int, n: int, m: int) -> str | None:
    """The first window of a block of 0/1 bytes without m-n ones, named by row."""
    # integer counts are exact in any order; adding one window position
    # at a time is faster than a sum over every m-wide window
    windows = ones.reshape(len(ones), ones.shape[1] // m, m)
    counts = np.zeros(windows.shape[:2], dtype=np.min_scalar_type(m))
    for j in range(m):
        counts += windows[..., j]
    bad = counts != m - n
    if not bad.any():
        return None
    i, k = (int(x) for x in np.argwhere(bad)[0])
    return f"row {start + i} window {k}: {int(counts[i, k])} ones, expected {m - n}"


def count_mask(mask, n: int, m: int) -> MaskCounts:
    """Check and count a 2-D mask, an array or a BlockSource, in one pass over its tiled_blocks.

    The verdict is the first of: an entry other than 0 or 1 anywhere, a column
    count that m does not divide, the first window without exactly m-n ones.
    A degree sums the entries, each cast to int64, so the blocks' sums add up
    to the whole mask's; a NaN or infinite entry has no such cast.
    """
    rows, cols = mask.shape
    binary, counted, violation = True, True, None
    out_deg = np.zeros(rows, dtype=np.int64)
    in_deg = np.zeros(cols, dtype=np.int64)
    for part, block in tiled_blocks(mask, "mask row blocks do not tile the mask's shape"):
        ones = (block == 1).view(np.uint8)
        binary = binary and np.count_nonzero(block) == np.count_nonzero(ones)
        counted = counted and (binary or bool(np.isfinite(block).all()))
        with np.errstate(invalid="ignore"):  # the cast of a NaN or infinite entry
            out_deg[part] = block.sum(axis=1, dtype=np.int64)
            in_deg += block.sum(axis=0, dtype=np.int64)
        if violation is None and not cols % m:
            violation = _bad_window(ones, part.start, n, m)
    if not binary:
        violation = "mask entries must be 0 or 1"
    elif cols % m:
        violation = f"{cols} columns not divisible by window width {m}"
    return MaskCounts(violation, out_deg, in_deg, counted)


def check_nm_pattern(mask, n: int, m: int) -> None:
    """Raise VerificationError unless every row window has exactly m-n ones."""
    _check_nm(n, m)
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise VerificationError("mask must be 2-D")
    counts = count_mask(arr, n, m)
    if counts.nm_violation:
        raise VerificationError(counts.nm_violation)
