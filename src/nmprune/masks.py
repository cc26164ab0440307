"""Binary N:M mask construction.

Two selection strategies are combined: per-window top-k retention driven by
a score matrix, and a connectivity-preserving diagonal pattern applied to
square blocks so every input and output channel keeps at least one edge.
All tie-breaks are positional (lower column, then lower row) so masks are
bit-identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NMPruneError, VerificationError
from .metrics import ActivationNorms, ria_and_rri
from .partition import plan_groups

# scores per chunk of windows in importance_select: 2 MiB of float64
_TOPK_CHUNK = 1 << 18


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
        if self.b < 0:
            raise ConfigError(f"B must be non-negative, got {self.b}")


def _check_nm(n, m) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ConfigError(f"N and M must be integers, got {n!r}:{m!r}")
    if not 0 < n < m:
        raise ConfigError(f"need 0 < N < M, got {n}:{m}")


def importance_select(scores, n: int, m: int) -> np.ndarray:
    """Keep the top m-n scores in every row window of width m.

    Ties retain the lower column index. Returns a uint8 mask.
    """
    _check_nm(n, m)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise NMPruneError("score matrix must be 2-D")
    rows, cols = s.shape
    if cols % m:
        raise NMPruneError(f"{cols} columns not divisible by window width {m}")
    if np.isnan(s).any():
        raise NMPruneError("scores must not be NaN")
    windows = s.reshape(-1, m)
    keep = np.empty(windows.shape, dtype=np.uint8)
    # rank[k] counts the columns of its window that beat column k. It
    # starts at k, as if every earlier column won; a later column beats an
    # earlier one only when strictly larger, which moves that point from
    # the later column's rank to the earlier one's. Windows go in chunks
    # whose (m, chunk) planes stay small and contiguous.
    rank_type = np.min_scalar_type(m - 1)
    start_rank = np.arange(m, dtype=rank_type)[:, None]
    step = max(_TOPK_CHUNK // m, 1)
    for start in range(0, windows.shape[0], step):
        planes = np.ascontiguousarray(windows[start : start + step].T)
        rank = np.repeat(start_rank, planes.shape[1], axis=1)
        for j in range(m - 1):
            later_wins = planes[j + 1 :] > planes[j]
            rank[j] += later_wins.sum(axis=0, dtype=rank_type)
            rank[j + 1 :] -= later_wins
        keep[start : start + step] = (rank < m - n).T
    return keep.reshape(rows, cols)


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


def eggs_prune(w_perm, act_perm: ActivationNorms, cfg: PruneConfig) -> np.ndarray:
    """Mask a channel-permuted matrix with mixed selection strategies.

    Scores are computed once on the full permuted matrix. Per pruning
    group, the cfg.b row blocks with the lowest aggregated row-relative
    importance get connectivity-aware selection (diagonal pattern plus
    score fill); all remaining rows keep their top m-n scores per window.
    With b = 0 this degenerates to plain score-driven pruning. Every input
    column ends with degree >= min(b, rows // m).
    """
    ria_scores, rri_scores = ria_and_rri(w_perm, act_perm)
    mask = importance_select(ria_scores, cfg.n, cfg.m)
    if cfg.b:
        rows = plan_groups(rri_scores, cfg.m, cfg.b)
        overlay_blocks(mask, w_perm, ria_scores, rows, cfg.n, cfg.m)
    return mask


def overlay_blocks(mask, w, scores, rows, n: int, m: int) -> None:
    """Give the blocks of a (groups, blocks, m) row plan connectivity
    selection on their cells of ``w`` and ``scores``, in the mask in place.
    Groups own disjoint columns and blocks disjoint rows."""
    cols = np.arange(mask.shape[1]).reshape(-1, m)
    cells = rows[..., None], cols[:, None, None, :]
    w = np.asarray(w)
    mask[cells] = connectivity_select(w[cells], scores[cells], n, m)


def apply_mask(w, mask) -> np.ndarray:
    """Elementwise product of weights and a binary mask."""
    w_arr = np.asarray(w)
    m_arr = np.asarray(mask)
    if w_arr.shape != m_arr.shape:
        raise NMPruneError(f"mask shape {m_arr.shape} does not match weights shape {w_arr.shape}")
    # the ufunc casts the mask chunk by chunk, so no full-size cast copy is made
    return np.multiply(w_arr, m_arr, dtype=w_arr.dtype, casting="unsafe")


def check_nm_pattern(mask, n: int, m: int) -> None:
    """Raise VerificationError unless every row window has exactly m-n ones."""
    _check_nm(n, m)
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise VerificationError("mask must be 2-D")
    ones = arr == 1
    if not (ones | (arr == 0)).all():
        raise VerificationError("mask entries must be 0 or 1")
    rows, cols = arr.shape
    if cols % m:
        raise VerificationError(f"{cols} columns not divisible by window width {m}")
    # integer counts are exact in any order; adding one window position at a
    # time is faster than a sum over every m-wide window
    windows = ones.reshape(rows, cols // m, m)
    counts = np.zeros(windows.shape[:2], dtype=np.min_scalar_type(m))
    for j in range(m):
        counts += windows[..., j]
    bad = np.argwhere(counts != m - n)
    if bad.size:
        i, k = (int(x) for x in bad[0])
        raise VerificationError(
            f"row {i} window {k}: {int(counts[i, k])} ones, expected {m - n}"
        )
