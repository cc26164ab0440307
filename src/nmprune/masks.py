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

from .errors import ConfigError, ShapeError, VerificationError
from .metrics import ActivationNorms, check_weights, ria, rri
from .partition import Strategy, plan_groups


@dataclass(frozen=True)
class PruneConfig:
    """N:M sparsity parameters plus the per-group connectivity block count b.

    m must be even because diagonal selection splits blocks into quadrants.
    """

    n: int
    m: int
    b: int = 1
    alpha: float = 0.5

    def __post_init__(self):
        _check_nm(self.n, self.m)
        if self.m % 2:
            raise ConfigError(f"M must be even, got {self.m}")
        if self.b < 0:
            raise ConfigError(f"B must be non-negative, got {self.b}")
        if not np.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")


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
        raise ShapeError("score matrix must be 2-D")
    rows, cols = s.shape
    if cols % m:
        raise ShapeError(f"{cols} columns not divisible by window width {m}")
    windows = s.reshape(rows, cols // m, m)
    keep = np.argsort(-windows, axis=2, kind="stable")[:, :, : m - n]
    mask = np.zeros(windows.shape, dtype=np.uint8)
    np.put_along_axis(mask, keep, 1, axis=2)
    return mask.reshape(rows, cols)


def diagonal_select(block) -> np.ndarray:
    """Pick a permutation pattern of retained entries in a square block.

    The block is split into four quadrants; each quadrant contributes its
    main or anti diagonal, whichever has the larger absolute sum (ties take
    the main diagonal). The (top-left, bottom-right) picks form one pair,
    (top-right, bottom-left) the other; the pair with the larger combined
    sum is retained (ties take the first pair). The result has exactly one
    1 per row and per column.
    """
    b = np.asarray(block, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ShapeError(f"diagonal selection needs a square block, got shape {b.shape}")
    m = b.shape[0]
    if m < 2 or m % 2:
        raise ConfigError(f"diagonal selection needs an even block size, got {m}")
    h = m // 2
    a = np.abs(b)

    picks = {}
    for key, (r0, c0) in (("tl", (0, 0)), ("tr", (0, h)), ("bl", (h, 0)), ("br", (h, h))):
        quad = a[r0 : r0 + h, c0 : c0 + h]
        main = float(np.trace(quad))
        anti = float(np.trace(quad[:, ::-1]))
        use_main = main >= anti
        picks[key] = (r0, c0, use_main, main if use_main else anti)

    if picks["tl"][3] + picks["br"][3] >= picks["tr"][3] + picks["bl"][3]:
        chosen = ("tl", "br")
    else:
        chosen = ("tr", "bl")

    mask = np.zeros((m, m), dtype=np.uint8)
    for key in chosen:
        r0, c0, use_main, _ = picks[key]
        rows = np.arange(h) + r0
        cols = (np.arange(h) if use_main else np.arange(h)[::-1]) + c0
        mask[rows, cols] = 1
    return mask


def connectivity_select(block_w, block_scores, n: int, m: int) -> np.ndarray:
    """Diagonal selection plus per-row top-(m-n-1) fill from the scores.

    The diagonal position is excluded from the fill contest, so each row
    ends with exactly m-n ones and each column keeps at least one.
    """
    _check_nm(n, m)
    w = np.asarray(block_w, dtype=np.float64)
    s = np.asarray(block_scores, dtype=np.float64)
    if w.shape != (m, m) or s.shape != (m, m):
        raise ShapeError(f"connectivity selection needs {m}x{m} blocks, got {w.shape} and {s.shape}")
    mask = diagonal_select(w)
    extra = m - n - 1
    if extra:
        fill = s.copy()
        fill[mask == 1] = -np.inf
        keep = np.argsort(-fill, axis=1, kind="stable")[:, :extra]
        np.put_along_axis(mask, keep, 1, axis=1)
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
    w = check_weights(w_perm)
    ria_scores = ria(w, act_perm)
    mask = importance_select(ria_scores, cfg.n, cfg.m)
    if cfg.b == 0:
        return mask
    rri_scores = rri(w)
    for plan in plan_groups(rri_scores, cfg.m, cfg.b):
        cols = np.arange(plan.col_start, plan.col_stop)
        for block in plan.blocks:
            if block.strategy is Strategy.CONNECTIVITY:
                rows = np.asarray(block.row_indices)
                sub = connectivity_select(
                    w[np.ix_(rows, cols)], ria_scores[np.ix_(rows, cols)], cfg.n, cfg.m
                )
                mask[np.ix_(rows, cols)] = sub
    return mask


def apply_mask(w, mask) -> np.ndarray:
    """Elementwise product of weights and a binary mask."""
    w_arr = np.asarray(w)
    m_arr = np.asarray(mask)
    if w_arr.shape != m_arr.shape:
        raise ShapeError(f"mask shape {m_arr.shape} does not match weights shape {w_arr.shape}")
    return w_arr * m_arr.astype(w_arr.dtype)


def check_nm_pattern(mask, n: int, m: int) -> None:
    """Raise VerificationError unless every row window has exactly m-n ones."""
    _check_nm(n, m)
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise VerificationError("mask must be 2-D")
    if not np.isin(arr, (0, 1)).all():
        raise VerificationError("mask entries must be 0 or 1")
    rows, cols = arr.shape
    if cols % m:
        raise ShapeError(f"{cols} columns not divisible by window width {m}")
    counts = arr.reshape(rows, cols // m, m).astype(np.int64).sum(axis=2)
    bad = np.argwhere(counts != m - n)
    if bad.size:
        i, k = (int(x) for x in bad[0])
        raise VerificationError(
            f"row {i} window {k}: {int(counts[i, k])} ones, expected {m - n}"
        )
