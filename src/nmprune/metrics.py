"""Per-weight importance scores and channel-level aggregation.

Scores come from one row-block kernel that widens |W| to float64 a block
of rows at a time, so the pipeline holds no full-size float64 scores; ria's
first pass keeps only the column sums of |W|, sum |W| and the channel
scores, in closed form, and each block of the second takes its own row
sums. An all-zero row or column sum divides as 1, so a dead channel scores
exactly 0. The public score functions join those blocks into float64
matrices of the input's shape, so their bits do not depend on its order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NMPruneError

DEFAULT_ALPHA = 0.5
# values per block of every chunked pass (2 MiB of float64); see row_blocks
_TOPK_CHUNK = 1 << 18


@dataclass(frozen=True)
class ActivationNorms:
    """Per-input-channel l2 norms of calibration activations.

    ``alpha`` is the exponent applied to the norms when they scale weight
    scores; 0 disables the activation term, 1 uses the raw norm.
    """

    norms: np.ndarray
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        arr = np.asarray(self.norms, dtype=np.float64)
        if arr.ndim != 1:
            raise NMPruneError("activation norms must be a 1-D vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise NMPruneError("activation norms must be finite and non-negative")
        if not np.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")
        object.__setattr__(self, "norms", arr)

    def __len__(self) -> int:
        return self.norms.shape[0]


class BlockSource(NamedTuple):
    """A matrix given as its dtype, shape and contiguous row blocks, in order."""
    dtype: np.dtype
    shape: tuple
    blocks: Iterable


def weight_shape(w) -> tuple:
    """The shape of a weight matrix, or of a BlockSource of one, refused unless
    it is 2-D with at least one row and column; a source must be readable again."""
    shape = tuple(w.shape) if isinstance(w, BlockSource) else np.shape(w)
    if len(shape) != 2 or 0 in shape:
        raise NMPruneError("weights must be a 2-D matrix with at least one row and column")
    if isinstance(w, BlockSource) and iter(w.blocks) is w.blocks:
        raise NMPruneError("weight row blocks must be readable more than once, not an iterator")
    return shape


def check_weights(w) -> np.ndarray:
    """Validate a dense weight matrix, without widening it."""
    arr = np.asarray(w)
    weight_shape(arr)
    # max and min propagate NaN; neither makes a full-size temporary
    if not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
        raise NMPruneError("weights must be finite")
    return arr


def _check_norms_length(act: ActivationNorms, f_in: int) -> None:
    if len(act) != f_in:
        raise NMPruneError(f"activation norms length {len(act)} != input channels {f_in}")


def _divisors(sums) -> np.ndarray:
    """Row or column sums of |W| with an all-zero one set to 1: each cell of
    that line is 0, so it scores exactly 0, and every other sum keeps its bits."""
    return np.where(sums == 0.0, 1.0, sums)


def row_blocks(count: int, width: int) -> list[slice]:
    """Slices that cover ``count`` lines of ``width`` values each, in order:
    at most _TOPK_CHUNK values and at least one line per block. Every chunked
    pass takes its blocks from here."""
    step = max(_TOPK_CHUNK // max(width, 1), 1)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def weight_blocks(w):
    """W's row blocks, each checked by check_weights as it comes: yields (rows,
    block). A 2-D array is sliced along row_blocks; a BlockSource is read anew
    on every call. Every pass over W, in prune, eval and sweep, goes through here."""
    f_out, f_in = weight_shape(w)
    blocks = w.blocks if isinstance(w, BlockSource) else map(
        # numpy sums a single column pairwise, as one run, so it stays one block
        np.asarray(w).__getitem__, [slice(0, f_out)] if f_in == 1 else row_blocks(f_out, f_in))
    start = 0
    for block in blocks:
        if np.shape(block)[1:] != (f_in,) or start + len(block) > f_out:
            raise NMPruneError("weight row blocks do not tile the matrix's shape")
        yield slice(start, start + len(block)), check_weights(block)
        start += len(block)
    if start != f_out:
        raise NMPruneError("weight row blocks do not tile the matrix's shape")


def abs_blocks(blocks):
    """|W| in float64 from W's checked (rows, block) pairs, as weight_blocks yields
    them: yields (rows, block), views of one buffer, with a spare row for add_rows."""
    buf = np.empty((0, 0))
    for rows, block in blocks:
        if len(buf) <= len(block):  # row_blocks' first is the largest, a BlockSource's need not be
            buf = np.empty((len(block) + 1, block.shape[1]))
        yield rows, np.abs(block, out=buf[1 : 1 + len(block)], dtype=np.float64)


def add_rows(total, block) -> np.ndarray:
    """``total`` plus the column sums of an abs_blocks block, added row after
    row like a whole-matrix sum(axis=0), from the block's spare row down."""
    if total is None:
        return block.sum(axis=0)
    stacked = block.base[: block.shape[0] + 1]
    stacked[0] = total
    return stacked.sum(axis=0)


def layer_sums(w, act: ActivationNorms):
    """The kernel's first pass: validate ``w`` and ``act`` for ria and keep only
    (column sums of |W| as divisors, s = norms**alpha, ria channel scores,
    sum |W|); W's columns permute the first two bit for bit. Column j's ria
    summed over the rows is s_j * (sum_i |w_ij| / r_i + [c_j != 0]), from row
    sums r and column sums c, so it takes each block's own row sums and no ria
    cell. sum |W| adds each block's sum in block order, as the error passes do."""
    col_sums, rri_sums, total = None, None, 0.0
    for _, a in abs_blocks(weight_blocks(w)):
        total += float(a.sum())
        col_sums = add_rows(col_sums, a)
        rri_sums = add_rows(rri_sums, np.divide(a, _divisors(a.sum(axis=1))[:, None], out=a))
    _check_norms_length(act, col_sums.shape[0])
    if act.alpha < 0 and np.any(act.norms == 0.0):
        raise NMPruneError("zero activation norm cannot be raised to a negative alpha")
    scale = act.norms**act.alpha
    return _divisors(col_sums), scale, scale * (rri_sums + (col_sums != 0.0)), total


def ria_cells(a, sums, rows, cols, rri=None):
    """(ria, rri) of the |W| cells that ``a`` holds in float64 at (rows, cols), from
    (row sums, column sums, norms**alpha); ria replaces |W| in a, rri fills ``rri`` if given."""
    row_sums, col_sums, scale = sums
    rri = np.divide(a, row_sums[rows], out=rri)
    # IEEE addition commutes, so adding in place equals row + column term
    np.divide(a, col_sums[cols], out=a)
    a += rri
    a *= scale[cols]
    return a, rri


def ria_blocks(blocks, sums):
    """ria and rri of W's checked (rows, block) pairs, from W's layer_sums' first
    two terms: yields (rows, ria, rri, row sums), ria and rri in buffers reused from
    block to block. Each block divides by its own row sums of |W|, as divisors."""
    rri = None
    for rows, a in abs_blocks(blocks):
        if rri is None or len(rri) < len(a):  # a BlockSource's first block need not be the largest
            rri = np.empty_like(a)
        row_sums = _divisors(a.sum(axis=1))
        yield rows, *ria_cells(a, (row_sums, *sums), np.s_[:, None], np.s_[:],
                               rri[: len(a)]), row_sums


def wanda_blocks(w, act: ActivationNorms):
    """|W| times the activation norms, as abs_blocks yields |W|."""
    _check_norms_length(act, weight_shape(w)[1])
    for rows, a in abs_blocks(weight_blocks(w)):
        a *= act.norms
        yield rows, a


def _joined(w, blocks) -> np.ndarray:
    """The float64 matrix of w's shape that a kernel yields as (rows, scores, ...)."""
    out = np.empty(np.shape(w))
    for rows, scores, *_ in blocks:
        out[rows] = scores
    return out


def rri(w) -> np.ndarray:
    """Weight magnitudes normalized by their row's absolute sum.

    Every row of the result sums to 1, except an all-zero row: its sum
    divides as 1, so it scores 0.
    """
    return _joined(w, ((rows, a / _divisors(a.sum(axis=1))[:, None])
                       for rows, a in abs_blocks(weight_blocks(w))))


def ria(w, act: ActivationNorms) -> np.ndarray:
    """Row-relative plus column-relative magnitude, scaled by activation norms.

    score[i][j] = (|w_ij| / sum_k |w_ik| + |w_ij| / sum_k |w_kj|) * norms[j]**alpha,
    where a zero sum divides as 1.
    """
    return _joined(w, ria_blocks(weight_blocks(w), layer_sums(w, act)[:2]))


def channel_scores(scores) -> np.ndarray:
    """Column-wise sum of a score matrix: one aggregate per input channel."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise NMPruneError("score matrix must be 2-D")
    return s.sum(axis=0)


def magnitude_score(w) -> np.ndarray:
    """Plain absolute weight values."""
    return _joined(w, abs_blocks(weight_blocks(w)))


def wanda_score(w, act: ActivationNorms) -> np.ndarray:
    """Magnitude times the channel's activation norm (norm exponent fixed at 1)."""
    return _joined(w, wanda_blocks(w, act))
