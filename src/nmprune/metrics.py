"""Per-weight importance scores and channel-level aggregation.

Scores come from one row-block kernel that widens |W| to float64 a block
of rows at a time, so the pipeline holds no full-size float64 scores; ria
takes a first pass that keeps only the row and column sums of |W|. An
all-zero row or column sum divides as 1, so a dead channel scores exactly
0. The public score functions join those blocks into float64 matrices of
the input's shape, so their bits do not depend on its memory order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NMPruneError

DEFAULT_ALPHA = 0.5
# float64 values per kernel row block and importance_select chunk: 2 MiB
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


def check_weights(w) -> np.ndarray:
    """Validate a dense weight matrix, without widening it."""
    arr = np.asarray(w)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise NMPruneError("weights must be a 2-D matrix with at least one row and column")
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


def abs_blocks(w):
    """|W| in float64, row block by row block: yields (rows, block), views of
    one buffer of at most _TOPK_CHUNK values, with a spare row for add_rows."""
    arr = check_weights(w)
    f_out, f_in = arr.shape
    # numpy sums a single column pairwise, as one run, so it stays one block
    step = f_out if f_in == 1 else min(max(_TOPK_CHUNK // f_in, 1), f_out)
    buf = np.empty((step + 1, f_in))
    for start in range(0, f_out, step):
        rows = slice(start, min(start + step, f_out))
        a = buf[1 : 1 + rows.stop - start]
        yield rows, np.abs(arr[rows], out=a, dtype=np.float64)


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
    (row sums of |W|, column sums of |W|, norms**alpha), the sums as divisors."""
    row_sums, col_sums = [], None
    for _, a in abs_blocks(w):
        row_sums.append(a.sum(axis=1))
        col_sums = add_rows(col_sums, a)
    _check_norms_length(act, col_sums.shape[0])
    if act.alpha < 0 and np.any(act.norms == 0.0):
        raise NMPruneError("zero activation norm cannot be raised to a negative alpha")
    return _divisors(np.concatenate(row_sums)), _divisors(col_sums), act.norms**act.alpha


def ria_cells(a, sums, rows, cols):
    """(ria, rri) of the |W| cells that ``a`` holds in float64 at (rows, cols),
    from the matrix's layer_sums; ria replaces |W| in a's buffer."""
    row_sums, col_sums, scale = sums
    rri = a / row_sums[rows]
    # IEEE addition commutes, so adding in place equals row + column term
    np.divide(a, col_sums[cols], out=a)
    a += rri
    a *= scale[cols]
    return a, rri


def ria_blocks(w, sums):
    """ria and rri of ``w`` row block by row block, from its layer_sums:
    yields (rows, ria, rri), ria in the abs_blocks buffer."""
    for rows, a in abs_blocks(w):
        yield rows, *ria_cells(a, sums, np.s_[rows, None], np.s_[:])


def ria_channel_scores(w, act: ActivationNorms) -> np.ndarray:
    """channel_scores(ria(w, act)), bit for bit, with no ria matrix held."""
    total = None
    for _, scores, _ in ria_blocks(w, layer_sums(w, act)):
        total = add_rows(total, scores)
    return total


def wanda_blocks(w, act: ActivationNorms):
    """|W| times the activation norms, as abs_blocks yields |W|."""
    for rows, a in abs_blocks(w):
        _check_norms_length(act, a.shape[1])
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
    row_sums = _divisors(np.concatenate([a.sum(axis=1) for _, a in abs_blocks(w)]))
    return _joined(w, ((rows, a / row_sums[rows, None]) for rows, a in abs_blocks(w)))


def ria(w, act: ActivationNorms) -> np.ndarray:
    """Row-relative plus column-relative magnitude, scaled by activation norms.

    score[i][j] = (|w_ij| / sum_k |w_ik| + |w_ij| / sum_k |w_kj|) * norms[j]**alpha,
    where a zero sum divides as 1.
    """
    return _joined(w, ria_blocks(w, layer_sums(w, act)))


def channel_scores(scores) -> np.ndarray:
    """Column-wise sum of a score matrix: one aggregate per input channel."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise NMPruneError("score matrix must be 2-D")
    return s.sum(axis=0)


def magnitude_score(w) -> np.ndarray:
    """Plain absolute weight values."""
    return _joined(w, abs_blocks(w))


def wanda_score(w, act: ActivationNorms) -> np.ndarray:
    """Magnitude times the channel's activation norm (norm exponent fixed at 1)."""
    return _joined(w, wanda_blocks(w, act))
