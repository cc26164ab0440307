"""Per-weight importance scores and channel-level aggregation.

All score functions are pure, accumulate denominators in float64, and
return float64 matrices of the same shape as the input weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NMPruneError, ZeroColumnError, ZeroRowError

DEFAULT_ALPHA = 0.5


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
    """Validate a dense weight matrix and widen it to float64."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise NMPruneError("weights must be a 2-D matrix with at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise NMPruneError("weights must be finite")
    return arr


def _check_norms_length(act: ActivationNorms, f_in: int) -> None:
    if len(act) != f_in:
        raise NMPruneError(f"activation norms length {len(act)} != input channels {f_in}")


def _abs_weights(w) -> np.ndarray:
    """|W| widened to float64 in a buffer of its own, validated like check_weights."""
    arr = check_weights(w)
    # check_weights copies unless w already is a float64 array; take abs in
    # place only in such a copy
    return np.abs(arr, out=arr if arr is not w and arr.base is None else None)


def _row_sums(a) -> np.ndarray:
    row_sums = a.sum(axis=1)
    zero = np.flatnonzero(row_sums == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]))
    return row_sums


def rri(w) -> np.ndarray:
    """Weight magnitudes normalized by their row's absolute sum.

    Every row of the result sums to 1. Raises ZeroRowError for a row
    whose absolute sum is zero.
    """
    a = _abs_weights(w)
    return np.divide(a, _row_sums(a)[:, None], out=a)


def ria_and_rri(w, act: ActivationNorms) -> tuple[np.ndarray, np.ndarray]:
    """ria and rri of one matrix from one widened |W|.

    rri is ria's row-relative term, so both share the same row sums. Each
    equals what ria(w, act) and rri(w) return, bit for bit.
    """
    a = _abs_weights(w)
    _check_norms_length(act, a.shape[1])
    row_sums = _row_sums(a)
    col_sums = a.sum(axis=0)
    zero = np.flatnonzero(col_sums == 0.0)
    if zero.size:
        raise ZeroColumnError(int(zero[0]))
    if act.alpha < 0 and np.any(act.norms == 0.0):
        raise NMPruneError("zero activation norm cannot be raised to a negative alpha")
    row_rel = a / row_sums[:, None]
    # |W| / col_sums in |W|'s buffer, then the sum in place; IEEE addition
    # commutes, so this equals row_rel + col_rel
    scores = np.divide(a, col_sums[None, :], out=a)
    scores += row_rel
    scores *= act.norms**act.alpha
    return scores, row_rel


def ria(w, act: ActivationNorms) -> np.ndarray:
    """Row-relative plus column-relative magnitude, scaled by activation norms.

    score[i][j] = (|w_ij| / sum_k |w_ik| + |w_ij| / sum_k |w_kj|) * norms[j]**alpha
    """
    return ria_and_rri(w, act)[0]


def channel_scores(scores) -> np.ndarray:
    """Column-wise sum of a score matrix: one aggregate per input channel."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise NMPruneError("score matrix must be 2-D")
    return s.sum(axis=0)


def magnitude_score(w) -> np.ndarray:
    """Plain absolute weight values."""
    return _abs_weights(w)


def wanda_score(w, act: ActivationNorms) -> np.ndarray:
    """Magnitude times the channel's activation norm (norm exponent fixed at 1)."""
    a = _abs_weights(w)
    _check_norms_length(act, a.shape[1])
    a *= act.norms
    return a
