"""Round-robin channel permutation driven by aggregated channel scores.

Permuting columns spreads high-scoring input channels evenly across the
pruning groups so no single group hoards the important channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, NMPruneError
from .metrics import BlockSource, weight_blocks
from .tensor_store import write_atomic


@dataclass(frozen=True)
class ChannelPermutation:
    """Bijection on input-channel indices.

    forward[p] is the original column stored at permuted position p;
    inverse[j] is the permuted position of original column j.
    """

    forward: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        fwd = np.asarray(self.forward)
        if fwd.ndim != 1:
            raise NMPruneError("forward must be a 1-D vector")
        if fwd.size and fwd.dtype.kind not in "iu":
            raise NMPruneError(f"forward must hold integers, got {fwd.dtype}")
        fwd = np.asarray(fwd, dtype=np.int64)
        if not np.array_equal(np.sort(fwd), np.arange(fwd.shape[0])):
            raise NMPruneError("forward is not a bijection on channel indices")
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(fwd.shape[0])
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)

    def __len__(self) -> int:
        return self.forward.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChannelPermutation):
            return NotImplemented
        return np.array_equal(self.forward, other.forward)


def build_permutation(scores, m: int) -> ChannelPermutation:
    """Assign channels to pruning groups round-robin by descending score.

    With G = len(scores) / m groups, the channel of descending rank r lands
    in group r mod G at within-group slot r div G, so each group receives
    one channel from every band of G consecutive ranks. Score ties rank the
    lower original index first.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise NMPruneError("channel scores must be a 1-D vector")
    if not np.all(np.isfinite(s)):
        raise NMPruneError("channel scores must be finite")
    f_in = s.shape[0]
    if m < 1 or f_in < m or f_in % m:
        raise NMPruneError(f"{f_in} channels cannot form groups of width {m}")
    g = f_in // m
    ranked = np.argsort(-s, kind="stable")
    ranks = np.arange(f_in)
    forward = np.empty(f_in, dtype=np.int64)
    forward[(ranks % g) * m + ranks // g] = ranked
    return ChannelPermutation(forward)


def apply_to_columns(w, perm: ChannelPermutation) -> np.ndarray:
    """Reorder the columns of a weight matrix, a 2-D array or a BlockSource
    of one, into the permuted layout, gathered a row block at a time."""
    arr = w if isinstance(w, BlockSource) else np.asarray(w)
    if len(arr.shape) != 2 or arr.shape[1] != len(perm):
        raise NMPruneError(
            f"matrix with {arr.shape[-1] if arr.shape else 0} columns does not match "
            f"permutation of length {len(perm)}"
        )
    out = np.empty(arr.shape, arr.dtype)
    for _ in permuted_blocks(arr, perm, out):
        pass
    return out


def permuted_blocks(w, perm: ChannelPermutation, out):
    """W's checked row blocks, each gathered into ``out`` as it comes: yields (rows, out[rows])."""
    for rows, block in weight_blocks(w):
        # every index is in range; "clip" spares the buffered copy "raise" makes of out
        yield rows, np.take(block, perm.forward, axis=1, out=out[rows], mode="clip")


def unpermute_mask(mask, perm: ChannelPermutation) -> np.ndarray:
    """Map a mask built in the permuted layout back to original column order.

    The retained weight values of (weights, unpermuted mask) match those of
    (permuted weights, mask); note N:M window validity holds only in the
    permuted layout.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.shape[1] != len(perm):
        raise NMPruneError("mask columns do not match permutation length")
    return np.take(arr, perm.inverse, axis=1)


def save_permutation(perm: ChannelPermutation, path) -> None:
    """Write the permutation as a JSON sidecar: {"forward": [...]}."""
    doc = json.dumps({"forward": [int(x) for x in perm.forward]}, separators=(",", ":"))
    write_atomic(path, [doc.encode("utf-8")])


def load_permutation(path) -> ChannelPermutation:
    """Read a permutation sidecar written by save_permutation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"malformed permutation sidecar: {exc}") from exc
    if not isinstance(doc, dict) or "forward" not in doc:
        raise FormatError("permutation sidecar must be an object with a 'forward' list")
    forward = doc["forward"]
    if not isinstance(forward, list) or not all(type(x) is int for x in forward):
        raise FormatError("'forward' must be a list of integers")
    try:
        return ChannelPermutation(forward)
    except NMPruneError as exc:
        raise FormatError(str(exc)) from exc
