"""Desk-scale evaluation: synthetic layers, reconstruction error, and
side-by-side method comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NMPruneError
from .graphs import degree_laws
from .masks import MaskCounts, PruneConfig, overlay_blocks, ria_select, select_blocks
from .metrics import (DEFAULT_ALPHA, ActivationNorms, BlockSource, abs_blocks, layer_sums,
                      row_blocks, tiled_blocks, wanda_blocks, weight_blocks, weight_shape)
from .partition import assign_blocks
from .permute import ChannelPermutation, build_permutation, permuted_blocks

METHODS = ("magnitude", "wanda", "ria", "eggs")
_PERMUTED = ("ria", "eggs")  # the methods whose mask is in the permuted layout
PROFILES = ("gaussian", "dead-columns", "heavy-tail")
_SAMPLES = 32  # calibration samples per synthetic layer


def gen_synthetic(seed, f_out: int, f_in: int, profile: str = "gaussian", k: int = 1):
    """Deterministic synthetic layer: float32 weights plus a calibration batch.

    Profiles: "gaussian" draws everything standard normal; "dead-columns"
    additionally scales k weight columns and the matching calibration rows
    by 1e-6, so score-driven pruners are at risk of dropping those channels
    entirely; "heavy-tail" draws weights from a Student t with 2 degrees of
    freedom.
    """
    if f_out < 1 or f_in < 1:
        raise ConfigError("dimensions must be at least 1")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    if profile == "dead-columns" and not 1 <= k <= f_in - 1:
        raise ConfigError(f"dead-columns needs 1 <= k <= {f_in - 1}, got {k}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}") from exc
    start = rng.bit_generator.state
    w, best = np.empty((f_out, f_in), dtype=np.float32), -1.0
    for rows, block in _w_blocks(rng, profile, w.shape):
        if profile == "dead-columns":
            top = int(np.argmax(np.abs(block, out=block)))  # first largest, as argmax of all of W
            if block.flat[top] > best:
                best, top_col = block.flat[top], top % f_in
        else:
            w[rows] = block
        del block  # one block alive while the next is drawn
    z = rng.standard_normal((f_in, _SAMPLES))
    if profile == "dead-columns":
        # keep the globally largest weight outside the dead set so the
        # magnitude reference point is unaffected by the scaling
        candidates = np.setdiff1d(np.arange(f_in), [top_col])
        dead = rng.choice(candidates, size=k, replace=False)
        z[dead, :] *= 1e-6
        rng.bit_generator.state = start  # W again, its dead columns scaled before the cast
        for rows, block in _w_blocks(rng, profile, w.shape):
            block[:, dead] *= 1e-6
            w[rows] = block
            del block
    return w, z.astype(np.float32)


def _w_blocks(rng, profile: str, shape):
    """The profile's float64 weights as (rows, block) over row_blocks: the
    same stream, value for value, as one draw of the whole matrix."""
    for rows in row_blocks(*shape):
        size = (rows.stop - rows.start, shape[1])
        if profile == "heavy-tail":
            yield rows, rng.standard_t(df=2, size=size)
        else:
            yield rows, rng.standard_normal(size)


def norms_from_batch(z, alpha: float = DEFAULT_ALPHA) -> ActivationNorms:
    """Per-channel l2 norm over the sample axis of a calibration batch."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 2:
        raise NMPruneError("calibration batch must be channels x samples")
    return ActivationNorms(np.sqrt((arr**2).sum(axis=1)), alpha)


def reconstruction_error(w, mask, z) -> float:
    """Relative Frobenius error of the masked layer on calibration inputs.

    ||W Z - (W * mask) Z||_F / ||W Z||_F, in float64, of W as an array or a
    BlockSource. Raises NMPruneError when W, Z or a float mask is not finite or W Z is zero.
    """
    w, mask = w if isinstance(w, BlockSource) else np.asarray(w), np.asarray(mask)
    if len(w.shape) != 2 or tuple(w.shape) != mask.shape:
        raise NMPruneError(f"mask shape {mask.shape} does not match weights shape {tuple(w.shape)}")
    if mask.dtype.kind == "f" and not np.isfinite(mask).all():  # a uint8 mask pays nothing
        raise NMPruneError("mask must be finite")
    z64, denom, _ = _reference(weight_blocks(w), np.asarray(z), w.shape[1])
    return math.sqrt(_masked_sums(weight_blocks(w), mask, z64)[0]) / denom


def _masked_sums(blocks, mask, z64):
    """(||R Z||_F², sum |K|) in float64, widened a row block at a time from
    W's (rows, block) pairs, with K = W * mask and R = W - K, or R = K = W
    without a mask; z64 None means identity inputs, ||R||_F². For a 0/1 mask,
    R and K hold W's cells off and on the mask, up to the sign of a zero."""
    squares = total = 0.0
    buf = np.empty((2, 0, 0))
    for rows, block in blocks:
        # K and R in one buffer reused from block to block: a fresh pair per
        # block let glibc trim the heap and fault it back in between blocks
        if buf.shape[1] < len(block):
            buf = np.empty((2, *block.shape))
        kept, removed = buf[0, : len(block)], buf[1, : len(block)]
        if mask is None:
            kept[...] = block  # C order, so sum |W| adds as layer_sums does
            removed = kept
        else:
            np.multiply(block, mask[rows], out=kept, dtype=np.float64)
            np.subtract(block, kept, out=removed, dtype=np.float64)
        out = (removed if z64 is None else removed @ z64).ravel()
        squares += float(out.dot(out))  # np.linalg.norm's own sum of squares
        total += float(np.abs(kept, out=kept).sum())  # removed is spent by now
    return squares, total


def _reference(blocks, z, cols: int, rows=None):
    """The float64 batch, checked against W's ``cols``, rows in ``rows`` order if given, then
    ||W Z||_F and sum |W| of W's (rows, block) pairs; z None: identity inputs, ||W||_F."""
    z64 = None
    if z is not None:
        z = np.asarray(z)
        if z.ndim != 2 or z.shape[0] != cols:
            raise NMPruneError("calibration batch rows must match the weight columns")
        z64 = np.asarray(z if rows is None else z[rows], dtype=np.float64)
        if not np.isfinite(z64).all():
            raise NMPruneError("calibration batch must be finite")
    squares, total = _masked_sums(blocks, None, z64)
    if squares == 0.0:
        what = "weights are" if z is None else "reference output is"
        raise NMPruneError(f"{what} identically zero")
    return z64, math.sqrt(squares), total


def layout_blocks(weights, permuted: bool):
    """W's (rows, block) pairs, checked as read, or a permuted-layout array's, unchecked."""
    return (tiled_blocks(weights, "permuted row blocks do not tile the matrix's shape")
            if permuted else weight_blocks(weights))


@dataclass(frozen=True)
class PruneResult:
    """Mask plus the weight layout it applies to.

    For methods that permute channels, ``weights`` and ``mask`` are both in
    the permuted layout and ``permutation`` records the mapping; otherwise
    ``permutation`` is None and ``weights`` is W as given, an array or a BlockSource.
    """

    mask: np.ndarray
    weights: np.ndarray | BlockSource
    permutation: ChannelPermutation | None


@dataclass(frozen=True)
class MethodReport:
    """One method's scores on a layer."""

    method: str
    error: float
    corrupted: int
    min_in_degree: int
    retained_fraction: float
    lemma1_pass: bool | None = None


class _ScoredLayer:
    """The layer-only work of one command, each piece done at most once: W's
    column sums, the ria channel permutation, and one pass that gathers each
    of W's checked row blocks into W_perm and scores it there, from those sums
    permuted, for its ria top-k mask and one group plan of the ``max_b`` blocks
    that fit, of which every smaller B's plan is a prefix, picked from the
    blocks' group sums as they come. The error reference is kept per layout,
    sum |W| is taken by W's first or reference pass, and no float64 copy of W
    or of its scores is held. W may be a BlockSource, which every pass, mask
    or error, reads a row block at a time and never holds whole.

    The ria mask is the one mask buffer of both permuted methods: an eggs
    mask is the ria mask with its B's blocks overlaid in place, and the next
    mask() call takes the overlay back first. So a mask that mask() returns
    is valid until that layer's next mask() call.
    """

    def __init__(self, w, norms, n: int, m: int, z=None, max_b: int = 0):
        if norms is not None and not isinstance(norms, ActivationNorms):
            raise NMPruneError("norms must be ActivationNorms or None; pass a batch as z")
        self.w = w if isinstance(w, BlockSource) else np.asarray(w)
        self.shape, self.norms, self.z = weight_shape(self.w), norms, z  # the first refusal
        self.n, self.m, self.max_b, self._refs = n, m, max_b, {}
        self._overlay = None  # the ria mask's cells an eggs mask overlaid, and their values

    @cached_property
    def _sums(self):
        return layer_sums(self.w, self.norms)

    @cached_property
    def perm(self) -> ChannelPermutation:
        return build_permutation(self._sums[2], self.m)

    @property
    def w_perm(self) -> np.ndarray:
        return self._scored[0]

    @cached_property
    def _scored(self):
        # W_perm's column sums and norms**alpha: W's, permuted, bit for bit
        terms = tuple(t[self.perm.forward] for t in self._sums[:2])
        # as many blocks as fit, so the plan itself never clamps; each B takes a prefix
        b = min(self.max_b, self.shape[0] // self.m) if self.max_b else None
        w_perm = np.empty(self.shape, self.w.dtype)
        base, sums, plan = ria_select(permuted_blocks(self.w, self.perm, w_perm), self.shape,
                                      terms, self.n, self.m, b)
        return w_perm, sums, plan, base

    def mask(self, method: str, cfg: PruneConfig) -> np.ndarray:
        """The method's mask, in the permuted layout for ria and eggs; valid
        until this layer's next mask() call."""
        if self._overlay is not None:
            cells, previous = self._overlay
            self._scored[3][cells], self._overlay = previous, None
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
        if method != "magnitude" and self.norms is None:
            raise ConfigError(f"method {method!r} requires activation norms")
        cols = self.shape[1]
        if cols % self.m:  # every method's refusal, before any pass over W
            raise NMPruneError(f"{cols} columns not divisible by window width {self.m}")
        if method == "magnitude":
            return select_blocks(abs_blocks(weight_blocks(self.w)), self.shape, self.n, self.m)
        if method == "wanda":
            return select_blocks(wanda_blocks(self.w, self.norms), self.shape, self.n, self.m)
        w_perm, sums, plan, base = self._scored
        if method == "ria" or cfg.b == 0:
            return base
        rows = assign_blocks(plan.reshape(len(plan), -1), self.m, cfg.b)
        self._overlay = overlay_blocks(base, w_perm, sums, rows, self.n, self.m)
        return base

    def _reference(self, permuted: bool):
        """A layout's float64 batch (None for identity inputs) and reference norm."""
        if permuted not in self._refs:
            w, rows = (self.w_perm, self.perm.forward) if permuted else (self.w, None)
            self._refs[permuted] = _reference(layout_blocks(w, permuted), self.z, w.shape[1], rows)
        return self._refs[permuted]

    def report(self, method: str, cfg: PruneConfig) -> MethodReport:
        """One method's error, input degrees and retained magnitude."""
        mask = self.mask(method, cfg)  # refuses a bad width or method before any pass
        w, permuted = (self.w_perm, True) if method in _PERMUTED else (self.w, False)
        z64, denom, total = self._reference(permuted)
        squares, kept = _masked_sums(layout_blocks(w, permuted), mask, z64)
        in_deg = mask.sum(axis=0, dtype=np.int64)
        lemma = None if method != "eggs" else degree_laws(
            MaskCounts(None, mask.sum(axis=1, dtype=np.int64), in_deg), cfg).violation is None
        total = self._sums[3] if permuted else total  # sum |W| of W, never of W_perm
        return MethodReport(method, math.sqrt(squares) / denom, int((in_deg == 0).sum()),
                            int(in_deg.min()), kept / total, lemma)


def prune_with_method(w, acts: ActivationNorms | None, cfg: PruneConfig,
                      method: str) -> PruneResult:
    """Run one pruning method end to end, channel permutation included.

    magnitude and wanda score the original layout directly; ria and eggs
    first permute channels round-robin by aggregated channel score and
    build the mask in the permuted layout. ``w``, a 2-D array or a
    BlockSource whose blocks can be read again, is read a row block at a
    time, twice, and never permuted in place.
    """
    layer = _ScoredLayer(w, acts, cfg.n, cfg.m, max_b=cfg.b if method == "eggs" else 0)
    mask = layer.mask(method, cfg)  # refuses an unknown name, or no norms for ria and eggs
    if method in _PERMUTED:
        return PruneResult(mask, layer.w_perm, layer.perm)
    return PruneResult(mask, layer.w, None)


def compare_methods(w, norms: ActivationNorms | None, cfg: PruneConfig, methods=METHODS,
                    z=None) -> list[MethodReport]:
    """One report per method, in the caller's order, from one scored layer.

    ``norms`` may be None when no requested method needs activations. The
    error is measured on the calibration batch ``z`` (channels x samples)
    when given, else on identity inputs, i.e. on the weights themselves.
    """
    methods = list(methods)  # read once: an iterator is spent by the check
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    layer = _ScoredLayer(w, norms, cfg.n, cfg.m, z, cfg.b if "eggs" in methods else 0)
    return [layer.report(method, cfg) for method in methods]


def sweep_blocks(w, norms: ActivationNorms, n: int, m: int, bs, z=None) -> list[MethodReport]:
    """One eggs report per block count in ``bs``, equal to compare_methods'
    for that B; every B shares one scored layer and one group plan."""
    cfgs = [PruneConfig(n, m, b) for b in bs]
    layer = _ScoredLayer(w, norms, n, m, z, max((cfg.b for cfg in cfgs), default=0))
    return [layer.report("eggs", cfg) for cfg in cfgs]
