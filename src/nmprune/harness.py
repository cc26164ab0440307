"""Desk-scale evaluation: synthetic layers, reconstruction error, and
side-by-side method comparison."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NMPruneError
from .graphs import verify_degree_laws
from .masks import PruneConfig, eggs_prune, overlay_blocks, ria_select, select_blocks
from .metrics import (DEFAULT_ALPHA, ActivationNorms, abs_blocks, ria_channel_scores,
                      wanda_blocks)
from .partition import assign_blocks, order_rows
from .permute import ChannelPermutation, apply_to_columns, build_permutation

METHODS = ("magnitude", "wanda", "ria", "eggs")
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
    if profile == "heavy-tail":
        w = rng.standard_t(df=2, size=(f_out, f_in))
    else:
        w = rng.standard_normal((f_out, f_in))
    z = rng.standard_normal((f_in, _SAMPLES))
    if profile == "dead-columns":
        # keep the globally largest weight outside the dead set so the
        # magnitude reference point is unaffected by the scaling
        top_col = int(np.argmax(np.abs(w)) % f_in)
        candidates = np.setdiff1d(np.arange(f_in), [top_col])
        dead = rng.choice(candidates, size=k, replace=False)
        w[:, dead] *= 1e-6
        z[dead, :] *= 1e-6
    return w.astype(np.float32), z.astype(np.float32)


def norms_from_batch(z, alpha: float = DEFAULT_ALPHA) -> ActivationNorms:
    """Per-channel l2 norm over the sample axis of a calibration batch."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 2:
        raise NMPruneError("calibration batch must be channels x samples")
    return ActivationNorms(np.sqrt((arr**2).sum(axis=1)), alpha)


def reconstruction_error(w, mask, z) -> float:
    """Relative Frobenius error of the masked layer on calibration inputs.

    ||W Z - (W * mask) Z||_F / ||W Z||_F, computed in float64. Raises
    NMPruneError when the reference output is identically zero.
    """
    w_arr = np.asarray(w, dtype=np.float64)
    m_arr = np.asarray(mask)
    z_arr = np.asarray(z, dtype=np.float64)
    if w_arr.ndim != 2 or w_arr.shape != m_arr.shape:
        raise NMPruneError(f"mask shape {m_arr.shape} does not match weights shape {w_arr.shape}")
    z_arr, denom = _reference(w_arr, z_arr)
    removed = (w_arr - w_arr * m_arr) @ z_arr
    return float(np.linalg.norm(removed) / denom)


def _reference(w64, z, rows=None):
    """The checked float64 batch, rows in ``rows`` order if given, and ||W Z||_F;
    z None means identity inputs: no batch and ||W||_F."""
    z64, ref = None, w64
    if z is not None:
        z = np.asarray(z)
        if z.ndim != 2 or z.shape[0] != w64.shape[1]:
            raise NMPruneError("calibration batch rows must match the weight columns")
        z64 = np.asarray(z if rows is None else z[rows], dtype=np.float64)
        ref = w64 @ z64
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        what = "weights are" if z is None else "reference output is"
        raise NMPruneError(f"{what} identically zero")
    return z64, denom


@dataclass(frozen=True)
class PruneResult:
    """Mask plus the weight layout it applies to.

    For methods that permute channels, ``weights`` and ``mask`` are both in
    the permuted layout and ``permutation`` records the mapping; otherwise
    ``permutation`` is None.
    """

    mask: np.ndarray
    weights: np.ndarray
    permutation: ChannelPermutation | None


@dataclass(frozen=True)
class MethodReport:
    """One method's scores on a layer. ``to_dict`` and the CSV summary leave
    out ``min_in_degree``."""

    method: str
    error: float
    corrupted: int
    min_in_degree: int
    retained_fraction: float
    lemma1_pass: bool | None = None

    def to_dict(self) -> dict:
        doc = {
            "method": self.method,
            "error": self.error,
            "corrupted": self.corrupted,
            "retained_fraction": self.retained_fraction,
        }
        if self.lemma1_pass is not None:
            doc["lemma1_pass"] = self.lemma1_pass
        return doc


class _ScoredLayer:
    """The layer-only work of one command, each piece done at most once: the
    ria channel permutation, the permuted layer's ria sums with its top-k
    mask and, from the same row-block pass, the rri row order for ``max_b``
    blocks, of which every smaller B's order is a prefix. The error
    reference is kept per layout, and no float64 copy of W or of its scores
    is held.
    """

    def __init__(self, w, norms, n: int, m: int, z=None, max_b: int = 0):
        if norms is not None and not isinstance(norms, ActivationNorms):
            raise NMPruneError("norms must be ActivationNorms or None; pass a batch as z")
        self.w, self.norms, self.z = np.asarray(w), norms, z
        self.n, self.m, self.max_b, self._refs = n, m, max_b, {}

    @cached_property
    def perm(self) -> ChannelPermutation:
        return build_permutation(ria_channel_scores(self.w, self.norms), self.m)

    @cached_property
    def w_perm(self) -> np.ndarray:
        return apply_to_columns(self.w, self.perm)

    @cached_property
    def norms_perm(self) -> ActivationNorms:
        return ActivationNorms(self.norms.norms[self.perm.forward], self.norms.alpha)

    @cached_property
    def _scored(self):
        base, sums, group_sums = ria_select(self.w_perm, self.norms_perm, self.n, self.m,
                                            bool(self.max_b))
        order = order_rows(group_sums, self.max_b * self.m) if self.max_b else None
        return sums, order, base

    def mask(self, method: str, cfg: PruneConfig) -> np.ndarray:
        """The method's mask, in the permuted layout for ria and eggs."""
        if method == "magnitude":
            return select_blocks(abs_blocks(self.w), self.w.shape, self.n, self.m)
        if self.norms is None:
            raise ConfigError(f"method {method!r} requires activation norms")
        if method == "wanda":
            return select_blocks(wanda_blocks(self.w, self.norms), self.w.shape, self.n, self.m)
        sums, order, base = self._scored
        if method == "ria" or cfg.b == 0:
            return base
        mask = base.copy()
        rows = assign_blocks(order, self.m, cfg.b)
        overlay_blocks(mask, self.w_perm, sums, rows, self.n, self.m)
        return mask

    def _reference(self, permuted: bool):
        """A layout's float64 batch (None for identity inputs) and reference norm."""
        if permuted not in self._refs:
            w64 = np.asarray(self.w_perm if permuted else self.w, dtype=np.float64)
            rows = self.perm.forward if permuted else None
            self._refs[permuted] = _reference(w64, self.z, rows)
        return self._refs[permuted]

    @cached_property
    def _abs_total(self) -> float:
        a = np.array(self.w, dtype=np.float64)
        return float(np.abs(a, out=a).sum())

    def report(self, method: str, cfg: PruneConfig) -> MethodReport:
        """One method's error, input degrees and retained magnitude."""
        abs_total = self._abs_total  # before the first mask: its float64 copy meets no scores
        mask = self.mask(method, cfg)
        weights = self.w_perm if method in ("ria", "eggs") else self.w
        z64, denom = self._reference(method in ("ria", "eggs"))
        # for a 0/1 mask these equal W - W*mask and W*mask up to the sign of
        # a zero, which neither a norm nor an absolute sum sees
        removed = np.where(mask == 1, 0, weights).astype(np.float64, copy=False)
        error = float(np.linalg.norm(removed if z64 is None else removed @ z64) / denom)
        del removed
        kept = np.where(mask == 1, weights, 0).astype(np.float64, copy=False)
        retained = float(np.abs(kept, out=kept).sum() / abs_total)
        in_deg = mask.sum(axis=0)
        lemma = verify_degree_laws(mask, cfg).violation is None if method == "eggs" else None
        return MethodReport(method, error, int((in_deg == 0).sum()), int(in_deg.min()),
                            retained, lemma)


def prune_with_method(w, acts: ActivationNorms | None, cfg: PruneConfig,
                      method: str) -> PruneResult:
    """Run one pruning method end to end, channel permutation included.

    magnitude and wanda score the original layout directly; ria and eggs
    first permute channels round-robin by aggregated channel score and
    build the mask in the permuted layout.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    layer = _ScoredLayer(w, acts, cfg.n, cfg.m)
    del w  # the layer holds W's last reference here; ria and eggs drop it
    if method in ("magnitude", "wanda") or acts is None:  # without norms, mask() refuses
        return PruneResult(layer.mask(method, cfg), layer.w, None)
    w_perm, norms_perm = layer.w_perm, layer.norms_perm  # built from W, dead from here on
    layer.w = None
    mask = eggs_prune(w_perm, norms_perm, cfg) if method == "eggs" else layer.mask(method, cfg)
    return PruneResult(mask, w_perm, layer.perm)


def compare_methods(w, norms: ActivationNorms | None, cfg: PruneConfig, methods=METHODS,
                    z=None) -> list[MethodReport]:
    """One report per method, in the caller's order, from one scored layer.

    ``norms`` may be None when no requested method needs activations. The
    error is measured on the calibration batch ``z`` (channels x samples)
    when given, else on identity inputs, i.e. on the weights themselves.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    layer = _ScoredLayer(w, norms, cfg.n, cfg.m, z, cfg.b if "eggs" in methods else 0)
    return [layer.report(method, cfg) for method in methods]


def sweep_blocks(w, norms: ActivationNorms, n: int, m: int, bs, z=None) -> list[MethodReport]:
    """One eggs report per block count in ``bs``, equal to compare_methods'
    for that B; every B shares one scored layer and one row order."""
    cfgs = [PruneConfig(n, m, b) for b in bs]
    layer = _ScoredLayer(w, norms, n, m, z, max((cfg.b for cfg in cfgs), default=0))
    return [layer.report("eggs", cfg) for cfg in cfgs]


def reports_to_json(reports) -> str:
    """Deterministic JSON array of method reports."""
    return json.dumps([r.to_dict() for r in reports])


def reports_to_csv(reports) -> str:
    """Summary rows: method, error, corrupted, lemma1_pass."""
    lines = ["method,error,corrupted,lemma1_pass"]
    for r in reports:
        lemma = "" if r.lemma1_pass is None else str(r.lemma1_pass).lower()
        lines.append(f"{r.method},{r.error!r},{r.corrupted},{lemma}")
    return "\n".join(lines) + "\n"
