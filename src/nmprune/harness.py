"""Desk-scale evaluation: synthetic layers, reconstruction error, and
side-by-side method comparison."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateError, ShapeError
from .graphs import verify_degree_laws
from .masks import PruneConfig, apply_mask, eggs_prune, importance_select
from .metrics import ActivationNorms, channel_scores, magnitude_score, ria, wanda_score
from .permute import ChannelPermutation, apply_to_columns, build_permutation

METHODS = ("magnitude", "wanda", "ria", "eggs")
PROFILES = ("gaussian", "dead-columns", "heavy-tail")


def gen_synthetic(seed, f_out: int, f_in: int, profile: str = "gaussian",
                  k: int = 1, samples: int = 32):
    """Deterministic synthetic layer: float32 weights plus a calibration batch.

    Profiles: "gaussian" draws everything standard normal; "dead-columns"
    additionally scales k weight columns and the matching calibration rows
    by 1e-6, so score-driven pruners are at risk of dropping those channels
    entirely; "heavy-tail" draws weights from a Student t with 2 degrees of
    freedom.
    """
    if f_out < 1 or f_in < 1 or samples < 1:
        raise ConfigError("dimensions and sample count must be at least 1")
    rng = np.random.default_rng(seed)
    if profile == "gaussian":
        w = rng.standard_normal((f_out, f_in))
        z = rng.standard_normal((f_in, samples))
    elif profile == "dead-columns":
        if not 1 <= k <= f_in - 1:
            raise ConfigError(f"dead-columns needs 1 <= k <= {f_in - 1}, got {k}")
        w = rng.standard_normal((f_out, f_in))
        z = rng.standard_normal((f_in, samples))
        # keep the globally largest weight outside the dead set so the
        # magnitude reference point is unaffected by the scaling
        top_col = int(np.argmax(np.abs(w)) % f_in)
        candidates = np.setdiff1d(np.arange(f_in), [top_col])
        dead = rng.choice(candidates, size=k, replace=False)
        w[:, dead] *= 1e-6
        z[dead, :] *= 1e-6
    elif profile == "heavy-tail":
        w = rng.standard_t(df=2, size=(f_out, f_in))
        z = rng.standard_normal((f_in, samples))
    else:
        raise ConfigError(f"unknown profile {profile!r}")
    return w.astype(np.float32), z.astype(np.float32)


def norms_from_batch(z, alpha: float = 0.5) -> ActivationNorms:
    """Per-channel l2 norm over the sample axis of a calibration batch."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("calibration batch must be channels x samples")
    return ActivationNorms(np.sqrt((arr**2).sum(axis=1)), alpha)


def reconstruction_error(w, mask, z) -> float:
    """Relative Frobenius error of the masked layer on calibration inputs.

    ||W Z - (W * mask) Z||_F / ||W Z||_F, computed in float64. Raises
    DegenerateError when the reference output is identically zero.
    """
    w_arr = np.asarray(w, dtype=np.float64)
    m_arr = np.asarray(mask)
    z_arr = np.asarray(z, dtype=np.float64)
    if w_arr.ndim != 2 or w_arr.shape != m_arr.shape:
        raise ShapeError(f"mask shape {m_arr.shape} does not match weights shape {w_arr.shape}")
    if z_arr.ndim != 2 or z_arr.shape[0] != w_arr.shape[1]:
        raise ShapeError("calibration batch rows must match the weight columns")
    ref = w_arr @ z_arr
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise DegenerateError("reference output is identically zero")
    removed = (w_arr - w_arr * m_arr) @ z_arr
    return float(np.linalg.norm(removed) / denom)


@dataclass(frozen=True)
class PruneResult:
    """Mask plus the weight layout it applies to.

    For methods that permute channels, ``weights``, ``mask`` and ``norms``
    are all in the permuted layout and ``permutation`` records the mapping;
    otherwise ``permutation`` is None.
    """

    method: str
    mask: np.ndarray
    weights: np.ndarray
    permutation: ChannelPermutation | None
    norms: ActivationNorms | None


def prune_with_method(w, acts: ActivationNorms | None, cfg: PruneConfig,
                      method: str) -> PruneResult:
    """Run one pruning method end to end, channel permutation included.

    magnitude and wanda score the original layout directly; ria and eggs
    first permute channels round-robin by aggregated channel score and
    build the mask in the permuted layout.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method == "magnitude":
        mask = importance_select(magnitude_score(w), cfg.n, cfg.m)
        return PruneResult(method, mask, np.asarray(w), None, acts)
    if acts is None:
        raise ConfigError(f"method {method!r} requires activation norms")
    if method == "wanda":
        mask = importance_select(wanda_score(w, acts), cfg.n, cfg.m)
        return PruneResult(method, mask, np.asarray(w), None, acts)
    perm = build_permutation(channel_scores(ria(w, acts)), cfg.m)
    w_perm = apply_to_columns(np.asarray(w), perm)
    acts_perm = ActivationNorms(acts.norms[perm.forward], acts.alpha)
    if method == "ria":
        mask = importance_select(ria(w_perm, acts_perm), cfg.n, cfg.m)
    else:
        mask = eggs_prune(w_perm, acts_perm, cfg)
    return PruneResult(method, mask, w_perm, perm, acts_perm)


def _masked_error(weights, mask, z) -> float:
    """Relative error on a batch, or in weight space when z is None.

    With identity inputs the batch formula reduces to
    ||W - W*mask||_F / ||W||_F, so compute that directly.
    """
    if z is not None:
        return reconstruction_error(weights, mask, z)
    w_arr = np.asarray(weights, dtype=np.float64)
    denom = float(np.linalg.norm(w_arr))
    if denom == 0.0:
        raise DegenerateError("weights are identically zero")
    removed = w_arr - w_arr * np.asarray(mask)
    return float(np.linalg.norm(removed) / denom)


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


def compare_methods(w, acts, cfg: PruneConfig, methods=METHODS) -> list[MethodReport]:
    """One report per method, in the caller's order.

    ``acts`` may be ActivationNorms, a calibration batch (channels x
    samples, from which norms are derived with cfg.alpha), or None when no
    requested method needs activations. Without a batch, reconstruction
    error is measured on identity inputs, i.e. on the weights themselves.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    w_arr = np.asarray(w)
    if isinstance(acts, ActivationNorms) or acts is None:
        norms = acts
        z_eval = None
    else:
        z = np.asarray(acts)
        norms = norms_from_batch(z, cfg.alpha)
        z_eval = z
    reports = []
    abs_total = float(np.abs(np.asarray(w_arr, dtype=np.float64)).sum())
    for method in methods:
        res = prune_with_method(w_arr, norms, cfg, method)
        if z_eval is None or res.permutation is None:
            z_m = z_eval
        else:
            z_m = z_eval[res.permutation.forward, :]
        error = _masked_error(res.weights, res.mask, z_m)
        in_deg = res.mask.sum(axis=0)
        retained = float(
            np.abs(apply_mask(np.asarray(res.weights, dtype=np.float64), res.mask)).sum()
            / abs_total
        )
        lemma = None
        if method == "eggs":
            lemma = verify_degree_laws(res.mask, cfg).violation is None
        reports.append(MethodReport(method, error, int((in_deg == 0).sum()), int(in_deg.min()),
                                    retained, lemma))
    return reports


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
