"""Independent oracles and generators shared by the test modules.

The oracles deliberately use different machinery from the library
(dict/set enumeration instead of vectorized numpy) so they can catch
implementation mistakes rather than mirror them.
"""

import itertools
import tracemalloc
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from nmprune import (METHODS, PROFILES, ActivationNorms, ConfigError, MethodReport, NMPruneError,
                     PruneConfig, apply_mask, prune_with_method, verify_degree_laws)


def random_layer(seed, f_out, f_in, alpha=0.5):
    """Gaussian weight matrix plus positive activation norms."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((f_out, f_in)).astype(np.float32)
    norms = rng.uniform(0.1, 2.0, size=f_in)
    return w, ActivationNorms(norms, alpha)


def diagonal_select_oracle(block):
    """Enumerate every quadrant-diagonal and pair choice, keep the unique
    combination consistent with the larger-sum rules (main diagonal wins a
    quadrant tie, the top-left/bottom-right pair wins a pair tie)."""
    b = np.abs(np.asarray(block, dtype=np.float64))
    m = b.shape[0]
    h = m // 2
    offsets = {"tl": (0, 0), "tr": (0, h), "bl": (h, 0), "br": (h, h)}

    def cells(key, which):
        r0, c0 = offsets[key]
        if which == "main":
            return [(r0 + i, c0 + i) for i in range(h)]
        return [(r0 + i, c0 + h - 1 - i) for i in range(h)]

    def dsum(key, which):
        return sum(b[r, c] for r, c in cells(key, which))

    def quadrant_ok(key, which):
        other = "anti" if which == "main" else "main"
        s, o = dsum(key, which), dsum(key, other)
        return s > o or (s == o and which == "main")

    survivors = []
    for tl, tr, bl, br in itertools.product(("main", "anti"), repeat=4):
        choice = {"tl": tl, "tr": tr, "bl": bl, "br": br}
        if not all(quadrant_ok(k, v) for k, v in choice.items()):
            continue
        pair_a = dsum("tl", tl) + dsum("br", br)
        pair_b = dsum("tr", tr) + dsum("bl", bl)
        for pair in ("a", "b"):
            if pair == "a":
                ok = pair_a > pair_b or pair_a == pair_b
            else:
                ok = pair_b > pair_a
            if ok:
                survivors.append((choice, pair))
    assert len(survivors) == 1, f"rule selected {len(survivors)} combinations"

    choice, pair = survivors[0]
    mask = np.zeros((m, m), dtype=np.uint8)
    keys = ("tl", "br") if pair == "a" else ("tr", "bl")
    for key in keys:
        for r, c in cells(key, choice[key]):
            mask[r, c] = 1
    return mask


def expansion_oracle(mask, c):
    """Set-based enumeration of neighborhood/size ratios on both sides.

    Returns (a_in, a_out) as Fractions, or None for a side whose admissible
    subset size bound is below 1.
    """
    arr = np.asarray(mask)
    f_out, f_in = arr.shape
    frac = Fraction(c)
    in_neigh = {j: {i for i in range(f_out) if arr[i, j]} for j in range(f_in)}
    out_neigh = {i: {j for j in range(f_in) if arr[i, j]} for i in range(f_out)}

    def side_min(neigh, n, bound):
        max_size = int(frac * n) if bound is None else bound
        best = None
        for k in range(1, max_size + 1):
            for subset in itertools.combinations(range(n), k):
                gamma = set()
                for v in subset:
                    gamma |= neigh[v]
                ratio = Fraction(len(gamma), k)
                if best is None or ratio < best:
                    best = ratio
        return best

    return side_min(in_neigh, f_in, None), side_min(out_neigh, f_out, None)


def count_mask_oracle(mask, n, m):
    """masks.count_mask from whole-matrix expressions: (check_nm_pattern's
    message or None, output degrees, input degrees), each degree the int64 sum
    of a row's or column's entries, as verify summed the whole mask."""
    mask = np.asarray(mask)
    rows, cols = mask.shape
    degrees = mask.sum(axis=1, dtype=np.int64), mask.sum(axis=0, dtype=np.int64)
    ones = mask == 1
    if not (ones | (mask == 0)).all():
        return "mask entries must be 0 or 1", *degrees
    if cols % m:
        return f"{cols} columns not divisible by window width {m}", *degrees
    counts = ones.reshape(rows, cols // m, m).sum(axis=2)
    bad = np.argwhere(counts != m - n)
    if not bad.size:
        return None, *degrees
    i, k = bad[0]
    return f"row {i} window {k}: {counts[i, k]} ones, expected {m - n}", *degrees


def top_k_per_window_oracle(scores, n, m):
    """Plain-Python per-window top-(m-n) selection with lower-column ties."""
    s = np.asarray(scores, dtype=np.float64)
    rows, cols = s.shape
    mask = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for start in range(0, cols, m):
            window = [(float(-s[i, start + j]), j) for j in range(m)]
            for _, j in sorted(window)[: m - n]:
                mask[i, start + j] = 1
    return mask


def divisors_oracle(sums):
    """Row or column sums to divide by, each zero sum replaced by 1."""
    return np.array([1.0 if x == 0 else x for x in sums])


def ria_rri_oracle(w, act):
    """ria and rri as plain whole-matrix expressions, with no buffer reuse.

    Checks the layer first and raises what the library raises, in the same
    order: non-finite weights, the norms length, a zero norm under a
    negative alpha. An all-zero row or column sum divides as 1, so the
    cells of a dead line score 0.
    """
    a = np.abs(np.asarray(w, dtype=np.float64))
    if not np.isfinite(a).all():
        raise NMPruneError("weights must be finite")
    if len(act) != a.shape[1]:
        raise NMPruneError(f"activation norms length {len(act)} != input channels {a.shape[1]}")
    if act.alpha < 0 and (act.norms == 0).any():
        raise NMPruneError("zero activation norm cannot be raised to a negative alpha")
    row_sums = divisors_oracle(a.sum(axis=1))
    col_sums = divisors_oracle(a.sum(axis=0))
    scale = act.norms**act.alpha
    return (a / row_sums[:, None] + a / col_sums[None, :]) * scale[None, :], a / row_sums[:, None]


def ria_channel_scores_oracle(w, act):
    """Each column's ria summed over its rows, in closed form: norms**alpha
    times (the column's rri sum, as one whole-matrix sum(axis=0), plus 1 for
    a column that is not all zero). Refuses what ria_rri_oracle refuses."""
    rri = ria_rri_oracle(w, act)[1]
    col_sums = np.abs(np.asarray(w, dtype=np.float64)).sum(axis=0)
    return act.norms**act.alpha * (rri.sum(axis=0) + (col_sums != 0))


def group_sums(scores, m):
    """Each row's score sum over every group of m columns, as one
    whole-matrix reduction: shape (rows, groups), one line per row."""
    s = np.asarray(scores, dtype=np.float64)
    return s.reshape(s.shape[0], -1, m).sum(axis=2)


def order_rows_oracle(scores, m):
    """One full stable argsort per group of the rows' score sums over the
    group's m columns: shape (groups, rows), ties at the lower row."""
    return np.argsort(group_sums(scores, m).T, axis=1, kind="stable")


def connectivity_select_oracle(block_w, block_scores, n, m):
    """Enumerated diagonal pattern, then per row the m-n-1 highest scores
    among the other columns, lower column first on ties."""
    mask = diagonal_select_oracle(block_w)
    s = np.asarray(block_scores, dtype=np.float64)
    for r in range(m):
        free = sorted((-float(s[r, c]), c) for c in range(m) if not mask[r, c])
        for _, c in free[: m - n - 1]:
            mask[r, c] = 1
    return mask


class Block(NamedTuple):
    row_indices: tuple
    connectivity: bool


def eggs_prune_oracle(w_perm, act_perm, cfg):
    """Group by group, block by block: order the rows of each group of m
    columns by their rri sum (stable), chunk them into blocks of m, and give
    the first min(b, rows // m) full blocks the connectivity pattern. Warns
    once per group when b is clamped, like the library, and refuses what
    ria_rri_oracle refuses and NaN scores."""
    w = np.asarray(w_perm, dtype=np.float64)
    ria_scores, rri_scores = ria_rri_oracle(w, act_perm)
    if np.isnan(ria_scores).any():
        raise NMPruneError("scores must not be NaN")
    mask = top_k_per_window_oracle(ria_scores, cfg.n, cfg.m)
    if cfg.b == 0:
        return mask
    n_rows, n_cols = w.shape
    m = cfg.m
    full = n_rows // m
    for start in range(0, n_cols, m):
        cols = list(range(start, start + m))
        sums = rri_scores[:, start : start + m].sum(axis=1)
        order = sorted(range(n_rows), key=lambda r: (sums[r], r))
        if cfg.b > full:
            warnings.warn(f"connectivity block count {cfg.b} exceeds {full} full blocks; "
                          "clamping", stacklevel=2)
        blocks = [Block(tuple(order[i : i + m]), i // m < min(cfg.b, full) and i + m <= n_rows)
                  for i in range(0, n_rows, m)]
        for block in blocks:
            if block.connectivity:
                rows = list(block.row_indices)
                sub = connectivity_select_oracle(w[np.ix_(rows, cols)],
                                                 ria_scores[np.ix_(rows, cols)], cfg.n, m)
                mask[np.ix_(rows, cols)] = sub
    return mask


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raised, plus the
    category and text of every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # an error is an outcome to compare too
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def traced_peak(fn, *args):
    """fn(*args)'s result and the call's tracemalloc peak in bytes; memory
    allocated before the call is not counted."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compare_methods_oracle(w, norms, cfg, methods=METHODS, z=None):
    """compare_methods as a plain loop: every method is pruned from scratch
    by prune_with_method and scored with whole-matrix float64 expressions."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    w_arr = np.asarray(w)
    abs_total = float(np.abs(np.asarray(w_arr, dtype=np.float64)).sum())
    reports = []
    for method in methods:
        res = prune_with_method(w_arr, norms, cfg, method)
        if z is None:
            w64 = np.asarray(res.weights, dtype=np.float64)
            denom = float(np.linalg.norm(w64))
            if denom == 0.0:
                raise NMPruneError("weights are identically zero")
            error = float(np.linalg.norm(w64 - w64 * res.mask) / denom)
        else:
            # the library checks the batch's shape before it reorders the rows
            if np.ndim(z) != 2 or np.shape(z)[0] != w_arr.shape[1]:
                raise NMPruneError("calibration batch rows must match the weight columns")
            z_m = z if res.permutation is None else z[res.permutation.forward, :]
            error = reconstruction_error_oracle(res.weights, res.mask, z_m)
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


def sweep_oracle(w, norms, n, m, bs, z=None):
    """One compare_methods_oracle eggs report per block count."""
    return [compare_methods_oracle(w, norms, PruneConfig(n, m, b), ["eggs"], z)[0] for b in bs]


def reconstruction_error_oracle(w, mask, z):
    """||W Z - (W * mask) Z||_F / ||W Z||_F as whole-matrix float64 expressions."""
    w64 = np.asarray(w, dtype=np.float64)
    z64 = np.asarray(z, dtype=np.float64)
    denom = float(np.linalg.norm(w64 @ z64))
    if denom == 0.0:
        raise NMPruneError("reference output is identically zero")
    return float(np.linalg.norm((w64 - w64 * np.asarray(mask)) @ z64) / denom)


def gen_synthetic_oracle(seed, f_out, f_in, profile="gaussian", k=1):
    """gen_synthetic as one whole-matrix float64 draw of W, then of Z, with the
    dead columns picked from those and scaled before the cast."""
    if f_out < 1 or f_in < 1:
        raise ConfigError("dimensions must be at least 1")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    if profile == "dead-columns" and not 1 <= k <= f_in - 1:
        raise ConfigError(f"dead-columns needs 1 <= k <= {f_in - 1}, got {k}")
    rng = np.random.default_rng(seed)
    if profile == "heavy-tail":
        w = rng.standard_t(df=2, size=(f_out, f_in))
    else:
        w = rng.standard_normal((f_out, f_in))
    z = rng.standard_normal((f_in, 32))
    if profile == "dead-columns":
        top_col = int(np.argmax(np.abs(w)) % f_in)
        dead = rng.choice(np.setdiff1d(np.arange(f_in), [top_col]), size=k, replace=False)
        w[:, dead] *= 1e-6
        z[dead, :] *= 1e-6
    return w.astype(np.float32), z.astype(np.float32)
