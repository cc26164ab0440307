"""Output checks computed apart from the program.

Nothing here imports nmprune: the bundle reader, the scores, the top-k rule,
the reconstruction error and the expansion enumeration are written again
from their definitions in the README, so a fault in the program is not
mirrored by its check. Every check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
RTOL = 1e-9
ENUM_LIMIT = 22  # verify enumerates subsets only when no side has more vertices


def read_bundle(path) -> dict[str, np.ndarray]:
    """Parse a bundle: 8-byte little-endian header length, JSON header, payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header_len = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8 : 8 + header_len])
    base = 8 + header_len
    out = {}
    for name, meta in header.items():
        dtype = DTYPES[meta["dtype"]]
        start = base + meta["offset"]
        raw = np.frombuffer(blob, dtype=dtype, count=math.prod(meta["shape"]), offset=start)
        out[name] = raw.reshape(meta["shape"])
    return out


def read_forward(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["forward"], dtype=np.int64)


def norms_from_z(z) -> np.ndarray:
    """Per-channel l2 norm of a channels x samples calibration batch."""
    z64 = np.asarray(z, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", z64, z64))


def magnitude(w) -> np.ndarray:
    return np.abs(np.asarray(w, dtype=np.float64))


def wanda(w, norms) -> np.ndarray:
    return magnitude(w) * norms[None, :]


def ria(w, norms, alpha=0.5) -> np.ndarray:
    a = magnitude(w)
    rows = a.sum(axis=1, keepdims=True)
    cols = a.sum(axis=0, keepdims=True)
    return (a / rows + a / cols) * (norms**alpha)[None, :]


def window_counts(mask, n, m) -> list[str]:
    """Every row window of width m must hold exactly m - n ones."""
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.shape[1] % m:
        return [f"mask shape {arr.shape} does not split into windows of {m}"]
    if not np.isin(arr, (0, 1)).all():
        return ["mask holds values other than 0 and 1"]
    counts = arr.reshape(arr.shape[0], -1, m).sum(axis=2, dtype=np.int64)
    bad = np.argwhere(counts != m - n)
    if bad.size:
        i, k = bad[0]
        return [f"row {i} window {k} keeps {counts[i, k]} weights, expected {m - n}"]
    return []


def column_floor(mask, floor) -> list[str]:
    """Every input column keeps at least `floor` weights and none is corrupted."""
    deg = np.asarray(mask).sum(axis=0, dtype=np.int64)
    errors = []
    if deg.min() < floor:
        j = int(np.argmin(deg))
        errors.append(f"column {j} keeps {deg[j]} weights, below the floor {floor}")
    if (deg == 0).any():
        errors.append(f"{int((deg == 0).sum())} corrupted columns")
    return errors


def same_bits(got, want, what) -> list[str]:
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return [f"{what}: {got.dtype}{got.shape} differs from {want.dtype}{want.shape}"]
    g = got.view(np.uint8).reshape(got.shape[0], -1)
    w = want.view(np.uint8).reshape(want.shape[0], -1)
    if not np.array_equal(g, w):
        row = int(np.flatnonzero((g != w).any(axis=1))[0])
        return [f"{what}: differs bit for bit, first in row {row}"]
    return []


def pruned_weights(bundle, weights) -> list[str]:
    """W_pruned must equal weights * mask in float32, bit for bit."""
    want = np.asarray(weights, dtype=np.float32) * bundle["mask"].astype(np.float32)
    return same_bits(bundle["W_pruned"], want, "W_pruned vs W * mask")


def sidecar(bundle, w, forward) -> list[str]:
    """The sidecar is a bijection that explains W_perm and mask_unpermuted."""
    f_in = w.shape[1]
    if forward.shape != (f_in,) or not np.array_equal(np.sort(forward), np.arange(f_in)):
        return ["sidecar forward is not a bijection on the input channels"]
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(f_in)
    return (
        same_bits(bundle["W_perm"], w[:, forward], "W_perm vs W[:, forward]")
        + same_bits(bundle["mask_unpermuted"], bundle["mask"][:, inverse],
                    "mask_unpermuted vs mask[:, inverse]")
    )


def topk(scores, mask, n, m, rtol=RTOL) -> list[str]:
    """Every kept entry is among its window's top m - n scores.

    A dropped score may exceed a kept one only within `rtol`, since the
    program sums in its own order; an exact tie must keep the lower column.
    """
    s = np.asarray(scores, dtype=np.float64)
    rows, cols = s.shape
    sw = s.reshape(rows, cols // m, m)
    kept = np.asarray(mask).reshape(rows, cols // m, m).astype(bool)
    kept_min = np.where(kept, sw, np.inf).min(axis=2)
    dropped_max = np.where(kept, -np.inf, sw).max(axis=2)
    beaten = dropped_max > kept_min * (1 + rtol)
    if beaten.any():
        i, k = np.argwhere(beaten)[0]
        return [f"row {i} window {k}: a dropped score beats a kept one"]
    for i, k in np.argwhere(dropped_max >= kept_min * (1 - rtol)):
        for a in np.flatnonzero(kept[i, k]):
            for b in np.flatnonzero(~kept[i, k]):
                if sw[i, k, a] == sw[i, k, b] and b < a:
                    return [f"row {i} window {k}: a tie kept the higher column"]
    return []


def c_default(f_out, f_in, n, m, b) -> Fraction | None:
    """verify's default subset fraction: half the admissible endpoint."""
    bound = min(Fraction(b, f_in), Fraction(f_in * (m - n), f_out * m))
    return bound / 2 if bound > 0 else None


def pair(value: Fraction | None):
    return None if value is None else [value.numerator, value.denominator]


def verify_report(text, mask, c) -> list[str]:
    """verify's JSON must agree with the mask's own row and column sums and,
    at desk scale, with the exact expansion ratios at subset fraction c."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"verify printed no JSON: {text[:80]!r}"]
    arr = np.asarray(mask)
    a_in, a_out = expansion(arr, c)
    want = {
        "min_in_degree": int(arr.sum(axis=0, dtype=np.int64).min()),
        "min_out_degree": int(arr.sum(axis=1, dtype=np.int64).min()),
        "a_I": pair(a_in),
        "a_O": pair(a_out),
        "c": pair(c),
        "lemma1_pass": True,
    }
    return [f"verify {key} is {doc.get(key)!r}, expected {val!r}"
            for key, val in want.items() if doc.get(key) != val]


def neighbour_bits(mask) -> tuple[list[int], list[int]]:
    """Bitmask of neighbours per input column and per output row."""
    arr = np.asarray(mask).astype(bool)
    weights = [1 << i for i in range(max(arr.shape))]
    cols = [sum(weights[o] for o in np.flatnonzero(arr[:, j])) for j in range(arr.shape[1])]
    rows = [sum(weights[i] for i in np.flatnonzero(arr[o])) for o in range(arr.shape[0])]
    return cols, rows


def min_ratio(neigh: list[int], max_size: int) -> Fraction | None:
    """min |N(S)| / |S| over subsets S with 1 <= |S| <= max_size.

    Builds the neighbourhood of every subset at once: the subsets that
    contain vertex v are those below 2^v with v added.
    """
    if max_size < 1:
        return None
    n = len(neigh)
    union = np.zeros(1 << n, dtype=np.int64)
    for v, bits in enumerate(neigh):
        union[1 << v : 2 << v] = union[: 1 << v] | bits
    size = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    reach = np.bitwise_count(union)
    best = None
    for k in range(1, max_size + 1):
        ratio = Fraction(int(reach[size == k].min()), k)
        best = ratio if best is None or ratio < best else best
    return best


def expansion(mask, c: Fraction | None) -> tuple[Fraction | None, Fraction | None]:
    """Exact (a_I, a_O) of a mask over subsets up to fraction c of each side."""
    f_out, f_in = np.asarray(mask).shape
    if c is None or max(f_out, f_in) > ENUM_LIMIT:
        return None, None
    cols, rows = neighbour_bits(mask)
    return min_ratio(cols, int(c * f_in)), min_ratio(rows, int(c * f_out))


def masked_error(w, mask, z) -> float:
    """||(W - W*mask) Z||_F / ||W Z||_F in float64."""
    w64 = np.asarray(w, dtype=np.float64)
    z64 = np.asarray(z, dtype=np.float64)
    removed = np.where(np.asarray(mask, dtype=bool), 0.0, w64)
    return float(np.linalg.norm(removed @ z64) / np.linalg.norm(w64 @ z64))


def keep_top(scores, n, m) -> np.ndarray:
    """Reference N:M mask: an entry is kept when fewer than m - n window
    entries beat it, where a beat is a larger score or an equal score at a
    lower column."""
    s = np.asarray(scores, dtype=np.float64)
    rows, cols = s.shape
    sw = s.reshape(rows, cols // m, m)
    other, me = sw[:, :, None, :], sw[:, :, :, None]
    lower = np.tri(m, k=-1, dtype=bool)[None, None]  # lower[a, b]: b < a
    beats = (other > me) | ((other == me) & lower)
    return (beats.sum(axis=3) < m - n).reshape(rows, cols).astype(np.uint8)


def close(got, want, what, rtol=RTOL) -> list[str]:
    if abs(got - want) > rtol * abs(want):
        return [f"{what}: {got!r}, expected {want!r}"]
    return []


def eval_rows(rows, w, z, n, m) -> list[str]:
    """Check eval's magnitude and wanda rows against recomputed masks, and
    its eggs row against the connectivity guarantee."""
    errors = []
    by_method = {row["method"]: row for row in rows}
    norms = norms_from_z(z)
    abs_total = float(magnitude(w).sum())
    for method, scores in (("magnitude", magnitude(w)), ("wanda", wanda(w, norms))):
        row = by_method.get(method)
        if row is None:
            errors.append(f"eval has no {method} row")
            continue
        mask = keep_top(scores, n, m)
        corrupted = int((mask.sum(axis=0) == 0).sum())
        retained = float(np.where(mask.astype(bool), magnitude(w), 0.0).sum() / abs_total)
        errors += close(row["error"], masked_error(w, mask, z), f"{method} error")
        errors += close(row["retained_fraction"], retained, f"{method} retained_fraction")
        if row["corrupted"] != corrupted:
            errors.append(f"{method} corrupted is {row['corrupted']}, expected {corrupted}")
    eggs = by_method.get("eggs", {})
    if eggs.get("corrupted") != 0 or eggs.get("lemma1_pass") is not True:
        errors.append(f"eggs row breaks the connectivity guarantee: {eggs}")
    return errors


def eval_csv(text, rows) -> list[str]:
    """The CSV summary must carry the same values as eval's JSON."""
    lines = text.splitlines()
    want = ["method,error,corrupted,lemma1_pass"]
    for row in rows:
        lemma = row.get("lemma1_pass")
        lemma = "" if lemma is None else str(lemma).lower()
        want.append(f"{row['method']},{row['error']!r},{row['corrupted']},{lemma}")
    if lines != want:
        return ["eval CSV disagrees with eval JSON"]
    return []


def sweep_rows(text, rows, f_out, m) -> list[str]:
    """Sweep rows: the floor and no corruption for B >= 1, and the two
    degeneracy anchors against eval (B=0 is ria, B=2 is eggs)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "B,error,corrupted,min_in_degree,lemma1_pass":
        return ["sweep printed no CSV header"]
    errors = []
    by_method = {row["method"]: row["error"] for row in rows}
    sweep = {}
    for line in lines[1:]:
        b, error, corrupted, min_in, lemma = line.split(",")
        b, corrupted, min_in = int(b), int(corrupted), int(min_in)
        sweep[b] = float(error)
        if min_in < min(b, f_out // m):
            errors.append(f"sweep B={b}: min in-degree {min_in} below the floor")
        if b >= 1 and corrupted:
            errors.append(f"sweep B={b}: {corrupted} corrupted columns")
        if lemma != "true":
            errors.append(f"sweep B={b}: lemma1_pass is {lemma}")
    for b, method in ((0, "ria"), (2, "eggs")):
        if sweep.get(b) != by_method.get(method):
            errors.append(f"sweep B={b} error {sweep.get(b)!r} differs from eval "
                          f"{method} error {by_method.get(method)!r}")
    return errors
