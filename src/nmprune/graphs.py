"""Bipartite-graph view of pruning masks.

A mask is the biadjacency matrix between output neurons (rows) and input
neurons (columns). This module checks the structural degree laws a
connectivity-aware mask must satisfy and, at desk scale, computes the exact
two-sided vertex-expansion ratios from a table of all 2^n vertex subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NMPruneError, VerificationError
from .masks import MaskCounts, PruneConfig, count_mask
from .metrics import row_blocks

# 2**22 subsets is the enumeration ceiling: a 16 MiB uint32 table per side
ENUM_VERTEX_LIMIT = 22


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """A validated mask: ``mask[o, i]`` is True iff output o is joined to
    input i; shape (n_outputs, n_inputs)."""

    n_inputs: int
    n_outputs: int
    mask: np.ndarray


@dataclass(frozen=True)
class DegreeLawReport:
    """Outcome of the structural degree checks plus ``c_bound``, the largest
    subset fraction they make admissible for expansion on both sides.

    ``violation`` says which law fails first, or is None when both hold.
    """

    min_in_degree: int | None  # None when the mask's degrees are not counts
    min_out_degree: int | None
    c_bound: Fraction
    violation: str | None


@dataclass(frozen=True)
class ExpansionReport:
    """Worst neighborhood/size ratios over all subsets up to the size bound.

    A side with no admissible non-empty subsets reports None.
    """

    a_in: Fraction | None
    a_out: Fraction | None


def mask_to_graph(mask) -> BipartiteGraph:
    """Edge (output o, input i) exists iff mask[o][i] is 1."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise NMPruneError("mask must be 2-D")
    if not ((arr == 0) | (arr == 1)).all():
        raise VerificationError("mask entries must be 0 or 1")
    return BipartiteGraph(arr.shape[1], arr.shape[0], arr == 1)


def verify_degree_laws(mask, cfg: PruneConfig) -> DegreeLawReport:
    """Check the exact output-degree law and the input-degree floor.

    Every output must have degree (f_in / m) * (m - n); every input must
    have degree >= min(b, f_out // m). ``violation`` names the first offending
    vertex, outputs first, a column count that m does not divide, or, with null
    minima, count_mask's verdict on a NaN or infinite entry; it is None when
    both laws hold. ``c_bound`` is min(b / f_in, f_in (m - n) / (f_out m)). A
    mask that is not 2-D, or has no rows or no columns, raises NMPruneError.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise NMPruneError("mask must be 2-D")
    return degree_laws(count_mask(arr.shape, (arr[r] for r in row_blocks(*arr.shape)),
                                  cfg.n, cfg.m), cfg)


def degree_laws(counts: MaskCounts, cfg: PruneConfig) -> DegreeLawReport:
    """verify_degree_laws' report from a mask's MaskCounts; count_mask's verdict if not counts."""
    out_deg, in_deg = counts.out_degrees, counts.in_degrees
    f_out, f_in = len(out_deg), len(in_deg)
    if not f_out or not f_in:
        raise NMPruneError(f"mask has no {'columns' if f_out else 'rows'} (shape {f_out}x{f_in})")
    expected_out = (f_in // cfg.m) * (cfg.m - cfg.n)
    floor = min(cfg.b, f_out // cfg.m)
    bad_out = np.flatnonzero(out_deg != expected_out)
    bad_in = np.flatnonzero(in_deg < floor)
    violation = None
    if not counts.counted:
        violation = counts.nm_violation
    elif f_in % cfg.m:
        violation = f"{f_in} columns not divisible by window width {cfg.m}"
    elif bad_out.size:
        i = int(bad_out[0])
        violation = f"output {i} has degree {int(out_deg[i])}, expected {expected_out}"
    elif bad_in.size:
        j = int(bad_in[0])
        violation = f"input {j} has degree {int(in_deg[j])}, below the guaranteed floor {floor}"
    return DegreeLawReport(
        min_in_degree=int(in_deg.min()) if counts.counted else None,
        min_out_degree=int(out_deg.min()) if counts.counted else None,
        c_bound=min(Fraction(cfg.b, f_in), Fraction(f_in * (cfg.m - cfg.n), f_out * cfg.m)),
        violation=violation,
    )


def _min_ratio(adj: np.ndarray, max_size: int) -> Fraction | None:
    """Least |N(S)|/|S| over the non-empty subsets S of adj's rows with
    |S| <= max_size, where row v of adj marks v's neighbours."""
    if max_size < 1:
        return None
    # A side is enumerated only when c*n >= 1 and n <= ENUM_VERTEX_LIMIT. A
    # larger other side n' > n then has c*n' >= 1 too and fails the limit check
    # first, so every neighbourhood fits in ENUM_VERTEX_LIMIT <= 32 bits.
    n, n_other = adj.shape
    bits = np.bitwise_or.reduce(adj.astype(np.uint32) << np.arange(n_other, dtype=np.uint32),
                                axis=1)
    # table[S] is the union of the neighbourhoods in subset S, size[S] is |S|
    table = np.zeros(1 << n, dtype=np.uint32)
    size = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        table[1 << v:2 << v] = table[:1 << v] | bits[v]
        size[1 << v:2 << v] = size[:1 << v] + 1
    reach = np.bitwise_count(table)
    return min(Fraction(int(reach[size == k].min()), k) for k in range(1, max_size + 1))


def brute_force_expansion(g: BipartiteGraph, c) -> ExpansionReport:
    """Over every non-empty subset up to fraction c of each side, return the
    minimal neighborhood/size ratios as exact fractions.

    Raises NMPruneError when a side that has admissible subsets exceeds
    the enumeration ceiling, or unless 0 < c < 1.
    """
    try:
        frac = Fraction(c)
    except (TypeError, ValueError, OverflowError):  # nan and "x" raise ValueError, inf overflows
        frac = None
    if frac is None or not 0 < frac < 1:
        raise NMPruneError(f"subset fraction must be in (0, 1), got {c}")
    max_in = int(frac * g.n_inputs)
    max_out = int(frac * g.n_outputs)
    if max_in >= 1 and g.n_inputs > ENUM_VERTEX_LIMIT:
        raise NMPruneError(f"{g.n_inputs} inputs exceed the enumeration limit {ENUM_VERTEX_LIMIT}")
    if max_out >= 1 and g.n_outputs > ENUM_VERTEX_LIMIT:
        raise NMPruneError(f"{g.n_outputs} outputs exceed the enumeration limit {ENUM_VERTEX_LIMIT}")
    return ExpansionReport(a_in=_min_ratio(g.mask.T, max_in), a_out=_min_ratio(g.mask, max_out))
