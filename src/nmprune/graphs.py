"""Bipartite-graph view of pruning masks.

A mask is the biadjacency matrix between output neurons (rows) and input
neurons (columns). This module checks the structural degree laws a
connectivity-aware mask must satisfy and, at desk scale, brute-forces the
two-sided vertex-expansion ratios as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError, ShapeError, VerificationError
from .masks import PruneConfig

# 2**22 subsets is the enumeration ceiling
ENUM_VERTEX_LIMIT = 22


@dataclass(frozen=True)
class BipartiteGraph:
    """Per-output adjacency lists over input indices."""

    n_inputs: int
    n_outputs: int
    adjacency: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DegreeLawReport:
    """Outcome of the structural degree checks plus the admissible subset
    fractions they imply for expansion on each side.

    ``violation`` says which law fails first, or is None when both hold.
    """

    min_in_degree: int
    min_out_degree: int
    out_degree: int
    input_floor: int
    c_input: Fraction
    c_output: Fraction
    c_bound: Fraction
    violation: str | None


@dataclass(frozen=True)
class ExpansionReport:
    """Worst neighborhood/size ratios over all subsets up to the size bound.

    A side with no admissible non-empty subsets reports None; the
    max_subset_* fields record how far each side was enumerated.
    """

    c: Fraction
    max_subset_inputs: int
    max_subset_outputs: int
    min_in_degree: int
    min_out_degree: int
    a_in: Fraction | None
    a_out: Fraction | None


def mask_to_graph(mask) -> BipartiteGraph:
    """Edge (output o, input i) exists iff mask[o][i] is 1."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ShapeError("mask must be 2-D")
    if not np.isin(arr, (0, 1)).all():
        raise VerificationError("mask entries must be 0 or 1")
    adjacency = tuple(tuple(int(j) for j in np.flatnonzero(row)) for row in arr)
    return BipartiteGraph(arr.shape[1], arr.shape[0], adjacency)


def verify_degree_laws(mask, cfg: PruneConfig) -> DegreeLawReport:
    """Check the exact output-degree law and the input-degree floor.

    Every output must have degree (f_in / m) * (m - n); every input must
    have degree >= min(b, f_out // m). The report's ``violation`` names the
    first offending vertex, outputs first, or a column count that m does not
    divide; it is None when both laws hold. The report also carries the
    admissible subset-fraction endpoint implied by each side.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ShapeError("mask must be 2-D")
    f_out, f_in = arr.shape
    expected_out = (f_in // cfg.m) * (cfg.m - cfg.n)
    floor = min(cfg.b, f_out // cfg.m)
    counts = arr.astype(np.int64)
    out_deg = counts.sum(axis=1)
    in_deg = counts.sum(axis=0)
    bad_out = np.flatnonzero(out_deg != expected_out)
    bad_in = np.flatnonzero(in_deg < floor)
    violation = None
    if f_in % cfg.m:
        violation = f"{f_in} columns not divisible by window width {cfg.m}"
    elif bad_out.size:
        i = int(bad_out[0])
        violation = f"output {i} has degree {int(out_deg[i])}, expected {expected_out}"
    elif bad_in.size:
        j = int(bad_in[0])
        violation = f"input {j} has degree {int(in_deg[j])}, below the guaranteed floor {floor}"
    c_input = Fraction(cfg.b, f_in)
    c_output = Fraction(f_in * (cfg.m - cfg.n), f_out * cfg.m)
    return DegreeLawReport(
        min_in_degree=int(in_deg.min()),
        min_out_degree=int(out_deg.min()),
        out_degree=expected_out,
        input_floor=floor,
        c_input=c_input,
        c_output=c_output,
        c_bound=min(c_input, c_output),
        violation=violation,
    )


def _neighbor_bitmasks(g: BipartiteGraph) -> tuple[list[int], list[int]]:
    out_masks = [0] * g.n_outputs
    in_masks = [0] * g.n_inputs
    for o, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            out_masks[o] |= 1 << j
            in_masks[j] |= 1 << o
    return in_masks, out_masks


def _min_ratio(neigh_masks, max_size) -> Fraction | None:
    best = None
    n = len(neigh_masks)
    for k in range(1, max_size + 1):
        for subset in combinations(range(n), k):
            acc = 0
            for v in subset:
                acc |= neigh_masks[v]
            ratio = Fraction(acc.bit_count(), k)
            if best is None or ratio < best:
                best = ratio
    return best


def brute_force_expansion(g: BipartiteGraph, c) -> ExpansionReport:
    """Enumerate every non-empty subset up to fraction c of each side and
    return the minimal neighborhood/size ratios as exact fractions.

    Raises CapacityError when a side that has admissible subsets exceeds
    the enumeration ceiling, and DomainError unless 0 < c < 1.
    """
    frac = Fraction(c)
    if not 0 < frac < 1:
        raise DomainError(f"subset fraction must be in (0, 1), got {c}")
    max_in = int(frac * g.n_inputs)
    max_out = int(frac * g.n_outputs)
    if max_in >= 1 and g.n_inputs > ENUM_VERTEX_LIMIT:
        raise CapacityError(f"{g.n_inputs} inputs exceed the enumeration limit {ENUM_VERTEX_LIMIT}")
    if max_out >= 1 and g.n_outputs > ENUM_VERTEX_LIMIT:
        raise CapacityError(f"{g.n_outputs} outputs exceed the enumeration limit {ENUM_VERTEX_LIMIT}")
    in_masks, out_masks = _neighbor_bitmasks(g)
    return ExpansionReport(
        c=frac,
        max_subset_inputs=max_in,
        max_subset_outputs=max_out,
        min_in_degree=min(m.bit_count() for m in in_masks) if in_masks else 0,
        min_out_degree=min(m.bit_count() for m in out_masks) if out_masks else 0,
        a_in=_min_ratio(in_masks, max_in),
        a_out=_min_ratio(out_masks, max_out),
    )
