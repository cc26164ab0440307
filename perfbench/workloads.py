"""The benchmark's workloads: inputs, warm-up, one timed job, and checks.

Every command is an argv list for ``nmprune.cli.main``. All workloads use
2:4 sparsity. A job is the same list of commands on every repeat, so each
run attempts whole rounds of the same operations. The warm-up runs the
job's commands once on a small layer of the same profile: it pays for lazy
imports and first calls without spending a full-size job on it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import checks

N, M = 2, 4
NM = ["--n", str(N), "--m", str(M)]
POOL = 2  # expand-20 cycles through this many seeded mask pairs


def gen(out, dims, profile, seed, k=None) -> list[str]:
    argv = ["gen", "--out", str(out), "--dims", dims, "--profile", profile, "--seed", str(seed)]
    return argv + (["--k", str(k)] if k is not None else [])


def prune(src, out, method, b=None) -> list[str]:
    argv = ["prune", "--in", str(src), "--out", str(out), "--method", method, *NM]
    return argv + (["--b", str(b)] if b is not None else [])


def verify(src, b, c=None) -> list[str]:
    return ["verify", "--in", str(src), *NM, "--b", str(b)] + (["--c", c] if c else [])


def outputs(argv) -> list[str]:
    """Files a command writes, hashed after each job for the determinism check."""
    if argv[0] == "prune":
        out = argv[argv.index("--out") + 1]
        permutes = argv[argv.index("--method") + 1] in ("ria", "eggs")
        return [out, out + ".perm.json"] if permutes else [out]
    if argv[0] == "eval" and "--csv" in argv:
        return [argv[argv.index("--csv") + 1]]
    return []


class Workload:
    """A workload names its inputs and its job; subclasses add the checks."""

    name = ""
    why = ""

    def __init__(self, work: Path):
        self.work = work

    def path(self, name) -> Path:
        return self.work / name

    def setup(self, seed) -> list[list[str]]:
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        raise NotImplementedError

    def job(self, index) -> list[list[str]]:
        raise NotImplementedError

    def input_key(self, index) -> int:
        """Jobs with equal keys run on the same input and must agree byte for byte."""
        return 0

    def check(self, last: dict[int, list[dict]]) -> dict[tuple[int, int], list[str]]:
        """Errors per (input key, op slot), from the last job on each input."""
        raise NotImplementedError


class Eggs4096(Workload):
    name = "eggs-4096"
    why = ("the paper's method at 4096x4096: partition and connectivity blocks dominate, "
           "largest bundles")
    DIMS, B = "4096x4096", 2

    def setup(self, seed):
        return [gen(self.path("layer.t"), self.DIMS, "gaussian", seed)]

    def warmup(self):
        return [gen(self.path("warm.t"), "64x64", "gaussian", 0),
                *self._job(self.path("warm.t"), self.path("warm-eggs.t"))]

    def _job(self, src, out):
        return [prune(src, out, "eggs", self.B), verify(out, self.B)]

    def job(self, index):
        return self._job(self.path("layer.t"), self.path("eggs.t"))

    def check(self, last):
        w = checks.read_bundle(self.path("layer.t"))["W"]
        out = checks.read_bundle(self.path("eggs.t"))
        forward = checks.read_forward(f"{self.path('eggs.t')}.perm.json")
        found = _entries(out, {"mask", "W_pruned", "W_perm", "mask_unpermuted"})
        if found:
            return {(0, 0): found, (0, 1): ["no mask to compare with"]}
        mask = out["mask"]
        f_out, f_in = mask.shape
        c = checks.c_default(f_out, f_in, N, M, self.B)
        return {
            (0, 0): checks.window_counts(mask, N, M)
            + checks.column_floor(mask, min(self.B, f_out // M))
            + checks.pruned_weights(out, out["W_perm"])
            + checks.sidecar(out, w, forward),
            (0, 1): checks.verify_report(last[0][1]["stdout"], mask, c),
        }


class Scored4096(Workload):
    name = "scored-4096"
    why = "ria, wanda and magnitude at 4096x4096: scoring, top-k and bundle I/O without partition"
    DIMS = "4096x4096"
    METHODS = ("ria", "wanda", "magnitude")

    def setup(self, seed):
        return [gen(self.path("layer.t"), self.DIMS, "heavy-tail", seed)]

    def warmup(self):
        return [gen(self.path("warm.t"), "64x64", "heavy-tail", 0),
                *self._job(self.path("warm.t"), "warm-")]

    def _job(self, src, prefix):
        ops = []
        for method in self.METHODS:
            out = self.path(f"{prefix}{method}.t")
            ops += [prune(src, out, method), verify(out, 0)]
        return ops

    def job(self, index):
        return self._job(self.path("layer.t"), "")

    def check(self, last):
        layer = checks.read_bundle(self.path("layer.t"))
        w, norms = layer["W"], checks.norms_from_z(layer["Z"])
        errors = {}
        for slot, method in enumerate(self.METHODS):
            out = checks.read_bundle(self.path(f"{method}.t"))
            errors[(0, 2 * slot)] = self._check_prune(method, out, w, norms)
            stdout = last[0][2 * slot + 1]["stdout"]
            errors[(0, 2 * slot + 1)] = (checks.verify_report(stdout, out["mask"], None)
                                         if "mask" in out else ["bundle holds no mask"])
        return errors

    def _check_prune(self, method, out, w, norms) -> list[str]:
        permuted = method == "ria"
        names = {"mask", "W_pruned"} | ({"W_perm", "mask_unpermuted"} if permuted else set())
        found = _entries(out, names)
        if found:
            return found
        mask = out["mask"]
        if permuted:
            forward = checks.read_forward(f"{self.path('ria.t')}.perm.json")
            found = checks.sidecar(out, w, forward)
            if found:
                return found
            layout = out["W_perm"]
            scores = checks.ria(layout, norms[forward])
        else:
            layout = w
            scores = checks.wanda(w, norms) if method == "wanda" else checks.magnitude(w)
        return (checks.window_counts(mask, N, M) + checks.pruned_weights(out, layout)
                + checks.topk(scores, mask, N, M))


class Expand20(Workload):
    name = "expand-20"
    why = ("exact two-sided expansion of 20x20 and 22x20 eggs masks: brute-force "
           "enumeration is the job")
    B = 2
    SHAPES = (("20x20", "1/2"), ("22x20", "1/3"))

    def setup(self, seed):
        cmds = []
        for p in range(POOL):
            for s, (dims, _) in enumerate(self.SHAPES):
                layer, out = self.path(f"pool{p}-{s}.t"), self.path(f"pool{p}-{s}-eggs.t")
                cmds += [gen(layer, dims, "gaussian", (seed * POOL + p) * 2 + s),
                         prune(layer, out, "eggs", self.B)]
        return cmds

    def warmup(self):
        return [gen(self.path("warm.t"), "12x12", "gaussian", 0),
                prune(self.path("warm.t"), self.path("warm-eggs.t"), "eggs", self.B),
                verify(self.path("warm-eggs.t"), self.B, "1/2")]

    def job(self, index):
        p = index % POOL
        return [verify(self.path(f"pool{p}-{s}-eggs.t"), self.B, c)
                for s, (_, c) in enumerate(self.SHAPES)]

    def input_key(self, index):
        return index % POOL

    def check(self, last):
        errors = {}
        for p, ops in last.items():
            for s, (_, c) in enumerate(self.SHAPES):
                mask = checks.read_bundle(self.path(f"pool{p}-{s}-eggs.t"))["mask"]
                found = checks.window_counts(mask, N, M) + checks.column_floor(
                    mask, min(self.B, mask.shape[0] // M))
                errors[(p, s)] = found + checks.verify_report(ops[s]["stdout"], mask, Fraction(c))
        return errors


class Eval1024(Workload):
    name = "eval-1024"
    why = ("eval of four methods plus sweep 0..4 on a 1024x1024 dead-columns layer: "
           "harness and CLI loops")
    DIMS, K, B = "1024x1024", 16, 2

    def setup(self, seed):
        return [gen(self.path("layer.t"), self.DIMS, "dead-columns", seed, self.K)]

    def warmup(self):
        return [gen(self.path("warm.t"), "64x64", "dead-columns", 0, 2),
                *self._job(self.path("warm.t"), self.path("warm.csv"))]

    def _job(self, src, csv):
        return [["eval", "--in", str(src), "--methods", "magnitude,wanda,ria,eggs", *NM,
                 "--b", str(self.B), "--csv", str(csv)],
                ["sweep", "--in", str(src), "--b-range", "0..4", *NM]]

    def job(self, index):
        return self._job(self.path("layer.t"), self.path("eval.csv"))

    def check(self, last):
        layer = checks.read_bundle(self.path("layer.t"))
        w, z = layer["W"], layer["Z"]
        try:
            rows = json.loads(last[0][0]["stdout"])
        except ValueError:
            return {(0, 0): ["eval printed no JSON"], (0, 1): ["no eval rows to compare"]}
        csv = self.path("eval.csv").read_text(encoding="utf-8")
        return {
            (0, 0): checks.eval_rows(rows, w, z, N, M) + checks.eval_csv(csv, rows),
            (0, 1): checks.sweep_rows(last[0][1]["stdout"], rows, w.shape[0], M),
        }


def _entries(bundle, names) -> list[str]:
    if set(bundle) != names:
        return [f"bundle holds {sorted(bundle)}, expected {sorted(names)}"]
    return []


WORKLOADS = {cls.name: cls for cls in (Eggs4096, Scored4096, Expand20, Eval1024)}
