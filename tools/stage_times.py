#!/usr/bin/env python3
"""Median wall times and minor page faults of prune_with_method and of its
stages, single-thread BLAS.

Usage (from the repository root):

    python3 tools/stage_times.py --dims 4096x4096 --out stages.json

The layer is ``gen_synthetic(3, R, C)`` (gaussian) with the norms of its
calibration batch, pruned 2:4 with B=2. Each of ``--repeats`` rounds (7 by
default) calls ``prune_with_method`` once for eggs and once for ria. For
the run, every function in STAGES is wrapped under each name it has in
nmprune's modules, and the wall time and the minor page faults
(``ru_minflt`` of this process) of each of its calls are booked to its
stage. Stages nest: ria_select is the one pass that gathers W_perm and
scores it, importance_select (the top-k) runs inside it, and for eggs so
do plan_groups and order_rows, which read the group sums as the pass makes
them. A stage that reads a BlockSource argument is not booked the time and
faults its blocks take to make, so plan_groups and order_rows book the
selection alone. A stage this checkout does not have is left out. The
output JSON maps each method to the median milliseconds and the median
minor faults of the whole call and of each stage it called. BLAS is held
to one thread before numpy loads. numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# module -> stage functions
STAGES = {
    "metrics": ("layer_sums",),
    "permute": ("build_permutation",),
    "masks": ("ria_select", "importance_select", "overlay_blocks"),
    "partition": ("plan_groups", "order_rows"),
}
METHODS = ("eggs", "ria")


def usage() -> tuple[float, int]:
    """This process's wall clock and minor page faults so far."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def unbooked_blocks(blocks, reads: list):
    """The blocks of ``blocks``, in order, the seconds and faults each next()
    takes added to ``reads``."""
    blocks = iter(blocks)
    while True:
        start = usage()
        try:
            block = next(blocks)
        except StopIteration:
            return
        finally:
            reads[:] = [r + now - then for r, now, then in zip(reads, usage(), start)]
        yield block


def wrap_stages(booked: dict) -> None:
    """Wrap each STAGES function under every name nmprune's modules hold it by;
    each call adds its (seconds, minor faults) to ``booked[stage]``, less what
    its BlockSource arguments' blocks take to make. nmprune must be loaded."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "nmprune" or name.startswith("nmprune.")}
    block_source = modules["nmprune.metrics"].BlockSource
    for module, names in STAGES.items():
        for stage in names:
            fn = getattr(modules[f"nmprune.{module}"], stage, None)
            if fn is None:
                continue

            def timed(*args, _fn=fn, _stage=stage, **kwargs):
                reads = [0.0, 0]
                args = [arg._replace(blocks=unbooked_blocks(arg.blocks, reads))
                        if isinstance(arg, block_source) else arg for arg in args]
                start = usage()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    spent = [now - then - r for now, then, r in zip(usage(), start, reads)]
                    booked[_stage] = [b + x for b, x in zip(booked.get(_stage, (0.0, 0)), spent)]

            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, timed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", required=True, metavar="RxC", help="layer shape, as for gen")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    parser.add_argument("--repeats", type=int, default=7, help="rounds per method")
    args = parser.parse_args(argv)
    rows, cols = (int(x) for x in args.dims.lower().split("x"))

    from nmprune import PruneConfig, gen_synthetic, norms_from_batch, prune_with_method

    booked: dict[str, list] = {}
    wrap_stages(booked)
    w, z = gen_synthetic(3, rows, cols)
    norms, cfg = norms_from_batch(z), PruneConfig(2, 4, 2)
    samples = {method: {} for method in METHODS}
    for _ in range(args.repeats):
        for method in METHODS:
            booked.clear()
            start = usage()
            prune_with_method(w, norms, cfg, method)
            booked["prune_with_method"] = [now - then for now, then in zip(usage(), start)]
            for stage, spent in booked.items():
                samples[method].setdefault(stage, []).append(spent)
    doc = {
        "dims": f"{rows}x{cols}",
        "layer": "gen_synthetic seed 3, gaussian; 2:4, B=2",
        "repeats": args.repeats,
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                   f"Python {platform.python_version()}",
        "unit": "ms",
        "median": {method: {stage: round(1000 * statistics.median(s for s, _ in spent), 2)
                            for stage, spent in stages.items()}
                   for method, stages in samples.items()},
        "minflt": {method: {stage: statistics.median(f for _, f in spent)
                            for stage, spent in stages.items()}
                   for method, stages in samples.items()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
