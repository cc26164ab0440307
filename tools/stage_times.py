#!/usr/bin/env python3
"""Median wall times of prune_with_method and of its stages, single-thread BLAS.

Usage (from the repository root):

    python3 tools/stage_times.py --dims 4096x4096 --out stages.json

The layer is ``gen_synthetic(3, R, C)`` (gaussian) with the norms of its
calibration batch, pruned 2:4 with B=2. Each of ``--repeats`` rounds (7 by
default) calls ``prune_with_method`` once for eggs and once for ria. For
the run, every function in STAGES is wrapped under each name it has in
nmprune's modules, and the wall time of each of its calls is booked to its
stage. A stage that returns a BlockSource is also booked the time its
blocks take to make as they are read. Stages nest: order_rows' time is also
inside plan_groups', and group_sums' blocks are made inside order_rows. A
stage this checkout does not have is left out. The output JSON maps each method
to the median milliseconds of the whole call and of each stage it called.
BLAS is held to one thread before numpy loads. numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
    "permute": ("build_permutation", "apply_to_columns"),
    "masks": ("ria_select", "group_sums", "overlay_blocks"),
    "partition": ("plan_groups", "order_rows"),
}
METHODS = ("eggs", "ria")


def booked_blocks(blocks, booked: dict, stage: str):
    """The blocks of ``blocks``, in order, each next() booked to ``stage``."""
    blocks = iter(blocks)
    while True:
        start = time.perf_counter()
        try:
            block = next(blocks)
        except StopIteration:
            return
        finally:
            booked[stage] = booked.get(stage, 0.0) + time.perf_counter() - start
        yield block


def wrap_stages(booked: dict) -> None:
    """Wrap each STAGES function under every name nmprune's modules hold it by;
    each call adds its seconds to ``booked[stage]``. nmprune must be loaded."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "nmprune" or name.startswith("nmprune.")}
    block_source = modules["nmprune.metrics"].BlockSource
    for module, names in STAGES.items():
        for stage in names:
            fn = getattr(modules[f"nmprune.{module}"], stage, None)
            if fn is None:
                continue

            def timed(*args, _fn=fn, _stage=stage, **kwargs):
                start = time.perf_counter()
                try:
                    result = _fn(*args, **kwargs)
                finally:
                    booked[_stage] = booked.get(_stage, 0.0) + time.perf_counter() - start
                if isinstance(result, block_source):
                    return result._replace(blocks=booked_blocks(result.blocks, booked, _stage))
                return result

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

    booked: dict[str, float] = {}
    wrap_stages(booked)
    w, z = gen_synthetic(3, rows, cols)
    norms, cfg = norms_from_batch(z), PruneConfig(2, 4, 2)
    times = {method: {} for method in METHODS}
    for _ in range(args.repeats):
        for method in METHODS:
            booked.clear()
            start = time.perf_counter()
            prune_with_method(w, norms, cfg, method)
            booked["prune_with_method"] = time.perf_counter() - start
            for stage, seconds in booked.items():
                times[method].setdefault(stage, []).append(seconds)
    doc = {
        "dims": f"{rows}x{cols}",
        "layer": "gen_synthetic seed 3, gaussian; 2:4, B=2",
        "repeats": args.repeats,
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                   f"Python {platform.python_version()}",
        "unit": "ms",
        "median": {method: {stage: round(1000 * statistics.median(values), 2)
                            for stage, values in stages.items()}
                   for method, stages in times.items()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
