"""Benchmark of the nmprune CLI, driven in-process on generated layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload eggs-4096 --seed 1 --seconds 25 --trace 0

Worker processes run nmprune with BLAS pinned to one thread (see
worker.py): five set-up runs in turn, whose median time is ``setup_s``,
then one process for the warm-up and the timed jobs. This process then
checks every output against values it computes itself (checks.py),
compares repeated jobs byte for byte, and prints one JSON object as the
last line of stdout. With ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run. Exit code 0 on a completed run, 1 if the run could not be
completed, 2 on bad arguments or a checkout without the program's source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_REPEATS = 5
MIN_COVERAGE = 0.98  # share of traced job time the spans' self times must account for
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

os.environ.update(PINNED)  # before numpy is imported, here and in the worker

import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_worker(mode, args, result_path: Path, deadline: float) -> dict:
    """Run worker.py in one mode to its end and return the JSON it wrote."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(ROOT), args.workload,
           str(args.seed), repr(args.seconds), str(args.trace), repr(t0), str(result_path)]
    # the worker's own prints go to stderr, so stdout ends with the result line
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"run went past {DEADLINE_S:.0f} s; the {mode} worker was stopped")
    if code != 0:
        raise RuntimeError(f"{mode} worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def signature(op) -> tuple:
    return op["stdout"], tuple(op["hashes"])


def failed_ops(workload, jobs) -> tuple[list[list[str]], list[str]]:
    """Errors per operation, and errors that no single operation explains.

    The last job on each input is checked; an earlier job inherits that
    verdict when its stdout and output files are byte-identical to it and
    fails as non-deterministic otherwise.
    """
    last = {}
    for job in jobs:
        last[job["key"]] = job["ops"]
    try:
        verdicts = workload.check(last)
        run_errors = []
    except Exception:
        run_errors = [f"check crashed: {traceback.format_exc(limit=3)}"]
        verdicts = {}
    errors = []
    for job in jobs:
        for slot, op in enumerate(job["ops"]):
            found = []
            if op["rc"] != 0:
                found.append(f"exit code {op['rc']}: {op['stderr'][-300:]}")
            if signature(op) != signature(last[job["key"]][slot]):
                found.append("output differs from a repeat of the same job")
            elif run_errors:
                found.append("not checked")
            else:
                found += verdicts.get((job["key"], slot), ["no check for this operation"])
            errors.append(found)
    return errors, run_errors


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nmprune" / "cli.py").is_file():
        print(f"no nmprune source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker("setup", args, work / f"setup{i}.json", deadline)
                  for i in range(SETUP_REPEATS)]
        result = run_worker("jobs", args, work / "jobs.json", deadline)
        workload = workloads.WORKLOADS[args.workload](work)
        jobs = result["jobs"]
        errors, run_errors = failed_ops(workload, jobs)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.glob("*.t*"):
            path.unlink()

    for found in errors:
        if found:
            print(f"failed operation: {found[0]}", file=sys.stderr)
    times = [job["seconds"] for job in jobs]
    print(f"{len(times)} jobs, seconds: {' '.join(f'{t:.3f}' for t in times)}", file=sys.stderr)
    correct = not run_errors
    if args.trace:
        trace = result["trace"]
        for name in trace["missing"]:
            print(f"warning: traced function {name} not found; it reports 0", file=sys.stderr)
        for report in [trace] + [setup["trace"] for setup in setups]:
            run_errors += report["nesting_errors"]
        coverage = trace["self_s"] / sum(times)
        if not MIN_COVERAGE <= coverage <= 1.0:
            run_errors.append(f"self times sum to {coverage:.4f} of the traced job time")
        correct = correct and not run_errors
        units = spans.metric_units()
        # set-up reports only gen_synthetic, per set-up round; jobs report the rest
        metrics = {key: metric(value + statistics.mean(s["trace"]["per_job"][key] for s in setups),
                               units[key])
                   for key, value in trace["per_job"].items()}
        print(f"traced job_p50_s={statistics.median(times):.4f} "
              f"self-time coverage={coverage:.4f}", file=sys.stderr)
    else:
        metrics = {
            "job_p50_s": metric(statistics.median(times), "s"),
            "jobs_per_s": metric(len(times) / sum(times), "1/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MiB"),
            "setup_s": metric(statistics.median(s["ready_s"] for s in setups), "s"),
        }
    for message in run_errors:
        print(f"error: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(errors),
        "failed": sum(1 for found in errors if found),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
