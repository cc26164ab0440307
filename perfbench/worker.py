"""A process that runs nmprune commands through ``nmprune.cli.main``.

run.py starts it with BLAS pinned to one thread and reads the JSON it
writes. It has two modes:

- ``setup``: import nmprune and generate the workload's inputs. It reports
  the time from its own start (T0, taken by run.py just before starting it)
  until the inputs are ready. run.py runs it several times and reports the
  median, so interpreter start-up is measured as often as the rest.
- ``jobs``: import nmprune, run one untimed warm-up job, then timed jobs
  until SECONDS of job time are used up, and at least two jobs. Stdout and
  output-file hashes are taken between jobs, outside the timed region;
  checks run later, in run.py.

With TRACE 1 either mode records spans (spans.py) and adds a trace report.

Usage: worker.py setup|jobs ROOT WORKLOAD SEED SECONDS TRACE T0 RESULT
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

MIN_JOBS = 2


def run_cli(cli, argv) -> dict:
    """One operation: the command's exit code, stdout and the tail of stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            code = None
    return {"argv": argv, "rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def digest(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError:
        return None


def run_setup(cli, workload, seed, tracer, t0) -> dict:
    tracer.job = spans.SETUP
    for cmd in workload.setup(seed):
        op = run_cli(cli, cmd)
        if op["rc"] != 0:
            raise RuntimeError(f"set-up command failed: {op}")
    tracer.job = None
    return {"ready_s": time.monotonic() - t0}


def run_jobs(cli, workload, seconds, tracer) -> dict:
    for cmd in workload.warmup():
        op = run_cli(cli, cmd)
        if op["rc"] != 0:
            raise RuntimeError(f"warm-up command failed: {op}")
    jobs = []
    timed = 0.0
    while len(jobs) < MIN_JOBS or timed < seconds:
        index = len(jobs)
        cmds = workload.job(index)
        tracer.job = index
        begin = time.perf_counter()
        ops = [run_cli(cli, cmd) for cmd in cmds]
        elapsed = time.perf_counter() - begin
        tracer.job = None
        timed += elapsed
        for op in ops:
            op["hashes"] = [digest(path) for path in workloads.outputs(op["argv"])]
        jobs.append({"seconds": elapsed, "key": workload.input_key(index), "ops": ops})
    return {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    mode, root, name, seed, seconds, trace, t0, result_path = argv
    sys.path.insert(0, str(Path(root) / "src"))
    from nmprune import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(root).resolve()):
        print(f"imported nmprune from {cli.__file__}, outside the checkout", file=sys.stderr)
        return 1
    result_path = Path(result_path)
    workload = workloads.WORKLOADS[name](result_path.parent)
    tracer = spans.Tracer()
    if trace == "1":
        tracer.install()
    try:
        if mode == "setup":
            result = run_setup(cli, workload, int(seed), tracer, float(t0))
        else:
            result = run_jobs(cli, workload, float(seconds), tracer)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if trace == "1":
        jobs = len(result.get("jobs", ()))
        result["trace"] = {
            "per_job": tracer.summary(jobs, 1),
            "self_s": tracer.job_self_seconds(),
            "nesting_errors": tracer.nesting_errors(),
            "missing": tracer.missing,
        }
        tracer.dump(result_path.with_suffix(".spans.json"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
