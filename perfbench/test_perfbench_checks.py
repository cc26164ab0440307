"""The benchmark's own tests: each output check accepts the program's real
outputs and rejects a corrupted one, repeats must agree byte for byte, and
the tracer's spans nest. Layers are small, so these run in a few seconds."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nmprune
import checks
import run
import spans
import workloads
import worker
from nmprune import cli

ROOT = Path(__file__).resolve().parent.parent


class SmallEggs(workloads.Eggs4096):
    DIMS = "16x16"


class SmallScored(workloads.Scored4096):
    DIMS = "16x16"


class SmallExpand(workloads.Expand20):
    SHAPES = (("8x8", "1/2"), ("10x8", "1/3"))


class SmallEval(workloads.Eval1024):
    DIMS, K = "32x32", 3


SMALL = (SmallEggs, SmallScored, SmallExpand, SmallEval)


def run_jobs(workload, jobs=3, seed=5):
    """Set-up plus `jobs` jobs, recorded the way worker.py records them."""
    for cmd in workload.setup(seed):
        assert worker.run_cli(cli, cmd)["rc"] == 0
    recorded = []
    for index in range(jobs):
        ops = [worker.run_cli(cli, cmd) for cmd in workload.job(index)]
        for op in ops:
            op["hashes"] = [worker.digest(p) for p in workloads.outputs(op["argv"])]
        recorded.append({"seconds": 1.0, "key": workload.input_key(index), "ops": ops})
    return recorded


@pytest.mark.parametrize("cls", SMALL, ids=lambda cls: cls.name)
def test_program_outputs_pass_every_check(cls, tmp_path):
    workload = cls(tmp_path)
    errors, run_errors = run.failed_ops(workload, run_jobs(workload))
    assert run_errors == []
    assert errors and all(found == [] for found in errors), errors


def test_a_repeat_that_differs_fails(tmp_path):
    workload = SmallEval(tmp_path)
    jobs = run_jobs(workload, jobs=2)
    jobs[0]["ops"][1]["stdout"] += "\n"
    errors, _ = run.failed_ops(workload, jobs)
    assert "differs from a repeat" in errors[1][0]
    assert errors[0] == [] and errors[2:] == [[], []]


def test_an_unexpected_exit_code_fails(tmp_path):
    workload = SmallEggs(tmp_path)
    jobs = run_jobs(workload, jobs=2)
    jobs[1]["ops"][1]["rc"] = 1
    errors, _ = run.failed_ops(workload, jobs)
    assert [bool(found) for found in errors] == [False, False, False, True]


def small_eggs(tmp_path):
    workload = SmallEggs(tmp_path)
    jobs = run_jobs(workload, jobs=1)
    w = checks.read_bundle(workload.path("layer.t"))["W"]
    out = {k: v.copy() for k, v in checks.read_bundle(workload.path("eggs.t")).items()}
    forward = checks.read_forward(f"{workload.path('eggs.t')}.perm.json")
    return w, out, forward, jobs[0]["ops"][1]["stdout"]


def test_flipped_mask_bit_is_rejected(tmp_path):
    w, out, forward, _ = small_eggs(tmp_path)
    assert checks.window_counts(out["mask"], 2, 4) == []
    out["mask"][3, 5] ^= 1
    assert checks.window_counts(out["mask"], 2, 4)
    assert checks.pruned_weights(out, out["W_perm"])
    assert checks.sidecar(out, w, forward)


def test_column_floor_rejects_a_starved_column():
    mask = np.tile(np.array([1, 1, 0, 0], dtype=np.uint8), (8, 2))
    assert checks.column_floor(mask, 1)
    assert checks.column_floor(np.ones((8, 8), dtype=np.uint8), 2) == []


def test_shuffled_sidecar_is_rejected(tmp_path):
    w, out, forward, _ = small_eggs(tmp_path)
    assert checks.sidecar(out, w, forward) == []
    assert checks.sidecar(out, w, np.roll(forward, 1))
    assert checks.sidecar(out, w, np.zeros_like(forward))


def test_verify_report_rejects_wrong_degrees_and_fractions(tmp_path):
    _, out, _, stdout = small_eggs(tmp_path)
    c = checks.c_default(16, 16, 2, 4, 2)
    assert checks.verify_report(stdout, out["mask"], c) == []
    doc = json.loads(stdout)
    assert checks.verify_report(json.dumps(dict(doc, min_in_degree=0)), out["mask"], c)
    assert checks.verify_report(json.dumps(dict(doc, c=[1, 7])), out["mask"], c)


def test_wrong_expansion_fraction_is_rejected(tmp_path):
    workload = SmallExpand(tmp_path)
    jobs = run_jobs(workload, jobs=1)
    op = jobs[0]["ops"][0]
    doc = json.loads(op["stdout"])
    num, den = doc["a_I"]
    op["stdout"] = json.dumps(dict(doc, a_I=[num + 1, den]))
    errors, _ = run.failed_ops(workload, jobs)
    assert any("a_I" in message for message in errors[0])


def brute_ratio(neigh, max_size):
    best = None
    for k in range(1, max_size + 1):
        for subset in itertools.combinations(neigh, k):
            ratio = Fraction(bin(np.bitwise_or.reduce(subset)).count("1"), k)
            best = ratio if best is None or ratio < best else best
    return best


@pytest.mark.parametrize("seed", range(4))
def test_expansion_reference_matches_plain_enumeration(seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random((9, 7)) < 0.4).astype(np.uint8)
    cols, rows = checks.neighbour_bits(mask)
    a_in, a_out = checks.expansion(mask, Fraction(1, 2))
    assert a_in == brute_ratio(cols, 3)
    assert a_out == brute_ratio(rows, 4)


def test_topk_rejects_a_swapped_window_and_a_tie_at_the_higher_column():
    scores = np.array([[4.0, 3.0, 2.0, 1.0, 1.0, 5.0, 5.0, 0.5]])
    good = np.array([[1, 1, 0, 0, 0, 1, 1, 0]], dtype=np.uint8)
    assert checks.topk(scores, good, 2, 4) == []
    swapped = np.array([[1, 0, 1, 0, 0, 1, 1, 0]], dtype=np.uint8)
    assert checks.topk(scores, swapped, 2, 4)
    tied = np.array([[1.0, 1.0, 1.0, 0.0]])
    assert checks.topk(tied, np.array([[1, 1, 0, 0]], dtype=np.uint8), 2, 4) == []
    assert checks.topk(tied, np.array([[1, 0, 1, 0]], dtype=np.uint8), 2, 4)


def test_keep_top_breaks_ties_at_the_lower_column():
    scores = np.array([[2.0, 2.0, 2.0, 1.0, 0.0, 3.0, 3.0, 3.0]])
    assert checks.keep_top(scores, 2, 4).tolist() == [[1, 1, 0, 0, 0, 1, 1, 0]]


def small_eval(tmp_path):
    workload = SmallEval(tmp_path)
    jobs = run_jobs(workload, jobs=1)
    layer = checks.read_bundle(workload.path("layer.t"))
    rows = json.loads(jobs[0]["ops"][0]["stdout"])
    csv = workload.path("eval.csv").read_text(encoding="utf-8")
    return layer["W"], layer["Z"], rows, csv, jobs[0]["ops"][1]["stdout"]


def test_eval_checks_reject_a_wrong_error_row_csv_and_sweep(tmp_path):
    w, z, rows, csv, sweep = small_eval(tmp_path)
    assert checks.eval_rows(rows, w, z, 2, 4) == []
    assert checks.eval_csv(csv, rows) == []
    assert checks.sweep_rows(sweep, rows, w.shape[0], 4) == []

    off = [dict(row, error=row["error"] * (1 + 1e-6)) if row["method"] == "wanda" else row
           for row in rows]
    assert checks.eval_rows(off, w, z, 2, 4)
    assert checks.eval_csv(csv, off)
    starved = [dict(row, corrupted=1) if row["method"] == "eggs" else row for row in rows]
    assert checks.eval_rows(starved, w, z, 2, 4)
    lines = sweep.splitlines()
    b0 = lines[1].split(",")
    lines[1] = ",".join([b0[0], repr(float(b0[1]) * 2), *b0[2:]])
    assert checks.sweep_rows("\n".join(lines), rows, w.shape[0], 4)


def test_tracer_spans_nest_and_cover_every_name(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert nmprune.masks.plan_groups is nmprune.partition.plan_groups
        assert cli.load_bundle is nmprune.tensor_store.load_bundle
        assert hasattr(cli.load_bundle, "__wrapped__")
        assert cli.main.__wrapped__ is not None
        workload = SmallEggs(tmp_path)
        for cmd in workload.setup(1):
            worker.run_cli(cli, cmd)
        tracer.job = 0
        for cmd in workload.job(0):
            assert worker.run_cli(cli, cmd)["rc"] == 0
        tracer.job = None
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert tracer.missing == [] and tracer.nesting_errors() == []
    per_job = tracer.summary(1, 1)
    assert per_job["cli.main.calls"] == 2
    assert per_job["partition.plan_groups.calls"] == 1
    assert per_job["tensor_store.load_bundle.calls"] == 2
    assert per_job["tensor_store.read_mb"] > 0 and per_job["tensor_store.written_mb"] > 0
    assert per_job["harness.gen_synthetic.calls"] == 0
    roots = sum(end - start for _, start, end, parent, *_ in tracer.spans if parent < 0)
    assert tracer.job_self_seconds() == pytest.approx(roots, rel=1e-9)


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # expand-20 is left out of BENCHMARK.json: its pure-Python job follows the
    # host's speed too closely to be steady from run to run; it still runs by name
    listed = {w["name"] for w in doc["workloads"]}
    assert listed <= set(workloads.WORKLOADS)
    assert set(workloads.WORKLOADS) - listed == {"expand-20"}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.metric_units()
    assert [m["name"] for m in doc["end_to_end"]] == [
        "job_p50_s", "jobs_per_s", "peak_rss_mb", "setup_s"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-1024", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
