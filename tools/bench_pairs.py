#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_10.json --pairs 10 --seed 61

The base commit is exported with ``git archive`` into a temporary
directory, which is removed at the end. For every workload that
BENCHMARK.json lists, pair i runs
``python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
once in the working tree and once in the base checkout, with the same seed;
even pairs run the working tree first and odd pairs the base. T is
BENCHMARK.json's ``run_seconds``.

The working tree is recorded as "with uncommitted changes" when any of
CODE, the files the benchmark runs, differs from HEAD or is untracked.

The output JSON keeps every run's end-to-end metrics and, per workload, each
side's failed operations and unfinished or incorrect runs and, per metric:
both sides' quartiles, the pairs the working tree won and lost (ties count
for neither), the relative change of the median, the base's quartile spread
relative to its median, and the bound from BENCHMARK.json. A metric counts
as better only if the working tree won at least 9 in 10 of all pairs run,
its median beat the base's by more than the base's quartile spread, and it
failed no more operations and left no more runs unfinished or incorrect
than the base. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the benchmark runs; changes elsewhere (docs, tests) do not mark the working tree
CODE = ("src", "perfbench", "BENCHMARK.json")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(command, root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; a run that does not finish counts as failed."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr[-500:]}"}
    doc = json.loads(lines[-1])
    out = {name: m["value"] for name, m in doc["metrics"].items()}
    out.update(failed=doc["failed"], attempted=doc["attempted"], correct=doc["correct"])
    return out


def quartiles(values) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def operations(runs: list[dict]) -> dict:
    return {"failed": sum(r.get("failed", 0) for r in runs),
            "attempted": sum(r.get("attempted", 0) for r in runs),
            "runs_unfinished_or_incorrect": sum(
                1 for r in runs if "error" in r or not r["correct"])}


def compare(pairs: list[dict], name: str, better: str, bound: float, sound: bool) -> dict:
    """Summary of one metric. Quartiles and pair counts come from the pairs
    whose runs both finished; a gain is judged against all pairs run, and
    only if ``sound``: the working tree failed no more than the base."""
    done = [p for p in pairs if name in p["before"] and name in p["after"]]
    if not done:
        return {"pairs": len(pairs), "finished_pairs": 0, "verdict": "no finished pair"}
    before = [p["before"][name] for p in done]
    after = [p["after"][name] for p in done]
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
    lost = sum(1 for b, a in zip(before, after) if sign * (a - b) < 0)
    qb, qa = quartiles(before), quartiles(after)
    change = qa[1] / qb[1] - 1.0 if qb[1] else 0.0
    spread = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    if sound and won >= 0.9 * len(pairs) and sign * (qa[1] - qb[1]) > qb[2] - qb[0]:
        verdict = "better: won at least 9 in 10 pairs, by more than the base's spread"
    elif -sign * change > bound:
        verdict = "worse than the base by more than the bound"
    elif spread > bound and not all(sign * (a - b) > 0 for a in after for b in before):
        verdict = "unresolved: the base's spread is wider than the bound"
    else:
        verdict = "not worse than the base by more than the bound"
    return {"before_quartiles": [round(x, 4) for x in qb],
            "after_quartiles": [round(x, 4) for x in qa],
            "median_change": round(change, 4), "parent_spread": round(spread, 4),
            "bound": bound, "after_better_pairs": won, "after_worse_pairs": lost,
            "pairs": len(pairs), "finished_pairs": len(done), "verdict": verdict}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    parser.add_argument("--out", required=True, help="path of the BENCH_<pr>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    seconds = spec["run_seconds"]
    base = git("rev-parse", args.base)
    doc = {
        "command": " ".join(spec["command"]) + " --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                   f"Python {platform.python_version()}",
        "before": base,
        "after": f"working tree on {git('rev-parse', 'HEAD')}"
                 + (" with uncommitted changes"
                    if git("status", "--porcelain", "--", *CODE) else ""),
        "note": f"pair i uses seed {args.seed}+i; even pairs ran the working tree first",
        "untraced_pairs": {},
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkout = Path(tmp) / "base"
        checkout.mkdir()
        archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("after", ROOT), ("before", checkout)]
                pair = {side: run_once(spec["command"], root, workload, seed, seconds)
                        for side, root in (sides if i % 2 == 0 else sides[::-1])}
                pairs.append(pair)
                print(f"{workload} seed {seed}: {json.dumps(pair)}", file=sys.stderr)
            doc["untraced_pairs"][workload] = {
                str(args.seed + i): pair for i, pair in enumerate(pairs)}
            ops = {side: operations([p[side] for p in pairs]) for side in ("before", "after")}
            sound = all(ops["after"][k] <= ops["before"][k]
                        for k in ("failed", "runs_unfinished_or_incorrect"))
            doc["summary"][workload] = {
                m["name"]: compare(pairs, m["name"], m["better"], m["bound"], sound)
                for m in spec["end_to_end"]}
            for side in ("before", "after"):
                doc["summary"][workload][f"{side}_operations"] = ops[side]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
