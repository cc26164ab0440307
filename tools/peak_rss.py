#!/usr/bin/env python3
"""Peak RSS of each nmprune command on one synthetic layer, in fresh processes.

Usage (from the repository root):

    python3 tools/peak_rss.py --dims 4096x4096 --out peak_rss.json

In a temporary directory this runs, each in its own child process:
``gen`` of a gaussian layer (seed 0) and of a dead-columns layer with 16
dead columns, whose draw takes two passes, ``prune`` of the gaussian layer
with every method at 2:4 and B=2, ``verify`` of the eggs bundle, ``eval``
of all four methods and ``sweep`` over B 0..4. Every child imports nmprune
from this checkout's ``src/``, runs one ``nmprune.cli.main`` call and
reports its own ``ru_maxrss``, so each peak includes the interpreter and
numpy but no other command. Two more children each run a sequence in
turn, the shape of a benchmark job process: ``prune --method eggs``,
``verify``, ``prune --method eggs`` and ``verify``; and ``prune`` with ria,
wanda and magnitude, each followed by ``verify`` at B=0. Their peaks also
show what the allocator keeps of one command's heap for the next, which a
fresh process never shows. The output JSON maps each command, or sequence,
to its peak in MiB. Standard library only.

The same code reads up to ~2 MiB apart from checkouts in different
directories: ``prune --method ria`` and ``eggs`` at 4096x4096 have read 158.8
MiB from one directory and 160.9 MiB from another, whichever tree sat
there. A peak step of 2 MiB or less between two trees is therefore not
evidence either way, unless each tree was also measured from the other's
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("magnitude", "wanda", "ria", "eggs")
NM = ["--n", "2", "--m", "4", "--b", "2"]
JOB = "prune --method eggs, verify, prune --method eggs, verify (one process)"
SCORED_JOB = ("prune --method ria, verify, prune --method wanda, verify, "
              "prune --method magnitude, verify (one process)")
# runs the CLI calls given as one JSON list of argv lists, in turn, stopping at
# the first that fails, then prints the process's peak RSS (KiB on Linux) last
CHILD = ("import json, resource, sys\n"
         "from nmprune.cli import main\n"
         "code = 0\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    code = code or main(argv)\n"
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
         "sys.exit(code)\n")


def peak_mib(*commands: list[str]) -> float:
    """Peak RSS of one fresh process that runs ``nmprune argv`` for each argv given."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        shown = "; ".join(" ".join(argv) for argv in commands)
        raise SystemExit(f"nmprune {shown} exited {proc.returncode}: {proc.stderr}")
    return round(int(proc.stdout.split()[-1]) / 1024, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", required=True, metavar="RxC", help="layer shape, as for gen")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    args = parser.parse_args(argv)
    peaks = {}
    with tempfile.TemporaryDirectory(prefix="peak_rss_") as tmp:
        layer = str(Path(tmp) / "layer.t")
        peaks["gen"] = peak_mib(["gen", "--out", layer, "--dims", args.dims])
        peaks["gen --profile dead-columns --k 16"] = peak_mib(
            ["gen", "--out", str(Path(tmp) / "dead.t"), "--dims", args.dims,
             "--profile", "dead-columns", "--k", "16"])
        for method in METHODS:
            out = str(Path(tmp) / f"{method}.t")
            peaks[f"prune --method {method}"] = peak_mib(
                ["prune", "--in", layer, "--out", out, "--method", method, *NM])
        peaks["verify"] = peak_mib(["verify", "--in", str(Path(tmp) / "eggs.t"), *NM])
        job = [["prune", "--in", layer, "--out", str(Path(tmp) / "job.t"), "--method", "eggs",
                *NM], ["verify", "--in", str(Path(tmp) / "job.t"), *NM]]
        peaks[JOB] = peak_mib(*job, *job)
        scored = str(Path(tmp) / "scored.t")
        peaks[SCORED_JOB] = peak_mib(*(argv for method in ("ria", "wanda", "magnitude") for argv in (
            ["prune", "--in", layer, "--out", scored, "--method", method, *NM],
            ["verify", "--in", scored, "--n", "2", "--m", "4", "--b", "0"])))
        peaks["eval"] = peak_mib(["eval", "--in", layer, *NM])
        peaks["sweep"] = peak_mib(["sweep", "--in", layer, "--b-range", "0..4",
                                   "--n", "2", "--m", "4"])
    doc = {
        "dims": args.dims,
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                   f"Python {platform.python_version()}",
        "unit": "MiB",
        "peak_rss": peaks,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
