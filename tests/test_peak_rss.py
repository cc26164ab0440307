"""Smoke test of tools/peak_rss.py: every command runs in its own process and
reports a positive peak, and so do the in-process prune and verify sequences."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"
COMMANDS = ["gen", "gen --profile dead-columns --k 16", "prune --method magnitude", "prune --method wanda", "prune --method ria",
            "prune --method eggs", "verify", "eval", "sweep",
            "prune --method eggs, verify, prune --method eggs, verify (one process)",
            "prune --method ria, verify, prune --method wanda, verify, "
            "prune --method magnitude, verify (one process)"]


def test_every_command_reports_a_positive_peak(tmp_path):
    out = tmp_path / "peak.json"
    # 32 columns: the dead-columns layer needs more than its 16 dead ones
    subprocess.run([sys.executable, str(TOOL), "--dims", "16x32", "--out", str(out)], check=True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["dims"], doc["unit"]) == ("16x32", "MiB")
    assert sorted(doc["peak_rss"]) == sorted(COMMANDS)
    assert all(mib > 0 for mib in doc["peak_rss"].values())
