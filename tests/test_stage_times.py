"""Smoke test of tools/stage_times.py: both methods report the whole call and
the stages they run, each as a non-negative median of milliseconds and of
minor page faults."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
SHARED = {"prune_with_method", "layer_sums", "build_permutation", "ria_select",
          "importance_select"}


def test_every_stage_reports_a_median(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run([sys.executable, str(TOOL), "--dims", "64x64", "--repeats", "2",
                    "--out", str(out)], check=True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["dims"], doc["unit"], doc["repeats"]) == ("64x64", "ms", 2)
    for medians in (doc["median"], doc["minflt"]):
        # only eggs plans its groups, as its scoring pass goes, and overlays its blocks
        assert set(medians["eggs"]) == SHARED | {"plan_groups", "order_rows", "overlay_blocks"}
        assert set(medians["ria"]) == SHARED
        assert all(value >= 0 for stages in medians.values() for value in stages.values())
