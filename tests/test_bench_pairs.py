"""The verdict rules of tools/bench_pairs.py, on made-up pairs; no run is started."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUND = 0.24
# a lower-is-better metric whose base runs spread by 0.045 between quartiles
BASE = [1.00 + 0.01 * i for i in range(10)]


def pairs(before, after):
    return [{"before": {"t": b}, "after": {"t": a}} for b, a in zip(before, after)]


def verdict(before, after, sound=True):
    return bench_pairs.compare(pairs(before, after), "t", "lower", BOUND, sound)["verdict"]


def faster(losses):
    """Every run 0.2 faster than its base, except the first ``losses`` runs."""
    return [b + 0.01 if i < losses else b - 0.2 for i, b in enumerate(BASE)]


def test_nine_wins_in_ten_beyond_the_spread_is_better():
    assert verdict(BASE, faster(1)).startswith("better")


def test_eight_wins_in_ten_is_not_better():
    assert verdict(BASE, faster(2)).startswith("not worse")


def test_unsound_side_is_never_better():
    assert verdict(BASE, faster(0), sound=False).startswith("not worse")


def test_a_failed_pair_counts_toward_the_bar():
    # 11 pairs run, one of them failed: 9 wins are fewer than 9 in 10 of 11
    done = pairs(BASE, faster(1))
    failed = {"before": {"t": 1.0}, "after": {"error": "exit code 1"}}
    summary = bench_pairs.compare(done + [failed], "t", "lower", BOUND, True)
    counts = summary["pairs"], summary["finished_pairs"], summary["after_better_pairs"]
    assert counts == (11, 10, 9)
    assert summary["verdict"].startswith("not worse")


def test_a_median_worse_than_the_bound_is_worse():
    assert verdict(BASE, [b * 1.5 for b in BASE]).startswith("worse")


@pytest.mark.parametrize("after, want", [
    ([2, 1] * 5, "unresolved"),  # the same runs, each pair swapped
    ([0.99] * 10, "not worse"),  # every change run beats every base run
], ids=["mixed", "all-beat-base"])
def test_a_base_spread_wider_than_the_bound(after, want):
    before = [1, 2] * 5
    assert bench_pairs.quartiles(before) == [1, 1.5, 2]
    assert verdict(before, after).startswith(want)


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([3.5]) == [3.5, 3.5, 3.5]
