"""Outside-in tracing of nmprune's public functions.

The tracer replaces each traced function with a wrapper under every name
the function object has in any loaded ``nmprune.*`` module, since one
function is reached through several names (``nmprune.cli.load_bundle`` is
``nmprune.tensor_store.load_bundle``). Nothing in ``src/`` changes. Spans
(name, start, end, parent, job) are kept in memory while jobs run and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

# module -> functions whose calls and self time are reported per job
TARGETS = {
    "cli": ("main",),
    "tensor_store": ("load_bundle", "save_bundle"),
    "metrics": ("check_weights", "ria", "rri", "wanda_score", "magnitude_score",
                "channel_scores"),
    "permute": ("build_permutation", "apply_to_columns", "unpermute_mask", "save_permutation"),
    "partition": ("plan_groups", "order_rows", "assign_blocks"),
    "masks": ("eggs_prune", "importance_select", "connectivity_select", "diagonal_select",
              "apply_mask", "check_nm_pattern"),
    "graphs": ("verify_degree_laws", "mask_to_graph", "brute_force_expansion"),
    "harness": ("gen_synthetic", "prune_with_method", "compare_methods",
                "reconstruction_error", "norms_from_batch"),
}

MIB = float(1 << 20)


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / MIB
    except OSError:
        return 0.0


def _subsets(g, c) -> int:
    """Subsets brute_force_expansion enumerates: sum of C(n, k) for
    1 <= k <= floor(c n), on both sides."""
    frac = Fraction(c)
    return sum(math.comb(n, k) for n in (g.n_inputs, g.n_outputs)
               for k in range(1, int(frac * n) + 1))


# computed counters: traced function -> (counter, value from the call's arguments)
COUNTERS = {
    "tensor_store.load_bundle": ("tensor_store.read_mb", _file_mb),
    "tensor_store.save_bundle": ("tensor_store.written_mb", lambda bundle, path: _file_mb(path)),
    "graphs.brute_force_expansion": ("graphs.subsets", _subsets),
}
COUNTER_UNITS = {"tensor_store.read_mb": "MiB", "tensor_store.written_mb": "MiB",
                 "graphs.subsets": "count"}

# Set-up spans carry this job id. Only gen_synthetic is reported from them, per
# set-up round, because no job calls it; every other value is per timed job.
SETUP = -1
SETUP_ONLY = {"harness.gen_synthetic"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in TARGETS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


class Tracer:
    """Span recorder. Records only while ``job`` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, counted]
        self.job: int | None = None
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.job, 0])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
                if counter:
                    self.spans[index][5] = counter[1](*args, **kwargs)

        return traced

    def install(self, package="nmprune"):
        """Rebind every traced function under all of its names."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for module, names in TARGETS.items():
            home = sys.modules.get(f"{package}.{module}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.missing.append(f"{module}.{name}")
                    continue
                traced = self.wrap(f"{module}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, traced)

    def uninstall(self):
        """Put every original function back."""
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def nesting_errors(self) -> list[str]:
        """Children must lie inside their parents and belong to the same job."""
        for name, start, end, parent, job, _ in self.spans:
            if parent < 0:
                continue
            p_name, p_start, p_end, _, p_job, _ = self.spans[parent]
            if start < p_start or end > p_end or job != p_job:
                return [f"span {name} is not inside its parent {p_name}"]
        return []

    def summary(self, jobs: int, setups: int) -> dict[str, float]:
        """Calls, self seconds and counters of every target, per job."""
        values = dict.fromkeys(metric_units(), 0.0)
        for (name, _, _, _, job, counted), own in zip(self.spans, self.self_times()):
            if (job == SETUP) != (name in SETUP_ONLY):
                continue
            share = 1.0 / (setups if job == SETUP else jobs)
            values[f"{name}.calls"] += share
            values[f"{name}.self_s"] += own * share
            if name in COUNTERS:
                values[COUNTERS[name][0]] += counted * share
        return values

    def job_self_seconds(self) -> float:
        """Self times summed over the jobs' spans: with proper nesting this is
        the time the jobs spent inside traced calls."""
        return sum(own for span, own in zip(self.spans, self.self_times()) if span[4] != SETUP)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counted"],
                       "spans": self.spans}, fh)
