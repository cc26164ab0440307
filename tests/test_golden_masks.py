"""Golden eggs masks: the connectivity pruner's output over a fixed grid.

For every case of the grid (profiles x N:M x shapes x B) the test runs
``prune_with_method(..., "eggs")`` and compares a sha256 of the mask, of the
pruned weights, of the channel permutation and of the warnings raised with
``golden_masks.json``. The shapes include an output count that M does not
divide, fewer outputs than M, and B values above the number of full row
blocks, so the partial-tail and clamping paths are pinned too.

Regenerate the golden file only for an intended change of the masks:
``PYTHONPATH=src python tests/test_golden_masks.py --write``.
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from nmprune import PROFILES, PruneConfig, apply_mask, gen_synthetic, norms_from_batch
from nmprune import prune_with_method

GOLDEN = Path(__file__).with_name("golden_masks.json")

NMS = ((1, 4), (2, 4), (2, 8), (4, 8))
# F_out x F_in: full blocks only, a partial tail, fewer rows than M, two groups of 8+
SHAPES = ((16, 16), (10, 16), (3, 16), (24, 32))
BS = (1, 2, 5)  # 5 is above the full-block count of every shape


def _sha(arr) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode("utf-8")
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def mask_records() -> dict:
    """Run the grid and return {record name: sha256}."""
    records = {}
    seed = 0
    for profile in PROFILES:
        for f_out, f_in in SHAPES:
            seed += 1
            w, z = gen_synthetic(seed, f_out, f_in, profile=profile, k=2)
            norms = norms_from_batch(z)
            for n, m in NMS:
                for b in BS:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        res = prune_with_method(w, norms, PruneConfig(n, m, b), "eggs")
                    name = f"{profile}/{f_out}x{f_in}/{n}:{m}/b{b}"
                    records[f"{name}/mask"] = _sha(res.mask)
                    records[f"{name}/W_pruned"] = _sha(apply_mask(res.weights, res.mask))
                    records[f"{name}/perm"] = _sha(res.permutation.forward)
                    text = "\n".join(str(c.message) for c in caught)
                    records[f"{name}/warnings"] = hashlib.sha256(text.encode()).hexdigest()
    return records


def test_eggs_masks_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = mask_records()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_masks.py --write")
    doc = mask_records()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} records to {GOLDEN}")
