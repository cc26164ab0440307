"""Golden CLI outputs: every subcommand's streams, exit codes and files.

The grid runs ``gen``, ``prune``, ``verify``, ``eval`` and ``sweep`` on small
synthetic layers and on hand-made masks, and compares a sha256 of each
output (stdout, stderr with the temporary directory replaced by ``<tmp>``,
warnings, written files) and each exit code with ``golden_cli.json``. A
refactor that keeps the CLI's behaviour leaves every record unchanged.

Regenerate the golden file only for an intended output change:
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from nmprune import load_bundle, save_bundle
from nmprune.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# name: (dims, profile, k, seed, b)
LAYERS = {
    "gaussian": ("16x16", "gaussian", 1, 3, 2),
    "dead": ("16x16", "dead-columns", 3, 5, 1),
    "heavy": ("16x16", "heavy-tail", 1, 7, 2),
    "tail": ("10x8", "gaussian", 1, 11, 2),  # F_out is not a multiple of M
    "clamped": ("8x8", "dead-columns", 2, 13, 5),  # B above the 2 full blocks
    "wide": ("24x24", "gaussian", 1, 17, 1),  # both sides above the enumeration limit
}
METHODS = ("magnitude", "wanda", "ria", "eggs")
NM = ["--n", "2", "--m", "4"]

# hand-made masks for verify, 2:4 unless named otherwise
MASKS = {
    "non-binary": np.array([[2, 1, 0, 0]] * 4),
    "bad-window": np.array([[1, 1, 1, 0]] + [[1, 1, 0, 0]] * 3),
    "dead-input": np.array([[1, 1, 0, 0]] * 3 + [[1, 0, 1, 0]]),
    "cols-6": np.array([[1, 1, 0, 0, 1, 0]] * 4),
    "cols-6-non-binary": np.array([[1, 2, 0, 0, 1, 0]] * 4),
    "flat": np.array([1, 1, 0, 0]),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def cli_records(tmp: Path) -> dict:
    """Run the grid in ``tmp`` and return {record name: exit code or sha256}."""
    records = {}

    def run(name, *argv, files=()):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([str(a) for a in argv])
        records[f"{name}/rc"] = code
        records[f"{name}/stdout"] = _sha(out.getvalue())
        records[f"{name}/stderr"] = _sha(err.getvalue().replace(str(tmp), "<tmp>"))
        records[f"{name}/warnings"] = _sha("\n".join(str(w.message) for w in caught))
        for path in files:
            path = tmp / path
            records[f"{name}/{path.name}"] = _sha(path.read_bytes()) if path.exists() else None

    for layer, (dims, profile, k, seed, b) in LAYERS.items():
        src = tmp / f"{layer}.t"
        run(f"{layer}/gen", "gen", "--out", src, "--dims", dims, "--profile", profile,
            "--k", k, "--seed", seed, files=[src.name])
        for method in METHODS:
            out = f"{layer}-{method}.t"
            run(f"{layer}/prune-{method}", "prune", "--in", src, "--out", tmp / out,
                "--method", method, *NM, "--b", b, files=[out, out + ".perm.json"])
            run(f"{layer}/verify-{method}", "verify", "--in", tmp / out, *NM, "--b", b)
        eggs = tmp / f"{layer}-eggs.t"
        run(f"{layer}/verify-eggs-c", "verify", "--in", eggs, *NM, "--b", b, "--c", "1/4")
        run(f"{layer}/verify-eggs-b0", "verify", "--in", eggs, *NM)
        run(f"{layer}/verify-eggs-over", "verify", "--in", eggs, *NM, "--b", b + 2)
        run(f"{layer}/verify-ria-b1", "verify", "--in", tmp / f"{layer}-ria.t", *NM, "--b", 1)
        run(f"{layer}/eval", "eval", "--in", src, *NM, "--b", b, "--csv", tmp / f"{layer}.csv",
            files=[f"{layer}.csv"])
        run(f"{layer}/sweep", "sweep", "--in", src, "--b-range", "0..3", *NM)

    gauss = tmp / "gaussian.t"
    eggs = tmp / "gaussian-eggs.t"
    run("verify-4-8", "verify", "--in", eggs, "--n", 4, "--m", 8, "--b", 1)
    run("verify-1-4", "verify", "--in", eggs, "--n", 1, "--m", 4)
    run("verify-c-one", "verify", "--in", eggs, *NM, "--b", 2, "--c", "1/1")
    run("verify-no-mask", "verify", "--in", gauss, *NM)
    run("verify-missing", "verify", "--in", tmp / "missing.t", *NM)
    run("eval-alpha", "eval", "--in", gauss, "--methods", "ria,eggs", *NM, "--alpha", "0.25")
    run("eval-no-methods", "eval", "--in", gauss, "--methods", ",", *NM)
    # a magnitude-only eval reads no activations: the bundle holds W alone
    w_only = tmp / "w-only.t"
    save_bundle({"W": load_bundle(gauss)["W"]}, w_only)
    run("eval-magnitude-only", "eval", "--in", w_only, "--methods", "magnitude", *NM)
    run("sweep-reversed", "sweep", "--in", gauss, "--b-range", "3..1", *NM)
    run("sweep-clamped", "sweep", "--in", tmp / "clamped.t", "--b-range", "1..4", *NM)
    run("prune-odd-m", "prune", "--in", gauss, "--out", tmp / "odd.t", "--method", "ria",
        "--n", 1, "--m", 3)

    for name, mask in MASKS.items():
        path = tmp / f"mask-{name}.t"
        save_bundle({"mask": mask.astype(np.uint8)}, path)
        run(f"mask-{name}", "verify", "--in", path, *NM, "--b", 1)

    # activation norms instead of a calibration batch
    w = np.random.default_rng(19).standard_normal((8, 8)).astype(np.float32)
    norms = np.linspace(0.5, 1.5, 8, dtype=np.float32)
    path = tmp / "norms.t"
    save_bundle({"W": w, "Z": norms}, path)
    run("norms/prune-eggs", "prune", "--in", path, "--out", tmp / "norms-eggs.t",
        "--method", "eggs", *NM, files=["norms-eggs.t", "norms-eggs.t.perm.json"])
    run("norms/eval", "eval", "--in", path, *NM)
    run("norms/sweep", "sweep", "--in", path, "--b-range", "0..2", *NM)
    return records


def test_cli_outputs_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = cli_records(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        doc = cli_records(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} records to {GOLDEN}")
