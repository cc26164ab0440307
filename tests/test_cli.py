"""CLI contract: exit codes, output files, and stream separation."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nmprune
from nmprune import load_bundle, load_permutation, save_bundle
from nmprune import metrics, partition
from nmprune.cli import main


def run(*argv):
    return main(list(argv))


def gen_layer(tmp_path, name="layer.tensors", dims="8x8", profile="gaussian", seed=3, k=1):
    path = tmp_path / name
    code = run("gen", "--out", str(path), "--dims", dims, "--profile", profile,
               "--seed", str(seed), "--k", str(k))
    assert code == 0
    return path


class TestGen:
    def test_writes_bundle(self, tmp_path):
        path = gen_layer(tmp_path)
        bundle = load_bundle(path)
        assert bundle["W"].shape == (8, 8)
        assert bundle["Z"].shape == (8, 32)

    def test_byte_identical_reruns(self, tmp_path):
        a = gen_layer(tmp_path, "a.tensors", seed=7, profile="dead-columns", k=2, dims="8x16")
        b = gen_layer(tmp_path, "b.tensors", seed=7, profile="dead-columns", k=2, dims="8x16")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dims_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run("gen", "--out", str(tmp_path / "x"), "--dims", "8by8")
        assert info.value.code == 2


class TestPrune:
    def test_eggs_outputs(self, tmp_path, capsys):
        src = gen_layer(tmp_path)
        out = tmp_path / "pruned.tensors"
        assert run("prune", "--in", str(src), "--out", str(out),
                   "--method", "eggs", "--n", "2", "--m", "4", "--b", "1") == 0
        bundle = load_bundle(out)
        assert set(bundle) == {"mask", "W_pruned", "W_perm", "mask_unpermuted"}
        mask = bundle["mask"]
        assert mask.dtype == np.uint8
        counts = mask.reshape(8, 2, 4).sum(axis=2)
        assert (counts == 2).all()
        perm = load_permutation(str(out) + ".perm.json")
        assert len(perm) == 8
        captured = capsys.readouterr()
        assert captured.out == ""  # diagnostics stay on stderr

    def test_odd_m_is_usage_error(self, tmp_path, capsys):
        src = gen_layer(tmp_path)
        code = run("prune", "--in", str(src), "--out", str(tmp_path / "x"),
                   "--method", "eggs", "--n", "2", "--m", "3")
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_magnitude_without_acts(self, tmp_path):
        src = gen_layer(tmp_path)
        # rebuild a bundle with only weights
        w = load_bundle(src)["W"]
        only_w = tmp_path / "w_only.tensors"
        save_bundle({"W": w}, only_w)
        out = tmp_path / "mag.tensors"
        assert run("prune", "--in", str(only_w), "--out", str(out),
                   "--method", "magnitude", "--n", "2", "--m", "4") == 0
        bundle = load_bundle(out)
        assert set(bundle) == {"mask", "W_pruned"}

    def test_missing_acts_is_pipeline_error(self, tmp_path, capsys):
        w = load_bundle(gen_layer(tmp_path))["W"]
        only_w = tmp_path / "w_only.tensors"
        save_bundle({"W": w}, only_w)
        code = run("prune", "--in", str(only_w), "--out", str(tmp_path / "x"),
                   "--method", "eggs", "--n", "2", "--m", "4")
        assert code == 1
        assert "no tensor named" in capsys.readouterr().err

    def test_deterministic_reruns(self, tmp_path):
        src = gen_layer(tmp_path)
        out1, out2 = tmp_path / "p1.tensors", tmp_path / "p2.tensors"
        for out in (out1, out2):
            assert run("prune", "--in", str(src), "--out", str(out),
                       "--method", "ria", "--n", "2", "--m", "4") == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bundle_mode_matches_sidecar(self, tmp_path):
        src = gen_layer(tmp_path)
        out = tmp_path / "pruned.tensors"
        assert run("prune", "--in", str(src), "--out", str(out),
                   "--method", "ria", "--n", "2", "--m", "4") == 0
        sidecar = tmp_path / "pruned.tensors.perm.json"
        assert stat.S_IMODE(os.stat(out).st_mode) == stat.S_IMODE(os.stat(sidecar).st_mode)


class TestVerify:
    def test_directory_input_is_pipeline_error(self, tmp_path, capsys):
        assert run("verify", "--in", str(tmp_path), "--n", "2", "--m", "4") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("shape, empty", [((4, 0), "columns"), ((0, 4), "rows")])
    def test_empty_mask_is_pipeline_error(self, tmp_path, capsys, shape, empty):
        path = tmp_path / "empty.tensors"
        save_bundle({"mask": np.zeros(shape, dtype=np.uint8)}, path)
        assert run("verify", "--in", str(path), "--n", "2", "--m", "4") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: mask has no {empty} (shape {shape[0]}x{shape[1]})\n"

    def test_non_binary_mask_reports_once_with_json(self, tmp_path, capsys):
        path = tmp_path / "two.tensors"
        save_bundle({"mask": np.array([[2, 1, 0, 0]] * 4, dtype=np.uint8)}, path)
        assert run("verify", "--in", str(path), "--n", "2", "--m", "4", "--b", "1") == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: mask entries must be 0 or 1",
            "expansion enumeration skipped: the mask is not binary",
        ]
        report = json.loads(captured.out)
        assert report["lemma1_pass"] is False
        assert report["a_I"] is None and report["a_O"] is None

    def test_boolean_header_count_is_pipeline_error(self, tmp_path, capsys):
        header = json.dumps({"mask": {"dtype": "u8", "shape": [True, 4], "offset": 0,
                                      "nbytes": 4}}).encode()
        path = tmp_path / "bool.tensors"
        path.write_bytes(len(header).to_bytes(8, "little") + header + bytes(4))
        assert run("verify", "--in", str(path), "--n", "2", "--m", "4") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: entry 'mask': shape must be a list of "
                                "non-negative ints\n")

    def test_indivisible_width_reports_with_json(self, tmp_path, capsys):
        path = tmp_path / "cols6.tensors"
        save_bundle({"mask": np.array([[1, 1, 0, 0, 1, 0]] * 4, dtype=np.uint8)}, path)
        assert run("verify", "--in", str(path), "--n", "2", "--m", "4", "--b", "1") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: 6 columns not divisible by window width 4\n"
        report = json.loads(captured.out)
        assert report["lemma1_pass"] is False
        assert report["min_out_degree"] == 3

    def test_eggs_output_passes(self, tmp_path, capsys):
        src = gen_layer(tmp_path)
        out = tmp_path / "pruned.tensors"
        run("prune", "--in", str(src), "--out", str(out),
            "--method", "eggs", "--n", "2", "--m", "4", "--b", "1")
        capsys.readouterr()
        assert run("verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lemma1_pass"] is True
        assert report["min_out_degree"] == 4

    def test_corrupted_mask_fails_naming_window(self, tmp_path, capsys):
        src = gen_layer(tmp_path)
        out = tmp_path / "pruned.tensors"
        run("prune", "--in", str(src), "--out", str(out),
            "--method", "eggs", "--n", "2", "--m", "4", "--b", "1")
        bundle = load_bundle(out)
        mask = bundle["mask"].copy()
        window = mask[0, :4]
        window[np.flatnonzero(window == 0)[0]] = 1  # one extra retained entry
        mask[0, :4] = window
        bad = tmp_path / "bad.tensors"
        save_bundle({"mask": mask}, bad)
        capsys.readouterr()
        assert run("verify", "--in", str(bad), "--n", "2", "--m", "4", "--b", "1") == 1
        captured = capsys.readouterr()
        assert "row 0 window 0" in captured.err
        assert json.loads(captured.out)["lemma1_pass"] is False

    def test_large_layer_skips_expansion(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="24x48", seed=5)
        out = tmp_path / "pruned.tensors"
        run("prune", "--in", str(src), "--out", str(out),
            "--method", "eggs", "--n", "2", "--m", "4", "--b", "1")
        capsys.readouterr()
        assert run("verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "1") == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        report = json.loads(captured.out)
        assert report["a_I"] is None and report["a_O"] is None
        assert report["lemma1_pass"] is True

    def test_explicit_c_flag(self, tmp_path, capsys):
        src = gen_layer(tmp_path)
        out = tmp_path / "pruned.tensors"
        run("prune", "--in", str(src), "--out", str(out),
            "--method", "eggs", "--n", "2", "--m", "4", "--b", "2")
        capsys.readouterr()
        assert run("verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "2",
                   "--c", "1/8") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c"] == [1, 8]
        assert report["a_I"][0] >= 2 * report["a_I"][1]


class TestEval:
    def test_reports_in_requested_order(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="16x16", seed=9)
        capsys.readouterr()
        assert run("eval", "--in", str(src), "--methods", "magnitude,wanda,ria,eggs",
                   "--n", "2", "--m", "4", "--b", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in doc] == ["magnitude", "wanda", "ria", "eggs"]

    def test_csv_summary_written(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="16x16", seed=9)
        csv_path = tmp_path / "summary.csv"
        assert run("eval", "--in", str(src), "--methods", "eggs",
                   "--n", "2", "--m", "4", "--b", "1", "--csv", str(csv_path)) == 0
        assert csv_path.read_text().startswith("method,error,corrupted,lemma1_pass")

    def test_acts_read_as_prune_and_sweep_read_them(self, tmp_path, capsys):
        path = tmp_path / "acts3d.tensors"
        save_bundle({"W": np.ones((8, 8), dtype=np.float32),
                     "Z": np.ones((8, 2, 2), dtype=np.float32)}, path)
        capsys.readouterr()
        for argv in (["eval"], ["sweep", "--b-range", "0..1"],
                     ["prune", "--out", str(tmp_path / "x"), "--method", "ria"]):
            assert run(*argv, "--in", str(path), "--n", "2", "--m", "4") == 1
            assert capsys.readouterr().err == (
                "error: activation tensor must be a norms vector or a channels x samples batch\n")


class TestSweep:
    def test_rows_and_flags(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="16x16", seed=10)
        capsys.readouterr()
        assert run("sweep", "--in", str(src), "--b-range", "1..4",
                   "--n", "2", "--m", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "B,error,corrupted,min_in_degree,lemma1_pass"
        assert len(lines) == 5
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[0] == str(i)
            assert fields[4] == "true"

    def test_rows_agree_with_eval(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="12x16", profile="dead-columns", seed=4, k=3)
        nm = ["--n", "2", "--m", "4"]
        capsys.readouterr()
        assert run("sweep", "--in", str(src), "--b-range", "0..3", *nm) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]

        def eval_row(method, b):
            assert run("eval", "--in", str(src), "--methods", method, *nm, "--b", str(b)) == 0
            (doc,) = json.loads(capsys.readouterr().out)
            return doc

        for b, (_, error, corrupted, min_in, passed) in enumerate(rows):
            doc = eval_row("eggs", b)
            assert float(error) == doc["error"]
            assert int(corrupted) == doc["corrupted"]
            assert passed == str(doc["lemma1_pass"]).lower()
            out = tmp_path / f"eggs-{b}.tensors"
            assert run("prune", "--in", str(src), "--out", str(out), "--method", "eggs",
                       *nm, "--b", str(b)) == 0
            assert int(min_in) == int(load_bundle(out)["mask"].sum(axis=0).min())
        assert int(rows[0][2]) > 0  # B=0 is plain ria and strands the dead columns
        assert float(rows[0][1]) == eval_row("ria", 0)["error"]

    def test_bad_range_is_usage_error(self, tmp_path):
        src = gen_layer(tmp_path)
        assert run("sweep", "--in", str(src), "--b-range", "4..1",
                   "--n", "2", "--m", "4") == 2

    def test_warnings_print_without_source_location(self, tmp_path):
        """Under Python's default warning display, each clamp warning is one
        `warning: <msg>` line, with no file, line number or source text."""
        src = gen_layer(tmp_path, dims="8x8", profile="dead-columns", seed=13, k=2)
        path = [str(Path(nmprune.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "nmprune.cli", "sweep", "--in", str(src),
             "--b-range", "1..4", "--n", "2", "--m", "4"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            f"warning: connectivity block count {b} exceeds 2 full blocks; clamping"
            for b in (3, 4)
        ]


class TestAlpha:
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["prune", "--out", "x.t", "--method", "magnitude", "--n", "2", "--m", "4"],
        ["prune", "--out", "x.t", "--method", "eggs", "--n", "2", "--m", "4"],
        ["eval", "--n", "2", "--m", "4"],
        ["eval", "--methods", "magnitude", "--n", "2", "--m", "4"],
        ["sweep", "--b-range", "0..2", "--n", "2", "--m", "4"],
    ])
    def test_non_finite_alpha_is_usage_error(self, tmp_path, capsys, command, alpha):
        path = gen_layer(tmp_path)
        capsys.readouterr()
        argv = [command[0], "--in", str(path), *command[1:], "--alpha", alpha]
        argv = [str(tmp_path / a) if a == "x.t" else a for a in argv]
        assert run(*argv) == 2
        assert capsys.readouterr().err == "error: alpha must be finite\n"

    def test_non_finite_alpha_with_a_norms_entry(self, tmp_path, capsys):
        path = tmp_path / "norms.t"
        w = np.random.default_rng(1).standard_normal((8, 8)).astype(np.float32)
        save_bundle({"W": w, "Z": np.ones(8, dtype=np.float32)}, path)
        for command in (["prune", "--out", str(tmp_path / "o.t"), "--method", "ria"], ["eval"],
                        ["sweep", "--b-range", "0..1"]):
            assert run(*command, "--in", str(path), "--n", "2", "--m", "4", "--alpha", "nan") == 2
            assert capsys.readouterr().err == "error: alpha must be finite\n"


class TestScoredOnce:
    """eval and sweep score, permute and order the layer once per command: the
    kernel's validation pass runs once per layout."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for fn in (metrics.layer_sums, partition.order_rows):
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] = counts.get(_fn.__name__, 0) + 1
                return _fn(*args, **kwargs)
            for name, module in list(sys.modules.items()):
                if name == "nmprune" or name.startswith("nmprune."):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        return counts

    def test_sweep_scores_and_orders_once(self, tmp_path, capsys, calls):
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        calls.clear()
        assert run("sweep", "--in", str(path), "--b-range", "0..4", "--n", "2", "--m", "4") == 0
        # ria on the original layout for the permutation, then the permuted layout
        assert calls == {"layer_sums": 2, "order_rows": 1}
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_eval_scores_once(self, tmp_path, capsys, calls):
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        calls.clear()
        assert run("eval", "--in", str(path), "--n", "2", "--m", "4") == 0
        assert calls == {"layer_sums": 2, "order_rows": 1}
        assert len(json.loads(capsys.readouterr().out)) == 4


class TestMemory:
    """tracemalloc peaks of whole commands, the bundle load included. Once
    W_perm exists, prune holds no other full-size weight matrix and streams
    W_pruned and mask_unpermuted; verify keeps only the mask. Each bound
    lies between the peaks measured before and after those changes, except
    magnitude at 1024x1024, which peaks while scoring both before and after."""

    @pytest.fixture(scope="class")
    def layers(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        for dims in ("1024x1024", "2048x2048"):
            assert run("gen", "--out", str(root / dims), "--dims", dims, "--seed", "3") == 0
        return root

    @pytest.mark.parametrize("method, dims, mib", [
        ("eggs", "1024x1024", 16),  # 18.1 MiB before, 14.1 after
        ("ria", "1024x1024", 14),  # 16.0 before, 12.0 after
        ("magnitude", "1024x1024", 11),  # 10.0 before and after
        ("magnitude", "2048x2048", 30),  # 36.3 before, 25.1 after
    ])
    def test_prune(self, layers, tmp_path, capsys, method, dims, mib):
        argv = ["prune", "--in", str(layers / dims), "--out", str(tmp_path / "out.t"),
                "--method", method, "--n", "2", "--m", "4", "--b", "2"]
        assert traced_peak(argv) < mib * 2**20

    def test_verify(self, layers, tmp_path, capsys):
        out = tmp_path / "eggs.t"
        assert run("prune", "--in", str(layers / "1024x1024"), "--out", str(out),
                   "--method", "eggs", "--n", "2", "--m", "4", "--b", "2") == 0
        # 12.0 MiB before, 10.0 after: the load itself holds all 10 MiB of the bundle
        assert traced_peak(["verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "2"]) < (
            11 * 2**20)


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) in (0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeadChannels:
    """A layer with an exactly-zero column and row: every command runs, and
    eggs keeps the dead input channel connected."""

    def test_every_command_runs_and_eggs_keeps_the_channel(self, tmp_path, capsys):
        bundle = load_bundle(gen_layer(tmp_path, dims="16x16", seed=5))
        bundle["W"][:, 5] = 0.0
        bundle["W"][7] = 0.0
        src = tmp_path / "dead.tensors"
        save_bundle(bundle, src)
        nm = ["--n", "2", "--m", "4", "--b", "2"]
        outs = {}
        for method in ("ria", "eggs"):
            outs[method] = tmp_path / f"{method}.tensors"
            assert run("prune", "--in", str(src), "--out", str(outs[method]),
                       "--method", method, *nm) == 0
        assert load_bundle(outs["eggs"])["mask_unpermuted"][:, 5].sum() >= 2
        capsys.readouterr()
        assert run("verify", "--in", str(outs["eggs"]), *nm) == 0
        assert json.loads(capsys.readouterr().out)["min_in_degree"] >= 2
        assert run("eval", "--in", str(src), "--methods", "ria,eggs", *nm) == 0
        ria, eggs = json.loads(capsys.readouterr().out)
        assert ria["corrupted"] >= 1 and eggs["corrupted"] == 0
        assert run("sweep", "--in", str(src), "--b-range", "0..2", "--n", "2", "--m", "4") == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


REFUSALS = [
    pytest.param(["gen", "--out", "{tmp}/x.npz", "--dims", "8x"], 2,
                 "argument --dims: expected ROWSxCOLS, got '8x'", id="dims-empty-side"),
    pytest.param(["gen", "--out", "{tmp}/x.t", "--dims", "4x4", "--seed", "-1"], 2,
                 "seed must be a non-negative integer, got -1", id="negative-seed"),
    pytest.param(["prune", "--in", "{src}", "--out", "{tmp}/x.t", "--method", "ria", "--n", "2",
                  "--m", "4", "--weights", "W"], 2,
                 "unrecognized arguments: --weights W", id="no-weights-flag"),
    pytest.param(["sweep", "--in", "{src}", "--b-range", "1-3", "--n", "2", "--m", "4"], 2,
                 "argument --b-range: expected LO..HI, got '1-3'", id="b-range-separator"),
    pytest.param(["sweep", "--in", "{src}", "--b-range", "a..3", "--n", "2", "--m", "4"], 2,
                 "argument --b-range: expected LO..HI, got 'a..3'", id="b-range-bound"),
    pytest.param(["verify", "--in", "{src}", "--n", "2", "--m", "4", "--c", "half"], 2,
                 "argument --c: expected NUM/DEN, got 'half'", id="c-separator"),
    pytest.param(["verify", "--in", "{src}", "--n", "2", "--m", "4", "--c", "a/4"], 2,
                 "argument --c: expected NUM/DEN, got 'a/4'", id="c-numerator"),
    pytest.param(["verify", "--in", "{src}", "--n", "2", "--m", "4", "--c", "1/0"], 2,
                 "argument --c: expected NUM/DEN, got '1/0'", id="c-zero-denominator"),
    pytest.param(["eval", "--in", "{src}", "--n", "2", "--m", "4", "--csv", "{tmp}"], 1,
                 "cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'",
                 id="csv-unwritable"),
]


@pytest.mark.parametrize("argv, code, message", REFUSALS)
def test_refusals(tmp_path, capsys, argv, code, message):
    names = {"src": str(gen_layer(tmp_path)), "tmp": str(tmp_path)}
    try:
        got = run(*(a.format(**names) for a in argv))
    except SystemExit as exc:  # argparse refuses a malformed value itself
        got = exc.code
    assert got == code
    assert capsys.readouterr().err.endswith(f"error: {message.format(**names)}\n")
