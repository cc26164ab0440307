"""CLI contract: exit codes, output files, and stream separation."""

import errno
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helpers
import nmprune
from nmprune import load_bundle, load_permutation, save_bundle
from nmprune import harness, metrics, partition, tensor_store
from nmprune.cli import main
from nmprune.permute import apply_to_columns, unpermute_mask


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

    @pytest.mark.parametrize("method", ["magnitude", "wanda"])
    def test_unpermuted_prune_removes_a_stale_sidecar(self, tmp_path, method):
        src, out = gen_layer(tmp_path), tmp_path / "s.t"
        sidecar = tmp_path / "s.t.perm.json"
        for m in ("eggs", method):
            assert run("prune", "--in", str(src), "--out", str(out), "--method", m,
                       "--n", "2", "--m", "4") == 0
        assert set(load_bundle(out)) == {"mask", "W_pruned"}
        assert not sidecar.exists()

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "ria", "eggs"])
    def test_stale_sidecar_that_cannot_be_removed(self, tmp_path, capsys, monkeypatch, method):
        # a directory at the sidecar path can be neither removed nor replaced:
        # the prune is refused before the old bundle is replaced
        monkeypatch.chdir(tmp_path)
        src = gen_layer(tmp_path)
        other = "magnitude" if method in ("ria", "eggs") else "ria"
        assert run("prune", "--in", str(src), "--out", "s.t", "--method", other,
                   "--n", "2", "--m", "4") == 0
        old = (tmp_path / "s.t").read_bytes()
        (tmp_path / "s.t.perm.json").unlink(missing_ok=True)
        (tmp_path / "s.t.perm.json").mkdir()
        capsys.readouterr()
        assert run("prune", "--in", str(src), "--out", "s.t", "--method", method,
                   "--n", "2", "--m", "4") == 1
        assert capsys.readouterr().err == "error: cannot write s.t.perm.json: Is a directory\n"
        assert (tmp_path / "s.t").read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["layer.tensors", "s.t",
                                                              "s.t.perm.json"]
        # a link to a directory is replaced or removed like any stale sidecar
        (tmp_path / "s.t.perm.json").rename(tmp_path / "d")
        (tmp_path / "s.t.perm.json").symlink_to(tmp_path / "d")
        assert run("prune", "--in", str(src), "--out", "s.t", "--method", method,
                   "--n", "2", "--m", "4") == 0
        link = tmp_path / "s.t.perm.json"
        assert not link.is_symlink() and link.exists() == (method in ("ria", "eggs"))
        assert (tmp_path / "d").is_dir() and not any((tmp_path / "d").iterdir())

    def test_failed_write_reruns_with_identical_stderr(self, tmp_path, capsys):
        # the message names the path asked for, not the random temporary file
        src, out = gen_layer(tmp_path), tmp_path / "missing" / "x.t"
        errs = []
        for _ in range(2):
            capsys.readouterr()
            assert run("prune", "--in", str(src), "--out", str(out), "--method", "ria",
                       "--n", "2", "--m", "4") == 1
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: cannot write {out}: No such file or directory\n"] * 2


class TestPruneReadsWTwice:
    """prune reads W from the input bundle a row block at a time, twice: once to
    score it, once to permute it or to write W_pruned. A small _TOPK_CHUNK gives
    several row blocks and a partial tail."""

    @staticmethod
    def library_prune(src, out, method, cfg):
        """What prune writes, made by prune_with_method on the loaded W, whole."""
        bundle = load_bundle(src)
        res = harness.prune_with_method(bundle["W"], nmprune.norms_from_batch(bundle["Z"]), cfg,
                                        method)
        entries = {"mask": res.mask, "W_pruned": nmprune.apply_mask(res.weights, res.mask)}
        if res.permutation is not None:
            entries["W_perm"] = res.weights
            entries["mask_unpermuted"] = unpermute_mask(res.mask, res.permutation)
            nmprune.save_permutation(res.permutation, f"{out}.perm.json")
        save_bundle(entries, out)

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "ria", "eggs"])
    @pytest.mark.parametrize("dims, profile, chunk", [("13x16", "gaussian", 40),
                                                      ("3x8", "gaussian", 16),  # F_out < M
                                                      ("14x16", "dead-columns", 48)])
    def test_same_bytes_as_the_library_on_the_loaded_array(self, tmp_path, monkeypatch, capsys,
                                                           method, dims, profile, chunk):
        src = gen_layer(tmp_path, dims=dims, profile=profile, seed=11, k=3)
        cfg = nmprune.PruneConfig(2, 4, 2)
        want, got = tmp_path / "want.t", tmp_path / "got.t"

        def clamps():  # eggs clamps a B above the full blocks, with a warning, both times
            clamped = method == "eggs" and dims == "3x8"
            return pytest.warns(UserWarning, match="clamping") if clamped else nullcontext()

        with clamps():
            self.library_prune(src, want, method, cfg)
        monkeypatch.setattr(metrics, "_TOPK_CHUNK", chunk)
        assert len(metrics.row_blocks(*load_bundle(src)["W"].shape)) > 1
        with clamps():
            assert run("prune", "--in", str(src), "--out", str(got), "--method", method,
                       "--n", "2", "--m", "4", "--b", "2") == 0
        assert got.read_bytes() == want.read_bytes()
        sidecars = [Path(f"{path}.perm.json") for path in (got, want)]
        assert [p.exists() for p in sidecars] == [method in ("ria", "eggs")] * 2
        if method in ("ria", "eggs"):
            assert sidecars[0].read_bytes() == sidecars[1].read_bytes()

    @staticmethod
    def refused(tmp_path, capsys, src, method, message):
        """prune into an existing output is refused with ``message``, leaving the
        old bundle and sidecar as they were and no temporary file."""
        out, sidecar = tmp_path / "out.t", tmp_path / "out.t.perm.json"
        out.write_bytes(b"old bundle")
        sidecar.write_bytes(b"old sidecar")
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run("prune", "--in", str(src), "--out", str(out), "--method", method,
                   "--n", "2", "--m", "4", "--b", "2") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (out.read_bytes(), sidecar.read_bytes()) == (b"old bundle", b"old sidecar")
        assert sorted(p.name for p in tmp_path.iterdir()) == before  # no .nmprune-* left

    @pytest.mark.parametrize("method, first_pass", [("ria", "layer_sums"), ("eggs", "layer_sums"),
                                                    ("magnitude", "select_blocks"),
                                                    ("wanda", "select_blocks")])
    def test_input_rewritten_between_the_passes(self, tmp_path, capsys, monkeypatch, method,
                                                first_pass):
        src = gen_layer(tmp_path, dims="12x16")
        layer = {name: array.copy() for name, array in load_bundle(src).items()}
        scored = getattr(harness, first_pass)

        def then_rewrite(*args):
            result = scored(*args)
            save_bundle(layer, src)  # the same bytes, in a new file
            return result

        monkeypatch.setattr(harness, first_pass, then_rewrite)
        monkeypatch.setattr(metrics, "_TOPK_CHUNK", 48)
        self.refused(tmp_path, capsys, src, method,
                     "entry 'W': the file changed after its header was checked")

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "ria", "eggs"])
    def test_nan_in_the_last_row_block(self, tmp_path, capsys, monkeypatch, method):
        src = gen_layer(tmp_path, dims="12x16")
        layer = {name: array.copy() for name, array in load_bundle(src).items()}
        layer["W"][-1, 5] = np.nan
        save_bundle(layer, src)
        monkeypatch.setattr(metrics, "_TOPK_CHUNK", 48)  # three rows per block
        self.refused(tmp_path, capsys, src, method, "weights must be finite")

    @pytest.mark.parametrize("method", ["magnitude", "eggs"])
    def test_uint8_w_as_its_float32_copy(self, tmp_path, capsys, method):
        # W is read in its stored dtype; every entry prune writes is float32 or
        # uint8 as for a float32 W, W_perm included, and eval reads the same numbers
        rng = np.random.default_rng(23)
        z = rng.standard_normal((16, 4)).astype(np.float32)
        w = rng.integers(0, 256, (12, 16)).astype(np.uint8)
        outs = []
        for dtype in (np.uint8, np.float32):
            src, out = tmp_path / f"{dtype.__name__}.t", tmp_path / f"{dtype.__name__}-out.t"
            save_bundle({"W": w.astype(dtype), "Z": z}, src)
            capsys.readouterr()
            assert run("eval", "--in", str(src), "--n", "2", "--m", "4", "--b", "2") == 0
            assert run("prune", "--in", str(src), "--out", str(out), "--method", method,
                       "--n", "2", "--m", "4", "--b", "2") == 0
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", ["ria", "eggs"])
    def test_uint8_w_has_no_float32_copy(self, tmp_path, monkeypatch, method):
        # W_perm is streamed into the bundle as W_pruned is, each block cast to float32
        # as it is written: once the mask is made, prune allocates nothing of the size
        # of W in float32 (4 MiB here); W_perm itself stays uint8
        rng = np.random.default_rng(29)
        src, out = tmp_path / "layer.t", tmp_path / "out.t"
        save_bundle({"W": rng.integers(0, 256, (1024, 1024)).astype(np.uint8),
                     "Z": rng.standard_normal((1024, 4)).astype(np.float32)}, src)
        pruned = harness.prune_with_method

        def then_trace(*args):
            res = pruned(*args)
            assert res.weights.dtype == np.uint8
            tracemalloc.start()
            return res

        monkeypatch.setattr("nmprune.cli.prune_with_method", then_trace)
        try:
            assert run("prune", "--in", str(src), "--out", str(out), "--method", method,
                       "--n", "2", "--m", "4", "--b", "2") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert load_bundle(out)["W_perm"].dtype == np.float32

    def test_caller_array_is_not_permuted(self):
        w, z = nmprune.gen_synthetic(4, 8, 8)
        before = w.copy()
        res = harness.prune_with_method(w, nmprune.norms_from_batch(z),
                                        nmprune.PruneConfig(2, 4, 1), "eggs")
        assert w.tobytes() == before.tobytes()
        assert res.weights.tobytes() == apply_to_columns(w, res.permutation).tobytes()


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mask_reports_no_degrees(self, tmp_path, capsys, value):
        # a NaN or infinite entry is not 0 or 1, and leaves no degree to count: the
        # minima print null, and no numpy warning of the int64 cast gets through
        mask = np.array([[1, 1, 0, 0]] * 4, dtype=np.float32)
        mask[2, 1] = value
        path = tmp_path / "non-finite.tensors"
        save_bundle({"mask": mask}, path)
        assert run("verify", "--in", str(path), "--n", "2", "--m", "4", "--b", "1") == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: mask entries must be 0 or 1",
            "expansion enumeration skipped: the mask is not binary",
        ]
        report = json.loads(captured.out)
        assert report["min_in_degree"] is None and report["min_out_degree"] is None
        assert report["lemma1_pass"] is False and report["a_I"] is None

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


    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_small_mask_over_several_row_blocks_still_enumerates(self, tmp_path, capsys,
                                                                 monkeypatch, dtype):
        src = gen_layer(tmp_path, dims="8x12", seed=4)
        out = tmp_path / "pruned.tensors"
        assert run("prune", "--in", str(src), "--out", str(out),
                   "--method", "eggs", "--n", "2", "--m", "4", "--b", "2") == 0
        mask = load_bundle(out)["mask"].astype(dtype)
        save_bundle({"mask": mask, "W_pruned": load_bundle(out)["W_pruned"]}, out)
        monkeypatch.setattr(metrics, "_TOPK_CHUNK", 24)  # two rows per block, four blocks
        capsys.readouterr()
        assert run("verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "2",
                   "--c", "1/4") == 0
        report = json.loads(capsys.readouterr().out)
        _, out_deg, in_deg = helpers.count_mask_oracle(mask, 2, 4)
        a_in, a_out = helpers.expansion_oracle(mask, Fraction(1, 4))
        assert (report["min_out_degree"], report["min_in_degree"]) == (out_deg.min(), in_deg.min())
        assert report["a_I"] == [a_in.numerator, a_in.denominator]
        assert report["a_O"] == [a_out.numerator, a_out.denominator]


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

    def test_csv_summary_shape(self, tmp_path):
        src = gen_layer(tmp_path, seed=15)
        csv_path = tmp_path / "summary.csv"
        assert run("eval", "--in", str(src), "--methods", "ria,eggs", "--n", "2", "--m", "4",
                   "--b", "1", "--csv", str(csv_path)) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,error,corrupted,lemma1_pass"
        assert lines[1].startswith("ria,") and lines[1].endswith(",")
        assert lines[2].startswith("eggs,") and lines[2].endswith(",true")
        assert len(lines) == 3

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path, capsys, monkeypatch):
        src = gen_layer(tmp_path)
        csv_path = tmp_path / "summary.csv"
        csv_path.write_bytes(b"old summary\n")

        def refuse(*args):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(os, "replace", refuse)
        capsys.readouterr()
        assert run("eval", "--in", str(src), "--n", "2", "--m", "4", "--csv", str(csv_path)) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {csv_path}: {os.strerror(errno.EACCES)}\n")
        assert csv_path.read_bytes() == b"old summary\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["layer.tensors", "summary.csv"]

    def test_single_method_json_has_no_lemma_field(self, tmp_path, capsys):
        src = gen_layer(tmp_path, seed=12)
        capsys.readouterr()
        assert run("eval", "--in", str(src), "--methods", "ria", "--n", "2", "--m", "4") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1 and "lemma1_pass" not in doc[0]

    def test_json_determinism(self, tmp_path, capsys):
        src = gen_layer(tmp_path, seed=14)
        outs = []
        for _ in range(2):
            capsys.readouterr()
            assert run("eval", "--in", str(src), "--n", "2", "--m", "4", "--b", "1") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_acts_read_as_prune_and_sweep_read_them(self, tmp_path, capsys):
        path = tmp_path / "acts3d.tensors"
        save_bundle({"W": np.ones((8, 8), dtype=np.float32),
                     "Z": np.ones((8, 2, 2), dtype=np.float32)}, path)
        capsys.readouterr()
        prune = ["prune", "--out", str(tmp_path / "x"), "--method"]
        for argv in (["eval"], ["eval", "--methods", "magnitude"], ["sweep", "--b-range", "0..1"],
                     [*prune, "ria"], [*prune, "magnitude"]):
            assert run(*argv, "--in", str(path), "--n", "2", "--m", "4") == 1
            assert capsys.readouterr().err == (
                "error: activation tensor must be a norms vector or a channels x samples batch\n")

    def test_each_row_as_in_the_four_method_eval(self, tmp_path, capsys):
        """A method's report does not depend on the others asked for: every
        command reads the batch whenever the bundle holds one."""
        src = gen_layer(tmp_path, dims="16x16", seed=3)
        nm = ["--n", "2", "--m", "4", "--b", "2"]
        capsys.readouterr()
        assert run("eval", "--in", str(src), *nm) == 0
        together = json.loads(capsys.readouterr().out)
        for row in together:
            assert run("eval", "--in", str(src), "--methods", row["method"], *nm) == 0
            assert json.loads(capsys.readouterr().out) == [row]

    def test_indivisible_width_one_refusal(self, tmp_path, capsys):
        src = gen_layer(tmp_path, dims="8x6")
        prune = ["prune", "--out", str(tmp_path / "x"), "--method"]
        capsys.readouterr()
        for argv in (["eval", "--methods", "magnitude"], ["eval", "--methods", "ria"], ["eval"],
                     ["sweep", "--b-range", "0..2"],
                     *([*prune, method] for method in ("magnitude", "ria", "eggs"))):
            assert run(*argv, "--in", str(src), "--n", "2", "--m", "4") == 1
            assert capsys.readouterr().err == "error: 6 columns not divisible by window width 4\n"


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


    @pytest.mark.parametrize("command", [
        ["prune", "--out", "x.t", "--method", "ria", "--n", "2", "--m", "4"],
        ["prune", "--out", "x.t", "--method", "eggs", "--n", "2", "--m", "4"],
        ["eval", "--n", "2", "--m", "4"],
        ["sweep", "--b-range", "0..2", "--n", "2", "--m", "4"],
    ])
    def test_overflowing_alpha_is_one_refusal(self, tmp_path, capsys, command):
        # a gen layer's norms are about sqrt(32), so norms**1000 overflows to inf
        path = gen_layer(tmp_path)
        capsys.readouterr()
        argv = [command[0], "--in", str(path), *command[1:], "--alpha", "1000"]
        argv = [str(tmp_path / a) if a == "x.t" else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a numpy warning would print a line of its own
            assert run(*argv) == 1
        assert capsys.readouterr().err == "error: activation norms**alpha must be finite\n"

    @pytest.mark.parametrize("method", ["magnitude", "wanda"])
    def test_overflowing_alpha_is_ignored_where_unused(self, tmp_path, capsys, method):
        path = gen_layer(tmp_path)
        outs = []
        for alpha in ("0.5", "1000"):
            outs.append(tmp_path / f"{alpha}.t")
            assert run("prune", "--in", str(path), "--out", str(outs[-1]), "--method", method,
                       "--n", "2", "--m", "4", "--alpha", alpha) == 0
            assert run("eval", "--in", str(path), "--methods", method, "--n", "2", "--m", "4",
                       "--alpha", alpha) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        runs = capsys.readouterr().out.splitlines()
        assert len(runs) == 2 and runs[0] == runs[1]


class TestScoredOnce:
    """prune, eval and sweep score, permute and plan the layer once per
    command: the kernel's first pass, layer_sums, runs once, on W, and
    takes the channel scores too; the second pass gathers each row block of
    W into W_perm and scores it there, from W's sums, permuted, so |W| is
    widened in two passes in all; eggs adds each block's rri over every
    group in that pass and plans its groups from those sums as they come,
    in one plan_groups call, whatever the Bs. How often each command reads
    W and Z from the bundle is pinned, so no pass is added unnoticed."""

    @staticmethod
    def count(monkeypatch, *fns) -> dict:
        """Calls of each of ``fns`` by name, wherever nmprune's modules hold it."""
        counts = {}
        for fn in fns:
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] = counts.get(_fn.__name__, 0) + 1
                return _fn(*args, **kwargs)
            for name, module in list(sys.modules.items()):
                if name == "nmprune" or name.startswith("nmprune."):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        return counts

    @pytest.fixture
    def calls(self, monkeypatch):
        return self.count(monkeypatch, metrics.layer_sums, partition.order_rows,
                          partition.plan_groups)

    def test_sweep_scores_and_orders_once(self, tmp_path, capsys, calls):
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        calls.clear()
        assert run("sweep", "--in", str(path), "--b-range", "0..4", "--n", "2", "--m", "4") == 0
        assert calls == {"layer_sums": 1, "order_rows": 1, "plan_groups": 1}
        assert len(capsys.readouterr().out.splitlines()) == 6

    @pytest.mark.parametrize("argv", [["prune", "--out", "x.t", "--method", "ria"],
                                      ["eval", "--methods", "ria"]])
    def test_width_refused_before_scoring(self, tmp_path, capsys, monkeypatch, calls, argv):
        # ria refuses a width that M does not divide before it scores, like magnitude
        monkeypatch.chdir(tmp_path)
        path = gen_layer(tmp_path, dims="8x6")
        calls.clear()
        capsys.readouterr()
        assert run(*argv, "--in", str(path), "--n", "2", "--m", "4") == 1
        assert capsys.readouterr().err == "error: 6 columns not divisible by window width 4\n"
        assert calls == {}

    def test_width_refused_before_any_pass(self, tmp_path, capsys, monkeypatch):
        # magnitude's mask refuses the width, as every method does, before any
        # pass goes over W: no block is checked, no error, reference or absolute sum taken
        path = gen_layer(tmp_path, dims="8x6")
        counts = self.count(monkeypatch, metrics.check_weights, harness._masked_sums)
        capsys.readouterr()
        assert run("eval", "--in", str(path), "--methods", "magnitude", "--n", "2", "--m", "4") == 1
        assert capsys.readouterr().err == "error: 6 columns not divisible by window width 4\n"
        assert counts == {}

    def test_eval_scores_once(self, tmp_path, capsys, calls):
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        calls.clear()
        assert run("eval", "--in", str(path), "--n", "2", "--m", "4") == 0
        assert calls == {"layer_sums": 1, "order_rows": 1, "plan_groups": 1}
        assert len(json.loads(capsys.readouterr().out)) == 4

    @pytest.mark.parametrize("method", ["ria", "eggs"])
    def test_prune_scores_once(self, tmp_path, calls, method):
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        calls.clear()
        assert run("prune", "--in", str(path), "--out", str(tmp_path / "o.t"), "--method", method,
                   "--b", "2", "--n", "2", "--m", "4") == 0
        # eggs plans its groups once, and orders its rows once inside plan_groups
        planned = {"order_rows": 1, "plan_groups": 1} if method == "eggs" else {}
        assert calls == {"layer_sums": 1, **planned}


    @pytest.mark.parametrize("argv", [["prune", "--out", "o.t", "--method", "ria", "--b", "2"],
                                      ["prune", "--out", "o.t", "--method", "eggs", "--b", "2"],
                                      ["eval", "--methods", "ria,eggs", "--b", "2"],
                                      ["sweep", "--b-range", "0..4"]])
    def test_two_passes_over_the_layer(self, tmp_path, monkeypatch, argv):
        # one pass over W for its column sums and channel scores, one that gathers and scores W_perm
        monkeypatch.chdir(tmp_path)
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        passes = self.count(monkeypatch, metrics.abs_blocks)
        assert run(*argv, "--in", str(path), "--n", "2", "--m", "4") == 0
        assert passes == {"abs_blocks": 2}

    @classmethod
    def reads(cls, tmp_path, monkeypatch, argv, z) -> dict:
        """How often ``argv`` opens each entry of a layer bundle whose Z is the
        calibration batch, its norms vector or, for z None, absent. W's row
        blocks are checked once per read of W, and W_perm's never: it is
        gathered from W's checked blocks."""
        monkeypatch.chdir(tmp_path)
        path = gen_layer(tmp_path, dims="32x32", profile="dead-columns", k=3)
        layer = load_bundle(path)
        z_entry = {"batch": {"Z": layer["Z"]}, "norms": {"Z": np.linalg.norm(layer["Z"], axis=1)},
                   None: {}}[z]
        save_bundle({"W": layer["W"], **z_entry}, path)
        opened, open_entry = [], tensor_store.Bundle._open
        monkeypatch.setattr(tensor_store.Bundle, "_open",
                            lambda bundle, name: opened.append(name) or open_entry(bundle, name))
        checks = cls.count(monkeypatch, metrics.check_weights)
        assert run(*argv, "--in", str(path), "--n", "2", "--m", "4") == 0
        assert checks == {"check_weights": opened.count("W")}  # 32x32: one block per read
        return {name: opened.count(name) for name in opened}

    @pytest.mark.parametrize("argv, reads", [
        *[(["prune", "--out", "o.t", "--method", method, "--b", "2"], 2)
          for method in nmprune.METHODS],
        # W's reference, which also sums |W|, and magnitude's and wanda's mask and error
        # passes; then, as for ria and eggs alone, W's sums, with sum |W|, and the gather of W_perm
        (["eval", "--b", "2"], 7),
        (["eval", "--methods", "ria,eggs", "--b", "2"], 2),
        (["sweep", "--b-range", "0..4"], 2),
        (["eval", "--methods", "magnitude"], 3),
        (["eval", "--methods", "ria,magnitude", "--b", "2"], 5),
    ])
    def test_reads_of_each_entry(self, tmp_path, monkeypatch, argv, reads):
        # every pass over W opens the bundle anew and streams W's row blocks; Z is read once
        assert self.reads(tmp_path, monkeypatch, argv, "batch") == {"W": reads, "Z": 1}

    @pytest.mark.parametrize("argv, z, reads", [
        (["eval", "--methods", "magnitude"], None, 3),
        (["eval", "--b", "2"], "norms", 7),
        (["sweep", "--b-range", "0..4"], "norms", 2),
    ])
    def test_reads_without_a_batch(self, tmp_path, monkeypatch, argv, z, reads):
        # a W-only bundle has no Z to open; a norms vector is read once, as a batch is
        want = {"W": reads, "Z": 1} if z else {"W": reads}
        assert self.reads(tmp_path, monkeypatch, argv, z) == want


class TestMemory:
    """tracemalloc peaks of whole commands, the bundle load included. prune,
    eval and sweep read W a row block at a time and never hold it whole: ria
    and eggs hold W_perm, magnitude and wanda only the mask, and W_pruned and
    mask_unpermuted are streamed; eval and sweep take every mask and error
    sum from W's blocks too; verify reads only the mask, a row block at a
    time. Each bound lies between the peaks measured before and after those
    changes, except ria and eggs at 1024x1024, which peak while scoring
    W_perm both before and after: their bounds sit just above that peak."""

    @pytest.fixture(scope="class")
    def layers(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        for dims in ("1024x1024", "2048x2048"):
            assert run("gen", "--out", str(root / dims), "--dims", dims, "--seed", "3") == 0
        return root

    @pytest.mark.parametrize("method, dims, mib", [
        ("eggs", "1024x1024", 13),  # 12.0 MiB with W read whole and with W read in blocks
        ("ria", "1024x1024", 11),  # 10.0 with W read whole and in blocks
        ("ria", "2048x2048", 29),  # 32.4 with W and W_perm both held, 25.2 with W_perm alone
        ("magnitude", "1024x1024", 6),  # 7.9 with W held, 4.9 with only the mask
        ("wanda", "1024x1024", 6),  # 7.9 with W held, 4.9 with only the mask
        ("magnitude", "2048x2048", 16),  # 23.1 with W held, 8.1 with only the mask
    ])
    def test_prune(self, layers, tmp_path, capsys, method, dims, mib):
        argv = ["prune", "--in", str(layers / dims), "--out", str(tmp_path / "out.t"),
                "--method", method, "--n", "2", "--m", "4", "--b", "2"]
        code, peak = helpers.traced_peak(main, argv)
        assert code in (0, 1) and peak < mib * 2**20

    def test_eval(self, layers, capsys):
        # 22.7 MiB with eval's full-size float64 copies, 18.3 with its row-block sums,
        # 16.9 with W held beside W_perm, 12.9 with W read in row blocks
        argv = ["eval", "--in", str(layers / "1024x1024"), "--n", "2", "--m", "4", "--b", "2"]
        code, peak = helpers.traced_peak(main, argv)
        assert code == 0 and peak < 15 * 2**20

    def test_sweep(self, layers, capsys):
        # 16.7 MiB with W held beside W_perm, 12.7 with W read in row blocks
        argv = ["sweep", "--in", str(layers / "1024x1024"), "--b-range", "0..4", "--n", "2",
                "--m", "4"]
        code, peak = helpers.traced_peak(main, argv)
        assert code == 0 and peak < 15 * 2**20

    @pytest.mark.parametrize("method", nmprune.METHODS)
    def test_prune_frees_the_batch_before_reading_w(self, tmp_path, monkeypatch, method):
        # prune takes the batch's norms and drops the batch: the Bundle, which W's
        # row blocks keep open, holds no entry, so Z is gone before any pass over W
        path = gen_layer(tmp_path, dims="32x32")
        batches, alive = [], []
        index, open_entry = tensor_store.Bundle.__getitem__, tensor_store.Bundle._open

        def indexed(bundle, name):
            entry = index(bundle, name)
            if name == "Z":
                batches.append(weakref.ref(entry))
            return entry

        def opened(bundle, name):
            if name == "W":
                alive.append(batches[0]() is not None)
            return open_entry(bundle, name)

        monkeypatch.setattr(tensor_store.Bundle, "__getitem__", indexed)
        monkeypatch.setattr(tensor_store.Bundle, "_open", opened)
        assert run("prune", "--in", str(path), "--out", str(tmp_path / "out.t"),
                   "--method", method, "--n", "2", "--m", "4", "--b", "2") == 0
        assert len(batches) == 1 and alive == [False, False]

    def test_verify(self, layers, tmp_path, capsys):
        out = tmp_path / "eggs.t"
        assert run("prune", "--in", str(layers / "1024x1024"), "--out", str(out),
                   "--method", "eggs", "--n", "2", "--m", "4", "--b", "2") == 0
        # 10.0 MiB when the whole bundle was read, 0.8 with one row block of
        # the mask read at a time: less than the 1 MiB mask entry itself
        argv = ["verify", "--in", str(out), "--n", "2", "--m", "4", "--b", "2"]
        code, peak = helpers.traced_peak(main, argv)
        assert code in (0, 1) and peak < 1 * 2**20


class TestDeadChannels:
    """A layer with an exactly-zero column and row: every command runs, and
    eggs keeps the dead input channel connected."""

    def test_every_command_runs_and_eggs_keeps_the_channel(self, tmp_path, capsys):
        layer = dict(load_bundle(gen_layer(tmp_path, dims="16x16", seed=5)))
        layer["W"][:, 5] = 0.0
        layer["W"][7] = 0.0
        src = tmp_path / "dead.tensors"
        save_bundle(layer, src)
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
                 "cannot write {tmp}: Is a directory",
                 id="csv-unwritable"),
    # a bundle without Z: the harness refuses each method that needs activations
    pytest.param(["prune", "--in", "{w_only}", "--out", "{tmp}/x.t", "--method", "eggs", "--n",
                  "2", "--m", "4"], 2, "method 'eggs' requires activation norms",
                 id="prune-eggs-no-acts"),
    pytest.param(["eval", "--in", "{w_only}", "--methods", "ria", "--n", "2", "--m", "4"], 2,
                 "method 'ria' requires activation norms", id="eval-ria-no-acts"),
    pytest.param(["sweep", "--in", "{w_only}", "--b-range", "0..1", "--n", "2", "--m", "4"], 2,
                 "method 'eggs' requires activation norms", id="sweep-no-acts"),
    # a W that is not a matrix is refused before any method reads its columns
    pytest.param(["prune", "--in", "{flat}", "--out", "{tmp}/x.t", "--method", "ria", "--n", "2",
                  "--m", "4"], 1, "weights must be a 2-D matrix with at least one row and column",
                 id="prune-ria-1-d-w"),
    pytest.param(["prune", "--in", "{scalar}", "--out", "{tmp}/x.t", "--method", "eggs", "--n",
                  "2", "--m", "4"], 1,
                 "weights must be a 2-D matrix with at least one row and column",
                 id="prune-eggs-0-d-w"),
    pytest.param(["eval", "--in", "{flat}", "--methods", "ria", "--n", "2", "--m", "4"], 1,
                 "weights must be a 2-D matrix with at least one row and column",
                 id="eval-ria-1-d-w"),
    pytest.param(["sweep", "--in", "{flat}", "--b-range", "0..1", "--n", "2", "--m", "4"], 1,
                 "weights must be a 2-D matrix with at least one row and column",
                 id="sweep-1-d-w"),
]


@pytest.mark.parametrize("argv, code, message", REFUSALS)
def test_refusals(tmp_path, capsys, argv, code, message):
    names = {"src": str(gen_layer(tmp_path)), "tmp": str(tmp_path),
             "w_only": str(tmp_path / "w_only.t"), "flat": str(tmp_path / "flat.t"),
             "scalar": str(tmp_path / "scalar.t")}
    layer = load_bundle(names["src"])
    save_bundle({"W": layer["W"]}, names["w_only"])
    save_bundle({"W": layer["W"][0], "Z": layer["Z"]}, names["flat"])
    save_bundle({"W": layer["W"][0, 0], "Z": layer["Z"]}, names["scalar"])
    try:
        got = run(*(a.format(**names) for a in argv))
    except SystemExit as exc:  # argparse refuses a malformed value itself
        got = exc.code
    assert got == code
    assert capsys.readouterr().err.endswith(f"error: {message.format(**names)}\n")
