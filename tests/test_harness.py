"""Synthetic generation, reconstruction error, and method comparison."""

import json

import numpy as np
import pytest

from nmprune import (
    ActivationNorms,
    ConfigError,
    DegenerateError,
    PruneConfig,
    compare_methods,
    gen_synthetic,
    importance_select,
    norms_from_batch,
    reconstruction_error,
    reports_to_csv,
    reports_to_json,
)


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(123, 6, 8, "gaussian")
        b = gen_synthetic(123, 6, 8, "gaussian")
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_dead_columns_are_dead(self):
        w, z = gen_synthetic(7, 16, 8, "dead-columns", k=2)
        col_max = np.abs(w).max(axis=0)
        global_max = np.abs(w).max()
        assert (col_max <= 1e-6 * global_max).sum() == 2

    def test_dead_columns_kill_matching_activations(self):
        w, z = gen_synthetic(7, 16, 8, "dead-columns", k=2)
        dead = np.flatnonzero(np.abs(w).max(axis=0) <= 1e-6 * np.abs(w).max())
        norms = norms_from_batch(z).norms
        live = np.setdiff1d(np.arange(8), dead)
        assert norms[dead].max() < 1e-3 * norms[live].min()

    def test_gaussian_mean_bound(self):
        f_out, f_in = 64, 64
        w, _ = gen_synthetic(99, f_out, f_in, "gaussian")
        assert abs(float(w.mean())) <= 5 / np.sqrt(f_out * f_in)

    def test_heavy_tail_profile(self):
        w, z = gen_synthetic(5, 8, 8, "heavy-tail")
        assert w.shape == (8, 8) and z.shape == (8, 32)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            gen_synthetic(1, 4, 4, "cauchy")

    def test_dead_column_count_bounds(self):
        with pytest.raises(ConfigError):
            gen_synthetic(1, 4, 4, "dead-columns", k=4)


class TestReconstructionError:
    def test_all_ones_mask_is_zero(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 6))
        z = rng.standard_normal((6, 5))
        assert reconstruction_error(w, np.ones_like(w, dtype=np.uint8), z) == 0.0

    def test_zero_mask_is_one(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 6))
        z = rng.standard_normal((6, 5))
        assert reconstruction_error(w, np.zeros_like(w, dtype=np.uint8), z) == 1.0

    def test_hand_value(self):
        w = np.eye(2)
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        got = reconstruction_error(w, mask, np.eye(2))
        np.testing.assert_allclose(got, 1 / np.sqrt(2))

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateError):
            reconstruction_error(np.zeros((2, 2)), np.ones((2, 2), dtype=np.uint8), np.eye(2))

    def test_below_one_on_gaussian_layers(self):
        rng = np.random.default_rng(44)
        for seed in range(5):
            w, z = gen_synthetic(seed, 16, 32, "gaussian")
            mask = importance_select(np.abs(w), 2, 4)
            err = reconstruction_error(w, mask, z)
            assert 0.0 < err < 1.0


class TestCompareMethods:
    def test_order_and_fields(self):
        w, z = gen_synthetic(10, 16, 16, "gaussian")
        reports = compare_methods(w, z, PruneConfig(2, 4, 1),
                                  ["eggs", "magnitude", "ria", "wanda"])
        assert [r.method for r in reports] == ["eggs", "magnitude", "ria", "wanda"]
        eggs = reports[0]
        assert eggs.lemma1_pass is True
        assert eggs.corrupted == 0
        assert all(r.lemma1_pass is None for r in reports[1:])

    def test_dead_columns_separate_methods(self):
        w, z = gen_synthetic(11, 16, 32, "dead-columns", k=1)
        reports = compare_methods(w, z, PruneConfig(2, 4, 1))
        by_method = {r.method: r for r in reports}
        assert by_method["eggs"].corrupted == 0
        for name in ("magnitude", "wanda", "ria"):
            assert by_method[name].corrupted >= 1

    def test_single_method_json_has_no_lemma_field(self):
        w, z = gen_synthetic(12, 8, 8, "gaussian")
        reports = compare_methods(w, z, PruneConfig(2, 4, 1), ["ria"])
        doc = json.loads(reports_to_json(reports))
        assert len(doc) == 1 and "lemma1_pass" not in doc[0]

    def test_norms_only_uses_identity_inputs(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        act = ActivationNorms(rng.uniform(0.5, 1.5, size=8))
        reports = compare_methods(w, act, PruneConfig(2, 4, 0), ["magnitude"])
        mask = importance_select(np.abs(w.astype(np.float64)), 2, 4)
        expected = np.linalg.norm(w * (1 - mask)) / np.linalg.norm(w)
        np.testing.assert_allclose(reports[0].error, expected, rtol=1e-6)

    def test_unknown_method_rejected(self):
        w, z = gen_synthetic(1, 8, 8, "gaussian")
        with pytest.raises(ConfigError):
            compare_methods(w, z, PruneConfig(2, 4, 1), ["sparsegpt"])

    def test_json_determinism(self):
        w, z = gen_synthetic(14, 8, 8, "gaussian")
        cfg = PruneConfig(2, 4, 1)
        a = reports_to_json(compare_methods(w, z, cfg))
        b = reports_to_json(compare_methods(w, z, cfg))
        assert a == b

    def test_csv_summary_shape(self):
        w, z = gen_synthetic(15, 8, 8, "gaussian")
        text = reports_to_csv(compare_methods(w, z, PruneConfig(2, 4, 1), ["ria", "eggs"]))
        lines = text.strip().splitlines()
        assert lines[0] == "method,error,corrupted,lemma1_pass"
        assert lines[1].startswith("ria,") and lines[1].endswith(",")
        assert lines[2].startswith("eggs,") and lines[2].endswith(",true")
