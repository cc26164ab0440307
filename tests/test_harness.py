"""Synthetic generation, reconstruction error, and method comparison."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import (
    METHODS,
    PROFILES,
    ActivationNorms,
    ConfigError,
    NMPruneError,
    PruneConfig,
    compare_methods,
    gen_synthetic,
    norms_from_batch,
    prune_with_method,
    reconstruction_error,
    reports_to_csv,
    reports_to_json,
)
from nmprune.harness import sweep_blocks
from nmprune.masks import importance_select


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
        with pytest.raises(NMPruneError, match="reference output is identically zero"):
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
        reports = compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1),
                                  ["eggs", "magnitude", "ria", "wanda"], z)
        assert [r.method for r in reports] == ["eggs", "magnitude", "ria", "wanda"]
        eggs = reports[0]
        assert eggs.lemma1_pass is True
        assert eggs.corrupted == 0
        assert all(r.lemma1_pass is None for r in reports[1:])

    def test_dead_columns_separate_methods(self):
        w, z = gen_synthetic(11, 16, 32, "dead-columns", k=1)
        reports = compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1), z=z)
        by_method = {r.method: r for r in reports}
        assert by_method["eggs"].corrupted == 0
        for name in ("magnitude", "wanda", "ria"):
            assert by_method[name].corrupted >= 1

    def test_single_method_json_has_no_lemma_field(self):
        w, z = gen_synthetic(12, 8, 8, "gaussian")
        reports = compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1), ["ria"], z)
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
            compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1), ["sparsegpt"], z)

    def test_json_determinism(self):
        w, z = gen_synthetic(14, 8, 8, "gaussian")
        cfg = PruneConfig(2, 4, 1)
        a = reports_to_json(compare_methods(w, norms_from_batch(z), cfg, z=z))
        b = reports_to_json(compare_methods(w, norms_from_batch(z), cfg, z=z))
        assert a == b

    def test_csv_summary_shape(self):
        w, z = gen_synthetic(15, 8, 8, "gaussian")
        text = reports_to_csv(compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1),
                                              ["ria", "eggs"], z))
        lines = text.strip().splitlines()
        assert lines[0] == "method,error,corrupted,lemma1_pass"
        assert lines[1].startswith("ria,") and lines[1].endswith(",")
        assert lines[2].startswith("eggs,") and lines[2].endswith(",true")


class TestSharedLayer:
    """compare_methods and sweep_blocks score the layer once; every field and
    warning must equal a method-by-method, B-by-B run."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(PROFILES),
           st.sampled_from([(16, 16), (10, 16), (3, 8), (8, 24)]),
           st.sampled_from([(1, 4), (2, 4), (2, 8), (4, 8)]),
           st.lists(st.sampled_from(METHODS), min_size=1, max_size=6), st.integers(0, 5),
           st.integers(0, 5), st.booleans(), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_method_loop(self, seed, profile, shape, nm, methods, b, b_hi, batch,
                                     alpha):
        (f_out, f_in), (n, m) = shape, nm  # every f_in is a multiple of every m
        w, z = gen_synthetic(seed, f_out, f_in, profile, k=1)
        norms = norms_from_batch(z, alpha)
        if not batch:
            norms, z = ActivationNorms(norms.norms[::-1].copy(), alpha), None
        cfg = PruneConfig(n, m, b)
        want = helpers.outcome(helpers.compare_methods_oracle, w, norms, cfg, methods, z)
        assert helpers.outcome(compare_methods, w, norms, cfg, methods, z) == want
        bs = range(min(b, b_hi), b_hi + 1)  # b_hi = 5 is above every shape's full blocks
        want = helpers.outcome(helpers.sweep_oracle, w, norms, n, m, bs, z)
        assert helpers.outcome(sweep_blocks, w, norms, n, m, bs, z) == want

    def test_errors_match_per_method_loop(self):
        w = np.zeros((4, 4), dtype=np.float32)
        w[:, 0] = 1.0
        norms = ActivationNorms(np.ones(4))
        for methods in (["magnitude"], ["ria"], ["wanda", "magnitude"]):
            for z in (None, np.zeros((4, 2), dtype=np.float32), np.ones((3, 2))):
                args = (w, norms, PruneConfig(2, 4, 1), methods, z)
                want = helpers.outcome(helpers.compare_methods_oracle, *args)
                assert helpers.outcome(compare_methods, *args) == want

    def test_without_norms(self):
        w, z = gen_synthetic(3, 8, 8, "gaussian")
        for methods in (["magnitude"], ["magnitude", "eggs"]):
            args = (w, None, PruneConfig(2, 4, 1), methods, z)
            want = helpers.outcome(helpers.compare_methods_oracle, *args)
            assert helpers.outcome(compare_methods, *args) == want
        with pytest.raises(NMPruneError, match="pass a batch as z"):
            compare_methods(w, z, PruneConfig(2, 4, 1))


class TestMemory:
    """Scoring goes row block by row block: no full-size float64 |W|, ria or
    rri is held, and order_rows sorts a chunk of groups at a time. W itself,
    made before tracing starts, is not counted."""

    @pytest.mark.parametrize("method, mib", [("eggs", 15), ("ria", 13), ("magnitude", 7),
                                             ("wanda", 7)])
    def test_traced_peak_of_a_1024_prune(self, method, mib):
        w, z = gen_synthetic(3, 1024, 1024)
        norms = norms_from_batch(z)
        tracemalloc.start()
        try:
            prune_with_method(w, norms, PruneConfig(2, 4, 2), method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


REFUSALS = [
    pytest.param(lambda: gen_synthetic(0, 0, 4), ConfigError, "dimensions must be at least 1",
                 id="no-rows"),
    pytest.param(lambda: gen_synthetic(0, 4, 0), ConfigError, "dimensions must be at least 1",
                 id="no-columns"),
    pytest.param(lambda: gen_synthetic(-1, 4, 4), ConfigError,
                 "seed must be a non-negative integer, got -1", id="negative-seed"),
    pytest.param(lambda: norms_from_batch(np.ones(4)), NMPruneError,
                 "calibration batch must be channels x samples", id="1-d-batch"),
    pytest.param(lambda: reconstruction_error(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 1))),
                 NMPruneError, "mask shape (2, 3) does not match weights shape (2, 2)",
                 id="mask-shape"),
    pytest.param(lambda: prune_with_method(np.ones((4, 4)), None, PruneConfig(2, 4), "random"),
                 ConfigError, "unknown method 'random'", id="unknown-method"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    assert helpers.outcome(call)[0] == (error, message)
