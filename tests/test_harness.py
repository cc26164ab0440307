"""Synthetic generation, reconstruction error, and method comparison."""

import warnings
from unittest import mock

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
)
from nmprune import graphs, harness, metrics
from nmprune.harness import sweep_blocks
from nmprune.metrics import BlockSource
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

    @given(st.integers(0, 2**32 - 1), st.sampled_from(PROFILES),
           st.sampled_from([(32, 32), (33, 17), (7, 1), (1, 9), (5, 40)]), st.integers(1, 8),
           st.sampled_from([1, 5, 64, 1 << 18]))
    @settings(max_examples=150, deadline=None)
    def test_row_blocks_draw_the_whole_matrix_bits(self, seed, profile, shape, k, chunk):
        # a small _TOPK_CHUNK splits the draw into many row blocks, or one row per block
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got, _ = helpers.outcome(gen_synthetic, seed, *shape, profile, k)
        want, _ = helpers.outcome(helpers.gen_synthetic_oracle, seed, *shape, profile, k)
        if isinstance(want[0], np.ndarray):
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                [(a.dtype, a.shape, a.tobytes()) for a in want]
        else:  # a dead-columns k that F_in cannot hold, refused by both
            assert got == want


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


class TestMultiBlock:
    """A small _TOPK_CHUNK splits every error, retained and reference sum into
    many row blocks. Masks and integer fields equal the whole-matrix oracles';
    error and retained_fraction agree to a relative 1e-12, since the blocks'
    sums are added in another order. With one block they agree exactly."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(32, 32), (30, 16), (32, 8)]),
           st.sampled_from([1, 2, 3]), st.sampled_from([True, False]),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([1, 7, 100, 1 << 18]))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_error(self, seed, shape, samples, binary, dtype, chunk):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(shape).astype(dtype)
        mask = (rng.integers(0, 2, size=shape, dtype=np.uint8) if binary
                else rng.uniform(0.0, 1.0, size=shape))
        z = rng.standard_normal((shape[1], samples)).astype(dtype)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got = reconstruction_error(w, mask, z)
        want = helpers.reconstruction_error_oracle(w, mask, z)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if chunk >= w.size:
            assert got == want

    @given(st.integers(0, 2**32 - 1), st.sampled_from(PROFILES),
           st.sampled_from([(32, 32), (30, 32), (32, 8)]),
           st.sampled_from([(1, 4), (2, 4), (4, 8)]),
           st.lists(st.sampled_from(METHODS), min_size=1, max_size=4), st.integers(0, 3),
           st.booleans(), st.sampled_from([8, 32, 100, 1000]))
    @settings(max_examples=60, deadline=None)
    def test_compare_and_sweep(self, seed, profile, shape, nm, methods, b, batch, chunk):
        # b stays within every shape's full blocks; TestSharedLayer covers the clamp
        (f_out, f_in), (n, m) = shape, nm
        w, z = gen_synthetic(seed, f_out, f_in, profile, k=2)
        norms, z = norms_from_batch(z), z if batch else None
        cfg, bs = PruneConfig(n, m, b), range(b + 1)
        want = helpers.compare_methods_oracle(w, norms, cfg, methods, z)
        want_sweep = helpers.sweep_oracle(w, norms, n, m, bs, z)
        whole = [prune_with_method(w, norms, cfg, method).mask for method in methods]
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got = compare_methods(w, norms, cfg, methods, z)
            got_sweep = sweep_blocks(w, norms, n, m, bs, z)
            results = [prune_with_method(w, norms, cfg, method) for method in methods]
            # eval's error is reconstruction_error of the pruned layer, bit for bit
            errors = [reconstruction_error(res.weights, res.mask, z if res.permutation is None
                                           else z[res.permutation.forward])
                      for res in results] if batch else [r.error for r in got]
        for mask, res in zip(whole, results):
            np.testing.assert_array_equal(res.mask, mask)
        assert [r.error for r in got] == errors
        for got_reports, want_reports in ((got, want), (got_sweep, want_sweep)):
            assert [(r.method, r.corrupted, r.min_in_degree, r.lemma1_pass) for r in got_reports] \
                == [(r.method, r.corrupted, r.min_in_degree, r.lemma1_pass) for r in want_reports]
            for field in ("error", "retained_fraction"):
                np.testing.assert_allclose([getattr(r, field) for r in got_reports],
                                           [getattr(r, field) for r in want_reports],
                                           rtol=1e-12, atol=0)


class TestBlockSource:
    """prune_with_method, compare_methods, sweep_blocks and reconstruction_error
    take W as a BlockSource whose blocks can be read again, in blocks of any
    height, and return what they return for the array."""

    @pytest.mark.parametrize("method", METHODS)
    def test_source_prunes_as_the_array(self, method):
        w, z = gen_synthetic(6, 11, 16, "dead-columns", k=2)
        norms, cfg = norms_from_batch(z), PruneConfig(2, 4, 2)
        source = BlockSource(w.dtype, w.shape, [w[:4], w[4:5], w[5:]])
        want = prune_with_method(w, norms, cfg, method)
        got = prune_with_method(source, norms, cfg, method)
        assert got.mask.tobytes() == want.mask.tobytes()
        assert got.permutation == want.permutation
        if want.permutation is None:  # the layer as given, to be read again
            assert got.weights is source
        else:
            assert got.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "identity"])
    @pytest.mark.parametrize("tiling", ["row-blocks", "other-heights"])
    def test_source_reports_as_the_array(self, monkeypatch, tiling, batch):
        w, batch_z = gen_synthetic(6, 11, 16, "dead-columns", k=2)
        norms, cfg, z = norms_from_batch(batch_z), PruneConfig(2, 4, 2), batch_z if batch else None
        monkeypatch.setattr(metrics, "_TOPK_CHUNK", 48)  # three rows per block, and a tail of two
        # row_blocks' slices are the blocks Bundle.rows yields, and every sum adds as for the array
        blocks = ([w[rows] for rows in metrics.row_blocks(*w.shape)] if tiling == "row-blocks"
                  else [w[:4], w[4:5], w[5:]])
        source = BlockSource(w.dtype, w.shape, blocks)
        mask = prune_with_method(w, norms, cfg, "wanda").mask
        pairs = [(compare_methods(source, norms, cfg, METHODS, z),
                  compare_methods(w, norms, cfg, METHODS, z)),
                 (sweep_blocks(source, norms, 2, 4, range(3), z),
                  sweep_blocks(w, norms, 2, 4, range(3), z))]
        errors = (reconstruction_error(source, mask, batch_z),
                  reconstruction_error(w, mask, batch_z))
        for got, want in pairs:
            exact = [(r.method, r.corrupted, r.min_in_degree, r.lemma1_pass) for r in got]
            assert exact == [(r.method, r.corrupted, r.min_in_degree, r.lemma1_pass) for r in want]
            # blocks of other heights add their sums in another order
            np.testing.assert_allclose([(r.error, r.retained_fraction) for r in got],
                                       [(r.error, r.retained_fraction) for r in want], rtol=1e-12)
        np.testing.assert_allclose(*errors, rtol=1e-12)
        if tiling == "row-blocks":
            assert [got for got, _ in pairs] == [want for _, want in pairs]
            assert errors[0] == errors[1]


class TestAbsoluteSum:
    """retained_fraction divides by sum |W| from W's first pass (layer_sums) for
    ria and eggs, and from W's reference pass for magnitude and wanda. Both add
    each row block's sum in block order, so they are _masked_sums' own float,
    bit for bit, for an array in either memory order and for row blocks of any
    heights."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "dead-columns", "one-column"]),
           st.integers(1, 24), st.integers(2, 24),
           st.sampled_from(["array", "fortran", "row-blocks", "one-row", "growing"]),
           st.sampled_from([8, 48, 1 << 18]), st.booleans(),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_three_sums_are_one_float(self, seed, layer, f_out, f_in, given_as, chunk, batch,
                                      dtype):
        # float64 weights, whose sums round, tell one order of addition from another
        rng = np.random.default_rng(seed)
        f_in = 1 if layer == "one-column" else f_in
        w = rng.standard_normal((f_out, f_in)).astype(dtype)
        if layer == "dead-columns":  # exact-zero rows and columns, one cell left alive
            rows, cols = rng.random(f_out) < 0.3, rng.random(f_in) < 0.3
            rows[rng.integers(f_out)] = cols[rng.integers(f_in)] = False
            w[rows], w[:, cols] = 0.0, 0.0
        z = rng.standard_normal((f_in, 3)).astype(np.float32) if batch else None
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            if given_as == "array":
                source = w
            elif given_as == "fortran":
                source = np.asfortranarray(w)
            else:
                # row_blocks' slices; one row each; or heights 1, 2, 3, ..., the first the smallest
                cuts = {"row-blocks": [r.start for r in metrics.row_blocks(f_out, f_in)],
                        "one-row": range(f_out),
                        "growing": [k * (k + 1) // 2 for k in range(f_out)]}[given_as]
                source = BlockSource(w.dtype, w.shape, np.split(w, [c for c in cuts if 0 < c < f_out]))
            sums = (metrics.layer_sums(source, ActivationNorms(np.ones(f_in)))[3],
                    harness._reference(metrics.weight_blocks(source), z, f_in)[2],
                    harness._masked_sums(metrics.weight_blocks(source), None, None)[1])
        assert len({s.hex() for s in sums}) == 1, sums


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

    def test_norms_only_uses_identity_inputs(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        act = ActivationNorms(rng.uniform(0.5, 1.5, size=8))
        reports = compare_methods(w, act, PruneConfig(2, 4, 0), ["magnitude"])
        mask = importance_select(np.abs(w.astype(np.float64)), 2, 4)
        expected = np.linalg.norm(w * (1 - mask)) / np.linalg.norm(w)
        np.testing.assert_allclose(reports[0].error, expected, rtol=1e-6)

    @pytest.mark.parametrize("make", [iter, lambda names: (name for name in names)],
                             ids=["iterator", "generator"])
    def test_methods_are_read_once(self, make):
        w, z = gen_synthetic(12, 8, 8, "gaussian")
        norms, cfg = norms_from_batch(z), PruneConfig(2, 4, 1)
        reports = compare_methods(w, norms, cfg, make(["ria", "eggs"]), z)
        assert reports == compare_methods(w, norms, cfg, ["ria", "eggs"], z)
        assert [r.method for r in reports] == ["ria", "eggs"]

    def test_unknown_method_rejected(self):
        w, z = gen_synthetic(1, 8, 8, "gaussian")
        with pytest.raises(ConfigError):
            compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1), ["sparsegpt"], z)


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

    def test_reports_do_not_call_the_public_checker(self, monkeypatch):
        # lemma 1 is judged from the degrees the report sums, not by verify_degree_laws
        w, z = gen_synthetic(5, 16, 32, "dead-columns", k=4)
        norms, cfg = norms_from_batch(z), PruneConfig(2, 4, 2)

        def reports():
            return (compare_methods(w, norms, cfg, METHODS, z),
                    sweep_blocks(w, norms, 2, 4, range(5), z))

        want = reports()
        assert [r.lemma1_pass for r in want[1]] == [True] * 5

        def checker(*args):
            raise AssertionError("verify_degree_laws was called")

        monkeypatch.setattr(graphs, "verify_degree_laws", checker)
        monkeypatch.setattr(harness, "verify_degree_laws", checker, raising=False)
        assert reports() == want

    def test_without_norms(self):
        w, z = gen_synthetic(3, 8, 8, "gaussian")
        for methods in (["magnitude"], ["magnitude", "eggs"]):
            args = (w, None, PruneConfig(2, 4, 1), methods, z)
            want = helpers.outcome(helpers.compare_methods_oracle, *args)
            assert helpers.outcome(compare_methods, *args) == want
        with pytest.raises(NMPruneError, match="pass a batch as z"):
            compare_methods(w, z, PruneConfig(2, 4, 1))


class TestMaskSequence:
    """A scored layer overlays each eggs mask on its one ria mask in place and
    takes the overlay back at the next mask() call. Whatever the order of the
    requests, each mask, read before the next call, equals a fresh prune's."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(PROFILES),
           st.sampled_from([(16, 16), (10, 16), (3, 8), (17, 24)]),
           st.sampled_from([(1, 4), (2, 4), (2, 8), (1, 2)]), st.integers(0, 4),
           st.lists(st.one_of(st.sampled_from(["ria", "magnitude"]), st.integers(0, 4)),
                    min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_each_mask_equals_a_fresh_layers(self, seed, profile, shape, nm, max_b, requests):
        (f_out, f_in), (n, m) = shape, nm
        w, z = gen_synthetic(seed, f_out, f_in, profile, k=1)
        norms = norms_from_batch(z)
        layer = harness._ScoredLayer(w, norms, n, m, max_b=max_b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a B above the full blocks clamps
            for request in requests:
                method, b = ("eggs", min(request, max_b)) if isinstance(request, int) else (
                    request, 0)
                cfg = PruneConfig(n, m, b)
                got = layer.mask(method, cfg)
                want = prune_with_method(w, norms, cfg, method).mask
                assert got.dtype == want.dtype == np.uint8 and got.tobytes() == want.tobytes()


class TestMemory:
    """Scoring goes row block by row block: no full-size float64 |W|, ria or
    rri is held, and order_rows keeps only each group's lowest rows as the
    blocks' group sums come. W itself, made before tracing starts, is not
    counted."""

    @pytest.fixture(scope="class")
    def layer(self):
        w, z = gen_synthetic(3, 1024, 1024)
        return w, norms_from_batch(z), z

    @pytest.mark.parametrize("method, mib", [("eggs", 15), ("ria", 13), ("magnitude", 7),
                                             ("wanda", 7)])
    def test_traced_peak_of_a_1024_prune(self, layer, method, mib):
        w, norms, _ = layer
        _, peak = helpers.traced_peak(prune_with_method, w, norms, PruneConfig(2, 4, 2), method)
        assert peak < mib * 2**20

    @pytest.mark.parametrize("chunk", [metrics._TOPK_CHUNK, 1 << 15])
    def test_eggs_peaks_with_ria(self, layer, chunk):
        # 9.84 MiB for both when set, and 5.68 in 256 KiB blocks: a (G, F_out)
        # float64 array of group sums (2 MiB here) stands out, and a copy of
        # the ria mask (1 MiB) does once the blocks' buffers are smaller than it
        w, norms, _ = layer
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            peak = {method: helpers.traced_peak(prune_with_method, w, norms,
                                                PruneConfig(2, 4, 2), method)[1]
                    for method in ("eggs", "ria")}
        assert peak["eggs"] <= peak["ria"] + 2**18

    # eval's library path sums its errors row block by row block: 14.1 MiB for
    # compare_methods and 13.9 for sweep_blocks when these bounds were set
    # (18.6 and 18.3 with the full-size float64 copies)
    def test_traced_peak_of_a_1024_compare(self, layer):
        w, norms, z = layer
        _, peak = helpers.traced_peak(compare_methods, w, norms, PruneConfig(2, 4, 2), METHODS, z)
        assert peak < 16 * 2**20

    def test_traced_peak_of_a_1024_sweep(self, layer):
        w, norms, z = layer
        _, peak = helpers.traced_peak(sweep_blocks, w, norms, 2, 4, range(5), z)
        assert peak < 16 * 2**20

    def test_traced_peak_of_a_1024_gen(self):
        # 6.0 MiB when set: the float32 layer plus one float64 row block
        # (13.1 when the whole layer was drawn in float64, then cast)
        _, peak = helpers.traced_peak(gen_synthetic, 3, 1024, 1024)
        assert peak < 8 * 2**20


NOT_A_MATRIX = "weights must be a 2-D matrix with at least one row and column"
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
    # the error passes check W's finiteness a row block at a time, as the mask passes do
    pytest.param(lambda: reconstruction_error(np.array([[1.0, np.nan]]), np.ones((1, 2)),
                                              np.ones((2, 1))),
                 NMPruneError, "weights must be finite", id="non-finite-w-error"),
    # every batch is read by harness._reference, which refuses a NaN or infinite entry
    pytest.param(lambda: reconstruction_error(np.ones((4, 4)), np.ones((4, 4)),
                                              np.full((4, 2), np.nan)),
                 NMPruneError, "calibration batch must be finite", id="non-finite-batch-error"),
    pytest.param(lambda: compare_methods(np.ones((4, 4)), ActivationNorms(np.ones(4)),
                                         PruneConfig(2, 4), ["ria"], np.full((4, 2), np.inf)),
                 NMPruneError, "calibration batch must be finite", id="non-finite-batch-compare"),
    pytest.param(lambda: sweep_blocks(np.ones((4, 4)), ActivationNorms(np.ones(4)), 2, 4,
                                      range(2), np.full((4, 2), -np.inf)),
                 NMPruneError, "calibration batch must be finite", id="non-finite-batch-sweep"),
    pytest.param(lambda: prune_with_method(np.ones((4, 4)), None, PruneConfig(2, 4), "random"),
                 ConfigError, "unknown method 'random'", id="unknown-method"),
    pytest.param(lambda: prune_with_method(np.ones((4, 6)), ActivationNorms(np.ones(6)),
                                           PruneConfig(2, 4), "ria"),
                 NMPruneError, "6 columns not divisible by window width 4", id="indivisible-ria"),
    # a W that is not a matrix is refused before any method reads its columns
    pytest.param(lambda: prune_with_method(np.ones(4), ActivationNorms(np.ones(4)),
                                           PruneConfig(2, 4), "ria"),
                 NMPruneError, NOT_A_MATRIX, id="1-d-w-ria"),
    pytest.param(lambda: prune_with_method(np.float32(1), ActivationNorms(np.ones(4)),
                                           PruneConfig(2, 4), "eggs"),
                 NMPruneError, NOT_A_MATRIX, id="0-d-w-eggs"),
    pytest.param(lambda: compare_methods(np.ones(4), ActivationNorms(np.ones(4)),
                                         PruneConfig(2, 4), ["ria"]),
                 NMPruneError, NOT_A_MATRIX, id="1-d-w-compare"),
    pytest.param(lambda: sweep_blocks(np.ones(4), ActivationNorms(np.ones(4)), 2, 4, range(2)),
                 NMPruneError, NOT_A_MATRIX, id="1-d-w-sweep"),
    pytest.param(lambda: prune_with_method(BlockSource(np.float32, (4, 4), iter([np.ones((4, 4))])),
                                           ActivationNorms(np.ones(4)), PruneConfig(2, 4), "ria"),
                 NMPruneError, "weight row blocks must be readable more than once, not an iterator",
                 id="one-shot-source"),
    pytest.param(lambda: prune_with_method(BlockSource(np.float32, (4, 4), [np.ones((3, 4))]),
                                           None, PruneConfig(2, 4), "magnitude"),
                 NMPruneError, "weight row blocks do not tile the matrix's shape",
                 id="short-source"),
    pytest.param(lambda: prune_with_method(BlockSource(np.float32, (4, 4),
                                                       [np.ones((4, 4)), np.ones((1, 4))]),
                                           None, PruneConfig(2, 4), "magnitude"),
                 NMPruneError, "weight row blocks do not tile the matrix's shape",
                 id="long-source"),
    # every method refuses a bad width before it reads W, so before a NaN in W
    pytest.param(lambda: prune_with_method(np.vstack([np.ones((4, 6)), np.full((1, 6), np.nan)]),
                                           None, PruneConfig(2, 4), "magnitude"),
                 NMPruneError, "6 columns not divisible by window width 4",
                 id="indivisible-before-nan"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    assert helpers.outcome(call)[0] == (error, message)
