"""Mask construction: window selection, diagonal selection, and the
combined pipeline."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import metrics
from nmprune import (
    ActivationNorms,
    ConfigError,
    NMPruneError,
    PruneConfig,
    VerificationError,
    apply_mask,
    check_nm_pattern,
    prune_with_method,
    verify_degree_laws,
)
from nmprune.masks import connectivity_select, diagonal_select, eggs_prune, importance_select
from nmprune.metrics import ria


class TestPruneConfig:
    def test_odd_m_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            PruneConfig(2, 3)

    def test_n_bounds(self):
        with pytest.raises(ConfigError):
            PruneConfig(0, 4)
        with pytest.raises(ConfigError):
            PruneConfig(4, 4)

    def test_negative_b_rejected(self):
        with pytest.raises(ConfigError):
            PruneConfig(2, 4, b=-1)


class TestImportanceSelect:
    def test_top_two_of_four(self):
        mask = importance_select(np.array([[4.0, 1.0, 3.0, 2.0]]), 2, 4)
        np.testing.assert_array_equal(mask, [[1, 0, 1, 0]])

    def test_ties_keep_lower_columns(self):
        mask = importance_select(np.ones((1, 4)), 2, 4)
        np.testing.assert_array_equal(mask, [[1, 1, 0, 0]])

    def test_keep_one(self):
        mask = importance_select(np.array([[0.0, 9.0, 0.0, 0.0]]), 3, 4)
        np.testing.assert_array_equal(mask, [[0, 1, 0, 0]])

    def test_non_divisible_rejected(self):
        with pytest.raises(NMPruneError, match="6 columns not divisible by window width 4"):
            importance_select(np.ones((2, 6)), 2, 4)

    def test_diag_dominant_keeps_diagonal(self):
        w = np.full((4, 8), 0.01)
        for i in range(4):
            w[i, i] = 10.0
            w[i, i + 4] = 9.0
        mask = importance_select(np.abs(w), 2, 4)
        for i in range(4):
            assert mask[i, i] == 1 and mask[i, i + 4] == 1

    def test_one_of_two_windows(self):
        mask = importance_select(np.array([[3.0, 1.0, 2.0, 9.0]]), 1, 2)
        np.testing.assert_array_equal(mask, [[1, 0, 0, 1]])

    def test_odd_m_accepted_for_baselines(self):
        mask = importance_select(np.array([[1.0, 3.0, 2.0, 6.0, 5.0, 4.0]]), 1, 3)
        np.testing.assert_array_equal(mask, [[0, 1, 1, 1, 1, 0]])

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            scores = rng.standard_normal((6, 12)) ** 2
            got = importance_select(scores, 2, 4)
            np.testing.assert_array_equal(got, helpers.top_k_per_window_oracle(scores, 2, 4))

    def test_nan_rejected(self):
        with pytest.raises(NMPruneError, match="scores must not be NaN"):
            importance_select(np.array([[1.0, np.nan, 0.0, 2.0]]), 2, 4)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 31), st.integers(1, 5),
           st.integers(1, 5), st.sampled_from(["float", "integer", "equal", "zeros"]),
           st.integers(1, 80))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_at_every_width(self, seed, half_m, n, rows, windows, kind, chunk):
        # a small chunk makes the windows go through several chunks, the
        # last one partial
        m = 2 * half_m
        n = 1 + (n - 1) % (m - 1)
        rng = np.random.default_rng(seed)
        shape = (rows, windows * m)
        if kind == "float":
            scores = rng.standard_normal(shape)
        elif kind == "integer":
            scores = rng.integers(0, 3, size=shape).astype(float)
        elif kind == "equal":
            scores = np.repeat(rng.standard_normal((rows, windows, 1)), m, axis=2).reshape(shape)
        else:
            scores = rng.choice([0.0, -0.0], size=shape)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got = importance_select(scores, n, m)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, helpers.top_k_per_window_oracle(scores, n, m))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 4), (2, 4), (4, 8), (2, 8)]))
    @settings(max_examples=40, deadline=None)
    def test_window_counts(self, seed, nm):
        n, m = nm
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(5, 3 * m))
        check_nm_pattern(importance_select(scores, n, m), n, m)


class TestDiagonalSelect:
    def test_identity_block(self):
        np.testing.assert_array_equal(diagonal_select(np.eye(4)), np.eye(4, dtype=np.uint8))

    def test_anti_identity_block(self):
        anti = np.fliplr(np.eye(4))
        np.testing.assert_array_equal(diagonal_select(anti), anti.astype(np.uint8))

    def test_permutation_pattern(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            mask = diagonal_select(rng.standard_normal((4, 4)))
            np.testing.assert_array_equal(mask.sum(axis=0), np.ones(4))
            np.testing.assert_array_equal(mask.sum(axis=1), np.ones(4))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(51)
        for i in range(200):
            m = 4 if i % 2 else 8
            if i % 5:
                block = rng.standard_normal((m, m))
            else:
                # integer blocks force tie-break coverage
                block = rng.integers(-2, 3, size=(m, m)).astype(np.float64)
            np.testing.assert_array_equal(
                diagonal_select(block), helpers.diagonal_select_oracle(block)
            )

    def test_odd_size_rejected(self):
        with pytest.raises(ConfigError):
            diagonal_select(np.ones((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(NMPruneError, match="needs a square block"):
            diagonal_select(np.ones((4, 6)))


class TestConnectivitySelect:
    def test_keep_one_equals_diagonal_alone(self):
        rng = np.random.default_rng(60)
        block = rng.standard_normal((4, 4))
        scores = rng.uniform(size=(4, 4))
        np.testing.assert_array_equal(
            connectivity_select(block, scores, 3, 4), diagonal_select(block)
        )

    def test_uniform_fill_takes_lowest_free_column(self):
        mask = connectivity_select(np.eye(4), np.ones((4, 4)), 2, 4)
        expected = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.uint8
        )
        np.testing.assert_array_equal(mask, expected)

    def test_every_column_keeps_an_edge(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            mask = connectivity_select(
                rng.standard_normal((4, 4)), rng.uniform(size=(4, 4)), 2, 4
            )
            assert mask.sum(axis=0).min() >= 1
            np.testing.assert_array_equal(mask.sum(axis=1), np.full(4, 2))

    def test_diagonal_not_double_counted(self):
        # scores peak on the diagonal; the fill must still pick other columns
        block = np.eye(4)
        scores = np.eye(4) * 100 + 0.1
        mask = connectivity_select(block, scores, 2, 4)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(4, 2))


class TestEggsPrune:
    def test_b_zero_equals_score_baseline(self):
        for seed in range(10):
            w, act = helpers.random_layer(seed, 8, 16)
            cfg = PruneConfig(2, 4, b=0)
            baseline = importance_select(ria(w, act), 2, 4)
            np.testing.assert_array_equal(eggs_prune(w, act, cfg), baseline)

    def test_degree_laws_on_8x8(self):
        w, act = helpers.random_layer(3, 8, 8)
        mask = eggs_prune(w, act, PruneConfig(2, 4, b=1))
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(8, 4))
        assert mask.sum(axis=0).min() >= 1

    def test_dead_column_kept_only_by_connectivity(self):
        rng = np.random.default_rng(70)
        w = rng.standard_normal((8, 8))
        w[:, 7] *= 1e-9
        norms = rng.uniform(0.5, 1.5, size=8)
        norms[7] *= 1e-9
        act = ActivationNorms(norms, 0.5)
        plain = importance_select(ria(w, act), 2, 4)
        assert plain[:, 7].sum() == 0
        mask = eggs_prune(w, act, PruneConfig(2, 4, b=1))
        assert mask[:, 7].sum() >= 1

    def test_window_validity_with_b(self):
        for seed, b in [(1, 1), (2, 2), (3, 3)]:
            w, act = helpers.random_layer(seed, 12, 16)
            mask = eggs_prune(w, act, PruneConfig(2, 4, b=b))
            check_nm_pattern(mask, 2, 4)
            assert mask.sum(axis=0).min() >= min(b, 12 // 4)

    def test_partial_row_block_tail(self):
        w, act = helpers.random_layer(5, 10, 8)
        mask = eggs_prune(w, act, PruneConfig(2, 4, b=2))
        check_nm_pattern(mask, 2, 4)
        assert mask.sum(axis=0).min() >= 2

    def test_determinism(self):
        w, act = helpers.random_layer(8, 16, 16)
        a = eggs_prune(w, act, PruneConfig(2, 4, b=2))
        b = eggs_prune(w, act, PruneConfig(2, 4, b=2))
        assert a.tobytes() == b.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8).map(lambda h: 2 * h), st.integers(1, 15),
           st.integers(1, 26), st.integers(1, 4), st.integers(0, 5), st.booleans(),
           st.integers(1, 1 << 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_group_by_group_oracle(self, seed, m, n, f_out, groups, b, integer, chunk):
        # a small _TOPK_CHUNK splits every pass of the prune: the kernel's
        # row blocks, the top-k window chunks and order_rows' group chunks,
        # with a partial last block, or one line per block below the width
        n = 1 + (n - 1) % (m - 1)
        rng = np.random.default_rng(seed)
        shape = (f_out, groups * m)
        if integer:
            # equal row sums and equal fill scores exercise every tie-break
            w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=shape)
            act = ActivationNorms(rng.integers(1, 3, size=shape[1]).astype(float), 0.5)
        else:
            w = rng.standard_normal(shape)
            act = ActivationNorms(rng.uniform(0.1, 2.0, size=shape[1]), 0.5)
        cfg = PruneConfig(n, m, b)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
                got = eggs_prune(w, act, cfg)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = helpers.eggs_prune_oracle(w, act, cfg)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
        assert [str(x.message) for x in got_warnings] == [str(x.message) for x in want_warnings]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (1, 4), (2, 4), (3, 4), (2, 8),
                                                       (5, 8)]),
           st.integers(1, 26), st.integers(1, 4), st.integers(0, 5), st.floats(0.0, 1.0),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dead_channels_meet_the_degree_laws(self, seed, nm, f_out, groups, b, p_dead,
                                                dead_norms):
        (n, m), f_in = nm, groups * nm[1]
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((f_out, f_in)).astype(np.float32)
        dead = rng.random(f_in) < p_dead
        dead[rng.integers(f_in)] = True  # at least one input channel is exactly zero
        w[:, dead] = 0.0
        w[rng.random(f_out) < p_dead] = 0.0
        norms = rng.uniform(0.1, 2.0, size=f_in)
        if dead_norms:  # a dead channel's calibration activations are zero too
            norms[dead] = 0.0
        cfg = PruneConfig(n, m, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a B above the full blocks clamps
            mask = prune_with_method(w, ActivationNorms(norms, 0.5), cfg, "eggs").mask
        laws = verify_degree_laws(mask, cfg)
        assert laws.violation is None
        assert laws.min_in_degree >= min(b, f_out // m)

    @pytest.mark.parametrize("defects", [
        ("zero-row", "zero-column"), ("zero-column", "zero-row"), ("zero-row", "nan"),
        ("overflow",), ("zero-column", "overflow"), ("overflow", "inf"),
    ])
    @pytest.mark.parametrize("chunk", [8, 24, 1 << 18])
    def test_errors_match_the_oracle(self, defects, chunk):
        """The whole outcome, mask or error, equals the oracle's: a zero row
        or column prunes, and never hides a later defect's error."""
        w, act = helpers.random_layer(4, 10, 8)
        norms, alpha = act.norms.copy(), act.alpha
        # each defect sits in a later row block than the one before it when blocks are small
        for row, defect in zip((1, 6), defects):
            if defect in ("nan", "inf"):
                w[row, 2] = np.nan if defect == "nan" else np.inf
            elif defect == "zero-row":
                w[row] = 0.0
            elif defect == "zero-column":
                w[:, row] = 0.0
            else:  # norms**alpha overflows, so a zero weight in the column scores NaN
                norms[5], alpha, w[row, 5] = 1e300, 2.0, 0.0
        act = ActivationNorms(norms, alpha)
        cfg = PruneConfig(2, 4, 1)
        want, _ = helpers.outcome(helpers.eggs_prune_oracle, w, act, cfg)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got, _ = helpers.outcome(eggs_prune, w, act, cfg)
        if isinstance(want, tuple):
            assert issubclass(want[0], NMPruneError) and isinstance(got, tuple) and got == want
        else:
            assert got.dtype == want.dtype == np.uint8
            np.testing.assert_array_equal(got, want)


class TestApplyMask:
    def test_all_ones_identity(self):
        w = np.array([[1.0, 2.0]], dtype=np.float32)
        out = apply_mask(w, np.ones_like(w, dtype=np.uint8))
        np.testing.assert_array_equal(out, w)
        assert out.dtype == np.float32

    def test_all_zeros(self):
        np.testing.assert_array_equal(
            apply_mask(np.ones((2, 2)), np.zeros((2, 2), dtype=np.uint8)), np.zeros((2, 2))
        )

    def test_mixed(self):
        out = apply_mask(np.array([[1.0, 2.0], [3.0, 4.0]]),
                         np.array([[1, 0], [0, 1]], dtype=np.uint8))
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(NMPruneError, match=r"mask shape \(2, 3\) does not match"):
            apply_mask(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("w_dtype, mask_dtype", [
        (np.float32, np.uint8),
        (np.float32, np.bool_),
        (np.float32, np.int64),
        (np.float32, np.float64),
        (np.float64, np.uint8),
        (np.int64, np.float64),
    ])
    def test_bytes_match_cast_then_multiply(self, w_dtype, mask_dtype):
        rng = np.random.default_rng(11)
        # negative weights under a 0 mask give -0.0 in float layouts
        w = (rng.standard_normal((16, 8)) * 100).astype(w_dtype)
        w[0, :] = -np.abs(w[0, :])
        mask = rng.integers(0, 2, size=w.shape).astype(mask_dtype)
        mask[0, :] = 0
        got = apply_mask(w, mask)
        want = w * mask.astype(w.dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestCheckNmPattern:
    def test_valid_mask_passes(self):
        check_nm_pattern(np.array([[1, 1, 0, 0]], dtype=np.uint8), 2, 4)

    def test_extra_one_named(self):
        bad = np.array([[1, 1, 0, 0, 1, 1, 1, 0]], dtype=np.uint8)
        with pytest.raises(VerificationError, match=r"row 0 window 1"):
            check_nm_pattern(bad, 2, 4)

    def test_non_binary_rejected(self):
        with pytest.raises(VerificationError):
            check_nm_pattern(np.array([[2, 0, 0, 0]]), 2, 4)

    def test_indivisible_width_is_a_verification_failure(self):
        with pytest.raises(VerificationError, match="6 columns not divisible by window width 4"):
            check_nm_pattern(np.array([[1, 1, 0, 0, 1, 0]] * 4, dtype=np.uint8), 2, 4)

    @pytest.mark.parametrize("value", [0.5, np.nan, -1.0])
    def test_non_binary_float_rejected(self, value):
        mask = np.array([[1.0, -0.0, 1.0, 0.0]], dtype=np.float32)
        check_nm_pattern(mask, 2, 4)
        mask[0, 1] = value
        with pytest.raises(VerificationError, match="0 or 1"):
            check_nm_pattern(mask, 2, 4)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 31), st.integers(1, 5),
           st.integers(1, 5), st.sampled_from([np.uint8, np.float32, bool]), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_names_the_first_bad_window(self, seed, half_m, n, rows, windows, dtype, flips):
        m = 2 * half_m
        n = 1 + (n - 1) % (m - 1)
        rng = np.random.default_rng(seed)
        mask = importance_select(rng.standard_normal((rows, windows * m)), n, m)
        for _ in range(flips):
            mask[rng.integers(rows), rng.integers(windows * m)] ^= 1
        bad = [(i, k, int(mask[i, k * m : (k + 1) * m].sum()))
               for i in range(rows) for k in range(windows)
               if mask[i, k * m : (k + 1) * m].sum() != m - n]
        mask = mask.astype(dtype)
        if not bad:
            check_nm_pattern(mask, n, m)
            return
        i, k, count = bad[0]
        with pytest.raises(VerificationError) as info:
            check_nm_pattern(mask, n, m)
        assert str(info.value) == f"row {i} window {k}: {count} ones, expected {m - n}"


    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 15), st.integers(1, 9),
           st.integers(0, 4), st.integers(0, 7), st.integers(0, 3), st.integers(0, 2),
           st.sampled_from([np.uint8, np.float32]), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_row_blocks_match_the_whole_matrix(self, seed, half_m, n, rows, windows, extra,
                                               flips, odd, dtype, chunk):
        # chunk below the column count gives one row per block; above it, the
        # blocks hold several rows and the last one may be partial
        m = 2 * half_m
        n = 1 + (n - 1) % (m - 1)
        extra %= m
        rng = np.random.default_rng(seed)
        mask = importance_select(rng.standard_normal((rows, windows * m + m)), n, m)
        mask = mask[:, : windows * m + extra].astype(dtype)
        cols = mask.shape[1]
        for _ in range(flips if cols else 0):
            i, j = rng.integers(rows), rng.integers(cols)
            mask[i, j] = 1 - mask[i, j]
        for _ in range(odd if cols else 0):
            mask[rng.integers(rows), rng.integers(cols)] = 2 if dtype is np.uint8 else 0.5
        want = check_whole(mask, n, m)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            got = helpers.outcome(check_nm_pattern, mask, n, m)[0]
        assert got == (None if want is None else (VerificationError, want))


def check_whole(mask, n, m):
    """check_nm_pattern's message, or None, from whole-matrix expressions."""
    ones = mask == 1
    if not (ones | (mask == 0)).all():
        return "mask entries must be 0 or 1"
    rows, cols = mask.shape
    if cols % m:
        return f"{cols} columns not divisible by window width {m}"
    counts = ones.reshape(rows, cols // m, m).sum(axis=2)
    bad = np.argwhere(counts != m - n)
    if not bad.size:
        return None
    i, k = bad[0]
    return f"row {i} window {k}: {counts[i, k]} ones, expected {m - n}"

REFUSALS = [
    pytest.param(lambda: PruneConfig(2.0, 4), ConfigError, "N and M must be integers, got 2.0:4",
                 id="float-n"),
    pytest.param(lambda: importance_select(np.ones(4), 2, "4"), ConfigError,
                 "N and M must be integers, got 2:'4'", id="string-m"),
    pytest.param(lambda: importance_select(np.ones(4), 2, 4), NMPruneError,
                 "score matrix must be 2-D", id="1-d-scores"),
    pytest.param(lambda: check_nm_pattern(np.ones(4), 2, 4), VerificationError,
                 "mask must be 2-D", id="1-d-mask"),
    pytest.param(lambda: connectivity_select(np.ones((4, 2)), np.ones((4, 2)), 2, 4),
                 NMPruneError, "connectivity selection needs 4x4 blocks, got (4, 2) and (4, 2)",
                 id="block-shape"),
    pytest.param(lambda: connectivity_select(np.ones((4, 4)), np.ones((2, 4, 4)), 2, 4),
                 NMPruneError,
                 "connectivity selection needs 4x4 blocks, got (4, 4) and (2, 4, 4)",
                 id="score-shape"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    assert helpers.outcome(call)[0] == (error, message)
