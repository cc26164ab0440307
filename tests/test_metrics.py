"""Score metrics: hand-checked values, error cases, and ranking invariances."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import ActivationNorms, ConfigError, NMPruneError
from nmprune import metrics
from nmprune.metrics import channel_scores, magnitude_score, ria, rri, wanda_score
from nmprune.permute import apply_to_columns, build_permutation


class TestRri:
    def test_uniform_row(self):
        out = rri(np.array([[1.0, 1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[0.25, 0.25, 0.25, 0.25]])

    def test_hand_values(self):
        out = rri(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])

    def test_zero_row_scores_zero(self):
        out = rri(np.array([[0.0, 0.0, 0.0], [1.0, 3.0, 0.0]]))
        assert out.tobytes() == np.array([[0.0, 0.0, 0.0], [0.25, 0.75, 0.0]]).tobytes()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = rng.standard_normal((17, 33)).astype(np.float32)
            np.testing.assert_allclose(rri(w).sum(axis=1), 1.0, atol=1e-6)

    def test_signs_ignored(self):
        np.testing.assert_array_equal(rri([[-3.0, 1.0]]), rri([[3.0, 1.0]]))


class TestRia:
    def test_symmetric_unit_norms(self):
        act = ActivationNorms(np.ones(2), alpha=0.5)
        out = ria(np.ones((2, 2)), act)
        np.testing.assert_allclose(out, 1.0)

    def test_norm_scaling(self):
        act = ActivationNorms(np.array([4.0, 1.0]), alpha=0.5)
        out = ria(np.ones((2, 2)), act)
        np.testing.assert_allclose(out[:, 0], 2.0)
        np.testing.assert_allclose(out[:, 1], 1.0)

    def test_alpha_zero_is_row_plus_column_terms(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((9, 12))
        act = ActivationNorms(rng.uniform(0.5, 3.0, size=12), alpha=0.0)
        expected = rri(w) + rri(w.T).T
        got = ria(w, act)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_zero_column_scores_zero(self):
        w = np.array([[1.0, 0.0], [2.0, 0.0]])
        out = ria(w, ActivationNorms(np.array([4.0, 9.0]), alpha=0.5))
        # row term 1 plus column terms 1/3 and 2/3, times 4**0.5
        np.testing.assert_allclose(out[:, 0], [8 / 3, 10 / 3], rtol=1e-15)
        assert out[:, 1].tobytes() == np.zeros(2).tobytes()

    def test_zero_norm_negative_alpha(self):
        with pytest.raises(NMPruneError, match="zero activation norm cannot be raised"):
            ria(np.ones((2, 2)), ActivationNorms(np.array([1.0, 0.0]), alpha=-0.5))

    def test_zero_norm_alpha_zero_ok(self):
        out = ria(np.ones((2, 2)), ActivationNorms(np.array([1.0, 0.0]), alpha=0.0))
        assert np.all(out > 0)

    def test_length_mismatch(self):
        with pytest.raises(NMPruneError, match="norms length 2 != input channels 3"):
            ria(np.ones((2, 3)), ActivationNorms(np.ones(2)))


class TestChannelScores:
    def test_column_sums(self):
        np.testing.assert_array_equal(channel_scores([[1.0, 2.0], [3.0, 4.0]]), [4.0, 6.0])

    def test_single_row_identity(self):
        np.testing.assert_array_equal(channel_scores([[5.0, 0.0, 1.0]]), [5.0, 0.0, 1.0])

    def test_constant_matrix(self):
        out = channel_scores(np.full((4, 3), 2.5))
        np.testing.assert_allclose(out, 10.0)


class TestBaselines:
    def test_magnitude(self):
        np.testing.assert_array_equal(magnitude_score([[-3.0, 2.0]]), [[3.0, 2.0]])
        np.testing.assert_array_equal(magnitude_score(np.zeros((2, 2))), np.zeros((2, 2)))
        np.testing.assert_array_equal(magnitude_score(np.eye(2)), np.eye(2))

    def test_wanda(self):
        act = ActivationNorms(np.array([2.0, 3.0]), alpha=1.0)
        np.testing.assert_array_equal(wanda_score([[1.0, 1.0]], act), [[2.0, 3.0]])

    def test_wanda_unit_norms_equals_magnitude(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 5))
        act = ActivationNorms(np.ones(5))
        np.testing.assert_array_equal(wanda_score(w, act), magnitude_score(w))

    def test_wanda_zero_annihilation(self):
        act = ActivationNorms(np.array([9.0, 0.0]))
        np.testing.assert_array_equal(wanda_score([[0.0, 5.0]], act), [[0.0, 0.0]])


class TestInvariances:
    def test_rri_scaling_keeps_row_ranking(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            w = rng.standard_normal((8, 16))
            s = float(rng.uniform(0.01, 100))
            base = np.argsort(rri(w), axis=1, kind="stable")
            scaled = np.argsort(rri(s * w), axis=1, kind="stable")
            np.testing.assert_array_equal(base, scaled)

    def test_ria_scaling_keeps_global_ranking(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w = rng.standard_normal((8, 16))
            act = ActivationNorms(rng.uniform(0.1, 2.0, size=16))
            s = float(rng.uniform(0.01, 100))
            base = np.argsort(ria(w, act).ravel(), kind="stable")
            scaled = np.argsort(ria(s * w, act).ravel(), kind="stable")
            np.testing.assert_array_equal(base, scaled)

    def test_purity(self):
        w, act = helpers.random_layer(99, 6, 8)
        a = ria(w, act)
        b = ria(w, act)
        assert a.tobytes() == b.tobytes()


class TestScoreOnce:
    """The kernel's ria and rri blocks of the permuted layer equal the
    whole-matrix expressions, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 6),
           st.sampled_from([2, 4, 8]), st.sampled_from([0.0, 0.5, 1.0, -0.5]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_ria_and_rri_bit_for_bit(self, seed, f_out, groups, m, alpha, integer):
        rng = np.random.default_rng(seed)
        shape = (f_out, groups * m)
        if integer:
            w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=shape).astype(np.float32)
        else:
            w = rng.standard_normal(shape).astype(np.float32)
        act = ActivationNorms(rng.uniform(0.1, 2.0, size=shape[1]), alpha)
        perm = build_permutation(channel_scores(ria(w, act)), m)
        w_perm = apply_to_columns(w, perm)
        act_perm = ActivationNorms(act.norms[perm.forward], alpha)
        sums = metrics.layer_sums(w_perm, act_perm)[:2]
        # W's column terms, permuted, are W_perm's, bit for bit
        carried = [terms[perm.forward] for terms in metrics.layer_sums(w, act)[:2]]
        assert [t.tobytes() for t in carried] == [t.tobytes() for t in sums]
        got_ria, got_rri = (np.concatenate(b) for b in zip(*[(s.copy(), r.copy())
                                                             for _, s, r, _ in
                                                             metrics.ria_blocks(
                                                                 metrics.weight_blocks(w_perm),
                                                                 sums)]))
        want_ria, want_rri = helpers.ria_rri_oracle(w_perm, act_perm)
        assert got_ria.tobytes() == ria(w_perm, act_perm).tobytes() == want_ria.tobytes()
        assert got_rri.tobytes() == rri(w_perm).tobytes() == want_rri.tobytes()

    def test_float64_input_left_untouched(self):
        w, act = helpers.random_layer(17, 6, 8)
        w = -np.abs(w.astype(np.float64))
        before = w.copy()
        for score in (ria(w, act), rri(w), wanda_score(w, act), magnitude_score(w),
                      *metrics.layer_sums(w, act)):
            assert not np.shares_memory(score, w)
        np.testing.assert_array_equal(w, before)


class TestClosedFormChannelScores:
    """layer_sums' channel scores, s_j * (sum_i |w_ij| / r_i + [c_j != 0]),
    are each column's ria summed over its rows: on small integer layers with
    alpha = 1 and integer norms they lie within 1e-12 of the exact sum of
    ria cells, and a dead column scores exactly 0."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 1 << 7))
    @settings(max_examples=150, deadline=None)
    def test_within_rounding_of_the_exact_ria_sum(self, seed, f_out, f_in, chunk):
        rng = np.random.default_rng(seed)
        w = rng.integers(-2, 3, size=(f_out, f_in)).astype(np.float32)
        w[:, rng.random(f_in) < 0.2] = 0.0
        norms = rng.integers(0, 5, size=f_in)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            scores = metrics.layer_sums(w, ActivationNorms(norms, 1.0))[2]
        cells = [[Fraction(abs(int(x))) for x in row] for row in w]
        rows = [sum(row) or 1 for row in cells]  # a zero sum divides as 1
        cols = [sum(col) or 1 for col in zip(*cells)]
        for j in range(f_in):
            exact = int(norms[j]) * sum(cells[i][j] / rows[i] + cells[i][j] / cols[j]
                                        for i in range(f_out))
            if exact == 0:
                assert scores[j] == 0.0
            else:
                assert abs(Fraction(float(scores[j])) - exact) <= exact / 10**12
        dead = ~w.any(axis=0)
        assert scores[dead].tobytes() == np.zeros(int(dead.sum())).tobytes()


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(NMPruneError, match="weights must be finite"):
            rri(np.array([[1.0, np.nan]]))

    def test_non_matrix_rejected(self):
        with pytest.raises(NMPruneError, match="weights must be a 2-D matrix"):
            rri(np.ones(4))

    def test_negative_norms_rejected(self):
        with pytest.raises(NMPruneError, match="finite and non-negative"):
            ActivationNorms(np.array([1.0, -0.5]))


def kernel_layer(seed, f_out, f_in, alpha, kind):
    rng = np.random.default_rng(seed)
    if kind == "integer":  # equal sums and scores exercise every tie-break
        w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(f_out, f_in)).astype(np.float32)
    elif kind == "heavy":
        w = rng.standard_t(2, size=(f_out, f_in)).astype(np.float32)
    else:
        w = rng.standard_normal((f_out, f_in))
    if kind == "dead":  # all-zero rows and columns, each sum dividing as 1
        w[rng.random(f_out) < 0.3] = 0.0
        w[:, rng.random(f_in) < 0.3] = 0.0
    return w, ActivationNorms(rng.uniform(0.1, 2.0, size=f_in), alpha)


class TestRowBlocks:
    """The row-block kernel against whole-matrix expressions. A small
    _TOPK_CHUNK leaves a partial last block, or makes F_in exceed it so that
    every block is one row; the column sums carried from block to block must
    still add in the order of one whole-matrix sum(axis=0)."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 48),
           st.integers(1, 1 << 9), st.sampled_from([0.0, 0.5, 1.0, -0.5]),
           st.sampled_from(["float", "integer", "heavy", "dead"]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_matrix_sums(self, seed, f_out, f_in, chunk, alpha, kind, fortran):
        self.check_kernel(*kernel_layer(seed, f_out, f_in, alpha, kind), chunk, fortran)

    @pytest.mark.parametrize("step", range(1, 13))
    def test_dead_lines_at_every_block_split(self, step):
        # _TOPK_CHUNK // F_in rows per block: every split of the 12 rows
        w, act = kernel_layer(5, 12, 16, 0.5, "dead")
        w[3], w[:, 6] = 0.0, 0.0
        self.check_kernel(w, act, step * 16, False)
        self.check_kernel(w, act, step * 16, True)

    @staticmethod
    def check_kernel(w, act, chunk, fortran):
        # scores follow the C-ordered sums whatever the input's memory order
        w_in = np.asfortranarray(w) if fortran else w
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            col_sums, scale, channel, _ = metrics.layer_sums(w_in, act)
            row_sums = np.concatenate([r for *_, r in metrics.ria_blocks(
                metrics.weight_blocks(w_in), (col_sums, scale))])
            got = [ria(w_in, act), rri(w_in), wanda_score(w_in, act), magnitude_score(w_in)]
            got += [np.concatenate([s.copy() for _, s in blocks])
                    for blocks in (metrics.wanda_blocks(w_in, act),
                                   metrics.abs_blocks(metrics.weight_blocks(w_in)))]
        a = np.abs(np.asarray(w, dtype=np.float64))
        want_ria, want_rri = helpers.ria_rri_oracle(w, act)
        assert row_sums.tobytes() == helpers.divisors_oracle(a.sum(axis=1)).tobytes()
        assert col_sums.tobytes() == helpers.divisors_oracle(a.sum(axis=0)).tobytes()
        assert scale.tobytes() == (act.norms**act.alpha).tobytes()
        assert channel.tobytes() == helpers.ria_channel_scores_oracle(w, act).tobytes()
        for score, want in zip(got, [want_ria, want_rri, a * act.norms, a, a * act.norms, a],
                               strict=True):
            assert score.tobytes() == want.tobytes()
        # a dead line scores exactly 0 in ria and rri
        dead = (a.sum(axis=1) == 0)[:, None] | (a.sum(axis=0) == 0)[None, :]
        assert not got[0][dead].any() and not got[1][dead].any()

    @pytest.mark.parametrize("defects", [
        ("nan", "zero-row", "length"), ("inf", "zero-column"), ("length", "zero-row"),
        ("zero-row", "zero-column", "zero-norm"), ("zero-column", "zero-norm"), ("zero-norm",),
    ])
    @pytest.mark.parametrize("chunk", [8, 40, 1 << 18])
    def test_errors_come_in_the_oracles_order(self, defects, chunk):
        w, act = kernel_layer(7, 12, 16, 0.5, "float")
        norms, alpha = act.norms.copy(), act.alpha
        # each defect sits in a later block than the one before it, where blocks are small
        for row, defect in zip((0, 5, 11), defects):
            if defect in ("nan", "inf"):
                w[row, 3] = np.nan if defect == "nan" else -np.inf
            elif defect == "zero-row":
                w[row] = 0.0
            elif defect == "zero-column":
                w[:, row] = 0.0
            elif defect == "length":
                norms = norms[:-1]
            else:
                norms[row], alpha = 0.0, -0.5
        act = ActivationNorms(norms, alpha)
        want, _ = helpers.outcome(helpers.ria_rri_oracle, w, act)
        assert isinstance(want, tuple) and issubclass(want[0], NMPruneError)
        with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
            for fn in (metrics.layer_sums, ria):
                assert helpers.outcome(fn, w, act)[0] == want


def check_row_blocks(count, width, blocks):
    # the slices tile [0, count) in order, every block but the last full
    lines = max(metrics._TOPK_CHUNK // max(width, 1), 1)
    assert all(isinstance(b, slice) and b.step is None for b in blocks)
    assert [b.start for b in blocks] == list(range(0, count, lines))
    assert [b.stop for b in blocks] == [min(b.start + lines, count) for b in blocks]
    assert all(width * (b.stop - b.start) <= metrics._TOPK_CHUNK or b.stop - b.start == 1
               for b in blocks)


@given(st.integers(0, 100), st.integers(0, 80), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_row_blocks_tile_the_lines(count, width, chunk):
    # widths above the patched constant give one line per block
    with mock.patch.object(metrics, "_TOPK_CHUNK", chunk):
        check_row_blocks(count, width, metrics.row_blocks(count, width))


@pytest.mark.parametrize("count", [0, 1, 5, 4097])
@pytest.mark.parametrize("width", [0, 1, 64, 4096, (1 << 18) + 1, 1 << 20])
def test_row_blocks_at_the_real_block_size(count, width):
    check_row_blocks(count, width, metrics.row_blocks(count, width))


REFUSALS = [
    pytest.param(lambda: ActivationNorms(np.ones((2, 2))), NMPruneError,
                 "activation norms must be a 1-D vector", id="2-d-norms"),
    pytest.param(lambda: channel_scores(np.ones(3)), NMPruneError, "score matrix must be 2-D",
                 id="1-d-scores"),
    pytest.param(lambda: ActivationNorms(np.ones(2), alpha=float("nan")), ConfigError,
                 "alpha must be finite", id="nan-alpha"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    assert helpers.outcome(call)[0] == (error, message)
