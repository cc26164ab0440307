"""Round-robin permutation construction, application, and inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nmprune import (
    ChannelPermutation,
    FormatError,
    NMPruneError,
    load_permutation,
    save_permutation,
)
from nmprune.permute import apply_to_columns, build_permutation, unpermute_mask


class TestBuildPermutation:
    def test_two_groups_round_robin(self):
        # channels already ranked descending: even ranks fill group 1,
        # odd ranks fill group 2
        scores = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        perm = build_permutation(scores, 4)
        np.testing.assert_array_equal(perm.forward, [0, 2, 4, 6, 1, 3, 5, 7])

    def test_single_group_sorts_by_score(self):
        perm = build_permutation(np.array([1.0, 3.0, 2.0, 0.0]), 4)
        np.testing.assert_array_equal(perm.forward, [1, 2, 0, 3])

    def test_single_group_uniform_is_identity(self):
        perm = build_permutation(np.ones(4), 4)
        np.testing.assert_array_equal(perm.forward, np.arange(4))

    def test_ties_prefer_lower_index(self):
        perm = build_permutation(np.array([5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 1.0]), 4)
        np.testing.assert_array_equal(perm.forward, [0, 2, 4, 6, 1, 3, 5, 7])

    def test_non_divisible_rejected(self):
        with pytest.raises(NMPruneError, match="6 channels cannot form groups of width 4"):
            build_permutation(np.ones(6), 4)

    def test_group_balance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=24)
        m = 4
        g = 24 // m
        perm = build_permutation(scores, m)
        ranked = np.argsort(-scores, kind="stable")
        rank_of = {int(ch): r for r, ch in enumerate(ranked)}
        for group in range(g):
            ranks = sorted(rank_of[int(ch)] for ch in perm.forward[group * m : (group + 1) * m])
            # one channel from each band of g consecutive ranks
            assert [r // g for r in ranks] == list(range(m))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_bijectivity(self, seed, m, groups):
        rng = np.random.default_rng(seed)
        n = m * groups
        perm = build_permutation(rng.uniform(size=n), m)
        np.testing.assert_array_equal(np.sort(perm.forward), np.arange(n))
        np.testing.assert_array_equal(perm.inverse[perm.forward], np.arange(n))


class TestApply:
    def test_identity_is_noop(self):
        w = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = apply_to_columns(w, ChannelPermutation(np.arange(4)))
        np.testing.assert_array_equal(out, w)

    def test_swap(self):
        perm = ChannelPermutation([1, 0])
        np.testing.assert_array_equal(apply_to_columns(np.array([[1.0, 2.0]]), perm), [[2.0, 1.0]])

    def test_apply_then_inverse_round_trip(self):
        rng = np.random.default_rng(77)
        w = rng.standard_normal((4, 8)).astype(np.float32)
        perm = build_permutation(rng.uniform(size=8), 4)
        back = apply_to_columns(apply_to_columns(w, perm),
                                ChannelPermutation(perm.inverse))
        assert back.tobytes() == w.tobytes()

    def test_vector_follows_columns(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 6))
        v = rng.standard_normal(6)
        perm = build_permutation(rng.uniform(size=6), 2)
        np.testing.assert_array_equal(
            apply_to_columns(w * v[None, :], perm),
            apply_to_columns(w, perm) * v[perm.forward][None, :],
        )

    def test_length_mismatch(self):
        with pytest.raises(NMPruneError, match="does not match permutation of length 4"):
            apply_to_columns(np.ones((2, 3)), ChannelPermutation(np.arange(4)))

    def test_total_importance_preserved(self):
        from nmprune.metrics import channel_scores

        rng = np.random.default_rng(23)
        scores = rng.uniform(size=(5, 8))
        perm = build_permutation(scores.sum(axis=0), 4)
        assert np.isclose(
            channel_scores(scores).sum(),
            channel_scores(apply_to_columns(scores, perm)).sum(),
        )


class TestUnpermute:
    def test_identity(self):
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        identity = ChannelPermutation(np.arange(2))
        np.testing.assert_array_equal(unpermute_mask(mask, identity), mask)

    def test_swap(self):
        perm = ChannelPermutation([1, 0])
        np.testing.assert_array_equal(
            unpermute_mask(np.array([[1, 0]], dtype=np.uint8), perm), [[0, 1]]
        )

    def test_retained_values_preserved(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((4, 8))
        perm = build_permutation(rng.uniform(size=8), 4)
        w_perm = apply_to_columns(w, perm)
        mask = (rng.uniform(size=(4, 8)) < 0.5).astype(np.uint8)
        kept_permuted = sorted((w_perm * mask)[mask == 1].tolist())
        back = unpermute_mask(mask, perm)
        kept_original = sorted((w * back)[back == 1].tolist())
        assert kept_permuted == kept_original
        np.testing.assert_array_equal(back.sum(axis=1), mask.sum(axis=1))


class TestSidecar:
    def test_round_trip(self, tmp_path):
        perm = build_permutation(np.random.default_rng(1).uniform(size=8), 4)
        path = tmp_path / "perm.json"
        save_permutation(perm, path)
        loaded = load_permutation(path)
        np.testing.assert_array_equal(loaded.forward, perm.forward)

    def test_failed_save_leaves_no_file(self, tmp_path):
        path = tmp_path / "perm.json"
        path.mkdir()  # the final rename onto a directory fails
        with pytest.raises(NMPruneError, match="cannot write"):
            save_permutation(ChannelPermutation([1, 0]), path)
        assert [p.name for p in tmp_path.iterdir()] == ["perm.json"]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "perm.json"
        path.write_text('{"forward": [0, 0, 1]}')
        with pytest.raises(FormatError):
            load_permutation(path)

    def test_non_bijection_rejected(self):
        with pytest.raises(NMPruneError, match="not a bijection"):
            ChannelPermutation([0, 2, 2])

    def test_boolean_entries_rejected(self, tmp_path):
        path = tmp_path / "perm.json"
        path.write_text('{"forward": [true, false]}')
        with pytest.raises(FormatError, match="list of integers"):
            load_permutation(path)


class TestEquality:
    def test_compares_by_forward_value(self):
        assert ChannelPermutation([1, 0, 2]) == ChannelPermutation(np.array([1, 0, 2]))
        assert ChannelPermutation([1, 0, 2]) != ChannelPermutation([0, 1, 2])
        assert ChannelPermutation([1, 0]) != ChannelPermutation([1, 0, 2])
        assert ChannelPermutation([0, 1]) != [0, 1]

    def test_sidecar_round_trip_is_equal(self, tmp_path):
        perm = build_permutation(np.random.default_rng(2).uniform(size=12), 4)
        save_permutation(perm, tmp_path / "perm.json")
        assert load_permutation(tmp_path / "perm.json") == perm


def sidecar(tmp_path, text):
    path = tmp_path / "perm.json"
    path.write_text(text)
    return path


REFUSALS = [
    pytest.param(lambda tmp: ChannelPermutation(np.zeros((2, 2), dtype=int)), NMPruneError,
                 "forward must be a 1-D vector", id="2-d-forward"),
    pytest.param(lambda tmp: build_permutation([1.0, np.nan], 2), NMPruneError,
                 "channel scores must be finite", id="nan-scores"),
    pytest.param(lambda tmp: build_permutation([np.inf, 1.0], 2), NMPruneError,
                 "channel scores must be finite", id="inf-scores"),
    pytest.param(lambda tmp: build_permutation(np.ones((2, 2)), 2), NMPruneError,
                 "channel scores must be a 1-D vector", id="2-d-scores"),
    pytest.param(lambda tmp: unpermute_mask(np.ones((2, 3)), ChannelPermutation([1, 0])),
                 NMPruneError, "mask columns do not match permutation length",
                 id="unpermute-length"),
    pytest.param(lambda tmp: load_permutation(sidecar(tmp, "nope")), FormatError,
                 "malformed permutation sidecar: Expecting value: line 1 column 1 (char 0)",
                 id="malformed-sidecar"),
    pytest.param(lambda tmp: load_permutation(sidecar(tmp, "[0, 1]")), FormatError,
                 "permutation sidecar must be an object with a 'forward' list",
                 id="list-sidecar"),
    pytest.param(lambda tmp: load_permutation(sidecar(tmp, '{"fwd": [0, 1]}')), FormatError,
                 "permutation sidecar must be an object with a 'forward' list",
                 id="sidecar-without-forward"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(tmp_path, call, error, message):
    assert helpers.outcome(call, tmp_path)[0] == (error, message)
