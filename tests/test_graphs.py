"""Graph view of masks: the edge array, degree laws, exact expansion."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from nmprune import (
    NMPruneError,
    PruneConfig,
    brute_force_expansion,
    mask_to_graph,
    verify_degree_laws,
)
from nmprune.graphs import DegreeLawReport
from nmprune.masks import eggs_prune


class TestMaskToGraph:
    def test_identity_mask(self):
        g = mask_to_graph(np.eye(3, dtype=np.uint8))
        assert g.mask.dtype == np.bool_
        assert [tuple(np.flatnonzero(row)) for row in g.mask] == [(0,), (1,), (2,)]

    def test_complete_bipartite(self):
        g = mask_to_graph(np.ones((2, 2), dtype=np.uint8))
        assert [tuple(np.flatnonzero(row)) for row in g.mask] == [(0, 1), (0, 1)]

    def test_zero_column_gives_zero_degree(self):
        mask = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        g = mask_to_graph(mask)
        assert g.n_inputs == 2
        assert not g.mask[:, 1].any()

    def test_edge_count_preserved(self):
        rng = np.random.default_rng(1)
        mask = (rng.uniform(size=(6, 9)) < 0.4).astype(np.uint8)
        g = mask_to_graph(mask)
        assert (g.n_outputs, g.n_inputs) == g.mask.shape == mask.shape
        assert int(g.mask.sum()) == int(mask.sum())
        np.testing.assert_array_equal(g.mask.sum(axis=0), mask.sum(axis=0))


class TestDegreeStats:
    """The degree extremes a degree-law report carries, whether or not the
    laws hold."""

    def test_complete_bipartite_degrees(self):
        report = verify_degree_laws(np.ones((2, 2), dtype=np.uint8), PruneConfig(1, 2, b=0))
        assert (report.min_in_degree, report.min_out_degree) == (2, 2)

    def test_empty_graph(self):
        report = verify_degree_laws(np.zeros((3, 4), dtype=np.uint8), PruneConfig(2, 4, b=0))
        assert (report.min_in_degree, report.min_out_degree) == (0, 0)
        assert report.violation == "output 0 has degree 0, expected 2"

    def test_regular_output_side(self):
        w, act = helpers.random_layer(4, 8, 16)
        cfg = PruneConfig(2, 4, b=1)
        report = verify_degree_laws(eggs_prune(w, act, cfg), cfg)
        assert report.min_out_degree == (16 // 4) * 2


class TestVerifyDegreeLaws:
    def test_passing_report(self):
        w, act = helpers.random_layer(5, 8, 8)
        cfg = PruneConfig(2, 4, b=1)
        report = verify_degree_laws(eggs_prune(w, act, cfg), cfg)
        f_out, f_in = 8, 8
        assert report.violation is None
        assert report.min_out_degree == (f_in // 4) * 2 == 4
        assert report.min_in_degree >= min(cfg.b, f_out // 4) == 1
        # the smaller of the input endpoint b/f_in and the output endpoint
        # f_in(m-n)/(f_out m) = 1/2
        assert report.c_bound == min(Fraction(cfg.b, f_in), Fraction(f_in * 2, f_out * 4))
        assert report.c_bound == Fraction(1, 8)

    def test_dead_column_fails(self):
        mask = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.uint8
        )
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=1))
        assert report.violation == "input 3 has degree 0, below the guaranteed floor 1"
        assert report.min_in_degree == 0

    def test_wrong_output_degree_fails(self):
        mask = np.array([[1, 1, 1, 0]], dtype=np.uint8)
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=0))
        assert report.violation == "output 0 has degree 3, expected 2"

    def test_outputs_checked_before_inputs(self):
        mask = np.array([[1, 1, 1, 0]] + [[1, 1, 0, 0]] * 3, dtype=np.uint8)
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=1))
        assert report.violation.startswith("output 0 ")

    def test_columns_not_divisible_by_m(self):
        mask = np.array([[1, 1, 0, 0, 1, 0]] * 4, dtype=np.uint8)
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=1))
        assert report.violation == "6 columns not divisible by window width 4"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_has_no_degrees(self, value):
        # counted as verify counts it: no warning of the int64 cast, no minimum degree
        mask = np.tile(np.array([1, 1, 0, 0], dtype=np.float32), (4, 1))
        mask[2, 3] = value
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=1))
        assert report == DegreeLawReport(None, None, Fraction(1, 4), "mask entries must be 0 or 1")

    def test_a_finite_entry_that_is_not_0_or_1_is_counted(self):
        mask = np.tile(np.array([1, 1, 0, 0], dtype=np.float32), (4, 1))
        mask[0, 0] = 2.0
        report = verify_degree_laws(mask, PruneConfig(2, 4, b=1))
        assert report == DegreeLawReport(0, 2, Fraction(1, 4), "output 0 has degree 3, expected 2")

    def test_floor_two(self):
        w, act = helpers.random_layer(6, 8, 8)
        cfg = PruneConfig(2, 4, b=2)
        report = verify_degree_laws(eggs_prune(w, act, cfg), cfg)
        assert report.violation is None
        assert report.min_in_degree >= min(cfg.b, 8 // 4) == 2


class TestBruteForceExpansion:
    def test_complete_bipartite(self):
        report = brute_force_expansion(mask_to_graph(np.ones((2, 2), dtype=np.uint8)),
                                       Fraction(1, 2))
        assert report.a_in == Fraction(2) and report.a_out == Fraction(2)

    def test_perfect_matching_is_not_an_expander(self):
        report = brute_force_expansion(mask_to_graph(np.eye(4, dtype=np.uint8)),
                                       Fraction(1, 2))
        assert report.a_in == Fraction(1) and report.a_out == Fraction(1)

    @settings(max_examples=150, deadline=None)
    @given(
        mask=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
                        elements=st.integers(0, 1)),
        k=st.integers(1, 7),
    )
    def test_agrees_with_naive_oracle(self, mask, k):
        c = Fraction(k, 8)
        report = brute_force_expansion(mask_to_graph(mask), c)
        a_in, a_out = helpers.expansion_oracle(mask, c)
        assert report.a_in == a_in and report.a_out == a_out

    @pytest.mark.parametrize("mask, ratio", [
        (np.eye(22, dtype=np.uint8), Fraction(1)),
        (np.ones((22, 22), dtype=np.uint8), Fraction(2)),
    ])
    def test_known_answers_at_the_vertex_limit(self, mask, ratio):
        c = Fraction(1, 2)
        assert int(c * 22) == 11
        report = brute_force_expansion(mask_to_graph(mask), c)
        assert report.a_in == report.a_out == ratio

    def test_vacuous_side_reports_none(self):
        report = brute_force_expansion(mask_to_graph(np.eye(8, dtype=np.uint8)),
                                       Fraction(1, 16))
        assert report.a_in is None and report.a_out is None

    def test_monotone_in_c(self):
        rng = np.random.default_rng(91)
        mask = (rng.uniform(size=(8, 8)) < 0.5).astype(np.uint8)
        g = mask_to_graph(mask)
        prev = None
        for c in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            a_in = brute_force_expansion(g, c).a_in
            if prev is not None and a_in is not None:
                assert a_in <= prev
            prev = a_in if a_in is not None else prev

    def test_capacity_guard(self):
        mask = np.ones((2, 23), dtype=np.uint8)
        with pytest.raises(NMPruneError, match="23 inputs exceed the enumeration limit 22"):
            brute_force_expansion(mask_to_graph(mask), Fraction(1, 2))

    def test_capacity_ignored_when_side_vacuous(self):
        mask = np.ones((2, 23), dtype=np.uint8)
        report = brute_force_expansion(mask_to_graph(mask), Fraction(1, 46))
        assert report.a_in is None

    def test_c_domain(self):
        g = mask_to_graph(np.eye(2, dtype=np.uint8))
        with pytest.raises(NMPruneError, match=r"subset fraction must be in \(0, 1\)"):
            brute_force_expansion(g, Fraction(3, 2))
        with pytest.raises(NMPruneError, match=r"subset fraction must be in \(0, 1\)"):
            brute_force_expansion(g, 0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), "x"])
    def test_c_that_is_not_a_fraction(self, c):
        g = mask_to_graph(np.eye(2, dtype=np.uint8))
        with pytest.raises(NMPruneError, match=rf"subset fraction must be in \(0, 1\), got {c}$"):
            brute_force_expansion(g, c)


REFUSALS = [
    pytest.param(lambda: mask_to_graph(np.ones(4)), NMPruneError, "mask must be 2-D",
                 id="graph-of-a-vector"),
    pytest.param(lambda: verify_degree_laws(np.ones(4), PruneConfig(2, 4)), NMPruneError,
                 "mask must be 2-D", id="degree-laws-of-a-vector"),
    pytest.param(lambda: brute_force_expansion(mask_to_graph(np.ones((23, 4))), Fraction(1, 2)),
                 NMPruneError, "23 outputs exceed the enumeration limit 22",
                 id="outputs-over-the-limit"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    assert helpers.outcome(call)[0] == (error, message)
