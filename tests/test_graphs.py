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
    eggs_prune,
    mask_to_graph,
    verify_degree_laws,
)


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
        assert report.min_out_degree == report.out_degree == (16 // 4) * 2


class TestVerifyDegreeLaws:
    def test_passing_report(self):
        w, act = helpers.random_layer(5, 8, 8)
        cfg = PruneConfig(2, 4, b=1)
        report = verify_degree_laws(eggs_prune(w, act, cfg), cfg)
        assert report.violation is None
        assert report.out_degree == 4
        assert report.input_floor == 1
        assert report.c_bound == Fraction(1, 8)
        assert report.c_output == Fraction(1, 2)

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

    def test_floor_two(self):
        w, act = helpers.random_layer(6, 8, 8)
        cfg = PruneConfig(2, 4, b=2)
        report = verify_degree_laws(eggs_prune(w, act, cfg), cfg)
        assert report.violation is None
        assert report.input_floor == 2
        assert report.min_in_degree >= 2


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
        report = brute_force_expansion(mask_to_graph(mask), Fraction(1, 2))
        assert report.max_subset_inputs == report.max_subset_outputs == 11
        assert report.a_in == report.a_out == ratio

    def test_vacuous_side_reports_none(self):
        report = brute_force_expansion(mask_to_graph(np.eye(8, dtype=np.uint8)),
                                       Fraction(1, 16))
        assert report.a_in is None and report.a_out is None
        assert report.max_subset_inputs == 0

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
