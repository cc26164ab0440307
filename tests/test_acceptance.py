"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its measured numbers once its
assertions hold; run with ``pytest tests/test_acceptance.py -v -s`` to see
them. Criteria with runtime budgets assert the elapsed wall time.
"""

import json
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

import helpers
from nmprune import (
    METHODS,
    ActivationNorms,
    ChannelPermutation,
    PruneConfig,
    brute_force_expansion,
    check_nm_pattern,
    compare_methods,
    gen_synthetic,
    load_bundle,
    mask_to_graph,
    norms_from_batch,
    prune_with_method,
    save_bundle,
    verify_degree_laws,
)
from nmprune.cli import main as cli_main
from nmprune.masks import diagonal_select
from nmprune.metrics import channel_scores, ria, rri
from nmprune.permute import apply_to_columns, build_permutation

CONFIGS = [(2, 4), (4, 8), (1, 4), (2, 8)]
B_VALUES = (0, 1, 2, 3)


def report(num, name, detail):
    print(f"criterion {num:02d} {name}: PASS ({detail})")


@dataclass
class Layer:
    n: int
    m: int
    w: np.ndarray
    acts: ActivationNorms
    masks: dict = field(default_factory=dict)
    eggs_masks: dict = field(default_factory=dict)


def prune_mask(w, acts, cfg, method):
    """prune_with_method's mask; eggs must warn once per group exactly when
    B exceeds the full row blocks, and nothing else may warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mask = prune_with_method(w, acts, cfg, method).mask
    clamped = method == "eggs" and cfg.b > w.shape[0] // cfg.m
    assert len(caught) == (w.shape[1] // cfg.m if clamped else 0)
    assert all("clamping" in str(c.message) for c in caught)
    return mask


@pytest.fixture(scope="module")
def suite():
    """200 randomized layers with masks from every method, plus eggs masks
    across the block-count grid. The timed section covers what criterion 1
    measures: generation plus one mask per method."""
    rng = np.random.default_rng(20260811)
    layers = []
    t0 = time.perf_counter()
    for i in range(200):
        n, m = CONFIGS[i % len(CONFIGS)]
        rows = int(rng.integers(4, 65))
        cols = int(rng.integers(1, 65)) * m
        w = rng.standard_normal((rows, cols)).astype(np.float32)
        acts = ActivationNorms(rng.uniform(0.1, 2.0, size=cols), 0.5)
        layer = Layer(n, m, w, acts)
        for method in METHODS:
            layer.masks[method] = prune_mask(w, acts, PruneConfig(n, m, 1), method)
        layers.append(layer)
    elapsed = time.perf_counter() - t0
    for layer in layers:
        for b in B_VALUES:
            cfg = PruneConfig(layer.n, layer.m, b)
            layer.eggs_masks[b] = prune_mask(layer.w, layer.acts, cfg, "eggs")
    return layers, elapsed


def test_criterion_01_nm_validity(suite):
    layers, build_time = suite
    t0 = time.perf_counter()
    checked = 0
    for layer in layers:
        for method in METHODS:
            check_nm_pattern(layer.masks[method], layer.n, layer.m)
            checked += 1
    elapsed = build_time + (time.perf_counter() - t0)
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "N:M validity", f"{checked} masks across {len(layers)} layers, {elapsed:.2f}s")


def test_criterion_02_degree_laws(suite):
    layers, _ = suite
    checked = 0
    for layer in layers:
        for b in B_VALUES:
            cfg = PruneConfig(layer.n, layer.m, b)
            rep = verify_degree_laws(layer.eggs_masks[b], cfg)
            assert rep.violation is None
            assert rep.min_in_degree >= min(b, layer.w.shape[0] // layer.m)
            checked += 1
    report(2, "degree laws", f"{checked} masks, B grid {B_VALUES}")


def test_criterion_03_two_sided_expansion():
    t0 = time.perf_counter()
    # frozen endpoint ratios observed for these seeds, cross-checked below
    # against the naive oracle
    endpoint_expected = {
        1: (Fraction(2), Fraction(4)),
        2: (Fraction(5, 2), Fraction(5, 2)),
    }
    points = 0
    for b in (1, 2):
        w, z = gen_synthetic(300 + b, 8, 8, "gaussian")
        acts = norms_from_batch(z, 0.5)
        mask = prune_with_method(w, acts, PruneConfig(2, 4, b), "eggs").mask
        g = mask_to_graph(mask)
        floor = min(b, 8 // 4)
        out_degree = (8 // 4) * 2
        bound = Fraction(b, 8)  # = min(b/8, 1/2), the admissible endpoint
        for c in (bound / 4, bound / 2, 3 * bound / 4, bound):
            rep = brute_force_expansion(g, c)
            oracle_in, oracle_out = helpers.expansion_oracle(mask, c)
            assert rep.a_in == oracle_in and rep.a_out == oracle_out
            if c < bound:
                # interior of the admissible range: every admissible subset
                # is smaller than the degree floor, so any computed ratio
                # must exceed 1 (vacuous sides report None)
                max_subset = int(c * 8)  # the largest admissible subset, either side
                if max_subset >= 1:
                    assert max_subset < floor and max_subset < out_degree
                    assert isinstance(rep.a_in, Fraction) and rep.a_in > 1
                    assert isinstance(rep.a_out, Fraction) and rep.a_out > 1
            else:
                # endpoint: the smallest c with non-empty subsets for this b
                assert rep.a_in == endpoint_expected[b][0] > 1
                assert rep.a_out == endpoint_expected[b][1] > 1
            points += 1
        if b == 1:
            # for b = 1 the open range admits no non-empty subsets at all:
            # floor(8c) = 0 for every c < 1/8
            interior = brute_force_expansion(g, bound / 2)
            assert interior.a_in is None and interior.a_out is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    report(3, "two-sided expansion", f"{points} (b, c) points, oracle-exact, {elapsed:.2f}s")


def test_criterion_04_degeneracy_equivalence(suite):
    layers, _ = suite
    for layer in layers[:100]:
        assert np.array_equal(layer.eggs_masks[0], layer.masks["ria"])
    report(4, "degeneracy equivalence", "eggs b=0 bit-identical to score baseline on 100 layers")


def test_criterion_05_diagonal_oracle():
    rng = np.random.default_rng(55)
    checked = 0
    for size in (4, 8):
        for i in range(500):
            if i % 4 == 0:
                block = rng.integers(-3, 4, size=(size, size)).astype(np.float64)
            else:
                block = rng.standard_normal((size, size))
            got = diagonal_select(block)
            np.testing.assert_array_equal(got, helpers.diagonal_select_oracle(block))
            assert (got.sum(axis=0) == 1).all() and (got.sum(axis=1) == 1).all()
            checked += 1
    report(5, "diagonal-selection oracle", f"{checked} blocks (4x4 and 8x8), zero mismatches")


def test_criterion_06_channel_corruption_guarantee():
    ria_corrupted = 0
    for i in range(100):
        k = (i % 3) + 1
        w, z = gen_synthetic(600 + i, 16, 32, "dead-columns", k=k)
        reports = compare_methods(w, norms_from_batch(z), PruneConfig(2, 4, 1), ["ria", "eggs"],
                                  z=z)
        by_method = {r.method: r for r in reports}
        assert by_method["eggs"].corrupted == 0
        if by_method["ria"].corrupted >= 1:
            ria_corrupted += 1
    assert ria_corrupted >= 90
    report(6, "channel-corruption guarantee",
           f"eggs corrupted 0/100, score-only baseline corrupted in {ria_corrupted}/100")


def test_criterion_07_permutation_semantics():
    rng = np.random.default_rng(77)
    for _ in range(100):
        w = rng.standard_normal((4, 8)).astype(np.float32)
        acts = ActivationNorms(rng.uniform(0.1, 2.0, size=8), 0.5)
        scores = channel_scores(ria(w, acts))
        perm = build_permutation(scores, 4)
        ranked = np.argsort(-scores, kind="stable")
        assert perm.inverse[ranked[0]] == 0  # group 1 leads with the top channel
        assert perm.inverse[ranked[1]] == 4  # group 2 gets the runner-up
        np.testing.assert_array_equal(np.sort(perm.forward), np.arange(8))
        back = apply_to_columns(apply_to_columns(w, perm),
                                ChannelPermutation(perm.inverse))
        assert back.tobytes() == w.tobytes()
    report(7, "channel-permutation semantics", "4x8 top-channel placement + 100 round-trips")


def test_criterion_08_metric_correctness():
    rng = np.random.default_rng(88)
    for _ in range(100):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, 60))
        w = rng.standard_normal((rows, cols))
        assert np.abs(rri(w).sum(axis=1) - 1.0).max() <= 1e-6
        acts0 = ActivationNorms(rng.uniform(0.1, 3.0, size=cols), 0.0)
        np.testing.assert_allclose(ria(w, acts0), rri(w) + rri(w.T).T, rtol=1e-12, atol=0)
        s = float(rng.uniform(0.01, 100.0))
        np.testing.assert_array_equal(
            np.argsort(rri(w), axis=1, kind="stable"),
            np.argsort(rri(s * w), axis=1, kind="stable"),
        )
        acts = ActivationNorms(rng.uniform(0.1, 3.0, size=cols), 0.5)
        np.testing.assert_array_equal(
            np.argsort(ria(w, acts).ravel(), kind="stable"),
            np.argsort(ria(s * w, acts).ravel(), kind="stable"),
        )
    report(8, "metric correctness", "row sums, alpha=0 split, rescale rankings on 100 layers")


def test_criterion_09_determinism_and_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    for i in range(50):
        entries = {}
        for t in range(int(rng.integers(1, 4))):
            shape = tuple(int(x) for x in rng.integers(1, 9, size=int(rng.integers(1, 3))))
            if rng.uniform() < 0.5:
                entries[f"t{t}"] = rng.standard_normal(shape).astype(np.float32)
            else:
                entries[f"t{t}"] = rng.integers(0, 256, size=shape).astype(np.uint8)
        path = tmp_path / f"bundle{i}.tensors"
        save_bundle(entries, path)
        loaded = load_bundle(path)
        assert set(loaded) == set(entries)
        for name, arr in entries.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    for run_dir in ("r1", "r2"):
        d = tmp_path / run_dir
        d.mkdir()
        assert cli_main(["gen", "--out", str(d / "layer.tensors"), "--dims", "16x16",
                         "--seed", "42"]) == 0
        assert cli_main(["prune", "--in", str(d / "layer.tensors"),
                         "--out", str(d / "pruned.tensors"),
                         "--method", "eggs", "--n", "2", "--m", "4", "--b", "2"]) == 0
    for name in ("layer.tensors", "pruned.tensors", "pruned.tensors.perm.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    report(9, "determinism & round-trip", "50 bundles bit-exact, CLI reruns byte-identical")


def test_criterion_10_sweep_behavior(tmp_path, capsys):
    path = tmp_path / "layer64.tensors"
    assert cli_main(["gen", "--out", str(path), "--dims", "64x64",
                     "--profile", "dead-columns", "--k", "3", "--seed", "1000"]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert cli_main(["sweep", "--in", str(path), "--b-range", "1..8",
                     "--n", "2", "--m", "4"]) == 0
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "B,error,corrupted,min_in_degree,lemma1_pass"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    assert all(r[4] == "true" for r in rows)
    mins = [int(r[3]) for r in rows]
    assert all(later >= earlier for earlier, later in zip(mins, mins[1:]))
    assert elapsed < 5.0, f"criterion 10 took {elapsed:.2f}s"
    with capsys.disabled():
        print()
        report(10, "sweep behavior", f"min in-degree {mins}, {elapsed:.2f}s")
