"""The package's public names, the CLI's options, and no stale imports inside it."""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

import nmprune
from nmprune.cli import build_parser

PACKAGE_DIR = Path(nmprune.__file__).parent

EXPORTS = [
    "ActivationNorms",
    "ChannelPermutation",
    "ConfigError",
    "DegreeLawReport",
    "ENUM_VERTEX_LIMIT",
    "ExpansionReport",
    "FormatError",
    "METHODS",
    "MethodReport",
    "NMPruneError",
    "PROFILES",
    "PruneConfig",
    "PruneResult",
    "VerificationError",
    "apply_mask",
    "brute_force_expansion",
    "check_nm_pattern",
    "compare_methods",
    "gen_synthetic",
    "load_bundle",
    "load_permutation",
    "mask_to_graph",
    "norms_from_batch",
    "prune_with_method",
    "reconstruction_error",
    "save_bundle",
    "save_permutation",
    "verify_degree_laws",
]


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, __future__ features aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    return names


def test_exports_are_pinned():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    assert sorted(imported_names(tree)) == EXPORTS
    assert len(EXPORTS) == 28
    assert all(hasattr(nmprune, name) for name in EXPORTS)


# the pipeline's steps, each public under its own module only
BUILDING_BLOCKS = {
    "metrics": ["ria", "rri", "magnitude_score", "wanda_score", "channel_scores"],
    "partition": ["order_rows", "assign_blocks", "plan_groups"],
    "masks": ["importance_select", "connectivity_select", "diagonal_select", "eggs_prune"],
    "permute": ["build_permutation", "apply_to_columns", "unpermute_mask"],
}


@pytest.mark.parametrize("module", sorted(BUILDING_BLOCKS))
def test_building_blocks_have_one_public_name(module):
    home = importlib.import_module(f"nmprune.{module}")
    names = BUILDING_BLOCKS[module]
    assert [name for name in names if not callable(getattr(home, name, None))] == []
    assert [name for name in names if hasattr(nmprune, name)] == []


# every option each subcommand accepts, -h aside: a new flag is a deliberate edit
CLI_OPTIONS = {
    "gen": ["--dims", "--k", "--out", "--profile", "--seed"],
    "prune": ["--alpha", "--b", "--in", "--m", "--method", "--n", "--out"],
    "verify": ["--b", "--c", "--in", "--m", "--n"],
    "eval": ["--alpha", "--b", "--csv", "--in", "--m", "--methods", "--n"],
    "sweep": ["--alpha", "--b-range", "--in", "--m", "--n"],
}


def test_cli_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(opt for action in p._actions for opt in action.option_strings
                        if opt not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 29


# __init__.py is left out: its imports are the exports pinned above
MODULES = sorted(set(PACKAGE_DIR.glob("*.py")) - {PACKAGE_DIR / "__init__.py"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def test_only_metrics_names_the_block_size():
    # every chunked pass takes its blocks from metrics.row_blocks
    named = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
             if "_TOPK_CHUNK" in path.read_text()]
    assert named == ["metrics.py"]


def test_harness_formats_nothing():
    # the harness returns reports; the CLI alone turns them into JSON and CSV
    tree = ast.parse((PACKAGE_DIR / "harness.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert [name for name in modules if name in ("json", "csv")] == []


def test_cli_names_no_method():
    # which methods need activations is the harness's rule; the CLI takes the names from it
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if set(s.split(",")) & set(nmprune.METHODS)] == []
    assert any(isinstance(node, ast.ImportFrom) and node.module == "harness"
               and "METHODS" in [alias.name for alias in node.names] for node in ast.walk(tree))
