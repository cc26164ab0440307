"""The package's public names, and no stale imports inside it."""

import ast
from pathlib import Path

import pytest

import nmprune

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
    "apply_to_columns",
    "assign_blocks",
    "brute_force_expansion",
    "build_permutation",
    "channel_scores",
    "check_nm_pattern",
    "compare_methods",
    "connectivity_select",
    "diagonal_select",
    "eggs_prune",
    "gen_synthetic",
    "importance_select",
    "load_bundle",
    "load_permutation",
    "magnitude_score",
    "mask_to_graph",
    "norms_from_batch",
    "order_rows",
    "plan_groups",
    "prune_with_method",
    "reconstruction_error",
    "reports_to_csv",
    "reports_to_json",
    "ria",
    "rri",
    "save_bundle",
    "save_permutation",
    "unpermute_mask",
    "verify_degree_laws",
    "wanda_score",
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
    assert all(hasattr(nmprune, name) for name in EXPORTS)


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
