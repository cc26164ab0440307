"""Hardware-aligned N:M pruning masks with connectivity guarantees.

The package scores dense weight matrices (magnitude, activation-scaled,
and relative-importance metrics), permutes input channels round-robin to
spread important channels across pruning groups, and builds binary N:M
masks either purely by score or with a connectivity-aware strategy that
guarantees every input channel keeps a minimum number of connections.
Masks can be checked as bipartite graphs: exact degree laws always, and
exact vertex-expansion ratios over all subsets at desk scale.
"""

from .errors import (
    ConfigError,
    FormatError,
    NMPruneError,
    VerificationError,
    ZeroColumnError,
    ZeroRowError,
)
from .graphs import (
    ENUM_VERTEX_LIMIT,
    DegreeLawReport,
    ExpansionReport,
    brute_force_expansion,
    mask_to_graph,
    verify_degree_laws,
)
from .harness import (
    METHODS,
    PROFILES,
    MethodReport,
    PruneResult,
    compare_methods,
    gen_synthetic,
    norms_from_batch,
    prune_with_method,
    reconstruction_error,
    reports_to_csv,
    reports_to_json,
)
from .masks import (
    PruneConfig,
    apply_mask,
    check_nm_pattern,
    connectivity_select,
    diagonal_select,
    eggs_prune,
    importance_select,
)
from .metrics import (
    ActivationNorms,
    channel_scores,
    magnitude_score,
    ria,
    rri,
    wanda_score,
)
from .partition import (
    assign_blocks,
    order_rows,
    plan_groups,
)
from .permute import (
    ChannelPermutation,
    apply_to_columns,
    build_permutation,
    load_permutation,
    save_permutation,
    unpermute_mask,
)
from .tensor_store import (
    TensorBundle,
    load_bundle,
    save_bundle,
)

__version__ = "0.1.0"
