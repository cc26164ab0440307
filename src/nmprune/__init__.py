"""Hardware-aligned N:M pruning masks with connectivity guarantees.

The package scores dense weight matrices (magnitude, activation-scaled,
and relative-importance metrics), permutes input channels round-robin to
spread important channels across pruning groups, and builds binary N:M
masks either purely by score or with a connectivity-aware strategy that
guarantees every input channel keeps a minimum number of connections.
Masks can be checked as bipartite graphs: exact degree laws always, and
exact vertex-expansion ratios over all subsets at desk scale.

``import nmprune`` gives the user API below. The pipeline's building blocks
(scores, group planning, mask selection, permutation) are reached through
their modules: ``nmprune.metrics``, ``nmprune.partition``, ``nmprune.masks``
and ``nmprune.permute``.
"""

from .errors import ConfigError, FormatError, NMPruneError, VerificationError
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
)
from .masks import PruneConfig, apply_mask, check_nm_pattern
from .metrics import ActivationNorms
from .permute import ChannelPermutation, load_permutation, save_permutation
from .tensor_store import load_bundle, save_bundle

__version__ = "0.1.0"
