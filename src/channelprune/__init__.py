"""Graph-guided channel pruning for attention-weight reconstruction.

Builds a dense interaction graph over query/key channels, selects
channels to prune with a greedy minimum-incremental-error strategy (or
baselines: independent scoring, random, an exact branch-and-bound
oracle), shields high-norm key channels from removal, and quantifies
the resulting reconstruction error on synthetic or file-loaded matrices.
"""

from .core import ChannelMatrix, IndexSet, reconstruction_error_sq
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    MatrixFormatError,
    MatrixValidationError,
)
from .graph import (
    DEFAULT_ENUMERATION_CAP,
    EigenCertificate,
    build_interaction_graph,
    quadratic_form,
    restricted_eigenvalues,
)
from .prune import (
    Problem,
    ProtectionPolicy,
    PruneSelection,
    Selector,
    mies_select,
    oracle_select,
    protect_channels,
    random_select,
    think_select,
)
from .sim import SyntheticSpec, generate_instance

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChannelMatrix",
    "ConfigError",
    "DEFAULT_ENUMERATION_CAP",
    "DegenerateInputError",
    "EigenCertificate",
    "IndexSet",
    "MatrixFormatError",
    "MatrixValidationError",
    "Problem",
    "ProtectionPolicy",
    "PruneSelection",
    "Selector",
    "SyntheticSpec",
    "build_interaction_graph",
    "generate_instance",
    "protect_channels",
    "quadratic_form",
    "reconstruction_error_sq",
    "restricted_eigenvalues",
]
