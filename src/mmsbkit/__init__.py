"""Regularized-Laplacian spectral clustering for mixed-membership
community detection, with a seeded synthetic benchmark harness."""

from .corners import CornerSet, SvmSolution, cone_closed_form, one_class_svm, sp_select, svm_cone_select
from .evaluation import ErrorReport, NetworkStats, laplacian_concentration, mixed_hamming_error, network_stats
from .exceptions import DataFormatError, MmsbkitError, NumericalError
from .io_formats import (
    read_edge_list,
    read_matrix_csv,
    read_memberships,
    write_edge_blocks,
    write_edge_list,
    write_matrix_csv,
    write_memberships,
)
from .model import (
    BlockModel,
    Graph,
    MembershipMatrix,
    PopulationMatrix,
    PROFILES,
    build_population_matrix,
    planted_memberships,
    sample_adjacency,
    sample_edge_blocks,
)
from .recovery import (
    RecoveryResult,
    crsc,
    crsc_equivalence,
    ideal_crsc,
    ideal_srsc,
    recover_from_basis,
    srsc,
    srsc_equivalence,
)
from .spectral import (
    SpectralBasis,
    default_tau,
    leading_eigenpairs,
    population_eigenpairs,
    regularized_laplacian,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    block_from_spec,
    diag_off_block,
    negative_eig_block,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlockModel",
    "CornerSet",
    "DataFormatError",
    "ErrorReport",
    "Graph",
    "MembershipMatrix",
    "MmsbkitError",
    "NetworkStats",
    "NumericalError",
    "PopulationMatrix",
    "PROFILES",
    "RecoveryResult",
    "SpectralBasis",
    "SvmSolution",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "block_from_spec",
    "build_population_matrix",
    "cone_closed_form",
    "crsc",
    "crsc_equivalence",
    "default_tau",
    "diag_off_block",
    "ideal_crsc",
    "ideal_srsc",
    "laplacian_concentration",
    "leading_eigenpairs",
    "mixed_hamming_error",
    "negative_eig_block",
    "network_stats",
    "one_class_svm",
    "planted_memberships",
    "population_eigenpairs",
    "read_edge_list",
    "read_matrix_csv",
    "read_memberships",
    "recover_from_basis",
    "regularized_laplacian",
    "run_sweep",
    "sample_adjacency",
    "sample_edge_blocks",
    "sp_select",
    "srsc",
    "srsc_equivalence",
    "svm_cone_select",
    "write_edge_blocks",
    "write_edge_list",
    "write_matrix_csv",
    "write_memberships",
]
