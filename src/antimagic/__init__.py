"""Local antimagic labelings: matrices, graph families, verifier, search oracle."""

from .families import (
    ACCEPTANCE_GRID,
    BuiltFamily,
    FAMILIES,
    GridResult,
    ParameterError,
    build_family,
    verify_grid,
)
from .graph import (
    Bipartition,
    DuplicateName,
    GraphError,
    GraphTooLarge,
    InvalidPlan,
    LabeledEdge,
    LabeledGraph,
    Loop,
    LoopCreated,
    NotAPartition,
    ParallelEdge,
    ParallelEdgeCreated,
    apply_merge,
    chromatic_number_small,
    is_bipartite,
    new_graph,
    split_vertex,
)
from .matrices import (
    LabelMatrix,
    ValidationReport,
    matrix_5x2k,
    matrix_6x4n,
    matrix_kx10,
    sequences_6x4n,
    validate,
    validate_5x2k,
    validate_6x4n,
    validate_kx10,
)
from .search import (
    SearchResult,
    SearchStats,
    chi_la_exact,
    confirm_three,
)
from .verify import (
    ColorClass,
    ColorReport,
    ExpectedCheck,
    ExpectedColors,
    check_expected,
    induced_coloring,
    lower_bound,
    two_coloring_impossible,
    vertex_sums,
)

__version__ = "0.1.0"
