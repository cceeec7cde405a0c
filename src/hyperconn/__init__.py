"""Connectivity bounds, exact homology, and homotopy types of hypergraph
independence complexes.

The core objects are ``Hypergraph`` (finite vertex set, pairwise
incomparable edges of size at least two) and ``SimplicialComplex``.  On top
of them the package computes a recursive connectivity bound (``psi``),
exact reduced integer homology via Smith normal form
(``reduced_homology``), domination-style bounds (``gamma_tilde``,
``epsilon``, ``k_bound``), proper-chain structure (``edge_distance``,
``is_properly_connected``, ``is_triangulated``), and recursive wedge
decompositions (``homotopy_type_triangulated``).  A deterministic
verification harness lives in ``hyperconn.verify`` and behind the
``hyperconn`` command line tool.
"""

from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    ComparableEdges,
    DepthExceeded,
    EdgeNotPresent,
    EdgeOutsideVertexSet,
    EdgeTooSmall,
    NotAFace,
    NotASubset,
    NotProperlyConnected,
    NotSubfamily,
    NotTriangulated,
    NotUniform,
    OverlappingVertexSets,
    ParseError,
    ResourceError,
    UnknownFixture,
    ValidationError,
    VertexNotPresent,
)
from .extnat import INF, ExtNat, ceil_half
from .hypergraph import Hypergraph, d_complete, d_complete_on, disjoint_union
from .complexes import (
    SimplicialComplex,
    complex_union,
    deletion,
    full_simplex,
    independence_complex,
    induced_subcomplex,
    join,
    link,
    minimal_nonfaces,
    simplex_boundary,
)
from .homology import HomologyProfile, conn_h, reduced_homology, smith_diagonal
from .psi import PsiSolver, degree_bound, psi, psi_naive, psi_witness
from .domination import (
    epsilon,
    epsilon_witness,
    gamma_tilde,
    gamma_tilde_witness,
    is_edgewise_dominant,
    k_bound,
    sp_tilde,
)
from .chains import (
    ProperChain,
    c_max_disjoint,
    edge_distance,
    find_decomposition_vertex,
    find_splitting_vertex,
    hypergraph_geq,
    is_irredundant,
    is_proper_chain,
    is_properly_connected,
    is_splitting_edge,
    is_triangulated,
    shortest_chain,
)
from .homotopy import (
    HomotopyType,
    SplitWitness,
    build_counterexample_family,
    d_set,
    homotopy_type_triangulated,
    is_properly_splitted,
    max_dimension_bound,
    properly_splitted_witness,
)
from .fixtures import FIXTURE_NAMES, fixture
from .formats import (
    HypergraphDocument,
    complex_to_document,
    document_to_complex,
    document_to_hypergraph,
    emit_json,
    emit_text,
    hypergraph_to_document,
    load_complex,
    load_hypergraph,
    parse_json,
    parse_text,
)
from .generators import (
    all_graphs,
    chordal_graphs,
    is_chordal,
    random_hypergraph,
    random_triangulated_uniform,
    random_uniform_hypergraph,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ValidationError", "EdgeTooSmall", "ComparableEdges",
    "EdgeOutsideVertexSet", "EdgeNotPresent", "VertexNotPresent",
    "NotASubset", "OverlappingVertexSets", "NotAFace", "NotUniform",
    "NotProperlyConnected", "NotSubfamily", "NotTriangulated",
    "ParseError", "UnknownFixture", "ResourceError", "BudgetExceeded",
    "CapacityExceeded", "DepthExceeded",
    # extended naturals
    "INF", "ExtNat", "ceil_half",
    # hypergraphs
    "Hypergraph", "d_complete", "d_complete_on", "disjoint_union",
    # complexes
    "SimplicialComplex", "full_simplex", "simplex_boundary",
    "independence_complex", "minimal_nonfaces", "link", "deletion",
    "induced_subcomplex", "join", "complex_union",
    # homology
    "smith_diagonal", "HomologyProfile", "reduced_homology", "conn_h",
    # recursive bound
    "PsiSolver", "psi", "psi_naive", "psi_witness", "degree_bound",
    # domination
    "sp_tilde", "gamma_tilde", "gamma_tilde_witness", "k_bound",
    "is_edgewise_dominant", "epsilon", "epsilon_witness",
    # chains
    "ProperChain", "is_proper_chain", "is_irredundant", "shortest_chain",
    "edge_distance", "is_properly_connected", "c_max_disjoint",
    "find_splitting_vertex", "is_splitting_edge",
    "find_decomposition_vertex", "is_triangulated", "hypergraph_geq",
    # homotopy
    "HomotopyType", "d_set", "homotopy_type_triangulated",
    "max_dimension_bound", "SplitWitness", "is_properly_splitted",
    "properly_splitted_witness", "build_counterexample_family",
    # fixtures and formats
    "fixture", "FIXTURE_NAMES", "HypergraphDocument", "parse_text",
    "emit_text", "parse_json", "emit_json", "document_to_hypergraph",
    "hypergraph_to_document", "document_to_complex", "complex_to_document",
    "load_hypergraph", "load_complex",
    # generators
    "random_hypergraph", "random_uniform_hypergraph", "all_graphs",
    "is_chordal", "chordal_graphs", "random_triangulated_uniform",
]
