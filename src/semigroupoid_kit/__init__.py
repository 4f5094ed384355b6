"""Toolkit for directed multigraphs, their free semigroupoid path spaces,
atomic isometric families, road colorings, and finite matrix truncations.

The truncation names, and the ``trunc`` module, load on first use (PEP
562), so that only a program that uses them imports numpy and scipy."""

from importlib import import_module as _import_module

from .errors import (
    DomainError,
    EnumerationOverflow,
    GraphFormatError,
    InvalidColoring,
    NonTotalPresentation,
    NotACycle,
    PartialAutomaton,
    PathError,
)
from .graph import (
    Edge,
    Graph,
    cycle_graph,
    directed_closure,
    graph_to_dot,
    has_ses,
    induced_subgraph,
    is_in_degree_regular,
    is_transitive,
    looped_triangle,
    period,
    scc_of,
    source_elimination,
    strongly_connected_components,
    undirected_components,
    validate_graph,
)
from .paths import (
    CycleClass,
    Path,
    compose,
    cycle_vertices,
    cyclic_canonical_form,
    enumerate_paths,
    irreducible_cycles_at,
    is_cycle,
    is_primitive,
    path_range,
    primitive_root,
    rotations,
    source,
    validate_path,
    vertex_cycle_class,
)
from .phases import Phase
from .series import (
    FormalElement,
    cesaro,
    formal_mul,
    fourier_coeff,
    graded_ideal_degree,
    l2_row_norm,
)
from .atomic import (
    OMEGA,
    Arc,
    AtomDecomposition,
    CycleAtom,
    CycleFound,
    CycleType,
    DirectSum,
    EquivalenceReport,
    ExplicitAtomic,
    LabeledH,
    LeftRegular,
    LeftRegularAtom,
    MClass,
    MReport,
    RootFound,
    TailAtom,
    TailType,
    WoldData,
    are_unitarily_equivalent,
    build_H,
    classify,
    compare_decompositions,
    cycle_structure_multiplicities,
    decompose_cycle,
    finitely_correlated_multiplicities,
    gauge_transform,
    orbit_condition_M,
    pure_cycle_family,
    relabel,
    trace_backward,
    validate_atomic,
    validate_canonical,
    wold_atomic,
)
from .roadcoloring import (
    BackwardAutomaton,
    Coloring,
    SyncDiagram,
    backward_automaton,
    color_word,
    find_synchronizing_word,
    follow_backward,
    is_synchronizing_word,
    obrien_coloring,
    search_synchronizing_coloring,
    syncdiag_paths,
    synchronizing_guarantee,
    validate_coloring,
)
from .validation import Finding, ValidationReport

__version__ = "0.1.0"

_TRUNC = (
    "CycleLemmaReport", "RelationReport", "TruncatedRep", "apply_formal", "build_colored_trunc",
    "build_left_regular_trunc", "coisometric_defect", "cycle_lemma_check", "matrix_to_coordinates",
    "path_matrix", "verify_tck", "wandering_certificate",
)
__all__ = [name for name in globals() if not name.startswith("_")] + ["trunc", *_TRUNC]


def __getattr__(name: str):
    if name == "trunc" or name in _TRUNC:
        trunc = _import_module(".trunc", __name__)
        return trunc if name == "trunc" else getattr(trunc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
