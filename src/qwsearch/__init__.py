"""Continuous-time quantum-walk spatial search toolkit.

Simulates and analyzes search driven by the Laplacian, adjacency, or
signless-Laplacian walk generator. Every search runs on the quotient of an
equitable partition of its graph, with no dense builder of the graph's
own matrices. A closed-form layer covers the complete bipartite graph,
and a spin-network check certifies the origin of all three walks from one
hopping amplitude and the energies of the distinct degrees.
"""

from .graph import (
    BipartiteSpec,
    Graph,
    complete_bipartite,
    read_edge_list,
)
from .evolve import (
    EigenDecomposition,
    WalkKind,
    eig_hermitian,
    first_peak,
    propagate,
    uniform_state,
    walk_matrix,
)
from .spin_network import (
    CouplingConstants,
    ExcitationBlock,
    certify_walk_equivalence,
    demo_graph,
    single_excitation_block,
)
from .bipartite import (
    ClosedFormPeak,
    CriticalSide,
    DegenerateEigensystem,
    FastestWalk,
    InitialStateKind,
    RegimeClassification,
    RuntimeTable,
    asymptotic_eigensystem_h0,
    class_sizes,
    class_slices,
    closed_form_peaks,
    closed_form_probabilities,
    critical_gamma,
    degenerate_correction,
    fastest_regime,
    initial_state,
    next_order_correction,
    next_order_probabilities,
    reduced_to_full,
    refined_class_quotient,
    runtime_table,
)

__version__ = "0.1.0"
