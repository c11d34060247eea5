"""Continuous-time quantum-walk spatial search toolkit.

Simulates and analyzes search driven by the Laplacian, adjacency, or
signless-Laplacian walk generator, with a closed-form layer for the
complete bipartite graph and a spin-network origin check for all three
walks.
"""

from .graph import (
    BipartiteSpec,
    Graph,
    adjacency_matrix,
    complete_bipartite,
    degree_matrix,
    laplacian,
    read_edge_list,
    signless_laplacian,
)
from .evolve import (
    EigenDecomposition,
    SearchInstance,
    WalkKind,
    eig_hermitian,
    first_peak,
    overlap_profile,
    propagate,
    search_hamiltonian,
    success_probability,
    uniform_state,
    walk_matrix,
)
from .spin_network import (
    CouplingConstants,
    certify_walk_equivalence,
    demo_graph,
    single_excitation_hamiltonian,
)
from .bipartite import (
    ClosedFormPeak,
    CriticalSide,
    DegenerateEigensystem,
    FastestWalk,
    InitialStateKind,
    RegimeClassification,
    RuntimeTable,
    Target,
    asymptotic_eigensystem_h0,
    class_sizes,
    class_slices,
    closed_form_peaks,
    closed_form_probabilities,
    closed_form_runtime,
    critical_gamma,
    degenerate_correction,
    energy_gap,
    fastest_regime,
    initial_state,
    next_order_correction,
    next_order_probabilities,
    reduced_hamiltonian,
    reduced_to_full,
    reduced_walk_matrix,
    runtime_table,
    simulate_full,
    simulate_reduced,
)

__version__ = "0.1.0"
