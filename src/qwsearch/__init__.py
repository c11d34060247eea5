"""Continuous-time quantum-walk spatial search toolkit.

Simulates and analyzes search driven by the Laplacian, adjacency, or
signless-Laplacian walk generator. Every search runs on the quotient of an
equitable partition of its graph, with no dense builder of the graph's
own matrices. A closed-form layer covers the complete bipartite graph,
and a spin-network check certifies the origin of all three walks from one
hopping amplitude and the energies of the distinct degrees.
"""

from . import bipartite, evolve, graph, spin_network
from .graph import *
from .evolve import *
from .spin_network import *
from .bipartite import *

__all__ = [*graph.__all__, *evolve.__all__, *spin_network.__all__, *bipartite.__all__]
__version__ = "0.1.0"
