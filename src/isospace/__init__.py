"""Exact computation with isotropic spaces of alternating matrix spaces.

Alternating matrix spaces over small prime fields play the role of graphs:
isotropic spaces correspond to independent sets, isotropic direct-sum
decompositions to vertex colorings.  The package provides the graph
bridge in both directions, exact exponential algorithms for the isotropic
number alpha and the decomposition number chi, counting formulas as
oracles, the non-commutative rank route for bipartite spaces, the Baer
group construction, and a quantum-channel variant.
"""

from .errors import (DEFAULT_GUARD, Guard, GuardExceeded, ParseError,
                     VerificationError)
from .ffield import (Matrix, PrimeField, Subspace, enumerate_complements,
                     enumerate_subspaces, gaussian_binomial, invert, kernel,
                     rref_canonicalize, solve_linear)
from .altspace import (AltMatrixSpace, degree, elementary_alternating,
                       is_isotropic, isometry_transform, max_degree,
                       max_rank_bruteforce, nondegenerate_part, rad_of,
                       radical_space, restrict, validate_decomposition)
from .graphs import (Graph, coloring_from_decomposition, graph_alpha_brute,
                     graph_chi_brute, independent_set_from_isotropic,
                     is_bipartite_bfs, space_from_graph)
from .isotropic import (IsotropicLattice, alpha_exact, chi_brute, chi_lawler,
                        chi_maxcover, enumerate_isotropic_lattice,
                        enumerate_maximal_branch, enumerate_maximal_filter,
                        greedy_deg_decomposition, greedy_maximal,
                        greedy_part_bound, has_isotropic_dim2,
                        isotropic_count_formula, two_decomposition_brute)
from .bipartite import (AdjointAlgebra, MatrixSpace, adjoint_algebra,
                        alpha_bipartite, bipartite_space_from_blocks,
                        block_space_from_bipartite,
                        decomposition_from_idempotent,
                        hyperbolic_idempotent_search, ncrk_brute,
                        ncrk_pad_square, two_decomposition_via_adjoint)
from .gadgets import (MatrixGroupClosure, baer_generators, dim2_gadget,
                      group_closure, right_degree_min, singular_exists_brute)
from .quantum import (ComplexSubspace, QuantumChannel, channel_from_graph,
                      channel_matrix, decide_iso_2_decomposition,
                      fidelity_pure, is_irreducible, is_isotropic_subspace,
                      is_noiseless_subspace, period)

__version__ = "0.1.0"
