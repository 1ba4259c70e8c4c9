#!/usr/bin/env python3
"""Bipartite spaces: alpha through the non-commutative rank, and the
adjoint-algebra route to isotropic 2-decompositions.

Run: python3 demos/bipartite_ncrk.py
"""

import random

from isospace import (Graph, PrimeField, Subspace, adjoint_algebra,
                      alpha_bipartite, block_space_from_bipartite,
                      hyperbolic_idempotent_search, ncrk_brute,
                      ncrk_pad_square, space_from_graph,
                      two_decomposition_via_adjoint)
from isospace.ffield import Matrix
from isospace.bipartite import MatrixSpace

F3 = PrimeField(3)


def random_block_space(rng, field, s, t, m):
    mats = [Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(t)]
                                     for _ in range(s)]) for _ in range(m)]
    return MatrixSpace.from_generators(field, s, t, mats)

print("C_4 with its bipartition-aligned splitting:")
c4 = space_from_graph(Graph.cycle(4), F3)
u1 = Subspace.from_vectors(F3, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
u2 = Subspace.from_vectors(F3, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
b = block_space_from_bipartite(c4, u1, u2)
print(f"  block space B <= M({b.s}x{b.t}, F_3) of dim {b.dim}, ncrk = {ncrk_brute(b)}")
a, wit = alpha_bipartite(c4, u1, u2)
print(f"  alpha = n - ncrk = {a}; verified isotropic witness of dim {wit.dim}")
print()

print("Padding a rectangular space to square preserves ncrk up to t - s:")
bb = random_block_space(random.Random(1), F3, 2, 3, 2)
c = ncrk_pad_square(bb)
print(f"  ncrk(B) = {ncrk_brute(bb)} on 2x3; padded to 3x3: "
      f"ncrk(C) = {ncrk_brute(c)} = ncrk(B) + 1")
print()

print("The adjoint algebra decides 2-decomposability of a non-degenerate space:")
J = Matrix.from_rows(F3, [[0, 1], [2, 0]])
from isospace import AltMatrixSpace
spJ = AltMatrixSpace(F3, 2, [J])
adj = adjoint_algebra(spJ)
print(f"  dim Adj(<J>) = {adj.dim} (all of M(2, F_3))")
p = hyperbolic_idempotent_search(adj)
print(f"  hyperbolic idempotent found: P = {p.row_list()}")
pair = two_decomposition_via_adjoint(spJ)
print(f"  induced 2-decomposition: {pair[0].basis_rows()} (+) {pair[1].basis_rows()}")

k3 = space_from_graph(Graph.complete(3), F3)
print(f"  K_3 (chi = 3): search returns {two_decomposition_via_adjoint(k3)}")
