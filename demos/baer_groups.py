#!/usr/bin/env python3
"""Baer groups: an alternating matrix tuple over odd F_p becomes a p-group
of class 2 and exponent p; abelian subgroups above the commutators mirror
isotropic spaces.

Run: python3 demos/baer_groups.py
"""

from isospace import (AltMatrixSpace, PrimeField, alpha_exact,
                      baer_generators, group_closure)
from isospace.ffield import Matrix

F3 = PrimeField(3)

J = Matrix.from_rows(F3, [[0, 1], [2, 0]])
sp = AltMatrixSpace(F3, 2, [J])
n, m, p = sp.n, sp.dim, 3

gens = baer_generators(sp.field, sp.n, sp.basis)
print(f"tuple (J) with n={n}, m={m} over F_{p}: {len(gens)} generators "
      f"in GL({1 + n + m}, {p}), all upper unitriangular")

G = group_closure(gens)
print(f"|G| = {G.order} = p^(n+m) = {p ** (n + m)}; abelian: {G.is_abelian()}")
print(f"|[G, G]| = {G.commutator_subgroup().order} (= p^m)")

orders = sorted(G.abelian_subgroup_orders())
alpha = alpha_exact(sp)[0]
print(f"abelian subgroup orders: {orders}")
print(f"max abelian order {max(orders)} = p^(m + alpha) with alpha(<J>) = {alpha}")
for d in range(n + 1):
    has = max(orders) >= p ** (m + d)
    print(f"  abelian subgroup of order >= p^(m+{d})? {has}   "
          f"alpha >= {d}? {alpha >= d}")
