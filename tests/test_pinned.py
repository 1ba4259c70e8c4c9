"""Outputs that a change of the row representation must not move.

Every value is taken through the public boundary (tuple rows from
basis_rows(), witness tuples, counts), in the order the library returns
it, with the guard ticks of each call, and hashed into one constant.
"""

import hashlib
import json
import random

from isospace.altspace import form_rows
from isospace.bipartite import ncrk_witness_pair
from isospace.errors import Guard
from isospace.ffield import PrimeField, Subspace, enumerate_complements, enumerate_subspaces
from isospace.graphs import Graph, space_from_graph
from isospace.isotropic import (alpha_exact, chi_brute, chi_maxcover,
                                enumerate_isotropic_lattice,
                                enumerate_maximal_branch,
                                enumerate_maximal_filter, greedy_deg_decomposition,
                                greedy_maximal, has_isotropic_dim2)
from util import F2, F3, random_matrix_space, random_space


def rows(u: Subspace) -> list:
    return [list(r) for r in u.basis_rows()]


def counted(fn, *args):
    g = Guard()
    return fn(*args, guard=g), g.used


def space_record(sp) -> list:
    lat, lat_ticks = counted(enumerate_isotropic_lattice, sp)
    (alpha, wit), alpha_ticks = counted(alpha_exact, sp)
    filt, filt_ticks = counted(enumerate_maximal_filter, sp)
    branch, branch_ticks = counted(enumerate_maximal_branch, sp)
    cover, cover_ticks = counted(chi_maxcover, sp)
    (dim2, pair), dim2_ticks = counted(has_isotropic_dim2, sp)
    rec = [[[rows(u) for u in level] for level in lat.levels],
           [form_rows(sp).kernel(u.rows).dim for u in lat.all_spaces()], lat_ticks,
           alpha, rows(wit), alpha_ticks,
           [rows(u) for u in filt], filt_ticks,
           [rows(u) for u in branch], branch_ticks,
           cover, cover_ticks,
           dim2, pair and [list(v) for v in pair], dim2_ticks,
           # rad_A(U) of every maximal space, as the form rows give it
           [rows(form_rows(sp).kernel(u.rows)) for u in filt]]
    if sp.field.p ** sp.n <= 3 ** 4:
        (chi, parts), chi_ticks = counted(chi_brute, sp)
        rec += [chi, [rows(u) for u in parts], chi_ticks]
    return rec


def complements_record(field, n) -> list:
    out = []
    for u in enumerate_subspaces(field, n):
        comps, ticks = counted(lambda guard: list(enumerate_complements(u, guard=guard)))
        out.append([rows(u), [rows(w) for w in comps], ticks])
    return out


def test_row_representation_outputs_pinned():
    rng = random.Random(1010)
    spaces = [random_space(rng, (F2, F3)[k % 2], rng.randint(1, 5 - k % 2),
                           rng.randint(0, 4)) for k in range(50)]
    spaces += [space_from_graph(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                          if rng.random() < 0.5]), (F2, F3)[n % 2])
               for n in (2, 3, 3, 4, 4, 5, 5, 5, 6, 6)]
    out = [space_record(sp) for sp in spaces]
    shapes = [(1, 3), (2, 3), (3, 2), (2, 2), (3, 3), (2, 4)]
    for k in range(24):
        field = (F2, F3)[k % 2]
        s, t = shapes[k % len(shapes)]
        b = random_matrix_space(rng, field, s, t, rng.randint(1, 3))
        (u, v), ticks = counted(ncrk_witness_pair, b)
        out.append([rows(u), rows(v), ticks])
    out += [complements_record(F2, 4), complements_record(F3, 3)]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "8c67b02e514d5808332a086f4f5d3043828576a043992ea17945992eec078100"


def test_greedy_outputs_pinned():
    # the RREF rows of greedy_maximal and of every greedy_deg_decomposition
    # part, in order, on two seeded spaces per field, n = 0..7 and 0-5
    # forms; the spaces with few forms are degenerate
    rng = random.Random(3535)
    out = []
    for field in (F2, F3, PrimeField(5)):
        for n in range(8):
            for m in range(6):
                for _ in range(2):
                    sp = random_space(rng, field, n, m)
                    out.append([rows(greedy_maximal(sp)),
                                [rows(u) for u in greedy_deg_decomposition(sp)]])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "aa247f6a05f7ea81e7f13151c0983d574add91959c1e1a55a681ab0dd582c6ac"
