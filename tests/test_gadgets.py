import random
from itertools import product

import pytest

from isospace.altspace import AltMatrixSpace
from isospace.bipartite import MatrixSpace
from isospace.errors import Guard
from isospace.ffield import Matrix
from isospace.gadgets import (MatrixGroupClosure, baer_generators, dim2_gadget,
                              group_closure, right_degree_min, singular_exists_brute)
from isospace.isotropic import alpha_exact, has_isotropic_dim2
from util import F2, F3, random_space, symplectic_form


def test_singular_exists_scalars():
    sp = MatrixSpace.from_generators(F3, 3, 3, [Matrix.identity(F3, 3)])
    assert singular_exists_brute(sp) is None


def test_singular_exists_e11():
    e11 = Matrix.from_rows(F2, [[1, 0], [0, 0]])
    sp = MatrixSpace.from_generators(F2, 2, 2, [e11])
    assert singular_exists_brute(sp) == e11


def test_singular_exists_full_alternating_3():
    gens = [Matrix.from_rows(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
            Matrix.from_rows(F2, [[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
            Matrix.from_rows(F2, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])]
    sp = MatrixSpace.from_generators(F2, 3, 3, gens)
    wit = singular_exists_brute(sp)
    assert wit is not None and wit.rank() < 3


def test_singular_exists_requires_square():
    sp = MatrixSpace(F2, 1, 2, ())
    with pytest.raises(ValueError):
        singular_exists_brute(sp)


def test_dim2_gadget_shape():
    rng = random.Random(2)
    n, m = 3, 2
    bp = [Matrix.from_rows(F3, [[rng.randrange(3) for _ in range(m)]
                                for _ in range(n)]) for _ in range(n)]
    g = dim2_gadget(bp)
    assert g.n == n + m
    assert g.dim <= n + n * (n - 1) // 2 + m * (m - 1) // 2
    g.validate()


def test_dim2_gadget_single_entry():
    for b in range(3):
        g = dim2_gadget([Matrix.from_rows(F3, [[b]])])
        assert has_isotropic_dim2(g)[0] == (b == 0)


def test_claim_equivalence_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        f = rng.choice([F2, F3])
        bp = [Matrix.from_rows(f, [[rng.randrange(f.p) for _ in range(m)]
                                   for _ in range(n)]) for _ in range(n)]
        assert (right_degree_min(bp) < n) == has_isotropic_dim2(dim2_gadget(bp))[0]


def test_right_degree_examples():
    zeros = [Matrix.zeros(F2, 2, 2) for _ in range(2)]
    assert right_degree_min(zeros) == 0
    # slices of the identity tensor (m = 1, A_1 = I_2)
    idsl = [Matrix.from_rows(F3, [[1 if r == i else 0] for r in range(2)])
            for i in range(2)]
    assert right_degree_min(idsl) == 2
    e11 = [Matrix.from_rows(F2, [[1 if (r, i) == (0, 0) else 0] for r in range(2)])
           for i in range(2)]
    assert right_degree_min(e11) == 1


def test_right_degree_min_matches_every_vector():
    # the reference ranks [B'_1 v, ..., B'_n v] for every nonzero v, not one per line
    rng = random.Random(88)
    for k in range(40):
        f = (F2, F3)[k % 2]
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        bp = [Matrix.from_rows(f, [[rng.randrange(f.p) if rng.random() < 0.6 else 0
                                    for _ in range(m)] for _ in range(n)]) for _ in range(n)]
        ref = min(Matrix.from_rows(f, [[sum(b[r, j] * v[j] for j in range(m)) for r in range(n)]
                                       for b in bp]).rank()
                  for v in product(range(f.p), repeat=m) if any(v))
        assert right_degree_min(bp) == ref


def test_baer_generators_shape():
    gens = baer_generators(F3, 2, [symplectic_form(F3, 2)])
    assert len(gens) == 3
    for g in gens:
        assert g.rows == g.cols == 4
        assert all(g[i, i] == 1 for i in range(4))
        assert all(g[i, j] == 0 for i in range(4) for j in range(i))


def test_baer_rejects_even_characteristic():
    with pytest.raises(ValueError):
        baer_generators(F2, 2, [symplectic_form(F2, 2)])


def test_baer_central_generators_commute():
    sp = AltMatrixSpace.from_generators(
        F3, 3, [Matrix.from_rows(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
                Matrix.from_rows(F3, [[0, 0, 1], [0, 0, 0], [2, 0, 0]])])
    gens = baer_generators(sp.field, sp.n, sp.basis)
    n, m = 3, 2
    cs = gens[n:]
    for a in cs:
        for b in cs:
            assert a @ b == b @ a


def test_baer_heisenberg():
    gens = baer_generators(F3, 2, [symplectic_form(F3, 2)])
    G = group_closure(gens)
    assert G.order == 27 == 3 ** (2 + 1)
    assert not G.is_abelian()
    assert G.commutator_subgroup().order == 3
    assert G.max_abelian_order_brute() == 9


def test_baer_alpha_correspondence():
    # abelian subgroup of order p^(m+d) exists iff alpha >= d
    cases = [
        AltMatrixSpace(F3, 2, [symplectic_form(F3, 2)]),
        AltMatrixSpace.from_generators(
            F3, 3, [Matrix.from_rows(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])]),
    ]
    for sp in cases:
        gens = baer_generators(sp.field, sp.n, sp.basis)
        G = group_closure(gens)
        p, n, m = 3, sp.n, sp.dim
        assert G.order == p ** (n + m)
        orders = G.abelian_subgroup_orders()
        alpha = alpha_exact(sp)[0]
        for d in range(n + 1):
            assert (max(orders) >= p ** (m + d)) == (alpha >= d)


def test_group_closure_cyclic():
    g = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    G = group_closure([g])
    assert G.order == 3 and G.is_abelian()
    assert G.commutator_subgroup().order == 1


def test_is_abelian_matches_all_pairs_of_elements():
    rng = random.Random(12)
    groups = [group_closure(baer_generators(F3, 2, [symplectic_form(F3, 2)])),
              group_closure(baer_generators(
                  F3, 3, [Matrix.from_rows(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])]))]
    while len(groups) < 30:
        field = rng.choice([F2, F3])
        gens = [Matrix(field, 2, 2, [rng.randrange(field.p) for _ in range(4)])
                for _ in range(rng.randint(1, 3))]
        if all(g.rank() == 2 for g in gens):
            groups.append(group_closure(gens))
    seen = set()
    for G in groups:
        want = all(a @ b == b @ a for a in G.elements for b in G.elements)
        assert G.is_abelian() == want
        seen.add(want)
    assert seen == {True, False}


def test_the_abelian_search_meters_its_centralizer_scans(monkeypatch):
    # each centralizer_of call compares every group element with the
    # generators, so the guard takes |G| just before it
    sp = random_space(random.Random(16), F3, 2, 1)
    G = group_closure(baer_generators(sp.field, sp.n, sp.basis))
    log = []

    class Recorder(Guard):
        def tick(self, k=1):
            log.append(k)
            super().tick(k)

    scan = MatrixGroupClosure.centralizer_of

    def logged(self, elements):
        log.append("scan")
        return scan(self, elements)

    monkeypatch.setattr(MatrixGroupClosure, "centralizer_of", logged)
    guard = Recorder()
    # p^(m + alpha), and a nonzero form on F_3^2 has alpha = 1
    assert G.max_abelian_order_brute(guard=guard) == 3 ** (sp.dim + 1)
    scans = [i for i, x in enumerate(log) if x == "scan"]
    assert scans and all(i and log[i - 1] == len(G.elements) for i in scans)
    assert guard.used == sum(x for x in log if x != "scan")
