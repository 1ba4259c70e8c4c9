"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Every
expected value is exact (integer equality) except the quantum module's
stated floating-point tolerances.
"""

import itertools
import math
import random
import time
from functools import lru_cache

import numpy as np

from isospace.altspace import (AltMatrixSpace, is_isotropic, max_degree,
                               rad_of, radical_space)
from isospace.bipartite import (adjoint_algebra, alpha_bipartite,
                                bipartite_space_from_blocks,
                                decomposition_from_idempotent,
                                hyperbolic_idempotent_search, ncrk_brute,
                                ncrk_pad_square)
from isospace.errors import Guard
from isospace.ffield import enumerate_subspaces, gaussian_binomial
from isospace.gadgets import (baer_generators, dim2_gadget, group_closure,
                              right_degree_min)
from isospace.graphs import (Graph, graph_alpha_brute, graph_chi_brute,
                             is_bipartite_bfs, space_from_graph)
from isospace.isotropic import (alpha_exact, chi_brute, chi_lawler,
                                chi_maxcover, enumerate_isotropic_lattice,
                                enumerate_maximal_branch,
                                enumerate_maximal_filter,
                                greedy_deg_decomposition, greedy_maximal,
                                greedy_part_bound, has_isotropic_dim2,
                                isotropic_count_formula,
                                two_decomposition_brute,
                                validate_decomposition)
from isospace.quantum import (CHANNEL_TOL, channel_from_graph,
                              decide_iso_2_decomposition, fidelity_pure,
                              period)
from util import (F2, F3, chi_maxcover_reference, every_space, random_graph,
                  random_matrix_space, random_space, symplectic_form)

SEED = 20260810
FIELDS = {2: F2, 3: F3}


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- the suites

@lru_cache(maxsize=None)
def graph_suite():
    rng = random.Random(SEED)
    out = []
    for _ in range(200):
        n = rng.randint(2, 6)
        out.append(random_graph(rng, n))
    return out


@lru_cache(maxsize=None)
def graph_spaces():
    return [(g, q, space_from_graph(g, FIELDS[q]))
            for g in graph_suite() for q in (2, 3)]


@lru_cache(maxsize=None)
def small_graphs_all():
    """Every graph on at most 5 vertices, one per isomorphism class."""
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            canon = min(
                tuple(sorted(tuple(sorted((perm[a], perm[b]))) for (a, b) in edges))
                for perm in itertools.permutations(range(n)))
            if canon not in seen:
                seen.add(canon)
                out.append(Graph(n, edges))
    return out


@lru_cache(maxsize=None)
def random_space_suite_lam4():
    rng = random.Random(SEED + 4)
    out = []
    for i in range(100):
        q = 2 if i % 2 == 0 else 3
        out.append((q, random_space(rng, FIELDS[q], 4, rng.randint(0, 4))))
    return out


@lru_cache(maxsize=None)
def random_space_suite_lam5():
    rng = random.Random(SEED + 5)
    return [random_space(rng, F2, 5, rng.randint(0, 6)) for _ in range(100)]


@lru_cache(maxsize=None)
def bipartite_suite():
    rng = random.Random(SEED + 7)
    out = []
    for i in range(100):
        q = 2 if i % 2 == 0 else 3
        total = rng.randint(2, 6)
        s = rng.randint(1, total - 1)
        t = total - s
        m = rng.randint(1, s * t)
        out.append((q, random_matrix_space(rng, FIELDS[q], s, t, m)))
    return out


@lru_cache(maxsize=None)
def adjoint_suite():
    rng = random.Random(SEED + 9)
    out = []
    while len(out) < 50:
        n = rng.choice([2, 4])
        sp = random_space(rng, F3, n, rng.randint(1, 4))
        if radical_space(sp).dim != 0:
            continue
        adj = adjoint_algebra(sp)
        if adj.dim > 6:
            continue
        out.append((sp, adj))
    return out


@lru_cache(maxsize=None)
def greedy_suite():
    rng = random.Random(SEED + 10)
    out = []
    for _ in range(100):
        n = rng.randint(1, 8)
        f = rng.choice([F2, F3])
        out.append(random_space(rng, f, n, rng.randint(0, 3)))
    return out


@lru_cache(maxsize=None)
def connected_graph_suite():
    rng = random.Random(SEED + 13)
    out = []
    while len(out) < 100:
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        if g.is_connected() and all(g.degree(i) >= 1 for i in range(n)):
            out.append(g)
    return out


# -------------------------------------------------------------- the criteria

def test_criterion_01_graph_bridge_alpha_chi():
    t0 = time.time()
    checked = 0
    for g in graph_suite():
        a_g = graph_alpha_brute(g)
        c_g = graph_chi_brute(g)
        for q in (2, 3):
            sp = space_from_graph(g, FIELDS[q])
            assert alpha_exact(sp)[0] == a_g, (g, q)
            assert chi_brute(sp)[0] == c_g, (g, q)
            checked += 1
    dt = time.time() - t0
    _report(1, dt < 300.0,
            f"alpha(G)=alpha(A_G) and chi(G)=chi(A_G) on {checked} instances "
            f"(200 graphs x F_2,F_3) in {dt:.1f}s (< 300s)")


def test_criterion_02_isotropic_count_formula():
    t0 = time.time()
    for n in (2, 4, 6):
        sp = AltMatrixSpace(F2, n, [symplectic_form(F2, n)])
        lat = enumerate_isotropic_lattice(sp)
        for d in range(n // 2 + 1):
            got = len(lat.levels[d]) if d < len(lat.levels) else 0
            want = isotropic_count_formula(n, d, 2)
            assert got == want, (n, d, got, want)
        assert len(lat.levels) - 1 == n // 2
        maximal = lat.maximal()
        assert len(maximal) == isotropic_count_formula(n, n // 2, 2)
        assert all(u.dim == n // 2 for u in maximal)
    assert isotropic_count_formula(4, 2, 2) == 15
    assert isotropic_count_formula(6, 3, 2) == 135
    dt = time.time() - t0
    _report(2, dt < 120.0,
            f"per-dimension isotropic counts match the product formula for "
            f"the non-degenerate form, n in {{2,4,6}} over F_2, in {dt:.1f}s (< 120s)")


def test_criterion_03_gaussian_binomial_counts():
    checked = 0
    for q in (2, 3):
        f = FIELDS[q]
        for n in range(6):
            for d in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(f, n, d))
                assert count == gaussian_binomial(n, d, q), (n, d, q)
                checked += 1
    _report(3, True,
            f"enumerate_subspaces counts equal the Gaussian binomial on "
            f"{checked} (n,d,q) triples, n <= 5, q in {{2,3}}")


def test_criterion_04_chi_oracle_triangle():
    t0 = time.time()
    checked = 0
    for q, sp in random_space_suite_lam4():
        cb = chi_brute(sp)[0]
        assert cb == chi_lawler(sp)[0] == chi_maxcover(sp), (q, sp)
        checked += 1
    for g in small_graphs_all():
        for q in (2, 3):
            sp = space_from_graph(g, FIELDS[q])
            cb = chi_brute(sp)[0]
            assert cb == chi_lawler(sp)[0] == chi_maxcover(sp) == graph_chi_brute(g)
            checked += 1
    dt = time.time() - t0
    _report(4, dt < 600.0,
            f"chi_brute = chi_lawler = chi_maxcover on {checked} instances "
            f"(100 random Lambda(4,q) + all graphs n <= 5) in {dt:.1f}s (< 600s)")


def test_ordered_maxcover_frontier_matches_the_unordered_one():
    """chi_maxcover joins a span only with the maximal spaces after its
    last one; the unordered frontier of tests/util.py joins it with all of
    them.  Same chi on every space of Lambda(3, q) and on criterion 04's
    instances, and never more guard ticks."""
    spaces = [sp for f in (F2, F3) for sp in every_space(f, 3)]
    spaces += [sp for _, sp in random_space_suite_lam4()]
    spaces += [space_from_graph(g, FIELDS[q]) for g in small_graphs_all() for q in (2, 3)]
    for sp in spaces:
        g_new, g_ref = Guard(), Guard()
        assert chi_maxcover(sp, guard=g_new) == chi_maxcover_reference(sp, g_ref), sp
        assert g_new.used <= g_ref.used, sp


def test_criterion_05_maximal_enumeration_equivalence():
    t0 = time.time()
    for sp in random_space_suite_lam5():
        s1 = {u.key() for u in enumerate_maximal_filter(sp)}
        s2 = {u.key() for u in enumerate_maximal_branch(sp)}
        assert s1 == s2
    dt = time.time() - t0
    _report(5, dt < 600.0,
            f"branch enumeration set-equals filter enumeration on 100 random "
            f"subspaces of Lambda(5,F_2) in {dt:.1f}s (< 600s)")


def test_criterion_06_maximal_count_bound():
    for sp in random_space_suite_lam5():
        cnt = len(enumerate_maximal_filter(sp))
        n = sp.n
        assert math.log2(cnt) <= n * n / 6.0 + 6 * n
    _report(6, True,
            "log_2(#maximal isotropic) <= n^2/6 + 6n on every criterion-5 instance")


def test_criterion_07_bipartite_alpha_equals_ncrk_complement():
    t0 = time.time()
    for q, b in bipartite_suite():
        sp = bipartite_space_from_blocks(b)
        n = b.s + b.t
        r = ncrk_brute(b)
        a_lattice = alpha_exact(sp)[0]
        assert a_lattice == n - r, (q, b.s, b.t, a_lattice, r)
        f = FIELDS[q]
        from isospace.ffield import Subspace
        u1 = Subspace.from_vectors(f, n, [tuple(1 if t == i else 0 for t in range(n))
                                          for i in range(b.s)])
        u2 = Subspace.from_vectors(f, n, [tuple(1 if t == i else 0 for t in range(n))
                                          for i in range(b.s, n)])
        a_wit, wit = alpha_bipartite(sp, u1, u2)
        assert a_wit == n - r and wit.dim == a_wit and is_isotropic(sp, wit)
    dt = time.time() - t0
    _report(7, True,
            f"alpha(A) = (s+t) - ncrk(B) with verified isotropic witnesses on "
            f"100 random block spaces, s+t <= 6, q in {{2,3}} ({dt:.1f}s)")


def test_criterion_08_ncrk_padding_identity():
    rng = random.Random(SEED + 8)
    done = 0
    while done < 50:
        t = rng.randint(2, 4)
        s = rng.randint(1, t - 1)
        q = 2 if done % 2 == 0 else 3
        b = random_matrix_space(rng, FIELDS[q], s, t, rng.randint(1, 3))
        c = ncrk_pad_square(b)
        assert ncrk_brute(b) + (t - s) == ncrk_brute(c)
        done += 1
    _report(8, True,
            "ncrk(B) + (t-s) = ncrk(pad(B)) on 50 random instances, s < t <= 4")


def test_criterion_09_hyperbolic_idempotent_criterion():
    t0 = time.time()
    found = 0
    for sp, adj in adjoint_suite():
        p = hyperbolic_idempotent_search(adj)
        brute = two_decomposition_brute(sp)
        assert (p is not None) == (brute is not None), sp
        if p is not None:
            found += 1
            u1, u2 = decomposition_from_idempotent(p)
            assert u1.dim + u2.dim == sp.n and u1.sum(u2).dim == sp.n
            assert is_isotropic(sp, u1) and is_isotropic(sp, u2)
    dt = time.time() - t0
    _report(9, True,
            f"hyperbolic idempotent found iff a brute-force 2-decomposition "
            f"exists on 50 non-degenerate Lambda(n,F_3) instances, n in {{2,4}} "
            f"({found} decomposable, {dt:.1f}s)")


def test_criterion_10_greedy_degree_decomposition_bound():
    for sp in greedy_suite():
        parts = greedy_deg_decomposition(sp)
        validate_decomposition(sp, parts)
        delta = max_degree(sp)
        k = len(parts)
        if delta == 0:
            assert k == 1
        else:
            # closed form from the greedy analysis: each pass covers at
            # least a 1/(Delta+1) fraction of what remains
            assert k <= greedy_part_bound(sp.n, delta), (sp.n, delta, k)
    _report(10, True,
            "greedy decomposition validates and respects "
            "ceil(ln n / -ln(1 - 1/(Delta+1))) + 1 parts on 100 instances, "
            "n <= 8 (k = 1 when Delta = 0)")


def test_criterion_11_dim2_gadget_equivalence():
    rng = random.Random(SEED + 11)
    for trial in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        q = 2 if trial % 2 == 0 else 3
        f = FIELDS[q]
        bp = [random_matrix_rect(rng, f, n, m) for _ in range(n)]
        lhs = right_degree_min(bp) < n
        rhs = has_isotropic_dim2(dim2_gadget(bp))[0]
        assert lhs == rhs, (trial, n, m, q)
    _report(11, True,
            "min right degree < n iff the gadget has a dim-2 isotropic space "
            "on 50 random instances, n,m <= 3, q in {2,3}")


def random_matrix_rect(rng, field, rows, cols):
    from isospace.ffield import Matrix
    return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)]
                                    for _ in range(rows)])


def test_criterion_12_baer_group():
    t0 = time.time()
    sp = AltMatrixSpace(F3, 2, [symplectic_form(F3, 2)])
    gens = baer_generators(sp.field, sp.n, sp.basis)
    G = group_closure(gens)
    assert G.order == 27
    comm = G.commutator_subgroup()
    assert comm.order == 3
    orders = G.abelian_subgroup_orders()
    alpha = alpha_exact(sp)[0]
    assert max(orders) == 9 == 3 ** (1 + alpha)
    for d in range(sp.n + 1):
        assert (max(orders) >= 3 ** (1 + d)) == (alpha >= d)
    dt = time.time() - t0
    _report(12, dt < 60.0,
            f"Baer group of <J> over F_3: |G| = 27, |[G,G]| = 3, max abelian "
            f"order 9 = p^(m+alpha); order correspondence exhaustive ({dt:.1f}s < 60s)")


def test_criterion_13_quantum_channels():
    t0 = time.time()
    for g in connected_graph_suite():
        ch = channel_from_graph(g)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(ch.n))) <= CHANNEL_TOL
        p = period(ch)
        bip = is_bipartite_bfs(g)[0]
        assert p in (1, 2)
        assert (p == 2) == bip
        assert decide_iso_2_decomposition(ch) == bip
    k2 = channel_from_graph(Graph(2, [(0, 1)]))
    val = fidelity_pure(k2, np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert abs(val - 0.5) <= 1e-9
    dt = time.time() - t0
    _report(13, dt < 300.0,
            f"100 random connected graphs: channels valid to 1e-10, period 2 "
            f"iff bipartite else 1, decide2 matches, K_2 fidelity 0.5 +- 1e-9 "
            f"({dt:.1f}s < 300s)")


def test_criterion_14_greedy_maximal_fixed_point():
    checked = 0
    spaces = [sp for (_, _, sp) in graph_spaces()]
    spaces += [sp for (_, sp) in random_space_suite_lam4()]
    spaces += list(random_space_suite_lam5())
    spaces += [bipartite_space_from_blocks(b) for (_, b) in bipartite_suite()]
    spaces += [sp for (sp, _) in adjoint_suite()]
    spaces += list(greedy_suite())
    for sp in spaces:
        if sp.n < 1:
            continue
        u = greedy_maximal(sp)
        assert rad_of(sp, u) == u, sp
        checked += 1
    _report(14, True,
            f"greedy_maximal output satisfies U = rad(U) on all {checked} "
            f"suite instances")
