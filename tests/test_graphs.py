import random

import pytest

from isospace.errors import Guard, VerificationError
from isospace.ffield import PrimeField, Subspace
from isospace.graphs import (Graph, coloring_from_decomposition,
                             graph_alpha_brute, graph_chi_brute,
                             independent_set_from_isotropic, is_bipartite_bfs,
                             space_from_graph)

F2 = PrimeField(2)
F3 = PrimeField(3)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_space_from_graph_shapes():
    k3 = space_from_graph(Graph.complete(3), F2)
    assert k3.n == 3 and k3.dim == 3
    assert space_from_graph(Graph(4, []), F3).dim == 0
    assert space_from_graph(Graph.path(3), F2).dim == 2


def test_independent_set_roundtrip():
    g = Graph.path(3)
    u = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 0, 1)])
    assert independent_set_from_isotropic(g, u) == (0, 2)
    one = Subspace.from_vectors(F2, 3, [(1, 0, 1)])
    s = independent_set_from_isotropic(g, one)
    assert len(s) == 1


def test_independent_set_standard_basis():
    # round trip on every nonempty independent set of random small graphs
    import itertools
    rng = random.Random(13)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        for k in range(1, g.n + 1):
            for s in itertools.combinations(range(g.n), k):
                if any(g.has_edge(a, b) for a in s for b in s if a < b):
                    continue
                u = Subspace.from_vectors(
                    F3, g.n, [tuple(1 if t == i else 0 for t in range(g.n))
                              for i in s])
                assert independent_set_from_isotropic(g, u) == s


def test_independent_set_rejects_non_isotropic():
    g = Graph.complete(3)
    u = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(VerificationError, match="not isotropic"):
        independent_set_from_isotropic(g, u)


def test_coloring_from_decomposition_p3():
    g = Graph.path(3)
    u1 = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 0, 1)])
    u2 = Subspace.from_vectors(F2, 3, [(0, 1, 0)])
    blocks = coloring_from_decomposition(g, [u1, u2])
    assert blocks == [(0, 2), (1,)]


def test_coloring_from_decomposition_single_part():
    g = Graph(3, [])
    blocks = coloring_from_decomposition(g, [Subspace.full(F2, 3)])
    assert blocks == [(0, 1, 2)]


def test_coloring_from_decomposition_with_many_parts():
    # more parts than the interpreter's recursion limit
    parts = [Subspace.coordinate(F2, 1100, [i]) for i in range(1100)]
    blocks = coloring_from_decomposition(Graph(1100, []), parts)
    assert blocks == [(i,) for i in range(1100)]


@pytest.mark.parametrize("field, g, parts, blocks, ticks", [
    (F2, Graph(2, []), [[(1, 1)], [(1, 0)]], [(1,), (0,)], 4),
    (F3, Graph(4, [(0, 1), (2, 3)]),
     [[(1, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)], [(0, 1, 0, 0)]], [(2,), (0, 3), (1,)], 24),
])
def test_coloring_recovery_backtracks(field, g, parts, blocks, ticks):
    # the first part's first feasible vertex set leaves a later part none,
    # so the search goes back and gives the first part its next set
    guard = Guard()
    parts = [Subspace.from_vectors(field, g.n, p) for p in parts]
    assert coloring_from_decomposition(g, parts, guard=guard) == blocks
    assert guard.used == ticks


def test_coloring_rejects_bad_input():
    g = Graph.path(3)
    u1 = Subspace.from_vectors(F2, 3, [(1, 0, 0)])
    with pytest.raises(VerificationError):
        coloring_from_decomposition(g, [u1])


def test_coloring_blocks_partition_and_independent():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        chi = graph_chi_brute(g)
        # build the standard-basis decomposition from an optimal coloring
        colors = _some_coloring(g, chi)
        parts = []
        for c in range(chi):
            verts = [i for i in range(g.n) if colors[i] == c]
            if not verts:
                continue
            parts.append(Subspace.from_vectors(
                F2, g.n, [tuple(1 if t == i else 0 for t in range(g.n)) for i in verts]))
        blocks = coloring_from_decomposition(g, parts)
        seen = sorted(v for b in blocks for v in b)
        assert seen == list(range(g.n))
        for b in blocks:
            assert not any(g.has_edge(x, y) for x in b for y in b if x < y)


def _some_coloring(g, c):
    adj = g.adjacency()
    colors = {}

    def rec(v):
        if v == g.n:
            return True
        used = {colors[w] for w in adj[v] if w in colors}
        for col in range(c):
            if col not in used:
                colors[v] = col
                if rec(v + 1):
                    return True
                del colors[v]
        return False

    assert rec(0)
    return colors


def test_graph_oracles_small():
    k3 = Graph.complete(3)
    assert graph_alpha_brute(k3) == 1
    assert graph_chi_brute(k3) == 3
    assert is_bipartite_bfs(k3)[0] is False
    c4 = Graph.cycle(4)
    assert graph_alpha_brute(c4) == 2
    assert graph_chi_brute(c4) == 2
    assert is_bipartite_bfs(c4)[0] is True
    empty = Graph(5, [])
    assert graph_alpha_brute(empty) == 5
    assert graph_chi_brute(empty) == 1
    assert is_bipartite_bfs(empty)[0] is True


def test_bipartite_odd_cycle_witness():
    ok, wit = is_bipartite_bfs(Graph.cycle(5))
    assert not ok
    assert len(wit) % 2 == 1 and len(wit) >= 3
    for i in range(len(wit)):
        assert Graph.cycle(5).has_edge(wit[i], wit[(i + 1) % len(wit)])


def test_bipartition_parts_valid():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), p=0.3)
        ok, res = is_bipartite_bfs(g)
        if ok:
            t1, t2 = res
            assert sorted(t1 + t2) == list(range(g.n))
            for part in (t1, t2):
                assert not any(g.has_edge(a, b) for a in part for b in part if a < b)
