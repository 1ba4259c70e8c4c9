"""Graphs, the graph -> alternating matrix space bridge, and graph oracles.

Vertices are 0-indexed internally; the text file format is 1-indexed.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .altspace import (AltMatrixSpace, elementary_alternating, is_isotropic,
                       validate_decomposition)
from .errors import VerificationError, as_guard
from .ffield import Matrix, PrimeField, Subspace


class Graph:
    """Simple undirected graph on {0, ..., n-1} as a sorted edge set."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        self.n = int(n)
        norm = set()
        for (i, j) in edges:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            norm.add((min(i, j), max(i, j)))
        self.edges = tuple(sorted(norm))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    def degree(self, i: int) -> int:
        return sum(1 for (a, b) in self.edges if a == i or b == i)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in set(self.edges)

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        todo = deque([0])
        while todo:
            v = todo.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == self.n

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def space_from_graph(g: Graph, field: PrimeField) -> AltMatrixSpace:
    """A_G: span of the elementary alternating matrices of the edges,
    basis in edge-sorted order, dim = |E|.  The edges of a Graph are
    distinct, so the basis is alternating and independent as built."""
    basis = [elementary_alternating(field, g.n, i, j) for (i, j) in g.edges]
    return AltMatrixSpace._unchecked(field, g.n, basis)


def _is_independent(g: Graph, verts) -> bool:
    """True iff no two of the ascending vertices verts are adjacent in g."""
    edges = set(g.edges)
    return not any(pair in edges for pair in combinations(verts, 2))


def independent_set_from_isotropic(g: Graph, u: Subspace) -> tuple:
    """Recover a size-dim(u) independent set from an isotropic space of A_G.

    The recovered vertices are the pivot columns of u's RREF basis (a set of
    linearly independent columns); the result is verified independent.
    """
    space = space_from_graph(g, u.field)
    if not is_isotropic(space, u):
        raise VerificationError("not isotropic for this graph's space")
    verts = tuple(u.pivots)
    if not _is_independent(g, verts):
        raise VerificationError("recovered vertex set is not independent")
    return verts


def _part_assignment(parts, n, g):
    """Backtracking core for coloring recovery: give each part in turn an
    ascending vertex set whose columns in the part's basis are independent.
    A loop keeps one iterator of untried subsets per part, so any number of
    parts fits; the dimensions sum to n, so every vertex is used.  Each
    part's columns are read once, packed (one transpose of its basis), and
    a subset's rank test reduces its packed columns.  Each subset tried
    ticks the guard d^2, the entries of its d x d rank test."""
    cols = [u.basis.transpose().packed for u in parts]
    remaining, chosen, tries = set(range(n)), [], []
    while len(chosen) < len(parts):
        u, part_cols = parts[len(chosen)], cols[len(chosen)]
        field, d = u.field, u.dim
        if len(tries) == len(chosen):
            tries.append(combinations(sorted(remaining), d))
        for combo in tries[-1]:
            g.tick(d * d)
            if Matrix._reduced(field, d, d, tuple([part_cols[j] for j in combo])).rank() == d:
                chosen.append(combo)
                remaining.difference_update(combo)
                break
        else:
            # no subset left for this part: try the previous part's next one
            tries.pop()
            if not chosen:
                raise VerificationError("no rank-feasible row partition found")
            remaining.update(chosen.pop())
    return chosen


def coloring_from_decomposition(g: Graph, parts, guard=None) -> list:
    """Recover a vertex coloring from an isotropic decomposition of A_G.

    Searches for a partition [n] = T_1 + ... + T_c with |T_i| = dim(U_i) and
    the T_i-columns of U_i's basis invertible (such a partition exists by
    Laplace expansion of the full change-of-basis determinant); every block
    is verified independent.  The search is guarded.
    """
    # no part, no field: the empty list decomposes F^0 alone, over any field
    field = parts[0].field if parts else PrimeField(2)
    validate_decomposition(space_from_graph(g, field), parts)
    blocks = _part_assignment(parts, g.n, as_guard(guard))
    if not all(_is_independent(g, t) for t in blocks):
        raise VerificationError("recovered block is not independent")
    return blocks


def graph_alpha_brute(g: Graph, guard=None) -> int:
    """Exact independence number by branch and bound."""
    gd = as_guard(guard)
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))
    best = 0

    def rec(i, size, banned):
        nonlocal best
        gd.tick()
        if size + (g.n - i) <= best:
            return
        if i == g.n:
            best = max(best, size)
            return
        v = order[i]
        if v not in banned:
            rec(i + 1, size + 1, banned | adj[v])
        rec(i + 1, size, banned)

    rec(0, 0, set())
    return best


def graph_chi_brute(g: Graph, guard=None) -> int:
    """Exact chromatic number by iterative deepening backtracking."""
    gd = as_guard(guard)
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))

    def colorable(c):
        color = {}

        def rec(i):
            gd.tick()
            if i == g.n:
                return True
            v = order[i]
            used = {color[w] for w in adj[v] if w in color}
            # symmetry breaking: vertex i may only open color i+1
            for col in range(min(c, i + 1)):
                if col not in used:
                    color[v] = col
                    if rec(i + 1):
                        return True
                    del color[v]
            return False

        return rec(0)

    for c in range(2, g.n + 1):
        if colorable(c):
            return c
    return g.n


def is_bipartite_bfs(g: Graph):
    """BFS 2-coloring; returns (True, (T1, T2)) or (False, odd_cycle)."""
    adj = g.adjacency()
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        todo = deque([s])
        while todo:
            v = todo.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    todo.append(w)
                elif color[w] == color[v]:
                    # reconstruct an odd cycle through the BFS tree
                    pv = [v]
                    while pv[-1] != -1 and parent[pv[-1]] != -1:
                        pv.append(parent[pv[-1]])
                    pw = [w]
                    while pw[-1] != -1 and parent[pw[-1]] != -1:
                        pw.append(parent[pw[-1]])
                    common = (set(pv) & set(pw))
                    meet = next(x for x in pv if x in common)
                    cyc = pv[:pv.index(meet) + 1] + list(reversed(pw[:pw.index(meet)]))
                    return False, tuple(cyc)
    t1 = tuple(i for i in range(g.n) if color[i] == 0)
    t2 = tuple(i for i in range(g.n) if color[i] == 1)
    return True, (t1, t2)
