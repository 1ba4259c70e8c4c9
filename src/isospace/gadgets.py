"""Reduction gadgets and the Baer matrix-group construction.

The dim-2 gadget turns a tuple of rectangular matrices into an alternating
space whose isotropic-dim-2 question encodes a right-degree question (and
thus existential singularity).  The Baer generators realize an alternating
matrix tuple as a p-group of class 2 and exponent p, whose abelian
subgroups above the commutators mirror isotropic spaces.
"""

from __future__ import annotations

from itertools import combinations

from .altspace import AltMatrixSpace, block_alternating, elementary_alternating
from .bipartite import MatrixSpace
from .errors import as_guard
from .ffield import Matrix, PrimeField, invert, projective_vectors, stacked_products


def singular_exists_brute(b: MatrixSpace, guard=None):
    """Search a square matrix space for a nonzero singular member.

    Scans one representative per line of the coefficient space; returns
    a witness Matrix or None.
    """
    if b.s != b.t:
        raise ValueError("existential singularity is asked of square spaces")
    g = as_guard(guard)
    for coeffs in projective_vectors(b.field, b.dim, guard=g):
        m = b.combination(coeffs)
        if m.rank() < b.s:
            return m
    return None


def dim2_gadget(bprime) -> AltMatrixSpace:
    """Alternating space on F^(n+m) built from n matrices of shape n x m.

    Basis: A_i = [[0, B'_i], [-B'_i^t, 0]], all C_{i,j} on the first n
    coordinates, and all D_{k,l} on the last m coordinates.
    """
    bprime = list(bprime)
    n = len(bprime)
    if n == 0:
        raise ValueError("need at least one slice")
    field = bprime[0].field
    m = bprime[0].cols
    for mat in bprime:
        if mat.rows != n or mat.cols != m or mat.field != field:
            raise ValueError("slice shape mismatch: expected n matrices of shape n x m")
    amb = n + m
    gens = [block_alternating(mat) for mat in bprime]
    for i, j in combinations(range(n), 2):
        gens.append(elementary_alternating(field, amb, i, j))
    for k, l in combinations(range(m), 2):
        gens.append(elementary_alternating(field, amb, n + k, n + l))
    return AltMatrixSpace.from_generators(field, amb, gens)


def right_degree_min(bprime, guard=None) -> int:
    """Minimum over nonzero v of rank [B'_1 v, ..., B'_n v].

    By the slice correspondence this is the minimum rank of a nonzero
    combination of the lateral slices; one representative per line of F^m
    is swept.
    """
    bprime = list(bprime)
    n = len(bprime)
    if n == 0:
        raise ValueError("need at least one slice")
    field = bprime[0].field
    m = bprime[0].cols
    g = as_guard(guard)
    # the rows v^t B'_i^t are the vectors B'_i v
    bt = [mat.transpose() for mat in bprime]
    best = n
    for v in projective_vectors(field, m, guard=g):
        r = stacked_products(Matrix._reduced(field, 1, m, v), bt).rank()
        if r < best:
            best = r
            if best == 0:
                break
    return best


def baer_generators(tensor):
    """The 1+n+m generators of the Baer group of an alternating tuple.

    tensor is an ordered tuple (A_1, ..., A_m) of alternating n x n
    matrices over F_p, p odd.  Emits the n matrices built from
    B_i = [A_1 e_i, ..., A_m e_i] and the m elementary central generators,
    all upper unitriangular in GL(1+n+m, p).
    """
    tensor = list(tensor)
    if not tensor:
        raise ValueError("need a nonempty tuple")
    field = tensor[0].field
    if field.p == 2:
        raise ValueError("Baer correspondence requires odd p")
    n = tensor[0].rows
    m = len(tensor)
    for a in tensor:
        if a.rows != n or a.cols != n or a.field != field:
            raise ValueError("tuple shape mismatch")
    dim = 1 + n + m
    gens = []
    for i in range(n):
        cols = [a.col(i) for a in tensor]   # columns A_c e_i of B_i, each in F^n
        g = [[0] * dim for _ in range(dim)]
        g[0][0] = 1
        g[0][1 + i] = 1
        for r in range(n):
            g[1 + r][1 + r] = 1
            for c in range(m):
                g[1 + r][1 + n + c] = cols[c][r]
        for c in range(m):
            g[1 + n + c][1 + n + c] = 1
        gens.append(Matrix.from_rows(field, g))
    for j in range(m):
        g = [[0] * dim for _ in range(dim)]
        g[0][0] = 1
        g[0][1 + n + j] = 1
        for r in range(n + m):
            g[1 + r][1 + r] = 1
        gens.append(Matrix.from_rows(field, g))
    return gens


class MatrixGroupClosure:
    """A finite matrix group stored explicitly (tiny scale only)."""

    __slots__ = ("field", "k", "generators", "elements")

    def __init__(self, field: PrimeField, generators, elements):
        self.field = field
        self.k = generators[0].rows if generators else 0
        self.generators = tuple(generators)
        self.elements = tuple(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        els = self.elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                if els[i] @ els[j] != els[j] @ els[i]:
                    return False
        return True

    def commutator_subgroup(self, guard=None) -> "MatrixGroupClosure":
        """Subgroup generated by all commutators g^-1 h^-1 g h."""
        g = as_guard(guard)
        comms = []
        seen = set()
        for a in self.elements:
            ia = invert(a)
            for b in self.elements:
                g.tick()
                c = ((ia @ invert(b)) @ a) @ b
                if c.entries not in seen:
                    seen.add(c.entries)
                    comms.append(c)
        return group_closure(comms, guard=g)

    def centralizer_of(self, elements):
        """Group elements commuting with every matrix in `elements`."""
        out = []
        for gm in self.elements:
            if all(gm @ h == h @ gm for h in elements):
                out.append(gm)
        return out

    def abelian_subgroup_orders(self, guard=None) -> set:
        """Orders of all abelian subgroups, by growing commuting closures.

        Starts from cyclic subgroups and repeatedly extends each abelian
        subgroup by a centralizing element; exhaustive at this scale.
        """
        g = as_guard(guard)
        ident = Matrix.identity(self.field, self.k)
        triv = frozenset([ident.entries])
        seen = {triv}
        frontier = [(triv, (ident,))]
        orders = {1}
        by_entries = {m.entries: m for m in self.elements}
        while frontier:
            nxt = []
            for helems, hgens in frontier:
                cand = [m for m in self.centralizer_of(hgens) if m.entries not in helems]
                for m in cand:
                    g.tick()
                    new = group_closure(list(hgens) + [m], guard=g)
                    key = frozenset(x.entries for x in new.elements)
                    if key in seen:
                        continue
                    seen.add(key)
                    if not all(e in by_entries for e in key):
                        continue
                    if new.is_abelian():
                        orders.add(new.order)
                        nxt.append((key, new.generators))
            frontier = nxt
        return orders

    def max_abelian_order_brute(self, guard=None) -> int:
        return max(self.abelian_subgroup_orders(guard=guard))

    def __repr__(self):
        return f"MatrixGroupClosure(F{self.field.p}, GL({self.k}), order={self.order})"


def group_closure(generators, guard=None) -> MatrixGroupClosure:
    """BFS closure of a generator list under products (tiny scale, guarded)."""
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    g = as_guard(guard)
    field = generators[0].field
    k = generators[0].rows
    ident = Matrix.identity(field, k)
    elements = [ident]
    seen = {ident.entries}
    todo = [ident]
    while todo:
        cur = todo.pop()
        for gen in generators:
            g.tick()
            nxt = cur @ gen
            if nxt.entries not in seen:
                seen.add(nxt.entries)
                elements.append(nxt)
                todo.append(nxt)
    return MatrixGroupClosure(field, generators, elements)
