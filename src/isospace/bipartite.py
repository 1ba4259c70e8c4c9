"""Bipartite alternating matrix spaces and the non-commutative rank route.

A bipartite alternating matrix space (one admitting an isotropic
2-decomposition) is, up to isometry, a space of matrices [[0, B], [-B^t, 0]];
its isotropic number is n - ncrk(B).  The adjoint-algebra machinery decides
2-decomposability of a non-degenerate space by searching for a hyperbolic
idempotent.
"""

from __future__ import annotations

from itertools import product

from .altspace import (AltMatrixSpace, block_alternating, is_isotropic,
                       nondegenerate_part, radical_space)
from .errors import VerificationError, as_guard
from .ffield import (Matrix, PrimeField, Subspace, are_independent, combine,
                     enumerate_subspaces, kernel, span_basis, stacked_products)


class MatrixSpace:
    """Span of an ordered independent basis of s x t matrices over F_p."""

    __slots__ = ("field", "s", "t", "basis")

    def __init__(self, field: PrimeField, s: int, t: int, basis):
        self.field = field
        self.s = int(s)
        self.t = int(t)
        self.basis = tuple(basis)
        for m in self.basis:
            if m.field != field or m.rows != self.s or m.cols != self.t:
                raise ValueError("basis matrix has wrong field or shape")
        if not are_independent(self.basis):
            raise ValueError("dependent basis")

    @classmethod
    def from_generators(cls, field, s, t, mats) -> "MatrixSpace":
        """Span of arbitrary s x t generators, reduced to an independent
        ordered basis (independent by construction, so not re-checked)."""
        mats = list(mats)
        for m in mats:
            if m.field != field or m.rows != s or m.cols != t:
                raise ValueError("generator has wrong field or shape")
        sp = object.__new__(cls)
        sp.field = field
        sp.s = int(s)
        sp.t = int(t)
        sp.basis = tuple(span_basis(field, s, t, mats))
        return sp

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combination(self, coeffs) -> Matrix:
        if not self.basis:
            return Matrix.zeros(self.field, self.s, self.t)
        ent = combine(coeffs, [m.entries for m in self.basis], self.field.p)
        return Matrix._reduced(self.field, self.s, self.t, ent)

    def __repr__(self):
        return f"MatrixSpace(F{self.field.p}, {self.s}x{self.t}, dim={self.dim})"


def bipartite_space_from_blocks(b: MatrixSpace) -> AltMatrixSpace:
    """The alternating space spanned by [[0, B], [-B^t, 0]] over b's basis."""
    return AltMatrixSpace.from_generators(b.field, b.s + b.t,
                                          [block_alternating(m) for m in b.basis])


def _splitting_transform(space: AltMatrixSpace, u1: Subspace, u2: Subspace) -> Matrix:
    """Column transform aligning the parts of a 2-decomposition with the
    leading and trailing coordinates; raises unless (u1, u2) really is an
    isotropic 2-decomposition of the space."""
    n = space.n
    if u1.n != n or u2.n != n:
        raise VerificationError("not an isotropic 2-decomposition: ambient mismatch")
    if u1.dim == 0 or u2.dim == 0 or u1.dim + u2.dim != n \
            or u1.sum(u2).dim != n:
        raise VerificationError("not an isotropic 2-decomposition: not a direct sum")
    if not (is_isotropic(space, u1) and is_isotropic(space, u2)):
        raise VerificationError("not an isotropic 2-decomposition: parts not isotropic")
    cols = u1.basis_rows() + u2.basis_rows()
    return Matrix.from_rows(space.field, cols).transpose()


def block_space_from_bipartite(space: AltMatrixSpace, u1: Subspace,
                               u2: Subspace) -> MatrixSpace:
    """Extract B <= M(s x t) from a bipartite space via its 2-decomposition.

    Applies the isometry aligning u1, u2 with the coordinates and reads the
    upper-right blocks of the transformed basis.
    """
    t = _splitting_transform(space, u1, u2)
    s, tt = u1.dim, u2.dim
    tmat = t.transpose()
    blocks = []
    for m in space.basis:
        moved = (tmat @ m) @ t
        rows = [[moved[i, s + j] for j in range(tt)] for i in range(s)]
        blocks.append(Matrix.from_rows(space.field, rows))
    return MatrixSpace.from_generators(space.field, s, tt, blocks)


def ncrk_witness_pair(b: MatrixSpace, guard=None):
    """A maximizing isotropic pair (U, V) for ncrk(B).

    V runs over the subspaces of F^t; its best partner U is the common left
    kernel of B(V) = <B w : B in basis, w in V>, so dim U = s - dim B(V).
    The first V with the largest dim V + dim U wins, and only its kernel
    is taken.
    """
    g = as_guard(guard)
    # the rows w^t B^t span B(V); with no basis, B(V) is the zero space
    bts = [m.transpose() for m in b.basis] or [Matrix.zeros(b.field, b.t, b.s)]
    best = None
    for v in enumerate_subspaces(b.field, b.t, guard=g):
        image = stacked_products(v.basis, bts)
        score = v.dim + b.s - image.rank()
        if best is None or score > best[0]:
            best = (score, image, v)
    return kernel(best[1]), best[2]


def ncrk_brute(b: MatrixSpace, guard=None) -> int:
    """Non-commutative rank by enumerating right spaces V <= F^t:
    ncrk = s + t - max(dim V + dim U) over the pairs of ncrk_witness_pair."""
    u, v = ncrk_witness_pair(b, guard=guard)
    return b.s + b.t - u.dim - v.dim


def ncrk_pad_square(b: MatrixSpace) -> MatrixSpace:
    """Pad B <= M(s x t), s < t, to C <= M(t) with ncrk(C) = ncrk(B) + (t-s).

    C is spanned by the zero-topped B' = [[0], [B]] and the elementary
    matrices E_{i,j} for 1 <= i <= t-s, 1 <= j <= t.
    """
    if b.s >= b.t:
        raise ValueError("padding requires s < t")
    field, s, t = b.field, b.s, b.t
    pad = t - s
    gens = []
    for m in b.basis:
        rows = [[0] * t for _ in range(pad)] + m.row_list()
        gens.append(Matrix.from_rows(field, rows))
    for i in range(pad):
        for j in range(t):
            ent = [0] * (t * t)
            ent[i * t + j] = 1
            gens.append(Matrix(field, t, t, ent))
    return MatrixSpace.from_generators(field, t, t, gens)


def alpha_bipartite(space: AltMatrixSpace, u1: Subspace, u2: Subspace,
                    guard=None):
    """alpha(A) = n - ncrk(B) for a bipartite space, with a verified witness.

    The witness is built from a maximizing isotropic pair (U, V) of the
    block space, whose dimensions also give ncrk(B) = s + t - dim U - dim V:
    U carried into u1 and V into u2 span an isotropic space of dimension
    n - ncrk(B).
    """
    b = block_space_from_bipartite(space, u1, u2)
    n = space.n
    u, v = ncrk_witness_pair(b, guard=guard)
    r = b.s + b.t - u.dim - v.dim
    witness = u.image(u1).sum(v.image(u2))
    if witness.dim != n - r or not is_isotropic(space, witness):
        raise VerificationError("bipartite alpha witness failed verification")
    return n - r, witness


class AdjointAlgebra:
    """Adj(A) = {D : exists B, B^t A_i = A_i D for all i}, with D* := B.

    Stored as a basis of solution pairs (D, B); requires a non-degenerate
    space so that B is unique and * is a well-defined involution.
    """

    __slots__ = ("field", "n", "pairs")

    def __init__(self, field: PrimeField, n: int, pairs):
        self.field = field
        self.n = n
        self.pairs = tuple(pairs)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def element(self, coeffs):
        """(D, D*) for the combination given by coeffs over the pair basis."""
        field, n = self.field, self.n
        d = combine(coeffs, [d.entries for d, _ in self.pairs], field.p)
        b = combine(coeffs, [b.entries for _, b in self.pairs], field.p)
        return Matrix._reduced(field, n, n, d), Matrix._reduced(field, n, n, b)


def adjoint_algebra(space: AltMatrixSpace) -> AdjointAlgebra:
    """Solve B^t A_i = A_i D for all i in the 2n^2 unknowns (D, B).

    The space must be non-degenerate (then B is unique given D and the
    pair basis projects injectively to the D side).
    """
    if radical_space(space).dim != 0:
        raise ValueError("adjoint algebra requires a non-degenerate space")
    n = space.n
    field = space.field
    p = field.p
    nn = n * n
    # unknown vector x = (D row-major, B row-major); equations per basis A:
    #   (B^t A)_{rc} - (A D)_{rc} = 0
    rows = []
    for a in space.basis:
        for r in range(n):
            for c in range(n):
                row = [0] * (2 * nn)
                # (A D)_{rc} = sum_k A_{rk} D_{kc}
                for k in range(n):
                    f = a[r, k]
                    if f:
                        row[k * n + c] = (row[k * n + c] - f) % p
                # (B^t A)_{rc} = sum_k B_{kr} A_{kc}
                for k in range(n):
                    f = a[k, c]
                    if f:
                        row[nn + k * n + r] = (row[nn + k * n + r] + f) % p
                rows.append(row)
    if not rows:
        # zero space on F^0 only (non-degenerate otherwise implies basis)
        return AdjointAlgebra(field, n, ())
    system = Matrix.from_rows(field, rows)
    ker = kernel(system)
    pairs = []
    for sol in ker.basis_rows():
        d = Matrix(field, n, n, sol[:nn])
        b = Matrix(field, n, n, sol[nn:])
        pairs.append((d, b))
    return AdjointAlgebra(field, n, pairs)


def hyperbolic_idempotent_search(adj: AdjointAlgebra, guard=None):
    """Scan Adj for P with P^2 = P and P* = I - P, in coefficient order.

    Returns the first such P (a Matrix) or None.
    """
    g = as_guard(guard)
    q = adj.field.p
    m = adj.dim
    n = adj.n
    ident = Matrix.identity(adj.field, n)
    g.require(q**m)
    for coeffs in product(range(q), repeat=m):
        g.tick()
        d, b = adj.element(coeffs)
        if b != ident - d:
            continue
        if d @ d == d:
            return d
    return None


def decomposition_from_idempotent(p: Matrix):
    """(im P, ker P) for an idempotent P; raises unless P^2 = P."""
    if p.rows != p.cols:
        raise ValueError("not square")
    if p @ p != p:
        raise ValueError("not idempotent")
    image = Subspace.from_matrix(p.transpose())
    ker = kernel(p)
    return image, ker


def decomposition_from_hyperbolic(space: AltMatrixSpace, p: Matrix):
    """The isotropic 2-decomposition (u1, u2) of a space given by a
    hyperbolic idempotent P of the adjoint algebra of its non-degenerate part.

    im P and ker P are lifted through the complement of rad(A) that carries
    that part, and rad(A) joins the first part; the zero space is split as
    <e_1> + <e_2, ..., e_n> whatever P.  Returns None when a part would be
    zero; raises VerificationError unless the result is a decomposition.
    """
    n = space.n
    rad = radical_space(space)
    if rad.dim == n:
        if n < 2:
            return None
        e1 = Subspace.from_vectors(space.field, n, [(1,) + (0,) * (n - 1)])
        return e1, e1.coordinate_complement()
    v1, v2 = decomposition_from_idempotent(p)
    if v1.dim == 0 or v2.dim == 0:
        return None
    if rad.dim == 0:
        u1, u2 = v1, v2           # a non-degenerate space is its own part
    else:
        comp = rad.coordinate_complement()
        u1, u2 = v1.image(comp).sum(rad), v2.image(comp)
    if not (is_isotropic(space, u1) and is_isotropic(space, u2)
            and u1.dim + u2.dim == n and u1.sum(u2).dim == n):
        raise VerificationError("idempotent decomposition failed verification")
    return u1, u2


def two_decomposition_via_adjoint(space: AltMatrixSpace, guard=None):
    """Decide isotropic 2-decomposability through the adjoint algebra.

    Degenerate spaces are first reduced to their non-degenerate part (the
    reduction preserves 2-decomposability); a found hyperbolic idempotent
    is converted to a verified decomposition of the original space.
    Returns (u1, u2) or None.
    """
    if space.n < 2:
        return None
    part = space if radical_space(space).dim == 0 else nondegenerate_part(space)[0]
    p = hyperbolic_idempotent_search(adjoint_algebra(part), guard=guard)
    return None if p is None else decomposition_from_hyperbolic(space, p)
