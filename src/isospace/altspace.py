"""Alternating matrix spaces over prime fields.

An alternating matrix space is the span of alternating n x n matrices: zero
diagonal and A^t = -A (over F_2 that reads: symmetric with zero diagonal).
The operations here mirror the graph-theoretic vocabulary: radicals play
the role of non-neighbourhoods, degrees the role of vertex degrees,
restriction the role of induced subgraphs.
"""

from __future__ import annotations

from itertools import product

from .errors import as_guard
from .ffield import (Matrix, PrimeField, Subspace, all_vectors, are_independent,
                     combine, hstack, kernel, span_basis, stacked_products, vstack)


def is_alternating(m: Matrix) -> bool:
    if m.rows != m.cols:
        return False
    p = m.field.p
    n = m.rows
    for i in range(n):
        if m[i, i] != 0:
            return False
        for j in range(i + 1, n):
            if m[i, j] != (-m[j, i]) % p:
                return False
    return True


def elementary_alternating(field: PrimeField, n: int, i: int, j: int) -> Matrix:
    """e_i e_j^t - e_j e_i^t for i < j."""
    if not (0 <= i < j < n):
        raise ValueError("need 0 <= i < j < n")
    ent = [0] * (n * n)
    ent[i * n + j] = 1
    ent[j * n + i] = field.p - 1
    return Matrix(field, n, n, ent)


class AltMatrixSpace:
    """Span of an ordered, linearly independent basis of alternating matrices."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field: PrimeField, n: int, basis):
        self.field = field
        self.n = int(n)
        self.basis = tuple(basis)
        self.validate()

    @classmethod
    def from_generators(cls, field: PrimeField, n: int, mats) -> "AltMatrixSpace":
        """Span of arbitrary alternating generators, re-reduced to an
        independent ordered basis with deterministic (row-major) pivots.

        The reduced basis is independent by construction and alternating as
        a span of alternating matrices, so only the generators are checked.
        """
        mats = list(mats)
        for m in mats:
            if not is_alternating(m):
                raise ValueError("generator is not alternating")
            if m.field != field or m.rows != n:
                raise ValueError("generator has wrong field or shape")
        sp = object.__new__(cls)
        sp.field = field
        sp.n = int(n)
        sp.basis = tuple(span_basis(field, n, n, mats))
        return sp

    @classmethod
    def zero_space(cls, field: PrimeField, n: int) -> "AltMatrixSpace":
        return cls(field, n, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def validate(self) -> None:
        """Check the alternating condition and basis independence."""
        for m in self.basis:
            if m.field != self.field or m.rows != self.n or m.cols != self.n:
                raise ValueError("basis matrix has wrong field or shape")
            if not is_alternating(m):
                raise ValueError("not alternating: nonzero diagonal or not skew-symmetric")
        if not are_independent(self.basis):
            raise ValueError("dependent basis")

    def combination(self, coeffs) -> Matrix:
        if not self.basis:
            return Matrix.zeros(self.field, self.n, self.n)
        ent = combine(coeffs, [m.entries for m in self.basis], self.field.p)
        return Matrix._reduced(self.field, self.n, self.n, ent)

    def __eq__(self, other):
        return (isinstance(other, AltMatrixSpace) and self.field == other.field
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.p, self.n, tuple(m.entries for m in self.basis)))

    def __repr__(self):
        return f"AltMatrixSpace(F{self.field.p}, n={self.n}, dim={self.dim})"


def block_alternating(b: Matrix) -> Matrix:
    """The alternating matrix [[0, B], [-B^t, 0]] of an s x t block B."""
    f, s, t = b.field, b.rows, b.cols
    return vstack(hstack(Matrix.zeros(f, s, s), b),
                  hstack(b.transpose().scale(-1), Matrix.zeros(f, t, t)))


def radical_space(space: AltMatrixSpace) -> Subspace:
    """rad(A): the isolated vectors, i.e. the intersection of the kernels."""
    if space.dim == 0:
        return Subspace.full(space.field, space.n)
    stacked = space.basis[0]
    for m in space.basis[1:]:
        stacked = vstack(stacked, m)
    return kernel(stacked)


def rad_of(space: AltMatrixSpace, target) -> Subspace:
    """rad_A(target): all u with u^t A v = 0 for every v in the target.

    target may be a vector or a Subspace; for a subspace the constraints
    range over its basis.  The constraint rows v^t A = -(A v)^t are the
    stacked products of the target's basis with the basis of the space.
    """
    if isinstance(target, Subspace):
        if target.n != space.n:
            raise ValueError("ambient mismatch")
        vecs = target.basis
    else:
        if len(target) != space.n:
            raise ValueError("vector length mismatch")
        vecs = Matrix(space.field, 1, space.n, target)
    if not space.basis:
        return Subspace.full(space.field, space.n)
    return kernel(stacked_products(vecs, space.basis))


def degree(space: AltMatrixSpace, v) -> int:
    """deg_A(v) = dim <A v : A in basis> = n - dim rad_A(v)."""
    return space.n - rad_of(space, v).dim


def max_degree(space: AltMatrixSpace, guard=None) -> int:
    """Delta(A): maximum of deg_A over all q^n - 1 nonzero vectors (guarded)."""
    g = as_guard(guard)
    best = 0
    for v in all_vectors(space.field, space.n, guard=g, nonzero=True):
        d = degree(space, v)
        if d > best:
            best = d
            if best == min(space.n, space.dim):
                break
    return best


def restrict(space: AltMatrixSpace, u: Subspace) -> AltMatrixSpace:
    """A|_U via T = transpose of u's RREF basis: span of {T^t A T}."""
    if u.n != space.n:
        raise ValueError("ambient mismatch")
    b = u.basis              # d x n
    bt = b.transpose()       # n x d
    mats = [(b @ m) @ bt for m in space.basis]
    return AltMatrixSpace.from_generators(space.field, u.dim, mats)


def isometry_transform(space: AltMatrixSpace, t: Matrix) -> AltMatrixSpace:
    """The isometric space T^t A T; raises ValueError when t is singular."""
    if t.rows != space.n or t.cols != space.n:
        raise ValueError("transform shape mismatch")
    if t.rank() != space.n:
        raise ValueError("transform is singular")
    tt = t.transpose()
    mats = [(tt @ m) @ t for m in space.basis]
    return AltMatrixSpace.from_generators(space.field, space.n, mats)


def is_isotropic(space: AltMatrixSpace, u: Subspace) -> bool:
    """True iff B A B^t = 0 for the basis B of u and every basis matrix A."""
    if u.n != space.n:
        raise ValueError("ambient mismatch")
    b = u.basis
    bt = b.transpose()
    return all(((b @ m) @ bt).is_zero() for m in space.basis)


def nondegenerate_part(space: AltMatrixSpace):
    """Restrict to a complement of rad(A).

    Returns (space', T) with T invertible, columns ordered [complement |
    radical], such that T^t A T is block-diagonal with the nondegenerate
    space' in the leading block.  space' has zero radical.
    """
    rad = radical_space(space)
    comp = rad.coordinate_complement()
    cols = comp.basis_rows() + rad.basis_rows()
    t = Matrix.from_rows(space.field, cols).transpose() if cols else \
        Matrix(space.field, space.n, 0, ())
    part = restrict(space, comp)
    return part, t


def max_rank_bruteforce(space: AltMatrixSpace, guard=None) -> int:
    """rk(A): maximum rank over all q^m linear combinations (guarded)."""
    g = as_guard(guard)
    q = space.field.p
    m = space.dim
    g.require(q**m)
    best = 0
    for coeffs in product(range(q), repeat=m):
        g.tick()
        r = space.combination(coeffs).rank()
        if r > best:
            best = r
            if best == space.n:
                break
    return best
