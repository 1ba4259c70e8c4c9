"""Alternating matrix spaces over prime fields.

An alternating matrix space is the span of alternating n x n matrices: zero
diagonal and A^t = -A (over F_2 that reads: symmetric with zero diagonal).
The operations here mirror the graph-theoretic vocabulary: radicals play
the role of non-neighbourhoods, degrees the role of vertex degrees,
restriction the role of induced subgraphs.

Restriction (B A B^t) reads its basis off FormRows.restriction: the
entries w_a^t A w_b, a < b, of the rows w_a of B, from the form rows
w_a^t A, reduced once to the canonical upper triangles.  Isometry
(T^t A T), the block extraction of bipartite.py (U1 A U2^t) and the
isotropy test (B A B^t) each take L @ A @ R, one Matrix product per basis
matrix: isometry and block extraction reduce the products' flat entry
rows once with span_basis, and the isotropy test stops at the first
nonzero product.  Those spans are alternating (or, for blocks,
independent) by construction, so only outside input goes through
validate.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import DecompositionError
from .ffield import (FormRows, Matrix, PrimeField, Subspace, are_independent, combination,
                     hstack, kernel, projective_rows, span_basis, vstack)


def is_alternating(m: Matrix) -> bool:
    """A + A^t = 0 and a zero diagonal (which over F_2 the sum does not imply)."""
    return (m.rows == m.cols and (m + m.transpose()).is_zero()
            and not any(m[i, i] for i in range(m.rows)))


def elementary_alternating(field: PrimeField, n: int, i: int, j: int) -> Matrix:
    """e_i e_j^t - e_j e_i^t for i < j."""
    if not (0 <= i < j < n):
        raise ValueError("need 0 <= i < j < n")
    rows = [0] * n
    rows[i] = 1 << j * field.width
    rows[j] = field.p - 1 << i * field.width
    return Matrix._reduced(field, n, n, tuple(rows))


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
        return cls._unchecked(field, n, span_basis(field, n, n, [m.flat() for m in mats]))

    @classmethod
    def _unchecked(cls, field: PrimeField, n: int, basis) -> "AltMatrixSpace":
        """Internal: the span of a basis known to be alternating and
        independent, built without validate."""
        sp = object.__new__(cls)
        sp.field = field
        sp.n = int(n)
        sp.basis = tuple(basis)
        return sp

    @classmethod
    def from_upper(cls, field: PrimeField, n: int, rows) -> "AltMatrixSpace":
        """The span of the alternating matrices whose entries (i, l),
        i < l, row-major, are the lanes of the packed rows of an RREF, as
        FormRows.restriction gives them; not validated."""
        p, width, lane = field.p, field.width, field.lane
        pairs = [(i, l) for i in range(n) for l in range(i + 1, n)]
        basis = []
        for r in rows:
            mat = [0] * n
            for i, l in pairs:
                e = r & lane
                r >>= width
                if e:
                    mat[i] |= e << l * width
                    mat[l] |= p - e << i * width
            basis.append(Matrix._reduced(field, n, n, tuple(mat)))
        return cls._unchecked(field, n, basis)

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
        return combination(self.field, self.n, self.n, self.field.pack(coeffs), self.basis)

    def __eq__(self, other):
        return (isinstance(other, AltMatrixSpace) and self.field == other.field
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.p, self.n, self.basis))

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
    return kernel(vstack(*space.basis))


@lru_cache(maxsize=1)
def form_rows(space: AltMatrixSpace) -> FormRows:
    """The map v -> the rows v^t A over the basis of the space, for a scan
    that evaluates the forms on many packed vectors: forms.kernel(U.rows)
    is rad_A(U) and forms.rank([v]) is deg_A(v).

    The last map built is kept, keyed by the space's value, so back-to-back
    scans of one space (or of an equal one) share its rows, line radicals
    and the lattice a walk kept on it (enumerate_isotropic_lattice); a
    call on another space replaces it.  One entry only: every space held
    elsewhere would otherwise keep its map alive."""
    return FormRows(space.field, space.n, space.n, space.basis)


def rad_of(space: AltMatrixSpace, target) -> Subspace:
    """rad_A(target): all u with u^t A v = 0 for every v in the target.

    target may be a vector or a Subspace; for a subspace the constraints
    range over its basis.  The constraint rows are v^t A = -(A v)^t.  The
    rows come from form_rows(space), so repeated calls on one space share
    them, and a vector's radical is read off its kept RREF rows with no
    reduction while that map is kept.
    """
    if isinstance(target, Subspace):
        if target.n != space.n:
            raise ValueError("ambient mismatch")
        vecs = target.rows
    else:
        if len(target) != space.n:
            raise ValueError("vector length mismatch")
        vecs = [space.field.pack(target)]
    return form_rows(space).kernel(vecs)


def degree(space: AltMatrixSpace, v) -> int:
    """deg_A(v) = dim <A v : A in basis> = n - dim rad_A(v)."""
    return space.n - rad_of(space, v).dim


def max_degree(space: AltMatrixSpace, guard=None) -> int:
    """Delta(A): maximum of deg_A over the nonzero vectors (guarded); one
    vector per line is swept, since scaling v leaves deg_A(v) alone."""
    forms = form_rows(space)
    best = 0
    for v in projective_rows(space.field, space.n, guard=guard):
        d = forms.rank([v])
        if d > best:
            best = d
            if best == min(space.n, space.dim):
                break
    return best


def restrict(space: AltMatrixSpace, u: Subspace) -> AltMatrixSpace:
    """A|_U via the RREF basis B of u: the span of {B A B^t}, read off the
    upper triangles (FormRows.restriction) and not validated."""
    if u.n != space.n:
        raise ValueError("ambient mismatch")
    if u.field != space.field:
        raise ValueError("field mismatch")
    return AltMatrixSpace.from_upper(space.field, u.dim, form_rows(space).restriction(u.rows))


def isometry_transform(space: AltMatrixSpace, t: Matrix) -> AltMatrixSpace:
    """The isometric space T^t A T; raises ValueError when t is singular."""
    if t.rows != space.n or t.cols != space.n:
        raise ValueError("transform shape mismatch")
    if t.rank() != space.n:
        raise ValueError("transform is singular")
    field, n, tt = space.field, space.n, t.transpose()
    return AltMatrixSpace._unchecked(field, n, span_basis(
        field, n, n, [(tt @ a @ t).flat() for a in space.basis]))


def is_isotropic(space: AltMatrixSpace, u: Subspace) -> bool:
    """True iff B A B^t = 0 for the basis B of u and every basis matrix A;
    on a space with no basis matrices, True before any B^t is built."""
    if u.n != space.n:
        raise ValueError("ambient mismatch")
    if not space.basis:
        return True
    b = u.basis
    bt = b.transpose()
    return all((b @ a @ bt).is_zero() for a in space.basis)


def validate_decomposition(space: AltMatrixSpace, parts) -> None:
    """Raise DecompositionError (a VerificationError) unless parts is an
    isotropic decomposition: nonzero isotropic subspaces of F^n whose bases
    together form a basis."""
    n = space.n
    for u in parts:
        if u.n != n or u.field != space.field:
            raise DecompositionError("decomposition part lies in another ambient space")
        if u.dim == 0:
            raise DecompositionError("decomposition part is the zero space")
        if not is_isotropic(space, u):
            raise DecompositionError("decomposition part is not isotropic")
    if (sum(u.dim for u in parts) != n
            or reduce(Subspace.sum, parts, Subspace.zero(space.field, n)).dim != n):
        raise DecompositionError("parts do not form a direct sum decomposition of F^n")


def split_zero_space(field: PrimeField, n: int):
    """The isotropic 2-decomposition <e_1> + <e_2, ..., e_n> of the zero
    space on F^n, n >= 2."""
    return Subspace.coordinate(field, n, [0]), Subspace.coordinate(field, n, range(1, n))


def nondegenerate_part(space: AltMatrixSpace):
    """(A|_comp, comp, rad): rad = rad(A), comp its coordinate complement,
    and the restriction of A to comp, which has zero radical.

    Every maximal isotropic space of A is V lifted through comp plus rad,
    for V maximal isotropic in the part.  A non-degenerate space is its
    own part, on the full space.
    """
    rad = radical_space(space)
    if rad.dim == 0:
        return space, Subspace.full(space.field, space.n), rad
    comp = rad.coordinate_complement()
    return restrict(space, comp), comp, rad


def max_rank_bruteforce(space: AltMatrixSpace, guard=None) -> int:
    """rk(A): maximum rank over the linear combinations (guarded); one
    coefficient vector per line is swept, since scaling keeps the rank."""
    field, n = space.field, space.n
    best = 0
    for coeffs in projective_rows(field, space.dim, guard=guard):
        r = combination(field, n, n, coeffs, space.basis).rank()
        if r > best:
            best = r
            if best == space.n:
                break
    return best
