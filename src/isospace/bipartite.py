"""Bipartite alternating matrix spaces and the non-commutative rank route.

A bipartite alternating matrix space (one admitting an isotropic
2-decomposition) is, up to isometry, a space of matrices [[0, B], [-B^t, 0]];
its isotropic number is n - ncrk(B), found by scanning the subspaces of the
smaller side of B <= M(s x t).  The adjoint-algebra machinery decides
2-decomposability of a non-degenerate space by searching for a hyperbolic
idempotent.
"""

from __future__ import annotations

from itertools import chain, product

from .altspace import (AltMatrixSpace, block_alternating, is_isotropic, nondegenerate_part,
                       split_zero_space, validate_decomposition)
from .errors import VerificationError, as_guard
from .ffield import (FormRows, Matrix, PrimeField, Subspace, are_independent, combination,
                     enumerate_subspaces, kernel, span_basis, vstack)


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
        return cls._unchecked(field, s, t, span_basis(field, s, t, [m.flat() for m in mats]))

    @classmethod
    def _unchecked(cls, field, s, t, basis) -> "MatrixSpace":
        """Internal: the span of a basis known to be independent, of s x t
        matrices over the field, built without the checks."""
        sp = object.__new__(cls)
        sp.field = field
        sp.s = int(s)
        sp.t = int(t)
        sp.basis = tuple(basis)
        return sp

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"MatrixSpace(F{self.field.p}, {self.s}x{self.t}, dim={self.dim})"


def bipartite_space_from_blocks(b: MatrixSpace) -> AltMatrixSpace:
    """The alternating space spanned by [[0, B], [-B^t, 0]] over b's basis."""
    return AltMatrixSpace.from_generators(b.field, b.s + b.t,
                                          [block_alternating(m) for m in b.basis])


def block_space_from_bipartite(space: AltMatrixSpace, u1: Subspace,
                               u2: Subspace) -> MatrixSpace:
    """Extract B <= M(s x t) from a bipartite space via its 2-decomposition.

    The blocks are U1 A U2^t for the RREF bases U1, U2 of the parts, one
    Matrix product per basis matrix A: entry (i, j) is the form of row i
    of U1 against row j of U2.  span_basis reduces their entry rows to the
    canonical basis.  The zero space gives the zero s x t space before U2^t
    is built.  Raises unless (u1, u2) is an isotropic 2-decomposition of
    the space.
    """
    validate_decomposition(space, [u1, u2])
    field, s, t = space.field, u1.dim, u2.dim
    if not space.basis:
        return MatrixSpace._unchecked(field, s, t, ())
    b1, b2t = u1.basis, u2.basis.transpose()
    return MatrixSpace._unchecked(field, s, t, span_basis(
        field, s, t, [(b1 @ a @ b2t).flat() for a in space.basis]))


def ncrk_witness_pair(b: MatrixSpace, guard=None):
    """A maximizing isotropic pair (U, V) for ncrk(B): U^t B_i V = 0 for
    every basis matrix B_i, with dim U + dim V largest.

    The search runs over the subspaces of the smaller side, q^Theta(min(s,
    t)^2) of them: U <= F^s when s < t, else V <= F^t (so square spaces
    scan V).  A scanned U's best partner V is the common kernel of the rows
    u^t B_i over U's RREF basis rows u, so dim V = t - rank; a scanned V's
    best partner U is, in the same way, the common kernel of the rows
    w^t B_i^t, so dim U = s - rank.  The basis rows are one per line, so
    each line is combined at most once.  Ties go to the first scanned space
    in enumerate_subspaces order, and only its kernel is taken.

    The call's map decides the route: where it hands over masks of lines
    of the partner's side F^m (FormRows.line_masks, one mask per line of
    F^n; on fields with residue tables where F^m has at most 2^13 lines,
    the range measured in BENCH_30.json), the partner's dimension is read
    off them instead of a row reduction per subspace.  The kernel of a
    basis row is its line mask, built together with every other after the
    scan's require, on the padded squares of ncrk_pad_square too, which
    are not alternating; the kernel of a space is the AND over its basis
    rows, and a d-space has (q^d - 1)/(q - 1) lines.  Both routes scan,
    tick and break ties alike, so they give the same pair.
    """
    g = as_guard(guard)
    field = b.field
    left = b.s < b.t
    n, m = (b.s, b.t) if left else (b.t, b.s)
    forms = FormRows(field, n, m, b.basis if left else [x.transpose() for x in b.basis])
    scan = enumerate_subspaces(field, n, guard=g)
    # the first space comes after the scan's require: a scan the guard
    # refuses builds no mask
    first = next(scan)
    masks = forms.line_masks()
    if masks is not None:
        q, full = field.p, field.lines[m].full
        dims = {(q**d - 1) // (q - 1): d for d in range(m + 1)}
    best = None
    for w in chain((first,), scan):
        if masks is None:
            score = w.dim + m - forms.rank(w.rows)
        else:
            ker = full
            for r in w.rows:
                ker &= masks[r]
            score = w.dim + dims[ker.bit_count()]
        if best is None or score > best[0]:
            best = (score, w)
    w = best[1]
    partner = forms.kernel(w.rows)
    return (w, partner) if left else (partner, w)


def ncrk_brute(b: MatrixSpace, guard=None) -> int:
    """Non-commutative rank by enumerating the subspaces of the smaller
    side: ncrk = s + t - max(dim U + dim V) over the pairs of
    ncrk_witness_pair."""
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
    top = Matrix.zeros(field, pad, t)
    # E_{i,j} is e_{i t + j} of F^{t t} reshaped to t x t
    gens = ([vstack(top, m) for m in b.basis]
            + [Matrix.from_flat(field, t, t, 1 << k * field.width) for k in range(pad * t)])
    return MatrixSpace.from_generators(field, t, t, gens)


def alpha_bipartite(space: AltMatrixSpace, u1: Subspace, u2: Subspace,
                    guard=None):
    """alpha(A) = n - ncrk(B) for a bipartite space, with a verified witness.

    The witness is built from the maximizing isotropic pair (U, V) that
    ncrk_witness_pair finds on the smaller side of the s x t block space
    (s = dim u1, t = dim u2), whose dimensions also give ncrk(B) =
    s + t - dim U - dim V: U carried into u1 and V into u2 span an
    isotropic space of dimension n - ncrk(B), re-verified here.
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


def adjoint_algebra(space: AltMatrixSpace, guard=None) -> AdjointAlgebra:
    """Solve B^t A_i = A_i D for all i in the 2n^2 unknowns (D, B).

    The space must be non-degenerate (then B is unique given D and the
    pair basis projects injectively to the D side).  (0, B) solves iff B's
    columns lie in rad(A), so the space is degenerate iff the RREF kernel
    has a pivot on the B side.  The k n^2 equations, k = dim A, are
    reduced with at most k n^2 min(k n^2, 2 n^2) row operations, required
    from the guard before the system is built.
    """
    n = space.n
    field = space.field
    width, lane = field.width, field.lane
    nn = n * n
    equations = space.dim * nn
    as_guard(guard).require(equations * min(equations, 2 * nn), "row operations")
    # unknown vector x = (D row-major, B row-major), as one packed row of
    # 2 n^2 lanes; the equation of (r, c) for each basis A,
    #   (B^t A)_{rc} - (A D)_{rc} = sum_k A_{kc} B_{kr} - sum_k A_{rk} D_{kc} = 0,
    # has row r of -A at the lanes k n + c and column c of A at nn + k n + r
    def spread(x):      # lane k of a packed row of n lanes to lane k n
        return sum((x >> k * width & lane) << k * n * width for k in range(n))

    rows = []
    for a in space.basis:
        d_side = [spread(r) for r in a.scale(-1).packed]
        b_side = [spread(r) << nn * width for r in a.transpose().packed]
        rows += [d_side[r] << c * width | b_side[c] << r * width
                 for r in range(n) for c in range(n)]
    ker = kernel(Matrix._reduced(field, len(rows), 2 * nn, tuple(rows)))
    if ker.pivots and ker.pivots[-1] >= nn:
        raise ValueError("adjoint algebra requires a non-degenerate space")
    return AdjointAlgebra(field, n, [(Matrix.from_flat(field, n, n, x),
                                      Matrix.from_flat(field, n, n, x >> nn * width))
                                     for x in ker.rows])


def hyperbolic_idempotent_search(adj: AdjointAlgebra, guard=None):
    """The first P = sum c_i D_i of Adj, in coefficient order, with P^2 = P
    and P* = I - P, or None.  P* = I - P is solved once, as the RREF kernel
    of the n^2 equations [-I | D_1 + D_1*, ..., D_k + D_k*] in the unknowns
    (1, c): c solves iff the kernel has a row led at lane 0, that row's
    later lanes are the solution c0 that is zero at the pivots of the
    other rows, and those rows, shifted down a lane, are the RREF kernel
    of the equations in c.  So t in product order gives c = c0 + sum t_j
    k_j in coefficient order (c is t_j at pivot j, and each other
    coordinate depends only on earlier pivots).  The system is reduced
    with at most n^2 min(n^2, dim Adj + 1) row operations, and the
    q^(dim ker) candidates are required before the coset's generators are
    built.
    """
    g = as_guard(guard)
    field, n, q = adj.field, adj.n, adj.field.p
    width = field.width
    nn = n * n
    g.require(nn * min(nn, adj.dim + 1), "row operations")
    # the equation of entry e, row-major: column e of the flats of the
    # D_j + D_j*, shifted up to lanes j from 1, and entry e of -I at lane 0
    sums = Matrix._reduced(field, adj.dim, nn, tuple([(d + b).flat() for d, b in adj.pairs]))
    rows = [r << width for r in sums.transpose().packed]
    for i in range(0, nn, n + 1):
        rows[i] |= q - 1
    sol = kernel(Matrix._reduced(field, nn, adj.dim + 1, tuple(rows)))
    if not sol.pivots or sol.pivots[0]:
        return None
    g.require(q ** (sol.dim - 1))
    ds = [d for d, _ in adj.pairs]     # P = P0 + sum t_j K_j
    gens = [combination(field, n, n, c >> width, ds) for c in sol.rows]
    for t in product(range(q), repeat=sol.dim - 1):
        g.tick()
        d = combination(field, n, n, field.pack((1,) + t), gens)
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


def decomposition_from_hyperbolic(space: AltMatrixSpace, p: Matrix,
                                  comp: Subspace, rad: Subspace):
    """The isotropic 2-decomposition (u1, u2) of a space given by a
    hyperbolic idempotent P of the adjoint algebra of its non-degenerate part
    and by the (comp, rad) that nondegenerate_part(space) returns.

    im P and ker P are lifted through comp, and rad joins the first part;
    the zero space is split as <e_1> + <e_2, ..., e_n> whatever P.  Returns
    None when a part would be zero; raises VerificationError unless the
    result is a decomposition.
    """
    n = space.n
    if space.dim == 0:
        return None if n < 2 else split_zero_space(space.field, n)
    u1, u2 = decomposition_from_idempotent(p)
    if u1.dim == 0 or u2.dim == 0:
        return None
    if rad.dim:
        u1, u2 = u1.image(comp).sum(rad), u2.image(comp)
    validate_decomposition(space, [u1, u2])
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
    g = as_guard(guard)
    part, comp, rad = nondegenerate_part(space)
    p = hyperbolic_idempotent_search(adjoint_algebra(part, guard=g), guard=g)
    return None if p is None else decomposition_from_hyperbolic(space, p, comp, rad)
