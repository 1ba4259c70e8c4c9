"""Exact algorithms for isotropic numbers and isotropic decompositions.

alpha(A) is the largest dimension of an isotropic space; chi(A) is the
least number of isotropic parts in a direct sum decomposition of F^n.
Three independent chi computations are provided (naive search, a
Lawler-style recursion over restrictions, and a max-cover dynamic program
over spans of maximal isotropic spaces), together with two independent
enumerations of all maximal isotropic spaces.
"""

from __future__ import annotations

import math
from itertools import product

from .altspace import (AltMatrixSpace, is_isotropic, rad_of, radical_space,
                       restrict)
from .errors import VerificationError, as_guard
from .ffield import (Subspace, combine, enumerate_complements,
                     projective_vectors)


# ---------------------------------------------------------------------------
# greedy maximal isotropic space

def greedy_maximal(space: AltMatrixSpace, start=None) -> Subspace:
    """Grow an isotropic space until U = rad(U), hence maximal.

    Deterministic: the start vector defaults to e_1, and each step adjoins
    the first basis row of rad(U) lying outside U.
    """
    field, n = space.field, space.n
    if n < 1:
        raise ValueError("need ambient dimension >= 1")
    if start is None:
        start = (1,) + (0,) * (n - 1)
    u = Subspace.from_vectors(field, n, [start])
    while True:
        rad = rad_of(space, u)
        if rad.dim == u.dim:
            return u
        nxt = next(r for r in rad.basis_rows() if not u.contains_vector(r))
        u = u.extend_by_vector(nxt)


# ---------------------------------------------------------------------------
# the isotropic lattice

class IsotropicLattice:
    """All isotropic spaces of A, bucketed by dimension.

    rad_dims caches dim rad(U), so maximality (U = rad(U)) is a lookup.
    """

    __slots__ = ("space", "levels", "rad_dims")

    def __init__(self, space, levels, rad_dims):
        self.space = space
        self.levels = levels          # tuple of tuples of Subspace, by dim
        self.rad_dims = rad_dims      # dict key -> int

    def alpha(self) -> int:
        return len(self.levels) - 1

    def all_spaces(self):
        for level in self.levels:
            yield from level

    def count(self) -> int:
        return sum(len(level) for level in self.levels)

    def maximal(self) -> tuple:
        out = []
        for level in self.levels:
            for u in level:
                if self.rad_dims[u.key()] == u.dim:
                    out.append(u)
        return tuple(out)


def _complement_in(sub: Subspace, inside: Subspace) -> list:
    """Rows spanning a complement of sub inside the subspace `inside`
    (requires sub <= inside); reduced against sub's pivots."""
    rows = []
    acc = sub
    for r in inside.basis_rows():
        red = acc.reduce_vector(r)
        if any(red):
            rows.append(red)
            acc = acc.extend_by_vector(red)
    return rows


def enumerate_isotropic_lattice(space: AltMatrixSpace, guard=None) -> IsotropicLattice:
    """Build the lattice of all isotropic spaces bottom-up by dimension.

    Dimension d+1 is reached by adjoining, to each isotropic U of dimension
    d, one representative per line of rad(U)/U; a space reached from
    several U is kept once, at its first discovery.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    zero = Subspace.zero(field, n)
    levels = [[zero]]
    rad_dims = {}
    while True:
        nxt: dict = {}
        for u in levels[-1]:
            rad = rad_of(space, u)
            rad_dims[u.key()] = rad.dim
            if rad.dim == u.dim:
                continue
            comp_rows = _complement_in(u, rad)
            for coeffs in projective_vectors(field, len(comp_rows), guard=g):
                v = u.extend_by_vector(combine(coeffs, comp_rows, field.p))
                nxt.setdefault(v.key(), v)
        if not nxt:
            break
        levels.append(list(nxt.values()))
    return IsotropicLattice(space, tuple(tuple(l) for l in levels), rad_dims)


def enumerate_maximal_filter(space: AltMatrixSpace, guard=None) -> tuple:
    """All maximal isotropic spaces, by filtering the lattice for U = rad(U)."""
    return enumerate_isotropic_lattice(space, guard=guard).maximal()


def alpha_exact(space: AltMatrixSpace, guard=None):
    """(alpha(A), witness): the top of the isotropic lattice."""
    lat = enumerate_isotropic_lattice(space, guard=guard)
    return lat.alpha(), lat.levels[-1][0]


# ---------------------------------------------------------------------------
# branch enumeration of maximal isotropic spaces

def enumerate_maximal_branch(space: AltMatrixSpace, guard=None) -> tuple:
    """All maximal isotropic spaces by the recursive branching scheme.

    Reduce by the radical (every maximal isotropic space contains rad(A)),
    pick a minimum-degree vector v, branch over one representative w per
    line of the closed neighbourhood of v, recurse on A|_rad(w), lift, and
    keep the lifted candidates with U = rad(U).
    """
    g = as_guard(guard)

    def rec(sp: AltMatrixSpace) -> list:
        g.tick()
        field, n = sp.field, sp.n
        if sp.dim == 0:
            return [Subspace.full(field, n)]
        rad = radical_space(sp)
        if rad.dim > 0:
            # maximal spaces of sp = V lifted through a complement of
            # rad(sp), plus rad(sp), for V maximal of the (non-degenerate)
            # restriction to that complement
            comp = rad.coordinate_complement()
            return [v.image(comp).sum(rad) for v in rec(restrict(sp, comp))]
        # non-degenerate: branch on the closed neighbourhood of a
        # minimum-degree vector
        reps = list(projective_vectors(field, n, guard=g))
        degs = []
        rads = {}
        for v in reps:
            rv = rad_of(sp, v)
            rads[v] = rv
            degs.append(n - rv.dim)
        dmin = min(degs)
        vstar = reps[degs.index(dmin)]
        rad_v = rads[vstar]
        found: dict = {}
        branch = [vstar] + [w for w in reps if not rad_v.contains_vector(w)]
        for w in branch:
            g.tick()
            rw = rads[w]
            sub = restrict(sp, rw)
            for m in rec(sub):
                cand = m.image(rw)
                ck = cand.key()
                if ck in found:
                    continue
                if rad_of(sp, cand).dim == cand.dim:
                    found[ck] = cand
        return list(found.values())

    out = {}
    for u in rec(space):
        out[u.key()] = u
    return tuple(out.values())


# ---------------------------------------------------------------------------
# chi: three independent computations

def validate_decomposition(space: AltMatrixSpace, parts) -> None:
    """Raise VerificationError unless parts is an isotropic decomposition."""
    n = space.n
    total_dim = 0
    acc = Subspace.zero(space.field, n)
    for u in parts:
        if u.dim == 0:
            raise VerificationError("decomposition part is the zero space")
        if not is_isotropic(space, u):
            raise VerificationError("decomposition part is not isotropic")
        total_dim += u.dim
        acc = acc.sum(u)
    if total_dim != n or acc.dim != n:
        raise VerificationError("parts do not form a direct sum decomposition of F^n")


def _vector_mask(sub: Subspace) -> int:
    """Bitmask over vector indices (base-q digits) of all vectors of sub."""
    q = sub.field.p
    rows = sub.basis_rows()
    weights = [q**i for i in range(sub.n)]
    mask = 0
    for coeffs in product(range(q), repeat=len(rows)):
        # the zero space combines to (), whose index is 0 as well
        v = combine(coeffs, rows, q)
        mask |= 1 << sum(w * e for w, e in zip(weights, v))
    return mask


def chi_brute(space: AltMatrixSpace, guard=None):
    """Minimal part count by depth-first search over isotropic parts.

    Reference oracle: iterative deepening on the part count; candidate
    parts are all isotropic spaces, tried largest dimension first with an
    index ordering that breaks the set symmetry.  The direct-sum test
    against the partial sum uses precomputed vector bitmasks when q^n is
    small (trivial intersection iff the masks share only the zero vector).
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    q = field.p
    if n == 0:
        return 0, []
    lat = enumerate_isotropic_lattice(space, guard=g)
    if lat.alpha() == n:
        return 1, [Subspace.full(field, n)]
    cands = []
    for level in reversed(lat.levels[1:]):
        cands.extend(level)
    # cands is ordered by decreasing dimension
    use_masks = q**n <= 1 << 18
    masks = [_vector_mask(u) for u in cands] if use_masks else [0] * len(cands)

    def disjoint(acc, acc_mask, idx):
        if use_masks:
            return (acc_mask & masks[idx]) == 1
        u = cands[idx]
        s = acc.sum(u)
        return s.dim == acc.dim + u.dim

    def extend(acc: Subspace, acc_mask: int, start: int, left: int, parts):
        missing = n - acc.dim
        if missing == 0:
            return list(parts)
        if left == 0 or left > missing:
            return None
        g.tick(len(cands) - start)
        for idx in range(start, len(cands)):
            u = cands[idx]
            if u.dim > missing or u.dim * left < missing:
                if u.dim * left < missing:
                    break
                continue
            if not disjoint(acc, acc_mask, idx):
                continue
            s = acc.sum(u)
            res = extend(s, _vector_mask(s) if use_masks else 0,
                         idx + 1, left - 1, parts + [u])
            if res is not None:
                return res
        return None

    zero = Subspace.zero(field, n)
    for c in range(2, n + 1):
        res = extend(zero, 1, 0, c, [])
        if res is not None:
            return c, res
    raise VerificationError("no decomposition found up to n parts")  # unreachable


def chi_lawler(space: AltMatrixSpace, guard=None):
    """chi(A) by the memoized recursion chi(U) = 1 + min over maximal
    isotropic V of A|_U and complements W of V inside U of chi(W).

    Top-down over the reachable subspaces U, memoized by the restricted
    space A|_U: the search at U depends on A|_U alone, so each distinct
    restriction is solved once per call, in the coordinates of U's RREF
    basis.  (An RREF coordinate basis times U's RREF basis is again in
    RREF, so W = w . U has A|_W = (A|_U)|_w with the same canonical basis.)
    Maximal spaces are tried largest first, and the search stops once the
    dimension lower bound ceil(dim U / alpha(A|_U)) is attained.  Returns
    (chi, certificate).
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    by_u: dict = {}      # U.key() -> key of A|_U
    by_sub: dict = {}    # key of A|_U -> (chi, V, W), V and W in U's coordinates

    def rec(u: Subspace):
        if u.dim == 0:
            return 0, None, None
        ukey = u.key()
        skey = by_u.get(ukey)
        if skey is not None:
            return by_sub[skey]
        sub = restrict(space, u)
        skey = by_u[ukey] = (sub.n, tuple(m.entries for m in sub.basis))
        hit = by_sub.get(skey)
        if hit is not None:
            return hit
        g.tick()
        mis = sorted(enumerate_maximal_filter(sub, guard=g), key=lambda s: -s.dim)
        alpha_u = mis[0].dim
        lb = -(-u.dim // alpha_u)
        best = None
        for v in mis:
            # no decomposition through v can beat 1 + ceil((dim U - dim V)/alpha)
            if best is not None and 1 + -(-(u.dim - v.dim) // alpha_u) >= best[0]:
                continue
            for w in enumerate_complements(v, guard=g):
                cw, _, _ = rec(w.image(u))
                if best is None or 1 + cw < best[0]:
                    best = (1 + cw, v, w)
                    if best[0] == lb:
                        break
            if best is not None and best[0] == lb:
                break
        by_sub[skey] = best
        return best

    if n == 0:
        return 0, []
    u = Subspace.full(field, n)
    c, v, w = rec(u)
    parts = []
    while v is not None:
        parts.append(v.image(u))
        u = w.image(u)
        _, v, w = rec(u)
    validate_decomposition(space, parts)
    return c, parts


def chi_maxcover(space: AltMatrixSpace, guard=None, mi=None) -> int:
    """chi(A) by the max-cover dynamic program over maximal isotropic spaces.

    f(k, W) = 1 iff W is the span of a union of k maximal isotropic spaces;
    chi(A) is the first k with f(k, F^n) = 1, since a spanning family of k
    maximal isotropic spaces shrinks to an isotropic k'-decomposition with
    k' <= k and conversely.  Frontier sets of canonical subspaces per k.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    if n == 0:
        return 0
    if space.dim == 0:
        return 1
    if mi is None:
        mi = enumerate_maximal_filter(space, guard=g)
    full = Subspace.full(field, n)
    seen = set()
    frontier = []
    for t in mi:
        if t.key() not in seen:
            seen.add(t.key())
            frontier.append(t)
    if full.key() in seen:
        return 1
    mi_rows = [t.basis_rows() for t in mi]
    k = 1
    while frontier:
        k += 1
        nxt = []
        for w in frontier:
            for rows in mi_rows:
                g.tick()
                u = w
                for r in rows:
                    u = u.extend_by_vector(r)
                uk = u.key()
                if uk in seen:
                    continue
                if u.dim == n:
                    return k
                seen.add(uk)
                nxt.append(u)
        frontier = nxt
    raise VerificationError("maximal isotropic spaces never span F^n")  # unreachable


# ---------------------------------------------------------------------------
# greedy decomposition driven by the maximum degree

def greedy_deg_decomposition(space: AltMatrixSpace) -> list:
    """Greedy isotropic decomposition with at most O(Delta log n) parts.

    Each pass grows an isotropic S inside a complement W of what is already
    covered, shrinking W by rad(w) as vectors are adjoined; deterministic:
    w is the first basis row of W outside <S>, and the complement is the
    standard coordinate complement.
    """
    field, n = space.field, space.n
    if n < 1:
        raise ValueError("need ambient dimension >= 1")
    covered = Subspace.zero(field, n)
    parts = []
    while covered.dim < n:
        w = covered.coordinate_complement()
        s = Subspace.zero(field, n)
        while w.dim > s.dim:
            vec = next(r for r in w.basis_rows() if not s.contains_vector(r))
            s = s.extend_by_vector(vec)
            w = w.intersect(rad_of(space, vec))
        parts.append(s)
        covered = covered.sum(s)
    return parts


def greedy_part_bound(n: int, delta: int) -> int:
    """Part-count bound for greedy_deg_decomposition.

    Each pass covers at least a 1/(Delta+1) fraction of what is left (the
    pass stops when dim W = |S|, and W loses at most Delta dimensions per
    adjoined vector), so the remainder shrinks by the factor 1 - 1/(Delta+1)
    per pass.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if delta == 0 or n == 1:
        return 1
    shrink = -math.log(1.0 - 1.0 / (delta + 1))
    return math.ceil(math.log(n) / shrink) + 1


# ---------------------------------------------------------------------------
# dimension-2 isotropic decision, and the counting formula

def has_isotropic_dim2(space: AltMatrixSpace, guard=None):
    """Decide whether alpha(A) >= 2; returns (bool, witness pair or None).

    True iff some nonzero v has codegree >= 2, i.e. rad(v) contains a
    vector outside <v>; one representative per projective line is swept.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    for v in projective_vectors(field, n, guard=g):
        rad = rad_of(space, v)
        if rad.dim >= 2:
            line = Subspace.from_vectors(field, n, [v])
            w = next(r for r in rad.basis_rows() if not line.contains_vector(r))
            return True, (v, w)
    return False, None


def isotropic_count_formula(n: int, d: int, q: int) -> int:
    """I(A, d): dimension-d isotropic spaces of a non-degenerate alternating
    form on F_q^n (n even); 0 for d > n/2."""
    if n % 2 != 0:
        raise ValueError("no non-degenerate alternating form in odd dimension")
    if d < 0:
        raise ValueError("need d >= 0")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if d > n // 2:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (n - i) - q**i
        den *= q**d - q**i
    assert num % den == 0
    return num // den


def two_decomposition_brute(space: AltMatrixSpace, guard=None):
    """Search for an isotropic 2-decomposition by brute force.

    Scans maximal isotropic spaces V and all complements W of V, looking
    for an isotropic W; returns (V, W) or None.  (If any 2-decomposition
    exists, one of this shape exists.)
    """
    g = as_guard(guard)
    n = space.n
    if n < 2:
        return None
    if space.dim == 0:
        e1 = Subspace.from_vectors(space.field, n, [(1,) + (0,) * (n - 1)])
        return e1, e1.coordinate_complement()
    for v in enumerate_maximal_filter(space, guard=g):
        if v.dim == 0 or v.dim == space.n:
            continue
        for w in enumerate_complements(v, guard=g):
            if is_isotropic(space, w):
                return v, w
    return None
