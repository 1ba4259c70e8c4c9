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
from bisect import bisect_left
from itertools import chain

from .altspace import (AltMatrixSpace, form_rows, nondegenerate_part,
                       split_zero_space, validate_decomposition)
from .errors import VerificationError, as_guard
from .ffield import Subspace, enumerate_complements, projective_rows


# ---------------------------------------------------------------------------
# greedy maximal isotropic space

def greedy_maximal(space: AltMatrixSpace) -> Subspace:
    """Grow an isotropic space until U = rad(U), hence maximal: the greedy
    growth (_grow) inside F^n, where W is rad(U) at every step, so each
    step adjoins the first basis row of rad(U) lying outside U (first e_1,
    as rad(0) = F^n)."""
    return _grow(form_rows(space), Subspace.full(space.field, space.n))


def _grow(forms, w: Subspace) -> Subspace:
    """The isotropic S grown inside w by the forms' map: from S = 0, adjoin
    the first basis row v of W outside S and cut W by rad(v), until W = S.
    W is always w meet rad(S), so at the stop S = w meet rad(S): no
    isotropic space of w strictly contains S."""
    s = Subspace.zero(w.field, w.n)
    while w.dim > s.dim:
        v = w.first_row_outside(s)
        s = s.extend_by_vector(v)
        w = w.intersect(forms.kernel([v]))
    return s


# ---------------------------------------------------------------------------
# the isotropic lattice

class IsotropicLattice:
    """All isotropic spaces of A, bucketed by dimension, and the maximal
    ones (U = rad(U)), recorded in level order as the lattice grows.

    A space is kept as the tuple of its RREF rows, the packed rows that
    Subspace.rows holds: `level_rows[d]` holds the spaces of dimension d
    and `maximal_rows` the maximal ones.  A Subspace is built from its rows
    only when it is read: `space(rows)` builds one, and `levels` and
    `maximal()` build theirs on first read and keep them.
    """

    __slots__ = ("field", "n", "level_rows", "maximal_rows", "_levels", "_maximal")

    def __init__(self, field, n: int, level_rows, maximal_rows):
        self.field, self.n = field, n
        self.level_rows = level_rows        # tuple of tuples of row tuples, by dim
        self.maximal_rows = maximal_rows    # tuple of row tuples
        self._levels = self._maximal = None

    def space(self, rows: tuple) -> Subspace:
        return Subspace.from_rref(self.field, self.n, rows)

    @property
    def levels(self) -> tuple:
        """The spaces as Subspaces, a tuple per dimension."""
        if self._levels is None:
            self._levels = tuple(tuple(map(self.space, level)) for level in self.level_rows)
        return self._levels

    def alpha(self) -> int:
        return len(self.level_rows) - 1

    def all_spaces(self):
        for level in self.levels:
            yield from level

    def count(self) -> int:
        return sum(map(len, self.level_rows))

    def maximal(self) -> tuple:
        if self._maximal is None:
            self._maximal = tuple(map(self.space, self.maximal_rows))
        return self._maximal


def enumerate_isotropic_lattice(space: AltMatrixSpace, guard=None) -> IsotropicLattice:
    """Build the lattice of all isotropic spaces bottom-up by dimension.

    Each nonzero isotropic V has one parent, the span of all its RREF rows
    but the last, which is isotropic and one dimension lower; so level d+1
    is the children of each U of level d inside rad(U), in the order of
    their parents, and each space is built once, already in RREF, as the
    tuple of its rows (IsotropicLattice builds no Subspace until one is
    read).  U is maximal iff rad(U) = U, and then it has no child.  A child
    appends the row of a line of rad(U) led at a column after U's last
    pivot where U's rows are zero, in projective_rows order; the children
    of U are required, then ticked, one per child.  Only the source of
    rad(U) depends on the field.

    The map decides the source: where it hands over line masks
    (FormRows.line_masks, one mask kept per line of F^n, built together
    before the first node or kept from an earlier lattice), each line's
    row has two masks over field.lines[n]: its line mask, the lines of its
    kernel, and its child mask (LineTable.row_blocks), the lines led after
    its lead at a column where it is zero.  RREF leads increase, so the
    children of U are the set bits, in index order, of the AND over U's
    rows of line mask & child mask (every line for U = 0), and a node
    costs one AND per row, with no row reduced and no column looped over.
    U (with (q^d - 1)/(q - 1) lines in dimension d) is maximal iff rad(U),
    the AND of its rows' line masks, has as many; a maximal U has no
    child, and U's k forms put at most d k conditions on rad(U), so rad(U)
    is formed and counted only where U has no child and d (k + 1) >= n.

    Elsewhere forms.kernel reduces U's rows, U is maximal iff the kernel
    has U's dimension, and the children are read off the kernel's rows
    pivoted after U's last pivot (Subspace.led_lines), with no line
    table.  Both sources give the same levels in the same order and tick
    the guard alike.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    q, width, lane = field.p, field.width, field.lane
    # rad(0) = F^n: its lines, the first level, are required before any is built
    count = (q**n - 1) // (q - 1)
    g.require(count)
    forms = form_rows(space)
    masks = forms.line_masks()
    if masks is not None:
        table = field.lines[n]
        lines, full = table.lines, table.full
        after = table.row_blocks()
        # the lines of v's kernel led after v's lead at a column where v is zero
        clear = {v: masks[v] & after[v] for v in lines}
    levels, level, maximal = [], [()], []
    size = 0        # the lines of a space of the level
    least = -(-n // (space.dim + 1))       # the least dimension of a maximal U
    while level:
        levels.append(tuple(level))
        may_stop = len(levels) > least
        level = []
        for rows in levels[-1]:
            if masks is None:
                rad = forms.kernel(rows)
                if rad.dim == len(rows):
                    maximal.append(rows)
                    continue
                start = support = 0
                for r in rows:
                    support |= r
                if rows:
                    start = ((rows[-1] & -rows[-1]).bit_length() - 1) // width + 1
                leads = [i for i in range(bisect_left(rad.pivots, start), rad.dim)
                         if not support >> rad.pivots[i] * width & lane]
                k = rad.line_count(leads)
                g.require(k)
                g.tick(k)
                for i in leads:
                    level += [rows + (v,) for v in rad.led_lines(i)]
                continue
            # rad(U) & the child masks, one AND per row
            free = full
            for r in rows:
                free &= clear[r]
            if not free:
                # a maximal U has no child; require(0) and tick(0) do nothing
                if may_stop:
                    rad = full
                    for r in rows:
                        rad &= masks[r]
                    if rad.bit_count() == size:
                        maximal.append(rows)
                continue
            k = free.bit_count()
            g.require(k)
            g.tick(k)
            while free:
                low = free & -free
                free ^= low
                level.append(rows + (lines[low.bit_length() - 1],))
        size = size * q + 1
    return IsotropicLattice(field, n, tuple(levels), tuple(maximal))


def enumerate_maximal_filter(space: AltMatrixSpace, guard=None) -> tuple:
    """All maximal isotropic spaces, by filtering the lattice for U = rad(U)."""
    return enumerate_isotropic_lattice(space, guard=guard).maximal()


def alpha_exact(space: AltMatrixSpace, guard=None):
    """(alpha(A), witness): the top of the isotropic lattice."""
    lat = enumerate_isotropic_lattice(space, guard=guard)
    return lat.alpha(), lat.space(lat.level_rows[-1][0])


# ---------------------------------------------------------------------------
# branch enumeration of maximal isotropic spaces

def enumerate_maximal_branch(space: AltMatrixSpace, guard=None) -> tuple:
    """All maximal isotropic spaces by the recursive branching scheme.

    Reduce by the radical (every maximal isotropic space contains rad(A)),
    pick a minimum-degree vector v, branch over one representative w per
    line of the closed neighbourhood of v, recurse on A|_rad(w), and keep
    every lift, first seen first.  A lift is maximal with no test: w lies
    in the radical of A|_rad(w), so a maximal isotropic M of A|_rad(w)
    contains w; its lift U is isotropic, and an isotropic V containing U
    contains w, so V lies in rad(w) and is U.  Branches share restricted
    spaces: a memo keyed by (dim rad(w), restriction key), as chi_lawler's
    is, solves each once per call, and a hit reuses its list of maximal
    spaces and ticks nothing.
    """
    g = as_guard(guard)
    memo: dict = {}      # (dim, restriction key) -> rec's list, never mutated

    def rec(sp: AltMatrixSpace) -> list:
        g.tick()
        field, n = sp.field, sp.n
        if sp.dim == 0:
            return [Subspace.full(field, n)]
        part, comp, rad = nondegenerate_part(sp)
        if rad.dim > 0:
            # every maximal space of sp is one of the part's, lifted, plus rad
            return [v.image(comp).sum(rad) for v in rec(part)]
        # non-degenerate: branch on the closed neighbourhood of a
        # minimum-degree vector
        forms = form_rows(sp)
        reps = list(projective_rows(field, n, guard=g))
        # deg(v) = rank of v's rows; min keeps the first minimum
        vstar = min(reps, key=lambda v: forms.rank([v]))
        rad_v = forms.kernel([vstar])
        found: dict = {}
        # the branches' rad(w): v* first, whose radical is already built
        rads = chain([rad_v], (forms.kernel([w]) for w in reps if not rad_v.contains_vector(w)))
        for rw in rads:
            g.tick()
            # A|_rad(w) from the rows of the lines that forms already holds
            key = (rw.dim, forms.restriction(rw.rows))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = rec(AltMatrixSpace.from_upper(field, *key))
            for m in hit:
                cand = m.image(rw)
                found.setdefault(cand.key(), cand)
        return list(found.values())

    # rec's spaces are distinct: keyed when non-degenerate, and lifted
    # injectively through comp plus rad when degenerate
    return tuple(rec(space))


# ---------------------------------------------------------------------------
# chi: three independent computations

def chi_brute(space: AltMatrixSpace, guard=None):
    """Minimal part count by depth-first search over isotropic parts.

    Reference oracle: iterative deepening on the part count; candidate
    parts are all isotropic spaces, tried largest dimension first with an
    index ordering that breaks the set symmetry.  A candidate U is taken
    when its join with the partial sum S is direct, dim(S + U) = dim S +
    dim U.  S is held as (S^perp, dim S), S^perp a mask over the lines of
    F^n (LineTable.annihilator), and each candidate's mask is built when
    the search first reads it: (S + U)^perp is their AND, and the join is
    direct iff it has the lines of an (n - dim S - dim U)-space.  The
    words of the masks kept are required from the guard as they are built.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    q = field.p
    if n == 0:
        return 0, []
    lat = enumerate_isotropic_lattice(space, guard=g)
    if lat.alpha() == n:
        return 1, [Subspace.full(field, n)]
    cands = []      # the spaces' RREF rows, by decreasing dimension
    for level in reversed(lat.level_rows[1:]):
        cands.extend(level)
    table = field.lines[n]
    masks = [None] * len(cands)
    kept = 0        # the words of the masks built
    lines = [(q**d - 1) // (q - 1) for d in range(n + 1)]   # of a d-space

    def extend(acc: int, dim: int, start: int, left: int, parts):
        nonlocal kept
        missing = n - dim
        if missing == 0:
            return list(parts)
        g.tick(len(cands) - start)
        for idx in range(start, len(cands)):
            u = cands[idx]
            d = len(u)
            if d * left < missing:
                break
            if d > missing:
                continue
            m = masks[idx]
            if m is None:
                kept += table.words
                g.require(kept, "mask words")
                m = masks[idx] = table.annihilator(u)
            s = acc & m
            if s.bit_count() != lines[missing - d]:
                continue
            res = extend(s, dim + d, idx + 1, left - 1, parts + [u])
            if res is not None:
                return res
        return None

    for c in range(2, n + 1):
        res = extend(table.full, 0, 0, c, [])
        if res is not None:
            return c, [lat.space(u) for u in res]
    raise VerificationError("no decomposition found up to n parts")  # unreachable


def chi_lawler(space: AltMatrixSpace, guard=None):
    """chi(A) by the memoized recursion chi(U) = 1 + min over maximal
    isotropic V of A|_U and complements W of V inside U of chi(W).

    The recursion sees only restricted spaces, each in the coordinates of
    its own RREF basis: a complement w of V in F^(dim U) has (A|_U)|_w =
    A|_(w.U) with the same canonical basis, and its key, the upper
    triangles of that basis, is read off the products cached in A|_U's
    FormRows.  One memo maps a key to its answer with its certificate in
    those coordinates, so each distinct restriction is solved once per
    call, and an improving child's parts lift into U's coordinates through
    w.  The search of A itself runs in F^n's coordinates, unkeyed: every
    restriction below it is smaller.  Maximal spaces, read off the lattice
    of A|_U as row tuples, are tried largest first, each built as a
    Subspace only when it is searched; the search stops once the dimension
    lower bound lb = ceil(dim U / alpha(A|_U)) is attained, or once the
    best through V, 1 + ceil((dim U - dim V)/alpha), cannot beat its best,
    as no later V can then either.  A search keeps its lattice until its
    best first reaches lb + 1, then scans it once for an isotropic
    lb-decomposition (_split, exact for every lb <= chi: a maximal first
    part, then lattice spaces whose annihilator masks keep the sum direct;
    at lb = 2 the pairs that two_decomposition_brute scans).  If there is
    none, lb + 1 cannot be beaten, and the search stops with the
    complement that reached it, as the full search would keep; otherwise
    it drops the lattice and goes on.  The scan reads the layers below off
    masks instead of reducing and keying each complement.  A search tries
    each complement once: a repeat gives the same chi, which cannot beat
    the best it already set.  As best only falls, every earlier V' of V's
    dimension was searched in full, so a complement W of V is a repeat iff
    W meets some such V' in 0; enumerate_complements skips it by the
    annihilator masks of those V' before reducing it.  A search keeps the
    mask of a V searched in full only if a later V has its dimension,
    drops them when the dimension falls, and requires the words it keeps
    from the guard as it keeps them.
    Returns (chi, certificate).
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    memo: dict = {}      # (dim, restriction key) -> (chi, parts in its coordinates)

    def rec(d: int, key: tuple):
        if d == 0:
            return 0, []
        hit = memo.get((d, key))
        if hit is None:
            hit = memo[d, key] = search(AltMatrixSpace.from_upper(field, d, key))
        return hit

    def search(sub: AltMatrixSpace):
        g.tick()
        d = sub.n
        lat = enumerate_isotropic_lattice(sub, guard=g)
        mis = sorted(lat.maximal_rows, key=len, reverse=True)
        alpha_u = len(mis[0])
        lb = -(-d // alpha_u)
        forms = form_rows(sub)
        done = []       # the annihilator masks of the V of this dimension searched
        kept = 0
        best = None
        for i, rows in enumerate(mis):
            # no decomposition through V can beat 1 + ceil((dim U - dim V)/alpha),
            # and no later, smaller V either
            if best is not None and 1 + -(-(d - len(rows)) // alpha_u) >= best[0]:
                break
            v = Subspace.from_rref(field, d, rows)
            for w in enumerate_complements(v, guard=g, skip=done):
                cw, parts = rec(w.dim, forms.restriction(w.rows))
                if best is None or 1 + cw < best[0]:
                    best = (1 + cw, [v] + [p.image(w) for p in parts])
                    if best[0] == lb:
                        return best
                    if best[0] == lb + 1 and lat is not None:
                        # with no lb-decomposition, lb + 1 cannot be beaten
                        if _split(lat, lb, g) is None:
                            return best
                        lat = None
            # only a later V of v's dimension (mis is sorted) reads its mask
            if i + 1 < len(mis) and len(mis[i + 1]) == len(rows):
                table = field.lines[d]
                kept += table.words
                g.require(kept, "mask words")
                done.append(table.annihilator(rows))
            else:
                done = []
        return best

    # the first lattice's lines, required before the space is searched
    g.require((field.p**n - 1) // (field.p - 1))
    c, parts = search(space) if n else (0, [])
    validate_decomposition(space, parts)
    return c, parts


def chi_maxcover(space: AltMatrixSpace, guard=None, mi=None) -> int:
    """chi(A) by the max-cover dynamic program over maximal isotropic spaces.

    f(k, W) = 1 iff W is the span of a union of k maximal isotropic spaces;
    chi(A) is the first k with f(k, F^n) = 1, since a spanning family of k
    maximal isotropic spaces shrinks to an isotropic k'-decomposition with
    k' <= k and conversely.  Level k is a frontier of canonical spans, each
    first reached with k spaces, and each with the least index of a last
    space that reaches it: it is joined only with the spaces after that
    index, and spans of earlier levels are skipped.  That is exact: a
    smallest family i_1 < ... < i_k spanning W has no prefix span at an
    earlier level (else a smaller family would span W), so by induction
    its j-th prefix span is on level j with an index <= i_j, and level k
    reaches W.  A span W is held as W^perp, a mask over the lines of F^n
    (LineTable.annihilator): a join is one AND, and W = F^n iff it is 0.
    The words of the masks of mi are required from the guard before they
    are built.  One tick per join, paid after each span's row of joins
    (the joins made, where the row reaches F^n).
    """
    g = as_guard(guard)
    n = space.n
    if n == 0:
        return 0
    if space.dim == 0:
        return 1
    if mi is None:
        mi = enumerate_maximal_filter(space, guard=g)
    table = space.field.lines[n]
    g.require(len(mi) * table.words, "mask words")
    masks = [table.annihilator(t.rows) for t in mi]
    # the maximal spaces are distinct, and none is F^n, as space.dim > 0
    seen = set(masks)
    frontier = [(m, i) for i, m in enumerate(masks)]
    k = 1
    while frontier:
        k += 1
        level: dict = {}     # span mask -> least index of its last space
        for w, last in frontier:
            for j in range(last + 1, len(mi)):
                u = w & masks[j]
                if u in seen:
                    continue
                if not u:
                    g.tick(j - last)
                    return k
                hit = level.get(u)
                if hit is None or j < hit:
                    level[u] = j
            g.tick(len(mi) - last - 1)
        seen.update(level)
        frontier = list(level.items())
    raise VerificationError("maximal isotropic spaces never span F^n")  # unreachable


# ---------------------------------------------------------------------------
# greedy decomposition driven by the maximum degree

def greedy_deg_decomposition(space: AltMatrixSpace) -> list:
    """Greedy isotropic decomposition with at most O(Delta log n) parts.

    Each pass is the greedy growth of greedy_maximal (_grow) inside the
    standard coordinate complement W of what is already covered, instead
    of inside F^n: it adjoins the first basis row w of W outside <S> and
    shrinks W by rad(w), until W = S.
    """
    n = space.n
    forms = form_rows(space)
    covered = Subspace.zero(space.field, n)
    parts = []
    while covered.dim < n:
        s = _grow(forms, covered.coordinate_complement())
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
    forms = form_rows(space)
    for v in projective_rows(field, n, guard=g):
        if forms.rank([v]) <= n - 2:
            line = Subspace.zero(field, n).extend_by_vector(v)
            w = forms.kernel([v]).first_row_outside(line)
            return True, (field.unpack(v, n), field.unpack(w, n))
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

    The scan _split(lat, 2, g), which chi_lawler's searches share, pairs
    the lattice's maximal isotropic spaces V, in lattice order, with its
    isotropic spaces W of dimension n - dim V, and returns the first (V, W)
    with V + W = F^n, or None.  If any 2-decomposition U1 + U2 exists, one
    of this shape exists: extend U1 to a maximal V = U1 + (V meet U2), and
    take for W a complement of V meet U2 inside U2.
    """
    g = as_guard(guard)
    field, n = space.field, space.n
    if n < 2:
        return None
    if space.dim == 0:
        return split_zero_space(field, n)
    lat = enumerate_isotropic_lattice(space, guard=g)
    pair = _split(lat, 2, g)
    return None if pair is None else (lat.space(pair[0]), lat.space(pair[1]))


def _split(lat: IsotropicLattice, k: int, g):
    """The RREF rows of k spaces of the lattice whose sum is direct and is
    F^n, the first of them maximal, or None; exact for every k <= chi(A).

    The first part V runs over the maximal spaces in lattice order.  The
    middle parts are searched depth first, in non-increasing dimension,
    and among spaces of one dimension in increasing lattice index; the
    last part comes from the level of the dimension still missing, at most
    the last middle part's and after it in that level when equal.  The
    partial sum S is held as its annihilator mask, as in chi_brute: a part
    W joins S directly iff the AND of their masks has the lines of an
    (n - dim S - dim W)-space, and the last part completes F^n iff the AND
    is 0.  The scan ticks once per space it tries as a part after V; each
    space's mask is built when first read and its words are required from
    the guard g.  At k = 2 there is no middle part: the scan is the pairs
    (V, W) with dim W = n - dim V, one tick per pair.

    Why a maximal first part is enough: take a k-decomposition U_1 + ... +
    U_k with k <= chi, and extend U_1 to a maximal V.  V + U_2 + ... + U_k
    = F^n, so by Steinitz exchange a basis of V extends to one of F^n by
    vectors from bases of the U_j, and the complement of V they span is a
    direct sum of W_j, each W_j inside U_j and so isotropic.  V and the
    nonzero W_j are an isotropic decomposition of F^n, so they are at
    least chi >= k parts: all k - 1 of the W_j are nonzero, and sorted by
    dimension, then lattice index, they are the parts after V of a split
    that the scan tries.  So the scan finds a k-decomposition for k = chi,
    and for k < chi none exists.  k >= 2.
    """
    field, n, levels = lat.field, lat.n, lat.level_rows
    q, top = field.p, len(levels) - 1
    table = field.lines[n]
    lines = [(q**d - 1) // (q - 1) for d in range(n + 1)]   # of a d-space
    masks: dict = {}     # level -> the masks of its spaces, each built when first read
    kept = 0             # the words of the masks built

    def rest(acc: int, missing: int, left: int, cap: int, start: int):
        # the rows of left parts of dimension <= cap, from index start on in
        # level cap, completing the span whose mask is acc to F^n, or None
        nonlocal kept
        if left == 1:
            dims = [missing] if missing <= cap else []
        else:
            dims = range(min(cap, missing - left + 1), -(-missing // left) - 1, -1)
        for d in dims:
            level = levels[d]
            ms = masks.get(d)
            if ms is None:
                ms = masks[d] = [None] * len(level)
            for i in range(start if d == cap else 0, len(level)):
                g.tick()
                m = ms[i]
                if m is None:
                    kept += table.words
                    g.require(kept, "mask words")
                    m = ms[i] = table.annihilator(level[i])
                s = acc & m
                if left == 1:
                    if not s:
                        return [level[i]]
                elif s.bit_count() == lines[missing - d]:
                    found = rest(s, missing - d, left - 1, d, i + 1)
                    if found is not None:
                        return [level[i]] + found
        return None

    for v in lat.maximal_rows:
        if n - len(v) <= top * (k - 1):
            found = rest(table.annihilator(v), n - len(v), k - 1, top, 0)
            if found is not None:
                return [v] + found
    return None
