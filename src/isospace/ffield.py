"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable row-major tuples of residues; subspaces are kept in
reduced row echelon form with no zero rows, so equal subspaces are equal
values and usable as dictionary keys.  All arithmetic is exact.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from operator import add, mul

from .errors import as_guard

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251,
}


class PrimeField:
    """The field F_p for a prime 2 <= p <= 251, with a cached inverse table."""

    __slots__ = ("p", "_inv")

    def __init__(self, p: int):
        p = int(p)
        if p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a prime in [2, 251], got {p}")
        self.p = p
        inv = [0] * p
        for a in range(1, p):
            inv[a] = pow(a, p - 2, p)
        self._inv = tuple(inv)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self._inv[a]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Matrix:
    """Immutable matrix over a prime field, entries row-major in [0, p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, rows: int, cols: int, entries):
        self.field = field
        self.rows = rows
        self.cols = cols
        entries = tuple(e % field.p for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.entries = entries

    @classmethod
    def _reduced(cls, field: PrimeField, rows: int, cols: int, entries: tuple) -> "Matrix":
        """Internal fast path: entries already a reduced row-major tuple."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [e for r in rows for e in r]
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(field, n, n, ent)

    def row(self, i: int) -> tuple:
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def col(self, j: int) -> tuple:
        c = self.cols
        return tuple(self.entries[i * c + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def transpose(self) -> "Matrix":
        r, c, ent = self.rows, self.cols, self.entries
        return Matrix._reduced(self.field, c, r,
                               tuple([ent[i * c + j] for j in range(c) for i in range(r)]))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("shape or field mismatch in matrix product")
        p = self.field.p
        a, b = self.entries, other.entries
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            orow = out[i * m:(i + 1) * m]
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m:(t + 1) * m]
                    for j in range(m):
                        orow[j] += av * brow[j]
            out[i * m:(i + 1) * m] = [x % p for x in orow]
        return Matrix._reduced(self.field, n, m, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValueError("shape or field mismatch in matrix sum")
        p = self.field.p
        return Matrix(self.field, self.rows, self.cols,
                      [(x + y) % p for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValueError("shape or field mismatch in matrix difference")
        p = self.field.p
        return Matrix(self.field, self.rows, self.cols,
                      [(x - y) % p for x, y in zip(self.entries, other.entries)])

    def scale(self, a: int) -> "Matrix":
        p = self.field.p
        a %= p
        return Matrix(self.field, self.rows, self.cols,
                      [(a * x) % p for x in self.entries])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rank(self) -> int:
        return rref_canonicalize(self)[1]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix(F{self.field.p}, {self.rows}x{self.cols}: {body})"


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.field != b.field:
        raise ValueError("hstack mismatch")
    rows = [a.row(i) + b.row(i) for i in range(a.rows)]
    return Matrix(a.field, a.rows, a.cols + b.cols, [e for r in rows for e in r])


def vstack(*mats: Matrix) -> Matrix:
    """One or more matrices of one field and width, stacked vertically."""
    a = mats[0]
    if any(m.cols != a.cols or m.field != a.field for m in mats):
        raise ValueError("vstack mismatch")
    return Matrix._reduced(a.field, sum(m.rows for m in mats), a.cols,
                           tuple(e for m in mats for e in m.entries))


def combine(coeffs, rows, p) -> tuple:
    """The linear combination sum_i coeffs[i] * rows[i] mod p, as a tuple.

    Zero coefficients are skipped; when none is nonzero the result is the
    zero row (the empty tuple if rows is empty).
    """
    acc = None
    for c, r in zip(coeffs, rows):
        if c:
            term = r if c == 1 else map(mul, repeat(c), r)
            acc = list(term) if acc is None else list(map(add, acc, term))
    if acc is None:
        return (0,) * len(rows[0]) if rows else ()
    return tuple([a % p for a in acc])


def _rref_rows(rows, p, inv):
    """In-place RREF of a list of rows; returns pivot column list.

    Only the list is changed: a row is replaced by a new list, never
    written to, so rows may be tuples shared with the caller.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        a = rows[r][c]
        if a != 1:
            ia = inv[a]
            rows[r] = [(ia * x) % p for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                rows[i] = [(x - f * y) % p for x, y in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref_canonicalize(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form with zero rows trimmed, plus the rank.

    The row space is preserved, and any two matrices with the same row
    space canonicalize to the identical value.
    """
    rows = m.row_list()
    pivots = _rref_rows(rows, m.field.p, m.field._inv)
    rank = len(pivots)
    flat = tuple(e for r in rows[:rank] for e in r)
    return Matrix._reduced(m.field, rank, m.cols, flat), rank


class Subspace:
    """A subspace of F_p^n held as its RREF rows (a tuple of tuples, no zero
    rows), hence canonical."""

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field: PrimeField, n: int, rows: tuple, pivots: tuple):
        # internal: callers go through from_vectors / zero / full
        self.field = field
        self.n = n
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field: PrimeField, n: int, vectors) -> "Subspace":
        p = field.p
        rows = [[e % p for e in v] for v in vectors]
        if any(len(r) != n for r in rows):
            raise ValueError("vector length != ambient dimension")
        pivots = _rref_rows(rows, p, field._inv)
        return cls(field, n, tuple(map(tuple, rows[:len(pivots)])), tuple(pivots))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Subspace":
        """Row space of m."""
        return cls.from_vectors(m.field, m.cols, [m.row(i) for i in range(m.rows)])

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(field, n, (), ())

    @classmethod
    def full(cls, field: PrimeField, n: int) -> "Subspace":
        return cls.coordinate(field, n, range(n))

    @classmethod
    def coordinate(cls, field: PrimeField, n: int, cols) -> "Subspace":
        """The span of e_j for the ascending columns cols, built in RREF."""
        cols = tuple(cols)
        return cls(field, n, tuple((0,) * c + (1,) + (0,) * (n - c - 1) for c in cols), cols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The RREF rows as a dim x n matrix."""
        return Matrix._reduced(self.field, len(self.rows), self.n,
                               tuple(e for r in self.rows for e in r))

    def key(self) -> tuple:
        """Hashable canonical identity; equal iff the subspaces are equal."""
        return (self.field.p, self.n, self.rows)

    def basis_rows(self) -> list:
        return list(self.rows)

    def reduce_vector(self, v) -> tuple:
        """Residual of v after eliminating this subspace's pivot columns."""
        p = self.field.p
        v = [e % p for e in v]
        for c, row in zip(self.pivots, self.rows):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return tuple(v)

    def image(self, outer: "Subspace") -> "Subspace":
        """self, given in the coordinates of outer's basis, lifted into
        outer's ambient space.

        A product of RREF bases is in RREF, with the pivots of outer taken
        at self's pivots, so nothing is reduced again.
        """
        if self.n != outer.dim or self.field != outer.field:
            raise ValueError("shape or field mismatch in subspace image")
        p = self.field.p
        return Subspace(self.field, outer.n,
                        tuple(combine(r, outer.rows, p) for r in self.rows),
                        tuple(outer.pivots[c] for c in self.pivots))

    def contains_vector(self, v) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        """The join self + other: other's basis rows adjoined one by one."""
        if self.n != other.n or self.field.p != other.field.p:
            raise ValueError("ambient mismatch")
        u = self
        for r in other.rows:
            u = u.extend_by_vector(r)
        return u

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked dual (orthogonal) bases."""
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        da = kernel(self.basis).basis     # rows spanning self-orthogonal space
        db = kernel(other.basis).basis
        stacked = vstack(da, db)
        return kernel(stacked)

    def extend_by_vector(self, v) -> "Subspace":
        """Canonical form of self + <v>; no-op if v already lies in self."""
        res = self.reduce_vector(v)
        lead = next((j for j, e in enumerate(res) if e), None)
        if lead is None:
            return self
        p = self.field.p
        if res[lead] != 1:
            ia = self.field._inv[res[lead]]
            res = tuple((ia * x) % p for x in res)
        rows = []
        for r in self.rows:
            f = r[lead]
            if f:
                rows.append(tuple((x - f * y) % p for x, y in zip(r, res)))
            else:
                rows.append(r)
        at = 0
        while at < len(rows) and self.pivots[at] < lead:
            at += 1
        rows.insert(at, res)
        pivots = self.pivots[:at] + (lead,) + self.pivots[at:]
        return Subspace(self.field, self.n, tuple(rows), pivots)

    def coordinate_complement(self) -> "Subspace":
        """The standard complement spanned by e_j over the non-pivot columns."""
        pivset = set(self.pivots)
        return Subspace.coordinate(self.field, self.n,
                                   [j for j in range(self.n) if j not in pivset])

    def first_row_outside(self, inner: "Subspace"):
        """The first basis row of self that inner does not contain, or None."""
        return next((r for r in self.rows if not inner.contains_vector(r)), None)

    def quotient_lines(self, sub: "Subspace", guard=None):
        """One vector of self per line of self/sub (sub <= self), guarded.

        The vectors are the projective combinations, in projective_vectors
        order, of a complement of sub in self: the basis rows of self that
        are new modulo sub, reduced against sub and what came before.
        """
        rows = []
        acc = sub
        for r in self.rows:
            red = acc.reduce_vector(r)
            if any(red):
                rows.append(red)
                acc = acc.extend_by_vector(red)
        p = self.field.p
        for coeffs in projective_vectors(self.field, len(rows), guard=guard):
            yield combine(coeffs, rows, p)

    def vector_mask(self) -> int:
        """Bitmask over the indices of all vectors of self, the index of v
        being sum v_i p^i."""
        q = self.field.p
        rows = self.rows
        weights = [q**i for i in range(self.n)]
        mask = 0
        for coeffs in product(range(q), repeat=len(rows)):
            # the zero space combines to (), whose index is 0 as well
            v = combine(coeffs, rows, q)
            mask |= 1 << sum(w * e for w, e in zip(weights, v))
        return mask

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Subspace(F{self.field.p}^{self.n}, dim {self.dim})"


class FormRows:
    """The map w -> the rows w^t M_1, ..., w^t M_k for fixed n x m matrices
    M_i, and what the rows of several vectors span.

    The k rows of w are one combination sum_j w_j S_j of the slices S_j,
    row j of every M_i side by side, so each vector costs one combine.  The
    nonzero rows of each distinct w are kept as long as the map lives.
    """

    __slots__ = ("field", "k", "m", "_slices", "_rows")

    def __init__(self, field: PrimeField, n: int, m: int, mats):
        mats = list(mats)
        if any(a.field != field or a.rows != n or a.cols != m for a in mats):
            raise ValueError("matrix has wrong field or shape")
        self.field = field
        self.k = len(mats)
        self.m = m
        self._slices = [tuple(e for a in mats for e in a.row(j)) for j in range(n)]
        self._rows = {}

    def rows(self, w) -> list:
        """The nonzero rows among w^t M_1, ..., w^t M_k (w a tuple)."""
        out = self._rows.get(w)
        if out is None:
            flat, m = combine(w, self._slices, self.field.p), self.m
            rows = [flat[i * m:(i + 1) * m] for i in range(self.k)]
            out = self._rows[w] = [r for r in rows if any(r)]
        return out

    def _stacked(self, vectors) -> list:
        rows = []
        for w in vectors:
            rows += self.rows(w)
        return rows

    def rank(self, vectors) -> int:
        """The rank of the rows of all the vectors, stacked."""
        return len(_rref_rows(self._stacked(vectors), self.field.p, self.field._inv))

    def kernel(self, vectors) -> "Subspace":
        """{u in F^m : r u = 0 for every row r of the vectors}, in RREF."""
        rows = self._stacked(vectors)
        pivots = _rref_rows(rows, self.field.p, self.field._inv)
        return _kernel_of_rref(self.field, self.m, rows, pivots)


def span_basis(field: PrimeField, rows: int, cols: int, mats) -> list:
    """An independent basis of the span of rows x cols matrices: the
    canonical RREF of their entry vectors, reshaped, so the pivots are
    deterministic in row-major order."""
    span = Subspace.from_vectors(field, rows * cols, [m.entries for m in mats])
    return [Matrix._reduced(field, rows, cols, r) for r in span.rows]


def are_independent(mats) -> bool:
    """True iff the matrices, of one field and shape, are linearly independent."""
    if not mats:
        return True
    m0 = mats[0]
    return len(span_basis(m0.field, m0.rows, m0.cols, mats)) == len(mats)


def _kernel_of_rref(field: PrimeField, ncols: int, rows, pivots) -> Subspace:
    """Right kernel of a matrix whose RREF rows carry the given pivots in
    their first ncols columns: one vector per free column, reduced to RREF."""
    p = field.p
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rows[i][j]) % p
        basis.append(v)
    # the vectors are independent (v_j is 1 at free column j, 0 at the others)
    kpivots = _rref_rows(basis, p, field._inv)
    return Subspace(field, ncols, tuple(map(tuple, basis)), tuple(kpivots))


def kernel(m: Matrix) -> Subspace:
    """Right kernel {v : m v = 0} of m, as a subspace of F_p^cols."""
    rows = m.row_list()
    pivots = _rref_rows(rows, m.field.p, m.field._inv) if rows else []
    return _kernel_of_rref(m.field, m.cols, rows, pivots)


def solve_linear(system: Matrix, rhs) -> tuple:
    """Solve system @ x = rhs for a vector rhs; returns (particular solution
    or None, kernel).  The kernel, returned in every case, is read off the
    first cols columns of the augmented RREF.
    """
    b = [int(e) for e in rhs]
    if len(b) != system.rows:
        raise ValueError("rhs shape mismatch")
    field, n = system.field, system.cols
    aug = [list(system.row(i)) + [b[i] % field.p] for i in range(system.rows)]
    pivots = _rref_rows(aug, field.p, field._inv)
    if pivots and pivots[-1] == n:
        return None, _kernel_of_rref(field, n, aug, pivots[:-1])
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x), _kernel_of_rref(field, n, aug, pivots)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = hstack(m, Matrix.identity(m.field, n))
    rows = aug.row_list()
    pivots = _rref_rows(rows, m.field.p, m.field._inv)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows(m.field, [r[n:] for r in rows])


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of dimension-d subspaces of F_q^n (exact integer)."""
    if d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    num = 1
    den = 1
    for i in range(d):
        num *= q**n - q**i
        den *= q**d - q**i
    assert num % den == 0
    return num // den


def projective_vectors(field: PrimeField, n: int, guard=None):
    """One representative per line of F_p^n: first nonzero coordinate is 1."""
    g = as_guard(guard)
    p = field.p
    if n == 0:
        return
    g.require((p**n - 1) // (p - 1))
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            g.tick()
            yield (0,) * lead + (1,) + tail


def enumerate_subspaces(field: PrimeField, n: int, d: int | None = None, guard=None):
    """All subspaces of F_p^n of dimension d (all dims, ascending, if d is None).

    Deterministic order: pivot-column sets ascending lexicographically, then
    the free entries of the RREF representative in odometer order.  Each
    subspace is yielded exactly once.
    """
    g = as_guard(guard)
    if d is not None:
        if d < 0 or d > n:
            raise ValueError(f"need 0 <= d <= n, got d={d}")
        dims = [d]
    else:
        dims = list(range(n + 1))
    q = field.p
    total = sum(gaussian_binomial(n, k, q) for k in dims)
    g.require(total)
    for k in dims:
        if k == 0:
            g.tick()
            yield Subspace.zero(field, n)
            continue
        for pivots in combinations(range(n), k):
            pivset = set(pivots)
            free_pos = []
            for i, c in enumerate(pivots):
                for j in range(c + 1, n):
                    if j not in pivset:
                        free_pos.append((i, j))
            base = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                base[i][c] = 1
            for vals in product(range(q), repeat=len(free_pos)):
                g.tick()
                rows = [r[:] for r in base]
                for (i, j), v in zip(free_pos, vals):
                    rows[i][j] = v
                yield Subspace(field, n, tuple(map(tuple, rows)), pivots)


def enumerate_complements(u: Subspace, guard=None):
    """All complements of u in F_p^n, exactly once each (q^{d(n-d)} total).

    Complements are the graphs of linear maps from the coordinate complement
    of u into u; the map coefficients run in odometer order.
    """
    g = as_guard(guard)
    field, n, d = u.field, u.n, u.dim
    q = field.p
    w0 = u.coordinate_complement()
    k = w0.dim
    if d == 0:
        g.tick()
        yield Subspace.full(field, n)
        return
    if k == 0:
        g.tick()
        yield Subspace.zero(field, n)
        return
    g.require(q ** (d * k))
    # row i of a complement is w_i + (coefficients i) . u
    lifts = [(w,) + u.rows for w in w0.rows]
    for coeffs in product(range(q), repeat=d * k):
        g.tick()
        yield Subspace.from_vectors(field, n, [
            combine((1,) + coeffs[i * d:(i + 1) * d], lifts[i], q) for i in range(k)])
