"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable row-major tuples of residues; subspaces are kept in
reduced row echelon form with no zero rows, so equal subspaces are equal
values and usable as dictionary keys.  All arithmetic is exact.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from operator import add, mul

from .errors import DEFAULT_GUARD, Guard, as_guard

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


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols or a.field != b.field:
        raise ValueError("vstack mismatch")
    return Matrix(a.field, a.rows + b.rows, a.cols, a.entries + b.entries)


def stacked_products(left: Matrix, mats) -> Matrix:
    """The products left @ m for m in mats (nonempty), stacked vertically.

    With left = U's basis these are the forms u^t M evaluated on U at once.
    """
    prods = [left @ m for m in mats]
    return Matrix._reduced(left.field, left.rows * len(prods), prods[0].cols,
                           tuple(e for pm in prods for e in pm.entries))


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
    """In-place RREF of a list of row lists; returns pivot column list."""
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
    """A subspace of F_p^n held as an RREF basis (rows), hence canonical."""

    __slots__ = ("field", "n", "basis", "pivots", "_rows")

    def __init__(self, field: PrimeField, n: int, basis: Matrix, pivots: tuple):
        # internal: callers go through from_vectors / zero / full
        self.field = field
        self.n = n
        self.basis = basis
        self.pivots = pivots
        self._rows = None

    @classmethod
    def from_vectors(cls, field: PrimeField, n: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != n:
                raise ValueError("vector length != ambient dimension")
        if not rows:
            return cls.zero(field, n)
        rows = [[e % field.p for e in r] for r in rows]
        pivots = _rref_rows(rows, field.p, field._inv)
        k = len(pivots)
        basis = Matrix(field, k, n, [e for r in rows[:k] for e in r])
        return cls(field, n, basis, tuple(pivots))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Subspace":
        """Row space of m."""
        return cls.from_vectors(m.field, m.cols, [m.row(i) for i in range(m.rows)])

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(field, n, Matrix(field, 0, n, ()), ())

    @classmethod
    def full(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(field, n, Matrix.identity(field, n), tuple(range(n)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def key(self) -> tuple:
        """Hashable canonical identity; equal iff the subspaces are equal."""
        return (self.field.p, self.n, self.basis.entries)

    def basis_rows(self):
        if self._rows is None:
            self._rows = [self.basis.row(i) for i in range(self.basis.rows)]
        return self._rows

    def reduce_vector(self, v) -> tuple:
        """Residual of v after eliminating this subspace's pivot columns."""
        p = self.field.p
        v = [e % p for e in v]
        for i, c in enumerate(self.pivots):
            f = v[c]
            if f:
                row = self.basis.row(i)
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
        return Subspace(self.field, outer.n, self.basis @ outer.basis,
                        tuple(outer.pivots[c] for c in self.pivots))

    def contains_vector(self, v) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.basis_rows())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        return Subspace.from_vectors(self.field, self.n,
                                     self.basis_rows() + other.basis_rows())

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
        for r in self.basis_rows():
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
        basis = Matrix._reduced(self.field, len(rows), self.n,
                                tuple(e for r in rows for e in r))
        return Subspace(self.field, self.n, basis, pivots)

    def coordinate_complement(self) -> "Subspace":
        """The standard complement spanned by e_j over the non-pivot columns."""
        nonpiv = [j for j in range(self.n) if j not in set(self.pivots)]
        rows = []
        for j in nonpiv:
            r = [0] * self.n
            r[j] = 1
            rows.append(r)
        return Subspace.from_vectors(self.field, self.n, rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.basis.entries == other.basis.entries)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Subspace(F{self.field.p}^{self.n}, dim {self.dim})"


def span_basis(field: PrimeField, rows: int, cols: int, mats) -> list:
    """An independent basis of the span of rows x cols matrices: the
    canonical RREF of their entry vectors, reshaped, so the pivots are
    deterministic in row-major order."""
    span = Subspace.from_vectors(field, rows * cols, [m.entries for m in mats])
    return [Matrix._reduced(field, rows, cols, r) for r in span.basis_rows()]


def are_independent(mats) -> bool:
    """True iff the matrices, of one field and shape, are linearly independent."""
    if not mats:
        return True
    m0 = mats[0]
    return len(span_basis(m0.field, m0.rows, m0.cols, mats)) == len(mats)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {v : m v = 0} of m, as a subspace of F_p^cols."""
    rows = m.row_list()
    p = m.field.p
    pivots = _rref_rows(rows, p, m.field._inv) if rows else []
    rank = len(pivots)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    basis = []
    for j in free:
        v = [0] * m.cols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rows[i][j]) % p
        basis.append(v)
    return Subspace.from_vectors(m.field, m.cols, basis)


def solve_linear(system: Matrix, rhs) -> tuple:
    """Solve system @ x = rhs; returns (particular solution or None, kernel).

    rhs may be a vector tuple or a 1-column Matrix.  The kernel of the
    system is returned in every case.
    """
    if isinstance(rhs, Matrix):
        if rhs.cols != 1 or rhs.rows != system.rows:
            raise ValueError("rhs shape mismatch")
        b = list(rhs.col(0))
    else:
        b = [int(e) for e in rhs]
        if len(b) != system.rows:
            raise ValueError("rhs shape mismatch")
    p = system.field.p
    aug = [list(system.row(i)) + [b[i] % p] for i in range(system.rows)]
    ker = kernel(system)
    if system.rows == 0:
        return (0,) * system.cols, ker
    pivots = _rref_rows(aug, p, system.field._inv)
    if pivots and pivots[-1] == system.cols:
        return None, ker
    x = [0] * system.cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][system.cols]
    return tuple(x), ker


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


def all_vectors(field: PrimeField, n: int, guard=None, nonzero=False):
    """All vectors of F_p^n in odometer order."""
    g = as_guard(guard)
    g.require(field.p ** n)
    for v in product(range(field.p), repeat=n):
        g.tick()
        if nonzero and not any(v):
            continue
        yield v


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
                basis = Matrix._reduced(field, k, n, tuple(e for r in rows for e in r))
                yield Subspace(field, n, basis, pivots)


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
    lifts = [[w] + u.basis_rows() for w in w0.basis_rows()]
    for coeffs in product(range(q), repeat=d * k):
        g.tick()
        yield Subspace.from_vectors(field, n, [
            combine((1,) + coeffs[i * d:(i + 1) * d], lifts[i], q) for i in range(k)])
