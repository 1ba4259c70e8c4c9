"""Exact dense linear algebra over prime fields F_p.

Matrices and subspaces are tuples of rows, each row packed into one Python
int.  A Matrix is immutable; a Subspace is kept in reduced row echelon
form with no zero rows, so equal subspaces are equal values and usable as
dictionary keys.  All arithmetic is exact.

A packed row of length n holds column j in lane j, the bits [jW, (j+1)W),
and every lane of a stored row holds its residue in [0, p) with no other
bit set, so equal rows are equal ints.  Over F_2, W = 1: a row is its bit
vector, and add and subtract are XOR.  For odd p, W = bit_length(2(p-1)) + 1
and w = W - 1, so a lane holds the sum of two residues with room to spare.
With L the row holding 1 in every lane, x + y, or x + pL - y for a
difference, has lanes in [0, 2p) and is reduced by subtracting p from every
lane >= p:  s - (((s + (2^w - p) L) >> w) & L) p.  Scaling by p - 1 is
negation, pL - y reduced; other scalars occur only for p >= 5 and go lane
by lane.  Every matrix operation is a row combination (_combine) or a row
reduction (_rref_rows).  Vectors enter and leave as tuples (Matrix entries,
from_vectors, basis_rows, PrimeField.pack and unpack); the row loops pass
packed rows.

Every kernel is read off an RREF whose pivots are the last nonzero columns
of its rows (_rref_rows with last=True): each kernel vector then has
entries after its free column only, so the kernel is written in RREF from
the one reduction (_kernel_of_last).

Scans over the lines of F_p^n meet sets of lines as bitmasks over the
LineTable of (p, n), PrimeField.lines[n].  LineTable.annihilator is the
one builder of masks: it gives a span W as the lines of W^perp, so that a
join W + V is one AND and W = F^n iff its mask is 0.  FormRows.line_mask
gives, per line of F^n, the annihilator of that line's rows under a map,
the lines of its kernel; a map builds the masks of all its lines together
on the first read, one walk of the lines and one annihilator per distinct
row.  Besides its lines, a table holds the n p masks of its coordinates,
and its residue tables only where those are small; without them a mask
is built from its rows alone, and the table indexes its lines to read the
lines of a kernel.  line_masks_pay is the one rule for where a scan runs
on masks: only where F_p^n has residue tables, and one mask per line fits
their budget.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial, reduce
from itertools import combinations, product
from operator import and_, or_

from .errors import as_guard

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251,
}


class _PerLength(dict):
    """n -> build(n), filled on first use: PrimeField's per-length memos."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, n):
        out = self[n] = self.build(n)
        return out


class PrimeField:
    """The field F_p for a prime 2 <= p <= 251, with a cached inverse table
    and the lane layout of its packed rows: lane width `width`, lane mask
    `lane` and the per-length constants `ones`; `lines[n]` is the
    LineTable of F_p^n, also built on first use."""

    __slots__ = ("p", "_inv", "width", "lane", "ones", "lines")

    def __init__(self, p: int):
        p = int(p)
        if p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a prime in [2, 251], got {p}")
        self.p = p
        inv = [0] * p
        for a in range(1, p):
            inv[a] = pow(a, p - 2, p)
        self._inv = tuple(inv)
        self.width = 1 if p == 2 else (2 * (p - 1)).bit_length() + 1
        self.lane = (1 << self.width) - 1
        self.ones = _PerLength(self._lane_constants)
        self.lines = _PerLength(partial(LineTable, self))

    def _lane_constants(self, n: int) -> tuple:
        """(L, pL, (2^w - p) L) for packed rows of n lanes."""
        ones = ((1 << n * self.width) - 1) // self.lane
        return ones, self.p * ones, ((1 << self.width - 1) - self.p) * ones

    def pack(self, v) -> int:
        """The packed row of the vector v (a sequence), its entries taken mod p."""
        p, width = self.p, self.width
        x = 0
        for e in reversed(v):
            x = x << width | e % p
        return x

    def unpack(self, x: int, n: int) -> tuple:
        """The vector of length n held in the packed row x."""
        lane = self.lane
        return tuple([x >> s & lane for s in range(0, n * self.width, self.width)])

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Matrix:
    """Immutable rows x cols matrix over a prime field, held as a tuple of
    packed rows of cols lanes (`packed`), each lane in [0, p).

    The arithmetic runs on whole rows: a product row is a combination of
    the other factor's rows (_combine), and rank, kernel, solve and inverse
    reduce the rows with _rref_rows.  `entries`, `row`, `col` and [i, j]
    read residues out; the constructors take them in.
    """

    __slots__ = ("field", "rows", "cols", "packed")

    def __init__(self, field: PrimeField, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.packed = tuple([field.pack(entries[i * cols:(i + 1) * cols]) for i in range(rows)])

    @classmethod
    def _reduced(cls, field: PrimeField, rows: int, cols: int, packed: tuple) -> "Matrix":
        """Internal fast path: packed is already a tuple of `rows` packed
        rows of `cols` lanes, every lane in [0, p)."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.packed = packed
        return m

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls._reduced(field, len(rows), ncols, tuple([field.pack(r) for r in rows]))

    @classmethod
    def from_flat(cls, field: PrimeField, rows: int, cols: int, x: int) -> "Matrix":
        """The matrix whose entries, row-major, are the packed row x."""
        span = cols * field.width
        mask = (1 << span) - 1
        return cls._reduced(field, rows, cols, tuple([x >> i * span & mask for i in range(rows)]))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls._reduced(field, rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls._reduced(field, n, n, tuple([1 << i * field.width for i in range(n)]))

    def flat(self) -> int:
        """The entries, row-major, as one packed row of rows * cols lanes."""
        span = self.cols * self.field.width
        return sum(r << i * span for i, r in enumerate(self.packed))

    @property
    def entries(self) -> tuple:
        """The entries, row-major, as a tuple of residues."""
        return self.field.unpack(self.flat(), self.rows * self.cols)

    def row(self, i: int) -> tuple:
        return self.field.unpack(self.packed[i], self.cols)

    def col(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        s, lane = j * self.field.width, self.field.lane
        return tuple([r >> s & lane for r in self.packed])

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self.packed[i] >> j * self.field.width & self.field.lane

    def transpose(self) -> "Matrix":
        field, packed = self.field, self.packed
        width, lane = field.width, field.lane
        return Matrix._reduced(field, self.cols, self.rows, tuple([
            sum([(r >> s & lane) << i * width for i, r in enumerate(packed)])
            for s in range(0, self.cols * width, width)]))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("shape or field mismatch in matrix product")
        field, rows, m = self.field, other.packed, other.cols
        return Matrix._reduced(field, self.rows, m,
                               tuple([_combine(a, rows, field, m) for a in self.packed]))

    def _rowwise(self, coeffs: int, other: "Matrix", what: str) -> "Matrix":
        """c_0 self + c_1 other, row by row, for the packed coefficient row c."""
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValueError(f"shape or field mismatch in matrix {what}")
        field, n = self.field, self.cols
        return Matrix._reduced(field, self.rows, n, tuple([
            _combine(coeffs, pair, field, n) for pair in zip(self.packed, other.packed)]))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._rowwise(1 | 1 << self.field.width, other, "sum")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._rowwise(1 | (self.field.p - 1) << self.field.width, other, "difference")

    def scale(self, a: int) -> "Matrix":
        field, n = self.field, self.cols
        a %= field.p
        return Matrix._reduced(field, self.rows, n,
                               tuple([_combine(a, (r,), field, n) for r in self.packed]))

    def is_zero(self) -> bool:
        return not any(self.packed)

    def rank(self) -> int:
        return len(_rref_rows(self.packed, self.field, self.cols)[1])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self.packed))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix(F{self.field.p}, {self.rows}x{self.cols}: {body})"


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.field != b.field:
        raise ValueError("hstack mismatch")
    s = a.cols * a.field.width
    return Matrix._reduced(a.field, a.rows, a.cols + b.cols,
                           tuple([x | y << s for x, y in zip(a.packed, b.packed)]))


def vstack(*mats: Matrix) -> Matrix:
    """One or more matrices of one field and width, stacked vertically."""
    a = mats[0]
    if any(m.cols != a.cols or m.field != a.field for m in mats):
        raise ValueError("vstack mismatch")
    return Matrix._reduced(a.field, sum(m.rows for m in mats), a.cols,
                           tuple([r for m in mats for r in m.packed]))


def combination(field: PrimeField, rows: int, cols: int, coeffs: int, mats) -> Matrix:
    """sum_i c_i mats[i] for the packed coefficient row c (one lane per
    matrix) and rows x cols matrices, row by row."""
    return Matrix._reduced(field, rows, cols, tuple([
        _combine(coeffs, [m.packed[i] for m in mats], field, cols) for i in range(rows)]))


def _scaled(field: PrimeField, x: int, c: int, n: int) -> int:
    """c x for a packed row x of n lanes and a scalar c not in {1, p - 1},
    lane by lane (only p >= 5 has such scalars)."""
    p, lane, width = field.p, field.lane, field.width
    return sum((c * (x >> s & lane) % p) << s for s in range(0, n * width, width))


def _combine(coeffs: int, rows, field: PrimeField, n: int) -> int:
    """sum_i c_i rows[i] for the packed coefficient row c (one lane per
    row) and packed rows of n lanes."""
    p, width, lane = field.p, field.width, field.lane
    ones, pones, cones = field.ones[n]
    w = width - 1
    acc = 0
    for r in rows:
        if not coeffs:
            break
        a = coeffs & lane
        coeffs >>= width
        if a:
            if p == 2:
                acc ^= r
            else:
                acc += r if a == 1 else pones - r if a == p - 1 else _scaled(field, r, a, n)
                acc -= ((acc + cones) >> w & ones) * p
    return acc


def _combinations(field: PrimeField, n: int, rows, base: int = 0) -> list:
    """base + sum_i a_i rows[i] for every coefficient vector a, in
    itertools.product order (a_0 slowest), as packed rows of n lanes."""
    p = field.p
    ones, _, cones = field.ones[n]
    w = field.width - 1
    out = [base]
    for r in reversed(rows):
        if p == 2:
            out += [r ^ t for t in out]
            continue
        multiples = [r]
        for _ in range(p - 2):
            s = multiples[-1] + r
            multiples.append(s - ((s + cones) >> w & ones) * p)
        out += [s - ((s + cones) >> w & ones) * p
                for m in multiples for t in out for s in [m + t]]
    return out


def _rref_rows(rows, field: PrimeField, n: int, _out=(), _pivots=(), last=False) -> tuple:
    """RREF of packed rows of n lanes: (its nonzero rows in pivot order,
    their pivot columns).

    Each row is reduced by the rows kept so far, scaled to a leading 1 and
    eliminated from them, so the kept rows are always in RREF.  A row's
    pivot is its first nonzero column, or with last its last one (the RREF
    of the columns in reverse order, for kernels).  The kept rows start as
    _out, with pivots _pivots: an RREF that the rows extend
    (Subspace.extend_by_vector and Subspace.sum).
    """
    p, width, lane, inv = field.p, field.width, field.lane, field._inv
    ones, pones, cones = field.ones[n]
    w = width - 1
    out, pivots = list(_out), list(_pivots)
    for v in rows:
        for c, r in zip(pivots, out):
            f = v >> c * width & lane
            if f:
                if p == 2:
                    v ^= r
                else:
                    v += (pones - r if f == 1 else r if f == p - 1
                          else _scaled(field, r, p - f, n))
                    v -= ((v + cones) >> w & ones) * p
        if not v:
            continue
        lead = ((v if last else v & -v).bit_length() - 1) // width
        s = lead * width
        a = v >> s & lane
        if a != 1:
            if a == p - 1:
                v = pones - v
                v -= ((v + cones) >> w & ones) * p
            else:
                v = _scaled(field, v, inv[a], n)
        for i, r in enumerate(out):
            f = r >> s & lane
            if f:
                if p == 2:
                    r ^= v
                else:
                    r += (pones - v if f == 1 else v if f == p - 1
                          else _scaled(field, v, p - f, n))
                    r -= ((r + cones) >> w & ones) * p
                out[i] = r
        at = bisect_left(pivots, lead)
        out.insert(at, v)
        pivots.insert(at, lead)
        if len(pivots) == n:
            break       # full rank: every later row reduces to zero
    return out, pivots


def rref_canonicalize(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form with zero rows trimmed, plus the rank.

    The row space is preserved, and any two matrices with the same row
    space canonicalize to the identical value.
    """
    rows, _ = _rref_rows(m.packed, m.field, m.cols)
    return Matrix._reduced(m.field, len(rows), m.cols, tuple(rows)), len(rows)


class Subspace:
    """A subspace of F_p^n held as its RREF rows (a tuple of packed rows,
    no zero rows) and their pivot columns, hence canonical.

    The vector arguments and results of the methods are packed rows;
    from_vectors and basis_rows take and give tuples.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field: PrimeField, n: int, rows: tuple, pivots: tuple):
        # internal: callers go through from_vectors / zero / full
        self.field = field
        self.n = n
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field: PrimeField, n: int, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != n for v in vectors):
            raise ValueError("vector length != ambient dimension")
        rows, pivots = _rref_rows([field.pack(v) for v in vectors], field, n)
        return cls(field, n, tuple(rows), tuple(pivots))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Subspace":
        """Row space of m."""
        rows, pivots = _rref_rows(m.packed, m.field, m.cols)
        return cls(m.field, m.cols, tuple(rows), tuple(pivots))

    @classmethod
    def from_rref(cls, field: PrimeField, n: int, rows: tuple) -> "Subspace":
        """The span of packed rows already in RREF, as a Subspace holds
        them; each pivot is read off its row, the lead of its lowest set
        bit."""
        width = field.width
        return cls(field, n, rows, tuple([((r & -r).bit_length() - 1) // width for r in rows]))

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
        return cls(field, n, tuple(1 << c * field.width for c in cols), cols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The RREF rows as a dim x n matrix."""
        return Matrix._reduced(self.field, len(self.rows), self.n, self.rows)

    def key(self) -> tuple:
        """Hashable canonical identity; equal iff the subspaces are equal."""
        return (self.field.p, self.n, self.rows)

    def basis_rows(self) -> list:
        """The RREF rows as tuples."""
        field, n = self.field, self.n
        return [field.unpack(r, n) for r in self.rows]

    def reduce_vector(self, v: int) -> int:
        """Residual of the packed row v after eliminating this subspace's
        pivot columns."""
        field = self.field
        p, width, lane = field.p, field.width, field.lane
        ones, pones, cones = field.ones[self.n]
        w = width - 1
        for c, r in zip(self.pivots, self.rows):
            f = v >> c * width & lane
            if f:
                if p == 2:
                    v ^= r
                else:
                    v += (pones - r if f == 1 else r if f == p - 1
                          else _scaled(field, r, p - f, self.n))
                    v -= ((v + cones) >> w & ones) * p
        return v

    def image(self, outer: "Subspace") -> "Subspace":
        """self, given in the coordinates of outer's basis, lifted into
        outer's ambient space.

        A product of RREF bases is in RREF, with the pivots of outer taken
        at self's pivots, so nothing is reduced again.
        """
        if self.n != outer.dim or self.field != outer.field:
            raise ValueError("shape or field mismatch in subspace image")
        field, n, rows = self.field, outer.n, outer.rows
        return Subspace(field, n, tuple(_combine(r, rows, field, n) for r in self.rows),
                        tuple(outer.pivots[c] for c in self.pivots))

    def contains_vector(self, v: int) -> bool:
        return not self.reduce_vector(v)

    def contains(self, other: "Subspace") -> bool:
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        """The join self + other: other's basis rows adjoined to self's RREF."""
        if self.n != other.n or self.field.p != other.field.p:
            raise ValueError("ambient mismatch")
        field, n = self.field, self.n
        rows, pivots = _rref_rows(other.rows, field, n, self.rows, self.pivots)
        return Subspace(field, n, tuple(rows), tuple(pivots))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet, by Zassenhaus: one reduction over 2n lanes of the rows
        (w, 0) of other onto the rows (u, u) of self, already in RREF.  The
        rows pivoted at lane n or later carry the RREF of the meet in their
        upper n lanes."""
        if self.n != other.n or self.field != other.field:
            raise ValueError("ambient mismatch")
        field, n = self.field, self.n
        shift = n * field.width
        rows, pivots = _rref_rows(other.rows, field, 2 * n,
                                  [u | u << shift for u in self.rows], self.pivots)
        at = bisect_left(pivots, n)
        return Subspace(field, n, tuple([r >> shift for r in rows[at:]]),
                        tuple([c - n for c in pivots[at:]]))

    def extend_by_vector(self, v: int) -> "Subspace":
        """Canonical form of self + <v>: v reduced on from self's RREF."""
        field, n = self.field, self.n
        rows, pivots = _rref_rows((v,), field, n, self.rows, self.pivots)
        return Subspace(field, n, tuple(rows), tuple(pivots))

    def coordinate_complement(self) -> "Subspace":
        """The standard complement spanned by e_j over the non-pivot columns."""
        pivset = set(self.pivots)
        return Subspace.coordinate(self.field, self.n,
                                   [j for j in range(self.n) if j not in pivset])

    def first_row_outside(self, inner: "Subspace"):
        """The first basis row of self that inner does not contain, or None."""
        return next((r for r in self.rows if not inner.contains_vector(r)), None)

    def line_count(self, leads) -> int:
        """The number of lines of self led at the ascending rows leads."""
        p = self.field.p
        count, at = 0, -1       # sum of p^(dim-1-lead) over the leads, by Horner's rule
        for lead in leads:
            count, at = count * p**(lead - at) + 1, lead
        return count * p**(len(self.rows) - 1 - at)

    def led_lines(self, lead: int) -> list:
        """The packed rows of the lines of self whose first nonzero
        coefficient is a 1 at the row lead: that row plus every combination
        of the later rows, in itertools.product order.  Self's rows are in
        RREF, so each such row's first nonzero coordinate is a 1, at the
        lead row's pivot."""
        rows = self.rows
        return _combinations(self.field, self.n, rows[lead + 1:], rows[lead])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Subspace(F{self.field.p}^{self.n}, dim {self.dim})"


# the residue tables of a LineTable hold (p^ceil(n/2) + p^floor(n/2)) p
# masks of its lines and cost about p ANDs each; they are built when that
# is at most RESIDUE_BITS bits (8 MB) and RESIDUE_ANDS ANDs: F_p^n up to
# F_2^16, F_3^10, F_5^6, F_7^5, F_11^4, F_17^4 and F_23^3
RESIDUE_BITS = 2**26
RESIDUE_ANDS = 2**19
# one line read off a kernel costs about as much as LINE_WORDS 64-bit words
# of an AND: 310-1,750 ns a line against 0.6-3 ns a word, F_2^18 to F_251^3
LINE_WORDS = 500


def _tables_fit(p: int, n: int) -> bool:
    """Whether the LineTable of F_p^n builds its residue tables: their
    masks fit RESIDUE_BITS bits and their building RESIDUE_ANDS ANDs."""
    lines = (p**n - 1) // (p - 1)
    half = n // 2
    entries = (p**half + p**(n - half)) * p
    return entries * lines <= RESIDUE_BITS and entries * p <= RESIDUE_ANDS


def line_masks_pay(p: int, n: int) -> bool:
    """Whether a scan that keeps one mask per line of F_p^n runs on masks,
    computed without building a table: only where F_p^n has residue
    tables, so that a row's mask is one meet of two, and the lines^2 bits
    of the masks fit the tables' own budget of RESIDUE_BITS.  Without the
    tables a mask costs an adder or a kernel read per row, and the lattice
    and the ncrk scan run faster on row reductions (a single-form lattice
    on F_89^3: 0.11 s against 0.53 s on masks, 2 cores, BENCH_31.json)."""
    lines = (p**n - 1) // (p - 1)
    return lines * lines <= RESIDUE_BITS and _tables_fit(p, n)


class LineTable:
    """The lines of F_p^n as the bits of an int, for scans that meet sets
    of lines with one AND.

    `lines` holds one packed row per line, its first nonzero coordinate 1,
    in projective_rows order; line i is bit i of a mask, and a mask takes
    `words` 64-bit words.  A line's lead column is read off its row, as
    any RREF row's is.  The lines led at column c are a run, so
    `blocks[c]`, their mask, is one range of bits, and `full` is the mask
    of every line.  `coords[j][a]` is the mask of the lines whose row
    holds a at coordinate j: inside the run of a column c < j, runs of
    p^(n-1-j) bits repeated with period p^(n-j), built by doubling.
    `index` maps each row to its position; it is built only for a table
    without residue tables, the one kind whose masks read the lines of a
    kernel (_kernel_lines), and is None on the others.  `row_blocks()`
    gives, per line, the blocks of the columns its row uses and of the
    columns after its lead, built on first use.

    `annihilator(rows)` is the one builder of masks: the lines u with
    r.u = 0 for every row r, W^perp for W the rows' span.  The residue of
    r.u is bit-sliced as p masks, the lines where it is s, and a term
    r_j u_j is added by a residue adder of ANDs and ORs over coords[j].
    When they are small enough (_tables_fit), the residues of every row
    on the first n // 2 coordinates and of every row on the others are
    built with the table, so the lines of one row are one meet of two,
    and the mask is the AND of those meets.  Without them the adder runs
    over each row's nonzero coordinates, about p^2 ANDs per coordinate,
    unless reading the lines of the rows' kernel off at once costs less
    (LINE_WORDS), as it does for large p.  A mask determines its span, so
    spans compare and hash as ints, and (W + V)^perp is the AND of their
    masks.
    """

    __slots__ = ("field", "n", "lines", "index", "blocks", "full", "coords",
                 "words", "_split", "_low", "_high", "_row_blocks")

    def __init__(self, field: PrimeField, n: int):
        p = field.p
        self.field, self.n = field, n
        full = Subspace.full(field, n)
        lines, blocks = [], []
        for c in range(n):
            run = full.led_lines(c)
            blocks.append((1 << len(run)) - 1 << len(lines))
            lines += run
        self.lines, self.blocks = tuple(lines), tuple(blocks)
        self.full = (1 << len(lines)) - 1
        coords = [[0] * p for _ in range(n)]
        at = 0
        for c in range(n):
            for j in range(c + 1, n):
                run = p**(n - 1 - j)
                for a in range(p):
                    coords[j][a] |= _repeat((1 << run) - 1 << a * run, run * p,
                                            p**(j - c - 1)) << at
            coords[c][1] |= blocks[c]
            for j in range(c):
                coords[j][0] |= blocks[c]
            at += p**(n - 1 - c)
        self.coords = tuple(tuple(col) for col in coords)
        self.words = len(lines) + 63 >> 6
        self._row_blocks = None
        half = n // 2
        self._low = self._high = self.index = None
        if _tables_fit(p, n):
            self._split = (1 << half * field.width) - 1
            self._low = self._residues(range(half), 1)
            self._high = self._residues(range(half, n), -1)
        else:
            self.index = {v: i for i, v in enumerate(lines)}

    def _residues(self, cols, sign: int) -> dict:
        """Every packed row r supported on cols -> [the mask of the lines u
        with r.u = sign s, for s in [0, p)]."""
        p, width, inv = self.field.p, self.field.width, self.field._inv
        out = {0: [self.full] + [0] * (p - 1)}
        for j in cols:
            col, before = self.coords[j], list(out.items())
            for c in range(1, p):
                # t[s]: the lines with c u_j = sign s
                t = [col[sign * s * inv[c] % p] for s in range(p)]
                for r, z in before:
                    out[r | c << j * width] = t if not r else [
                        reduce(or_, [z[a] & t[s - a] for a in range(p)]) for s in range(p)]
        return out

    def row_blocks(self) -> tuple:
        """(used, tail), two dicts keyed by the lines' rows: used[v] is the
        OR of blocks[c] over the columns c where v is nonzero, and tail[v]
        the OR of blocks[c] over the columns after v's lead.  They depend on
        (p, n) alone, so they are built on the first call and kept with the
        table: lines^2 bits for used, and one tail per column, shared by
        the lines led there."""
        if self._row_blocks is None:
            width, lane, blocks = self.field.width, self.field.lane, self.blocks
            used, tail = {}, {}
            for c, block in enumerate(blocks):
                # the lines led at c are the run of block c, and every later
                # column's block lies above it
                after = self.full >> block.bit_length() << block.bit_length()
                start = (block & -block).bit_length() - 1
                for v in self.lines[start:block.bit_length()]:
                    tail[v] = after
                    used[v] = reduce(or_, [blocks[j] for j in range(c, self.n)
                                           if v >> j * width & lane])
            self._row_blocks = used, tail
        return self._row_blocks

    def annihilator(self, rows) -> int:
        """The mask of the lines u with r.u = 0 for every packed row r of
        rows: W^perp for W their span, with (q^(n - dim W) - 1)/(q - 1)
        lines, and 0 iff W = F^n."""
        if self._low is None and rows:
            return self._unsliced(rows)
        out = self.full
        for r in rows:
            out &= self._sliced(r)
        return out

    def _sliced(self, r: int) -> int:
        """The mask of the lines u with r.u = 0 from the residue tables:
        the lines where r's low part gives s and its high part -s."""
        low, high = self._low[r & self._split], self._high[r & ~self._split]
        p = self.field.p
        # unrolled for p = 2 and 3: with the general line alone graph-bridge
        # read 5.5 % and 8.0 % fewer inst_per_s (seeds 1 and 7, BENCH_27.json)
        if p == 2:
            return low[0] & high[0] | low[1] & high[1]
        if p == 3:
            return low[0] & high[0] | low[1] & high[1] | low[2] & high[2]
        return reduce(or_, map(and_, low, high))

    def _unsliced(self, rows) -> int:
        """annihilator(rows) for nonempty rows with no residue tables: the
        meet of the rows' masks by the residue adder, or the lines of the
        rows' kernel read off one by one when that costs less, with d rows
        taken to span a d-space (their kernel has at least its lines)."""
        if sum(map(self._adder_cost, rows)) >= self._lines_of(len(rows)):
            return self._kernel_lines(rows)
        out = self.full
        for r in rows:
            out &= self._adder(r)
        return out

    def _lines_of(self, d: int) -> int:
        """The lines of a subspace of codimension d < n."""
        p = self.field.p
        return (p**max(self.n - d, 1) - 1) // (p - 1)

    def _adder_cost(self, r: int) -> int:
        """The cost of _adder(r) in lines read off a kernel: about p^2 ANDs
        per nonzero coordinate of r after the first."""
        p, width, lane = self.field.p, self.field.width, self.field.lane
        terms = sum(1 for j in range(self.n) if r >> j * width & lane)
        # an AND costs about 16 words more than its own, for the call
        return (max(terms - 1, 0) * p * p + 1) * (self.words + 16) // LINE_WORDS

    def _adder(self, r: int) -> int:
        """The mask of the lines u with r.u = 0 by the residue adder over
        the nonzero coordinates of r: z[s] holds the lines where the terms
        so far sum to s, and the last term must give -s."""
        p, width, lane, inv = self.field.p, self.field.width, self.field.lane, self.field._inv
        terms = [(self.coords[j], r >> j * width & lane) for j in range(self.n)
                 if r >> j * width & lane]
        if not terms:
            return self.full
        col, c = terms[0]
        z = [col[s * inv[c] % p] for s in range(p)]
        for col, c in terms[1:-1]:
            t = [col[s * inv[c] % p] for s in range(p)]
            z = [reduce(or_, [z[a] & t[s - a] for a in range(p)]) for s in range(p)]
        if len(terms) == 1:
            return z[0]
        col, c = terms[-1]
        return reduce(or_, [z[s] & col[-s * inv[c] % p] for s in range(p)])

    def _kernel_lines(self, rows) -> int:
        """The mask of the lines of the kernel of rows, each read off the
        kernel by led_lines and looked up in index."""
        field, n, index = self.field, self.n, self.index
        kernel = _kernel_of_last(field, n, *_rref_rows(rows, field, n, last=True))
        bits = bytearray(len(self.lines) + 7 >> 3)
        for lead in range(kernel.dim):
            for v in kernel.led_lines(lead):
                i = index[v]
                bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")


def _repeat(x: int, period: int, times: int) -> int:
    """The sum of x << t period over t < times, by doubling."""
    out = shift = 0
    while times:
        if times & 1:
            out |= x << shift
            shift += period
        x |= x << period
        period <<= 1
        times >>= 1
    return out


class FormRows:
    """The map w -> the rows w^t M_1, ..., w^t M_k for fixed n x m matrices
    M_i, and what the rows of several vectors span.

    The k rows of w are one combination sum_j w_j S_j of the slices S_j,
    row j of every M_i side by side, so each vector costs one combination.
    Each distinct w's rows are kept in RREF pivoted on their last nonzero
    columns, with their pivots, as long as the map lives, so the rank of
    one vector is a length and its kernel is read off that RREF with no
    reduction.  The raw rows are kept too, and for square maps restriction
    reads the span of the B M_i B^t off those of B's rows.  line_mask gives
    the lines of a line's kernel in the LineTable of F^m, the annihilator of
    its raw rows, with no reduction; the first call builds the masks of
    every line of F^n in one pass and keeps them.  Vectors are packed rows
    of n lanes.  The map lives as long as a caller holds it; what it keeps
    depends on the M_i alone, so one map may serve every scan of the same
    M_i, and altspace.form_rows keeps the last map it built, one entry
    only, for the next scan.
    """

    __slots__ = ("field", "k", "m", "_slices", "_rows", "_products_of", "_line_masks")

    def __init__(self, field: PrimeField, n: int, m: int, mats):
        mats = list(mats)
        if any(a.field != field or a.rows != n or a.cols != m for a in mats):
            raise ValueError("matrix has wrong field or shape")
        self.field = field
        self.k = len(mats)
        self.m = m
        span = m * field.width
        self._slices = [sum(a.packed[j] << i * span for i, a in enumerate(mats))
                        for j in range(n)]
        self._rows = {}
        self._products_of = {}
        self._line_masks = None

    def rows(self, w: int) -> tuple:
        """The RREF (rows, pivots) of the span of w^t M_1, ..., w^t M_k,
        pivoted on the last nonzero columns."""
        out = self._rows.get(w)
        if out is None:
            out = self._rows[w] = _rref_rows(self._products(w), self.field, self.m, last=True)
        return out

    def _products(self, w: int) -> list:
        """The rows w^t M_1, ..., w^t M_k, kept as long as the map lives."""
        out = self._products_of.get(w)
        if out is None:
            field, k, m = self.field, self.k, self.m
            flat = _combine(w, self._slices, field, k * m)
            span = m * field.width
            mask = (1 << span) - 1
            out = self._products_of[w] = [flat >> i * span & mask for i in range(k)]
        return out

    def _span(self, vectors) -> tuple:
        if len(vectors) == 1:
            return self.rows(vectors[0])
        rows = []
        for w in vectors:
            rows += self.rows(w)[0]
        return _rref_rows(rows, self.field, self.m, last=True)

    def rank(self, vectors) -> int:
        """The rank of the rows of all the vectors, stacked."""
        return len(self._span(vectors)[1])

    def kernel(self, vectors) -> "Subspace":
        """{u in F^m : r u = 0 for every row r of the vectors}, in RREF; the
        kernel of one vector is read off its kept rows, with no reduction,
        and is built anew at each call."""
        return _kernel_of_last(self.field, self.m, *self._span(vectors))

    def line_mask(self, v: int) -> int:
        """The mask, in field.lines[m], of the lines of kernel([v]) for the
        row v of a line of F^n (its first nonzero coordinate 1): the
        annihilator of v's rows, on any map.  The first call builds the
        masks of every line together (_all_line_masks), and they are kept
        as long as the map lives, so back-to-back lattices of the same M_i
        build them once (rebuilding them per lattice read 11.5 % and 7.2 %
        fewer graph-bridge inst_per_s).  The lattice and the ncrk scan ask
        for line masks only where line_masks_pay, so each row's mask is one
        meet in the residue tables."""
        if self._line_masks is None:
            self._line_masks = self._all_line_masks()
        return self._line_masks[v]

    def _all_line_masks(self) -> dict:
        """The row of each line of F^n -> its line mask, from one walk of
        the lines in projective_rows order.  Unit row j carries slice j in
        the lanes above its n, so each combination _combinations makes
        holds a line's row in its low n lanes and that line's k products
        above them; the annihilator of each distinct product row is built
        once for the walk, and a line's mask is the AND of its rows'."""
        field, k, n = self.field, self.k, len(self._slices)
        table = field.lines[self.m]
        width = field.width
        low, span = n * width, self.m * width
        line, row = (1 << low) - 1, (1 << span) - 1
        units = [1 << j * width | s << low for j, s in enumerate(self._slices)]
        ann, out = {}, {}
        for c in range(n):
            for x in _combinations(field, n + k * self.m, units[c + 1:], units[c]):
                mask, flat = table.full, x >> low
                for _ in range(k):
                    r = flat & row
                    flat >>= span
                    a = ann.get(r)
                    if a is None:
                        a = ann[r] = table.annihilator((r,))
                    mask &= a
                out[x & line] = mask
        return out

    def restriction(self, rows) -> tuple:
        """For square maps and a basis B with the rows w_a: the RREF rows of
        the span of the B M_i B^t, each matrix as its entries w_a^t M_i w_b,
        a < b, row-major, in one packed row of d(d-1)/2 lanes; on
        alternating M_i, the upper triangles of the row-major canonical
        basis.  Each w_a's rows w_a^t M_i are kept as long as the map
        lives, and an entry is their dot product with w_b."""
        if len(rows) < 2:
            return ()       # no entries: the span is zero
        field = self.field
        p, width, lane = field.p, field.width, field.lane
        span = self.m * width
        out, s = [0] * self.k, 0
        for a, piece in enumerate([self._products(w) for w in rows]):
            for w in rows[a + 1:]:
                if p == 2:
                    for c, y in enumerate(piece):
                        out[c] |= ((y & w).bit_count() & 1) << s
                else:
                    terms = [(t, w >> t & lane) for t in range(0, span, width) if w >> t & lane]
                    for c, y in enumerate(piece):
                        out[c] |= sum([(y >> t & lane) * e for t, e in terms]) % p << s
                s += width
        return tuple(_rref_rows(out, field, s // width)[0])


def _kernel_of_last(field: PrimeField, m: int, rows, pivots) -> Subspace:
    """The right kernel of packed rows of m lanes in RREF pivoted on their
    last nonzero columns (_rref_rows with last=True), in RREF.

    Free column j gives e_j minus column j of each row, put at that row's
    pivot.  A row is zero after its pivot, so the entries sit after column
    j: the vectors, ascending in j, are the RREF of the kernel as they are.
    """
    p, width, lane = field.p, field.width, field.lane
    pivset = set(pivots)
    basis, free = [], []
    for j in range(m):
        if j in pivset:
            continue
        s = j * width
        v = 1 << s
        for d, r in zip(pivots, rows):
            e = r >> s & lane
            if e:
                v |= (p - e) << d * width
        basis.append(v)
        free.append(j)
    return Subspace(field, m, tuple(basis), tuple(free))


def span_basis(field: PrimeField, rows: int, cols: int, flats) -> list:
    """An independent basis of the span of rows x cols matrices given as
    their flat entry rows (packed rows of rows * cols lanes, as Matrix.flat
    gives them): the canonical RREF of those rows, reshaped, so the pivots
    are deterministic in row-major order."""
    span, _ = _rref_rows(flats, field, rows * cols)
    return [Matrix.from_flat(field, rows, cols, r) for r in span]


def are_independent(mats) -> bool:
    """True iff the matrices, of one field and shape, are linearly independent."""
    if not mats:
        return True
    m0 = mats[0]
    return len(span_basis(m0.field, m0.rows, m0.cols, [m.flat() for m in mats])) == len(mats)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {v : m v = 0} of m, as a subspace of F_p^cols."""
    return _kernel_of_last(m.field, m.cols, *_rref_rows(m.packed, m.field, m.cols, last=True))


def solve_linear(system: Matrix, rhs) -> tuple:
    """Solve system @ x = rhs for a vector rhs; returns (particular solution
    or None, kernel(system)).  The particular solution is read off the
    augmented RREF: the last column's entry at each pivot, 0 elsewhere.
    """
    b = [int(e) for e in rhs]
    if len(b) != system.rows:
        raise ValueError("rhs shape mismatch")
    field, n = system.field, system.cols
    shift = n * field.width
    aug, pivots = _rref_rows([r | e % field.p << shift for r, e in zip(system.packed, b)],
                             field, n + 1)
    if pivots and pivots[-1] == n:
        return None, kernel(system)
    x = [0] * n
    for r, c in zip(aug, pivots):
        x[c] = r >> n * field.width & field.lane
    return tuple(x), kernel(system)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("not square")
    field, n = m.field, m.rows
    shift = n * field.width
    # [m | I]: row i carries e_i in lanes n..2n-1
    rows, pivots = _rref_rows([r | 1 << shift + i * field.width
                               for i, r in enumerate(m.packed)], field, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._reduced(field, n, n, tuple([r >> shift for r in rows]))


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


def projective_rows(field: PrimeField, n: int, guard=None):
    """One packed row per line of F_p^n, its first nonzero coordinate 1:
    the led_lines of F^n at each column in turn (guarded: the lines are
    required before the n unit rows are built, then ticked one by one)."""
    g = as_guard(guard)
    g.require((field.p**n - 1) // (field.p - 1))
    full = Subspace.full(field, n)
    return (g.tick() or v for c in range(n) for v in full.led_lines(c))


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
    q, width = field.p, field.width
    total = 0
    for k in dims:      # stop at the first partial sum past what the guard has left
        total += gaussian_binomial(n, k, q)
        g.require(total)
    for k in dims:
        for pivots in combinations(range(n), k):
            pivset = set(pivots)
            # row i is e_c plus any combination of e_j over the free j > c
            choices = [_combinations(field, n, [1 << j * width for j in range(c + 1, n)
                                                if j not in pivset], 1 << c * width)
                       for c in pivots]
            for rows in product(*choices):
                g.tick()
                yield Subspace(field, n, rows, pivots)


def enumerate_complements(u: Subspace, guard=None, skip=()):
    """All complements of u in F_p^n, exactly once each (q^{d(n-d)} total),
    but those that are also complements of a subspace in skip.

    Complements are the graphs of linear maps from the coordinate complement
    of u into u; the map coefficients run in odometer order, so the last
    row varies fastest: each prefix of the other rows is reduced at most
    once and its RREF extended by each last row.  skip holds the
    annihilator masks (LineTable.annihilator) of subspaces of dimension
    u.dim; a complement W of u meets such an S in 0 iff ann(W) & ann(S)
    == 0, with ann(W) the prefix's mask ANDed with the last row's,
    annihilator((r,)).  A skipped complement is ticked but neither reduced
    nor yielded.
    """
    g = as_guard(guard)
    field, n, d = u.field, u.n, u.dim
    w0 = u.coordinate_complement()
    g.require(field.p ** (d * w0.dim))
    # row i of a complement is w_i plus any combination of u's rows; F^n's
    # one complement, 0, is a zero last row
    *head, tail = [_combinations(field, n, u.rows, w) for w in w0.rows] or [[0]]
    table = field.lines[n] if skip else None
    planes = [table.annihilator((r,)) for r in tail] if skip else [0] * len(tail)
    for prefix in product(*head):
        mask = table.annihilator(prefix) if skip else 0
        out = None      # the prefix's RREF, once a complement needs it
        for r, plane in zip(tail, planes):
            g.tick()
            if skip:
                plane &= mask
                if any(not plane & s for s in skip):
                    continue
            if out is None:
                out, pivots = _rref_rows(prefix, field, n)
            rows, leads = _rref_rows((r,), field, n, out, pivots)
            yield Subspace(field, n, tuple(rows), tuple(leads))
