"""Shared generators for the seeded random test suites."""

from isospace.altspace import AltMatrixSpace, elementary_alternating, rad_of
from isospace.bipartite import MatrixSpace
from isospace.ffield import (Matrix, PrimeField, Subspace, combination, enumerate_subspaces,
                             projective_rows)
from isospace.graphs import Graph
from isospace.isotropic import enumerate_maximal_filter

F2 = PrimeField(2)
F3 = PrimeField(3)


def random_alternating(rng, field, n):
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(field.p)
            ent[i][j] = v
            ent[j][i] = (-v) % field.p
    return Matrix.from_rows(field, ent)


def random_space(rng, field, n, m):
    return AltMatrixSpace.from_generators(
        field, n, [random_alternating(rng, field, n) for _ in range(m)])


def random_matrix_space(rng, field, s, t, m):
    mats = [Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(t)]
                                     for _ in range(s)]) for _ in range(m)]
    return MatrixSpace.from_generators(field, s, t, mats)


def random_graph(rng, n, p=0.5):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def every_space(field, n):
    """Every subspace of Lambda(n, q), in the coordinates of the elementary
    alternating matrices, in enumerate_subspaces order."""
    elementary = [elementary_alternating(field, n, i, j)
                  for i in range(n) for j in range(i + 1, n)]
    for s in enumerate_subspaces(field, len(elementary)):
        yield AltMatrixSpace._unchecked(field, n, [
            combination(field, n, n, r, elementary) for r in s.rows])


def direct_sum(a, b):
    """A + B on F^(m + n), for A on F^m and B on F^n: the span of the block
    diagonal matrices diag(A_i, 0) and diag(0, B_j) over the two bases."""
    field, m, n = a.field, a.n, b.n

    def placed(mat, at):
        ent = [[0] * (m + n) for _ in range(m + n)]
        for i, row in enumerate(mat.row_list()):
            ent[at + i][at:at + len(row)] = row
        return Matrix.from_rows(field, ent)

    return AltMatrixSpace(field, m + n, [placed(x, 0) for x in a.basis]
                          + [placed(x, m) for x in b.basis])


def symplectic_form(field, n):
    """Non-degenerate alternating form [[0, I], [-I, 0]] on F^n, n even."""
    assert n % 2 == 0
    h = n // 2
    ent = [[0] * n for _ in range(n)]
    for i in range(h):
        ent[i][h + i] = 1
        ent[h + i][i] = (-1) % field.p
    return Matrix.from_rows(field, ent)


def rref_rows_reference(rows, p, inv):
    """Reference RREF of a list of tuple rows, in place; returns the pivot
    columns.  Column by column: the first row at or below the current one
    with a nonzero entry is swapped up, scaled to a leading 1 and
    eliminated from every other row."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), -1)
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        ia = inv[rows[r][c]]
        rows[r] = prow = [(ia * x) % p for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def combine_reference(coeffs, rows, p, n):
    """sum_i coeffs[i] rows[i] mod p over tuple rows of length n, entry by
    entry."""
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n))


def matmul_reference(a, b, p, m):
    """The product of the tuple-row matrices a (r x k) and b (k x m), mod p:
    row i is the combination of b's rows by row i of a."""
    return [combine_reference(row, b, p, m) for row in a]


def invert_reference(rows, p, inv):
    """The inverse of a square matrix of tuple rows, from the RREF of
    [A | I], or None when A is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if rref_rows_reference(aug, p, inv)[:n] != list(range(n)):
        return None
    return [tuple(r[n:]) for r in aug]


def chi_maxcover_reference(space, guard):
    """chi(A) by the unordered max-cover frontier: every span of a level is
    joined with every maximal space, and spans already seen are skipped;
    one guard tick per join, as chi_maxcover ticks."""
    n = space.n
    if n == 0:
        return 0
    if space.dim == 0:
        return 1
    mi = enumerate_maximal_filter(space, guard=guard)
    seen, frontier, k = {t.key() for t in mi}, list(mi), 1
    while True:
        k, nxt = k + 1, []
        for w in frontier:
            for t in mi:
                guard.tick()
                u = w.sum(t)
                if u.key() not in seen:
                    if u.dim == n:
                        return k
                    seen.add(u.key())
                    nxt.append(u)
        frontier = nxt


def lattice_reference(space, guard):
    """The isotropic lattice by a plain breadth-first search over Subspaces:
    the children of U are the spaces U + <v>, for the lines v of F^n in
    projective_rows order that lie in rad(U) (rad_of), whose RREF is U's
    rows with v appended (extend_by_vector), so that U is their parent;
    U is maximal iff rad(U) = U.  One guard tick per child.  Returns the
    levels and the maximal spaces in level order."""
    field, n = space.field, space.n
    lines = list(projective_rows(field, n))
    levels, level, maximal = [], [Subspace.zero(field, n)], []
    while level:
        levels.append(level)
        level = []
        for u in levels[-1]:
            rad = rad_of(space, u)
            if rad == u:
                maximal.append(u)
                continue
            for v in lines:
                if rad.contains_vector(v):
                    w = u.extend_by_vector(v)
                    if w.rows == u.rows + (v,):
                        guard.tick()
                        level.append(w)
    return levels, maximal
