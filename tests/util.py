"""Shared generators for the seeded random test suites."""

from isospace.altspace import AltMatrixSpace
from isospace.bipartite import MatrixSpace
from isospace.ffield import Matrix, PrimeField
from isospace.graphs import Graph

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
