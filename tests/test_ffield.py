import random

import pytest

from isospace.errors import Guard, GuardExceeded
from isospace.ffield import (Matrix, PrimeField, Subspace, combine,
                             enumerate_complements, enumerate_subspaces,
                             gaussian_binomial, invert, kernel,
                             projective_vectors, rref_canonicalize,
                             solve_linear)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_prime_field_rejects_composites():
    for bad in (1, 4, 6, 255, 257):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_rref_identity():
    m = Matrix.identity(F2, 3)
    r, rank = rref_canonicalize(m)
    assert r == m and rank == 3


def test_rref_zero():
    m = Matrix.zeros(F3, 2, 2)
    r, rank = rref_canonicalize(m)
    assert rank == 0 and r.rows == 0 and r.cols == 2


def test_rref_dependent_rows():
    # hand elimination: [[1,1],[1,1]] over F_2 -> one row [1,1]
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    r, rank = rref_canonicalize(m)
    assert rank == 1
    assert r.row_list() == [[1, 1]]


def test_rref_canonical_for_same_row_space():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        m = Matrix.from_rows(F3, rows)
        r1, _ = rref_canonicalize(m)
        # random row operations preserve the row space
        mixed = [list(m.row(i)) for i in range(m.rows)]
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                f = rng.randrange(3)
                mixed[i] = [(x + f * y) % 3 for x, y in zip(mixed[i], mixed[j])]
        r2, _ = rref_canonicalize(Matrix.from_rows(F3, mixed))
        assert r1 == r2


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(F3, 4)).dim == 0
    assert kernel(Matrix.zeros(F2, 2, 3)).dim == 3


def test_kernel_elementary():
    # E_{1,1} in M(2, F_3) -> <e_2>
    m = Matrix.from_rows(F3, [[1, 0], [0, 0]])
    k = kernel(m)
    assert k.basis_rows() == [(0, 1)]


def test_solve_identity():
    x, ker = solve_linear(Matrix.identity(F3, 2), (1, 2))
    assert x == (1, 2) and ker.dim == 0


def test_solve_zero_system():
    x, ker = solve_linear(Matrix.zeros(F3, 2, 2), (0, 0))
    assert x == (0, 0) and ker.dim == 2


def test_solve_underdetermined_f2():
    # enumeration oracle over the 4 vectors of F_2^2: solutions of
    # [1 1] x = (1) are (1,0) and (0,1); kernel is <(1,1)>
    m = Matrix.from_rows(F2, [[1, 1]])
    x, ker = solve_linear(m, (1,))
    assert x == (1, 0)
    assert ker.basis_rows() == [(1, 1)]
    sols = [v for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
            if sum(a * b for a, b in zip([1, 1], v)) % 2 == 1]
    assert x in sols and len(sols) == 2


def test_solve_inconsistent():
    m = Matrix.from_rows(F2, [[1, 0], [1, 0]])
    x, _ = solve_linear(m, (1, 0))
    assert x is None


def test_subspace_ops():
    e1 = Subspace.from_vectors(F2, 2, [(1, 0)])
    e2 = Subspace.from_vectors(F2, 2, [(0, 1)])
    assert e1.sum(e2) == Subspace.full(F2, 2)
    u = Subspace.from_vectors(F3, 3, [(1, 2, 0), (0, 0, 1)])
    assert u.intersect(u) == u
    a = Subspace.from_vectors(F3, 2, [(1, 1)])
    b = Subspace.from_vectors(F3, 2, [(1, 0)])
    assert a.intersect(b).dim == 0
    assert Subspace.full(F3, 2).contains(a) and not b.contains(a)


def test_dim_formula_random_pairs():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        va = [[rng.randrange(f.p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        vb = [[rng.randrange(f.p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        a = Subspace.from_vectors(f, n, va)
        b = Subspace.from_vectors(f, n, vb)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 2) == 3
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)


def test_gaussian_binomial_symmetry():
    for (n, d, q) in [(4, 1, 2), (5, 2, 3), (6, 2, 2), (3, 1, 5)]:
        assert gaussian_binomial(n, d, q) == gaussian_binomial(n, n - d, q)


def test_enumerate_subspaces_counts():
    for q, f in ((2, F2), (3, F3)):
        for n in range(0, 5):
            for d in range(0, n + 1):
                subs = list(enumerate_subspaces(f, n, d))
                assert len(subs) == gaussian_binomial(n, d, q)
                assert len({s.key() for s in subs}) == len(subs)


def test_enumerate_subspaces_all_dims_sorted():
    subs = list(enumerate_subspaces(F2, 3))
    dims = [s.dim for s in subs]
    assert dims == sorted(dims)
    assert len(subs) == sum(gaussian_binomial(3, d, 2) for d in range(4))


def test_enumerate_subspaces_dim_zero():
    subs = list(enumerate_subspaces(F5, 3, 0))
    assert subs == [Subspace.zero(F5, 3)]


def test_enumerate_complements_counts():
    # every subspace of F_q^n for n <= 4, q in {2, 3}
    for q, f in ((2, F2), (3, F3)):
        for n in range(1, 5):
            for u in enumerate_subspaces(f, n):
                d = u.dim
                comps = list(enumerate_complements(u))
                assert len(comps) == q ** (d * (n - d))
                assert len({c.key() for c in comps}) == len(comps)
                for c in comps:
                    assert c.intersect(u).dim == 0
                    assert c.sum(u).dim == n


def test_enumerate_complements_edge_cases():
    full = Subspace.full(F2, 3)
    assert list(enumerate_complements(full)) == [Subspace.zero(F2, 3)]
    zero = Subspace.zero(F2, 3)
    assert list(enumerate_complements(zero)) == [Subspace.full(F2, 3)]


def test_guard_exceeded():
    with pytest.raises(GuardExceeded):
        list(enumerate_subspaces(F3, 5, 2, guard=Guard(10)))


def test_projective_vectors_count():
    for f, n in [(F2, 3), (F3, 3), (F5, 2)]:
        reps = list(projective_vectors(f, n))
        assert len(reps) == (f.p**n - 1) // (f.p - 1)
        assert all(r[next(i for i, e in enumerate(r) if e)] == 1 for r in reps)


def test_invert_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            m = Matrix.from_rows(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
            if m.rank() == n:
                break
        assert m @ invert(m) == Matrix.identity(F5, n)


def test_subspace_canonical_equality_and_hash():
    a = Subspace.from_vectors(F3, 3, [(1, 2, 0), (0, 1, 1)])
    b = Subspace.from_vectors(F3, 3, [(1, 0, 1), (0, 1, 1)])  # same row space
    spanned = Subspace.from_vectors(F3, 3, [(1, 2, 0), (1, 0, 1)])
    assert spanned == a == b
    assert len({a, b, spanned}) == 1


def _random_rows(rng, f, k, n):
    return [tuple(rng.randrange(f.p) for _ in range(n)) for _ in range(k)]


def test_combine_matches_matrix_product():
    # reference: the coefficient row times the stacked rows, via Matrix.__matmul__
    rng = random.Random(31)
    for _ in range(60):
        f = rng.choice([F2, F3])
        k, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = _random_rows(rng, f, k, n)
        coeffs = tuple(rng.randrange(f.p) for _ in range(k))
        if rng.random() < 0.2:
            coeffs = (0,) * k
        want = Matrix.from_rows(f, [coeffs]) @ Matrix.from_rows(f, rows)
        assert combine(coeffs, rows, f.p) == want.row(0)


def test_combine_reduces_and_handles_no_rows():
    assert combine((4, 1), [(1, 2), (2, 2)], 3) == (0, 1)
    assert combine((0, 0), [(1, 2), (2, 2)], 3) == (0, 0)
    assert combine((), [], 2) == ()


def test_subspace_image_matches_matrix_product():
    # reference: the row space of the product of the two bases, reduced again
    rng = random.Random(37)
    for _ in range(60):
        f = rng.choice([F2, F3])
        n = rng.randint(1, 6)
        outer = Subspace.from_vectors(f, n, _random_rows(rng, f, rng.randint(0, n), n))
        k = outer.dim
        s = Subspace.from_vectors(f, k, _random_rows(rng, f, rng.randint(0, k), k))
        if s.dim == 0:
            want = Subspace.zero(f, n)
        else:
            want = Subspace.from_matrix(s.basis @ outer.basis)
        got = s.image(outer)
        assert got == want and got.pivots == want.pivots
    # the zero subspace maps to the zero subspace of the outer ambient space
    outer = Subspace.from_vectors(F3, 3, [(1, 2, 0), (0, 1, 1)])
    assert Subspace.zero(F3, 2).image(outer) == Subspace.zero(F3, 3)
    with pytest.raises(ValueError):
        Subspace.zero(F3, 3).image(outer)
