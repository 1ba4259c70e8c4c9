import random

import pytest

from isospace.altspace import (AltMatrixSpace, degree, elementary_alternating,
                               form_rows, is_isotropic, isometry_transform, max_degree,
                               max_rank_bruteforce, nondegenerate_part,
                               rad_of, radical_space, restrict,
                               validate_decomposition)
from isospace.errors import VerificationError
from isospace.ffield import FormRows, Matrix, PrimeField, Subspace, projective_rows

F2 = PrimeField(2)
F3 = PrimeField(3)

J2_F3 = Matrix.from_rows(F3, [[0, 1], [2, 0]])


def random_space(rng, field, n, m):
    mats = []
    for _ in range(m):
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randrange(field.p)
                ent[i][j] = v
                ent[j][i] = (-v) % field.p
        mats.append(Matrix.from_rows(field, ent))
    return AltMatrixSpace.from_generators(field, n, mats)


def k3_space(field):
    basis = [elementary_alternating(field, 3, 0, 1),
             elementary_alternating(field, 3, 0, 2),
             elementary_alternating(field, 3, 1, 2)]
    return AltMatrixSpace(field, 3, basis)


def test_validate_ok():
    AltMatrixSpace(F3, 2, [J2_F3])


def test_validate_rejects_nonzero_diagonal():
    bad = Matrix.from_rows(F3, [[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="not alternating"):
        AltMatrixSpace(F3, 2, [bad])


def test_validate_rejects_non_skew():
    bad = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="not alternating"):
        AltMatrixSpace(F3, 2, [bad])


def test_validate_char2_symmetric_zero_diag_ok():
    # in characteristic 2 alternating = symmetric with zero diagonal
    m = Matrix.from_rows(F2, [[0, 1], [1, 0]])
    AltMatrixSpace(F2, 2, [m])


def test_validate_rejects_dependent_basis():
    m = elementary_alternating(F3, 3, 0, 1)
    with pytest.raises(ValueError, match="dependent"):
        AltMatrixSpace(F3, 3, [m, m.scale(2)])


def test_from_generators_checks_each_generator():
    with pytest.raises(ValueError, match="generator is not alternating"):
        AltMatrixSpace.from_generators(F3, 2, [Matrix.from_rows(F3, [[0, 1], [1, 0]])])
    with pytest.raises(ValueError, match="generator is not alternating"):
        AltMatrixSpace.from_generators(F3, 2, [Matrix.from_rows(F3, [[0, 1, 0]])])
    with pytest.raises(ValueError, match="wrong field or shape"):
        AltMatrixSpace.from_generators(F3, 3, [J2_F3])
    with pytest.raises(ValueError, match="wrong field or shape"):
        AltMatrixSpace.from_generators(F2, 2, [J2_F3])


def test_from_generators_equals_validated_space():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 6))
        assert AltMatrixSpace(f, n, sp.basis) == sp
    m = elementary_alternating(F3, 3, 0, 1)
    sp = AltMatrixSpace.from_generators(F3, 3, [m, m.scale(2), m.scale(0)])
    assert sp == AltMatrixSpace(F3, 3, [m]) and sp.dim == 1


def test_radical_zero_space():
    z = AltMatrixSpace.zero_space(F3, 4)
    assert radical_space(z) == Subspace.full(F3, 4)


def test_radical_nondegenerate():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    assert radical_space(sp).dim == 0


def test_radical_block():
    # J + one isolated coordinate: radical = <e_3>
    m = Matrix.from_rows(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    sp = AltMatrixSpace(F3, 3, [m])
    assert radical_space(sp).basis_rows() == [(0, 0, 1)]


def test_rad_of_vector():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    assert rad_of(sp, (0, 0)) == Subspace.full(F3, 2)
    assert rad_of(sp, (1, 0)).basis_rows() == [(1, 0)]


def test_rad_of_k3():
    sp = k3_space(F2)
    assert rad_of(sp, (1, 0, 0)).basis_rows() == [(1, 0, 0)]


def test_degree():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    assert degree(sp, (0, 0)) == 0
    assert degree(sp, (1, 0)) == 1
    assert degree(sp, (1, 2)) == 1
    k3 = k3_space(F2)
    assert degree(k3, (1, 0, 0)) == 2
    for v in [(1, 0), (0, 1), (1, 1)]:
        assert degree(sp, v) + (sp.n - degree(sp, v)) == sp.n


def test_max_degree():
    assert max_degree(k3_space(F2)) == 2
    assert max_degree(AltMatrixSpace.zero_space(F3, 3)) == 0


def test_form_rows_keeps_one_map_and_one_radical_per_vector():
    # one entry, keyed by the space's value: an equal copy shares the map,
    # another space replaces it; a line's mask is one object per map, and
    # a vector's kernel and mask equal what a fresh FormRows builds
    rng = random.Random(26)
    for field, n, m in ((F2, 5, 3), (F3, 4, 2)):
        sp = random_space(rng, field, n, m)
        other = random_space(rng, field, n, m + 1)
        assert other != sp
        forms = form_rows(sp)
        assert form_rows(sp) is forms
        copy = AltMatrixSpace.from_generators(field, n, sp.basis)
        assert copy is not sp and form_rows(copy) is forms
        assert form_rows(other) is not forms
        again = form_rows(sp)
        assert again is not forms and form_rows(sp) is again
        fresh = FormRows(field, n, n, sp.basis)
        for v in projective_rows(field, n):
            k = again.kernel([v])
            assert again.kernel([v]) == k and rad_of(sp, field.unpack(v, n)) == k
            assert k == fresh.kernel([v])
            mask = again.line_mask(v)
            assert again.line_mask(v) is mask and mask == fresh.line_mask(v)
        assert form_rows(sp) is again


def test_restrict_full_is_same_span():
    sp = k3_space(F3)
    r = restrict(sp, Subspace.full(F3, 3))
    assert r.dim == sp.dim
    flat = lambda s: Subspace.from_vectors(
        s.field, s.n * s.n, [m.entries for m in s.basis])
    assert flat(r) == flat(sp)


def test_restrict_isotropic_gives_zero_space():
    sp = k3_space(F2)
    line = Subspace.from_vectors(F2, 3, [(1, 0, 0)])
    assert restrict(sp, line).dim == 0


def test_restrict_k3_plane():
    sp = k3_space(F2)
    u = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 0)])
    r = restrict(sp, u)
    assert r.dim == 1 and r.n == 2


def test_restrict_rejects_another_ambient_or_field():
    sp = k3_space(F2)
    with pytest.raises(ValueError, match="ambient"):
        restrict(sp, Subspace.full(F2, 2))
    with pytest.raises(ValueError, match="field"):
        restrict(sp, Subspace.full(F3, 3))


def test_isometry_identity_and_inverse():
    sp = k3_space(F3)
    assert isometry_transform(sp, Matrix.identity(F3, 3)).basis == sp.basis
    t = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    from isospace.ffield import invert
    back = isometry_transform(isometry_transform(sp, t), invert(t))
    flat = lambda s: Subspace.from_vectors(
        s.field, s.n * s.n, [m.entries for m in s.basis])
    assert flat(back) == flat(sp)


def test_isometry_rejects_singular():
    sp = k3_space(F3)
    with pytest.raises(ValueError, match="singular"):
        isometry_transform(sp, Matrix.zeros(F3, 3, 3))


def test_isometry_permutation_matches_graph_relabeling():
    # swapping vertices 0,1 of K_3 fixes A_{K_3} as a span
    sp = k3_space(F3)
    perm = Matrix.from_rows(F3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    moved = isometry_transform(sp, perm)
    flat = lambda s: Subspace.from_vectors(
        s.field, s.n * s.n, [m.entries for m in s.basis])
    assert flat(moved) == flat(sp)


def test_is_isotropic():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    for v in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        assert is_isotropic(sp, Subspace.from_vectors(F3, 2, [v]))
    assert not is_isotropic(sp, Subspace.full(F3, 2))
    # P_3 (path 0-1-2): {0,2} independent
    from isospace.graphs import Graph, space_from_graph
    p3 = space_from_graph(Graph.path(3), F2)
    u = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 0, 1)])
    assert is_isotropic(p3, u)


def test_is_isotropic_on_the_zero_space_builds_no_transpose(monkeypatch):
    calls = []
    inner = Matrix.transpose

    def counting(self):
        calls.append(self.rows)
        return inner(self)

    n = 300
    zero, sp = AltMatrixSpace.zero_space(F2, n), AltMatrixSpace(F3, 2, [J2_F3])
    monkeypatch.setattr(Matrix, "transpose", counting)
    validate_decomposition(zero, [Subspace.coordinate(F2, n, [j]) for j in range(n)])
    assert calls == []
    assert not is_isotropic(sp, Subspace.full(F3, 2))
    assert calls == [2]


def test_rad_of_subspace_double_radical():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        vecs = [[rng.randrange(f.p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        u = Subspace.from_vectors(f, n, vecs)
        assert rad_of(sp, rad_of(sp, u)).contains(u)


def test_isotropic_iff_restriction_zero():
    rng = random.Random(4)
    from isospace.ffield import enumerate_subspaces
    for _ in range(10):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        for u in enumerate_subspaces(f, n):
            assert is_isotropic(sp, u) == (restrict(sp, u).dim == 0)


def test_nondegenerate_part():
    # block(J, 0_2) in Lambda(4, F_2): radical <e_3, e_4>, part is 2x2
    m = Matrix.from_rows(F2, [[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 0], [0, 0, 0, 0]])
    sp = AltMatrixSpace(F2, 4, [m])
    part, comp, rad = nondegenerate_part(sp)
    assert part.n == 2 and part.dim == 1
    assert rad == Subspace.from_vectors(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert comp == Subspace.from_vectors(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # on random spaces: comp + rad = F^n directly, and the part is A|_comp
    # with zero radical
    rng = random.Random(41)
    for _ in range(30):
        f = rng.choice([F2, F3])
        n = rng.randint(1, 5)
        sp = random_space(rng, f, n, rng.randint(0, 3))
        part, comp, rad = nondegenerate_part(sp)
        assert rad == radical_space(sp)
        assert comp.dim + rad.dim == n and comp.sum(rad).dim == n
        assert part == restrict(sp, comp)
        assert radical_space(part).dim == 0
    # nondegenerate input comes back unchanged, on the full space
    nd = AltMatrixSpace(F3, 2, [J2_F3])
    part2, comp2, rad2 = nondegenerate_part(nd)
    assert part2 is nd and comp2 == Subspace.full(F3, 2) and rad2.dim == 0
    # zero space: empty ambient
    z = AltMatrixSpace.zero_space(F3, 2)
    part3, comp3, rad3 = nondegenerate_part(z)
    assert part3.n == 0 and part3.dim == 0
    assert comp3.dim == 0 and rad3 == Subspace.full(F3, 2)


def test_validate_decomposition():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    e1 = Subspace.from_vectors(F3, 2, [(1, 0)])
    e2 = Subspace.from_vectors(F3, 2, [(0, 1)])
    validate_decomposition(sp, [e1, e2])
    validate_decomposition(AltMatrixSpace.zero_space(F3, 0), [])
    for parts, msg in (([], "direct sum"), ([e1], "direct sum"),
                       ([e1, e2, e2], "direct sum"),
                       ([Subspace.full(F3, 2)], "not isotropic"),
                       ([e1, Subspace.zero(F3, 2), e2], "zero space")):
        with pytest.raises(VerificationError, match=msg):
            validate_decomposition(sp, parts)


def test_validate_decomposition_rejects_another_ambient():
    sp = AltMatrixSpace(F3, 2, [J2_F3])
    e1 = Subspace.from_vectors(F3, 2, [(1, 0)])
    for other in (Subspace.from_vectors(F3, 3, [(0, 1, 0)]),
                  Subspace.from_vectors(F2, 2, [(0, 1)])):
        with pytest.raises(VerificationError, match="another ambient"):
            validate_decomposition(sp, [e1, other])


def test_max_rank():
    assert max_rank_bruteforce(AltMatrixSpace.zero_space(F3, 3)) == 0
    assert max_rank_bruteforce(AltMatrixSpace(F3, 2, [J2_F3])) == 2
    # the "star" space in Lambda(4, F_2): first row/column free, rank 2
    star = AltMatrixSpace(F2, 4, [elementary_alternating(F2, 4, 0, j)
                                  for j in (1, 2, 3)])
    assert max_rank_bruteforce(star) == 2


def test_max_rank_even():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        assert max_rank_bruteforce(sp) % 2 == 0


def test_isometry_preserves_invariants():
    # alpha, chi, radical dimension, degree multiset, max rank
    from isospace.ffield import invert, projective_rows
    from isospace.isotropic import alpha_exact, chi_brute
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        while True:
            t = Matrix.from_rows(f, [[rng.randrange(f.p) for _ in range(n)]
                                     for _ in range(n)])
            if t.rank() == n:
                break
        moved = isometry_transform(sp, t)
        assert alpha_exact(sp)[0] == alpha_exact(moved)[0]
        assert chi_brute(sp)[0] == chi_brute(moved)[0]
        assert radical_space(sp).dim == radical_space(moved).dim
        assert max_rank_bruteforce(sp) == max_rank_bruteforce(moved)
        degs = lambda s: sorted(degree(s, f.unpack(v, n))
                                for v in projective_rows(f, n))
        assert degs(sp) == degs(moved)
        # and the transform is reversible
        back = isometry_transform(moved, invert(t))
        flat = lambda s: Subspace.from_vectors(
            s.field, s.n * s.n, [m.entries for m in s.basis])
        assert flat(back) == flat(sp)
