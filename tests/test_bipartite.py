import random

import pytest

from isospace import bipartite, ffield
from isospace.altspace import (AltMatrixSpace, form_rows, is_isotropic, radical_space,
                               validate_decomposition)
from isospace.bipartite import (MatrixSpace, adjoint_algebra, alpha_bipartite,
                                bipartite_space_from_blocks,
                                block_space_from_bipartite,
                                decomposition_from_idempotent,
                                hyperbolic_idempotent_search, ncrk_brute,
                                ncrk_pad_square, ncrk_witness_pair,
                                two_decomposition_via_adjoint)
from isospace.errors import Guard, GuardExceeded, VerificationError
from isospace.ffield import (FormRows, Matrix, PrimeField, Subspace, enumerate_subspaces,
                              kernel, projective_rows, vstack)
from isospace.graphs import Graph, space_from_graph
from isospace.isotropic import alpha_exact, chi_brute, two_decomposition_brute
from util import F2, F3, random_matrix_space, random_space, symplectic_form

F5, F31 = PrimeField(5), PrimeField(31)


def e_split(field, n, s):
    u1 = Subspace.from_vectors(field, n, [tuple(1 if t == i else 0 for t in range(n))
                                          for i in range(s)])
    u2 = Subspace.from_vectors(field, n, [tuple(1 if t == i else 0 for t in range(n))
                                          for i in range(s, n)])
    return u1, u2


def test_block_space_k2():
    sp = space_from_graph(Graph(2, [(0, 1)]), F3)
    u1, u2 = e_split(F3, 2, 1)
    b = block_space_from_bipartite(sp, u1, u2)
    assert (b.s, b.t, b.dim) == (1, 1, 1)
    assert b.basis[0].entries == (1,)


def test_block_space_zero():
    sp = AltMatrixSpace.zero_space(F2, 3)
    u1, u2 = e_split(F2, 3, 1)
    b = block_space_from_bipartite(sp, u1, u2)
    assert b.dim == 0


def test_block_space_of_the_zero_space_builds_no_transpose(monkeypatch):
    calls = []
    inner = Matrix.transpose

    def counting(self):
        calls.append(self.rows)
        return inner(self)

    n = 300
    u1, u2 = Subspace.coordinate(F2, n, [0]), Subspace.coordinate(F2, n, range(1, n))
    monkeypatch.setattr(Matrix, "transpose", counting)
    b = block_space_from_bipartite(AltMatrixSpace.zero_space(F2, n), u1, u2)
    assert (b.s, b.t, b.dim) == (1, n - 1, 0)
    assert calls == []
    sp = space_from_graph(Graph(3, [(0, 1), (0, 2)]), F2)
    b = block_space_from_bipartite(sp, *e_split(F2, 3, 1))
    assert (b.s, b.t, b.dim) == (1, 2, 2)
    assert calls[-1:] == [2]


def test_block_space_c4():
    sp = space_from_graph(Graph.cycle(4), F3)
    u1 = Subspace.from_vectors(F3, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    u2 = Subspace.from_vectors(F3, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    b = block_space_from_bipartite(sp, u1, u2)
    assert (b.s, b.t, b.dim) == (2, 2, 4)


def test_block_space_rejects_bad_split():
    sp = space_from_graph(Graph.complete(3), F3)
    u1, u2 = e_split(F3, 3, 1)
    with pytest.raises(VerificationError):
        block_space_from_bipartite(sp, u1, u2)


def test_matrix_space_from_generators():
    rng = random.Random(15)
    for _ in range(20):
        f = rng.choice([F2, F3])
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        b = random_matrix_space(rng, f, s, t, rng.randint(0, 5))
        assert MatrixSpace(f, s, t, b.basis).basis == b.basis
    # a 2 x 3 generator has the entry count of a 3 x 2 one, yet is rejected
    m = Matrix.from_rows(F2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="wrong field or shape"):
        MatrixSpace.from_generators(F2, 3, 2, [m])
    with pytest.raises(ValueError, match="wrong field or shape"):
        MatrixSpace.from_generators(F3, 2, 3, [m])


def test_ncrk_zero_and_full():
    assert ncrk_brute(MatrixSpace(F2, 2, 3, ())) == 0
    full = random_matrix_space(random.Random(0), F2, 2, 2, 0)
    gens = []
    for i in range(2):
        for j in range(2):
            ent = [0] * 4
            ent[i * 2 + j] = 1
            gens.append(Matrix(F2, 2, 2, ent))
    full = MatrixSpace.from_generators(F2, 2, 2, gens)
    assert ncrk_brute(full) == 2


def test_ncrk_e11():
    e11 = MatrixSpace.from_generators(F2, 2, 2, [Matrix.from_rows(F2, [[1, 0], [0, 0]])])
    assert ncrk_brute(e11) == 1


def test_pad_square_shapes_and_identity():
    b = MatrixSpace.from_generators(F2, 1, 2, [Matrix.from_rows(F2, [[1, 0]])])
    c = ncrk_pad_square(b)
    assert (c.s, c.t) == (2, 2)
    assert c.dim == b.dim + (2 - 1) * 2
    assert ncrk_brute(c) == ncrk_brute(b) + 1
    z = MatrixSpace(F2, 1, 2, ())
    cz = ncrk_pad_square(z)
    assert cz.dim == 2 and ncrk_brute(cz) == 1
    with pytest.raises(ValueError):
        ncrk_pad_square(c)


def test_pad_square_identity_random():
    rng = random.Random(3)
    for _ in range(25):
        t = rng.randint(2, 4)
        s = rng.randint(1, t - 1)
        f = rng.choice([F2, F3])
        b = random_matrix_space(rng, f, s, t, rng.randint(1, 3))
        assert ncrk_brute(b) + (t - s) == ncrk_brute(ncrk_pad_square(b))


def test_alpha_bipartite_examples():
    k2 = space_from_graph(Graph(2, [(0, 1)]), F3)
    a, wit = alpha_bipartite(k2, *e_split(F3, 2, 1))
    assert a == 1 and wit.dim == 1
    z = AltMatrixSpace.zero_space(F3, 4)
    a, wit = alpha_bipartite(z, *e_split(F3, 4, 2))
    assert a == 4 and wit.dim == 4
    c4 = space_from_graph(Graph.cycle(4), F2)
    u1 = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    u2 = Subspace.from_vectors(F2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    a, wit = alpha_bipartite(c4, u1, u2)
    assert a == 2 and is_isotropic(c4, wit)


def test_alpha_bipartite_matches_lattice_random():
    rng = random.Random(7)
    for _ in range(20):
        st = rng.randint(2, 6)
        s = rng.randint(1, st - 1)
        t = st - s
        f = rng.choice([F2, F3])
        b = random_matrix_space(rng, f, s, t, rng.randint(1, 4))
        sp = bipartite_space_from_blocks(b)
        u1, u2 = e_split(f, st, s)
        a, wit = alpha_bipartite(sp, u1, u2)
        assert a == st - ncrk_brute(b)
        assert a == alpha_exact(sp)[0]
        assert is_isotropic(sp, wit) and wit.dim == a


def test_alpha_at_least_max_side():
    rng = random.Random(9)
    for _ in range(15):
        st = rng.randint(2, 5)
        s = rng.randint(1, st - 1)
        b = random_matrix_space(rng, F2, s, st - s, rng.randint(0, 3))
        sp = bipartite_space_from_blocks(b)
        assert alpha_exact(sp)[0] >= max(s, st - s)


def test_adjoint_contains_identity_and_star():
    sp = AltMatrixSpace(F3, 2, [symplectic_form(F3, 2)])
    adj = adjoint_algebra(sp)
    assert adj.dim == 4
    # (I, I) lies in the span of the pairs (D, D*)
    ident = Matrix.identity(F3, 2)
    flat = Subspace.from_vectors(F3, 8, [d.entries + b.entries for d, b in adj.pairs])
    assert flat.contains_vector(F3.pack(ident.entries + ident.entries))


def test_adjoint_rejects_degenerate():
    with pytest.raises(ValueError):
        adjoint_algebra(AltMatrixSpace.zero_space(F3, 2))


def test_adjoint_star_involution_random():
    rng = random.Random(11)
    found = 0
    while found < 8:
        n = rng.choice([2, 4])
        sp = random_space(rng, F3, n, rng.randint(1, 3))
        if radical_space(sp).dim != 0:
            continue
        found += 1
        adj = adjoint_algebra(sp)
        p = F3.p
        # multiplicative closure and the involution laws on basis pairs
        from isospace.ffield import Subspace as S
        flat = S.from_vectors(F3, 2 * n * n,
                              [d.entries + b.entries for (d, b) in adj.pairs])
        for (d1, b1) in adj.pairs:
            for (d2, b2) in adj.pairs:
                d12 = d1 @ d2
                b12 = b2 @ b1
                assert flat.contains_vector(F3.pack(d12.entries + b12.entries))
            # D** = D: the pair (B, D) must satisfy the defining identity
            for a in sp.basis:
                assert d1.transpose() @ a == a @ b1


def test_hyperbolic_search_symplectic():
    sp = AltMatrixSpace(F3, 2, [symplectic_form(F3, 2)])
    adj = adjoint_algebra(sp)
    p = hyperbolic_idempotent_search(adj)
    assert p is not None
    assert p @ p == p
    u1, u2 = decomposition_from_idempotent(p)
    assert u1.dim == 1 and u2.dim == 1
    sp2 = sp
    assert is_isotropic(sp2, u1) and is_isotropic(sp2, u2)
    # I - P qualifies whenever P does
    q = Matrix.identity(F3, 2) - p
    assert q @ q == q


def test_the_adjoint_route_prices_each_linear_system_first():
    # one form on F_3^4: the adjoint algebra's 16 x 32 system and the
    # idempotent search's 16 x 16 one each take at most 16 * 16 row
    # operations, required before the system is built; no tick is spent
    sp = AltMatrixSpace(F3, 4, [symplectic_form(F3, 4)])
    g = Guard(255)
    with pytest.raises(GuardExceeded, match="estimated 256 row operations"):
        adjoint_algebra(sp, guard=g)
    adj = adjoint_algebra(sp, guard=Guard(256))
    assert adj.dim == 16
    with pytest.raises(GuardExceeded, match="estimated 256 row operations"):
        hyperbolic_idempotent_search(adj, guard=g)
    with pytest.raises(GuardExceeded, match="estimated 256 row operations"):
        two_decomposition_via_adjoint(sp, guard=g)
    assert g.used == 0
    # past the price of its system, the search requires its 3^10 candidates
    with pytest.raises(GuardExceeded, match="estimated 59049 iterations"):
        hyperbolic_idempotent_search(adj, guard=Guard(256))


def test_decomposition_from_identity():
    im, ker = decomposition_from_idempotent(Matrix.identity(F3, 3))
    assert im.dim == 3 and ker.dim == 0
    with pytest.raises(ValueError):
        decomposition_from_idempotent(Matrix.from_rows(F3, [[0, 1], [0, 0]]))


def test_idempotent_criterion_matches_brute():
    rng = random.Random(13)
    found = 0
    while found < 20:
        n = rng.choice([2, 4])
        sp = random_space(rng, F3, n, rng.randint(1, 4))
        if radical_space(sp).dim != 0:
            continue
        adj = adjoint_algebra(sp)
        if adj.dim > 6:
            continue
        found += 1
        via_adjoint = two_decomposition_via_adjoint(sp)
        via_brute = two_decomposition_brute(sp)
        assert (via_adjoint is None) == (via_brute is None)
        if via_adjoint is not None:
            u1, u2 = via_adjoint
            assert is_isotropic(sp, u1) and is_isotropic(sp, u2)
            assert u1.dim + u2.dim == n and u1.sum(u2).dim == n


def test_via_adjoint_decides_single_forms_on_f3_4():
    # one non-degenerate form on F_3^4 has dim Adj = 16: 3^16 coefficient
    # vectors, beyond the default guard, but few solutions of P* = I - P
    rng = random.Random(17)
    found = 0
    while found < 10:
        sp = random_space(rng, F3, 4, 1)
        if radical_space(sp).dim != 0:
            continue
        found += 1
        assert adjoint_algebra(sp).dim == 16
        pair = two_decomposition_via_adjoint(sp)
        assert pair is not None and two_decomposition_brute(sp) is not None
        validate_decomposition(sp, list(pair))


def test_two_decomposition_via_adjoint_degenerate_reduction():
    # J plus two isolated coordinates: still 2-decomposable after reduction
    m = Matrix.from_rows(F3, [[0, 1, 0, 0], [2, 0, 0, 0],
                              [0, 0, 0, 0], [0, 0, 0, 0]])
    sp = AltMatrixSpace(F3, 4, [m])
    pair = two_decomposition_via_adjoint(sp)
    assert pair is not None
    u1, u2 = pair
    assert u1.dim + u2.dim == 4 and u1.sum(u2).dim == 4
    assert is_isotropic(sp, u1) and is_isotropic(sp, u2)


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", range(5))
def test_zero_space_two_decompositions(field, n):
    # the zero space splits as <e_1> + <e_2, ..., e_n> once n >= 2, by both routes
    sp = AltMatrixSpace.zero_space(field, n)
    brute, via_adjoint = two_decomposition_brute(sp), two_decomposition_via_adjoint(sp)
    if n < 2:
        assert brute is None and via_adjoint is None
        return
    split = (Subspace.coordinate(field, n, [0]), Subspace.coordinate(field, n, range(1, n)))
    assert brute == via_adjoint == split
    validate_decomposition(sp, list(brute))


def stacked_product_witness_pair(b, guard):
    """Reference scan over the smaller side, first maximum: for s < t the
    stacked products U B_i, whose kernel is V; else the stacked products
    V B_i^t, whose kernel is U."""
    left = b.s < b.t
    n, m = (b.s, b.t) if left else (b.t, b.s)
    mats = (list(b.basis) if left else [x.transpose() for x in b.basis]) \
        or [Matrix.zeros(b.field, n, m)]
    best = None
    for w in enumerate_subspaces(b.field, n, guard=guard):
        image = vstack(*[w.basis @ x for x in mats])
        score = w.dim + m - image.rank()
        if best is None or score > best[0]:
            best = (score, image, w)
    partner = kernel(best[1])
    return (best[2], partner) if left else (partner, best[2])


def test_ncrk_witness_pair_matches_the_stacked_product_scan():
    rng = random.Random(8)
    shapes = [(1, 3), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2), (2, 2), (3, 3)]
    for k in range(48):
        field = (F2, F3)[k % 2]
        s, t = shapes[k % len(shapes)]
        if field.p == 3 and t > 3:
            t = 3
        b = (MatrixSpace(field, s, t, ()) if k % 8 == 7
             else random_matrix_space(rng, field, s, t, rng.randint(1, 3)))
        g_new, g_ref = Guard(), Guard()
        assert ncrk_witness_pair(b, guard=g_new) == stacked_product_witness_pair(b, g_ref)
        assert g_new.used == g_ref.used


def _ncrk_record(b, limit=None):
    """The pair as (rows, pivots) of each side and the guard ticks; or the
    GuardExceeded message and the ticks."""
    g = Guard() if limit is None else Guard(limit)
    try:
        u, v = ncrk_witness_pair(b, guard=g)
    except GuardExceeded as exc:
        return str(exc), g.used
    return (u.rows, u.pivots, v.rows, v.pivots), g.used


def _ncrk_route_inputs():
    rng = random.Random(30)
    out = []
    for field, shapes in ((F2, [(2, 5), (4, 4), (5, 3)]), (F3, [(2, 3), (3, 3), (4, 2)]),
                          (F5, [(2, 3), (3, 3)]), (F31, [(3, 3)])):
        for s, t in shapes:
            out += [random_matrix_space(rng, field, s, t, k) for k in (1, 2, 3)]
    out += [MatrixSpace(F2, 1, 3, ()), MatrixSpace(F3, 3, 2, ()), MatrixSpace(F31, 3, 3, ())]
    for field, shapes in ((F2, [(1, 2), (2, 3), (2, 4)]), (F3, [(1, 2), (1, 3), (2, 3)]),
                          (F5, [(2, 3)])):
        for s, t in shapes:
            out += [ncrk_pad_square(random_matrix_space(rng, field, s, t, k)) for k in (1, 2)]
    out.append(ncrk_pad_square(MatrixSpace(F3, 1, 3, ())))
    # padded <(0 1)> is <E_11, E_12, E_22>, not alternating: e_2 lies
    # outside its own kernel, which is 0 since E_22 e_2 != 0, so its line
    # mask is 0 although the mask of E_12 e_2 = e_1 alone is e_2's line
    e12 = Matrix.from_rows(F2, [[0, 1]])
    out.append(ncrk_pad_square(MatrixSpace.from_generators(F2, 1, 2, [e12])))
    return out


def test_the_line_mask_ncrk_scan_is_the_rank_scan(monkeypatch):
    # where line masks pay, the scan reads dim ker(W) off them and never
    # ranks rows; on F_31^3, with no residue tables, it ranks them; forced
    # onto the other route, the pairs, ticks and guard trips stay the same,
    # on F_5^3 with residue tables, on F_31^3 without them, and on padded
    # squares, which are not alternating
    assert F5.lines[3]._low is not None and F31.lines[3]._low is None
    ranks = []
    inner = FormRows.rank

    def counting(self, vectors):
        ranks.append(vectors)
        return inner(self, vectors)

    monkeypatch.setattr(FormRows, "rank", counting)
    for b in _ncrk_route_inputs():
        ranks.clear()
        full = _ncrk_record(b)
        used = full[-1]
        short = [_ncrk_record(b, used - 1), _ncrk_record(b, used // 2)]
        masked = ranks == []
        assert masked == (b.field != F31) and isinstance(short[0][0], str)
        ranks.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bipartite, "line_masks_pay", lambda p, n: not masked)
            assert _ncrk_record(b) == full and len(ranks) == (used if masked else 0)
            assert [_ncrk_record(b, used - 1), _ncrk_record(b, used // 2)] == short
    # the scan prices one mask per line of F^m: F_2^13's 8,191 masks of
    # 8,191 lines fit the 2^26-bit budget, F_2^14's 16,383 do not, so only
    # the first gets a line table, though F_2^14 has residue tables
    field = PrimeField(2)
    for t in (13, 14):
        ncrk_witness_pair(MatrixSpace(field, 1, t, ()))
    assert sorted(field.lines) == [13] and ffield._tables_fit(2, 14)


def test_a_map_builds_its_line_masks_once_one_annihilator_per_product_row(monkeypatch):
    # the first read builds the mask of every line of F^n in one pass, with
    # one annihilator per distinct product row v^t M_i; the ncrk scan, which
    # reads a line's mask in every subspace holding it, and two lattices on
    # one kept map (alpha_exact, then chi_brute) build no more
    passes, built = [], []
    one_pass, inner = FormRows._all_line_masks, ffield.LineTable.annihilator

    def passing(self):
        start = len(built)
        out = one_pass(self)
        passes.append((self, built[start:]))
        return out

    def counting(self, rows):
        built.append(rows)
        return inner(self, rows)

    def products(field, n, mats):
        return {((Matrix(field, 1, n, field.unpack(v, n)) @ a).packed[0],)
                for v in projective_rows(field, n) for a in mats}

    monkeypatch.setattr(FormRows, "_all_line_masks", passing)
    monkeypatch.setattr(ffield.LineTable, "annihilator", counting)
    for b in _ncrk_route_inputs():
        for _ in range(2):
            passes.clear()
            ncrk_witness_pair(b)
            if b.field == F31:
                assert passes == []
                continue
            n = min(b.s, b.t)
            mats = b.basis if b.s < b.t else [x.transpose() for x in b.basis]
            ((_, rows),) = passes
            assert len(rows) == len(set(rows)), (b.field, b.s, b.t)
            assert set(rows) == products(b.field, n, mats), (b.field, b.s, b.t)
    rng = random.Random(11)
    for field, n in ((F2, 6), (F3, 5), (F3, 4)):
        for sp in (space_from_graph(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                              if rng.random() < 0.5]), field),
                   random_space(rng, field, n, 2)):
            form_rows.cache_clear()
            passes.clear()
            alpha_exact(sp)
            chi_brute(sp)
            ((forms, rows),) = passes
            assert forms is form_rows(sp) and len(rows) == len(set(rows)), (field, n)
            assert set(rows) == products(field, n, sp.basis), (field, n)
