import random
from itertools import product

import pytest

from isospace import ffield
from isospace.errors import Guard, GuardExceeded
from isospace.ffield import (FormRows, Matrix, PrimeField, Subspace,
                             enumerate_complements, enumerate_subspaces,
                             gaussian_binomial, invert, kernel,
                             projective_rows, rref_canonicalize,
                             solve_linear, vstack)

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


def test_solve_linear_matches_kernel_and_enumeration():
    # every solution of system @ x = rhs, found by enumerating F_p^cols; the
    # particular solution is the one that is zero at the free columns
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        field = rng.choice([F2, F3, F5])
        p = field.p
        rows, cols = rng.randint(0, 3), rng.randint(1, 4)
        m = Matrix(field, rows, cols, [rng.randrange(p) for _ in range(rows * cols)])
        rhs = tuple(rng.randrange(p) for _ in range(rows))
        x, ker = solve_linear(m, rhs)
        assert ker == kernel(m)
        sols = [v for v in product(range(p), repeat=cols)
                if all(sum(m[i, j] * v[j] for j in range(cols)) % p == rhs[i]
                       for i in range(rows))]
        seen.add((rows == 0, x is None))
        if x is None:
            assert not sols
            continue
        assert x in sols and len(sols) == p ** ker.dim
        assert all(ker.contains_vector(field.pack([(a - b) % p for a, b in zip(v, x)]))
                   for v in sols)
        red, rank = rref_canonicalize(m)
        pivots = {next(j for j in range(cols) if red[i, j]) for i in range(rank)}
        assert all(x[j] == 0 for j in range(cols) if j not in pivots)
    assert seen == {(True, False), (False, False), (False, True)}


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


def test_enumerate_complements_requires_the_rest_at_the_second():
    # <e_1, e_2> in F_2^4 has 2^4 complements: the first is priced by the
    # 2 x 2^2 choice rows and its tick, the other 15 once a second is
    # asked for
    u = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(GuardExceeded, match="estimated 9 iterations"):
        next(enumerate_complements(u, guard=Guard(8)))
    comps = enumerate_complements(u, guard=Guard(9))
    first = next(comps)
    assert first.intersect(u).dim == 0 and first.sum(u).dim == 4
    with pytest.raises(GuardExceeded, match="estimated 15 iterations"):
        next(comps)
    g = Guard(16)
    assert len(list(enumerate_complements(u, guard=g))) == 16 and g.used == 16


def test_a_skipped_complement_is_one_of_a_skipped_space():
    # chi_lawler's searches pass the masks of the maximal spaces of the
    # same dimension searched before: exactly the complements that meet
    # every one of them come out, in order, with every complement ticked
    rng = random.Random(29)
    for field, top in ((F2, 5), (F3, 4)):
        for n in range(top + 1):
            table = field.lines[n]
            for _ in range(12):
                subs = list(enumerate_subspaces(field, n, rng.randint(0, n)))
                u = rng.choice(subs)
                others = rng.sample(subs, rng.randint(1, min(3, len(subs))))
                g, kept = Guard(), Guard()
                want = [(w.rows, w.pivots) for w in enumerate_complements(u, guard=g)
                        if all(w.intersect(s).dim for s in others)]
                skip = [table.annihilator(s.rows) for s in others]
                got = [(w.rows, w.pivots)
                       for w in enumerate_complements(u, guard=kept, skip=skip)]
                assert got == want and kept.used == g.used, (field.p, u.rows)


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_the_zero_and_full_cases_take_the_general_path(field):
    # the empty product is one empty row tuple: no lines, or one subspace
    # that is required and ticked like any other
    g = Guard()
    assert list(projective_rows(field, 0, guard=g)) == [] and g.used == 0
    for n in range(4):
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        g = Guard()
        assert list(enumerate_subspaces(field, n, 0, guard=g)) == [zero] and g.used == 1
        for u, only in ((zero, full), (full, zero)):
            g = Guard()
            comps = list(enumerate_complements(u, guard=g))
            assert [(c.rows, c.pivots) for c in comps] == [(only.rows, only.pivots)]
            assert g.used == 1
            spent = Guard(5)
            spent.tick(5)
            with pytest.raises(GuardExceeded, match="estimated 1 iterations, 0 remaining of 5"):
                list(enumerate_complements(u, guard=spent))


def test_guard_exceeded():
    with pytest.raises(GuardExceeded):
        list(enumerate_subspaces(F3, 5, 2, guard=Guard(10)))


def test_a_huge_estimate_exceeds_the_guard():
    # 2^15000 has 4,516 digits, past the interpreter's int-to-str limit
    with pytest.raises(GuardExceeded, match=r"estimated at least 2\^15000 iterations"):
        Guard(10).require(2**15000)


def test_projective_rows_count():
    for f, n in [(F2, 3), (F3, 3), (F5, 2)]:
        reps = [f.unpack(v, n) for v in projective_rows(f, n)]
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


def test_matrix_indices_are_checked():
    # a packed row reads 0 past its last lane, so the indices are checked
    m = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert (m[1, 1], m.col(1)) == (1, (2, 1))
    for ij in ((0, 2), (2, 0), (0, -1), (-1, 0)):
        with pytest.raises(IndexError):
            m[ij]
    for j in (2, -1):
        with pytest.raises(IndexError):
            m.col(j)


def _random_rows(rng, f, k, n):
    return [tuple(rng.randrange(f.p) for _ in range(n)) for _ in range(k)]


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


def test_a_form_rows_kernel_is_one_reduction(monkeypatch):
    """The kernel of several vectors reduces their stacked cached rows once
    and is written from that RREF; the kernel of one cached vector reduces
    nothing, and kernel(m) of the stacked products reduces once."""
    rng = random.Random(21)
    inner = ffield._rref_rows
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    for field, n, m in [(F2, 5, 6), (F3, 4, 5), (F5, 6, 3)]:
        mats = [Matrix(field, n, m, [rng.randrange(field.p) for _ in range(n * m)])
                for _ in range(3)]
        vectors = [[rng.randrange(field.p) for _ in range(n)] for _ in range(3)]
        packed = [field.pack(w) for w in vectors]
        forms = FormRows(field, n, m, mats)
        for w in packed:
            forms.rows(w)
        monkeypatch.setattr(ffield, "_rref_rows", counting)
        calls.clear()
        got = forms.kernel(packed)
        assert calls == [m]
        one = forms.kernel(packed[:1])
        assert calls == [m]
        products = [Matrix(field, 1, n, w) @ a for w in vectors for a in mats]
        stacked = vstack(*products)
        calls.clear()
        assert got == kernel(stacked)
        assert calls == [m]
        monkeypatch.undo()
        assert one == kernel(vstack(*products[:3]))


# ------------------------------------------------------------ line tables

def test_a_line_table_holds_the_lines_in_projective_order(monkeypatch):
    tables = []
    for field, n in [(F2, 0), (F2, 1), (F2, 5), (F3, 4), (F5, 3), (PrimeField(251), 1)]:
        tables.append(field.lines[n])
        assert field.lines[n] is tables[-1] and tables[-1].n == n
    monkeypatch.setattr(ffield, "RESIDUE_BITS", 0)
    tables.append(ffield.LineTable(F3, 3))
    monkeypatch.undo()
    for table in tables:
        field, n = table.field, table.n
        assert list(table.lines) == list(projective_rows(field, n))
        assert table.full == (1 << len(table.lines)) - 1
        # only a table without residue tables reads kernels' lines by index
        if table._low is None:
            assert all(table.index[v] == i for i, v in enumerate(table.lines))
        else:
            assert table.index is None
        # the lead-column blocks partition the lines, each block a run
        union = 0
        for c, block in enumerate(table.blocks):
            assert union & block == 0
            union |= block
            members = [i for i in range(len(table.lines)) if block >> i & 1]
            assert members == list(range(members[0], members[-1] + 1))
            for i in members:
                v = field.unpack(table.lines[i], n)
                assert v[:c] == (0,) * c and v[c] == 1
        assert union == table.full
        for j, col in enumerate(table.coords):
            for a, mask in enumerate(col):
                assert mask == sum(1 << i for i, v in enumerate(table.lines)
                                   if field.unpack(v, n)[j] == a)


def test_a_line_s_child_mask_is_the_lines_led_after_it_where_it_is_zero():
    # row_blocks()[v] holds the lines u whose lead column c lies after v's
    # lead with v_c = 0, read off the unpacked rows; F^0 has no lines
    for field, top in [(F2, 6), (F3, 5), (F5, 3)]:
        for n in range(top + 1):
            table = field.lines[n]
            rows = [field.unpack(v, n) for v in table.lines]
            leads = [next(c for c, e in enumerate(r) if e) for r in rows]
            after = table.row_blocks()
            assert sorted(after) == sorted(table.lines) and table.row_blocks() is after
            for v, r, lead in zip(table.lines, rows, leads):
                want = sum(1 << i for i, c in enumerate(leads) if c > lead and r[c] == 0)
                assert after[v] == want, (field, r)


def test_a_hyperplane_is_the_lines_orthogonal_to_its_row():
    for field, top in [(F2, 4), (F3, 4), (F5, 3)]:
        for n in range(1, top + 1):
            table = field.lines[n]
            vectors = [field.unpack(v, n) for v in table.lines]
            for r in product(range(field.p), repeat=n):
                if any(r):
                    scan = sum(1 << i for i, u in enumerate(vectors)
                               if sum(a * b for a, b in zip(r, u)) % field.p == 0)
                    assert table.annihilator((field.pack(r),)) == scan, (field, r)


def test_masks_without_residue_tables_are_the_sliced_masks(monkeypatch):
    # with no residue tables a mask comes from the residue adder over its
    # rows or from the lines of its kernel, as LINE_WORDS weighs them;
    # either gives the mask of the sliced tables
    rng = random.Random(28)
    for field, n in [(F2, 5), (F3, 4), (F5, 3), (PrimeField(7), 3)]:
        sliced = ffield.LineTable(field, n)
        monkeypatch.setattr(ffield, "RESIDUE_BITS", 0)
        bare = ffield.LineTable(field, n)
        monkeypatch.undo()
        assert bare.lines == sliced.lines and bare.coords == sliced.coords
        spaces = [Subspace.from_vectors(field, n, [[rng.randrange(field.p) for _ in range(n)]
                                                   for _ in range(rng.randint(1, n))])
                  for _ in range(30)]
        rows = [field.pack(r) for r in product(range(field.p), repeat=n)]
        for line_words in (1, 40, 10**9):      # kernel lines always, mixed, adder always
            monkeypatch.setattr(ffield, "LINE_WORDS", line_words)
            assert ([bare.annihilator((r,)) for r in rows]
                    == [sliced.annihilator((r,)) for r in rows])
            for u in spaces:
                assert bare.annihilator(u.rows) == sliced.annihilator(u.rows), (field, u)
            assert bare.annihilator(()) == bare.full
        monkeypatch.undo()


def test_a_large_field_builds_its_masks_from_their_rows():
    # the residue tables of F_101^3 would hold 10^10 bits: the table keeps
    # its lines and coordinates, and each mask is read off its rows
    field = PrimeField(101)
    table = field.lines[3]
    assert len(table.lines) == 10303 and table.words == 161
    vectors = [field.unpack(v, 3) for v in table.lines]
    rng = random.Random(101)
    for _ in range(3):
        r = [rng.randrange(101) for _ in range(3)]
        scan = sum(1 << i for i, u in enumerate(vectors)
                   if sum(a * b for a, b in zip(r, u)) % 101 == 0)
        assert table.annihilator((field.pack(r),)) == scan
        assert scan.bit_count() == (102 if any(r) else 10303)
    for d in (1, 2, 3):
        u = Subspace.from_vectors(field, 3, [[rng.randrange(101) for _ in range(3)]
                                             for _ in range(d)])
        want = sum(1 << i for i, v in enumerate(vectors)
                   if all(sum(a * b for a, b in zip(field.unpack(r, 3), v)) % 101 == 0
                          for r in u.rows))
        assert table.annihilator(u.rows) == want
        assert want.bit_count() == (101**(3 - u.dim) - 1) // 100


def test_a_line_mask_is_the_lines_of_the_line_kernel():
    # on alternating maps, on a square map that is not alternating and on
    # a rectangular one, the mask of every line of F^n is the lines of
    # its kernel in F^m
    from isospace.bipartite import MatrixSpace, ncrk_pad_square
    from util import random_matrix_space, random_space

    def check(forms, field, n, m):
        table = field.lines[m]
        for v in field.lines[n].lines:
            kernel = forms.kernel([v])
            want = sum(1 << i for i, u in enumerate(table.lines)
                       if kernel.contains_vector(u))
            assert forms.line_masks()[v] == want, (field, v)
            assert forms.line_masks()[v] is forms.line_masks()[v]
        return forms

    rng = random.Random(27)
    for field, n, m in [(F2, 5, 1), (F2, 6, 3), (F3, 4, 2), (F3, 5, 0), (F5, 3, 1)]:
        for _ in range(3):
            check(FormRows(field, n, n, random_space(rng, field, n, m).basis), field, n, n)
    # padded <(0 1)> is <E_11, E_12, E_22>, read through transposes as the
    # ncrk scan reads a square space: e_2's kernel is 0, not its own line
    e12 = Matrix.from_rows(F2, [[0, 1]])
    padded = ncrk_pad_square(MatrixSpace.from_generators(F2, 1, 2, [e12]))
    forms = check(FormRows(F2, 2, 2, [x.transpose() for x in padded.basis]), F2, 2, 2)
    assert forms.line_masks()[F2.pack((0, 1))] == 0
    for k in (1, 2):
        b = random_matrix_space(rng, F3, 2, 4, k)
        check(FormRows(F3, 2, 4, b.basis), F3, 2, 4)
