import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from isospace import ffield, isotropic
from isospace.altspace import (AltMatrixSpace, form_rows, is_isotropic, max_degree, rad_of,
                               restrict)
from isospace.bipartite import ncrk_witness_pair
from isospace.errors import Guard, GuardExceeded
from isospace.ffield import (FormRows, Matrix, PrimeField, Subspace, enumerate_subspaces,
                             gaussian_binomial, projective_rows)
from isospace.graphs import Graph, space_from_graph
from isospace.isotropic import (alpha_exact, chi_brute, chi_lawler,
                                chi_maxcover, enumerate_isotropic_lattice,
                                enumerate_maximal_branch,
                                enumerate_maximal_filter,
                                greedy_deg_decomposition, greedy_maximal,
                                greedy_part_bound, has_isotropic_dim2,
                                isotropic_count_formula,
                                two_decomposition_brute,
                                validate_decomposition)
from util import (F2, F3, K4_PENDANT, every_space, lattice_reference, random_graph,
                  random_matrix_space, random_space, symplectic_form)


def k3(field=F2):
    return space_from_graph(Graph.complete(3), field)


def sympl(field, n):
    return AltMatrixSpace(field, n, [symplectic_form(field, n)])


# ------------------------------------------------------------- greedy maximal

def test_greedy_maximal_zero_space():
    assert greedy_maximal(AltMatrixSpace.zero_space(F3, 4)) == Subspace.full(F3, 4)


def test_greedy_maximal_symplectic():
    u = greedy_maximal(sympl(F2, 4))
    assert u.dim == 2


def test_greedy_maximal_k3():
    u = greedy_maximal(k3())
    assert u.basis_rows() == [(1, 0, 0)]


def test_greedy_maximal_fixed_point():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        sp = random_space(rng, rng.choice([F2, F3]), n, rng.randint(0, 4))
        u = greedy_maximal(sp)
        assert rad_of(sp, u) == u


# ---------------------------------------------------------------- the lattice

def test_lattice_zero_space_f2_2():
    lat = enumerate_isotropic_lattice(AltMatrixSpace.zero_space(F2, 2))
    assert lat.count() == 5  # 1 + 3 + 1


def test_lattice_symplectic_2():
    lat = enumerate_isotropic_lattice(sympl(F2, 2))
    assert [len(l) for l in lat.levels] == [1, 3]


def test_lattice_symplectic_4_dim2_count():
    lat = enumerate_isotropic_lattice(sympl(F2, 4))
    assert len(lat.levels[2]) == 15 == isotropic_count_formula(4, 2, 2)


def test_lattice_counts_against_subspace_filter():
    # independent oracle: filter all subspaces by the isotropy test
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        g = Guard()
        lat = enumerate_isotropic_lattice(sp, guard=g)
        iso = [u for u in enumerate_subspaces(f, n) if is_isotropic(sp, u)]
        brute = {u.key() for u in iso}
        assert {u.key() for u in lat.all_spaces()} == brute
        # each space comes out once, with one tick for each nonzero one
        assert lat.count() == len(brute)
        assert g.used == lat.count() - 1
        # the recorded maximal spaces: those no other isotropic space
        # strictly contains, found without a radical
        assert {u.key() for u in lat.maximal()} == {
            u.key() for u in iso if not any(w.dim > u.dim and w.contains(u) for w in iso)}


def test_the_first_level_is_required_before_f_n_is_built():
    # F^n, the lines' unit rows, takes about 17 MB at n = 8,000 over F_3;
    # the projective lines and the lattice's first level both require
    # their (p^n - 1)/(p - 1) lines before building it
    space = AltMatrixSpace.zero_space(F3, 8000)
    for call in (lambda g: list(projective_rows(F3, 8000, guard=g)),
                 lambda g: enumerate_isotropic_lattice(space, guard=g)):
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                call(Guard(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_lattice_guard():
    with pytest.raises(GuardExceeded):
        enumerate_isotropic_lattice(AltMatrixSpace.zero_space(F3, 6),
                                    guard=Guard(100))
    # the children of each U are counted against the guard before the first
    # is built, so a space far beyond the budget fails before any work
    g = Guard()
    with pytest.raises(GuardExceeded):
        enumerate_isotropic_lattice(AltMatrixSpace.zero_space(F2, 40), guard=g)
    assert g.used == 0


def test_the_first_level_is_required_before_the_line_table_is_built():
    # a fresh field has no line table yet; one tick short of the 121 lines
    # of F_3^5, the lattice trips before the table of (3, 5) exists
    field = PrimeField(3)
    space = random_space(random.Random(4), field, 5, 2)
    g = Guard(120)
    with pytest.raises(GuardExceeded, match="estimated 121 iterations"):
        enumerate_isotropic_lattice(space, guard=g)
    assert g.used == 0 and 5 not in field.lines
    enumerate_isotropic_lattice(space, guard=Guard(121 + 10**4))
    assert 5 in field.lines


def test_the_mask_lattice_reduces_no_row(monkeypatch):
    inner, calls = ffield._rref_rows, []

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for space in (random_space(random.Random(8), F3, 5, 1), sympl(F2, 6)):
        form_rows.cache_clear()
        monkeypatch.setattr(ffield, "_rref_rows", counting)
        lat = enumerate_isotropic_lattice(space)
        monkeypatch.undo()
        assert lat.count() > 100 and calls == []


def test_the_line_mask_budget_counts_lines(monkeypatch):
    # F_3^5 has 121 lines, so the lattice keeps 121 masks of 121 bits: a
    # budget of 121^2 bits reads its radicals off masks, one bit less
    # reduces rows
    inner, calls = ffield._rref_rows, []

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    space = random_space(random.Random(8), F3, 5, 1)
    seen = []
    for bits in (121**2, 121**2 - 1):
        form_rows.cache_clear()
        calls.clear()
        monkeypatch.setattr(ffield, "RESIDUE_BITS", bits)
        monkeypatch.setattr(ffield, "_rref_rows", counting)
        count = enumerate_isotropic_lattice(space).count()
        monkeypatch.undo()
        seen.append((count, len(calls) > 0))
    assert seen[0][0] == seen[1][0] > 100 and [s[1] for s in seen] == [False, True]


def _lattice_record(space, limit=None):
    """The levels and the maximal spaces, each space as (rows, pivots), and
    the guard ticks; or the GuardExceeded message and the ticks."""
    g = Guard() if limit is None else Guard(limit)
    try:
        lat = enumerate_isotropic_lattice(space, guard=g)
    except GuardExceeded as exc:
        return str(exc), g.used
    return ([[(u.rows, u.pivots) for u in level] for level in lat.levels],
            [(u.rows, u.pivots) for u in lat.maximal()], g.used)


@st.composite
def lattice_spaces(draw):
    """Up to 4 random forms on F^n, F_2 with n <= 6 or F_3 with n <= 5,
    whose last `pad` coordinates lie in the radical."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(0, 6 if field.p == 2 else 5))
    pad = draw(st.integers(0, n))
    core = random_space(draw(st.randoms(use_true_random=False)), field, n - pad,
                        draw(st.integers(0, 4)))
    return AltMatrixSpace.from_generators(field, n, [
        Matrix.from_rows(field, [a.row(i) + (0,) * pad for i in range(n - pad)]
                         + [(0,) * n] * pad) for a in core.basis])


@settings(max_examples=60, deadline=None)
@given(lattice_spaces())
@example(random_space(random.Random(5), PrimeField(5), 4, 2))
@example(AltMatrixSpace.zero_space(F3, 4))
@example(AltMatrixSpace.zero_space(F2, 0))
def test_the_mask_lattice_is_the_kernel_lattice(space):
    # with no bits for line masks (not even the none of F^0) every radical
    # is a kernel of U's rows; the levels, maximal spaces, ticks and guard
    # trips stay the same
    full = _lattice_record(space)
    used = full[-1]
    short = [_lattice_record(space, used - 1), _lattice_record(space, used // 2)]
    assert isinstance(short[0][0], str)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "RESIDUE_BITS", -1)
        assert _lattice_record(space) == full
        assert [_lattice_record(space, used - 1), _lattice_record(space, used // 2)] == short


@settings(max_examples=40, deadline=None)
@given(lattice_spaces(), st.booleans())
@example(sympl(F2, 6), True)
@example(sympl(F3, 4), False)
def test_the_lattice_is_the_reference_search(space, masks):
    # the levels, the maximal spaces in level order and the ticks of a plain
    # search over Subspaces, on the mask source and on the kernel source
    # (no bits for line masks)
    ref = Guard()
    levels, maximal = lattice_reference(space, ref)
    with pytest.MonkeyPatch.context() as mp:
        if not masks:
            mp.setattr(ffield, "RESIDUE_BITS", -1)
        assert ffield.line_masks_pay(space.field.p, space.n) == masks
        form_rows.cache_clear()     # walk, not replay an earlier example's rows
        g = Guard()
        lat = enumerate_isotropic_lattice(space, guard=g)
    assert [[u.rows for u in level] for level in levels] == [list(l) for l in lat.level_rows]
    assert [u.rows for u in maximal] == list(lat.maximal_rows) and g.used == ref.used
    assert [list(level) for level in lat.levels] == levels
    assert list(lat.maximal()) == maximal
    assert [[u.pivots for u in level] for level in lat.levels] == [
        [u.pivots for u in level] for level in levels]


def test_the_walk_builds_no_subspace_until_one_is_read(monkeypatch):
    # a node is its tuple of RREF rows: the mask walk builds no Subspace,
    # alpha_exact builds its witness alone, and levels builds each space
    # once, on its first read
    built, inner = [], Subspace.__init__

    def counting(self, *args):
        built.append(args)
        inner(self, *args)

    space = random_space(random.Random(8), F3, 5, 1)
    monkeypatch.setattr(Subspace, "__init__", counting)
    lat = enumerate_isotropic_lattice(space)
    assert built == [] and lat.count() > 100
    alpha_exact(space)
    assert len(built) == 1
    built.clear()
    levels = lat.levels
    assert len(built) == lat.count() and lat.levels is levels
    lat.maximal()
    assert len(built) == lat.count() + len(lat.maximal_rows)


def test_without_residue_tables_the_scans_reduce_rows(monkeypatch):
    # F_31^3 and F_89^3 have no residue tables, so line masks do not pay:
    # the lattice builds no line mask and no line table, and gives the levels, maximal spaces
    # and ticks it gives with masks forced on it; the ncrk scan ranks rows
    built, ranks = [], []
    handing, ranking = FormRows.line_masks, FormRows.rank

    def handed(self):
        out = handing(self)
        if out is not None:
            built.append(out)
        return out

    def counting(self, arg):
        ranks.append(arg)
        return ranking(self, arg)

    monkeypatch.setattr(FormRows, "line_masks", handed)
    monkeypatch.setattr(FormRows, "rank", counting)
    for p in (31, 89):
        field = PrimeField(p)
        assert not ffield._tables_fit(p, 3)
        space = random_space(random.Random(0), field, 3, 1)
        record = _lattice_record(space)
        assert built == [] and field.lines == {} and record[-1] > 1000
        if p == 31:     # forced masks take 0.5 s on F_89^3
            form_rows.cache_clear()     # the map keeps the lattice just built
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ffield, "line_masks_pay", lambda p, n: True)
                assert _lattice_record(space) == record and built
        ncrk_witness_pair(random_matrix_space(random.Random(0), field, 3, 3, 1))
        assert ranks
        built.clear()
        ranks.clear()


def test_the_lattice_oracles_of_one_space_share_one_walk(monkeypatch):
    # alpha_exact, chi_brute, two_decomposition_brute and
    # enumerate_maximal_filter walk the lattice of one space once between
    # them, and chi_lawler's top search then walks none; that each answers
    # and ticks as alone is test_the_lattice_oracles_in_any_order_answer_as_alone
    built, inner = [], isotropic.IsotropicLattice.__init__

    def counting(self, field, n, level_rows, maximal_rows):
        built.append(level_rows)    # a walk builds new rows, a replay reads kept ones
        inner(self, field, n, level_rows, maximal_rows)

    def walks():
        return len({id(rows) for rows in built})

    monkeypatch.setattr(isotropic.IsotropicLattice, "__init__", counting)
    form_rows.cache_clear()
    chi_lawler(K4_PENDANT)
    lawler_walks = walks()
    assert lawler_walks > 1
    form_rows.cache_clear()
    built.clear()
    for oracle in (alpha_exact, chi_brute, two_decomposition_brute, enumerate_maximal_filter):
        oracle(K4_PENDANT)
    assert len(built) == 4 and walks() == 1
    chi_lawler(K4_PENDANT)
    assert walks() == 1 + (lawler_walks - 1)


def test_a_guard_short_of_the_kept_walk_trips_as_a_first_walk():
    # one tick short of the kept lattice's cost, the walk runs again and
    # trips with a first walk's message and ticks, and keeps nothing; a
    # guard with exactly the cost left replays it
    space = random_space(random.Random(8), F3, 5, 1)
    form_rows.cache_clear()
    full = _lattice_record(space)
    cost = full[-1]
    for used in (0, 7):
        g = Guard(cost - 1 + used)
        g.used = used
        with pytest.raises(GuardExceeded) as kept:
            enumerate_isotropic_lattice(space, guard=g)
        assert form_rows(space).lattice is None
        tripped = str(kept.value), g.used
        form_rows.cache_clear()
        g = Guard(cost - 1 + used)
        g.used = used
        with pytest.raises(GuardExceeded) as fresh:
            enumerate_isotropic_lattice(space, guard=g)
        assert tripped == (str(fresh.value), g.used)
        assert _lattice_record(space) == full
    rows = form_rows(space).lattice[0]
    g = Guard(cost + 7)
    g.used = 7
    assert enumerate_isotropic_lattice(space, guard=g).level_rows is rows
    assert g.used == cost + 7


def test_the_map_of_another_space_drops_the_kept_lattice_before_its_walk():
    # form_rows keeps one map, and the kept rows go with it: when the walk
    # of another space first ticks, nothing but this test holds the first
    # space's rows
    first, other = random_space(random.Random(8), F3, 5, 1), sympl(F2, 6)
    form_rows.cache_clear()
    rows = enumerate_isotropic_lattice(first).level_rows
    assert form_rows(first).lattice[0] is rows
    held, seen = sys.getrefcount(rows), []

    class Watching(Guard):
        def tick(self, k=1):
            seen.append(sys.getrefcount(rows))
            super().tick(k)

    enumerate_isotropic_lattice(other, guard=Watching())
    assert seen and set(seen) == {held - 1}
    assert form_rows(other).lattice is not None


# ----------------------------------------------------- maximal: filter, branch

def test_maximal_zero_space():
    out = enumerate_maximal_filter(AltMatrixSpace.zero_space(F3, 3))
    assert len(out) == 1 and out[0] == Subspace.full(F3, 3)
    out = enumerate_maximal_branch(AltMatrixSpace.zero_space(F3, 3))
    assert len(out) == 1 and out[0] == Subspace.full(F3, 3)


def test_maximal_symplectic_4():
    mf = enumerate_maximal_filter(sympl(F2, 4))
    mb = enumerate_maximal_branch(sympl(F2, 4))
    assert len(mf) == 15 and all(u.dim == 2 for u in mf)
    assert {u.key() for u in mb} == {u.key() for u in mf}


def test_maximal_k3():
    out = enumerate_maximal_filter(k3())
    assert len(out) == 7 and all(u.dim == 1 for u in out)


def test_branch_equals_filter_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        sp = random_space(rng, F2, n, rng.randint(0, 6))
        s1 = {u.key() for u in enumerate_maximal_filter(sp)}
        s2 = {u.key() for u in enumerate_maximal_branch(sp)}
        assert s1 == s2


def test_branch_equals_filter_f3():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(1, 4)
        sp = random_space(rng, F3, n, rng.randint(0, 4))
        assert ({u.key() for u in enumerate_maximal_filter(sp)}
                == {u.key() for u in enumerate_maximal_branch(sp)})


def test_every_lift_from_the_radical_of_a_line_is_maximal():
    # why enumerate_maximal_branch keeps every lift untested: w lies in
    # the radical of A|_rad(w), so a maximal M there contains w, and its
    # lift through rad(w) is isotropic and equal to its own radical
    rng = random.Random(34)
    lifts = 0
    for field, top in [(F2, 5), (F3, 4)]:
        for _ in range(40):
            n = rng.randint(1, top)
            sp = random_space(rng, field, n, rng.randint(0, n))
            for w in projective_rows(field, n):
                rw = rad_of(sp, field.unpack(w, n))
                for m in enumerate_maximal_filter(restrict(sp, rw)):
                    lift = m.image(rw)
                    assert lift.contains_vector(w) and is_isotropic(sp, lift)
                    assert rad_of(sp, lift) == lift
                    lifts += 1
    assert lifts > 1000


def test_the_branch_enumeration_ranks_single_vectors_only(monkeypatch):
    # its one rank is deg(v) in the minimum-degree sweep: no lift is
    # ranked for maximality, which the lemma above gives
    sizes = []
    rank = FormRows.rank

    def recording(self, vectors):
        sizes.append(len(vectors))
        return rank(self, vectors)

    monkeypatch.setattr(FormRows, "rank", recording)
    rng = random.Random(35)
    for field, n in [(F2, 4), (F2, 5), (F3, 4)]:
        for _ in range(3):
            enumerate_maximal_branch(random_space(rng, field, n, rng.randint(1, n)))
    enumerate_maximal_branch(sympl(F2, 4))
    assert sizes and set(sizes) == {1}


# ------------------------------------------------------------------- alpha

def test_alpha_zero_space():
    a, wit = alpha_exact(AltMatrixSpace.zero_space(F2, 4))
    assert a == 4 and wit == Subspace.full(F2, 4)


def test_alpha_graph_examples():
    assert alpha_exact(k3())[0] == 1
    p3 = space_from_graph(Graph.path(3), F2)
    assert alpha_exact(p3)[0] == 2


def test_alpha_monotone_under_nested_spans():
    # adding forms can only shrink isotropic spaces
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        small = random_space(rng, f, n, rng.randint(0, 2))
        big = AltMatrixSpace.from_generators(
            f, n, list(small.basis)
            + [m for m in random_space(rng, f, n, 1).basis])
        assert alpha_exact(big)[0] <= alpha_exact(small)[0]


# --------------------------------------------------------------------- chi

def test_chi_zero_space():
    for fn in (lambda s: chi_brute(s)[0], lambda s: chi_lawler(s)[0], chi_maxcover):
        assert fn(AltMatrixSpace.zero_space(F3, 3)) == 1


def test_chi_k3():
    assert chi_brute(k3())[0] == 3
    assert chi_lawler(k3())[0] == 3
    assert chi_maxcover(k3()) == 3


def test_chi_c5():
    c5 = space_from_graph(Graph.cycle(5), F2)
    assert chi_brute(c5)[0] == 3


def test_chi_symplectic_4():
    assert chi_lawler(sympl(F2, 4))[0] == 2
    assert chi_maxcover(sympl(F2, 4)) == 2


def test_chi_certificates_validate():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        c1, parts1 = chi_brute(sp)
        c2, parts2 = chi_lawler(sp)
        validate_decomposition(sp, parts1)
        validate_decomposition(sp, parts2)
        assert len(parts1) == c1 and len(parts2) == c2


def test_chi_oracle_triangle_random():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        assert chi_brute(sp)[0] == chi_lawler(sp)[0] == chi_maxcover(sp)


def test_chi_oracle_triangle_graphs():
    rng = random.Random(43)
    from isospace.graphs import graph_chi_brute
    for _ in range(12):
        n = rng.randint(1, 5)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        for f in (F2, F3):
            sp = space_from_graph(g, f)
            c = graph_chi_brute(g)
            assert chi_brute(sp)[0] == chi_lawler(sp)[0] == chi_maxcover(sp) == c


# ---------------------------------------------------------- greedy deg bound

def test_greedy_deg_zero_space():
    parts = greedy_deg_decomposition(AltMatrixSpace.zero_space(F2, 5))
    assert len(parts) == 1 and parts[0] == Subspace.full(F2, 5)


def test_greedy_deg_symplectic_two_passes():
    for n in (2, 4, 6):
        sp = sympl(F2, n)
        parts = greedy_deg_decomposition(sp)
        validate_decomposition(sp, parts)
        assert len(parts) == 2


def test_greedy_deg_k3():
    parts = greedy_deg_decomposition(k3())
    validate_decomposition(k3(), parts)
    assert len(parts) == 3 and all(p.dim == 1 for p in parts)


def test_greedy_deg_bound_random():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 8)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 3))
        parts = greedy_deg_decomposition(sp)
        validate_decomposition(sp, parts)
        delta = max_degree(sp)
        if delta == 0:
            assert len(parts) == 1
        else:
            assert len(parts) <= greedy_part_bound(n, delta)


def test_greedy_part_bound_values():
    # Delta = 1 forces two passes on <J>, and the bound allows them
    assert greedy_part_bound(2, 1) == 2
    assert greedy_part_bound(1, 0) == 1
    assert greedy_part_bound(8, 0) == 1
    # shrink factor 1 - 1/(Delta+1): ceil(ln 8 / ln 2) + 1
    assert greedy_part_bound(8, 1) == 4


# ------------------------------------------------------------------- dim two

def test_dim2_zero_space():
    ok, wit = has_isotropic_dim2(AltMatrixSpace.zero_space(F2, 2))
    assert ok and wit is not None


def test_dim2_k3_false():
    assert has_isotropic_dim2(k3()) == (False, None)


def test_dim2_p3_witness():
    p3 = space_from_graph(Graph.path(3), F2)
    ok, (v, w) = has_isotropic_dim2(p3)
    assert ok
    u = Subspace.from_vectors(F2, 3, [v, w])
    assert u.dim == 2 and is_isotropic(p3, u)


def test_dim2_matches_alpha():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 4))
        assert has_isotropic_dim2(sp)[0] == (alpha_exact(sp)[0] >= 2)


# ------------------------------------------------------------ count formulas

def test_isotropic_count_formula_values():
    assert isotropic_count_formula(4, 0, 2) == 1
    assert isotropic_count_formula(4, 2, 2) == 15
    assert isotropic_count_formula(6, 3, 2) == 135
    assert isotropic_count_formula(6, 4, 2) == 0
    with pytest.raises(ValueError):
        isotropic_count_formula(3, 1, 2)


def test_isotropic_count_formula_vs_lattice():
    for q, f in ((2, F2), (3, F3)):
        for n in (2, 4):
            lat = enumerate_isotropic_lattice(sympl(f, n))
            for d in range(n // 2 + 1):
                got = len(lat.levels[d]) if d < len(lat.levels) else 0
                assert got == isotropic_count_formula(n, d, q)


@pytest.mark.parametrize("field, n", [(F2, 3), (F3, 3), (F2, 4)], ids=["F2-3", "F3-3", "F2-4"])
def test_lattice_levels_summed_over_every_space_match_the_closed_form(field, n):
    """Sum over every S <= Lambda(n, q) of #{isotropic U of dim d} =
    [n, d]_q * sum_k [N - d(d-1)/2, k]_q, N = n(n-1)/2: each U of dim d is
    isotropic for exactly the subspaces of the forms vanishing on U x U, a
    subspace of codimension d(d-1)/2."""
    q, big = field.p, n * (n - 1) // 2
    totals = [0] * (n + 1)
    for space in every_space(field, n):
        for d, level in enumerate(enumerate_isotropic_lattice(space).levels):
            totals[d] += len(level)
    assert totals == [
        gaussian_binomial(n, d, q) * sum(gaussian_binomial(big - d * (d - 1) // 2, k, q)
                                         for k in range(big - d * (d - 1) // 2 + 1))
        for d in range(n + 1)]


def test_two_decomposition_brute():
    assert two_decomposition_brute(k3(F3)) is None
    pair = two_decomposition_brute(sympl(F3, 2))
    assert pair is not None
    u1, u2 = pair
    sp = sympl(F3, 2)
    assert is_isotropic(sp, u1) and is_isotropic(sp, u2)
    assert u1.sum(u2).dim == 2 and u1.dim + u2.dim == 2


def test_two_decomposition_brute_scans_lattice_pairs_within_a_small_guard():
    # the pairs come from the lattice, so the seed-0 F_3^6 space of two forms
    # decomposes in a few thousand ticks, not millions of complements
    sp = random_space(random.Random(0), F3, 6, 2)
    g = Guard(10**5)
    pair = two_decomposition_brute(sp, guard=g)
    assert pair is not None
    validate_decomposition(sp, list(pair))
    assert g.used < 10**5


def test_maximal_count_thm18_slack():
    # log_q(#maximal) <= n^2/6 + 6n on random instances
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 5)
        f = rng.choice([F2, F3])
        sp = random_space(rng, f, n, rng.randint(0, 4))
        cnt = len(enumerate_maximal_filter(sp))
        assert math.log(cnt, f.p) <= n * n / 6.0 + 6 * n


def test_chi_brute_builds_only_the_masks_it_reads(monkeypatch):
    # a candidate's mask is built when the search first reads it, so the
    # candidates skipped by dimension or never reached cost no mask; a
    # partial sum is the AND of its parts' masks and builds none
    rng = random.Random(1)
    built = []
    inner = ffield.LineTable.annihilator

    def counting(self, rows):
        built.append(rows)
        return inner(self, rows)

    monkeypatch.setattr(ffield.LineTable, "annihilator", counting)
    counts = []
    for n, field in ((5, F2), (6, F2), (6, F2), (5, F3), (4, F3)):
        sp = space_from_graph(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                        if rng.random() < 0.5]), field)
        candidates = enumerate_isotropic_lattice(sp).count() - 1
        built.clear()
        chi_brute(sp)
        assert len(built) < candidates
        counts.append(len(built))
    assert counts == [8, 6, 22, 72, 11]


def test_the_span_searches_make_no_join_once_the_lattice_is_built(monkeypatch):
    # chi_maxcover and chi_brute join spans as masks of lines alone, so
    # they answer with Subspace.sum refused once their lattice is built
    rng = random.Random(28)
    spaces = [random_space(rng, (F2, F3)[k % 2], rng.randint(2, 5 - k % 2),
                           rng.randint(1, 4)) for k in range(16)]
    spaces = [sp for sp in spaces if sp.dim > 0]     # chi >= 2: the searches join
    want = [(chi_maxcover(sp), chi_brute(sp)) for sp in spaces]
    joined, lattice, built = Subspace.sum, isotropic.enumerate_isotropic_lattice, []

    def refuse(self, other):
        raise AssertionError("Subspace.sum after the lattice")

    def lattice_then_no_sum(space, guard=None):
        built.append(space)
        lat = lattice(space, guard=guard)
        monkeypatch.setattr(Subspace, "sum", refuse)
        return lat

    monkeypatch.setattr(isotropic, "enumerate_isotropic_lattice", lattice_then_no_sum)
    for sp, (c, brute) in zip(spaces, want):
        assert c >= 2
        got = chi_maxcover(sp)
        monkeypatch.setattr(Subspace, "sum", joined)
        assert got == c
        got = chi_brute(sp)
        monkeypatch.setattr(Subspace, "sum", joined)
        assert got == brute and brute[0] == c
    assert len(built) == 2 * len(spaces)


def test_the_span_searches_answer_on_a_large_field():
    # neither F_101^3 nor F_89^3 has residue tables (about 10^9 bits or
    # more), so the lattice reads radicals off kernels and the span searches
    # build their masks without tables; every search answers, also within a
    # small guard (a chi_lawler search answers from its split scan, which
    # builds only the masks it reads)
    for field, forms in ((PrimeField(101), 1), (PrimeField(101), 2), (PrimeField(89), 1)):
        sp = random_space(random.Random(0), field, 3, forms)
        for chi in (chi_brute, chi_lawler):
            c, parts = chi(sp, guard=Guard(10**5))
            validate_decomposition(sp, parts)
            assert c == len(parts) == 2
        if forms == 1:      # 2 forms: the next test
            assert chi_maxcover(sp) == 2
        pair = two_decomposition_brute(sp, guard=Guard(10**5))
        validate_decomposition(sp, list(pair))
    assert alpha_exact(sp)[0] == 2


def test_the_masks_a_search_keeps_are_required_from_the_guard(monkeypatch):
    # chi_maxcover on F_101^3 with 2 forms keeps 10,202 masks of 161 words,
    # past a guard of 10^5: it stops before building them
    sp = random_space(random.Random(0), PrimeField(101), 3, 2)
    mi = enumerate_maximal_filter(sp)
    assert len(mi) * PrimeField(101).lines[3].words > 10**5
    built = []
    inner = ffield.LineTable.annihilator

    def counting(self, rows):
        built.append(rows)
        return inner(self, rows)

    monkeypatch.setattr(ffield.LineTable, "annihilator", counting)
    with pytest.raises(GuardExceeded, match="estimated 1642522 mask words, 100000 remaining"):
        chi_maxcover(sp, guard=Guard(10**5), mi=mi)
    assert built == []
    assert chi_maxcover(sp, mi=mi) == 2
    assert len(built) == len(mi)


# ------------------------------------------------------- the Lawler memo

def test_chi_lawler_solves_each_restriction_once(monkeypatch):
    # the search at U depends on A|_U alone, so no restricted space is
    # enumerated twice within one call; the zero space answers without a
    # lattice
    from test_acceptance import random_space_suite_lam4
    seen = []
    inner = isotropic.enumerate_isotropic_lattice

    def recording(sub, guard=None):
        seen.append((sub.field.p, sub.n, tuple(m.entries for m in sub.basis)))
        return inner(sub, guard=guard)

    monkeypatch.setattr(isotropic, "enumerate_isotropic_lattice", recording)
    for _, sp in random_space_suite_lam4():
        seen.clear()
        chi_lawler(sp)
        assert len(seen) == len(set(seen)), sp
        assert bool(seen) == (sp.dim > 0), sp


def _chi3_lb2_spaces():
    # the criterion-04/05 spaces whose top search has lower bound
    # ceil(n / alpha) = 2 but chi = 3
    from test_acceptance import random_space_suite_lam4, random_space_suite_lam5
    spaces = [sp for _, sp in random_space_suite_lam4()] + random_space_suite_lam5()
    return [sp for sp in spaces
            if -(-sp.n // alpha_exact(sp)[0]) == 2 and chi_lawler(sp)[0] == 3]


def _walking_spaces():
    # inputs whose top search finds no lb-decomposition and walks: the
    # seven chi-3 spaces of bound 2, K_4 with a pendant vertex (bound 3,
    # chi 4) and K_4 plus two isolated vertices (alpha 3, bound 2, chi 4)
    k4 = list(Graph.complete(4).edges)
    return _chi3_lb2_spaces() + [space_from_graph(Graph(5, k4 + [(3, 4)]), F2),
                                 space_from_graph(Graph(6, k4), F2)]


def test_chi_lawler_keys_each_complement_once_per_search(monkeypatch):
    # each search has its own FormRows and skips a complement it has
    # already tried, so no (search, complement) pair is keyed twice.  The
    # skip comes inside enumerate_complements, so every complement that
    # comes out is keyed, and nothing else is: the whole space is searched
    # unkeyed.  8,873 ticks: 239 over the seven chi-3 spaces and 548 for
    # K_4 with a pendant vertex, whose top searches stop at the first
    # complement that reaches lb + 1, and 8,086 for K_4 plus two isolated
    # vertices, whose top search (chi = lb + 2) never reaches lb + 1 and
    # tries every V that could still beat its best; its searches key 960
    # complements
    spaces = _walking_spaces()
    keyed, yields = [], []
    inner, complements = FormRows.restriction, isotropic.enumerate_complements

    def recording(self, rows):
        keyed.append((self, rows))
        return inner(self, rows)

    def yielding(u, **kwargs):
        for w in complements(u, **kwargs):
            yields.append(w)
            yield w

    monkeypatch.setattr(FormRows, "restriction", recording)
    monkeypatch.setattr(isotropic, "enumerate_complements", yielding)
    ticks = 0
    for sp in spaces:
        keyed.clear()
        yields.clear()
        g = Guard()
        chi_lawler(sp, guard=g)
        ticks += g.used
        assert keyed and len(keyed) == len(set(keyed)), sp
        assert len(keyed) == len(yields), sp
    assert ticks == 8873


def test_chi_lawler_builds_only_the_maximal_spaces_it_searches(monkeypatch):
    # each search reads its maximal spaces as row tuples and builds a
    # Subspace only for each V whose complements it enumerates, and for
    # the parts of a split it answers with
    spaces = _walking_spaces()
    built, searched, parts = [], [], []
    from_rref, complements = Subspace.from_rref.__func__, isotropic.enumerate_complements
    split = isotropic._split

    def building(cls, field, n, rows):
        built.append(rows)
        return from_rref(cls, field, n, rows)

    def searching(u, **kwargs):
        searched.append(u)
        return complements(u, **kwargs)

    def scanning(lat, k, g):
        found = split(lat, k, g)
        parts.extend(found or ())
        return found

    monkeypatch.setattr(Subspace, "from_rref", classmethod(building))
    monkeypatch.setattr(isotropic, "enumerate_complements", searching)
    monkeypatch.setattr(isotropic, "_split", scanning)
    for sp in spaces:
        built.clear()
        searched.clear()
        parts.clear()
        chi_lawler(sp)
        assert searched and len(built) == len(searched) + len(parts), sp


def test_chi_lawler_stops_at_3_without_a_2_decomposition(monkeypatch):
    # a search whose scan finds no lb-decomposition stops at the first
    # complement that reaches lb + 1: on each space of bound 2 and chi 3,
    # the top search's last complement W is the first with 1 + chi(W) = 3,
    # and no walk over a top V's complements runs to its end
    spaces = _chi3_lb2_spaces()
    assert len(spaces) == 7
    top, finished = [], []
    complements = isotropic.enumerate_complements

    def yielding(u, **kwargs):
        for w in complements(u, **kwargs):
            if u.n == sp.n:     # every search below the top is smaller
                top.append(w)
            yield w
        finished.append(u.n == sp.n)

    monkeypatch.setattr(isotropic, "enumerate_complements", yielding)
    for sp in spaces:
        top.clear()
        finished.clear()
        assert chi_lawler(sp)[0] == 3, sp
        reached = [1 + chi_brute(restrict(sp, w))[0] for w in top]
        assert reached[-1] == 3 and min(reached[:-1], default=4) > 3, sp
        assert not any(finished), sp


def test_chi_lawler_stops_at_4_without_a_3_decomposition():
    # an 8-vertex graph over F_2 with alpha 3 and chi 4: the top search's
    # bound is 3, and once its best reaches 4 one split scan rules out a
    # 3-decomposition, where the full search tries every complement (about
    # 1.7 M ticks)
    from isospace.graphs import graph_chi_brute
    graph = random_graph(random.Random(1), 8, 0.5)
    sp = space_from_graph(graph, F2)
    c, parts = chi_lawler(sp, guard=Guard(10**5))
    assert c == len(parts) == graph_chi_brute(graph) == 4
    assert alpha_exact(sp)[0] == 3


def test_chi_lawler_answers_its_bound_from_one_scan():
    # a search whose lattice has an lb-decomposition answers from its scan,
    # before any complement: F_2^8 with 5 forms (chi 3 = lb) in 599 ticks,
    # where the walk to 3 took 1.48 M, and F_3^8 with 2 forms (chi 2 = lb),
    # whose first maximal space has 3^16 complements
    sp = random_space(random.Random(0), F2, 8, 5)
    c, parts = chi_lawler(sp, guard=Guard(10**4))
    assert c == len(parts) == 3
    sp = random_space(random.Random(0), F3, 8, 2)
    c, parts = chi_lawler(sp)
    assert c == len(parts) == chi_brute(sp)[0] == 2


def test_chi_lawler_answers_f3_8_inputs_one_above_their_bound():
    # each top search finds no lb-decomposition and stops at its first
    # complement that reaches lb + 1, long before the 3^15 complements of
    # its first maximal space, which were required before the first
    sp = random_space(random.Random(0), F3, 8, 5)
    c, parts = chi_lawler(sp)
    assert c == len(parts) == chi_brute(sp)[0] == 4
    assert -(-8 // alpha_exact(sp)[0]) == 3
    from isospace.graphs import graph_chi_brute
    for seed, chi in ((1, 4), (2, 3)):
        graph = random_graph(random.Random(seed), 8, 0.5)
        c, parts = chi_lawler(space_from_graph(graph, F3))
        assert c == len(parts) == graph_chi_brute(graph) == chi, seed


def test_a_walk_past_its_first_complement_is_still_priced():
    # K_4 plus two isolated vertices over F_3 (chi 4 = lb + 2): the top
    # search's first complement cannot end it, so the other 3^9 - 1
    # complements of its first maximal space are required, and refused,
    # once it asks for a second
    sp = space_from_graph(Graph(6, list(Graph.complete(4).edges)), F3)
    with pytest.raises(GuardExceeded, match="estimated 19682 iterations"):
        chi_lawler(sp, guard=Guard(10**4))


def test_every_walk_follows_a_failed_scan_of_its_own_lattice(monkeypatch):
    # a zero restriction answers without a lattice, and every other search
    # scans its lattice before it walks: each enumerate_complements call
    # follows, in its own search, a _split that returned None, and takes a
    # maximal space of that lattice.  The latest scan of V's dimension is
    # its search's, as every search begun after it is a smaller restriction
    spaces = _walking_spaces() + [AltMatrixSpace.from_generators(F3, 3, [])]
    split, complements = isotropic._split, isotropic.enumerate_complements
    events = []

    def scanning(lat, k, g):
        found = split(lat, k, g)
        events.append(("split", lat, found))
        return found

    def searching(u, **kwargs):
        events.append(("walk", u, None))
        return complements(u, **kwargs)

    monkeypatch.setattr(isotropic, "_split", scanning)
    monkeypatch.setattr(isotropic, "enumerate_complements", searching)
    for sp in spaces:
        events.clear()
        chi_lawler(sp)
        assert (sp.dim > 0) == any(kind == "walk" for kind, _, _ in events), sp
        for i, (kind, u, _) in enumerate(events):
            if kind == "walk":
                lat, found = next((lat, found) for kind, lat, found in reversed(events[:i])
                                  if kind == "split" and lat.n == u.n)
                assert found is None and u.rows in lat.maximal_rows, sp


def test_a_guard_trips_inside_the_split_scan(monkeypatch, tmp_path):
    # the scan ticks once per space it tries and requires its mask words
    # from the search's guard: a guard that lasts until the scan, and no
    # longer, stops the search inside it, and the CLI exits 3 there.  Every
    # search scans right after its lattice, before any complement is
    # required, so on the seven chi-3 spaces of bound 2 each limit within
    # the top scan's ticks (2 to 16 pairs, 42 in all) trips inside it
    from isospace.cli import main
    from isospace.io import emit_space
    split, inside, bounds = isotropic._split, [], []

    def recording(lat, k, g):
        try:
            return split(lat, k, g)
        except GuardExceeded:
            inside.append(g.limit)
            bounds.append(k)
            raise

    monkeypatch.setattr(isotropic, "_split", recording)
    tripped = []
    for sp in _chi3_lb2_spaces():
        total = Guard()
        chi_lawler(sp, guard=total)
        for limit in range(total.used):
            with pytest.raises(GuardExceeded):
                chi_lawler(sp, guard=Guard(limit))
            if inside:
                tripped.append((sp, limit))
                inside.clear()
    assert len(tripped) == 42
    sp, limit = tripped[0]
    path = tmp_path / "space.ams"
    path.write_text(emit_space(sp))
    assert main(["--guard", str(limit), "chi", "-f", str(path), "--method", "lawler"]) == 3
    assert inside == [limit]
    # a search whose bound is 3: K_4 with a pendant vertex has alpha 2 and
    # chi 4, so its search scans for a 3-decomposition and finds none
    sp = space_from_graph(Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]), F2)
    total = Guard()
    assert chi_lawler(sp, guard=total)[0] == 4
    inside.clear()
    bounds.clear()
    tripped = []
    for limit in range(total.used):
        with pytest.raises(GuardExceeded):
            chi_lawler(sp, guard=Guard(limit))
        if inside:
            assert bounds == [3]
            tripped.append(limit)
            inside.clear()
            bounds.clear()
    assert tripped
    path.write_text(emit_space(sp))
    assert main(["--guard", str(tripped[0]), "chi", "-f", str(path), "--method", "lawler"]) == 3
    assert inside == tripped[:1] and bounds == [3]


def test_chi_lawler_certificates_leave_the_first_descent():
    # Lambda(6, F_2) spaces, six of chi 4; five of those certificates pass
    # through a space the search answered from the memo of an equal
    # restriction, whose parts were found under another U and must lift
    # through this U's basis
    checked = 0
    for seed in range(12):
        sp = random_space(random.Random(seed), F2, 6, 7)
        c, parts = chi_lawler(sp)
        validate_decomposition(sp, parts)
        assert len(parts) == c == chi_maxcover(sp), seed
        checked += c == 4
    assert checked == 6


def test_chi_lawler_certificates_pinned():
    # chi and the parts of every certificate, bit for bit as computed by
    # the recursion memoized by U, on the criterion-04 random spaces and
    # every graph on at most 5 vertices over F_2; where a search's scan
    # finds an lb-decomposition, that split is its certificate
    import hashlib
    import json
    from test_acceptance import random_space_suite_lam4, small_graphs_all
    spaces = ([sp for _, sp in random_space_suite_lam4()]
              + [space_from_graph(g, F2) for g in small_graphs_all()])
    out = []
    for sp in spaces:
        c, parts = chi_lawler(sp)
        out.append((c, [(p.field.p, p.n, p.basis.entries) for p in parts]))
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "657d2f14b0f87606e42fc4bc18b5e01748cff050d661c559f7be61ab03b7660f"


def test_the_branch_enumeration_solves_each_restriction_once(monkeypatch):
    # the branches of enumerate_maximal_branch share restricted spaces
    # A|_rad(w); one call builds each of them once and reuses its list
    # (nondegenerate_part builds its own through altspace.restrict)
    from types import SimpleNamespace
    from test_acceptance import random_space_suite_lam4, random_space_suite_lam5
    built = []

    def recording(field, n, rows):
        built.append((field.p, n, tuple(rows)))
        return AltMatrixSpace.from_upper(field, n, rows)

    monkeypatch.setattr(isotropic, "AltMatrixSpace", SimpleNamespace(from_upper=recording))
    for sp in [sp for _, sp in random_space_suite_lam4()] + random_space_suite_lam5():
        built.clear()
        enumerate_maximal_branch(sp)
        assert len(built) == len(set(built)), sp


# ------------------------------------------------------- the form-rows memo

def _lattice(sp, guard):
    lat = enumerate_isotropic_lattice(sp, guard=guard)
    return lat.levels, lat.maximal()


SCANS = {
    "lattice": _lattice,
    "alpha_exact": lambda sp, g: alpha_exact(sp, guard=g),
    "chi_brute": lambda sp, g: chi_brute(sp, guard=g),
    "chi_lawler": lambda sp, g: chi_lawler(sp, guard=g),
    "branch": lambda sp, g: enumerate_maximal_branch(sp, guard=g),
    "dim2": lambda sp, g: has_isotropic_dim2(sp, guard=g),
    "greedy_maximal": lambda sp, g: greedy_maximal(sp),
    "max_degree": lambda sp, g: max_degree(sp, guard=g),
}


def _scan(name, sp):
    g = Guard()
    return SCANS[name](sp, g), g.used


@pytest.mark.parametrize("field, n, m, seed", [(F2, 5, 3, 1), (F2, 6, 2, 2),
                                               (F3, 4, 2, 3), (F3, 5, 1, 4)])
def test_the_form_rows_memo_cannot_be_seen(field, n, m, seed):
    # each scan gives the same answer and guard ticks cold, right after
    # every other scan of the space, and on an equal copy of the space;
    # the scans that end on restricted spaces run first, so the last map
    # kept is the space's own, with the rows the others built
    sp = random_space(random.Random(seed), field, n, m)
    copy = AltMatrixSpace.from_generators(field, n, sp.basis)
    assert copy == sp and copy is not sp
    for name in SCANS:
        form_rows.cache_clear()
        cold = _scan(name, sp)
        others = sorted((o for o in SCANS if o != name),
                        key=lambda o: o not in ("chi_lawler", "branch"))
        for target in (sp, copy):
            for o in others:
                _scan(o, sp)
            kept = form_rows(sp)
            assert kept._rows and form_rows(target) is kept, name
            assert _scan(name, target) == cold, name
