"""Cross-oracle identities on generated inputs (hypothesis)."""

import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from isospace.altspace import (AltMatrixSpace, degree, form_rows, is_isotropic,
                               isometry_transform, max_degree, nondegenerate_part,
                               rad_of, radical_space, restrict)
from isospace.bipartite import (MatrixSpace, adjoint_algebra, alpha_bipartite,
                                bipartite_space_from_blocks,
                                block_space_from_bipartite,
                                hyperbolic_idempotent_search, ncrk_brute,
                                ncrk_witness_pair)
from isospace.errors import Guard, GuardExceeded
from isospace.ffield import (FormRows, Matrix, PrimeField, Subspace, _combine, _rref_rows,
                             hstack, invert, kernel, projective_rows, rref_canonicalize,
                             vstack)
from isospace.graphs import (Graph, graph_alpha_brute, graph_chi_brute,
                             is_bipartite_bfs, space_from_graph)
from isospace.io import (emit_graph, emit_mats, emit_space, parse_graph,
                         parse_mats, parse_mats_tuple, parse_space)
from isospace.isotropic import (_split, alpha_exact, chi_brute, chi_lawler, chi_maxcover,
                                enumerate_isotropic_lattice, enumerate_maximal_branch,
                                enumerate_maximal_filter, two_decomposition_brute,
                                validate_decomposition)
from isospace.quantum import channel_from_graph, period
from util import (F2, F3, K4_PENDANT, combine_reference, direct_sum, invert_reference,
                  matmul_reference, oracle_record, random_graph, random_matrix_space, random_space,
                  rref_rows_reference)

F5 = PrimeField(5)
F251 = PrimeField(251)


@st.composite
def alternating_spaces(draw, min_n=1):
    """Spans of up to 4 random alternating matrices on F^n, min_n <= n <= 4,
    over F_2 or F_3."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(min_n, 4))
    m = draw(st.integers(0, 4))
    return random_space(draw(st.randoms(use_true_random=False)), field, n, m)


@st.composite
def spaces_with_subspace(draw):
    """An alternating space and the span of up to 3 random vectors of F^n."""
    space = draw(alternating_spaces())
    rng = draw(st.randoms(use_true_random=False))
    vecs = [tuple(rng.randrange(space.field.p) for _ in range(space.n))
            for _ in range(rng.randint(0, 3))]
    return space, Subspace.from_vectors(space.field, space.n, vecs)


def form(a, u, w):
    """u^t A w, summed entry by entry."""
    n = a.rows
    return sum(u[i] * a[i, j] * w[j] for i in range(n) for j in range(n)) % a.field.p


@settings(max_examples=30, deadline=None)
@given(alternating_spaces())
def test_three_chi_computations_agree(space):
    cb, brute_parts = chi_brute(space)
    cl, lawler_parts = chi_lawler(space)
    assert cb == cl == chi_maxcover(space) == len(brute_parts) == len(lawler_parts)
    validate_decomposition(space, brute_parts)
    validate_decomposition(space, lawler_parts)


@settings(max_examples=40, deadline=None)
@given(spaces_with_subspace())
def test_forms_match_their_definitions(case):
    space, u = case
    field, n = space.field, space.n
    ubasis = u.basis_rows()
    rad = rad_of(space, u)
    every = list(product(range(field.p), repeat=n))
    inside = [x for x in every
              if all(form(a, x, w) == 0 for a in space.basis for w in ubasis)]
    assert field.p ** rad.dim == len(inside)
    assert all(rad.contains_vector(field.pack(x)) for x in inside)
    assert is_isotropic(space, u) == all(
        form(a, x, w) == 0 for a in space.basis for x in ubasis for w in ubasis)
    for v in every:
        images = [[sum(a[i, j] * v[j] for j in range(n)) % field.p for i in range(n)]
                  for a in space.basis]
        assert degree(space, v) == Subspace.from_vectors(field, n, images).dim


@st.composite
def block_spaces(draw):
    """A random span of up to 3 matrices of shape s x t, s, t <= 3, over F_2 or F_3."""
    field = draw(st.sampled_from([F2, F3]))
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    return random_matrix_space(draw(st.randoms(use_true_random=False)), field, s, t, m)


@settings(max_examples=25, deadline=None)
@given(block_spaces())
def test_alpha_from_the_lattice_equals_alpha_from_ncrk(b):
    space = bipartite_space_from_blocks(b)
    n = b.s + b.t
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    u1 = Subspace.from_vectors(b.field, n, unit[:b.s])
    u2 = Subspace.from_vectors(b.field, n, unit[b.s:])
    alpha = alpha_exact(space)[0]
    assert alpha == n - ncrk_brute(b)
    assert alpha_bipartite(space, u1, u2)[0] == alpha


@settings(max_examples=40, deadline=None)
@given(block_spaces())
def test_ncrk_of_the_transpose(b):
    bt = MatrixSpace(b.field, b.t, b.s, [m.transpose() for m in b.basis])
    assert ncrk_brute(bt) == ncrk_brute(b)
    if b.s != b.t:
        # both scan the subspaces of the same smaller side, through the
        # same rows u^t B_i, so the pair only swaps
        u, v = ncrk_witness_pair(b)
        assert ncrk_witness_pair(bt) == (v, u)


def moved_split(b, rng):
    """(T^t A T, U1, U2) for A = [[0, B], [-B^t, 0]] and a random split
    F^n = U1 + U2 with RREF bases R1, R2: for R = [R1; R2] and
    T = (R^-1)^t, the isometry carries the coordinate split of A to
    (U1, U2), and R1 (T^t A T) R2^t = B."""
    field, s, t = b.field, b.s, b.t
    n = s + t
    # an invertible L U with unit triangular factors, its rows shuffled
    lower = [[int(i == j) if j >= i else rng.randrange(field.p) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) if j <= i else rng.randrange(field.p) for j in range(n)]
             for i in range(n)]
    rows = (Matrix.from_rows(field, lower) @ Matrix.from_rows(field, upper)).row_list()
    rng.shuffle(rows)
    u1 = Subspace.from_vectors(field, n, rows[:s])
    u2 = Subspace.from_vectors(field, n, rows[s:])
    tm = invert(vstack(u1.basis, u2.basis)).transpose()
    return isometry_transform(bipartite_space_from_blocks(b), tm), u1, u2


@settings(max_examples=30, deadline=None)
@given(block_spaces(), st.randoms(use_true_random=False))
def test_block_space_of_a_moved_split(b, rng):
    n = b.s + b.t
    moved, u1, u2 = moved_split(b, rng)
    assert block_space_from_bipartite(moved, u1, u2).basis == b.basis
    assert alpha_bipartite(moved, u1, u2)[0] == n - ncrk_brute(b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3]), st.integers(1, 4), st.integers(1, 5),
       st.randoms(use_true_random=False))
def test_rref_is_invariant_under_row_operations(field, k, n, rng):
    p = field.p
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    moved = [r[:] for r in rows]
    for _ in range(6):
        i, j = rng.randrange(k), rng.randrange(k)
        op = rng.randrange(3)
        if op == 0:
            moved[i], moved[j] = moved[j], moved[i]
        elif op == 1:
            c = rng.randrange(1, p)
            moved[i] = [c * x % p for x in moved[i]]
        elif i != j:
            c = rng.randrange(p)
            moved[i] = [(x + c * y) % p for x, y in zip(moved[i], moved[j])]
    m, m_moved = Matrix.from_rows(field, rows), Matrix.from_rows(field, moved)
    assert rref_canonicalize(m_moved) == rref_canonicalize(m)
    # a subspace is its RREF rows; basis is the same rows as a matrix
    sub = Subspace.from_vectors(field, n, rows)
    assert Subspace.from_vectors(field, n, moved) == sub
    assert sub.basis == rref_canonicalize(m)[0]
    assert sub.basis_rows() == [sub.basis.row(i) for i in range(sub.dim)]
    ker = kernel(m)
    assert kernel(m_moved) == ker
    # the kernel comes out in RREF: reducing its rows again changes nothing
    assert Subspace.from_vectors(field, n, ker.basis_rows()).basis_rows() == ker.basis_rows()


@settings(max_examples=30, deadline=None)
@given(alternating_spaces())
def test_branch_and_filter_enumerations_agree(space):
    branch = {u.key() for u in enumerate_maximal_branch(space)}
    assert branch == {u.key() for u in enumerate_maximal_filter(space)}


LATTICE_ORACLES = (alpha_exact, chi_brute, chi_lawler, chi_maxcover, two_decomposition_brute,
                   enumerate_maximal_filter)


@st.composite
def spaces_up_to_5(draw):
    """A span of up to 4 random alternating matrices on F_2^n or F_3^n,
    n <= 5."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(0, 5))
    return random_space(draw(st.randoms(use_true_random=False)), field, n,
                        draw(st.integers(0, 4)))


@settings(max_examples=40, deadline=None)
@given(spaces_up_to_5(), st.permutations(LATTICE_ORACLES))
@example(K4_PENDANT, LATTICE_ORACLES)
def test_the_lattice_oracles_in_any_order_answer_as_alone(space, order):
    # the map keeps the lattice rows it built (FormRows.lattice), so on one
    # guard an oracle after another reads them; each must give the outputs
    # and add the ticks it gives and adds from a cleared memo
    alone = {}
    for oracle in order:
        form_rows.cache_clear()
        alone[oracle] = oracle_record(oracle, space, Guard())
    form_rows.cache_clear()
    g = Guard()
    for oracle in order:
        assert oracle_record(oracle, space, g) == alone[oracle], oracle.__name__


@st.composite
def degenerate_spaces(draw):
    """A span of up to 3 random alternating matrices on F_2^n, n <= 6, or
    F_3^n, n <= 5, with a nonzero radical."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(1, 6 if field.p == 2 else 5))
    space = random_space(draw(st.randoms(use_true_random=False)), field, n,
                         draw(st.integers(0, 3)))
    assume(radical_space(space).dim)
    return space


@settings(max_examples=90, deadline=None)
@given(degenerate_spaces())
@example(AltMatrixSpace.zero_space(F3, 5))      # the part is F^0
def test_the_oracles_follow_the_radical_lemma(space):
    # every maximal isotropic space contains rad(A) (nondegenerate_part), so
    # each oracle on A is read off the part: the oracles here still walk A
    part, comp, rad = nondegenerate_part(space)
    assert alpha_exact(space)[0] == rad.dim + alpha_exact(part)[0]
    lifted = {v.image(comp).sum(rad).key() for v in enumerate_maximal_filter(part)}
    assert {u.key() for u in enumerate_maximal_filter(space)} == lifted
    assert {u.key() for u in enumerate_maximal_branch(space)} == lifted
    chi = chi_brute(part)[0] if part.n else 1
    assert chi_brute(space)[0] == chi_lawler(space)[0] == chi_maxcover(space) == chi
    if space.n >= 2:
        unsplit = part.n >= 2 and two_decomposition_brute(part) is None
        assert (two_decomposition_brute(space) is None) == unsplit


@st.composite
def split_spaces(draw):
    """A span of up to 5 random alternating matrices, or the space of a
    random graph, on F_2^n, n <= 6, or F_3^n, n <= 5."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(1, 6 if field.p == 2 else 5))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return space_from_graph(random_graph(rng, n, rng.random()), field)
    return random_space(rng, field, n, draw(st.integers(0, 5)))


@settings(max_examples=120, deadline=None)
@given(split_spaces())
@example(space_from_graph(Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
                          F2))      # bound ceil(5 / 2) = 3, chi 4
@example(space_from_graph(Graph(7, [(0, 1), (0, 3), (0, 6), (1, 3), (1, 5), (1, 6), (2, 5),
                                    (2, 6), (5, 6)]), F2))
# bound 3, chi 3: the rest of a maximal V of dimension 3 splits as 2 + 2,
# never as 3 + 1, so the middle part's dimension must go below the largest
def test_the_split_scan_finds_a_k_decomposition_exactly_at_chi(space):
    # a maximal first part is enough for every k <= chi (_split), so the
    # scan finds a k-decomposition for 2 <= k <= chi iff k = chi, which is
    # what lets chi_lawler stop at lb + 1
    chi = chi_brute(space)[0]
    lat = enumerate_isotropic_lattice(space)
    for k in range(2, chi + 1):
        found = _split(lat, k, Guard())
        assert (found is None) == (k < chi), k
        if found is not None:
            assert len(found) == k
            validate_decomposition(space, [lat.space(rows) for rows in found])
    assert chi_lawler(space)[0] == chi == chi_maxcover(space)


@st.composite
def direct_sum_pairs(draw):
    """Spans of up to 3 random alternating matrices on F^m and F^n, over
    one field, with m + n <= 6 over F_2 and <= 5 over F_3."""
    field = draw(st.sampled_from([F2, F3]))
    top = 6 if field.p == 2 else 5
    m = draw(st.integers(1, top - 1))
    n = draw(st.integers(1, top - m))
    rng = draw(st.randoms(use_true_random=False))
    return (random_space(rng, field, m, draw(st.integers(0, 3))),
            random_space(rng, field, n, draw(st.integers(0, 3))))


@settings(max_examples=80, deadline=None)
@given(direct_sum_pairs())
def test_the_oracles_follow_direct_sums(pair):
    # the forms of A + B act on the two blocks apart: an isotropic space of
    # A + B lies in the sum of its projections, which are isotropic, so
    # alpha adds, the maximal spaces are the sums of maximal spaces, chi is
    # the larger chi, and a vector's degree is the sum of its parts' degrees
    a, b = pair
    s = direct_sum(a, b)
    assert alpha_exact(s)[0] == alpha_exact(a)[0] + alpha_exact(b)[0]
    chi = max(chi_brute(a)[0], chi_brute(b)[0])
    assert chi_brute(s)[0] == chi_lawler(s)[0] == chi_maxcover(s) == chi
    assert (len(enumerate_maximal_filter(s))
            == len(enumerate_maximal_filter(a)) * len(enumerate_maximal_filter(b)))
    assert max_degree(s) == max_degree(a) + max_degree(b)


def first_hyperbolic_idempotent(adj):
    """Reference scan: every coefficient vector of Adj in product order,
    testing P* = I - P and then P^2 = P."""
    field, n, q = adj.field, adj.n, adj.field.p
    ident = Matrix.identity(field, n)
    for c in product(range(q), repeat=adj.dim):
        d = Matrix(field, n, n, combine_reference(c, [d.entries for d, _ in adj.pairs], q, n * n))
        star = Matrix(field, n, n,
                      combine_reference(c, [b.entries for _, b in adj.pairs], q, n * n))
        if star == ident - d and d @ d == d:
            return d
    return None


@settings(max_examples=40, deadline=None)
@given(alternating_spaces())
def test_idempotent_search_finds_the_first_in_coefficient_order(space):
    adj = adjoint_algebra(nondegenerate_part(space)[0])
    assume(adj.field.p ** adj.dim <= 3 ** 8)
    assert hyperbolic_idempotent_search(adj) == first_hyperbolic_idempotent(adj)


@settings(max_examples=60, deadline=None)
@given(alternating_spaces())
@example(AltMatrixSpace.zero_space(F2, 1))
@example(AltMatrixSpace.zero_space(F3, 3))
def test_adjoint_algebra_rejects_exactly_the_degenerate_spaces(space):
    degenerate = radical_space(space).dim != 0
    try:
        adjoint_algebra(space)
    except ValueError:
        assert degenerate
    else:
        assert not degenerate


@st.composite
def subspace_pairs(draw):
    """Two spans of up to 3 random vectors each in one F^n, n <= 4."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    span = lambda: Subspace.from_vectors(field, n, [
        tuple(rng.randrange(field.p) for _ in range(n)) for _ in range(rng.randint(0, 3))])
    return span(), span()


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_sum_is_the_span_of_both_bases(pair):
    u, w = pair
    field, n = u.field, u.n
    both = Subspace.from_vectors(field, n, u.basis_rows() + w.basis_rows())
    assert u.sum(w) == w.sum(u) == both
    assert u.sum(w).pivots == both.pivots
    zero = Subspace.zero(field, n)
    assert u.sum(zero) == zero.sum(u) == u
    with pytest.raises(ValueError):
        u.sum(Subspace.zero(field, n + 1))
    with pytest.raises(ValueError):
        u.sum(Subspace.zero(F3 if field.p == 2 else F2, n))


@pytest.mark.parametrize("field", [F2, F3, F5])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 4), rng=st.randoms(use_true_random=False))
def test_intersect_is_the_span_of_the_common_vectors(field, n, rng):
    """The meet is the canonical span of the vectors of F^n in both spaces,
    for random spans, their join (so the meet is not zero) and the zero and
    full spaces."""
    span = lambda: Subspace.from_vectors(field, n, [
        tuple(rng.randrange(field.p) for _ in range(n)) for _ in range(rng.randint(0, n + 1))])
    u, w = span(), span()
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    every = [field.pack(v) for v in product(range(field.p), repeat=n)]
    for a, b in ((u, w), (w, u), (u, u.sum(w)), (u.sum(w), w), (u, u),
                 (u, zero), (zero, w), (full, w), (u, full), (full, full)):
        common = [field.unpack(v, n) for v in every
                  if a.contains_vector(v) and b.contains_vector(v)]
        want = Subspace.from_vectors(field, n, common)
        got = a.intersect(b)
        assert got == want and got.pivots == want.pivots
    with pytest.raises(ValueError):
        u.intersect(Subspace.zero(field, n + 1))
    with pytest.raises(ValueError):
        u.intersect(Subspace.zero(F3 if field.p == 2 else F2, n))


def _rref_reference(field, n, vectors) -> tuple:
    """(RREF rows as tuples, pivots) of the vectors, by rref_rows_reference."""
    rows = [list(v) for v in vectors]
    pivots = rref_rows_reference(rows, field.p, field._inv) if rows else []
    return [tuple(r) for r in rows[:len(pivots)]], tuple(pivots)


@pytest.mark.parametrize("field", [F2, F3, F5, PrimeField(7), PrimeField(251)])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), rng=st.randoms(use_true_random=False))
def test_joins_follow_the_reference_rref(field, n, rng):
    """sum and extend_by_vector continue an RREF; each case is checked
    against the reference: p >= 5 (scaled rows), full rank (the early stop)
    and a vector that already lies in the space."""
    vec = lambda: tuple(rng.randrange(field.p) for _ in range(n))
    u = Subspace.from_vectors(field, n, [vec() for _ in range(rng.randint(0, n))])
    w = Subspace.from_vectors(field, n, [vec() for _ in range(rng.randint(0, n + 1))])
    full = Subspace.full(field, n)
    for a, b in ((u, w), (w, u), (u, full), (full, w), (u, u.coordinate_complement())):
        s = a.sum(b)
        assert (s.basis_rows(), s.pivots) == _rref_reference(
            field, n, a.basis_rows() + b.basis_rows())
    assert u.sum(full) == full.sum(u) == full
    coeffs = [rng.randrange(field.p) for _ in u.rows]
    inside = tuple(sum(c * r[j] for c, r in zip(coeffs, u.basis_rows())) % field.p
                   for j in range(n))
    for a, v in ((u, vec()), (u, inside), (full, vec()), (w, vec())):
        s = a.extend_by_vector(field.pack(v))
        assert (s.basis_rows(), s.pivots) == _rref_reference(field, n, a.basis_rows() + [v])
    assert u.extend_by_vector(field.pack(inside)) == u


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3]), st.integers(0, 5), st.randoms(use_true_random=False))
def test_coordinate_is_the_span_of_unit_rows(field, n, rng):
    cols = sorted(rng.sample(range(n), rng.randint(0, n)))
    units = [tuple(int(k == j) for k in range(n)) for j in cols]
    got = Subspace.coordinate(field, n, cols)
    want = Subspace.from_vectors(field, n, units)
    assert got == want and got.pivots == want.pivots == tuple(cols)
    assert got.coordinate_complement().sum(got) == Subspace.full(field, n)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs(), st.integers(0, 15))
# a lead allowed before one that is not, and one after it
@example((Subspace.full(F3, 4), Subspace.zero(F3, 4)), 0b0101)
def test_lines_are_the_lines_led_at_the_chosen_rows(pair, choose):
    sub = pair[0].sum(pair[1])
    field, n, p = sub.field, sub.n, sub.field.p
    leads = [i for i in range(sub.dim) if choose >> i & 1]
    full = Subspace.full(field, n)
    # projective_rows reads F^n's lines led at every column: required
    # before the first is built, one tick each
    lines = list(projective_rows(field, n))
    exact = Guard(len(lines))
    assert list(projective_rows(field, n, exact)) == lines and exact.used == len(lines)
    short = Guard(len(lines) - 1)
    with pytest.raises(GuardExceeded):
        projective_rows(field, n, short)
    assert short.used == 0
    for space, chosen_rows, kids in ((sub, leads, [v for i in leads for v in sub.led_lines(i)]),
                                     (full, range(n), lines)):
        assert space.line_count(chosen_rows) == len(kids)
        # brute: the vectors of the space whose first nonzero coordinate is
        # a 1 at the pivot of a chosen row, by that row, then the
        # coordinates at the pivots in product order
        rows = space.basis_rows()
        chosen = [space.pivots[i] for i in chosen_rows]
        brute = []
        for coeffs in product(range(p), repeat=space.dim):
            v = tuple(sum(a * r[j] for a, r in zip(coeffs, rows)) % p for j in range(n))
            lead = next((j for j, x in enumerate(v) if x), None)
            if lead in chosen and v[lead] == 1:
                brute.append(((lead, [v[c] for c in space.pivots]), field.pack(v)))
        assert kids == [v for _, v in sorted(brute)]


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_an_annihilator_is_the_lines_orthogonal_to_the_span(pair):
    u, w = pair
    field, n = u.field, u.n
    q, table = field.p, field.lines[n]
    join = u.sum(w)
    mask = table.annihilator(join.rows)
    assert mask == table.annihilator(u.rows) & table.annihilator(w.rows)
    assert mask.bit_count() == (q ** (n - join.dim) - 1) // (q - 1)
    rows = [field.unpack(r, n) for r in join.rows]
    for i, line in enumerate(table.lines):
        ell = field.unpack(line, n)
        orthogonal = all(sum(a * b for a, b in zip(r, ell)) % q == 0 for r in rows)
        assert bool(mask >> i & 1) == orthogonal


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_first_row_outside(pair):
    outer, inner = pair
    row = outer.first_row_outside(inner)
    rows = list(outer.rows)
    if inner.contains(outer):
        assert row is None
    else:
        i = rows.index(row)
        assert not inner.contains_vector(row)
        assert all(inner.contains_vector(r) for r in rows[:i])


@st.composite
def graphs(draw):
    """A graph on n vertices with each edge drawn by hypothesis."""
    n = draw(st.integers(0, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3, PrimeField(5)]), graphs())
def test_the_graph_space_passes_the_checked_constructor(field, g):
    # space_from_graph skips validate; validate accepts what it builds
    space = space_from_graph(g, field)
    assert AltMatrixSpace(field, g.n, space.basis) == space
    assert space.dim == len(g.edges)


@settings(max_examples=40, deadline=None)
@given(alternating_spaces(min_n=0), block_spaces(), graphs())
def test_io_formats_survive_a_round_trip(space, b, g):
    assert parse_space(emit_space(space)) == space
    assert parse_graph(emit_graph(g)) == g
    back = parse_mats(emit_mats(b))
    assert (back.field, back.s, back.t, back.basis) == (b.field, b.s, b.t, b.basis)
    field, blocks = parse_mats_tuple(emit_mats(b))
    assert field == b.field and tuple(blocks) == b.basis


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3]), graphs())
@example(F2, Graph(6, Graph.complete(4).edges))
# K_4 plus two isolated vertices: alpha 3, bound 2, chi 4, so chi_lawler's
# top search finds no 2-decomposition and walks past lb + 1
def test_alpha_and_chi_of_the_graph_space_are_those_of_the_graph(field, g):
    assume(field.p == 2 or g.n <= 4)
    space = space_from_graph(g, field)
    assert alpha_exact(space)[0] == graph_alpha_brute(g)
    assert chi_maxcover(space) == graph_chi_brute(g)
    assert chi_lawler(space)[0] == graph_chi_brute(g)


@settings(max_examples=40, deadline=None)
@given(graphs())
@example(Graph.complete(3))
@example(Graph.cycle(4))
def test_the_channel_period_is_even_exactly_on_bipartite_graphs(g):
    # the spectral period and BFS are independent oracles (criterion 13)
    assume(g.n >= 2 and g.is_connected())
    assert (period(channel_from_graph(g)) % 2 == 0) == is_bipartite_bfs(g)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5]), st.integers(0, 6), st.integers(0, 6), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_form_rows_are_the_products_w_t_m(field, n, m, k, rng):
    mats = [Matrix(field, n, m, [rng.randrange(field.p) for _ in range(n * m)])
            for _ in range(k)]
    forms = FormRows(field, n, m, mats)
    vectors = [tuple(rng.randrange(field.p) for _ in range(n)) for _ in range(3)]
    vectors += [(0,) * n, vectors[0]]
    packed = [field.pack(w) for w in vectors]
    products = []
    for w, x in zip(vectors, packed):
        row = Matrix(field, 1, n, w)
        explicit = [(row @ a).entries for a in mats]
        # the rows of w are kept reduced, pivoted on their last nonzero
        # columns: the RREF of the span of the products with their columns
        # in reverse order, reversed back
        rows, pivots = forms.rows(x)
        span = Subspace.from_vectors(field, m, [e[::-1] for e in explicit])
        assert [field.unpack(r, m) for r in rows] == [r[::-1] for r in reversed(span.basis_rows())]
        assert tuple(pivots) == tuple(m - 1 - c for c in reversed(span.pivots))
        assert forms.rank([x]) == span.dim
        products += [row @ a for a in mats]
    stacked = vstack(Matrix.zeros(field, 0, m), *products)
    assert forms.rank(packed) == stacked.rank()
    assert forms.kernel(packed) == kernel(stacked)
    assert forms.kernel(packed[:1]) == kernel(vstack(Matrix.zeros(field, 0, m), *products[:k]))
    assert forms.kernel([]) == Subspace.full(field, m)
    if k:
        with pytest.raises(ValueError):
            FormRows(field, n + 1, m, mats)


@st.composite
def line_mask_maps(draw):
    """(field, n, m, mats): the basis of an alternating space on F^n (F_2
    with n <= 6, F_3 with n <= 5, F_5 with n <= 3, no forms included), or
    the s x t map with s != t that ncrk_witness_pair scans, read from the
    smaller side."""
    field = draw(st.sampled_from([F2, F3, F5]))
    top = {2: 6, 3: 5, 5: 3}[field.p]
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(1, top))
        space = random_space(rng, field, n, draw(st.integers(0, 4)))
        return field, n, n, space.basis
    s, t = draw(st.lists(st.integers(1, top), min_size=2, max_size=2, unique=True))
    b = random_matrix_space(rng, field, s, t, draw(st.integers(0, 3)))
    if s < t:
        return field, s, t, b.basis
    return field, t, s, [x.transpose() for x in b.basis]


@settings(max_examples=80, deadline=None)
@given(line_mask_maps())
def test_every_line_mask_is_the_annihilator_of_the_line_products(case):
    # the masks built together on the first read are, line by line, the
    # annihilator of the products v^t M_i taken through Matrix, and the
    # lines of the line's kernel
    field, n, m, mats = case
    forms = FormRows(field, n, m, mats)
    table = field.lines[m]
    for v in projective_rows(field, n):
        row = Matrix(field, 1, n, field.unpack(v, n))
        mask = forms.line_masks()[v]
        assert mask == table.annihilator(tuple([(row @ a).packed[0] for a in mats]))
        kernel_of_v = forms.kernel([v])
        assert mask == sum(1 << i for i, u in enumerate(table.lines)
                           if kernel_of_v.contains_vector(u))


@st.composite
def lane_cases(draw):
    """A field of {2, 3, 5, 7, 251}, a length 0..16 and up to 5 vectors of it."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5, 7, 251])))
    n = draw(st.integers(0, 16))
    entry = st.integers(0, field.p - 1)
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                         min_size=2, max_size=5))
    return field, n, vecs, draw(entry)


def reference_kernel(field, n, rows):
    """The RREF rows of the right kernel, from the tuple RREF of rows."""
    rows = [list(r) for r in rows]
    pivots = rref_rows_reference(rows, field.p, field._inv)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = -rows[i][j] % field.p
        basis.append(v)
    rank = len(rref_rows_reference(basis, field.p, field._inv))
    return [tuple(r) for r in basis[:rank]]


@settings(max_examples=150, deadline=None)
@given(lane_cases())
@example((PrimeField(3), 0, [(), ()], 2))
@example((PrimeField(251), 3, [(250, 1, 0), (0, 250, 7), (250, 0, 250)], 200))
def test_packed_rows_follow_the_tuple_arithmetic(case):
    field, n, vecs, a = case
    p = field.p
    x, y = vecs[0], vecs[1]
    px, py = field.pack(x), field.pack(y)
    assert field.unpack(px, n) == x
    assert field.pack([e + p * k - p for k, e in enumerate(x)]) == px
    # add, subtract and scale: combinations with coefficients (1, 1), (1, -1), (a)
    assert _combine(field.pack((1, 1)), [px, py], field, n) == field.pack(
        [(u + v) % p for u, v in zip(x, y)])
    assert _combine(field.pack((1, p - 1)), [px, py], field, n) == field.pack(
        [(u - v) % p for u, v in zip(x, y)])
    assert _combine(field.pack((a,)), [px], field, n) == field.pack([a * u % p for u in x])
    # the lead lane is the first nonzero column
    line = Subspace.zero(field, n).extend_by_vector(px)
    assert line.pivots == tuple(j for j, e in enumerate(x) if e)[:1]
    # the packed RREF and kernel are the tuple reference's
    rows = [list(v) for v in vecs]
    pivots = rref_rows_reference(rows, p, field._inv)
    span = Subspace.from_vectors(field, n, vecs)
    assert span.basis_rows() == [tuple(r) for r in rows[:len(pivots)]]
    assert span.pivots == tuple(pivots)
    # pivoted on the last nonzero columns: the reference RREF of the rows
    # with their columns reversed, reversed back
    flipped = [list(v[::-1]) for v in vecs]
    flipped_pivots = rref_rows_reference(flipped, p, field._inv)
    got, got_pivots = _rref_rows([field.pack(v) for v in vecs], field, n, last=True)
    assert [field.unpack(r, n) for r in got] == [
        tuple(r[::-1]) for r in reversed(flipped[:len(flipped_pivots)])]
    assert got_pivots == [n - 1 - c for c in reversed(flipped_pivots)]
    assert kernel(Matrix.from_rows(field, vecs)).basis_rows() == reference_kernel(field, n, vecs)


@st.composite
def matrix_cases(draw):
    """Over F_2, F_3 or F_5: r x k matrices a and a2, a k x c matrix b, a
    k x k matrix sq and a scalar, entries drawn from -6..10 so that the
    constructor reduces them."""
    field = draw(st.sampled_from([F2, F3, PrimeField(5)]))
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def entries(rows, cols):
        return draw(st.lists(st.integers(-6, 10), min_size=rows * cols, max_size=rows * cols))

    return (field, (r, k, c), entries(r, k), entries(r, k), entries(k, c), entries(k, k),
            draw(st.integers(-6, 10)))


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
@example((F3, (2, 0, 3), [], [], [], [], 2))
@example((PrimeField(5), (2, 2, 2), [1, 2, 3, 4], [4, 4, 0, 1], [2, 0, 3, 3], [2, 1, 1, 3], 3))
def test_packed_matrices_follow_the_tuple_reference(case):
    field, (r, k, c), ea, ea2, eb, esq, s = case
    p = field.p

    def rows_of(ent, rows, cols):
        return [tuple(e % p for e in ent[i * cols:(i + 1) * cols]) for i in range(rows)]

    def flat(rows):
        return tuple(e for row in rows for e in row)

    a, a2, b, sq = rows_of(ea, r, k), rows_of(ea2, r, k), rows_of(eb, k, c), rows_of(esq, k, k)
    ma, ma2, mb = Matrix(field, r, k, ea), Matrix(field, r, k, ea2), Matrix(field, k, c, eb)
    # the constructor reduces: the residues give the same value
    assert ma.entries == flat(a)
    assert ma == Matrix(field, r, k, flat(a)) and hash(ma) == hash(Matrix(field, r, k, flat(a)))
    for i in range(r):
        assert ma.row(i) == a[i]
        assert [ma[i, j] for j in range(k)] == list(a[i])
    for j in range(k):
        assert ma.col(j) == tuple(row[j] for row in a)
    t = ma.transpose()
    assert (t.rows, t.cols, t.entries) == (k, r, flat(zip(*a)))
    assert (ma @ mb).entries == flat(matmul_reference(a, b, p, c))
    assert (ma + ma2).entries == flat(combine_reference((1, 1), xy, p, k) for xy in zip(a, a2))
    assert (ma - ma2).entries == flat(combine_reference((1, -1), xy, p, k) for xy in zip(a, a2))
    assert ma.scale(s).entries == flat(combine_reference((s,), [x], p, k) for x in a)
    assert hstack(ma, ma2).entries == flat(x + y for x, y in zip(a, a2))
    assert vstack(ma, ma2).entries == flat(a) + flat(a2)
    assert ma.is_zero() == (not any(flat(a)))
    assert ma.rank() == len(rref_rows_reference([list(x) for x in a], p, field._inv))
    assert kernel(ma).basis_rows() == reference_kernel(field, k, a)
    want = invert_reference(sq, p, field._inv)
    if want is None:
        with pytest.raises(ValueError):
            invert(Matrix(field, k, k, esq))
    else:
        assert invert(Matrix(field, k, k, esq)).entries == flat(want)


def congruence_span(field, left, mats, right):
    """The canonical basis, as flat entry tuples, of the span of L A R^t
    over the matrices A, from the tuple references: L and R are lists of
    tuple rows of length n."""
    p, n = field.p, mats[0].rows if mats else 0
    rt = [tuple(r[j] for r in right) for j in range(n)]
    flats = [[e for row in matmul_reference(matmul_reference(left, a.row_list(), p, n),
                                            rt, p, len(right)) for e in row]
             for a in mats]
    return [tuple(r) for r in flats[:len(rref_rows_reference(flats, p, field._inv))]]


@st.composite
def congruence_cases(draw):
    """Over F_2, F_3, F_5 or F_251 (the widest lanes): a space spanned by up
    to 4 random alternating matrices on F^n, n <= 4; a subspace U that is
    zero, the span of random vectors, or all of F^n; and a random n x n
    matrix T, singular or not."""
    field = draw(st.sampled_from([F2, F3, F5, F251]))
    n = draw(st.integers(0, 4))
    rng = draw(st.randoms(use_true_random=False))
    space = random_space(rng, field, n, draw(st.integers(0, 4)))
    which = draw(st.sampled_from(["zero", "random", "full"]))
    if which == "full":
        u = Subspace.full(field, n)
    else:
        count = rng.randint(1, 4) if which == "random" else 0
        u = Subspace.from_vectors(field, n, [[rng.randrange(field.p) for _ in range(n)]
                                             for _ in range(count)])
    t = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
    return space, u, t


@settings(max_examples=120, deadline=None)
@given(congruence_cases())
def test_congruences_follow_the_tuple_reference(case):
    space, u, t = case
    field, n = space.field, space.n
    ub = u.basis_rows()
    want = congruence_span(field, ub, space.basis, ub)
    r = restrict(space, u)
    assert (r.field, r.n) == (field, u.dim)
    assert [m.entries for m in r.basis] == want
    # the restriction skips validation; the checked constructor accepts it
    assert AltMatrixSpace(field, u.dim, r.basis) == r
    assert is_isotropic(space, u) == (not want)
    if t.rank() < n:
        with pytest.raises(ValueError):
            isometry_transform(space, t)
    else:
        tt = [t.col(j) for j in range(n)]
        moved = isometry_transform(space, t)
        assert [m.entries for m in moved.basis] == congruence_span(field, tt, space.basis, tt)
        assert AltMatrixSpace(field, n, moved.basis) == moved


@settings(max_examples=120, deadline=None)
@given(congruence_cases(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_a_restriction_of_a_restriction_is_the_restriction_to_the_image(case, count, rng):
    # W = w . U has A|_W = (A|_U)|_w with the same canonical basis (chi_lawler's docstring)
    space, u, _ = case
    w = Subspace.from_vectors(space.field, u.dim, [
        [rng.randrange(space.field.p) for _ in range(u.dim)] for _ in range(count)])
    inner, outer = restrict(restrict(space, u), w), restrict(space, w.image(u))
    assert (inner.n, inner.basis) == (outer.n, outer.basis)


@st.composite
def restriction_cases(draw):
    """(space, U): a random alternating space on F^n, n <= 7, over F_2,
    F_3, F_5 or F_251, and U the zero space, a line, a random span or the
    full space."""
    field = draw(st.sampled_from([F2, F3, F5, F251]))
    n = draw(st.integers(0, 7))
    rng = draw(st.randoms(use_true_random=False))
    space = random_space(rng, field, n, draw(st.integers(0, 5)))
    which = draw(st.sampled_from(["zero", "line", "random", "full"]))
    if which == "full":
        return space, Subspace.full(field, n)
    count = {"zero": 0, "line": 1, "random": rng.randint(1, n + 1)}[which]
    return space, Subspace.from_vectors(field, n, [[rng.randrange(field.p) for _ in range(n)]
                                                   for _ in range(count)])


@settings(max_examples=200, deadline=None)
@given(restriction_cases())
@example((random_space(random.Random(2), F251, 7, 5), Subspace.full(F251, 7)))
@example((random_space(random.Random(3), F2, 1, 0), Subspace.full(F2, 1)))
def test_restrict_is_the_span_of_the_products(case):
    # read off the upper triangles, the basis is that of the explicit
    # products B A B^t reduced by the checked constructor, basis for basis
    space, u = case
    b = u.basis
    want = AltMatrixSpace.from_generators(space.field, u.dim,
                                          [b @ a @ b.transpose() for a in space.basis])
    got = restrict(space, u)
    assert (got.field, got.n, got.basis) == (want.field, want.n, want.basis)


@st.composite
def restriction_pairs(draw):
    """Two (space, U) on one F^n, n <= 4, the second space often the first."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(0, 4))
    rng = draw(st.randoms(use_true_random=False))
    a = random_space(rng, field, n, draw(st.integers(0, 3)))
    b = a if draw(st.booleans()) else random_space(rng, field, n, draw(st.integers(0, 3)))
    return [(sp, Subspace.from_vectors(field, n, [[rng.randrange(field.p) for _ in range(n)]
                                                  for _ in range(rng.randint(0, n))]))
            for sp in (a, b)]


@settings(max_examples=200, deadline=None)
@given(restriction_pairs())
def test_equal_restriction_keys_are_equal_restrictions(pair):
    # chi_lawler's memo compares (dim U, key) of restrictions from different parents
    keys = [(u.dim, FormRows(sp.field, sp.n, sp.n, sp.basis).restriction(u.rows))
            for sp, u in pair]
    assert (keys[0] == keys[1]) == (restrict(*pair[0]) == restrict(*pair[1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5, F251]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_block_extraction_follows_the_tuple_reference(field, s, t, m, rng):
    b = random_matrix_space(rng, field, s, t, m)
    moved, u1, u2 = moved_split(b, rng)
    got = block_space_from_bipartite(moved, u1, u2)
    assert (got.s, got.t) == (s, t)
    assert [x.entries for x in got.basis] == congruence_span(
        field, u1.basis_rows(), moved.basis, u2.basis_rows())


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # reporting a failing @given test imports libcst, whose import warns a
    # DeprecationWarning; under the project's warning filters that must not
    # stop the session, so the passing test after it still runs
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n")
    (tmp_path / "test_b.py").write_text("def test_passes():\n    pass\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout, proc.stdout
