"""Cross-oracle identities on generated inputs (hypothesis)."""

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from isospace.altspace import degree, is_isotropic, rad_of
from isospace.bipartite import alpha_bipartite, bipartite_space_from_blocks, ncrk_brute
from isospace.ffield import Matrix, Subspace, rref_canonicalize
from isospace.isotropic import (alpha_exact, chi_brute, chi_lawler, chi_maxcover,
                                enumerate_maximal_branch, enumerate_maximal_filter,
                                validate_decomposition)
from util import F2, F3, random_matrix_space, random_space


@st.composite
def alternating_spaces(draw):
    """Spans of up to 4 random alternating matrices on F^n, n <= 4, over F_2 or F_3."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(1, 4))
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
    assert all(rad.contains_vector(x) for x in inside)
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
    assert rref_canonicalize(Matrix.from_rows(field, moved)) == \
        rref_canonicalize(Matrix.from_rows(field, rows))


@settings(max_examples=30, deadline=None)
@given(alternating_spaces())
def test_branch_and_filter_enumerations_agree(space):
    branch = {u.key() for u in enumerate_maximal_branch(space)}
    assert branch == {u.key() for u in enumerate_maximal_filter(space)}
