"""Cross-oracle identities on generated inputs (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from isospace.isotropic import (chi_brute, chi_lawler, chi_maxcover,
                                validate_decomposition)
from util import F2, F3, random_space


@st.composite
def alternating_spaces(draw):
    """Spans of up to 4 random alternating matrices on F^n, n <= 4, over F_2 or F_3."""
    field = draw(st.sampled_from([F2, F3]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    return random_space(draw(st.randoms(use_true_random=False)), field, n, m)


@settings(max_examples=30, deadline=None)
@given(alternating_spaces())
def test_three_chi_computations_agree(space):
    cb, brute_parts = chi_brute(space)
    cl, lawler_parts = chi_lawler(space)
    assert cb == cl == chi_maxcover(space) == len(brute_parts) == len(lawler_parts)
    validate_decomposition(space, brute_parts)
    validate_decomposition(space, lawler_parts)
