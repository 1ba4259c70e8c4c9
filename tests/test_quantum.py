import random

import numpy as np
import pytest

from isospace.graphs import Graph, is_bipartite_bfs
from isospace.quantum import (CHANNEL_TOL, ComplexSubspace, QuantumChannel,
                              channel_from_graph, channel_matrix,
                              decide_iso_2_decomposition, fidelity_pure,
                              is_irreducible, is_isotropic_subspace,
                              is_noiseless_subspace, period)
from util import random_graph


def random_connected_graph(rng, nmax=6):
    while True:
        n = rng.randint(2, nmax)
        g = random_graph(rng, n)
        if g.is_connected() and all(g.degree(i) >= 1 for i in range(n)):
            return g


def test_channel_from_k2():
    ch = channel_from_graph(Graph(2, [(0, 1)]))
    assert len(ch.kraus) == 2
    mats = {tuple(np.flatnonzero(k)) for k in ch.kraus}
    assert sorted(np.abs(k).max() for k in ch.kraus) == [1.0, 1.0]


def test_channel_from_k3_factors():
    ch = channel_from_graph(Graph.complete(3))
    assert len(ch.kraus) == 6
    for k in ch.kraus:
        assert abs(np.abs(k).max() - 1 / np.sqrt(2)) < 1e-12


def test_channel_validation():
    rng = random.Random(1)
    for _ in range(20):
        g = random_connected_graph(rng)
        ch = channel_from_graph(g)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(ch.n))) <= CHANNEL_TOL


def test_channel_rejects_disconnected_and_isolated():
    with pytest.raises(ValueError):
        channel_from_graph(Graph(4, [(0, 1)]))
    with pytest.raises(ValueError):
        channel_from_graph(Graph(1, []))


def test_channel_matrix_identity_and_unitary():
    ident = QuantumChannel([np.eye(3)])
    assert np.allclose(channel_matrix(ident), np.eye(9))
    theta = 0.37
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    ch = QuantumChannel([u])
    assert np.allclose(channel_matrix(ch), np.kron(u, u.conj()))


def test_channel_matrix_action_matches_kraus():
    rng = np.random.default_rng(7)
    ch = channel_from_graph(Graph.cycle(5))
    m = channel_matrix(ch)
    for _ in range(50):
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        lhs = (m @ rho.reshape(-1)).reshape(5, 5)
        assert np.max(np.abs(lhs - ch.apply(rho))) < 1e-10


def test_irreducibility():
    ok, rho = is_irreducible(channel_from_graph(Graph.complete(3)))
    assert ok
    assert np.allclose(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.min(np.linalg.eigvalsh(rho)) > 0
    # identity channel: eigenvalue 1 multiplicity n^2
    assert is_irreducible(QuantumChannel([np.eye(2)]))[0] is False
    # contrived reducible channel with invariant proper support
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 0] = 1.0
    k2 = np.zeros((2, 2), dtype=complex)
    k2[0, 1] = 1.0
    assert is_irreducible(QuantumChannel([k1, k2]))[0] is False


def test_periods():
    assert period(channel_from_graph(Graph(2, [(0, 1)]))) == 2
    assert period(channel_from_graph(Graph.complete(3))) == 1
    assert period(channel_from_graph(Graph.cycle(4))) == 2


def test_period_requires_irreducible():
    with pytest.raises(ValueError):
        period(QuantumChannel([np.eye(2)]))


def test_decide_two_decomposition_matches_bipartite():
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng)
        ch = channel_from_graph(g)
        p = period(ch)
        bip = is_bipartite_bfs(g)[0]
        assert p in (1, 2)
        assert (p == 2) == bip
        assert decide_iso_2_decomposition(ch) == bip


def test_isotropic_subspace_from_independent_sets():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng)
        ch = channel_from_graph(g)
        # every single vertex is independent
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = 1.0
            assert is_isotropic_subspace(ch, ComplexSubspace.from_vectors(g.n, [e]))
        full = ComplexSubspace.from_vectors(g.n, list(np.eye(g.n)))
        assert not is_isotropic_subspace(ch, full)
        # the span of every independent set is isotropic
        import itertools
        for k in range(2, g.n + 1):
            for s in itertools.combinations(range(g.n), k):
                if any(g.has_edge(a, b) for a in s for b in s if a < b):
                    continue
                vecs = [np.eye(g.n)[i] for i in s]
                assert is_isotropic_subspace(ch, ComplexSubspace.from_vectors(g.n, vecs))


def test_complex_subspace_keeps_the_rank_of_its_vectors():
    # an independent vector after a dependent one still counts
    cases = [(2, [[0, 0], [1, 0]], 1), (3, [[1, 0, 0], [2, 0, 0], [0, 1, 0]], 2),
             (3, [[0, 0, 0], [0, 0, 0]], 0), (3, [[1, 1j, 0], [0, 1, 1], [1, 1 + 1j, 1]], 2),
             (3, list(np.eye(3)), 3)]
    for n, vecs, rank in cases:
        u = ComplexSubspace.from_vectors(n, vecs)
        assert (u.n, u.dim) == (n, rank), vecs
        assert np.linalg.matrix_rank(np.column_stack([u.basis] + [np.asarray(vecs).T])) == rank


def test_noiseless():
    ident = QuantumChannel([np.eye(2)])
    u = ComplexSubspace.from_vectors(2, [[1, 0]])
    assert is_noiseless_subspace(ident, u)
    ch = channel_from_graph(Graph(2, [(0, 1)]))
    assert not is_noiseless_subspace(ch, u)
    with pytest.raises(ValueError):
        is_noiseless_subspace(ident, ComplexSubspace(np.zeros((2, 0))))
    # block construction: unitary on the first coordinate, identity on the rest
    k = np.diag([np.exp(0.3j), 1.0, 1.0])
    ch2 = QuantumChannel([k])
    rest = ComplexSubspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert is_noiseless_subspace(ch2, rest)


def test_fidelity_examples():
    ident = QuantumChannel([np.eye(2)])
    assert fidelity_pure(ident, [0.6, 0.8]) == 1.0
    k2 = channel_from_graph(Graph(2, [(0, 1)]))
    assert fidelity_pure(k2, [1.0, 0.0]) == 0.0
    val = fidelity_pure(k2, np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(val - 0.5) < 1e-9
    with pytest.raises(ValueError):
        fidelity_pure(k2, [1.0, 1.0])


def test_fidelity_characterizes_isotropic():
    # sampled form of the max-fidelity characterization: zero on isotropic
    # subspaces, visibly positive somewhere on non-isotropic ones
    rng = random.Random(11)
    nprng = np.random.default_rng(11)
    from isospace.graphs import graph_alpha_brute
    import itertools
    for _ in range(10):
        g = random_connected_graph(rng, nmax=5)
        ch = channel_from_graph(g)
        # a maximum independent set spans an isotropic subspace
        alpha = graph_alpha_brute(g)
        best_set = next(s for s in itertools.combinations(range(g.n), alpha)
                        if not any(g.has_edge(a, b) for a in s for b in s if a < b))
        vecs = [np.eye(g.n)[i] for i in best_set]
        iso = ComplexSubspace.from_vectors(g.n, vecs)
        assert is_isotropic_subspace(ch, iso)
        for _ in range(100):
            c = nprng.normal(size=iso.dim) + 1j * nprng.normal(size=iso.dim)
            u = iso.basis @ c
            u /= np.linalg.norm(u)
            assert fidelity_pure(ch, u) < 1e-12
        # the full space is not isotropic; some sampled state is noisy-visible
        full = ComplexSubspace.from_vectors(g.n, list(np.eye(g.n)))
        assert not is_isotropic_subspace(ch, full)
        best = 0.0
        for _ in range(100):
            v = nprng.normal(size=g.n) + 1j * nprng.normal(size=g.n)
            v /= np.linalg.norm(v)
            best = max(best, fidelity_pure(ch, v))
        assert best > 1e-6


def test_fidelity_rejects_vectors_that_are_not_finite():
    # NaN compares false with everything, so the unit check must not pass it
    k2 = channel_from_graph(Graph(2, [(0, 1)]))
    for u in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ValueError):
            fidelity_pure(k2, u)


def random_kraus_family(rng, n, m):
    """m random complex n x n operators A_i normalised to B_i = A_i S^(-1/2),
    S = sum A_i^dagger A_i, so that sum B_i^dagger B_i = I."""
    ops = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    w, v = np.linalg.eigh(sum(a.conj().T @ a for a in ops))
    return [a @ (v / np.sqrt(w)) @ v.conj().T for a in ops]


def test_dense_channels_match_the_per_operator_sums():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        ops = random_kraus_family(rng, n, m)
        ch = QuantumChannel(ops)
        assert (ch.n, ch.kraus.shape) == (n, (m, n, n))
        kron = sum(np.kron(k, k.conj()) for k in ops)
        assert np.max(np.abs(channel_matrix(ch) - kron)) < 1e-12
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = x @ x.conj().T / np.trace(x @ x.conj().T)
        want = sum(k @ rho @ k.conj().T for k in ops)
        assert np.max(np.abs(ch.apply(rho) - want)) < 1e-12


def test_graph_channel_matrices_equal_the_kronecker_sums():
    # one nonzero term per entry, so the product is exact
    rng = random.Random(16)
    graphs = [random_connected_graph(rng, nmax=9) for _ in range(20)]
    for g in graphs + [Graph.complete(16), Graph.cycle(7)]:
        ch = channel_from_graph(g)
        assert np.array_equal(channel_matrix(ch), sum(np.kron(k, k.conj()) for k in ch.kraus))


def test_channel_rejects_malformed_kraus_families():
    cases = [([], "need at least one Kraus operator"),
             ([np.ones((2, 3))], "Kraus operators must be square of equal size"),
             ([np.eye(2), np.eye(3)], "Kraus operators must be square of equal size"),
             ([np.eye(2), np.ones((2, 3))], "Kraus operators must be square of equal size"),
             ([np.eye(2), np.eye(2)], "Kraus operators do not satisfy the "
                                      "trace-preservation identity")]
    for kraus, message in cases:
        with pytest.raises(ValueError) as exc:
            QuantumChannel(kraus)
        assert str(exc.value) == message


def test_kraus_stack_is_read_only():
    ops = [np.eye(2)]
    ch = QuantumChannel(ops)
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 2.0
    ops[0][0, 0] = 2.0           # the channel holds its own copy
    assert ch.kraus[0, 0, 0] == 1.0
    assert [k.shape for k in ch.kraus] == [(2, 2)]


def test_subspace_tests_return_python_bools():
    ch = channel_from_graph(Graph.cycle(4))
    line = ComplexSubspace.from_vectors(4, [[1, 0, 0, 0]])
    full = ComplexSubspace.from_vectors(4, list(np.eye(4)))
    assert is_isotropic_subspace(ch, line) is True
    assert is_isotropic_subspace(ch, full) is False
    assert is_isotropic_subspace(ch, ComplexSubspace(np.zeros((4, 0)))) is True
    assert is_noiseless_subspace(ch, line) is False
    assert is_noiseless_subspace(QuantumChannel([np.eye(4)]), full) is True
