"""Quantum channels from connected graphs: periodicity and isotropic spaces.

A connected graph yields an irreducible channel whose Kraus operators are
scaled elementary matrices (a quantum walk).  Isotropic subspaces,
noiseless subspaces, periods, and pure-state gate fidelities are computed
in complex floating point with explicit tolerances.
"""

from __future__ import annotations

from .graphs import Graph

# numpy is imported inside the functions that use it, so importing the
# package (and so every CLI command but `quantum`) does not load it.

CHANNEL_TOL = 1e-10
EIG_TOL = 1e-8
ISO_TOL = 1e-9
PD_TOL = 1e-10
ORTHO_TOL = 1e-10
UNIT_TOL = 1e-9


class QuantumChannel:
    """A finite Kraus family {B_i} with sum B_i^dagger B_i = I, held as one
    read-only complex array of shape (m, n, n)."""

    __slots__ = ("n", "kraus")

    def __init__(self, kraus):
        import numpy as np
        try:
            kraus = np.array(kraus, dtype=complex)
        except ValueError:      # a ragged list: operators of different shapes
            raise ValueError("Kraus operators must be square of equal size") from None
        if not len(kraus):
            raise ValueError("need at least one Kraus operator")
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
            raise ValueError("Kraus operators must be square of equal size")
        self.n = kraus.shape[1]
        total = np.tensordot(kraus.conj(), kraus, axes=([0, 1], [0, 1]))
        if np.max(np.abs(total - np.eye(self.n))) > CHANNEL_TOL:
            raise ValueError("Kraus operators do not satisfy the "
                             "trace-preservation identity")
        kraus.flags.writeable = False
        self.kraus = kraus

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.kraus @ rho @ self.kraus.conj().transpose(0, 2, 1)).sum(axis=0)

    def __repr__(self):
        return f"QuantumChannel(n={self.n}, kraus={len(self.kraus)})"


class ComplexSubspace:
    """A subspace of C^n held as orthonormal basis columns."""

    __slots__ = ("n", "basis")

    def __init__(self, basis: np.ndarray):
        import numpy as np
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("basis must be an n x d array of columns")
        n, d = basis.shape
        gram = basis.conj().T @ basis
        if d and np.max(np.abs(gram - np.eye(d))) > ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        self.n = n
        self.basis = basis

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "ComplexSubspace":
        """Orthonormalize a spanning list of vectors (rank revealed by SVD)."""
        import numpy as np
        arr = np.array([np.asarray(v, dtype=complex) for v in vectors]).T
        if arr.size == 0:
            return cls(np.zeros((n, 0), dtype=complex))
        u, sv, _ = np.linalg.svd(arr, full_matrices=False)
        return cls(u[:, :int(np.sum(sv > 1e-12))])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"ComplexSubspace(C^{self.n}, dim {self.dim})"


def channel_from_graph(g: Graph) -> QuantumChannel:
    """Kraus family {E_ij / sqrt(d_j), E_ji / sqrt(d_i) : {i,j} edge}.

    Requires a connected graph with no isolated vertex; the resulting
    channel is irreducible with 2|E| Kraus operators.
    """
    import numpy as np
    ends = np.array(g.edges, dtype=int).reshape(-1, 2)
    degs = np.bincount(ends.ravel(), minlength=g.n)
    if g.n == 0 or not g.is_connected() or not degs.all():
        raise ValueError("channel construction needs a connected graph "
                         "with every vertex degree >= 1")
    i, j = ends.T
    e = 2 * np.arange(len(ends))
    kraus = np.zeros((2 * len(ends), g.n, g.n), dtype=complex)
    kraus[e, i, j] = 1.0 / np.sqrt(degs[j])
    kraus[e + 1, j, i] = 1.0 / np.sqrt(degs[i])
    return QuantumChannel(kraus)


def channel_matrix(ch: QuantumChannel) -> np.ndarray:
    """The n^2 x n^2 matrix sum_i B_i (x) conj(B_i).

    With row-major vectorization, applying it to vec(rho) equals
    vec(sum_i B_i rho B_i^dagger).  One product of the flattened operators
    gives the sums over i of B_i[a, b] conj(B_i[c, d]), in the order (a, b, c, d).
    """
    n = ch.n
    flat = ch.kraus.reshape(-1, n * n)
    prod = (flat.T @ flat.conj()).reshape(n, n, n, n)
    return prod.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _spectrum(ch: QuantumChannel):
    """(eigenvalues, fixed state or None) of one eig of the channel matrix.

    The fixed state exists iff the eigenvalue 1 has algebraic (hence
    geometric) multiplicity 1 and its eigenvector, Hermitized and
    trace-normalized, is positive definite.
    """
    import numpy as np
    n = ch.n
    vals, vecs = np.linalg.eig(channel_matrix(ch))
    close = [i for i in range(len(vals)) if abs(vals[i] - 1.0) < EIG_TOL]
    if len(close) != 1:
        return vals, None
    rho = vecs[:, close[0]].reshape(n, n)
    rho = (rho + rho.conj().T) / 2.0
    tr = np.trace(rho).real
    if abs(tr) < PD_TOL:
        return vals, None
    rho = rho / tr
    if np.min(np.linalg.eigvalsh(rho)) <= PD_TOL:
        return vals, None
    return vals, rho


def is_irreducible(ch: QuantumChannel):
    """Check irreducibility; returns (bool, fixed state or None)."""
    rho = _spectrum(ch)[1]
    return rho is not None, rho


def period(ch: QuantumChannel) -> int:
    """Number of magnitude-one eigenvalues of the channel matrix, read from
    the same decomposition as the irreducibility check.

    Defined for irreducible channels only.
    """
    import numpy as np
    vals, rho = _spectrum(ch)
    if rho is None:
        raise ValueError("period is defined for irreducible channels")
    return int(np.sum(np.abs(np.abs(vals) - 1.0) < EIG_TOL))


def decide_iso_2_decomposition(ch: QuantumChannel) -> bool:
    """An irreducible channel has an isotropic 2-decomposition iff its
    period is even."""
    return period(ch) % 2 == 0


def is_isotropic_subspace(ch: QuantumChannel, u: ComplexSubspace) -> bool:
    """True iff |a^dagger B_i b| < tol for all basis pairs and Kraus."""
    import numpy as np
    if u.n != ch.n:
        raise ValueError("ambient mismatch")
    b = u.basis
    return not (b.size and np.max(np.abs(b.conj().T @ ch.kraus @ b)) >= ISO_TOL)


def is_noiseless_subspace(ch: QuantumChannel, u: ComplexSubspace) -> bool:
    """True iff every Kraus operator fixes u pointwise."""
    import numpy as np
    if u.n != ch.n:
        raise ValueError("ambient mismatch")
    if u.dim == 0:
        raise ValueError("noiseless subspaces are nonzero by definition")
    b = u.basis
    return not np.max(np.abs(ch.kraus @ b - b)) >= ISO_TOL


def fidelity_pure(ch: QuantumChannel, u) -> float:
    """Gate fidelity against the identity on the pure state uu^dagger.

    Equals sum_i |u^dagger B_i u|^2, clamped to [0, 1]; u must be a unit
    vector.
    """
    import numpy as np
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.shape[0] != ch.n:
        raise ValueError("ambient mismatch")
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_TOL:      # a NaN fails too
        raise ValueError("fidelity_pure expects a unit vector")
    # a sequential sum over the operators' values, not numpy's pairwise one
    val = sum(np.abs((ch.kraus @ u) @ u.conj()) ** 2)
    return float(min(1.0, max(0.0, val)))
