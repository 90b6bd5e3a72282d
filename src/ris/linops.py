"""Dense complex linear algebra and superoperator calculus.

Conventions used throughout the package:

* An n x n complex matrix X is vectorized row-major, i.e. in the basis of
  elementary matrices u_kl = |k><l| ordered lexicographically by (k, l);
  the coefficient of u_kl sits at index k*n + l of ``vec(X) = X.reshape(-1)``.
* A superoperator (linear map on n x n matrices) is stored as its n^2 x n^2
  matrix in that basis.  The map x -> A x B has matrix ``kron(A, B.T)``.
* The computational norm on superoperators is the one induced by the
  Hilbert-Schmidt norm on matrices, i.e. the largest singular value of the
  n^2 x n^2 matrix.  It differs from the operator-norm-induced norm by a
  factor of at most sqrt(n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class BranchCutCollisionError(ValueError):
    """An eigenvalue sits on (or too close to) the requested branch cut.

    Carries ``suggested_cut``, the bisector of the largest angular gap in
    the spectrum, which maximizes the numerical margin.
    """

    def __init__(self, message: str, suggested_cut: float):
        super().__init__(message)
        self.suggested_cut = suggested_cut


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(x).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    n = round(np.sqrt(v.size))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(n, n)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def hermitian_defect(a: np.ndarray) -> float:
    """max_jk |A_jk - conj(A_kj)|."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max(initial=0.0))


def require_hermitian(a: np.ndarray, name: str = "matrix", rtol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity relative to the largest entry; returns complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
    defect = hermitian_defect(a)
    if defect > rtol * scale:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {defect:.3e} "
                         f"exceeds {rtol:.0e} * max|entry| = {rtol * scale:.3e}")
    return a


class Superoperator:
    """A linear map on n x n matrices, stored as an n^2 x n^2 matrix.

    Values are immutable by convention: all arithmetic returns new
    instances and no method mutates ``matrix``.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"superoperator matrix must be square, got {matrix.shape}")
        n = round(np.sqrt(matrix.shape[0]))
        if n * n != matrix.shape[0]:
            raise ValueError(f"superoperator side {matrix.shape[0]} is not a perfect square")
        self.matrix = matrix
        self.dim = n

    @classmethod
    def identity(cls, n: int) -> "Superoperator":
        return cls(np.eye(n * n, dtype=complex))

    @classmethod
    def zero(cls, n: int) -> "Superoperator":
        return cls(np.zeros((n * n, n * n), dtype=complex))

    @classmethod
    def left_right(cls, a: np.ndarray, b: np.ndarray) -> "Superoperator":
        """The map x -> a x b."""
        return cls(np.kron(a, np.asarray(b).T))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {x.shape}")
        return unvec(self.matrix @ vec(x))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.matrix @ other.matrix)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.matrix + other.matrix)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.matrix - other.matrix)

    def __neg__(self) -> "Superoperator":
        return Superoperator(-self.matrix)

    def __mul__(self, scalar) -> "Superoperator":
        return Superoperator(self.matrix * scalar)

    __rmul__ = __mul__

    def trace_dual(self) -> "Superoperator":
        """The map S* with Tr(rho * S(x)) = Tr(S*(rho) * x) for all rho, x.

        This is the Schroedinger-picture adjoint (bilinear trace pairing);
        for a Hermiticity-preserving map it equals the Hilbert-Schmidt
        adjoint, the conjugate transpose of ``matrix``.
        """
        n = self.dim
        sw = _swap_permutation(n)
        return Superoperator(self.matrix.T[np.ix_(sw, sw)])

    def power(self, k: int) -> "Superoperator":
        return Superoperator(np.linalg.matrix_power(self.matrix, k))

    def norm(self) -> float:
        return superop_norm(self)

    def __repr__(self):
        return f"Superoperator(dim={self.dim})"


def _swap_permutation(n: int):
    """Index permutation realizing transposition on vectorized matrices."""
    idx = np.arange(n * n).reshape(n, n).T.reshape(-1)
    return idx


def commutator_superop(v: np.ndarray) -> Superoperator:
    """The map x -> [v, x] = v x - x v."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    eye = np.eye(n)
    return Superoperator(np.kron(v, eye) - np.kron(eye, v.T))


def derivation_superop(h: np.ndarray) -> Superoperator:
    """Heisenberg derivation x -> i[h, x] of a Hermitian h.

    exp(t * result) is the evolution x -> e^{ith} x e^{-ith}; on u_kl it
    acts as multiplication by e^{it(E_k - E_l)}, so u01 of a two-level h =
    diag(0, S) picks up the phase e^{-itS}.
    """
    h = require_hermitian(h, name="h")
    return 1j * commutator_superop(h)


def superop_norm(s: Superoperator | np.ndarray) -> float:
    """Largest singular value (norm induced by the Hilbert-Schmidt norm)."""
    m = s.matrix if isinstance(s, Superoperator) else np.asarray(s)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def matrix_exp(a: Superoperator | np.ndarray):
    """Matrix exponential; accepts a plain matrix or a Superoperator."""
    if isinstance(a, Superoperator):
        return Superoperator(matrix_exp(a.matrix))
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exp: input has non-finite entries")
    if not a.any():
        return np.eye(a.shape[0], dtype=complex)
    return scipy.linalg.expm(a)


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: complex
    projection: "np.ndarray | Superoperator"
    multiplicity: int

    @property
    def projection_matrix(self) -> np.ndarray:
        p = self.projection
        return p.matrix if isinstance(p, Superoperator) else p


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues with their spectral projections.

    ``degenerate`` flags a clustering ambiguity: two distinct clusters
    closer than twice the tolerance.
    """
    clusters: tuple
    cluster_tolerance: float
    degenerate: bool = False

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([c.eigenvalue for c in self.clusters])

    def projection_matrices(self) -> list[np.ndarray]:
        return [c.projection_matrix for c in self.clusters]

    def reconstruction(self) -> np.ndarray:
        return sum(c.eigenvalue * c.projection_matrix for c in self.clusters)


def _cluster_indices(eigs: np.ndarray, tol: float):
    """Connected components of the graph |e_i - e_j| <= tol, plus ambiguity flag."""
    m = len(eigs)
    dist = np.abs(eigs[:, None] - eigs[None, :])
    adj = dist <= tol
    labels = -np.ones(m, dtype=int)
    groups = []
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack, comp = [i], []
        labels[i] = len(groups)
        while stack:
            j = stack.pop()
            comp.append(j)
            for k in np.nonzero(adj[j])[0]:
                if labels[k] < 0:
                    labels[k] = labels[i]
                    stack.append(k)
        groups.append(np.array(comp))
    # ambiguity: distinct clusters with members closer than 2*tol
    degenerate = False
    for g in range(len(groups)):
        for h in range(g + 1, len(groups)):
            if dist[np.ix_(groups[g], groups[h])].min() <= 2 * tol:
                degenerate = True
    return groups, degenerate


def normality_defect(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex)
    return float(np.linalg.norm(a @ a.conj().T - a.conj().T @ a, "fro"))


def spectral_decompose(a: Superoperator | np.ndarray,
                       tol: float = 1e-8) -> SpectralDecomposition:
    """Eigenvalue clusters and orthogonal projections of a normal matrix or superoperator.

    The input must be normal (AA† = A†A to 1e-10 relative); the projections
    are Hermitian, from a complex Schur decomposition, and eigenvalues
    within ``tol`` of each other merge into one cluster.  Non-normal maps
    (reduced maps, generators) are rejected: their eigenprojections pair
    right and left eigenvectors, in :mod:`ris.asymptotic`.

    A test reference: the package averages over Bohr sectors as a mask in
    the eigenframe of h_S.  It stays here only because perfbench/tracer.py
    binds it by name.
    """
    wrap = isinstance(a, Superoperator)
    m = a.matrix if wrap else np.asarray(a, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m, "fro")) ** 2)
    if normality_defect(m) > 1e-10 * scale:
        raise ValueError("input is not normal within 1e-10")
    t, z = scipy.linalg.schur(m, output="complex")
    eigs = np.diag(t)
    groups, degenerate = _cluster_indices(eigs, tol)
    clusters = []
    for idx in groups:
        p = z[:, idx] @ z[:, idx].conj().T
        clusters.append(SpectralCluster(
            eigenvalue=complex(eigs[idx].mean()),
            projection=Superoperator(p) if wrap else p,
            multiplicity=len(idx),
        ))
    clusters.sort(key=lambda c: (round(c.eigenvalue.real, 12), round(c.eigenvalue.imag, 12)))
    return SpectralDecomposition(tuple(clusters), tol, degenerate)


def largest_gap_bisector(angles: np.ndarray) -> float:
    """Bisector of the largest angular gap of a set of angles, in (-pi, pi].

    Gaps within 1e-9 of the largest count as tied, and the largest of their
    bisectors wins: a Bohr spectrum is symmetric under theta -> -theta, so
    its largest gap often comes as a pair that rounding alone would split.
    """
    a = np.sort(np.mod(np.asarray(angles, dtype=float), 2 * np.pi))
    if a.size == 0:
        return np.pi
    gaps = np.diff(np.concatenate([a, [a[0] + 2 * np.pi]]))
    tied = np.nonzero(gaps >= gaps.max() - 1e-9)[0]
    mids = np.mod(a[tied] + gaps[tied] / 2.0 + np.pi, 2 * np.pi) - np.pi
    return float(np.where(mids == -np.pi, np.pi, mids).max())


def wrap_to_cut(angles: np.ndarray, branch_cut_angle: float) -> np.ndarray:
    """Angles moved into the 2*pi window (cut - 2*pi, cut) of a branch cut.

    An angle within angular distance 1e-8 of the cut raises
    BranchCutCollisionError carrying the largest-gap bisector as the
    suggested cut.
    """
    angles = np.asarray(angles, dtype=float)
    rel = np.mod(angles - branch_cut_angle, 2 * np.pi)
    dist_to_cut = np.minimum(rel, 2 * np.pi - rel)
    if dist_to_cut.min() < 1e-8:
        raise BranchCutCollisionError(
            f"eigenvalue at angle {angles[int(np.argmin(dist_to_cut))]:.12f} collides "
            f"with the branch cut at {branch_cut_angle:.12f}",
            suggested_cut=largest_gap_bisector(angles))
    return branch_cut_angle - 2 * np.pi + rel


def matrix_log_unitary(u: Superoperator | np.ndarray,
                       branch_cut_angle: float = np.pi):
    """Logarithm of a unitary, with an explicit branch cut.

    Eigenvalue arguments are placed in the 2*pi window (cut - 2*pi, cut);
    the result is anti-Hermitian and satisfies exp(result) = u.  The
    window and the collision rule are :func:`wrap_to_cut`.

    A test reference: the package takes the branch logarithm of
    alpha_S^tau as wrapped Bohr angles in the eigenframe of h_S.  It stays
    here only because perfbench/tracer.py binds it by name.
    """
    wrap = isinstance(u, Superoperator)
    m = u.matrix if wrap else np.asarray(u, dtype=complex)
    n = m.shape[0]
    defect = np.linalg.norm(m.conj().T @ m - np.eye(n), 2)
    if defect > 1e-8:
        raise ValueError(f"input is not unitary: ||u†u - I|| = {defect:.3e}")

    t, z = scipy.linalg.schur(m, output="complex")
    shifted = wrap_to_cut(np.angle(np.diag(t)), branch_cut_angle)
    log_m = z @ (1j * shifted[:, None] * z.conj().T)
    log_m = 0.5 * (log_m - log_m.conj().T)  # exactly anti-Hermitian
    return Superoperator(log_m) if wrap else log_m


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix C with C[(j,a),(m,b)] = <e_a, S(u_jm) e_b>.

    S is completely positive iff C is positive semidefinite; the identity
    map yields the unnormalized maximally entangled projector (trace n).
    """
    n = s.dim
    return s.matrix.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n).copy()
