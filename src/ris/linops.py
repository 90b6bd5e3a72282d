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

Every production path runs on numpy alone: :func:`matrix_exp` is a
numpy port of the Pade scaling-and-squaring exponential, because loading
``scipy.linalg`` for it took 0.3-0.5 s and about 26 MB of resident memory
per run (scipy 1.17, numpy 2.4, 2-vCPU x86-64 host).  Only the test
references :func:`spectral_decompose` and :func:`matrix_log_unitary` still
import scipy, on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, log2

import numpy as np


class BranchCutCollisionError(ValueError):
    """An eigenvalue sits on (or too close to) the branch cut asked of :func:`matrix_log_unitary`.

    Carries ``suggested_cut``, the bisector of the largest angular gap in
    the spectrum, which maximizes the numerical margin.
    """

    def __init__(self, message: str, suggested_cut: float):
        super().__init__(message)
        self.suggested_cut = suggested_cut


class NotHermitianError(ValueError):
    """A matrix that must be Hermitian is not; ``name`` is the name it was checked under."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.

    One broadcast product, the same entries a_ij b_kl as ``np.kron`` to the bit,
    without its general n-d set-up.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def change_frame(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F x F^† with F = kron(q, conj q) for (a stack of) matrices x of maps on M_n, in O(n^5)."""
    n, lead = q.shape[0], x.shape[:-2]
    y = (x.reshape(-1, n) @ q.T).reshape(*lead, n, n, n, n)  # (a, b, c, l)
    y = np.swapaxes(y, -1, -2).reshape(-1, n) @ q.conj().T  # (a, b, l, k)
    y = np.swapaxes(y.reshape(*lead, n, n, n, n), -1, -2)  # (a, b, k, l)
    y = q.conj() @ y.reshape(*lead, n, n, n * n)  # (a, j, (k, l))
    return (q @ y.reshape(*lead, n, n ** 3)).reshape(*lead, n * n, n * n)


def hermitian_defect(a: np.ndarray) -> float:
    """max_jk |A_jk - conj(A_kj)|."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max(initial=0.0))


def require_hermitian(a: np.ndarray, name: str = "matrix", rtol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity relative to the largest entry; returns complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(name, f"must be square, got shape {a.shape}")
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
    defect = hermitian_defect(a)
    if defect > rtol * scale:
        raise NotHermitianError(name, f"is not Hermitian: max asymmetry {defect:.3e} "
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {x.shape}")
        return (self.matrix @ x.reshape(-1)).reshape(x.shape)

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
        sw = np.arange(self.dim ** 2).reshape(self.dim, self.dim).T.reshape(-1)  # x -> x^T
        return Superoperator(self.matrix.T[np.ix_(sw, sw)])

    def __repr__(self):
        return f"Superoperator(dim={self.dim})"


def superop_norm(s: Superoperator | np.ndarray):
    """Largest singular value (norm induced by the Hilbert-Schmidt norm).

    A float for one matrix; an array of norms, one per matrix, for a stack
    of matrices along leading axes.
    """
    m = s.matrix if isinstance(s, Superoperator) else np.asarray(s)
    if m.size == 0:
        return 0.0
    norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def matrix_exp(a: Superoperator | np.ndarray):
    """Matrix exponential; accepts a plain matrix or a Superoperator.

    Pade scaling and squaring in numpy alone (Al-Mohy and Higham, "A new
    scaling and squaring algorithm for the matrix exponential", SIAM J.
    Matrix Anal. Appl. 31 (2009), Algorithm 5.1 with exact 1-norms): see
    :func:`_pade_expm`, which also states when an exponent past double
    precision is refused with a ValueError.
    ``tests/test_linops.py::TestPadeKernel`` checks it against
    ``scipy.linalg.expm``, the same algorithm, at a relative 1-norm gap of
    1e-12.
    """
    if isinstance(a, Superoperator):
        return Superoperator(matrix_exp(a.matrix))
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exp: input has non-finite entries")
    return _pade_expm(a)


def _pade_rows(m: int) -> np.ndarray:
    """Coefficients over [I, A^2, A^4, ...] of the degree-m Pade pieces U and V.

    b_j = (2m - j)! / (j! (m - j)!) is the [m/m] Pade numerator of e^x up to
    a common factor, and r_m(A) = (V - U)^-1 (V + U) with U its odd part.
    Below degree 13 the two rows give U = A (row 0) and V (row 1); at 13 the
    four give U = A (A^6 U_in + U_out) and V = A^6 V_in + V_out.
    """
    b = [float(factorial(2 * m - j) // (factorial(j) * factorial(m - j))) for j in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]])
    return np.array([[0.0, *b[9::2]], b[1:9:2], [0.0, *b[8::2]], b[0:8:2]])


_PADE = {m: _pade_rows(m) for m in (3, 5, 7, 9, 13)}
# theta_m of Al-Mohy and Higham (2009): the largest eta at which the
# degree-m approximant has backward error at most 2^-53
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
# 1/|c_{2m+1}| = (2m)! (2m+1)! / (m!)^2, the leading backward-error coefficient
_ELL_SCALE = {m: float(factorial(2 * m) * factorial(2 * m + 1) // factorial(m) ** 2)
              for m in _PADE}
_UNIT_ROUNDOFF = 2.0 ** -53
_MAX_SQUARINGS = 53
_MAX_AMPLIFICATION = 2.0 ** 53
# ||A^j||_1 <= ||A||_1^j, so up to this 1-norm A^2 ... A^10 cannot overflow
_MAX_ONENORM = float(np.finfo(float).max) ** 0.1
# degree 13 on 2^-s A: the coefficient of A^j scales by 2^-js, and the rows
# U_in, U_out, V_in, V_out by the 2^-s powers of the A A^6, A, A^6, 1 before them
_HALVINGS_13 = np.array([[7], [1], [6], [0]]) + np.arange(0, 8, 2)


def _onenorm(x: np.ndarray) -> float:
    """Largest column sum of |x|."""
    return float(np.abs(x).sum(axis=0).max())


def _ell(abs_a: np.ndarray, norm_a: float, m: int) -> int:
    """Extra squarings that keep the degree-m backward error near 2^-53 (Al-Mohy and Higham).

    ``abs_a`` is |A| elementwise and ``norm_a`` its 1-norm.  |A|^{2m+1} is
    nonnegative, so its 1-norm is the largest entry of 1^T |A|^{2m+1}, here
    by binary powering: the squares of |A| commute with each other.  The
    powers are those of |A| / ||A||_1, whose column sums stay at most 1, so
    none overflows; the 2m + 1 factors of ||A||_1 return as 2m log2 ||A||_1
    in log2 alpha, alpha = || |A|^{2m+1} ||_1 / (||A||_1 c_m u).
    """
    row, square, p = np.ones(abs_a.shape[0]), abs_a / norm_a, 2 * m + 1
    while True:
        if p & 1:
            row = row @ square
        p >>= 1
        if not p:
            break
        square = square @ square
    power = float(row.max())
    if not power:
        return 0
    log_alpha = log2(power) + 2 * m * log2(norm_a) - log2(_ELL_SCALE[m] * _UNIT_ROUNDOFF)
    return max(ceil(log_alpha / (2 * m)), 0)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """e^A of a finite complex square matrix: the kernel of :func:`matrix_exp`.

    A diagonal A, the zero matrix among them, gives the exponentials of its
    entries.  Otherwise, with d_j = ||A^j||_1^(1/j), the first degree m of
    3, 5 (eta = max(d_4, d_6)) and 7, 9 (eta = max(d_6, d_8)) with
    eta <= theta_m and ell = 0 gives r_m(A) = (V - U)^-1 (V + U) as it is;
    failing those, degree 13 on 2^-s A, s from min(eta, max(d_8, d_10))
    plus ell, squared s times.

    Raises ValueError, naming ||A||_1 and a squaring count, in four cases.
    Past ||A||_1 = _MAX_ONENORM (max float^(1/10), about 6.7e30) A^2 ... A^10
    may overflow: refused before those products, with the count
    ceil(log2(||A||_1 / theta_13)) that the 1-norm asks for.  s >= 53,
    refused before the Pade solve: each squaring doubles the relative
    rounding, so 2^s 2^-53 >= 1 leaves no correct digit.  A result that is
    not finite: the squarings of a far non-normal A, such as
    1e15 [[1, 1], [-1, -1]], amplify the rounding of r_m until it overflows.
    And an estimated amplification of the rounding past _MAX_AMPLIFICATION =
    2^53 = 1/u: x_{j+1} = x_j^2 carries at most 2 ||x_j||_1^2 / ||x_{j+1}||_1
    times the relative rounding of x_j, so u prod_j 2 ||x_j||_1^2 / ||x_{j+1}||_1
    over the squarings from x_0 = r_m bounds that of the result to first
    order: u with no squaring, about 2^s u for a normal A.  It overshoots
    where the rounding cancels, hence the room: 1e3 [[1, 1], [-1, -1]] reads
    3.3 and is 6e-10 off I + A; 1e6 [[1, 1], [-1, -1]] reads 4e47 and would
    be 84% off.
    """
    n = a.shape[0]
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    abs_a = np.abs(a)
    norm_a = _onenorm(abs_a)
    if norm_a > _MAX_ONENORM:
        raise ValueError(f"matrix_exp: ||A||_1 = {norm_a:.6g} exceeds {_MAX_ONENORM:.6g}, past "
                         f"which A^2 ... A^10 may overflow; its 1-norm asks for "
                         f"{ceil(log2(norm_a / _THETA[13]))} squarings")
    powers = np.empty((5, n, n), dtype=complex)  # I, A^2, A^4, A^6, A^8
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    d6 = _onenorm(powers[3]) ** (1 / 6)
    eta = max(_onenorm(powers[2]) ** (1 / 4), d6)
    m, s = 13, 0
    for degree in (3, 5):
        if eta <= _THETA[degree] and _ell(abs_a, norm_a, degree) == 0:
            m = degree
            break
    else:
        np.matmul(powers[2], powers[2], out=powers[4])
        d8 = _onenorm(powers[4]) ** (1 / 8)
        eta = max(d6, d8)
        for degree in (7, 9):
            if eta <= _THETA[degree] and _ell(abs_a, norm_a, degree) == 0:
                m = degree
                break
        else:
            eta = min(eta, max(d8, _onenorm(powers[2] @ powers[3]) ** (1 / 10)))
            if eta > _THETA[13]:
                s = ceil(log2(eta / _THETA[13]))
            s += _ell(abs_a * 2.0 ** -s, norm_a * 2.0 ** -s, 13)
            if s >= _MAX_SQUARINGS:
                raise ValueError(f"matrix_exp: ||A||_1 = {norm_a:.6g} needs {s} squarings, and "
                                 f"2^s 2^-53 >= 1 leaves no correct digit")
    coef = _PADE[m]
    k = coef.shape[1]
    if m < 13:
        u, v = (coef @ powers[:k].reshape(k, -1)).reshape(2, n, n)
        u = a @ u
    else:
        if s:
            coef = coef * 0.5 ** (s * _HALVINGS_13)
        u_in, u_out, v_in, v_out = (coef @ powers[:k].reshape(k, -1)).reshape(4, n, n)
        u = a @ (powers[3] @ u_in + u_out)
        v = powers[3] @ v_in + v_out
    x = np.linalg.solve(v - u, v + u)
    amplification, norm = _UNIT_ROUNDOFF, _onenorm(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            x = x @ x
            new = _onenorm(x)
            amplification *= 2.0 * norm * (norm / new)
            norm = new
    if not np.isfinite(x).all():
        raise ValueError(f"matrix_exp: ||A||_1 = {norm_a:.6g}: its {s} squarings overflow")
    if amplification > _MAX_AMPLIFICATION:
        raise ValueError(f"matrix_exp: ||A||_1 = {norm_a:.6g}: its {s} squarings amplify the "
                         f"rounding by an estimated {amplification:.3g}, past 2^53")
    return x


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
    if np.linalg.norm(m @ m.conj().T - m.conj().T @ m, "fro") > 1e-10 * scale:
        raise ValueError("input is not normal within 1e-10")
    import scipy.linalg
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


def matrix_log_unitary(u: Superoperator | np.ndarray,
                       branch_cut_angle: float = np.pi):
    """Logarithm of a unitary, with an explicit branch cut.

    Eigenvalue arguments are placed in the 2*pi window (cut - 2*pi, cut);
    the result is anti-Hermitian and satisfies exp(result) = u.  An angle
    within angular distance 1e-8 of the cut raises BranchCutCollisionError
    carrying the largest-gap bisector as the suggested cut.

    A test reference: the package reads the eigenvalue classes of
    alpha_S^tau, which every branch shares, off the Bohr angles in the
    eigenframe of h_S.  It stays here only because perfbench/tracer.py
    binds it by name.
    """
    wrap = isinstance(u, Superoperator)
    m = u.matrix if wrap else np.asarray(u, dtype=complex)
    n = m.shape[0]
    defect = np.linalg.norm(m.conj().T @ m - np.eye(n), 2)
    if defect > 1e-8:
        raise ValueError(f"input is not unitary: ||u†u - I|| = {defect:.3e}")

    import scipy.linalg
    t, z = scipy.linalg.schur(m, output="complex")
    angles = np.angle(np.diag(t))
    rel = np.mod(angles - branch_cut_angle, 2 * np.pi)
    dist_to_cut = np.minimum(rel, 2 * np.pi - rel)
    if dist_to_cut.min() < 1e-8:
        raise BranchCutCollisionError(
            f"eigenvalue at angle {angles[int(np.argmin(dist_to_cut))]:.12f} collides "
            f"with the branch cut at {branch_cut_angle:.12f}",
            suggested_cut=largest_gap_bisector(angles))
    shifted = branch_cut_angle - 2 * np.pi + rel
    log_m = z @ (1j * shifted[:, None] * z.conj().T)
    log_m = 0.5 * (log_m - log_m.conj().T)  # exactly anti-Hermitian
    return Superoperator(log_m) if wrap else log_m
