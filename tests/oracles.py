"""Superoperator oracles for the Hilbert-space reduced maps of ``ris``.

E_S and the compression of a full-space map to M_S, built entry by entry
on the n^2-dimensional space of vectorized matrices.  Slow, but
independent of the Kraus and Van Loan contractions the package uses, so
the tests compare the production maps against these.  The fixed state of
a map or generator, as an eigenvector of its trace dual, is the oracle
for the densities ``ris.asymptotic`` reads off eigenprojections.  The
Dyson terms as one superoperator block exponential are the oracle for the
Taylor-stack terms of ``ris.dynamics``; the nested quadrature with the
interaction picture as a product of n^2-sided superoperators, on the same
nodes, pins ``dyson_term_quadrature``, whose two innermost levels are
n-sized commutators and Kronecker sums in the eigenframe of H_0; its third
level as a loop over the outer nodes, the second-level quadrature times
one commutator superoperator per node, pins the symmetric-pair form.  The
Schur route to the van Hove averages (the branch logarithm A0 of
alpha_S^tau, its clustered spectral projections and the sum of P B P over
them) and their defining Cesaro time average are the oracles for the
Bohr-frame masks of ``ris.vanhove``.  The superoperator constructors, the
Choi matrix and the peripheral spectrum at the end are test helpers.
Every exponential here is ``scipy.linalg.expm``, never the package's own
``matrix_exp``, so no oracle shares its kernel with the code it checks.
"""
import math

import numpy as np
from scipy.linalg import expm

from ris.dynamics import ChainState, RISModel, dyson_term_quadrature, system_free_evolution
from ris.linops import (
    SpectralDecomposition,
    Superoperator,
    commutator_superop,
    kron,
    largest_gap_bisector,
    matrix_log_unitary,
    require_hermitian,
    vec,
)


def full_generator(model: RISModel, lam: float) -> Superoperator:
    """Generator of the interacting evolution: i[h_S + h_E, .] + i*lambda*[v, .]."""
    free = derivation_superop(model.free_hamiltonian)
    return free + (1j * lam) * commutator_superop(model.v)


def embed_matrix(model: RISModel) -> np.ndarray:
    """Matrix of x_S -> x_S (x) I_E on vectorized matrices."""
    ns, ne, n = model.n_s, model.n_e, model.dim
    e = np.zeros((n * n, ns * ns), dtype=complex)
    eye = np.eye(ne)
    for k in range(ns):
        for l in range(ns):
            x = np.zeros((ns, ns), dtype=complex)
            x[k, l] = 1.0
            e[:, k * ns + l] = vec(kron(x, eye))
    return e


def restrict_matrix(model: RISModel, rho: np.ndarray | None = None) -> np.ndarray:
    """Matrix of x -> Tr_E[(I (x) rho_E) x] on vectorized matrices.

    ``rho`` defaults to the model's Gibbs chain state.
    """
    if rho is None:
        rho = model.chain_state.rho
    ns, ne, n = model.n_s, model.n_e, model.dim
    r = np.zeros((ns * ns, n * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[k, l] = 1.0
            red = np.einsum("ac,icja->ij", rho, x.reshape(ns, ne, ns, ne))
            r[:, k * n + l] = vec(red)
    return r


def conditional_expectation(model: RISModel, state: ChainState | None = None) -> Superoperator:
    """E_S on the full algebra: x -> Tr_E[(I (x) rho_E) x] (x) I_E.

    Sends x_S (x) x_E to Tr(rho_E x_E) * x_S (x) I_E; idempotent, unital,
    completely positive.  Defaults to the model's Gibbs chain state.
    """
    rho = None
    if state is not None:
        if state.rho.shape[0] != model.n_e:
            raise ValueError(f"chain state has dimension {state.rho.shape[0]}, "
                             f"expected {model.n_e}")
        rho = state.rho
    return Superoperator(embed_matrix(model) @ restrict_matrix(model, rho))


def restrict_to_system(model: RISModel, s: Superoperator) -> Superoperator:
    """Compress a full-space map to M_S: E_S ∘ s ∘ (embed)."""
    if s.dim != model.dim:
        raise ValueError(f"map acts on dimension {s.dim}, model has {model.dim}")
    return Superoperator(restrict_matrix(model) @ s.matrix @ embed_matrix(model))


def density_from_dual_fixed_point(s: Superoperator, point: complex = 1.0) -> np.ndarray:
    """Trace-one Hermitian eigenvector of the trace dual of s at the eigenvalue nearest ``point``.

    ``point`` is 1 for a reduced map and 0 for a generator: the state the
    Schroedinger-picture dynamics leaves fixed.
    """
    eigs, vecs = np.linalg.eig(s.trace_dual().matrix)
    i = int(np.argmin(np.abs(eigs - point)))
    rho = vecs[:, i].reshape(s.dim, s.dim)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def dyson_term_block(model: RISModel, k: int, t: float) -> tuple:
    """Dyson terms 1..k from one (k+1)n^2-sided block exponential; term j at index j - 1.

    Block (0, j) of exp(t B), B the (k+1)-block upper-bidiagonal matrix with
    the free generator on the diagonal and [v,.] above it, post-multiplied by
    alpha_SE^{-t}.  A leading block of the exponential of a block
    upper-triangular matrix is the exponential of the leading block, so
    block (0, j) is the top-right block of the j-term construction.
    """
    n2 = model.dim ** 2
    l0 = full_generator(model, 0.0).matrix
    cv = commutator_superop(model.v).matrix
    block = np.zeros(((k + 1) * n2, (k + 1) * n2), dtype=complex)
    for j in range(k + 1):
        block[j * n2:(j + 1) * n2, j * n2:(j + 1) * n2] = l0
        if j < k:
            block[j * n2:(j + 1) * n2, (j + 1) * n2:(j + 2) * n2] = cv
    top = expm(t * block)[:n2]
    back = expm(-t * l0)
    return tuple(Superoperator(top[:, j * n2:(j + 1) * n2] @ back) for j in range(1, k + 1))


def dyson_term_product_quadrature(model: RISModel, k: int, t: float, nodes: int) -> Superoperator:
    """k-th Dyson term by nested Gauss-Legendre, alpha^u [v,.] alpha^{-u} as a matrix product.

    alpha^u = exp(u * full_generator(model, 0)) from one n^2-sided expm per node.
    """
    l0, cv = full_generator(model, 0.0).matrix, commutator_superop(model.v).matrix
    x, wq = np.polynomial.legendre.leggauss(nodes)

    def nested(j, upper):
        if j == 0:
            return np.eye(len(cv), dtype=complex)
        acc = np.zeros_like(cv)
        for xi, wi in zip(x, wq):
            u = 0.5 * upper * (xi + 1.0)
            picture = expm(u * l0) @ cv @ expm(-u * l0)
            acc += (0.5 * upper * wi) * (nested(j - 1, u) @ picture)
        return acc

    return Superoperator(nested(k, t))


def dyson_term_loop_quadrature(model: RISModel, t: float, nodes: int) -> Superoperator:
    """Third Dyson term by nested Gauss-Legendre, the outer level as a loop over its nodes.

    sum_i c_i Q2(u_i) [alpha^{u_i}(v),.] over the nodes u_i and weights c_i on [0, t],
    Q2 the second-level ``dyson_term_quadrature`` on the same nodes and alpha^u(v) =
    e^{iuH_0} v e^{-iuH_0}: one n^2-sided product per node.
    """
    x, wq = np.polynomial.legendre.leggauss(nodes)
    acc = np.zeros((model.dim ** 2,) * 2, dtype=complex)
    for xi, wi in zip(x, wq):
        u = 0.5 * t * (xi + 1.0)
        flow = expm(1j * u * model.free_hamiltonian)
        picture = commutator_superop(flow @ model.v @ flow.conj().T).matrix
        acc += (0.5 * t * wi) * (dyson_term_quadrature(model, 2, u, nodes).matrix @ picture)
    return Superoperator(acc)


def spectral_average(b: Superoperator, basis: SpectralDecomposition) -> Superoperator:
    """sum_k P_k b P_k over the projections of ``basis``.

    Idempotent as an averaging, and the result commutes with every basis
    projection (hence with sum_k lambda_k P_k).
    """
    projections = basis.projection_matrices()
    if projections and projections[0].shape != b.matrix.shape:
        raise ValueError(f"basis projections act on {projections[0].shape}, "
                         f"map on {b.matrix.shape}")
    acc = np.zeros_like(b.matrix)
    for p in projections:
        acc += p @ b.matrix @ p
    return Superoperator(acc)


def cesaro_average(b: Superoperator, a0: Superoperator,
                   total_time: float | None = None,
                   nodes_per_panel: int = 8) -> Superoperator:
    """Time average of e^{tA0} b e^{-tA0}: the defining limit of the spectral average.

    Computed by Gauss-Legendre quadrature of the triangular-weighted
    symmetric mean (1/T) int_{-T}^{T} (1 - |t|/T) e^{tA0} b e^{-tA0} dt,
    a summability kernel with the same limit as the one-sided mean but
    residual O(1/(gap*T)^2).  T defaults to 200/gap, gap the smallest
    nonzero difference of A0 eigenfrequencies.  Pure time quadrature of
    matrix exponentials: independent of the spectral-projection route.
    """
    m = a0.matrix
    freqs = np.linalg.eigvals(m).imag
    diffs = np.abs(freqs[:, None] - freqs[None, :]).reshape(-1)
    nonzero = diffs[diffs > 1e-12]
    if nonzero.size == 0:
        return Superoperator(b.matrix.copy())  # a0 scalar: average is b itself
    gap = float(nonzero.min())
    x_max = float(nonzero.max())
    t_total = 200.0 / gap if total_time is None else total_time

    # panels short enough that each sees at most ~half an oscillation
    panels = max(8, int(math.ceil(2 * t_total * x_max / math.pi)))
    h = 2 * t_total / panels
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    offsets = 0.5 * h * (x + 1.0)

    e_offsets = np.stack([expm(u * m) for u in offsets])
    e_panel = expm(h * m)
    starts = [expm(-t_total * m)]
    for _ in range(panels - 1):
        starts.append(starts[-1] @ e_panel)

    # e^{tA0} at every node t = t0 + offset of every panel, as one batched product
    e_t = np.stack(starts)[:, None] @ e_offsets[None]
    t = (-t_total + np.arange(panels) * h)[:, None] + offsets[None, :]
    weights = (0.5 * h * w) * (1.0 - np.abs(t) / t_total) / t_total
    conjugated = e_t @ b.matrix @ e_t.conj().swapaxes(-1, -2)
    return Superoperator(np.einsum("pn,pnij->ij", weights, conjugated))


def _branch_log(alpha: Superoperator, branch_cut_angle: float | None):
    """(A0, cut): the branch logarithm of alpha and the cut it was taken at."""
    if branch_cut_angle is None:
        branch_cut_angle = largest_gap_bisector(np.angle(np.linalg.eigvals(alpha.matrix)))
    return matrix_log_unitary(alpha, branch_cut_angle), branch_cut_angle


def log_generator_A0(model: RISModel, tau: float,
                     branch_cut_angle: float | None = None) -> Superoperator:
    """Branch logarithm A0 of alpha_S^tau (as a superoperator): exp(A0) = alpha_S^tau.

    A Schur logarithm of the n_S^2-sided alpha_S^tau.  The default cut is
    the bisector of the largest angular gap of its spectrum; a collision
    raises with the suggested cut attached.
    """
    return _branch_log(system_free_evolution(model, tau), branch_cut_angle)[0]


def identity_superop(n: int) -> Superoperator:
    return Superoperator(np.eye(n * n, dtype=complex))


def zero_superop(n: int) -> Superoperator:
    return Superoperator(np.zeros((n * n, n * n), dtype=complex))


def left_right(a: np.ndarray, b: np.ndarray) -> Superoperator:
    """The map x -> a x b."""
    return Superoperator(np.kron(a, np.asarray(b).T))


def superop_power(s: Superoperator, k: int) -> Superoperator:
    return Superoperator(np.linalg.matrix_power(s.matrix, k))


def derivation_superop(h: np.ndarray) -> Superoperator:
    """Heisenberg derivation x -> i[h, x] of a Hermitian h.

    exp(t * result) is the evolution x -> e^{ith} x e^{-ith}; on u_kl it
    acts as multiplication by e^{it(E_k - E_l)}, so u01 of a two-level h =
    diag(0, S) picks up the phase e^{-itS}.
    """
    h = require_hermitian(h, name="h")
    return 1j * commutator_superop(h)


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix C with C[(j,a),(m,b)] = <e_a, S(u_jm) e_b>.

    S is completely positive iff C is positive semidefinite; the identity
    map yields the unnormalized maximally entangled projector (trace n).
    """
    n = s.dim
    return s.matrix.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n).copy()


def peripheral_spectrum(t_map: Superoperator, tol: float = 1e-9) -> list[complex]:
    """Eigenvalues of modulus >= 1 - tol, sorted by decreasing modulus."""
    periph = [complex(e) for e in np.linalg.eigvals(t_map.matrix) if abs(e) >= 1.0 - tol]
    periph.sort(key=lambda e: (-abs(e), np.angle(e)))
    return periph
