"""Superoperator oracles for the Hilbert-space reduced maps of ``ris``.

E_S and the compression of a full-space map to M_S, built entry by entry
on the n^2-dimensional space of vectorized matrices.  Slow, but
independent of the Kraus and Van Loan contractions the package uses, so
the tests compare the production maps against these.  The fixed state of
a map or generator, as an eigenvector of its trace dual, is the oracle
for the densities ``ris.asymptotic`` reads off eigenprojections.  The
Dyson terms as one superoperator block exponential are the oracle for the
Taylor-stack terms of ``ris.dynamics``, and the rows of ``dyson_check``
from n^2-sided flows, products and partial sums are the oracle for its
n-sided route.  The same quadrature rule in the computational basis, the
terms W_j of W(t) = U(t) e^{-itH_0} integrated on the same nodes with the
interaction picture from expm per node, the third level split at its
middle time and the same Leibniz sum, pins
``dyson_term_quadrature``, which runs that rule in the eigenframe of H_0.
The third level as a loop over the outer nodes of the second-level
quadrature times one commutator superoperator per node is a second rule,
whose cross terms differ at finite nodes; at 32 nodes both are exact to
rounding.  The Schur route to the van Hove averages (the branch
logarithm A0 of alpha_S^tau, its clustered spectral projections and the
sum of P B P over them) and their defining Cesaro time average are the
oracles for the Bohr-frame masks of ``ris.vanhove``.  Q of the Kato check
from the full eig of R masked to the fixed class, on every Bohr index, is
the oracle of the F x F block that ``kato_structure_check`` decomposes.
The superoperator constructors (``vec`` and ``commutator_superop`` at the
top), the Choi matrix and the peripheral spectrum at the end are test
helpers.
Every exponential here is ``scipy.linalg.expm``, never the package's own
``matrix_exp``, so no oracle shares its kernel with the code it checks.
"""
import math

import numpy as np
from scipy.linalg import expm

from ris.asymptotic import _eigenprojection_near
from ris.dynamics import (
    ChainState,
    RISModel,
    _reduced_map,
    dyson_term,
    dyson_term_quadrature,
    dyson_truncation_bound,
    interaction_dynamics,
    system_free_evolution,
)
from ris.linops import (
    SpectralDecomposition,
    Superoperator,
    kron,
    largest_gap_bisector,
    matrix_log_unitary,
    require_hermitian,
    superop_norm,
)
from ris.vanhove import _alpha_classes, _second_order_reduction


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(x).reshape(-1)


def commutator_superop(v: np.ndarray) -> Superoperator:
    """The map x -> [v, x] = v x - x v."""
    v = np.asarray(v, dtype=complex)
    eye = np.eye(v.shape[0])
    return Superoperator(kron(v, eye) - kron(eye, v.T))


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
    """k-th Dyson term by the rule of ``dyson_term_quadrature``, in the computational basis.

    W_j(t) = i int_0^t W_{j-1}(u) v(u) du, W_0 = I, with v(u) = e^{iuH_0} v e^{-iuH_0} from one
    expm per node.  The third level is split at its middle time r, i^3 int_0^t M(r) v(r)
    (M(t) - M(r)) dr with M(r) the first level up to r; every other level nests on the one
    below.  The term is (-i)^k sum_j kron(W_j, conj W_{k-j}).
    """
    h0, v = model.free_hamiltonian, model.v
    x, wq = np.polynomial.legendre.leggauss(nodes)

    def rule(upper):
        return [(0.5 * upper * (xi + 1.0), 0.5 * upper * wi) for xi, wi in zip(x, wq)]

    def picture(u):
        flow = expm(1j * u * h0)
        return flow @ v @ flow.conj().T

    def term(j, upper):
        if j == 0:
            return np.eye(len(v), dtype=complex)
        if j == 1:
            return 1j * sum(c * picture(u) for u, c in rule(upper))
        acc, whole = np.zeros_like(v), term(1, upper) if j == 3 else None
        for u, c in rule(upper):
            if j == 3:
                inner = term(1, u)
                acc += c * (inner @ picture(u) @ (whole - inner))
            else:
                acc += c * (term(j - 1, u) @ picture(u))
        return 1j * acc

    ws = [term(j, t) for j in range(k + 1)]
    return Superoperator((-1j) ** k * sum(np.kron(ws[j], ws[k - j].conj()) for j in range(k + 1)))


def dyson_term_loop_quadrature(model: RISModel, t: float, nodes: int) -> Superoperator:
    """Third Dyson term by fully nested Gauss-Legendre, the outer level as a loop over its nodes.

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


def dyson_check_superoperator(model: RISModel, orders, times, nodes: int) -> np.ndarray:
    """The rows of ``dyson_check`` from n^2-sided superoperators.

    phi^t and the free flow alpha^t from ``interaction_dynamics`` at lambda = 1 and 0, the
    partial sums alpha^t + sum_{k<order} i^k D_k alpha^t of the products of n^2-sided
    matrices, with D_k = ``dyson_term``, each gap against ``dyson_term_quadrature`` at k, and
    ||[v,.]|| as the largest singular value of ``commutator_superop(v)``.
    """
    a1 = superop_norm(commutator_superop(model.v))
    top, rows = max(orders) - 1, []
    for t in times:
        free, exact = (interaction_dynamics(model, lam, t).matrix for lam in (0.0, 1.0))
        terms = [dyson_term(model, k, t).matrix for k in range(1, top + 1)]
        gaps = [superop_norm(d - dyson_term_quadrature(model, k, t, nodes).matrix)
                for k, d in enumerate(terms[:3], start=1)]
        for order in orders:
            total = free + sum(1j ** k * (d @ free)
                               for k, d in enumerate(terms[:order - 1], start=1))
            rows.append((order, 1.0, t, superop_norm(exact - total),
                         dyson_truncation_bound(order, 1.0, t, a1),
                         max(gaps[:order - 1], default=0.0)))
    return np.array(rows)


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


def kato_dense_route(model: RISModel, tau: float, eps_list) -> tuple:
    """(P(0)Q, idempotency defect, sub-projection defect, commutator norm) of the Kato check
    by the dense masked route.

    R masked to F x F on all n_S^2 Bohr indices, with F the class of index (0, 0); Q the
    eigenprojection of 0 of that masked R from its full eig, and P(0)Q its rows in F.
    P(0+) is the two-point Richardson extrapolation of the P(eps) of the two smallest eps,
    as ``kato_structure_check`` takes it.
    """
    labels, _ = _alpha_classes(model, tau)
    fixed = labels == labels[0]
    g = np.where(fixed[:, None] & fixed, _second_order_reduction(model, tau), 0.0)
    eig = np.linalg.eig(g)
    scale = max(float(np.abs(eig[0]).max()), 1e-30)
    q = _eigenprojection_near(g, 0.0 + 0.0j, 1e-9 * scale, eig)
    e2, e1 = sorted(float(e) for e in eps_list)[:2]
    p1, p2 = (_eigenprojection_near(_reduced_map(model, math.sqrt(e), tau), 1.0 + 0.0j, 1e-9)
              for e in (e1, e2))
    p_plus = p2 + (p2 - p1) * (e2 / (e1 - e2))
    p0q = np.where(fixed[:, None], q, 0.0)
    sub = max(superop_norm(p0q @ p_plus - p_plus), superop_norm(p_plus @ p0q - p_plus))
    return (p0q, superop_norm(p0q @ p0q - p0q), sub,
            superop_norm(p0q - np.where(fixed, q, 0.0)))


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
