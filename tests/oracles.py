"""Superoperator oracles for the Hilbert-space reduced maps of ``ris``.

E_S and the compression of a full-space map to M_S, built entry by entry
on the n^2-dimensional space of vectorized matrices.  Slow, but
independent of the Kraus and Van Loan contractions the package uses, so
the tests compare the production maps against these.  The fixed state of
a map or generator, as an eigenvector of its trace dual, is the oracle
for the densities ``ris.asymptotic`` reads off eigenprojections.  The
Dyson terms as one superoperator block exponential are the oracle for the
Taylor-stack terms of ``ris.dynamics``.
"""
import numpy as np

from ris.dynamics import ChainState, RISModel, full_generator
from ris.linops import Superoperator, commutator_superop, kron, matrix_exp, vec


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


def dyson_term_block(model: RISModel, k: int, t: float) -> Superoperator:
    """k-th Dyson term from one (k+1)n^2-sided block exponential.

    The top-right block of exp(t B), B the (k+1)-block upper-bidiagonal
    matrix with the free generator on the diagonal and [v,.] above it,
    post-multiplied by alpha_SE^{-t}.
    """
    n2 = model.dim ** 2
    l0 = full_generator(model, 0.0).matrix
    cv = commutator_superop(model.v).matrix
    block = np.zeros(((k + 1) * n2, (k + 1) * n2), dtype=complex)
    for j in range(k + 1):
        block[j * n2:(j + 1) * n2, j * n2:(j + 1) * n2] = l0
        if j < k:
            block[j * n2:(j + 1) * n2, (j + 1) * n2:(j + 2) * n2] = cv
    top_right = matrix_exp(t * block)[:n2, k * n2:]
    return Superoperator(top_right @ matrix_exp(-t * l0))
