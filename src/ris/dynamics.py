"""Repeated-interaction model and its exact dynamics.

The model is the tuple (h_S, h_E, v, beta): a small system, one chain
element, a Hermitian interaction on the tensor product, and the inverse
temperature of the chain.  Everything is computed from n-sized unitaries:
the flow phi_SE^t is x -> U x U^† with U = e^{it(H_0 + lambda*v)} from one
eigh, E_S ∘ phi_SE^t the Kraus map x -> sum_{a,b} p_a K_ab x K_ab^† with
K_ab = <a|U|b>_E and rho_E = sum_a p_a |a><a|, and the Dyson terms come
from the Taylor stack of U in lambda.  Only the frame contraction of the
Dyson quadrature, the oracle of dyson-check, works with n^2-sided matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import (
    Superoperator,
    commutator_superop,
    kron,
    matrix_exp,
    require_hermitian,
)


class NoAsymptoticStateError(ValueError):
    """The dynamics at hand has no unique asymptotic state."""


@dataclass(frozen=True)
class ChainState:
    """Density matrix of one chain element (PSD, trace one)."""
    rho: np.ndarray

    def __post_init__(self):
        rho = require_hermitian(self.rho, name="rho")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ValueError("chain state is not positive semidefinite")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError(f"chain state has trace {np.trace(rho)!r}, expected 1")
        object.__setattr__(self, "rho", rho)


def gibbs_state(h: np.ndarray, beta: float) -> ChainState:
    """Thermal state e^{-beta h} / Tr e^{-beta h}.

    The ground energy is subtracted before exponentiating, so large
    beta*||h|| never overflows.
    """
    h = require_hermitian(h, name="h")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    weights, u = _gibbs_weights(h, beta)
    rho = (u * weights) @ u.conj().T
    return ChainState(0.5 * (rho + rho.conj().T))


def _gibbs_weights(h: np.ndarray, beta: float):
    """(p, u): Gibbs weights, normalised to sum 1, in the eigenbasis u of h."""
    w, u = np.linalg.eigh(h)
    weights = np.exp(-beta * (w - w.min()))
    return weights / weights.sum(), u


@dataclass(frozen=True)
class RISModel:
    """A repeated-interaction model: system, chain element, coupling, temperature.

    ``p0``, when present, is a projection in the chain-element algebra
    commuting with h_E; it feeds the first-order-suppression check
    (:func:`check_H1`).  Instances are immutable and safe to share across
    threads.
    """
    h_s: np.ndarray
    h_e: np.ndarray
    v: np.ndarray
    beta: float
    p0: np.ndarray | None = None

    def __post_init__(self):
        h_s = require_hermitian(self.h_s, name="h_s")
        h_e = require_hermitian(self.h_e, name="h_e")
        v = require_hermitian(self.v, name="v")
        if v.shape[0] != h_s.shape[0] * h_e.shape[0]:
            raise ValueError(f"v has dimension {v.shape[0]}, expected "
                             f"{h_s.shape[0]}*{h_e.shape[0]}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "h_e", h_e)
        object.__setattr__(self, "v", v)
        if self.p0 is not None:
            p0 = require_hermitian(self.p0, name="p0")
            if np.abs(p0 @ p0 - p0).max() > 1e-12:
                raise ValueError("p0 is not a projection")
            if np.abs(h_e @ p0 - p0 @ h_e).max() > 1e-12:
                raise ValueError("p0 does not commute with h_e (not invariant "
                                 "under the free chain evolution)")
            object.__setattr__(self, "p0", p0)

    @property
    def n_s(self) -> int:
        return self.h_s.shape[0]

    @property
    def n_e(self) -> int:
        return self.h_e.shape[0]

    @property
    def dim(self) -> int:
        return self.n_s * self.n_e

    @cached_property
    def free_hamiltonian(self) -> np.ndarray:
        return kron(self.h_s, np.eye(self.n_e)) + kron(np.eye(self.n_s), self.h_e)

    @cached_property
    def chain_state(self) -> ChainState:
        return gibbs_state(self.h_e, self.beta)

    @cached_property
    def _system_bohr(self):
        """:func:`_bohr_frame` of h_S, for alpha_S^t."""
        return _bohr_frame(self.h_s)

    @cached_property
    def _free_bohr(self):
        """:func:`_bohr_frame` of H_0: the eigenframe of the free Liouvillian."""
        return _bohr_frame(self.free_hamiltonian)

    @cached_property
    def _chain_frame(self):
        """(sqrt(p_a), I_S (x) W): Gibbs weights of the chain state in the eigenbasis W of h_E."""
        weights, w = _gibbs_weights(self.h_e, self.beta)
        return np.sqrt(weights), kron(np.eye(self.n_s), w)


def _bohr_frame(h: np.ndarray):
    """(w_k - w_l in row-major (k, l) order, kron(q, conj q)) for eigh(h) = (w, q)."""
    w, q = np.linalg.eigh(h)
    return (w[:, None] - w[None, :]).reshape(-1), kron(q, q.conj())


def system_free_evolution(model: RISModel, t: float) -> Superoperator:
    """alpha_S^t on the small system: x -> U x U^† with U = e^{i t h_S}, from eigenphases.

    With the cached eigh(h_S) = (w, q) and F = kron(q, conj q), the matrix
    kron(U, conj U) is F diag(e^{i t (w_k - w_l)}) F^†: no expm.
    """
    bohr, frame = model._system_bohr
    return Superoperator((frame * np.exp(1j * t * bohr)) @ frame.conj().T)


def _pair_reduction(model: RISModel, lefts, rights) -> np.ndarray:
    """Matrix of x -> sum_j Tr_E[(I (x) rho_E) A_j (x (x) I) B_j^†] on M_S.

    With rho_E = sum_a p_a |a><a| and the blocks A_ab = <a|A|b>_E this is
    sum_j sum_{a,b} p_a kron(A_j,ab, conj(B_j,ab)), contracted as one GEMM
    X_A^T conj(X_B) of the stacks X[(j,a,b),(i,k)] = sqrt(p_a) <i a|A_j|k b>.
    """
    ns, ne = model.n_s, model.n_e
    sqrt_p, frame = model._chain_frame

    def stack(ops):
        x = np.stack([frame.conj().T @ a @ frame for a in ops])
        x = x.reshape(-1, ns, ne, ns, ne).transpose(0, 2, 4, 1, 3)
        return (x * sqrt_p[:, None, None, None]).reshape(-1, ns * ns)

    m = stack(lefts).T @ stack(rights).conj()
    return m.reshape(ns, ns, ns, ns).transpose(0, 2, 1, 3).reshape(ns * ns, ns * ns)


def _unitary(model: RISModel, lam: float, t: float) -> np.ndarray:
    """U = e^{it(H_0 + lambda v)}, from the eigenphases of one eigh."""
    w, q = np.linalg.eigh(model.free_hamiltonian + lam * model.v)
    return (q * np.exp(1j * t * w)) @ q.conj().T


def _taylor_stack(model: RISModel, order: int, t: float) -> list:
    """[U_0, ..., U_order]: e^{it(H_0 + lambda v)} = sum_k lambda^k U_k + O(lambda^{order+1}).

    The first block row of exp(it B), B the (order+1)-block upper-bidiagonal matrix
    with H_0 on the diagonal and v above it (Van Loan, IEEE TAC 1978)."""
    m = order + 1
    block = kron(np.eye(m), model.free_hamiltonian) + kron(np.eye(m, k=1), model.v)
    return np.split(matrix_exp(1j * t * block)[:model.dim], m, axis=1)


def _reduced_map(model: RISModel, lam: float, t: float) -> Superoperator:
    """E_S ∘ phi_SE^t on M_S for any t >= 0 (see :func:`reduced_map_T`)."""
    u = _unitary(model, lam, t)
    m = _pair_reduction(model, [u], [u])
    # the Kraus sum is unital only to a few 1e-15 and limit_projection squares
    # T up to 2^30 times: add vec(I - T(I)) vec(I)^T / n_S so T(I) = I to rounding
    eye = np.eye(model.n_s).reshape(-1)
    m += np.outer(eye - m @ eye, eye) / model.n_s
    return Superoperator(m)


def interaction_dynamics(model: RISModel, lam: float, t: float) -> Superoperator:
    """phi_SE^t = exp(t i[H_0 + lambda v, .]): x -> U x U^†, the matrix kron(U, conj U)."""
    u = _unitary(model, lam, t)
    return Superoperator(kron(u, u.conj()))


def reduced_map_T(model: RISModel, lam: float, tau: float) -> Superoperator:
    """One interaction period seen by the small system: E_S ∘ phi_SE^tau on M_S.

    T(x) = sum_{a,b} p_a K_ab x K_ab^† with U = e^{i tau (H_0 + lambda v)},
    K_ab = <a|U|b>_E and p_a the Gibbs weights in the eigenbasis of h_E,
    plus the rank-one term vec(I - T(I)) vec(I)^T / n_S that makes it
    unital to rounding.  Completely positive; even in lambda when the
    model passes :func:`check_H1`.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _reduced_map(model, lam, tau)


def restricted_dynamics(model: RISModel, lam: float, tau: float, t: float) -> Superoperator:
    """Repeated-interaction evolution on M_S at time t = n*tau + t1.

    Returns T(lam,tau)^n composed with the partial-interval map
    E_S ∘ phi_SE^{t1}; exactly T^n when t is a multiple of tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _repeated(model, lam, tau, reduced_map_T(model, lam, tau), t)


def _repeated(model: RISModel, lam: float, tau: float, t_map: Superoperator,
              t: float) -> Superoperator:
    """T^n ∘ E_S phi_SE^{t1} for t = n*tau + t1, given T = ``t_map``."""
    n = int(math.floor(t / tau))
    if n > 10 ** 12:
        raise ValueError(f"{n} interaction steps exceed the cost guard (1e+12)")
    t1 = t - n * tau
    # snap floating-point boundaries so t = n*tau lands on an exact power
    if abs(t1 - tau) <= 1e-12 * max(1.0, tau):
        n, t1 = n + 1, 0.0
    elif abs(t1) <= 1e-12 * max(1.0, tau):
        t1 = 0.0
    t_map = t_map.power(n)
    if t1 > 0.0:
        t_map = t_map @ _reduced_map(model, lam, t1)
    return t_map


def dyson_term(model: RISModel, k: int, t: float) -> Superoperator:
    """k-th time-ordered term of the perturbation series around the free flow.

    The iterated integral over 0 <= t_1 <= ... <= t_k <= t of alpha^{t_1}[v,.]alpha^{-t_1}
    ... alpha^{t_k}[v,.]alpha^{-t_k}, so phi_SE^t = sum_k (i lambda)^k dyson_term(k) ∘ alpha_SE^t.
    From the Taylor stack (:func:`_taylor_stack`) it is i^{-k} sum_{j<=k} kron(U_j, conj U_{k-j})
    ∘ kron(U_0^†, U_0^T) (alpha_SE^{-t}) = i^{-k} sum_j kron(W_j, conj W_{k-j}), W_j = U_j U_0^†.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 8:
        raise ValueError("k > 8 refused (cost guard)")
    us = _taylor_stack(model, k, t)
    ws = [u @ us[0].conj().T for u in us]
    return Superoperator((-1j) ** k * sum(kron(ws[j], ws[k - j].conj()) for j in range(k + 1)))


def dyson_term_quadrature(model: RISModel, k: int, t: float, nodes: int = 32) -> Superoperator:
    """Independent evaluation of :func:`dyson_term` by nested Gauss-Legendre.

    Works in the eigenframe Z = kron(q, conj q) of the free Liouvillian, with
    eigh(H_0) = (w, q) and the Bohr frequencies w_(ab) = w_a - w_b: there
    alpha^u [v,.] alpha^{-u} is C ∘ (e e^H), with C = Z^† [v,.] Z and
    e_(ab) = e^{iu w_(ab)}, an entrywise scaling.  The innermost integral is
    C ∘ (E diag(c) E^H), one GEMM over its nodes u_i with weights c_i and
    E[(ab), i] = e^{i u_i w_(ab)}; each outer level costs one n^2-sided GEMM
    per node: about 2 nodes**(k-1) GEMMs in all for nodes**k integrand values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if nodes ** k > 2_000_000:
        raise ValueError(f"nested quadrature with {nodes}^{k} evaluations refused (cost guard)")
    bohr, frame = model._free_bohr
    cv = frame.conj().T @ commutator_superop(model.v).matrix @ frame
    x, wq = np.polynomial.legendre.leggauss(nodes)

    def nested(j, upper):
        u, c = 0.5 * upper * (x + 1.0), 0.5 * upper * wq
        e = np.exp(1j * np.outer(u, bohr))
        if j == 1:
            return cv * ((e.T * c) @ e.conj())
        acc = np.zeros_like(cv)
        for ui, left, right in zip(u, c[:, None] * e, e.conj()):
            acc += ((nested(j - 1, ui) * left) @ cv) * right
        return acc

    return Superoperator(frame @ nested(k, t) @ frame.conj().T)


def dyson_truncation_bound(n: int, eps: float, t: float, a1_norm: float,
                           m: float = 1.0, growth: float = 0.0) -> float:
    """Error bound for the perturbation series truncated before order n.

    e^{growth*t} * sum_{k>=n} (eps*t)^k * m^(k+1) * a1_norm^k / k!,
    summed until terms fall below 1e-18 relative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if min(eps, t, a1_norm, m) < 0 or growth < 0:
        raise ValueError("eps, t, a1_norm, m, growth must be nonnegative")
    x = eps * t * a1_norm * m
    if x == 0.0:
        return 0.0
    term = m * x ** n / math.factorial(n)
    total = term
    j = n
    while term > 1e-18 * total:
        j += 1
        term *= x / j
        total += term
    return math.exp(growth * t) * total


@dataclass(frozen=True)
class H1Report:
    """Outcome of the first-order-suppression check.

    ``offdiagonal_defect`` is the norm of the part of v NOT of the form
    P0 v (1-P0) + (1-P0) v P0 with P0 = I_S (x) p0 — the violating term.
    """
    applicable: bool
    passed: bool
    projection_defect: float = 0.0
    commutation_defect: float = 0.0
    offdiagonal_defect: float = 0.0

    def __bool__(self):
        return self.applicable and self.passed


def check_H1(model: RISModel) -> H1Report:
    """Check that v couples only across p0: v = P0 v (1-P0) + (1-P0) v P0."""
    if model.p0 is None:
        return H1Report(applicable=False, passed=False)
    p0 = model.p0
    proj_defect = float(np.abs(p0 @ p0 - p0).max())
    comm_defect = float(np.abs(model.h_e @ p0 - p0 @ model.h_e).max())
    big_p0 = kron(np.eye(model.n_s), p0)
    big_q0 = np.eye(model.dim) - big_p0
    off = big_p0 @ model.v @ big_q0 + big_q0 @ model.v @ big_p0
    offdiag_defect = float(np.linalg.norm(model.v - off, 2))
    passed = proj_defect <= 1e-12 and comm_defect <= 1e-12 and offdiag_defect <= 1e-12
    return H1Report(True, passed, proj_defect, comm_defect, offdiag_defect)
