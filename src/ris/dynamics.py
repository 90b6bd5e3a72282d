"""Repeated-interaction model and its exact dynamics.

The model is the tuple (h_S, h_E, v, beta): a small system, one chain
element, a Hermitian interaction on the tensor product, and the inverse
temperature of the chain.  Everything is computed from n-sized unitaries:
the flow phi_SE^t is x -> U x U^† with U = e^{it(H_0 + lambda*v)} from one
eigh, E_S ∘ phi_SE^t the Kraus map x -> sum_{a,b} p_a K_ab x K_ab^† with
K_ab = <a|U|b>_E and rho_E = sum_a p_a |a><a|, and the Dyson terms come
from the Taylor stack of U in lambda; the reduced map forms U in the chain
frame q (x) W of h_S and h_E and contracts its one Kraus row stack with its
own conjugate.  The Dyson quadrature, the oracle of dyson-check, integrates
the terms W_1 - W_3 of W(t) = U(t) e^{-itH_0} on C^n by Gauss-Legendre, and
:func:`dyson_check` takes norms of Kronecker sums of these n-sided terms.

Maps on M_S are computed in the Bohr frame |q_k><q_l| of h_S = q diag(w) q^†,
where alpha_S^t is the diagonal e^{it(w_k - w_l)}; :func:`_computational`
converts a public value to the computational basis, once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import (
    Superoperator,
    change_frame,
    kron,
    matrix_exp,
    require_hermitian,
    superop_norm,
)

#: cost guards: the most steps of :func:`_steps`, the highest order of :func:`_taylor_stack`,
#: the most nodes N of a Dyson quadrature ((N + 1) N n phases), the most s_steps * n_S^4 entries
#: of one stack of maps on the s grid of a convergence experiment (256 MiB of complex128 each),
#: and the largest lambda t ||[v,.]|| of a Dyson series, whose bound, e^x, overflows past 709
MAX_STEPS, MAX_DYSON_ORDER, MAX_QUADRATURE_NODES = 10 ** 12, 8, 256
MAX_GRID_ENTRIES, MAX_SERIES_EXPONENT = 2 ** 24, 700.0
#: the largest t max|E| of the phases t E of the levels E of H_0: past 2^53 the spacing of
#: doubles there is at least 2, so no digit of a phase mod 2 pi is correct; also the largest
#: t ||v||_inf, which keeps the lambda^2 coefficient, of order (t ||v||)^2, far from overflow
MAX_PHASE = 2.0 ** 53


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
    weights, _, u = _gibbs_weights(h, beta)
    rho = (u * weights) @ u.conj().T
    return ChainState(0.5 * (rho + rho.conj().T))


def _gibbs_weights(h: np.ndarray, beta: float):
    """(p, w, u): Gibbs weights, normalised to sum 1, for eigh(h) = (w, u)."""
    w, u = np.linalg.eigh(h)
    weights = np.exp(-beta * (w - w.min()))
    return weights / weights.sum(), w, u


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
    def commutator_norm(self) -> float:
        """||[v,.]||: [v,.] is normal, with the eigenvalues v_i - v_j of the v_i of v."""
        levels = np.linalg.eigvalsh(self.v)
        return float(levels[-1] - levels[0])

    @cached_property
    def chain_state(self) -> ChainState:
        return gibbs_state(self.h_e, self.beta)

    @cached_property
    def _system_bohr(self):
        """(w_k - w_l in row-major (k, l) order, q, w) for eigh(h_S) = (w, q): the Bohr frame."""
        w, q = np.linalg.eigh(self.h_s)
        return (w[:, None] - w[None, :]).reshape(-1), q, w

    @cached_property
    def _chain_frame(self):
        """(sqrt(p_a), q (x) W, E): Gibbs weights of the chain state in the eigenbasis W of h_E,
        and the levels E_(k,a) = w_k + e_a of H_0, diagonal in q (x) W, for eigh(h_E) = (e, W)."""
        weights, e, w = _gibbs_weights(self.h_e, self.beta)
        levels = (self._system_bohr[2][:, None] + e).reshape(-1)
        return np.sqrt(weights), kron(self._system_bohr[1], w), levels


def _computational(model: RISModel, x: np.ndarray) -> np.ndarray:
    """``x`` from the Bohr frame of h_S: q x q^† for a density, F x F^† with
    F = kron(q, conj q) for (a stack of) matrices of maps on M_S (:func:`change_frame`)."""
    q = model._system_bohr[1]
    return q @ x @ q.conj().T if x.shape[-1] == model.n_s else change_frame(q, x)


def system_free_evolution(model: RISModel, t: float) -> Superoperator:
    """alpha_S^t on the small system: x -> U x U^† with U = e^{i t h_S}, from eigenphases.

    In the Bohr frame of the cached eigh(h_S) = (w, q) it is the diagonal
    e^{i t (w_k - w_l)}: no expm.
    """
    return Superoperator(_computational(model, np.diag(_free_evolution(model, t))))


def _free_evolution(model: RISModel, t) -> np.ndarray:
    """alpha_S^t in the Bohr frame: its diagonal e^{i t (w_k - w_l)}, per entry of ``t``."""
    return np.exp(1j * np.asarray(t)[..., None] * model._system_bohr[0])


def _chain(model: RISModel, ops) -> np.ndarray:
    """The operators ``ops`` on C^n stacked along axis -3, in the chain frame q (x) W."""
    return model._chain_frame[1].conj().T @ np.stack(ops, axis=-3) @ model._chain_frame[1]


def _pair_reduction(model: RISModel, lefts, rights=None) -> np.ndarray:
    """Matrix of x -> sum_j Tr_E[(I (x) rho_E) A_j (x (x) I) B_j^†] on M_S, in the Bohr frame.

    With rho_E = sum_a p_a |a><a| and the blocks A_ab = <a|A|b>_E this is
    sum_j sum_{a,b} p_a kron(A_j,ab, conj(B_j,ab)), one GEMM X_A^T conj(X_B) of the stacks
    X[(j,a,b),(i,k)] = sqrt(p_a) <q_i a|A_j|q_k b>, X_B = X_A when ``rights`` is None.  The
    A_j and B_j come stacked on axis -3 in the chain frame (:func:`_chain`), under common
    leading axes that the result carries too, one GEMM per leading index."""
    ns, ne = model.n_s, model.n_e
    sqrt_p = model._chain_frame[0]

    def stack(x):
        lead = x.shape[:-3]
        x = x.reshape(*lead, -1, ns, ne, ns, ne)
        x = x.transpose(*range(len(lead) + 1), -3, -1, -4, -2)
        return (x * sqrt_p[:, None, None, None]).reshape(*lead, -1, ns * ns)

    left = stack(lefts)
    m = np.swapaxes(left, -1, -2) @ (left if rights is None else stack(rights)).conj()
    lead = m.shape[:-2]
    m = m.reshape(*lead, ns, ns, ns, ns).swapaxes(-3, -2)
    return m.reshape(*lead, ns * ns, ns * ns)


def _unitary(model: RISModel, lam: float, t, frame=None) -> np.ndarray:
    """U = e^{it(H_0 + lambda v)} for each entry of ``t`` (leading axes), from one eigh (w, Q):
    in the ``frame`` F, G e^{itw} G^† with G = F^† Q, the whole stack one GEMM with G^†."""
    w, q = np.linalg.eigh(model.free_hamiltonian + lam * model.v)
    q = q if frame is None else frame.conj().T @ q
    phased = q * np.exp(1j * np.asarray(t)[..., None] * w)[..., None, :]
    return (phased.reshape(-1, len(w)) @ q.conj().T).reshape(phased.shape)


def _taylor_stack(model: RISModel, order: int, t: float) -> list:
    """[U_0, ..., U_order]: e^{it(H_0 + lambda v)} = sum_k lambda^k U_k + O(lambda^{order+1}).

    The first block row of exp(it B), B the (order+1)-block upper-bidiagonal matrix
    with H_0 on the diagonal and v above it (Van Loan, IEEE TAC 1978)."""
    if order > MAX_DYSON_ORDER:
        raise ValueError(f"Dyson order {order} exceeds the cost guard ({MAX_DYSON_ORDER})")
    m = order + 1
    block = kron(np.eye(m), model.free_hamiltonian) + kron(np.eye(m, k=1), model.v)
    return np.split(matrix_exp(1j * t * block)[:model.dim], m, axis=1)


def _reduced_map(model: RISModel, lam: float, t) -> np.ndarray:
    """Matrices of E_S ∘ phi_SE^t in the Bohr frame, one per entry t >= 0 of ``t``.

    See :func:`reduced_map_T`; a stack of times shares one eigh of H_0 + lambda v."""
    u = _unitary(model, lam, t, model._chain_frame[1])
    return _unital(model, _pair_reduction(model, u[..., None, :, :]))


def _unital(model: RISModel, m: np.ndarray) -> np.ndarray:
    """m += vec(I - m(I)) vec(I)^T / n_S: the Kraus sum, or its change of frame, is unital only
    to a few 1e-15; now m(I) = I to rounding.  Unitality makes vec(I), whose entry 0 is 1, the
    left null vector of T^T - 1, so the asymptotic-state solve may replace row 0 by Tr rho = 1."""
    eye = np.eye(model.n_s).reshape(-1)
    m += (eye - m @ eye)[..., :, None] * eye / model.n_s
    return m


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
    return Superoperator(_unital(model, _computational(model, _reduced_map(model, lam, tau))))


def restricted_dynamics(model: RISModel, lam: float, tau: float, t: float) -> Superoperator:
    """Repeated-interaction evolution on M_S at time t = n*tau + t1.

    Returns T(lam,tau)^n composed with the partial-interval map
    E_S ∘ phi_SE^{t1}; exactly T^n when t is a multiple of tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return Superoperator(_computational(model, _repeated(model, lam, tau, *_steps([t], tau))[0]))


def _steps(t, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, t1) with t = n*tau + t1 and 0 <= t1 < tau, entrywise over the array ``t``.

    t1 within 1e-12 of 0 or of tau snaps to 0, so that t = n*tau lands on an
    exact power despite rounding; more than MAX_STEPS steps, or a time that is
    not finite, is refused, and the error names the first such step count."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = t / tau
    refused = ~(ratio < MAX_STEPS + 1)  # also inf and nan
    if refused.any():
        raise ValueError(f"{ratio[refused][0]:.6g} interaction steps exceed the cost guard "
                         f"({MAX_STEPS:.0e})")
    n = np.floor(ratio).astype(np.int64)
    t1 = t - n * tau
    tol = 1e-12 * max(1.0, tau)
    up = np.abs(t1 - tau) <= tol
    return n + up, np.where(up | (np.abs(t1) <= tol), 0.0, t1)


def _powers(m: np.ndarray, exponents) -> np.ndarray:
    """m^n for each n of ``exponents`` (nonnegative integers), stacked.

    One walk over the sorted exponents, as Python ints: the smallest is matrix_power(m, n),
    each later one m^(n_k - n_(k-1)) m^(n_(k-1)) by a matmul into its slot, each distinct
    step power formed once by matrix_power.  So a lone exponent is exactly matrix_power(m, n),
    a repeated one a copy, and the stack does not depend on the order of ``exponents``."""
    exponents = np.asarray(exponents, dtype=np.int64)
    out = np.empty((exponents.size, *m.shape), dtype=m.dtype)
    order = np.argsort(exponents, kind="stable")
    steps, prev, last = {}, 0, None
    for i, n in zip(order.tolist(), exponents[order].tolist()):
        if last is None:
            out[i] = np.linalg.matrix_power(m, n)
        elif n > prev:
            if n - prev not in steps:
                steps[n - prev] = np.linalg.matrix_power(m, n - prev)
            np.matmul(steps[n - prev], out[last], out=out[i])
        else:
            out[i] = out[last]
        prev, last = n, i
    return out


def _repeated(model: RISModel, lam: float, tau: float, n, t1) -> np.ndarray:
    """T^n ∘ E_S phi_SE^{t1} for each time n*tau + t1 of the arrays (n, t1) of :func:`_steps`.

    All in the Bohr frame: T and the partial-interval maps from one eigh
    (:func:`_reduced_map`), the powers from one walk over the sorted n (:func:`_powers`).
    """
    partial = t1 > 0.0
    stack = _reduced_map(model, lam, [tau, *t1[partial]])
    maps = _powers(stack[0], n)
    maps[partial] = maps[partial] @ stack[1:]
    return maps


def check_grid(s_steps: int, n_s: int) -> None:
    """The cost guard of an s grid: s_steps * n_S^4 entries per stack of maps."""
    if s_steps * n_s ** 4 > MAX_GRID_ENTRIES:
        raise ValueError(f"s_steps * n_S^4 = {s_steps} * {n_s}^4 = {s_steps * n_s ** 4} grid "
                         f"entries exceed the cost guard ({MAX_GRID_ENTRIES})")


def check_quadrature(nodes: int) -> None:
    """The cost guard of a quadrature of the Dyson terms 1 - 3: its (N + 1) N n phases."""
    if nodes > MAX_QUADRATURE_NODES:
        raise ValueError(f"{nodes} quadrature nodes exceed the cost guard ({MAX_QUADRATURE_NODES})")


def check_series_exponent(x: float) -> None:
    """Refuse x = lambda t ||[v,.]|| past MAX_SERIES_EXPONENT, or nan: e^x nears overflow."""
    if not x <= MAX_SERIES_EXPONENT:
        raise ValueError(f"lambda t ||[v,.]|| = {x:.6g} exceeds {MAX_SERIES_EXPONENT:g}: "
                         "the bound of the series overflows")


def check_phases(model: RISModel, t: float) -> None:
    """Refuse t max(max|E|, ||v||_inf) past MAX_PHASE = 2^53, or nan, E the levels w_k + e_a
    of H_0 and ||v||_inf the largest row sum of |v|."""
    top = float(np.abs(model._chain_frame[2]).max())
    coupling = float(np.abs(model.v).sum(axis=1).max())
    if not t * max(top, coupling) <= MAX_PHASE:
        raise ValueError(f"tau = {t:.6g} with max|E| = {top:.6g} over the levels E of H_0 and "
                         f"||v||_inf = {coupling:.6g}: tau max(max|E|, ||v||_inf) = "
                         f"{t * max(top, coupling):.6g} exceeds 2^53, past which the phases "
                         "tau E keep no correct digit")


def _dyson_sum(ws, k: int) -> np.ndarray:
    """Dyson term k, (-i)^k sum_j kron(W_j, conj W_{k-j}), from the terms W_j of U e^{-itH_0}."""
    return (-1j) ** k * sum(kron(ws[j], ws[k - j].conj()) for j in range(k + 1))


def dyson_term(model: RISModel, k: int, t: float) -> Superoperator:
    """k-th time-ordered term of the perturbation series around the free flow.

    The iterated integral over 0 <= t_1 <= ... <= t_k <= t of alpha^{t_1}[v,.]alpha^{-t_1}
    ... alpha^{t_k}[v,.]alpha^{-t_k}, so phi_SE^t = sum_k (i lambda)^k dyson_term(k) ∘ alpha_SE^t.
    From the Taylor stack (:func:`_taylor_stack`), one (k+1)n-sided expm, it is
    i^{-k} sum_{j<=k} kron(U_j, conj U_{k-j}) ∘ kron(U_0^†, U_0^T) (alpha_SE^{-t})
    = i^{-k} sum_j kron(W_j, conj W_{k-j}), W_j = U_j U_0^†.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    us = _taylor_stack(model, k, t)
    return Superoperator(_dyson_sum([u @ us[0].conj().T for u in us], k))


#: node count -> read-only Gauss-Legendre (nodes, weights) on [-1, 1]; a plain dict,
#: not functools.lru_cache, so no module function carries __wrapped__, which
#: perfbench reads as a tracer wrapper left installed
_GAUSS_LEGENDRE: dict = {}


def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count (read-only)."""
    if nodes not in _GAUSS_LEGENDRE:
        x, w = np.polynomial.legendre.leggauss(nodes)
        x.flags.writeable = w.flags.writeable = False
        _GAUSS_LEGENDRE[nodes] = x, w
    return _GAUSS_LEGENDRE[nodes]


def dyson_term_quadrature(model: RISModel, k: int, t: float, nodes: int = 32) -> Superoperator:
    """Independent evaluation of :func:`dyson_term` for k = 1 - 3, the Leibniz sum
    (:func:`_dyson_sum`) of :func:`_quadrature_terms`, from one (N + 1) N n stack of phases."""
    return Superoperator(_dyson_sum(_quadrature_terms(model, k, t, nodes), k))


def _quadrature_terms(model: RISModel, k: int, t: float, nodes: int) -> list:
    """[I, W_1(t), ..., W_k(t)], k <= 3, on C^n by Gauss-Legendre on ``nodes`` nodes.

    W(t) = U(t) e^{-itH_0} solves dW/dt = i lambda W v~(t), v~(u) = e^{iuH_0} v e^{-iuH_0}, so
    its terms in lambda are W_j(t) = i int_0^t W_{j-1}(u) v~(u) du, W_0 = I.  In the eigenframe
    (w, q) = eigh(H_0), where W_j is q^† W_j q, v~(u) = v~ ∘ (phi phi^H) with v~ = q^† v q and
    phi = e^{iuw}, and M(r) = v~ ∘ sum_l c_l phi_l phi_l^H over the nodes s_l and weights c_l on
    [0, r] is the innermost integral up to r.  Over the N = ``nodes`` nodes r_j and weights c_j
    on [0, t], W_1(t) = i M(t), W_2(t) = i^2 sum_j c_j M(r_j) v~(r_j) and, split at its middle
    time, W_3(t) = i^3 sum_j c_j M(r_j) v~(r_j) (M(t) - M(r_j)): the times below r give M(r)
    and those above it M(t) - M(r).  One (N + 1) N n stack of phases gives M at the r_j and at
    t, and its last row, the phases at the r_j, gives v~(r_j); k = 1 forms that row alone.
    """
    if not 1 <= k <= 3:
        raise ValueError(f"k = {k}: the quadrature gives the Dyson terms 1 to 3")
    check_quadrature(nodes)
    w, q = np.linalg.eigh(model.free_hamiltonian)
    vt = q.conj().T @ model.v @ q
    x, wq = _gauss_legendre(nodes)
    upper = np.append(0.5 * t * (x + 1.0) if k > 1 else [], t)[:, None]  # the r_j, then t
    s, c = 0.5 * upper * (x + 1.0), 0.5 * upper * wq
    phi = np.exp(1j * s[..., None] * w)
    m = vt * (np.swapaxes(phi * c[..., None], -1, -2) @ phi.conj())
    ws = [1j * m[-1]]
    if k > 1:
        mv = m[:-1] @ (c[-1][:, None, None] * vt
                       * (phi[-1][:, :, None] * phi[-1][:, None, :].conj()))
        ws.append(-mv.sum(axis=0))
    if k > 2:
        ws.append(-1j * (mv @ (m[-1] - m[:-1])).sum(axis=0))
    return [np.eye(len(w)), *(q @ wj @ q.conj().T for wj in ws)]


def dyson_check(model: RISModel, orders, times, nodes: int = 32) -> np.ndarray:
    """Rows (order, lambda, t, truncation_error, bound, blockexp_vs_quadrature) of the series
    phi_SE^t = sum_k (i lambda)^k D_k ∘ alpha_SE^t at lambda = 1: per t, one per order.

    Per t, U = e^{it(H_0 + v)} and U_0 come from an eigh each, and U_1 ... U_top from one
    Taylor stack, top = max(orders) - 1.  As i^k D_k ∘ alpha_SE^t = sum_j kron(U_j, conj U_{k-j}),
    an order's error is ||kron(U, conj U) - sum_{j+l<order} kron(U_j, conj U_l)||, 0 at v = 0.
    Term k <= min(3, top) has the gap ||D_k - D^q_k||, both of :func:`_dyson_sum`, from
    W_j = U_j U_0^† of the stack and one :func:`_quadrature_terms` call; a row takes the
    largest gap below its order.  The error has a rounding floor where the bound tends to 0,
    so a verdict reads err <= bound + :func:`dyson_allowance`.
    """
    top, a1 = max(orders) - 1, model.commutator_norm
    if min(orders) < 1:
        raise ValueError("orders must be >= 1")
    if top:
        check_quadrature(nodes)
    check_series_exponent(max(times) * a1)
    rows = []
    for t in times:
        us = _taylor_stack(model, top, t)
        u, u0 = (_unitary(model, lam, t) for lam in (1.0, 0.0))
        rest, errors, terms = kron(u, u.conj()), {}, [u0, *us[1:]]
        for k in range(top + 1):
            rest -= 1j ** k * _dyson_sum(terms, k)
            if k + 1 in orders:
                errors[k + 1] = superop_norm(rest)
        ws = [u_j @ us[0].conj().T for u_j in us]
        wq = _quadrature_terms(model, min(3, top), t, nodes) if top else []
        gaps = [superop_norm(_dyson_sum(ws, k) - _dyson_sum(wq, k)) for k in range(1, len(wq))]
        rows += [(order, 1.0, t, errors[order], dyson_truncation_bound(order, 1.0, t, a1),
                  max(gaps[:order - 1], default=0.0)) for order in orders]
    return np.array(rows)


def dyson_allowance(model: RISModel, t) -> np.ndarray:
    """eps n^2 max(1, t D), n = model.dim and D the spread of eig(H_0 + v), per entry of ``t``: a
    :func:`dyson_check` error may exceed its bound by this rounding floor, which grows like t D."""
    levels = np.linalg.eigvalsh(model.free_hamiltonian + model.v)
    return np.finfo(float).eps * model.dim ** 2 * np.maximum(1.0, np.asarray(t) * np.ptp(levels))


def dyson_truncation_bound(n: int, eps: float, t: float, a1_norm: float) -> float:
    """Error bound for the perturbation series truncated before order n.

    sum_{k>=n} (eps*t*a1_norm)^k / k!, summed until terms fall below 1e-18 relative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if min(eps, t, a1_norm) < 0:
        raise ValueError("eps, t, a1_norm must be nonnegative")
    x = eps * t * a1_norm
    check_series_exponent(x)
    if x == 0.0:
        return 0.0
    try:
        term = x ** n / math.factorial(n)
    except OverflowError:  # a float x^n or n! beyond double range: the same term by logarithms
        term = math.exp(n * math.log(x) - math.lgamma(n + 1))
    total = term
    j = n
    while term > 1e-18 * total:
        j += 1
        term *= x / j
        total += term
    return total


@dataclass(frozen=True)
class H1Report:
    """Outcome of the first-order-suppression check.

    ``offdiagonal_defect`` is the norm of the part of v NOT of the form
    P0 v (1-P0) + (1-P0) v P0 with P0 = I_S (x) p0 — the violating term.
    """
    applicable: bool
    passed: bool
    offdiagonal_defect: float = 0.0

    def __bool__(self):
        return self.applicable and self.passed


def check_H1(model: RISModel) -> H1Report:
    """Check that v couples only across p0: v = P0 v (1-P0) + (1-P0) v P0.

    :class:`RISModel` has checked that p0 is a projection commuting with h_E.
    """
    if model.p0 is None:
        return H1Report(applicable=False, passed=False)
    big_p0 = kron(np.eye(model.n_s), model.p0)
    big_q0 = np.eye(model.dim) - big_p0
    off = big_p0 @ model.v @ big_q0 + big_q0 @ model.v @ big_p0
    offdiag_defect = float(np.linalg.norm(model.v - off, 2))
    return H1Report(True, offdiag_defect <= 1e-12, offdiag_defect)
