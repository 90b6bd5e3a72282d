"""Repeated-interaction model and its exact dynamics.

The model is the tuple (h_S, h_E, v, beta): a small system, one chain
element, a Hermitian interaction on the tensor product, and the inverse
temperature of the chain.  Everything is computed from n-sized unitaries:
the flow phi_SE^t is x -> U x U^† with U = e^{it(H_0 + lambda*v)} from one
eigh, E_S ∘ phi_SE^t the Kraus map x -> sum_{a,b} p_a K_ab x K_ab^† with
K_ab = <a|U|b>_E and rho_E = sum_a p_a |a><a|, and the Dyson terms come
from the Taylor stack of U in lambda.  The Dyson quadrature, the oracle of
dyson-check, takes its three innermost levels from n-sized products too: n
exponentials per innermost node, the third level once per symmetric pair of
middle nodes, and its Kronecker sums as (n^2 x P)(P x n^2) GEMMs; only its
levels from the fourth up, and the change out of the eigenframe of its
result, are n^2-sided GEMMs.

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
    commutator_superop,
    kron,
    matrix_exp,
    require_hermitian,
)

#: cost guards: the most interaction steps of :func:`_steps`, the highest order of
#: :func:`dyson_terms`, the most nodes**k integrand evaluations and the most nodes of
#: :func:`dyson_term_quadrature`
MAX_STEPS, MAX_DYSON_ORDER = 10 ** 12, 8
MAX_QUADRATURE_EVALUATIONS, MAX_QUADRATURE_NODES = 2_000_000, 256


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
        """(w_k - w_l in row-major (k, l) order, q) for eigh(h_S) = (w, q): the Bohr frame."""
        w, q = np.linalg.eigh(self.h_s)
        return (w[:, None] - w[None, :]).reshape(-1), q

    @cached_property
    def _chain_frame(self):
        """(sqrt(p_a), q (x) W): Gibbs weights of the chain state in the eigenbasis W of h_E."""
        weights, w = _gibbs_weights(self.h_e, self.beta)
        return np.sqrt(weights), kron(self._system_bohr[1], w)


def _computational(model: RISModel, x: np.ndarray) -> np.ndarray:
    """``x`` from the Bohr frame of h_S: q x q^† for a density, F x F^† with
    F = kron(q, conj q) for (a stack of) matrices of maps on M_S."""
    q = model._system_bohr[1]
    frame = q if x.shape[-1] == model.n_s else kron(q, q.conj())
    return frame @ x @ frame.conj().T


def system_free_evolution(model: RISModel, t: float) -> Superoperator:
    """alpha_S^t on the small system: x -> U x U^† with U = e^{i t h_S}, from eigenphases.

    In the Bohr frame of the cached eigh(h_S) = (w, q) it is the diagonal
    e^{i t (w_k - w_l)}: no expm.
    """
    return Superoperator(_computational(model, np.diag(_free_evolution(model, t))))


def _free_evolution(model: RISModel, t) -> np.ndarray:
    """alpha_S^t in the Bohr frame: its diagonal e^{i t (w_k - w_l)}, per entry of ``t``."""
    return np.exp(1j * np.asarray(t)[..., None] * model._system_bohr[0])


def _pair_reduction(model: RISModel, lefts, rights) -> np.ndarray:
    """Matrix of x -> sum_j Tr_E[(I (x) rho_E) A_j (x (x) I) B_j^†] on M_S, in the Bohr frame.

    With rho_E = sum_a p_a |a><a| and the blocks A_ab = <a|A|b>_E this is
    sum_j sum_{a,b} p_a kron(A_j,ab, conj(B_j,ab)), contracted as one GEMM
    X_A^T conj(X_B) of the stacks X[(j,a,b),(i,k)] = sqrt(p_a) <q_i a|A_j|q_k b>.
    The A_j and B_j may carry common leading axes; the result then carries
    them too, one GEMM per leading index.
    """
    ns, ne = model.n_s, model.n_e
    sqrt_p, frame = model._chain_frame

    def stack(ops):
        x = frame.conj().T @ np.stack(ops, axis=-3) @ frame
        lead = x.shape[:-3]
        x = x.reshape(*lead, -1, ns, ne, ns, ne)
        x = x.transpose(*range(len(lead) + 1), -3, -1, -4, -2)
        return (x * sqrt_p[:, None, None, None]).reshape(*lead, -1, ns * ns)

    m = np.swapaxes(stack(lefts), -1, -2) @ stack(rights).conj()
    lead = m.shape[:-2]
    m = m.reshape(*lead, ns, ns, ns, ns).swapaxes(-3, -2)
    return m.reshape(*lead, ns * ns, ns * ns)


def _unitary(model: RISModel, lam: float, t) -> np.ndarray:
    """U = e^{it(H_0 + lambda v)} for each entry of ``t`` (leading axes), from one eigh."""
    w, q = np.linalg.eigh(model.free_hamiltonian + lam * model.v)
    return (q * np.exp(1j * np.asarray(t)[..., None] * w)[..., None, :]) @ q.conj().T


def _taylor_stack(model: RISModel, order: int, t: float) -> list:
    """[U_0, ..., U_order]: e^{it(H_0 + lambda v)} = sum_k lambda^k U_k + O(lambda^{order+1}).

    The first block row of exp(it B), B the (order+1)-block upper-bidiagonal matrix
    with H_0 on the diagonal and v above it (Van Loan, IEEE TAC 1978)."""
    m = order + 1
    block = kron(np.eye(m), model.free_hamiltonian) + kron(np.eye(m, k=1), model.v)
    return np.split(matrix_exp(1j * t * block)[:model.dim], m, axis=1)


def _reduced_map(model: RISModel, lam: float, t) -> np.ndarray:
    """Matrices of E_S ∘ phi_SE^t in the Bohr frame, one per entry t >= 0 of ``t``.

    See :func:`reduced_map_T`; a stack of times shares one eigh of H_0 + lambda v.
    """
    u = _unitary(model, lam, t)
    return _unital(model, _pair_reduction(model, [u], [u]))


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
    return Superoperator(_computational(model, _repeated(model, lam, tau, [t])[0]))


def _steps(t: float, tau: float) -> tuple[int, float]:
    """(n, t1) with t = n*tau + t1 and 0 <= t1 < tau.

    t1 within 1e-12 of 0 or of tau snaps to 0, so that t = n*tau lands on an
    exact power despite rounding; more than MAX_STEPS steps, or a time that is
    not finite, is refused.
    """
    if not t / tau < MAX_STEPS + 1:  # also inf and nan
        raise ValueError(f"{t / tau:.6g} interaction steps exceed the cost guard ({MAX_STEPS:.0e})")
    n = int(math.floor(t / tau))
    t1 = t - n * tau
    if abs(t1 - tau) <= 1e-12 * max(1.0, tau):
        n, t1 = n + 1, 0.0
    elif abs(t1) <= 1e-12 * max(1.0, tau):
        t1 = 0.0
    return n, t1


def _powers(m: np.ndarray, exponents) -> np.ndarray:
    """m^n for each n of ``exponents`` (nonnegative integers), stacked.

    One walk over the sorted exponents: the smallest is np.linalg.matrix_power(m, n),
    each later one m^(n_k - n_(k-1)) m^(n_(k-1)), each distinct step power formed
    once by matrix_power.  So a lone exponent is exactly matrix_power(m, n), a
    repeated one a copy, and the stack does not depend on the order of ``exponents``.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    out = np.empty((exponents.size, *m.shape), dtype=m.dtype)
    steps, power, prev = {}, None, 0
    for i in np.argsort(exponents, kind="stable"):
        n = int(exponents[i])
        if power is None:
            power = np.linalg.matrix_power(m, n)
        elif n > prev:
            d = n - prev
            if d not in steps:
                steps[d] = np.linalg.matrix_power(m, d)
            power = steps[d] @ power
        out[i], prev = power, n
    return out


def _repeated(model: RISModel, lam: float, tau: float, times) -> np.ndarray:
    """T^n ∘ E_S phi_SE^{t1} for each t = n*tau + t1 of ``times`` (:func:`_steps`), stacked.

    All in the Bohr frame: T and the partial-interval maps from one eigh
    (:func:`_reduced_map`), the powers from one walk over the sorted n (:func:`_powers`).
    """
    steps = [_steps(t, tau) for t in times]
    t1 = np.array([t1 for _, t1 in steps])
    partial = t1 > 0.0
    stack = _reduced_map(model, lam, [tau, *t1[partial]])
    maps = _powers(stack[0], [n for n, _ in steps])
    maps[partial] = maps[partial] @ stack[1:]
    return maps


def dyson_terms(model: RISModel, order: int, t: float) -> list:
    """Dyson terms 1..order of :func:`dyson_term` at time t, term k at index k - 1.

    All from one Taylor stack of the given order: one (order+1)n-sided expm.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_DYSON_ORDER:
        raise ValueError(f"k > {MAX_DYSON_ORDER} refused (cost guard)")
    us = _taylor_stack(model, order, t)
    ws = [u @ us[0].conj().T for u in us]
    return [Superoperator((-1j) ** k * sum(kron(ws[j], ws[k - j].conj()) for j in range(k + 1)))
            for k in range(1, order + 1)]


def dyson_term(model: RISModel, k: int, t: float) -> Superoperator:
    """k-th time-ordered term of the perturbation series around the free flow.

    The iterated integral over 0 <= t_1 <= ... <= t_k <= t of alpha^{t_1}[v,.]alpha^{-t_1}
    ... alpha^{t_k}[v,.]alpha^{-t_k}, so phi_SE^t = sum_k (i lambda)^k dyson_term(k) ∘ alpha_SE^t.
    From the Taylor stack (:func:`_taylor_stack`) it is i^{-k} sum_{j<=k} kron(U_j, conj U_{k-j})
    ∘ kron(U_0^†, U_0^T) (alpha_SE^{-t}) = i^{-k} sum_j kron(W_j, conj W_{k-j}), W_j = U_j U_0^†.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return dyson_terms(model, k, t)[-1]


#: node count -> read-only Gauss-Legendre (nodes, weights) on [-1, 1], and node
#: count -> read-only node tables of the third quadrature level; plain dicts,
#: not functools.lru_cache, so no module function carries __wrapped__, which
#: perfbench reads as a tracer wrapper left installed
_GAUSS_LEGENDRE: dict = {}
_NODE_PAIRS: dict = {}

#: complex entries of one chunk of node pairs at the third quadrature level, counting
#: n (n + ceil(nodes/2)) per pair: one n-sided factor and the phase vectors of its
#: innermost nodes; a chunk's working set is a small multiple of this many entries
_PAIR_CHUNK = 2 ** 12


def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count (read-only)."""
    if nodes not in _GAUSS_LEGENDRE:
        x, w = np.polynomial.legendre.leggauss(nodes)
        x.flags.writeable = w.flags.writeable = False
        _GAUSS_LEGENDRE[nodes] = x, w
    return _GAUSS_LEGENDRE[nodes]


def _node_pairs(nodes: int):
    """Node tables of the third quadrature level, computed once per node count (read-only).

    With y = (x + 1)/2 and h = w/2 the rule on [0, 1]: y; for the pairs i <= j in
    row-major order, (i, j), y_i y_j and the weights (g y_i, g y_j) of the ordered
    pairs (i, j) and (j, i), g = y_i y_j h_i h_j, the second 0 if i = j; and the first
    half of the nodes with the square roots of their weights, the middle node of an
    odd rule at half weight.  ``leggauss`` symmetrises its nodes: y_(N-1-l) = 1 - y_l.
    """
    if nodes not in _NODE_PAIRS:
        x, wq = _gauss_legendre(nodes)
        y, h = 0.5 * (x + 1.0), 0.5 * wq
        i, j = np.triu_indices(nodes)
        g = y[i] * y[j] * h[i] * h[j]
        half = h[:(nodes + 1) // 2].copy()
        half[nodes // 2:] *= 0.5  # the middle node, its own mirror
        tables = (y, np.stack([i, j]), y[i] * y[j],
                  np.stack([g * y[i], np.where(i < j, g * y[j], 0.0)]),
                  y[:len(half)], np.sqrt(half))
        for table in tables:
            table.flags.writeable = False
        _NODE_PAIRS[nodes] = tables
    return _NODE_PAIRS[nodes]


def dyson_term_quadrature(model: RISModel, k: int, t: float, nodes: int = 32) -> Superoperator:
    """Independent evaluation of :func:`dyson_term` by nested Gauss-Legendre.

    Works in the eigenframe Z = kron(q, conj q) of the free Liouvillian, with
    eigh(H_0) = (w, q).  There Z^† [v,.] Z = [v~,.] with v~ = q^† v q, and
    alpha^u [v~,.] alpha^{-u} = [v~ ∘ (phi phi^H),.] with phi = e^{iuw}.  With
    N = ``nodes``, each level costs:

    1. The innermost integral up to u is [M(u),.], M(u) = v~ ∘ sum_l c_l phi_l phi_l^H
       over its nodes s_l and weights c_l: N n exponentials and one n-sided GEMM.
    2. The second, sum_j c_j [M_j,.][V_j,.] with V_j = v~ ∘ (phi_j phi_j^H), is
       L(sum c M V) + R(sum c V M) - sum_j c_j (kron(M_j, V_j^T) + kron(V_j, M_j^T)),
       L(X) = kron(X, I) and R(X) = kron(I, X^T): N^2 n exponentials, 2N n-sided
       products, and the Kronecker sum as one (n^2 x 2N)(2N x n^2) GEMM.
    3. The third, sum_ij c_i c_ij [M_ij,.][V_ij,.][V_i,.], has the middle nodes
       t y_i y_j (y = (x + 1)/2 the rule on [0, 1]), symmetric in (i, j), so it
       takes each pair i <= j once: N(N+1)/2 of them.  Mirrored innermost nodes
       share phases, e^{is(1-y)w} = e^{isw} conj e^{isyw}, so a pair costs
       (N/2 + 1) n exponentials, one (n x N/2)(N/2 x n) Gram product and six
       n-sided products.  Expanding the three commutators into L and R parts
       leaves L(X) - R(Y) and a Kronecker sum of 2N^2 + 4N terms, accumulated
       per chunk of m pairs by one (n^2 x 4m)(4m x n^2) GEMM and permuted once.
    4. Each level from the fourth up loops over its nodes, one call of the level
       below and one n^2-sided GEMM per node: N^(k-3) calls of the third level.

    Two more n^2-sided GEMMs take the result out of the eigenframe.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if nodes ** k > MAX_QUADRATURE_EVALUATIONS:
        raise ValueError(f"nested quadrature with {nodes}^{k} evaluations refused (cost guard)")
    if nodes > MAX_QUADRATURE_NODES:
        raise ValueError(f"{nodes} quadrature nodes refused (cost guard)")
    w, q = np.linalg.eigh(model.free_hamiltonian)
    n = len(w)
    vt = q.conj().T @ model.v @ q
    x, wq = _gauss_legendre(nodes)

    def rule(upper):
        """Nodes and weights on [0, upper], for each entry of ``upper`` (leading axes)."""
        upper = np.asarray(upper)[..., None]
        return 0.5 * upper * (x + 1.0), 0.5 * upper * wq

    def first(upper):
        """M with [M,.] the innermost integral up to each entry of ``upper`` (leading axes)."""
        s, c = rule(upper)
        phi = np.exp(1j * s[..., None] * w)
        return vt * (np.swapaxes(phi * c[..., None], -1, -2) @ phi.conj())

    def picture(u):
        """alpha^u(v~) = v~ ∘ (phi phi^H), phi = e^{iuw}, per entry of ``u`` (leading axes)."""
        phi = np.exp(1j * np.asarray(u)[..., None] * w)
        return vt * (phi[..., :, None] * phi[..., None, :].conj())

    def second(upper):
        """The two innermost integrals up to ``upper``: sum_j c_j [M_j,.][V_j,.], n^2-sided."""
        u, c = rule(upper)
        m, v = first(u), picture(u)
        cm, cv = c[:, None, None] * m, c[:, None, None] * v
        # P[(a, c), (d, b)] = sum_j c_j (M_j[a, c] V_j[d, b] + V_j[a, c] M_j[d, b]),
        # permuted to the ((a, b), (c, d)) entries of the Kronecker sum
        cross = (np.concatenate([cm, cv]).reshape(-1, n * n).T
                 @ np.concatenate([v, m]).reshape(-1, n * n))
        out = -cross.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)
        out += kron((cm @ v).sum(axis=0), np.eye(n))
        out += kron(np.eye(n), (v @ cm).sum(axis=0).T)
        return out

    def third(upper):
        """The three innermost integrals up to ``upper``: sum_ij c_i c_ij [M_ij,.][V_ij,.][V_i,.].

        Per pair p = (i <= j) at s = upper y_i y_j: A = upper^3 v~ ∘ sum_l h_l phi_l phi_l^H
        over the nodes s y_l, B = V(s) and E = sum weights[:, p] V(upper y) over i and j,
        so that the ordered pairs (i, j) and (j, i) give [A,.][B,.][E,.].  Its Kronecker
        part is -kron(AE, B^T) + kron(A, (EB)^T) - kron(BE, A^T) + kron(B, (EA)^T), and,
        summed over j first, -kron(S_i, V_i^T) + kron(V_i, T_i^T) with S_i and T_i the
        weighted sums of AB and BA; the rest is L(sum S_i V_i) - R(sum V_i T_i).
        """
        y, pairs, yy, pair_weights, mirror, root = _node_pairs(nodes)
        outer = picture(upper * y).reshape(nodes, n * n)
        scaled_vt = upper ** 3 * vt
        size = min(len(yy), max(1, _PAIR_CHUNK // (n * (n + len(mirror)))))
        left = np.empty((4 * size, n, n), dtype=complex)
        right = np.empty_like(left)
        acc = np.zeros((n * n, n * n), dtype=complex)
        ends = np.zeros((2, nodes, n * n), dtype=complex)  # S and T
        for lo in range(0, len(yy), size):
            p = slice(lo, lo + size)
            s = upper * yy[p]
            m = len(s)
            weights = np.zeros((nodes, m))
            np.add.at(weights, (pairs[:, p], np.arange(m)), pair_weights[:, p])
            phase = 1j * np.multiply.outer(np.multiply.outer(s, mirror), w)
            np.exp(phase, out=phase)
            phase *= root[:, None]
            gram = np.swapaxes(phase, -1, -2) @ phase.conj()
            phi = np.exp(1j * s[:, None] * w)
            free = phi[:, :, None] * phi[:, None, :].conj()
            # left [A, B, -AE, -BE] and right [EB, EA, B, A]
            lp, rp = left[:4 * m].reshape(4, m, n, n), right[:4 * m].reshape(4, m, n, n)
            np.multiply(scaled_vt, gram + gram.conj() * free, out=lp[0])  # + the mirrored nodes
            np.multiply(vt, free, out=lp[1])
            e = (weights.T @ outer).reshape(m, n, n)
            np.matmul(e, lp[1::-1], out=rp[:2])
            rp[2:] = lp[1::-1]
            np.matmul(lp[:2], -e, out=lp[2:])
            ends += weights @ (lp[:2] @ lp[1::-1]).reshape(2, m, n * n)
            # P[(a, c), (d, b)] as in second()
            acc += lp.reshape(-1, n * n).T @ rp.reshape(-1, n * n)
        acc += np.concatenate([-ends[0], outer]).T @ np.concatenate([outer, ends[1]])
        out = acc.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)
        outer, ends = outer.reshape(nodes, n, n), ends.reshape(2, nodes, n, n)
        out += kron((ends[0] @ outer).sum(axis=0), np.eye(n))
        out -= kron(np.eye(n), (outer @ ends[1]).sum(axis=0).T)
        return out

    def nested(j, upper):
        if j == 1:
            return commutator_superop(first(upper)).matrix
        if j == 2:
            return second(upper)
        if j == 3:
            return third(upper)
        u, c = rule(upper)
        acc = np.zeros((n * n, n * n), dtype=complex)
        for ui, ci in zip(u, c):
            acc += ci * (nested(j - 1, ui) @ commutator_superop(picture(ui)).matrix)
        return acc

    return Superoperator(kron(q, q.conj()) @ nested(k, t) @ kron(q.conj().T, q.T))


def dyson_truncation_bound(n: int, eps: float, t: float, a1_norm: float) -> float:
    """Error bound for the perturbation series truncated before order n.

    sum_{k>=n} (eps*t*a1_norm)^k / k!, summed until terms fall below 1e-18 relative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if min(eps, t, a1_norm) < 0:
        raise ValueError("eps, t, a1_norm must be nonnegative")
    x = eps * t * a1_norm
    if x == 0.0:
        return 0.0
    term = x ** n / math.factorial(n)
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
