"""Effective (van Hove) generators and the convergence experiments.

Two perturbative regimes, both on the rescaled time s that advances by
lambda^2*tau per interaction:

* weak coupling (lambda -> 0, tau fixed): the effective generator is
  minus the spectral average of the second-order term E_S phi_{SE,2}^tau,
  averaged with respect to the spectral projections of the branch
  logarithm A0 of alpha_S^tau;
* fast repetition (tau -> 0, lambda^2 tau -> 0): minus one half of the
  spectral average of E_S [v,.]^2, averaged over the Bohr sectors of h_S.

The spectral average "B-natural" of B is sum_k P_k B P_k.  Both families
of projections P_k are diagonal in the Bohr frame F = kron(q, conj q) of
the cached eigh(h_S) = (w, q): the spectral projections of A0 group the
wrapped angles tau (w_k - w_l), the Bohr sectors group the frequencies
w_k - w_l.  The average is therefore an entrywise mask in that frame, the
secular approximation of Davies, "Markovian master equations" (CMP 1974).
Its defining time-average (Cesaro) limit is an independent oracle in the
tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    RISModel,
    _pair_reduction,
    _repeated,
    _taylor_stack,
    reduced_map_T,
    system_free_evolution,
)
from .linops import (
    Superoperator,
    largest_gap_bisector,
    matrix_exp,
    superop_norm,
    wrap_to_cut,
)

WEAK_COUPLING = "weak-coupling"
FAST_REPETITION = "fast-repetition"


@dataclass(frozen=True)
class EffectiveGenerator:
    """``sectors`` labels each index (k, l) of the Bohr frame of h_S by the
    spectral sector the generator was averaged over."""
    regime: str
    generator: Superoperator
    sectors: np.ndarray
    branch_cut_angle: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid of (parameter, s, error) rows for one convergence experiment.

    ``sup_errors`` lists (parameter, sup over s); ``decay_ratios`` pairs
    consecutive parameters (in the order supplied) with the ratio of
    their sup errors — recorded as empirical rates, not asserted claims.
    """
    regime: str
    rows: tuple
    sup_errors: tuple
    decay_ratios: tuple

    def sup_error(self, parameter: float) -> float:
        for p, e in self.sup_errors:
            if p == parameter:
                return e
        raise KeyError(parameter)


def _sector_average(model: RISModel, b: Superoperator, freqs: np.ndarray):
    """(labels, F (M ∘ F^† b F) F^†): b averaged over the sectors of ``freqs``.

    ``freqs`` holds one real frequency per index (k, l) of the Bohr frame
    F = kron(q, conj q) of eigh(h_S) = (w, q).  Sorted frequencies split into
    sectors wherever a gap exceeds 1e-8, and M_ij = [label_i = label_j]: the
    sum of P b P over the sector projections P, which are diagonal in F.
    """
    order = np.argsort(freqs)
    labels = np.empty(freqs.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(freqs[order]) > 1e-8)])
    frame = model._system_bohr[1]
    inner = frame.conj().T @ b.matrix @ frame
    masked = np.where(labels[:, None] == labels[None, :], inner, 0.0)
    return labels, Superoperator(frame @ masked @ frame.conj().T)


def second_order_term(model: RISModel, tau: float) -> Superoperator:
    """E_S phi_{SE,2}^tau restricted to M_S, from the n-sized Taylor stack.

    e^{i tau (H0 + lambda v)} = U0 + lambda U1 + lambda^2 U2 + O(lambda^3), the U_k read off
    one 3n-sided exponential (:func:`_taylor_stack`).  Since phi_SE^tau = sum_k (i lambda)^k
    phi_{SE,k}^tau alpha_SE^tau, the term is -R ∘ alpha_S^{-tau} with
    R(x) = Tr_E[(I (x) rho_E)(U2 (x (x) I) U0^† + U1 (x (x) I) U1^† + U0 (x (x) I) U2^†)].
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u0, u1, u2 = _taylor_stack(model, 2, tau)
    r = _pair_reduction(model, [u2, u1, u0], [u0, u1, u2])
    return Superoperator(-r) @ system_free_evolution(model, -tau)


def effective_generator_weak_coupling(model: RISModel, tau: float,
                                      branch_cut_angle: float | None = None) -> EffectiveGenerator:
    """Weak-coupling generator: minus the A0-spectral-average of the second-order term.

    A0, the branch logarithm of alpha_S^tau, is i times the Bohr angles
    tau (w_k - w_l) wrapped into (cut - 2 pi, cut) in the Bohr frame.  The
    default cut is the bisector of the largest angular gap; an angle on the
    cut raises BranchCutCollisionError with the suggested cut attached.
    """
    # in (-pi, pi], as the eigenvalue phases of alpha_S^tau
    angles = np.angle(np.exp(1j * tau * model._system_bohr[0]))
    if branch_cut_angle is None:
        branch_cut_angle = largest_gap_bisector(angles)
    sectors, avg = _sector_average(model, second_order_term(model, tau),
                                   wrap_to_cut(angles, branch_cut_angle))
    return EffectiveGenerator(WEAK_COUPLING, -1.0 * avg, sectors, branch_cut_angle)


def effective_generator_fast_repetition(model: RISModel) -> EffectiveGenerator:
    """Fast-repetition generator: -(1/2) * Bohr-average of E_S [v,[v,.]] on M_S.

    E_S [v,[v, x (x) I]] = R(v^2, I) - 2 R(v, v) + R(I, v^2), with
    R(A, B)(x) = Tr_E[(I (x) rho_E) A (x (x) I) B^†] contracted in the same
    Hilbert-space form as the reduced map.
    """
    v = model.v
    v2, eye = v @ v, np.eye(model.dim)
    double_comm = Superoperator(_pair_reduction(
        model, [v2, -2.0 * v, eye], [eye, v.conj().T, v2.conj().T]))
    sectors, avg = _sector_average(model, double_comm, model._system_bohr[0])
    return EffectiveGenerator(FAST_REPETITION, -0.5 * avg, sectors, None)


def _grid_report(model: RISModel, eff: EffectiveGenerator, cases, time_of, s_max: float,
                 s_steps: int) -> ConvergenceReport:
    """Rows (parameter, s, ||phi_res^t ∘ alpha_S^{-t} - e^{s gen}||), gen = eff.generator.

    ``cases`` lists (parameter, lambda, tau); s runs over linspace(0, s_max,
    s_steps).  T(lambda, tau) is built once per case and e^{s gen} once per s.
    phi_res^t = T^n ∘ E_S phi_SE^{t1} with t = n*tau + t1, as in
    :func:`restricted_dynamics`; the regimes differ only in the generator and in
    t = time_of(s, lambda, tau):

    * weak coupling on the lattice: t = tau * floor(s / (lambda^2 tau));
    * weak coupling interpolated: t = s / lambda^2;
    * fast repetition: t = s / (lambda^2 tau).
    """
    s_grid = np.linspace(0.0, s_max, s_steps)
    flows = [matrix_exp(s * eff.generator.matrix) for s in s_grid]
    rows = []
    for param, lam, tau in cases:
        t_map = reduced_map_T(model, lam, tau)
        for s, flow in zip(s_grid, flows):
            t = time_of(s, lam, tau)
            res = _repeated(model, lam, tau, t_map, t) @ system_free_evolution(model, -t)
            rows.append((param, float(s), superop_norm(res.matrix - flow)))
    sups = tuple((p, max(e for q, _, e in rows if q == p)) for p, _, _ in cases)
    ratios = tuple(((p1, p2), (e1 / e2 if e2 > 0 else math.inf))
                   for (p1, e1), (p2, e2) in zip(sups, sups[1:]))
    ordered = tuple(sorted(rows, key=lambda r: (r[0], r[1])))
    return ConvergenceReport(eff.regime, ordered, sups, ratios)


def _decreasing(lambdas) -> list:
    lambdas = list(lambdas)
    if any(l <= 0 for l in lambdas) or any(a <= b for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be positive and strictly decreasing")
    return lambdas


def converge_lambda(model: RISModel, tau: float, lambdas, s_max: float,
                    s_steps: int, branch_cut_angle: float | None = None) -> ConvergenceReport:
    """Weak-coupling convergence on the interaction lattice.

    For each lambda and each s on the grid, measures
    ||T(lambda,tau)^n alpha_S^{-tau n} - e^{s gen}|| with n = floor(s/(lambda^2 tau)).
    """
    lambdas = _decreasing(lambdas)
    eff = effective_generator_weak_coupling(model, tau, branch_cut_angle)
    return _grid_report(model, eff, [(lam, lam, tau) for lam in lambdas],
                        lambda s, lam, tau: tau * math.floor(s / (lam * lam * tau)),
                        s_max, s_steps)


def converge_lambda_interpolated(model: RISModel, tau: float, lambdas, s_max: float,
                                 s_steps: int,
                                 branch_cut_angle: float | None = None) -> ConvergenceReport:
    """Weak-coupling convergence at arbitrary times t = s/lambda^2.

    Uses the repeated-interaction dynamics (with its partial last
    interval) instead of pure powers of T.
    """
    lambdas = _decreasing(lambdas)
    eff = effective_generator_weak_coupling(model, tau, branch_cut_angle)
    return _grid_report(model, eff, [(lam, lam, tau) for lam in lambdas],
                        lambda s, lam, tau: s / (lam * lam), s_max, s_steps)


def converge_tau(model: RISModel, pairs, s_max: float, s_steps: int) -> ConvergenceReport:
    """Fast-repetition convergence for (lambda_n, tau_n) with lambda_n^2 tau_n -> 0.

    For each pair, measures sup_s || phi_res^{s/(lambda^2 tau)}
    alpha_S^{-s/(lambda^2 tau)} - e^{s gen} || (norm convergence: finite
    dimension upgrades the weak-star statement).
    """
    pairs = [(float(l), float(t)) for l, t in pairs]
    if any(t <= 0 or l < 0 for l, t in pairs):
        raise ValueError("pairs must have tau > 0 and lambda >= 0")
    return _grid_report(model, effective_generator_fast_repetition(model),
                        [(tau, lam, tau) for lam, tau in pairs],
                        lambda s, lam, tau: s / (lam * lam * tau) if lam > 0 else 0.0,
                        s_max, s_steps)
