"""Effective (van Hove) generators and the convergence experiments.

Two perturbative regimes, both on the rescaled time s that advances by
lambda^2*tau per interaction:

* weak coupling (lambda -> 0, tau fixed): the effective generator is
  minus the spectral average of the second-order term E_S phi_{SE,2}^tau,
  averaged with respect to the spectral projections of the branch
  logarithm A0 of alpha_S^tau;
* fast repetition (tau -> 0, lambda^2 tau -> 0): minus one half of the
  spectral average of E_S [v,.]^2, averaged over the Bohr sectors of h_S.

The spectral average "B-natural" of B is sum_k P_k B P_k; its defining
time-average limit is exposed separately (:func:`cesaro_average`) as an
independent oracle.
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
    SpectralDecomposition,
    Superoperator,
    derivation_superop,
    largest_gap_bisector,
    matrix_exp,
    matrix_log_unitary,
    spectral_decompose,
    superop_norm,
)

WEAK_COUPLING = "weak-coupling"
FAST_REPETITION = "fast-repetition"


@dataclass(frozen=True)
class EffectiveGenerator:
    regime: str
    generator: Superoperator
    averaging_basis: SpectralDecomposition
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

    e_offsets = [matrix_exp(u * m) for u in offsets]
    e_panel = matrix_exp(h * m)
    e_start = matrix_exp(-t_total * m)

    acc = np.zeros_like(b.matrix)
    bm = b.matrix
    for p in range(panels):
        t0 = -t_total + p * h
        for i, e_off in enumerate(e_offsets):
            t = t0 + offsets[i]
            e_t = e_start @ e_off
            weight = (0.5 * h * w[i]) * (1.0 - abs(t) / t_total) / t_total
            acc += weight * (e_t @ bm @ e_t.conj().T)
        e_start = e_start @ e_panel
    return Superoperator(acc)


def _branch_log(alpha: Superoperator, branch_cut_angle: float | None):
    """(A0, cut): the branch logarithm of alpha and the cut it was taken at."""
    if branch_cut_angle is None:
        branch_cut_angle = largest_gap_bisector(np.angle(np.linalg.eigvals(alpha.matrix)))
    return matrix_log_unitary(alpha, branch_cut_angle), branch_cut_angle


def log_generator_A0(model: RISModel, tau: float,
                     branch_cut_angle: float | None = None) -> Superoperator:
    """Branch logarithm A0 of alpha_S^tau (as a superoperator): exp(A0) = alpha_S^tau.

    The default cut is the bisector of the largest angular gap of the
    spectrum.  In finite dimension the spectrum is finite, so a valid cut
    always exists; a collision raises with the suggested cut attached.
    """
    return _branch_log(system_free_evolution(model, tau), branch_cut_angle)[0]


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
    """Weak-coupling generator: minus the A0-spectral-average of the second-order term."""
    a0, branch_cut_angle = _branch_log(system_free_evolution(model, tau), branch_cut_angle)
    basis = spectral_decompose(a0)
    gen = -1.0 * spectral_average(second_order_term(model, tau), basis)
    return EffectiveGenerator(WEAK_COUPLING, gen, basis, branch_cut_angle)


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
    basis = spectral_decompose(derivation_superop(model.h_s))
    gen = -0.5 * spectral_average(double_comm, basis)
    return EffectiveGenerator(FAST_REPETITION, gen, basis, None)


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
