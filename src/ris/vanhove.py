"""Effective (van Hove) generators and the convergence experiments.

Two perturbative regimes, both on the rescaled time s that advances by
lambda^2*tau per interaction:

* weak coupling (lambda -> 0, tau fixed): the effective generator is
  minus the spectral average of the second-order term E_S phi_{SE,2}^tau
  over the spectral projections of A0, a logarithm of alpha_S^tau; every
  branch of it has the eigenprojections of alpha_S^tau, so no cut enters;
* fast repetition (tau -> 0, lambda^2 tau -> 0): minus one half of the
  spectral average of E_S [v,.]^2, averaged over the Bohr sectors of h_S.

The spectral average "B-natural" of B is sum_k P_k B P_k.  Everything here
is computed in the Bohr frame |q_k><q_l| of the cached eigh(h_S) = (w, q),
where alpha_S^t is the diagonal e^{it(w_k - w_l)} and both families of
projections P_k are diagonal: the spectral projections of A0 group the
angles tau (w_k - w_l) mod 2 pi (:func:`_alpha_classes`, which Kato's P(0)
reads too), the Bohr sectors the frequencies w_k - w_l.  The average is an
entrywise mask, the secular approximation of Davies, "Markovian master
equations" (CMP 1974).  Its defining time-average
(Cesaro) limit is an independent oracle in the tests.

The convergence experiments measure ||phi_res^t ∘ alpha_S^{-t} - e^{s gen}||
on a grid of s (finite-type chain elements: Attal and Joye, J. Stat. Phys.
126 (2007)); the frame is unitary, so the norm is that of the computational
basis.  Each converge call builds the generator and its flows e^{s gen},
the powers of one expm, once for all of its parameters; each (lambda, tau)
is then a few numpy calls on stacks along the s axis (:func:`_grid_report`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    RISModel,
    _computational,
    _free_evolution,
    _pair_reduction,
    _powers,
    _repeated,
    _steps,
    _taylor_stack,
)
from .linops import Superoperator, largest_gap_bisector, matrix_exp, superop_norm

WEAK_COUPLING = "weak-coupling"
FAST_REPETITION = "fast-repetition"


@dataclass(frozen=True)
class EffectiveGenerator:
    """``generator`` in the computational basis and ``bohr`` in the Bohr frame of h_S, whose
    indices (k, l) ``sectors`` labels by the spectral sector they were averaged over.  In the
    weak-coupling regime ``branch_cut_angle`` records the cut the sectors were read from."""
    regime: str
    generator: Superoperator
    bohr: np.ndarray
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


def _sector_labels(freqs: np.ndarray) -> np.ndarray:
    """A sector label per entry of ``freqs``: sorted, they split wherever a gap exceeds 1e-8."""
    order = np.argsort(freqs)
    labels = np.empty(freqs.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(freqs[order]) > 1e-8)])
    return labels


def _alpha_classes(model: RISModel, tau: float) -> tuple[np.ndarray, float]:
    """(labels, cut): the eigenvalue classes of alpha_S^tau over the Bohr indices (k, l), from
    the angles tau (w_k - w_l) read counterclockwise from ``cut``, the bisector of their
    largest gap (:func:`_sector_labels`).  Index 0, (k, l) = (0, 0), has the eigenvalue 1."""
    angles = np.angle(_free_evolution(model, tau))
    cut = largest_gap_bisector(angles)
    return _sector_labels(np.mod(angles - cut, 2 * np.pi)), cut


def _sector_average(model: RISModel, regime: str, b: np.ndarray, labels: np.ndarray,
                    cut: float | None = None) -> EffectiveGenerator:
    """The generator M ∘ b: b, a matrix in the Bohr frame, averaged over the sectors ``labels``
    of its indices (k, l).  M_ij = [label_i = label_j]: the sum of P b P over the sector
    projections P, which are diagonal in the Bohr frame."""
    bohr = np.where(labels[:, None] == labels[None, :], b, 0.0)
    return EffectiveGenerator(regime, Superoperator(_computational(model, bohr)), bohr, labels, cut)


def _second_order_reduction(model: RISModel, tau: float) -> np.ndarray:
    """R, the lambda^2 coefficient of T(lambda, tau) in the Bohr frame, from the Taylor stack.

    e^{i tau (H0 + lambda v)} = U0 + lambda U1 + lambda^2 U2 + O(lambda^3), the U_k read off
    one 3n-sided exponential (:func:`_taylor_stack`), and
    R(x) = Tr_E[(I (x) rho_E)(U2 (x (x) I) U0^† + U1 (x (x) I) U1^† + U0 (x (x) I) U2^†)].
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u0, u1, u2 = _taylor_stack(model, 2, tau)
    return _pair_reduction(model, [u2, u1, u0], [u0, u1, u2])


def second_order_term(model: RISModel, tau: float) -> Superoperator:
    """E_S phi_{SE,2}^tau restricted to M_S: -R ∘ alpha_S^{-tau}, R the lambda^2 coefficient of
    T(lambda, tau) (:func:`_second_order_reduction`), as phi_SE^tau = sum_k (i lambda)^k
    phi_{SE,k}^tau alpha_SE^tau.  In the Bohr frame: -R, columns times e^{-i tau (w_k - w_l)}."""
    term = -_second_order_reduction(model, tau) * _free_evolution(model, -tau)
    return Superoperator(_computational(model, term))


def effective_generator_weak_coupling(model: RISModel, tau: float) -> EffectiveGenerator:
    """Weak-coupling generator: minus the A0-spectral-average of the second-order term, whose
    sectors are the eigenvalue classes of alpha_S^tau (:func:`_alpha_classes`)."""
    labels, cut = _alpha_classes(model, tau)
    # R ∘ alpha_S^{-tau}: minus the second-order term
    return _sector_average(model, WEAK_COUPLING,
                           _second_order_reduction(model, tau) * _free_evolution(model, -tau),
                           labels, cut)


def effective_generator_fast_repetition(model: RISModel) -> EffectiveGenerator:
    """Fast-repetition generator: -(1/2) * Bohr-average of E_S [v,[v,.]] on M_S.

    E_S [v,[v, x (x) I]] = R(v^2, I) - 2 R(v, v) + R(I, v^2), with
    R(A, B)(x) = Tr_E[(I (x) rho_E) A (x (x) I) B^†] contracted in the same
    Hilbert-space form as the reduced map.
    """
    v = model.v
    v2, eye = v @ v, np.eye(model.dim)
    double_comm = _pair_reduction(model, [v2, -2.0 * v, eye], [eye, v.conj().T, v2.conj().T])
    return _sector_average(model, FAST_REPETITION, -0.5 * double_comm,
                           _sector_labels(model._system_bohr[0]))


def _grid_report(model: RISModel, eff: EffectiveGenerator, s_max: float, s_steps: int,
                 cases, time_of) -> ConvergenceReport:
    """Rows (parameter, s, ||phi_res^t ∘ alpha_S^{-t} - e^{s gen}||), gen = ``eff.bohr``.

    s = linspace(0, s_max, s_steps) = k ds; the flows e^{s gen} = (e^{ds gen})^k
    (:func:`_powers`) serve every case of ``cases``: (parameter, lambda, tau).
    phi_res^t = T^n ∘ E_S phi_SE^{t1} with t = n*tau + t1, as in
    :func:`restricted_dynamics`; the regimes differ only in the generator
    and in the times t = time_of(s grid, lambda, tau):

    * weak coupling on the lattice: t = tau * floor(s / (lambda^2 tau));
    * weak coupling interpolated: t = s / lambda^2;
    * fast repetition: t = s / (lambda^2 tau).

    First every case's last time passes the cost guard of :func:`_steps` (an inf
    or 0/0 time fails it), whose error then names the parameter.  Then each case is
    a few calls on stacks of s_steps maps in the Bohr frame: :func:`_repeated`,
    alpha_S^{-t} and the flows applied in place, and one stacked spectral norm.
    """
    s_grid = np.linspace(0.0, s_max, s_steps)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        times = [time_of(s_grid, lam, tau) for _, lam, tau in cases]
    for (param, _, tau), t in zip(cases, times):
        try:
            _steps(t[-1], tau)
        except ValueError as exc:
            name = "lambda" if eff.regime == WEAK_COUPLING else "tau"
            raise ValueError(f"{name} = {param!r}: {exc}") from None
    ds = s_max / max(s_steps - 1, 1)  # one s: the one flow is (e^{ds gen})^0 = I
    flows = _powers(matrix_exp(ds * eff.bohr), range(s_steps))
    rows = []
    for (param, lam, tau), t in zip(cases, times):
        maps = _repeated(model, lam, tau, t)
        maps *= _free_evolution(model, -t)[:, None, :]
        maps -= flows
        errors = superop_norm(maps)
        rows.extend((param, float(s), float(e)) for s, e in zip(s_grid, errors))
    sups = tuple((p, max(e for q, _, e in rows if q == p)) for p, _, _ in cases)
    ratios = tuple(((p1, p2), (e1 / e2 if e2 > 0 else math.inf))
                   for (p1, e1), (p2, e2) in zip(sups, sups[1:]))
    ordered = tuple(sorted(rows, key=lambda r: (r[0], r[1])))
    return ConvergenceReport(eff.regime, ordered, sups, ratios)


def _converge_weak(model: RISModel, tau: float, lambdas, s_max: float, s_steps: int,
                   time_of) -> ConvergenceReport:
    lambdas = list(lambdas)
    if any(l <= 0 for l in lambdas) or any(a <= b for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be positive and strictly decreasing")
    eff = effective_generator_weak_coupling(model, tau)
    return _grid_report(model, eff, s_max, s_steps, [(lam, lam, tau) for lam in lambdas],
                        time_of)


def converge_lambda(model: RISModel, tau: float, lambdas, s_max: float,
                    s_steps: int) -> ConvergenceReport:
    """Weak-coupling convergence on the interaction lattice.

    For each lambda and each s on the grid, measures
    ||T(lambda,tau)^n alpha_S^{-tau n} - e^{s gen}|| with n = floor(s/(lambda^2 tau)).
    The call builds the generator and its flows once for all of ``lambdas``.
    """
    return _converge_weak(model, tau, lambdas, s_max, s_steps,
                          lambda s, lam, tau: tau * np.floor(s / (lam * lam * tau)))


def converge_lambda_interpolated(model: RISModel, tau: float, lambdas, s_max: float,
                                 s_steps: int) -> ConvergenceReport:
    """Weak-coupling convergence at arbitrary times t = s/lambda^2.

    Uses the repeated-interaction dynamics (with its partial last
    interval) instead of pure powers of T.  The call builds the generator
    and its flows once for all of ``lambdas``.
    """
    return _converge_weak(model, tau, lambdas, s_max, s_steps,
                          lambda s, lam, tau: s / (lam * lam))


def converge_tau(model: RISModel, pairs, s_max: float, s_steps: int) -> ConvergenceReport:
    """Fast-repetition convergence for (lambda_n, tau_n) with lambda_n^2 tau_n -> 0.

    For each pair, measures sup_s || phi_res^{s/(lambda^2 tau)}
    alpha_S^{-s/(lambda^2 tau)} - e^{s gen} || (norm convergence: finite
    dimension upgrades the weak-star statement).  The call builds the
    generator and its flows once for all of ``pairs``.
    """
    pairs = [(float(l), float(t)) for l, t in pairs]
    if any(t <= 0 or l < 0 for l, t in pairs):
        raise ValueError("pairs must have tau > 0 and lambda >= 0")
    return _grid_report(model, effective_generator_fast_repetition(model), s_max, s_steps,
                        [(tau, lam, tau) for lam, tau in pairs],
                        lambda s, lam, tau: s / (lam * lam * tau) if lam > 0 else 0.0 * s)
