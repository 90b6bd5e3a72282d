"""Effective (van Hove) generators and the convergence experiments.

Two perturbative regimes, each on a rescaled time s, read one coefficient:
T(lambda, tau) = alpha_S^tau + (lambda tau)^2 R^(tau) + ..., R^ = R / tau^2 for R the
lambda^2 coefficient, averaged over a family of spectral projections
(:func:`_sector_reduction`):

* weak coupling (lambda -> 0, tau fixed), s advancing by lambda^2 per
  interaction: the effective generator is minus the spectral average of the
  second-order term E_S phi_{SE,2}^tau = -R ∘ alpha_S^{-tau} over the spectral
  projections of A0, a logarithm of alpha_S^tau; every branch of it has the
  eigenprojections of alpha_S^tau, so no cut enters;
* fast repetition (tau -> 0, lambda^2 tau -> 0), s advancing by
  lambda^2 tau^2 per interaction: R^ at tau = 0, which is
  -(1/2) E_S [v,[v,.]], averaged over the Bohr sectors of h_S.

The spectral average "B-natural" of B is sum_k P_k B P_k.  Everything here
is computed in the Bohr frame |q_k><q_l| of the cached eigh(h_S) = (w, q),
where alpha_S^t is the diagonal e^{it(w_k - w_l)} and both families of
projections P_k are diagonal: the spectral projections of A0 group the
angles tau (w_k - w_l) mod 2 pi (:func:`_alpha_classes`, which Kato's P(0)
reads too), the Bohr sectors the frequencies w_k - w_l.  The average is an
entrywise mask, the secular approximation of Davies, "Markovian master
equations" (CMP 1974).  Its defining time-average
(Cesaro) limit is an independent oracle in the tests.  The mask reads the
second-order term only inside the sectors, so both generators take those
entries of R^ alone, in closed form (:func:`_sector_reduction`): divided
differences of e^{i tau u} at the levels of H_0 in the chain frame, over tau,
and no expm.  Every entry of R, from one 3n-sided Taylor stack, is the
public :func:`second_order_term` and the oracle of that route.  A generator
stays in the Bohr frame: flows, verdicts and states read it there, and it is
converted to the computational basis only when its ``generator`` is read.

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
    _chain,
    _computational,
    _free_evolution,
    _pair_reduction,
    _powers,
    _repeated,
    _steps,
    _taylor_stack,
    check_grid,
    check_phases,
)
from .linops import Superoperator, change_frame, largest_gap_bisector, matrix_exp, superop_norm

WEAK_COUPLING = "weak-coupling"
FAST_REPETITION = "fast-repetition"


@dataclass(frozen=True)
class EffectiveGenerator:
    """The generator ``bohr`` of s, which advances by lambda^2 per interaction in weak coupling
    and by lambda^2 tau^2 in fast repetition, in the Bohr frame ``frame`` = q of h_S, whose
    indices (k, l) ``sectors`` labels by the spectral sector they were averaged over.  Both are
    R^ = R / tau^2 on its in-sector entries (:func:`_sector_reduction`): tau^2 R^(tau)
    alpha_S^{-tau} in weak coupling, R^(0) in fast repetition; so lambda^2 tau^2 R^ is the step
    of one interaction in either.  In the weak-coupling regime ``branch_cut_angle`` records the
    cut the sectors were read from."""
    regime: str
    bohr: np.ndarray
    sectors: np.ndarray
    frame: np.ndarray
    branch_cut_angle: float | None = None

    @property
    def generator(self) -> Superoperator:
        """``bohr`` in the computational basis, converted on each read (:func:`change_frame`)."""
        return Superoperator(change_frame(self.frame, self.bohr))


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
        return dict(self.sup_errors)[parameter]


def _sector_labels(freqs: np.ndarray) -> np.ndarray:
    """A sector label per entry of ``freqs``: sorted, they split wherever a gap exceeds 1e-8."""
    order = np.argsort(freqs)
    labels = np.empty(freqs.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(freqs[order]) > 1e-8)])
    return labels


def _alpha_classes(model: RISModel, tau: float) -> tuple[np.ndarray, float]:
    """(labels, cut): the eigenvalue classes of alpha_S^tau over the Bohr indices (k, l), from
    the angles tau (w_k - w_l) read counterclockwise from ``cut``, the bisector of their
    largest gap (:func:`_sector_labels`).  Index 0, (k, l) = (0, 0), has the eigenvalue 1.
    Refuses tau <= 0, and tau max|E| > 2^53 (:func:`check_phases`), before any work."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    check_phases(model, tau)
    angles = np.angle(_free_evolution(model, tau))
    cut = largest_gap_bisector(angles)
    return _sector_labels(np.mod(angles - cut, 2 * np.pi)), cut


def _second_order_reduction(model: RISModel, tau: float) -> np.ndarray:
    """R, the lambda^2 coefficient of T(lambda, tau) in the Bohr frame, from the Taylor stack.

    e^{i tau (H0 + lambda v)} = U0 + lambda U1 + lambda^2 U2 + O(lambda^3), the U_k read off
    one 3n-sided exponential (:func:`_taylor_stack`), and
    R(x) = Tr_E[(I (x) rho_E)(U2 (x (x) I) U0^† + U1 (x (x) I) U1^† + U0 (x (x) I) U2^†)].
    Every entry of R: the public full coefficient (:func:`second_order_term`) and the oracle
    of :func:`_sector_reduction`, which both generators and Kato's check read.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u0, u1, u2 = _taylor_stack(model, 2, tau)
    return _pair_reduction(model, _chain(model, [u2, u1, u0]), _chain(model, [u0, u1, u2]))


#: 1/(k+2)! for k = 17 ... 0: the Taylor series of phi_2 to w^17; at |w| < 1 the first term
#: left out, w^18 / 20!, is below 5e-19
_PHI2_SERIES = [1.0 / math.factorial(k + 2) for k in range(17, -1, -1)]


def _phi2(w: np.ndarray) -> np.ndarray:
    """phi_2(w) = (e^w - 1 - w) / w^2, entrywise; its Taylor series sum_k w^k / (k+2)! where
    |w| < 1, which the quotient would lose to cancellation; its constant 1/2 alone where every
    such argument is 0, as at tau = 0."""
    out = np.empty_like(w)
    small = np.abs(w) < 1.0
    big, w = w[~small], w[small]
    out[~small] = (np.exp(big) - 1.0 - big) / big ** 2
    series = np.zeros_like(w)
    for coefficient in _PHI2_SERIES if w.any() else _PHI2_SERIES[-1:]:  # Horner, in place
        series *= w
        series += coefficient
    out[small] = series
    return out


def _sector_reduction(model: RISModel, tau: float, labels: np.ndarray) -> np.ndarray:
    """R^ = R / tau^2, R the lambda^2 coefficient of T(lambda, tau) in the Bohr frame, on its
    in-sector entries and 0 elsewhere.  An entry ((k, l), (k', l')) is in-sector when ``labels``
    puts both indices in one class: the classes of alpha_S^tau for the weak-coupling generator
    and Kato's check (:func:`_alpha_classes`), the Bohr sectors for fast repetition.  No expm:
    its oracle is the Taylor stack (:func:`_second_order_reduction`).  tau = 0 is regular:
    there U0 = I, U1 = i v~ and U2 = -v~^2 / 2, so R^(0) = -(1/2) E_S [v,[v,.]].

    In the chain frame q (x) W, H_0 is the diagonal of the levels E_(k,a) = w_k + e_a and
    v~ = (q (x) W)^† v (q (x) W); the terms of e^{i tau (H_0 + lambda v)} are divided
    differences of g(u) = e^{i tau u} (Daleckii-Krein): U0 = diag(g(E)), U1 = v~ ∘ g[E_i, E_j]
    and U2_ij = sum_c v~_ic v~_cj g[E_i, E_c, E_j], here over tau and tau^2, with
    g[x, y] / tau = i e^{i tau (x + y) / 2} sinc(tau (x - y) / 2).  U0 is diagonal, so the
    U2 (x) conj U0 and U0 (x) conj U2 terms of an in-sector entry read U2 at ((k, a), (k', a))
    only, with (k, l), (k', l) in one class for some l, or (l, k), (l, k'): k = k' but for
    degenerate or resonant levels.  Only those entries of U2 are formed, n_E n_S n kernels for
    distinct levels.

    With x = E_i, y = E_j, z = E_c: a pair resonant at tau |x - y| >= pi, that is near a
    nonzero multiple of 2 pi, takes the quotient (g[x, z] - g[z, y]) / (tau^2 (x - y)); the
    others, within the class tolerance of x = y, the confluent form at m = (x + y) / 2,
    g[m, z, m] / tau^2 = -e^{i tau m} phi_2(i tau (z - m)) (:func:`_phi2`), exact at x = y and
    off by O((tau (x - y))^2) relative otherwise.
    """
    ns, ne = model.n_s, model.n_e
    sqrt_p, frame, levels = model._chain_frame
    same = labels[:, None] == labels[None, :]
    blocks, diag = same.reshape(ns, ns, ns, ns), np.arange(ns)
    k, k2 = np.nonzero((blocks[:, diag, :, diag] | blocks[diag, :, diag, :]).any(axis=0))
    i = (k[:, None] * ne + np.arange(ne)).reshape(-1)
    j = (k2[:, None] * ne + np.arange(ne)).reshape(-1)
    vt = frame.conj().T @ model.v @ frame
    e, f = levels[:, None], levels
    g1 = 1j * np.exp(0.5j * tau * (e + f)) * np.sinc(tau * (e - f) / (2 * np.pi))  # g[E, E]/tau
    x, y = levels[i][:, None], levels[j][:, None]
    m = 0.5 * (x + y)
    g2 = -np.exp(1j * tau * m) * _phi2(1j * tau * (levels - m))
    resonant = np.abs(tau * (x - y))[:, 0] >= np.pi
    g2[resonant] = ((g1[i[resonant]] - g1[:, j[resonant]].T)
                    / (tau * (x[resonant] - y[resonant])))
    u2 = np.zeros((ne, ns, ns), dtype=complex)  # U2 at ((k, a), (k', a)) as [a, k, k']
    u2[:, k, k2] = np.einsum("pc,pc,pc->p", vt[i], vt[:, j].T, g2).reshape(-1, ne).T
    # U1 (x) conj U1 in full, then U2 (x) conj U0 at l = l' and U0 (x) conj U2 at k = k'
    r = _pair_reduction(model, (vt * g1)[None]).reshape(ns, ns, ns, ns)
    pu0 = sqrt_p ** 2 * np.exp(1j * tau * levels).reshape(ns, ne)  # p_a U0_(k,a)
    r[:, diag, :, diag] += np.einsum("akm,la->lkm", u2, pu0.conj())
    r[diag, :, diag, :] += np.einsum("ka,alm->klm", pu0, u2.conj())
    return np.where(same, r.reshape(ns * ns, ns * ns), 0.0)


def second_order_term(model: RISModel, tau: float) -> Superoperator:
    """E_S phi_{SE,2}^tau restricted to M_S: -R ∘ alpha_S^{-tau}, R the lambda^2 coefficient of
    T(lambda, tau) (:func:`_second_order_reduction`, every entry from the Taylor stack), as
    phi_SE^tau = sum_k (i lambda)^k phi_{SE,k}^tau alpha_SE^tau.  In the Bohr frame: -R,
    columns times e^{-i tau (w_k - w_l)}."""
    term = -_second_order_reduction(model, tau) * _free_evolution(model, -tau)
    return Superoperator(_computational(model, term))


def effective_generator_weak_coupling(model: RISModel, tau: float) -> EffectiveGenerator:
    """Weak-coupling generator: minus the A0-spectral-average of the second-order term, whose
    sectors are the eigenvalue classes of alpha_S^tau (:func:`_alpha_classes`): tau^2 R^(tau)
    alpha_S^{-tau} on the in-sector entries of R^ (:func:`_sector_reduction`), no expm.  Raises
    ValueError when tau max|E| exceeds 2^53, E the levels of H_0 (:func:`check_phases`)."""
    labels, cut = _alpha_classes(model, tau)
    # R ∘ alpha_S^{-tau}, minus the second-order term, with tau^2 folded into alpha_S^{-tau}
    bohr = _sector_reduction(model, tau, labels) * (tau * tau * _free_evolution(model, -tau))
    return EffectiveGenerator(WEAK_COUPLING, bohr, labels, model._system_bohr[1], cut)


def effective_generator_fast_repetition(model: RISModel) -> EffectiveGenerator:
    """Fast-repetition generator: -(1/2) * Bohr-average of E_S [v,[v,.]] on M_S, which is R^ at
    tau = 0 on the Bohr sectors of h_S (:func:`_sector_reduction`, :func:`_sector_labels`)."""
    labels = _sector_labels(model._system_bohr[0])
    return EffectiveGenerator(FAST_REPETITION, _sector_reduction(model, 0.0, labels), labels,
                              model._system_bohr[1])


def _grid_report(model: RISModel, eff: EffectiveGenerator, s_max: float, s_steps: int,
                 cases, time_of) -> ConvergenceReport:
    """Rows (parameter, s, ||phi_res^t ∘ alpha_S^{-t} - e^{s gen}||), gen = ``eff.bohr``.

    s = linspace(0, s_max, s_steps) = k ds; the flows e^{s gen} = (e^{ds gen})^k
    (:func:`_powers`) serve every case of ``cases``: (parameter, lambda, tau).
    phi_res^t = T^n ∘ E_S phi_SE^{t1} with t = n*tau + t1, as in
    :func:`restricted_dynamics`; the regimes differ only in the generator
    and in the times t = time_of(s grid, lambda, tau):

    * weak coupling on the lattice: t = tau * floor(s / lambda^2), or s = lambda^2 n;
    * weak coupling interpolated: t = tau * s / lambda^2;
    * fast repetition: t = s / (lambda^2 tau), or s = lambda^2 tau^2 n at t = n tau.

    Its cost guard, :func:`check_grid`, refuses s_steps * n_S^4 > MAX_GRID_ENTRIES before any
    work: the call holds a few stacks of that many entries.  First :func:`_steps` splits the
    times of every case, and its cost guard, which an inf or 0/0 time fails, then names the
    parameter.  Then each case is a few calls on stacks of s_steps maps in the Bohr frame:
    :func:`_repeated`, alpha_S^{-t} and the flows applied in place, and one stacked spectral
    norm; a parameter's sup is its largest error.
    """
    check_grid(s_steps, model.n_s)
    s_grid = np.linspace(0.0, s_max, s_steps)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        times = [time_of(s_grid, lam, tau) for _, lam, tau in cases]
    steps = []
    for (param, _, tau), t in zip(cases, times):
        try:
            steps.append(_steps(t, tau))
        except ValueError as exc:
            name = "lambda" if eff.regime == WEAK_COUPLING else "tau"
            raise ValueError(f"{name} = {param!r}: {exc}") from None
    ds = s_max / max(s_steps - 1, 1)  # one s: the one flow is (e^{ds gen})^0 = I
    flows = _powers(matrix_exp(ds * eff.bohr), range(s_steps))
    errors = np.empty((len(cases), s_steps))
    for k, ((_, lam, tau), t, split) in enumerate(zip(cases, times, steps)):
        maps = _repeated(model, lam, tau, *split)
        maps *= _free_evolution(model, -t)[:, None, :]
        maps -= flows
        errors[k] = superop_norm(maps)
    params = np.array([p for p, _, _ in cases], dtype=float)
    sups = tuple((p, float(errors[params == p].max())) for p, _, _ in cases)
    ratios = tuple(((p1, p2), (e1 / e2 if e2 > 0 else math.inf))
                   for (p1, e1), (p2, e2) in zip(sups, sups[1:]))
    order = np.lexsort((np.tile(s_grid, len(cases)), np.repeat(params, s_steps)))  # stable
    case, k = np.divmod(order, s_steps)  # the (case, s) entries in (parameter, s) order
    rows = tuple(zip(params[case].tolist(), s_grid[k].tolist(), errors[case, k].tolist()))
    return ConvergenceReport(eff.regime, rows, sups, ratios)


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
    ||T(lambda,tau)^n alpha_S^{-tau n} - e^{s gen}|| with n = floor(s/lambda^2): the
    generator is a rate per interaction.  The call builds the generator and its flows once
    for all of ``lambdas``.
    """
    return _converge_weak(model, tau, lambdas, s_max, s_steps,
                          lambda s, lam, tau: tau * np.floor(s / (lam * lam)))


def converge_lambda_interpolated(model: RISModel, tau: float, lambdas, s_max: float,
                                 s_steps: int) -> ConvergenceReport:
    """Weak-coupling convergence at arbitrary times t = tau s/lambda^2.

    Uses the repeated-interaction dynamics (with its partial last
    interval) instead of pure powers of T.  The call builds the generator
    and its flows once for all of ``lambdas``.
    """
    return _converge_weak(model, tau, lambdas, s_max, s_steps,
                          lambda s, lam, tau: tau * s / (lam * lam))


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
