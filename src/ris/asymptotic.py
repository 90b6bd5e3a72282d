"""Peripheral spectra, limit projections, and asymptotic states.

"Unique asymptotic state" is operationalized as: eigenvalue 1 of the
reduced map is simple and no other eigenvalue is peripheral within
tolerance.  Its eigenprojection P(x) = Tr(rho x) I then has the matrix
vec(I) vec(rho^T)^T, and rho is read off as vec(rho^T) = vec(I)^T P / n;
the limit of exp(s*gen) is the same kind of projection, at eigenvalue 0
of the generator.  Each map is decomposed by one ``numpy.linalg.eig``,
which gives its peripheral spectrum, subdominant modulus, projection and
density.  The maps are not normal: projections pair right eigenvectors
with the rows of their inverse, and the pairing's condition is reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NoAsymptoticStateError, RISModel, _reduced_map, reduced_map_T
from .linops import Superoperator, matrix_exp, superop_norm
from .vanhove import (
    EffectiveGenerator,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    second_order_term,
    system_free_evolution,
)


class JordanDefectError(ValueError):
    """The relevant eigenvalue is not semisimple within tolerance."""


def _peripheral(eigs: np.ndarray, tol: float) -> list[complex]:
    periph = [complex(e) for e in eigs if abs(e) >= 1.0 - tol]
    periph.sort(key=lambda e: (-abs(e), np.angle(e)))
    return periph


def peripheral_spectrum(t_map: Superoperator, tol: float = 1e-9) -> list[complex]:
    """Eigenvalues of modulus >= 1 - tol, sorted by decreasing modulus."""
    return _peripheral(np.linalg.eigvals(t_map.matrix), tol)


def _eigenprojection_near(m: np.ndarray, point: complex, radius: float, eig=None):
    """Spectral projection of the eigenvalue cluster within ``radius`` of ``point``.

    Right eigenvectors paired with the rows of their inverse; ``eig`` is the
    ``numpy.linalg.eig(m)`` pair when the caller holds it already.  Raises
    JordanDefectError when the cluster eigenvalue is not semisimple: the
    projection fails idempotency, or the restriction of m to the range of
    the projection carries a nilpotent part.  Returns (projection,
    pairing condition number).
    """
    eigs, vr = np.linalg.eig(m) if eig is None else eig
    idx = np.nonzero(np.abs(eigs - point) <= radius)[0]
    if idx.size == 0:
        raise ValueError(f"no eigenvalue within {radius:.1e} of {point}")
    vl = np.linalg.inv(vr)
    p = vr[:, idx] @ vl[idx, :]
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    idem = float(np.linalg.norm(p @ p - p, 2))
    nilpotent = float(np.linalg.norm((m - point * np.eye(m.shape[0])) @ p, 2))
    if idem > 1e-8 or nilpotent > max(1e-8, 100.0 * radius) * scale:
        raise JordanDefectError(
            f"eigenvalue cluster at {point} is defective within {radius:.1e} "
            f"(idempotency defect {idem:.3e}, nilpotent part {nilpotent:.3e})")
    return p, float(np.linalg.cond(vr))


def _density(p: np.ndarray, n: int) -> np.ndarray:
    """The rho of a projection P(x) = Tr(rho x) I, from vec(rho^T) ~ vec(I)^T P.

    Trace one and Hermitian; raises NoAsymptoticStateError unless PSD.
    """
    rho = (np.eye(n).reshape(-1) @ p).reshape(n, n).T
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoAsymptoticStateError(
            f"limit projection encodes no PSD state (min eigenvalue {low:.3e})")
    return rho


@dataclass(frozen=True)
class LimitProjection:
    projection: Superoperator
    converged: bool
    subdominant_modulus: float
    pairing_condition: float
    power_errors: tuple
    eigenvalues: np.ndarray


def limit_projection(t_map: Superoperator, tol: float = 1e-7,
                     max_power: int = 2 ** 30,
                     cluster_radius: float = 1e-9) -> LimitProjection:
    """Eigenprojection of eigenvalue 1, with a power-convergence flag.

    The flag is true iff every other eigenvalue has modulus < 1 - tol and
    ||T^(2^j) - P|| decreases monotonically (once below one) up to
    j = log2(max_power), or until it reaches the rounding floor of the
    squarings.  On failure the projection is still returned with the flag
    false.  ``eigenvalues`` are those of the decomposition that gave P.
    """
    m = t_map.matrix
    eig = np.linalg.eig(m)
    p, cond = _eigenprojection_near(m, 1.0 + 0.0j, cluster_radius, eig)
    others = eig[0][np.abs(eig[0] - 1.0) > cluster_radius]
    sub = float(np.abs(others).max()) if others.size else 0.0
    spectral_ok = sub < 1.0 - tol

    # each squaring rounds at about eps * side * ||T|| and every later
    # squaring doubles what came before: below the floor of squaring j
    # the error is rounding, not convergence
    drift = np.finfo(float).eps * m.shape[0] * max(1.0, float(np.linalg.norm(m, 2)))
    floors = [max(1e-10, 2.0 ** j * drift) for j in range(max(1, int(math.log2(max_power))))]
    errors = []
    power = m.copy()
    for floor in floors:
        errors.append(float(np.linalg.norm(power - p, 2)))
        if errors[-1] < floor:
            break
        power = power @ power
    started = False
    monotone = True
    for prev, cur, floor in zip(errors, errors[1:], floors[1:]):
        if not started and prev < 1.0:
            started = True
        if started and cur > prev + 1e-12 and cur > floor:
            monotone = False
    return LimitProjection(Superoperator(p), spectral_ok and monotone,
                           sub, cond, tuple(errors), eig[0])


@dataclass(frozen=True)
class AsymptoticReport:
    peripheral_eigenvalues: tuple
    limit_projection: Superoperator
    is_rank_one: bool
    asymptotic_density: np.ndarray
    period_samples: tuple


def _apply_dual(map_on_system: Superoperator, rho: np.ndarray) -> np.ndarray:
    out = map_on_system.trace_dual().apply(rho)
    return 0.5 * (out + out.conj().T)


def asymptotic_periodic_state(model: RISModel, lam: float, tau: float,
                              t_samples=()) -> AsymptoticReport:
    """The periodic family of states the repeated interactions relax to.

    The density at the period start is read off the eigenprojection of
    eigenvalue 1 of T(lambda, tau); the sample at t in [0, tau) is
    it propagated through the partial-interval map.  Raises
    NoAsymptoticStateError when eigenvalue 1 is not simple-and-dominant.
    """
    t_map = reduced_map_T(model, lam, tau)
    lp = limit_projection(t_map)
    periph = _peripheral(lp.eigenvalues, 1e-9)
    if len(periph) != 1 or not lp.converged:
        raise NoAsymptoticStateError(
            f"no unique asymptotic state: peripheral spectrum {periph}, "
            f"power convergence {lp.converged}")
    rho0 = _density(lp.projection.matrix, model.n_s)
    trace_of_p = float(np.trace(lp.projection.matrix).real)
    is_rank_one = abs(trace_of_p - 1.0) < 1e-8

    samples = []
    for t in t_samples:
        if not 0 <= t < tau:
            raise ValueError(f"sample time {t} outside [0, tau)")
        partial = _reduced_map(model, lam, t)
        rho_t = _apply_dual(partial, rho0)
        # one extra full period must reproduce the same sample
        rho_t_shifted = _apply_dual(partial, _apply_dual(t_map, rho0))
        drift = float(np.abs(rho_t - rho_t_shifted).max())
        if drift > 1e-9:
            raise NoAsymptoticStateError(f"period drift {drift:.3e} at t={t}")
        samples.append((float(t), rho_t))
    return AsymptoticReport(tuple(periph), lp.projection, is_rank_one, rho0, tuple(samples))


@dataclass(frozen=True)
class EffectiveStateResult:
    density: np.ndarray | None
    rank_one: bool
    spectral_gap: float
    horizon_defect: float | None = None


def effective_asymptotic_state(gen: EffectiveGenerator | Superoperator,
                               tol: float = 1e-9,
                               horizon: float | None = None) -> EffectiveStateResult:
    """Limit of exp(s*gen) as s -> infinity, via eigenanalysis.

    Rank-one flag: 0 is a simple eigenvalue and every other eigenvalue
    has real part < -tol.  When true, the density is read off the
    eigenprojection P of 0; ``horizon`` optionally reports
    ||exp(horizon*gen) - P||.
    """
    g = gen.generator if isinstance(gen, EffectiveGenerator) else gen
    eig = np.linalg.eig(g.matrix)
    near_zero = np.abs(eig[0]) <= tol
    others = eig[0][~near_zero]
    gap = float(-others.real.max()) if others.size else 0.0
    if not near_zero.any():
        return EffectiveStateResult(None, False, gap)
    # a multiple zero raises JordanDefectError when it is defective
    p_inf, _ = _eigenprojection_near(g.matrix, 0.0 + 0.0j, tol, eig)
    if near_zero.sum() > 1 or (others.size and gap <= tol):
        return EffectiveStateResult(None, False, gap)
    defect = None
    if horizon is not None:
        defect = superop_norm(matrix_exp(horizon * g.matrix) - p_inf)
    return EffectiveStateResult(_density(p_inf, g.dim), True, gap, defect)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of the difference of two Hermitian matrices."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class OrderComparison:
    rows: tuple            # (lambda, trace_distance)
    ratios: tuple          # distance(lambda_i) / distance(lambda_{i+1})
    effective_density: np.ndarray


def compare_orders(model: RISModel, tau: float, lambdas,
                   branch_cut_angle: float | None = None) -> OrderComparison:
    """Trace distance between exact periodic states and the effective one.

    The exact state at the period start is compared, for each lambda,
    with the asymptotic state of the weak-coupling effective dynamics;
    ratios across consecutive lambdas are reported (quadratic order means
    a ratio near 4 when lambda halves).
    """
    eff = effective_asymptotic_state(effective_generator_weak_coupling(
        model, tau, branch_cut_angle))
    if not eff.rank_one:
        raise NoAsymptoticStateError("effective dynamics has no rank-one limit")
    rows = []
    for lam in lambdas:
        report = asymptotic_periodic_state(model, lam, tau)
        rows.append((float(lam), trace_distance(report.asymptotic_density, eff.density)))
    ratios = tuple(d1 / d2 if d2 > 0 else math.inf
                   for (_, d1), (_, d2) in zip(rows, rows[1:]))
    return OrderComparison(tuple(rows), ratios, eff.density)


@dataclass(frozen=True)
class KatoReport:
    """Perturbation structure of T(eps) = alpha_S^tau + eps*T'(0) + O(eps^2) at eps=0+.

    Checks, with P(0) the eigenprojection of 1 of alpha_S^tau, Q the
    eigenprojection of 0 of P(0) T'(0) P(0), and P(0+) the Richardson
    extrapolation of the eigenprojections P(eps) of 1 of T(eps):
    [Q, P(0)] = 0, P(0)Q idempotent, P(0+) a sub-projection of P(0)Q,
    and ||P(eps) - P(0+)|| = O(eps).
    """
    p0: Superoperator
    t_prime: Superoperator
    q: Superoperator
    p0q: Superoperator
    p_plus: Superoperator
    commutator_norm: float
    idempotency_defect: float
    subprojection_defect: float
    trace_p_plus: float
    distance_rows: tuple          # (eps, ||P(eps) - P(0+)||)
    distance_ratios: tuple
    extrapolation_stable: bool
    raw_differences: tuple


def _free_fixed_projection(model: RISModel, tau: float) -> np.ndarray:
    """P(0), the eigenprojection of 1 of alpha_S^tau: F diag(|e^{i theta} - 1| <= 1e-8) F^†.

    theta = tau (w_k - w_l) in the Bohr frame F = kron(q, conj q) of eigh(h_S).
    """
    bohr, frame = model._system_bohr
    fixed = np.abs(np.exp(1j * tau * bohr) - 1.0) <= 1e-8
    return (frame * fixed) @ frame.conj().T


def kato_structure_check(model: RISModel, tau: float, eps_list) -> KatoReport:
    """Verify the analytic-perturbation structure of the reduced map at small coupling."""
    eps_list = sorted(float(e) for e in eps_list)
    if len(set(eps_list)) < max(2, len(eps_list)) or eps_list[0] <= 0:
        raise ValueError(f"eps_list needs at least two distinct positive values, got {eps_list}")
    eps_desc = eps_list[::-1]

    alpha = system_free_evolution(model, tau)
    p0 = _free_fixed_projection(model, tau)
    t_prime = -(second_order_term(model, tau) @ alpha).matrix
    g = p0 @ t_prime @ p0
    eig = np.linalg.eig(g)
    scale = max(float(np.abs(eig[0]).max()), 1e-30)
    q, _ = _eigenprojection_near(g, 0.0 + 0.0j, 1e-9 * scale, eig)

    p_eps = {}
    for eps in eps_desc:
        t_map = reduced_map_T(model, math.sqrt(eps), tau)
        p_eps[eps], _ = _eigenprojection_near(t_map.matrix, 1.0 + 0.0j, 1e-9)

    # two-point Richardson on the two smallest eps
    e1, e2 = eps_list[1], eps_list[0]
    p_plus = p_eps[e2] + (p_eps[e2] - p_eps[e1]) * (e2 / (e1 - e2))

    p0q = p0 @ q
    comm = superop_norm(p0 @ q - q @ p0)
    idem = superop_norm(p0q @ p0q - p0q)
    sub = max(superop_norm(p0q @ p_plus - p_plus), superop_norm(p_plus @ p0q - p_plus))

    rows = tuple((eps, superop_norm(p_eps[eps] - p_plus)) for eps in eps_desc)
    ratios = tuple(d1 / d2 if d2 > 0 else math.inf
                   for (_, d1), (_, d2) in zip(rows, rows[1:]))
    diffs = tuple(superop_norm(p_eps[a] - p_eps[b]) for a, b in zip(eps_desc, eps_desc[1:]))
    stable = all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))

    return KatoReport(
        p0=Superoperator(p0), t_prime=Superoperator(t_prime), q=Superoperator(q),
        p0q=Superoperator(p0q), p_plus=Superoperator(p_plus),
        commutator_norm=comm, idempotency_defect=idem, subprojection_defect=sub,
        trace_p_plus=float(np.trace(p_plus).real),
        distance_rows=rows, distance_ratios=ratios,
        extrapolation_stable=stable, raw_differences=diffs)


@dataclass(frozen=True)
class ParametrizedRow:
    eps: float
    lam: float
    tau: float
    trace_distance: float


def parametrized_tau_experiment(model: RISModel, n_odd: int, eps_list) -> tuple:
    """Fast-repetition regime along lambda = eps^((1-n)/2), tau = eps^n.

    For each eps, the asymptotic state of T(lambda(eps), tau(eps)) is
    compared (trace distance) to the asymptotic state of the
    fast-repetition effective dynamics.  The result is a tuple of rows;
    the distances are expected to decay quadratically in eps.
    """
    if n_odd < 1 or n_odd % 2 == 0:
        raise ValueError("n_odd must be an odd integer >= 1")
    eff = effective_asymptotic_state(effective_generator_fast_repetition(model))
    if not eff.rank_one:
        raise NoAsymptoticStateError("fast-repetition dynamics has no rank-one limit")
    rows = []
    for eps in eps_list:
        eps = float(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        lam = eps ** ((1 - n_odd) / 2.0)
        tau = eps ** n_odd
        if lam > 1e3:
            raise ValueError(f"lambda(eps) = {lam:.3e} exceeds the cost guard")
        report = asymptotic_periodic_state(model, lam, tau)
        rows.append(ParametrizedRow(eps, lam, tau,
                                    trace_distance(report.asymptotic_density, eff.density)))
    return tuple(rows)
