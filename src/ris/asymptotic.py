"""Limit projections and asymptotic states.

One verdict decides whether a dynamics has a unique asymptotic state, the
exact map T(lambda, tau) and an effective generator alike.  With P the
eigenprojection of eigenvalue 1 of T (of 0 of the generator), the state
is unique when the rest of the spectrum is isolated, tr P = 1, and the rho
read off P is PSD; otherwise NoAsymptoticStateError names the dynamics.
Isolated means :attr:`LimitProjection.converged` for T, and real part
< -1e-9 for every other eigenvalue of a generator.  P(x) = Tr(rho x) I has
the matrix vec(I) vec(rho^T)^T, so vec(rho^T) = vec(I)^T P / n.  Each map
is decomposed by one ``numpy.linalg.eig``; the maps are not normal, so
projections pair right eigenvectors with the rows of their inverse, and
the pairing's condition is reported.  The exact maps are in the Bohr frame
of h_S (:mod:`ris.dynamics`), which leaves verdicts, spectra and norms as
they are: only the densities returned are converted, to q rho q^†.  The
CLI ``asymptotic`` experiment compares the exact periodic states with the
effective limit of either regime (:func:`trace_distance`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NoAsymptoticStateError,
    RISModel,
    _computational,
    _free_evolution,
    _reduced_map,
)
from .linops import Superoperator, superop_norm
from .vanhove import EffectiveGenerator, _second_order_reduction


class JordanDefectError(ValueError):
    """The relevant eigenvalue is not semisimple within tolerance."""


def _eigenprojection_near(m: np.ndarray, point: complex, radius: float, eig=None):
    """Spectral projection of the eigenvalue cluster within ``radius`` of ``point``.

    Right eigenvectors paired with the rows of their inverse; ``eig`` is the
    ``numpy.linalg.eig(m)`` pair when the caller holds it already.  An empty
    cluster gives the zero projection.  Raises JordanDefectError when the
    cluster eigenvalue is not semisimple: the projection fails idempotency,
    or the restriction of m to the range of the projection carries a
    nilpotent part.  Returns (projection, pairing condition number).
    """
    eigs, vr = np.linalg.eig(m) if eig is None else eig
    idx = np.nonzero(np.abs(eigs - point) <= radius)[0]
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


def _unique_state(p: np.ndarray, isolated: bool, n: int, dynamics: str) -> np.ndarray:
    """The unique asymptotic state read off the eigenprojection ``p``, Hermitian with trace one.

    Raises NoAsymptoticStateError naming ``dynamics`` unless the rest of the
    spectrum is ``isolated``, tr P = 1 and the state is PSD.
    """
    rank = float(np.trace(p).real)
    if not isolated or abs(rank - 1.0) > 1e-8:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (eigenprojection of trace "
            f"{rank:.6g}, rest of the spectrum {'' if isolated else 'not '}isolated)")
    rho = (np.eye(n).reshape(-1) @ p).reshape(n, n).T
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (its limit projection "
            f"encodes no PSD state, min eigenvalue {low:.3e})")
    return rho


@dataclass(frozen=True)
class LimitProjection:
    projection: Superoperator
    converged: bool
    subdominant_modulus: float
    pairing_condition: float
    power_errors: tuple


def limit_projection(t_map: Superoperator) -> LimitProjection:
    """Eigenprojection P of the eigenvalues within 1e-9 of 1, with a power-convergence flag.

    The flag is true iff every other eigenvalue has modulus < 1 - 1e-7 and
    ||T^(2^j) - P|| decreases monotonically (once below one) for j < 30, or
    until it reaches the rounding floor of the squarings.  On failure the
    projection is still returned with the flag false.
    """
    m, radius = t_map.matrix, 1e-9
    eig = np.linalg.eig(m)
    p, cond = _eigenprojection_near(m, 1.0 + 0.0j, radius, eig)
    others = eig[0][np.abs(eig[0] - 1.0) > radius]
    sub = float(np.abs(others).max()) if others.size else 0.0
    spectral_ok = sub < 1.0 - 1e-7

    # each squaring rounds at about eps * side * ||T|| and every later
    # squaring doubles what came before: below the floor of squaring j
    # the error is rounding, not convergence
    drift = np.finfo(float).eps * m.shape[0] * max(1.0, float(np.linalg.norm(m, 2)))
    floors = [max(1e-10, 2.0 ** j * drift) for j in range(30)]
    errors = []
    power = m.copy()
    for floor in floors:
        errors.append(float(np.linalg.norm(power - p, 2)))
        if errors[-1] < floor:
            break
        power = power @ power
    first = next((j for j, e in enumerate(errors) if e < 1.0), len(errors))
    monotone = all(cur <= prev + 1e-12 or cur <= floor for prev, cur, floor
                   in zip(errors[first:], errors[first + 1:], floors[first + 1:]))
    return LimitProjection(Superoperator(p), spectral_ok and monotone,
                           sub, cond, tuple(errors))


@dataclass(frozen=True)
class AsymptoticReport:
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
    NoAsymptoticStateError when T has no unique asymptotic state.
    """
    t_map = Superoperator(_reduced_map(model, lam, tau))
    lp = limit_projection(t_map)
    rho0 = _unique_state(lp.projection.matrix, lp.converged, model.n_s,
                         f"T at (lambda, tau) = ({lam:g}, {tau:g})")

    samples = []
    for t in t_samples:
        if not 0 <= t < tau:
            raise ValueError(f"sample time {t} outside [0, tau)")
        partial = Superoperator(_reduced_map(model, lam, t))
        rho_t = _apply_dual(partial, rho0)
        # one extra full period must reproduce the same sample
        rho_t_shifted = _apply_dual(partial, _apply_dual(t_map, rho0))
        drift = float(np.abs(rho_t - rho_t_shifted).max())
        if drift > 1e-9:
            raise NoAsymptoticStateError(f"period drift {drift:.3e} at t={t}")
        samples.append((float(t), _computational(model, rho_t)))
    return AsymptoticReport(_computational(model, rho0), tuple(samples))


def effective_asymptotic_state(gen: EffectiveGenerator | Superoperator) -> np.ndarray:
    """The density that exp(s*gen) relaxes to as s -> infinity.

    Read off the eigenprojection of 0 (within 1e-9); raises
    NoAsymptoticStateError when the generator has no unique asymptotic state.
    """
    tol = 1e-9
    g = gen.generator if isinstance(gen, EffectiveGenerator) else gen
    eig = np.linalg.eig(g.matrix)
    # a multiple zero raises JordanDefectError when it is defective
    p, _ = _eigenprojection_near(g.matrix, 0.0 + 0.0j, tol, eig)
    isolated = bool(np.all(eig[0][np.abs(eig[0]) > tol].real < -tol))
    return _unique_state(p, isolated, g.dim, "the effective generator")


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of the difference of two Hermitian matrices."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class KatoReport:
    """Perturbation structure of T(eps) = alpha_S^tau + eps*T'(0) + O(eps^2) at eps=0+.

    Checks, with P(0) the eigenprojection of 1 of alpha_S^tau, Q the
    eigenprojection of 0 of P(0) T'(0) P(0), and P(0+) the Richardson
    extrapolation of the eigenprojections P(eps) of 1 of T(eps):
    [Q, P(0)] = 0, P(0)Q idempotent, P(0+) a sub-projection of P(0)Q,
    and ||P(eps) - P(0+)|| = O(eps).
    """
    commutator_norm: float
    idempotency_defect: float
    subprojection_defect: float
    trace_p_plus: float
    distance_rows: tuple          # (eps, ||P(eps) - P(0+)||)
    distance_ratios: tuple
    extrapolation_stable: bool


def kato_structure_check(model: RISModel, tau: float, eps_list) -> KatoReport:
    """Verify the analytic-perturbation structure of the reduced map at small coupling."""
    eps_list = sorted(float(e) for e in eps_list)
    if len(set(eps_list)) < max(2, len(eps_list)) or eps_list[0] <= 0:
        raise ValueError(f"eps_list needs at least two distinct positive values, got {eps_list}")
    eps_desc = eps_list[::-1]

    # P(0), in the Bohr frame the mask of the angles tau (w_k - w_l) = 0 mod 2 pi
    fixed = np.abs(_free_evolution(model, tau) - 1.0) <= 1e-8
    # T(eps) = alpha_S^tau + eps R + O(eps^2) at lambda = sqrt(eps): T'(0) is R
    g = np.where(fixed[:, None] & fixed, _second_order_reduction(model, tau), 0.0)
    eig = np.linalg.eig(g)
    scale = max(float(np.abs(eig[0]).max()), 1e-30)
    q, _ = _eigenprojection_near(g, 0.0 + 0.0j, 1e-9 * scale, eig)

    p_eps = {}
    for eps in eps_desc:
        t_map = _reduced_map(model, math.sqrt(eps), tau)
        p_eps[eps], _ = _eigenprojection_near(t_map, 1.0 + 0.0j, 1e-9)

    # two-point Richardson on the two smallest eps
    e1, e2 = eps_list[1], eps_list[0]
    p_plus = p_eps[e2] + (p_eps[e2] - p_eps[e1]) * (e2 / (e1 - e2))

    p0q = np.where(fixed[:, None], q, 0.0)
    comm = superop_norm(p0q - np.where(fixed, q, 0.0))
    idem = superop_norm(p0q @ p0q - p0q)
    sub = max(superop_norm(p0q @ p_plus - p_plus), superop_norm(p_plus @ p0q - p_plus))

    rows = tuple((eps, superop_norm(p_eps[eps] - p_plus)) for eps in eps_desc)
    ratios = tuple(d1 / d2 if d2 > 0 else math.inf
                   for (_, d1), (_, d2) in zip(rows, rows[1:]))
    diffs = tuple(superop_norm(p_eps[a] - p_eps[b]) for a, b in zip(eps_desc, eps_desc[1:]))
    stable = all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))

    return KatoReport(
        commutator_norm=comm, idempotency_defect=idem, subprojection_defect=sub,
        trace_p_plus=float(np.trace(p_plus).real),
        distance_rows=rows, distance_ratios=ratios,
        extrapolation_stable=stable)
