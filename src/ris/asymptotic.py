"""Asymptotic states, and the limit projection as their oracle.

Every eigenvalue cluster this module reads, of the unique-state verdict and
of Kato's projections alike, is judged by one rule, :func:`_cluster`.  The
eigenvalues of a side-sided matrix on the scale s, 1 for T and ||gen||_1 for
a generator, round by about r = side eps_mach s (eps_mach = 2^-52).  The
cluster at 1 (a map) or 0 (a generator) holds those within 2^8 r of it, and
the rest is isolated when its margin, the gap 1 - |mu| or -Re mu, passes
that radius too.  One eigenvalue with an isolated rest gives a state whose
error is about the estimate r / gap, the bordered solve below having
condition about 1 / gap; above 2^-10 it raises PrecisionExhaustedError.  So
does an unresolved cluster where the perturbation p that opens the gap,
times 2^-10, lies within the radius; an exact p = 0, or a larger one, leaves
no unique state.  A map's p is eps = (lambda tau ||[v,.]||)^2
(:func:`_perturbation_scale`), as one interaction moves T off the free
evolution by (lambda tau)^2 R^ (:mod:`ris.vanhove`); a generator's is its
dissipation -Re Tr gen, 0 for a Hamiltonian flow.  The state comes from one
bordered solve: P(x) = Tr(rho x) I has w = vec(rho^T) as the fixed vector of
M^T, and (M^T - point) w = 0 with row 0 replaced by vec(I)^T w = Tr rho = 1
is nonsingular, as both dynamics are unital and so vec(I), with entry 1 at
index 0, is the left null vector of M^T - point.  A residual above 1e-9 or a
state that is not PSD raises NoAsymptoticStateError naming the dynamics;
:func:`limit_projection` is the oracle of this solve.  Both states are
solved in the Bohr frame of h_S, where the exact maps come and an effective
generator is its ``bohr`` matrix; only the densities returned are converted,
to q rho q^†.  :func:`kato_structure_check` reads P(0), the eigenprojection
of 1 of alpha_S^tau, as the mask of the fixed class F of the Bohr indices:
P(0) T'(0) P(0) is the F x F block of R, zero elsewhere, so Q = Q_F + 1 off
F commutes with P(0).  Q_F, that block's cluster at 0, is judged as a
generator's; the block is tau^2 times in-sector entries of R^, in closed
form (:func:`ris.vanhove._sector_reduction`).  Each P(eps) is the cluster at
1 of T(sqrt(eps), tau) on its eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NoAsymptoticStateError,
    RISModel,
    _computational,
    _reduced_map,
)
from .linops import Superoperator, superop_norm
from .vanhove import EffectiveGenerator, _alpha_classes, _sector_reduction


class JordanDefectError(ValueError):
    """The relevant eigenvalue is not semisimple within tolerance."""


class PrecisionExhaustedError(ValueError):
    """The rounding of a matrix cannot resolve the eigenvalue cluster that is asked for."""


def _eigenprojection_near(m: np.ndarray, point: complex, radius: float, eig=None):
    """Spectral projection of the eigenvalue cluster within ``radius`` of ``point``: right
    eigenvectors paired with the rows of their inverse, ``eig`` the ``numpy.linalg.eig(m)`` pair
    when the caller holds it already; an empty cluster gives zero.  Raises JordanDefectError
    when the cluster is not semisimple: the projection fails idempotency, or the restriction of
    m to its range carries a nilpotent part."""
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
    return p


def _perturbation_scale(model: RISModel, lam: float, tau: float) -> float:
    """eps = (lambda tau ||[v,.]||)^2: one interaction moves T(lambda, tau) by O(eps)."""
    return (lam * tau * model.commutator_norm) ** 2


#: the largest error estimate of a state, and the share of a perturbation, that resolve a cluster
_TOLERANCE = 2.0 ** -10


def _cluster(eigs: np.ndarray, point: float, scale: float, perturbation: float,
             dynamics: str) -> tuple:
    """(mask, radius, estimate) of the cluster of ``eigs`` at ``point`` by the module docstring's
    rule, the estimate inf unless it is one eigenvalue with an isolated rest."""
    rounding = eigs.size * np.finfo(float).eps * scale
    radius = 2.0 ** 8 * rounding
    near = np.abs(eigs - point) <= radius
    others = eigs[~near]  # decaying into the unit disc for a map, the left half-plane else
    gap = float(np.min(1.0 - np.abs(others) if point else -others.real, initial=np.inf))
    estimate = rounding / gap if near.sum() == 1 and gap > radius else math.inf
    if estimate > _TOLERANCE and (estimate < math.inf or 0 < _TOLERANCE * perturbation <= radius):
        raise PrecisionExhaustedError(f"{dynamics}: precision exhausted (error estimate "
                                      f"{estimate:.3e} > 2^-10, perturbation {perturbation:.3e})")
    return near, radius, estimate


def _asymptotic_state(m: np.ndarray, point: float, scale: float, perturbation: float,
                      dynamics: str) -> tuple:
    """(rho, estimate) of the map (``point`` 1) or generator (``point`` 0) ``m``: :func:`_cluster`
    on one ``numpy.linalg.eigvals``, then the bordered solve; raises what the rule raises, or
    NoAsymptoticStateError, naming ``dynamics``."""
    near, _, estimate = _cluster(np.linalg.eigvals(m), point, scale, perturbation, dynamics)
    if estimate == math.inf:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (eigenprojection of trace {near.sum()}, "
            f"{'rest of the spectrum not isolated' if near.sum() == 1 else 'not 1'})")
    n = math.isqrt(m.shape[0])
    a = m.T - point * np.eye(n * n)
    a[0] = np.eye(n).reshape(-1)
    e0 = np.zeros(n * n)
    e0[0] = 1.0
    w = np.linalg.solve(a, e0)
    residual = float(np.linalg.norm(m.T @ w - point * w))
    if residual > 1e-9:
        raise NoAsymptoticStateError(f"{dynamics} has no unique asymptotic state (its fixed "
                                     f"point solves to a residual of {residual:.3e})")
    rho = w.reshape(n, n).T
    rho = 0.5 * (rho + rho.conj().T)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoAsymptoticStateError(f"{dynamics} has no unique asymptotic state (its fixed "
                                     f"point is no PSD state, min eigenvalue {low:.3e})")
    return rho, estimate


@dataclass(frozen=True)
class LimitProjection:
    """What :func:`limit_projection` returns: the oracle of the asymptotic-state solve."""

    projection: Superoperator
    converged: bool
    subdominant_modulus: float
    pairing_condition: float  # cond of the eigenvectors paired with their inverse
    power_errors: tuple


def limit_projection(t_map: Superoperator) -> LimitProjection:
    """Eigenprojection P of the eigenvalues within 1e-9 of 1, with a power-convergence flag.

    The oracle of the bordered solve of :func:`asymptotic_periodic_state`: no production path
    calls it, and as the oracle it keeps its own absolute bounds 1e-9 and 1 - 1e-7, not the rule
    of :func:`_cluster`.  It stays in this module because the benchmark tracer binds
    ``asymptotic.limit_projection`` by name.  The flag is true iff every other eigenvalue has
    modulus < 1 - 1e-7 and ||T^(2^j) - P|| decreases monotonically (once below one) for j < 30,
    or until it reaches the rounding floor of the squarings.  On failure the projection is
    still returned with the flag false.
    """
    m, radius = t_map.matrix, 1e-9
    eig = np.linalg.eig(m)
    p = _eigenprojection_near(m, 1.0 + 0.0j, radius, eig)
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
                           sub, float(np.linalg.cond(eig[1])), tuple(errors))


@dataclass(frozen=True)
class AsymptoticReport:
    asymptotic_density: np.ndarray
    period_samples: tuple


def asymptotic_periodic_state(model: RISModel, lam: float, tau: float,
                              t_samples=()) -> AsymptoticReport:
    """The periodic family of states the repeated interactions relax to.

    The density at the period start is the fixed point of the trace dual
    of T(lambda, tau); the sample at t in [0, tau) is it propagated through
    the partial-interval map.  T and the partial maps share one eigh of
    H_0 + lambda v.  Raises NoAsymptoticStateError when T has no unique asymptotic state,
    and PrecisionExhaustedError where :func:`_cluster` cannot resolve it.
    """
    for t in t_samples:
        if not 0 <= t < tau:
            raise ValueError(f"sample time {t} outside [0, tau)")
    t_map, *partials = _reduced_map(model, lam, [tau, *t_samples])
    rho0, _ = _asymptotic_state(t_map, 1.0, 1.0, _perturbation_scale(model, lam, tau),
                                f"T at (lambda, tau) = ({lam:g}, {tau:g})")
    # the trace dual of a map M sends vec(rho^T) to M^T vec(rho^T), as in the solve
    n, w0 = model.n_s, rho0.T.reshape(-1)
    samples = []
    for t, partial in zip(t_samples, partials):
        # the sample, and the one a full period later, which must be the same
        rho_t, later = ((partial.T @ w).reshape(n, n).T for w in (w0, t_map.T @ w0))
        drift = float(np.abs(rho_t - later).max())
        if drift > 1e-9:
            raise NoAsymptoticStateError(f"period drift {drift:.3e} at t={t}")
        samples.append((float(t), _computational(model, 0.5 * (rho_t + rho_t.conj().T))))
    return AsymptoticReport(_computational(model, rho0), tuple(samples))


def effective_asymptotic_state(eff: EffectiveGenerator) -> np.ndarray:
    """The density that exp(s*gen) relaxes to as s -> infinity: the fixed point of the trace dual
    of ``eff.bohr`` at eigenvalue 0, as q rho q^† with q = ``eff.frame``.  Raises
    NoAsymptoticStateError when the generator has no unique asymptotic state."""
    return _effective_state(eff)[0]


def _effective_state(eff: EffectiveGenerator) -> tuple:
    """(density, estimate): ``eff.bohr`` on the scale ||bohr||_1, its perturbation -Re Tr bohr."""
    rho, estimate = _asymptotic_state(eff.bohr, 0.0, np.linalg.norm(eff.bohr, 1),
                                      -np.trace(eff.bohr).real, "the effective generator")
    return eff.frame @ rho @ eff.frame.conj().T, estimate


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
    and ||P(eps) - P(0+)|| = O(eps).  Q commutes with P(0) by construction (the module
    docstring), so ``commutator_norm`` reads 0.0.  ``distance_ratios`` are those of consecutive
    ``distance_rows``, largest eps first.  The two-point extrapolation from the two smallest,
    eps_1 > eps_2, makes P(eps_1) - P(0+) and P(eps_2) - P(0+) parallel, so the last ratio is
    eps_1/eps_2 by construction, to rounding; only the earlier ratios depend on the model.
    """
    commutator_norm: float
    idempotency_defect: float
    subprojection_defect: float
    trace_p_plus: float
    distance_rows: tuple          # (eps, ||P(eps) - P(0+)||)
    distance_ratios: tuple
    extrapolation_stable: bool


def _projection(m: np.ndarray, point: float, scale: float, perturbation: float, dynamics: str):
    """The eigenprojection of the cluster of :func:`_cluster` on the one ``eig`` of ``m``."""
    eig = np.linalg.eig(m)
    return _eigenprojection_near(m, point, _cluster(eig[0], point, scale, perturbation,
                                                    dynamics)[1], eig)


def kato_structure_check(model: RISModel, tau: float, eps_list) -> KatoReport:
    """Verify the analytic-perturbation structure of the reduced map at small coupling.

    Q_F and each P(eps) are clusters of :func:`_cluster`, so it raises PrecisionExhaustedError
    where the rule cannot resolve one, and ValueError when tau max|E| exceeds 2^53, E the levels
    of H_0, before any work (:func:`ris.dynamics.check_phases`)."""
    eps_list = sorted(float(e) for e in eps_list)
    if len(set(eps_list)) < max(2, len(eps_list)) or eps_list[0] <= 0:
        raise ValueError(f"eps_list needs at least two distinct positive values, got {eps_list}")
    eps_desc = eps_list[::-1]

    # P(0), in the Bohr frame the mask of F, the eigenvalue class of index (0, 0): angles 0
    # mod 2 pi; T(eps) = alpha_S^tau + eps R + O(eps^2) at lambda = sqrt(eps): T'(0) is
    # R = tau^2 R^
    labels, _ = _alpha_classes(model, tau)
    fixed = np.flatnonzero(labels == labels[0])
    block = np.ix_(fixed, fixed)
    r = tau * tau * _sector_reduction(model, tau, labels)[block]
    q_f = _projection(r, 0.0, np.linalg.norm(r, 1), -np.trace(r).real, "P(0) T'(0) P(0)")
    p0q = np.zeros((labels.size,) * 2, dtype=complex)
    p0q[block] = q_f

    # P(eps), largest eps first; P(0+) by two-point Richardson on the two smallest
    p = np.stack([_projection(_reduced_map(model, math.sqrt(eps), tau), 1.0, 1.0,
                              _perturbation_scale(model, math.sqrt(eps), tau),
                              f"T at (eps, tau) = ({eps:g}, {tau:g})") for eps in eps_desc])
    e1, e2 = eps_list[1], eps_list[0]
    p_plus = p[-1] + (p[-1] - p[-2]) * (e2 / (e1 - e2))

    sub = max(superop_norm(p0q @ p_plus - p_plus), superop_norm(p_plus @ p0q - p_plus))
    distances = superop_norm(p - p_plus).tolist()
    ratios = tuple(d1 / d2 if d2 > 0 else math.inf for d1, d2 in zip(distances, distances[1:]))
    diffs = superop_norm(p[:-1] - p[1:]).tolist()
    stable = all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))

    return KatoReport(
        commutator_norm=0.0, idempotency_defect=superop_norm(q_f @ q_f - q_f),
        subprojection_defect=sub, trace_p_plus=float(np.trace(p_plus).real),
        distance_rows=tuple(zip(eps_desc, distances)), distance_ratios=ratios,
        extrapolation_stable=stable)
