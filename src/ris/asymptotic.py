"""Asymptotic states, and the limit projection as their oracle.

One verdict decides whether a dynamics has a unique asymptotic state, the
exact map T(lambda, tau) and an effective generator alike, and it reads
the spectrum from one ``numpy.linalg.eigvals`` on the scale of the
perturbation.  In either regime one interaction moves T by (lambda tau)^2 R^
(:mod:`ris.vanhove`), so the eigenvalues of T near the unit circle sit
O(eps) inside it, eps = (lambda tau ||[v,.]||)^2 (``commutator_norm``: v
enters only through [v,.]).  With r = 1e-3 eps, capped at the absolute
bounds that serve a perturbation of order one: exactly one eigenvalue lies
within min(r, 1e-9) of 1, and every other one has modulus
< 1 - min(r, 1e-7).  So the rule is an absolute one where eps >= 1e-4 and
relaxes it only below; at eps = 0 (lambda = 0 or v = 0) T is the free
evolution, judged at the caps.  An eigenvalue of T near 1 rounds by about
n_S^2 eps_mach (eps_mach = ``np.finfo(float).eps`` = 2^-52), so a map with
0 < r < 2^8 n_S^2 eps_mach is refused as PrecisionExhaustedError: past
that floor the rounding error of the state, about n_S^2 eps_mach / gap,
could pass 2^-8.  A generator's eigenvalues round with the generator, and
it has no a priori scale of its decay rates, so it is judged at that
floor times ||gen||_1: exactly one eigenvalue within it of 0 and every
other one with real part below minus it.  The state then
comes from one bordered solve: P(x) = Tr(rho x) I has w = vec(rho^T) as
the fixed vector of M^T, and (M^T - point) w = 0 with row 0 replaced by vec(I)^T w = Tr rho = 1 is
nonsingular, because both dynamics are unital and so vec(I), with entry 1
at index 0, is the left null vector of M^T - point.  The solution must
leave a residual below 1e-9 and be PSD; otherwise NoAsymptoticStateError
names the dynamics.  :func:`limit_projection`, the eigenprojection of 1
with the convergence of T^(2^j), is the oracle of this solve and is not
on the state path.  Both states are solved in the Bohr frame of h_S: the
exact maps come in it (:mod:`ris.dynamics`), and an effective generator
is read as its ``bohr`` matrix (:class:`ris.vanhove.EffectiveGenerator`).
The frame is unitary, so verdicts, spectra and norms are as they are in
the computational basis: only the densities returned are converted, to
q rho q^†.  The CLI
``asymptotic`` experiment compares the exact periodic states with the
effective limit of either regime (:func:`trace_distance`).  The ``kato``
experiment (:func:`kato_structure_check`) reads P(0), the eigenprojection
of 1 of alpha_S^tau, as the mask of the fixed class F of the Bohr indices,
so P(0) T'(0) P(0) is the F x F block of R and is zero elsewhere: its Q is
Q_F + 1 off F, from one f-sided eig, and [Q, P(0)] = 0 by construction.
That block lies inside one class, so it is tau^2 times the in-sector
entries of R^ = R / tau^2 on the classes of alpha_S^tau
(:func:`ris.vanhove._alpha_classes`), in closed form with no expm
(:func:`ris.vanhove._sector_reduction`).
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
    """The perturbation of T is too small for its rounding to resolve the verdict."""


def _eigenprojection_near(m: np.ndarray, point: complex, radius: float, eig=None):
    """Spectral projection of the eigenvalue cluster within ``radius`` of ``point``.

    Right eigenvectors paired with the rows of their inverse; ``eig`` is the
    ``numpy.linalg.eig(m)`` pair when the caller holds it already.  An empty
    cluster gives the zero projection.  Raises JordanDefectError when the
    cluster eigenvalue is not semisimple: the projection fails idempotency,
    or the restriction of m to the range of the projection carries a
    nilpotent part.
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
    return p


def _asymptotic_state(m: np.ndarray, point: float, scale: float, dynamics: str) -> np.ndarray:
    """The unique asymptotic state of the map (``point`` 1) or generator (``point`` 0) ``m``.

    The verdict reads ``numpy.linalg.eigvals`` only, on the perturbation's ``scale`` (the module
    docstring): eps for a map, ||gen||_1 for a generator; the state, Hermitian with trace one,
    is the solution of the bordered system.  With the floor f = 2^8 n_S^2 eps_mach, raises
    PrecisionExhaustedError for a map with 0 < 1e-3 eps < f, and NoAsymptoticStateError
    naming ``dynamics`` unless exactly one eigenvalue lies within the cluster radius of
    ``point`` (min(1e-3 eps, 1e-9) for a map, f ||gen||_1 for a generator), the rest of the
    spectrum is isolated (modulus < 1 - min(1e-3 eps, 1e-7), real part < -f ||gen||_1), the
    residual ||M^T w - point w|| is at most 1e-9 and the state is PSD.
    """
    eigs = np.linalg.eigvals(m)
    floor = 2.0 ** 8 * m.shape[0] * np.finfo(float).eps
    if point:
        # T's eigenvalues near 1 round absolutely; the absolute caps serve eps of order one
        radius = 1e-3 * scale if scale else math.inf
        if radius < floor:
            raise PrecisionExhaustedError(
                f"{dynamics}: the verdict radius 1e-3 * {scale:.3e} is below the rounding floor "
                f"{floor:.3e} of its eigenvalues; precision exhausted")
        near_radius, gap = min(radius, 1e-9), min(radius, 1e-7)
    else:
        # a generator's eigenvalues round with the generator
        near_radius = gap = floor * scale
    near = np.abs(eigs - point) <= near_radius
    others = eigs[~near]
    # a map's other eigenvalues decay inside the unit disc, a generator's in the left half-plane
    isolated = bool(np.all(np.abs(others) < 1.0 - gap if point else others.real < -gap))
    rank = int(near.sum())
    if not isolated or rank != 1:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (eigenprojection of trace "
            f"{rank}, rest of the spectrum {'' if isolated else 'not '}isolated)")
    n = math.isqrt(m.shape[0])
    a = m.T - point * np.eye(n * n)
    a[0] = np.eye(n).reshape(-1)
    e0 = np.zeros(n * n)
    e0[0] = 1.0
    w = np.linalg.solve(a, e0)
    residual = float(np.linalg.norm(m.T @ w - point * w))
    if residual > 1e-9:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (its fixed point solves "
            f"to a residual of {residual:.3e})")
    rho = w.reshape(n, n).T
    rho = 0.5 * (rho + rho.conj().T)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoAsymptoticStateError(
            f"{dynamics} has no unique asymptotic state (its fixed point is no PSD "
            f"state, min eigenvalue {low:.3e})")
    return rho


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

    The oracle of the bordered solve of :func:`asymptotic_periodic_state`:
    no production path calls it.  It stays in this module because the
    benchmark tracer binds ``asymptotic.limit_projection`` by name.  The
    flag is true iff every other eigenvalue has modulus < 1 - 1e-7 and
    ||T^(2^j) - P|| decreases monotonically (once below one) for j < 30, or
    until it reaches the rounding floor of the squarings.  On failure the
    projection is still returned with the flag false.
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
    H_0 + lambda v.  Raises NoAsymptoticStateError when T has no unique
    asymptotic state, and PrecisionExhaustedError when (lambda tau ||[v,.]||)^2 is too small
    for the rounding of T to tell (:func:`_asymptotic_state`).
    """
    for t in t_samples:
        if not 0 <= t < tau:
            raise ValueError(f"sample time {t} outside [0, tau)")
    t_map, *partials = _reduced_map(model, lam, [tau, *t_samples])
    scale = (lam * tau * model.commutator_norm) ** 2
    rho0 = _asymptotic_state(t_map, 1.0, scale, f"T at (lambda, tau) = ({lam:g}, {tau:g})")
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
    """The density that exp(s*gen) relaxes to as s -> infinity.

    The fixed point of the trace dual of ``eff.bohr`` at eigenvalue 0, as
    q rho q^† with q = ``eff.frame``, judged on the scale ||bohr||_1; raises
    NoAsymptoticStateError when the generator has no unique asymptotic state.
    """
    q, scale = eff.frame, float(np.abs(eff.bohr).sum(axis=0).max())
    return q @ _asymptotic_state(eff.bohr, 0.0, scale, "the effective generator") @ q.conj().T


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
    and ||P(eps) - P(0+)|| = O(eps).  In the Bohr frame P(0) is the mask of
    the fixed class F, and P(0) T'(0) P(0) is zero off F x F, so Q = Q_F + 1
    off F, with Q_F the projection of the F x F block: the commutator is 0 by
    construction, and ``commutator_norm`` reads 0.0.  ``distance_ratios`` are
    those of consecutive ``distance_rows``, largest eps first.  The two-point extrapolation from the two smallest,
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


def kato_structure_check(model: RISModel, tau: float, eps_list) -> KatoReport:
    """Verify the analytic-perturbation structure of the reduced map at small coupling.

    Raises ValueError when tau max|E| exceeds 2^53, E the levels of H_0, before any work
    (:func:`ris.dynamics.check_phases`)."""
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
    eig = np.linalg.eig(r)
    scale = max(float(np.abs(eig[0]).max()), 1e-30)
    q_f = _eigenprojection_near(r, 0.0 + 0.0j, 1e-9 * scale, eig)
    p0q = np.zeros((labels.size,) * 2, dtype=complex)
    p0q[block] = q_f

    # P(eps), largest eps first; P(0+) by two-point Richardson on the two smallest
    p = np.stack([_eigenprojection_near(_reduced_map(model, math.sqrt(eps), tau), 1.0 + 0.0j, 1e-9)
                  for eps in eps_desc])
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
