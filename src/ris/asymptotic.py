"""Asymptotic states, and the limit projection as their oracle.

One verdict decides whether a dynamics has a unique asymptotic state, the
exact map T(lambda, tau) and an effective generator alike, and it reads
the spectrum from one ``numpy.linalg.eigvals``: exactly one eigenvalue lies
within 1e-9 of 1 (of 0 for a generator), and every other one has modulus
< 1 - 1e-7 (real part < -1e-9).  The state then comes from one bordered
solve: P(x) = Tr(rho x) I has w = vec(rho^T) as the fixed vector of M^T,
and (M^T - point) w = 0 with row 0 replaced by vec(I)^T w = Tr rho = 1 is
nonsingular, because both dynamics are unital and so vec(I), with entry 1
at index 0, is the left null vector of M^T - point.  The solution must
leave a residual below 1e-9 and be PSD; otherwise NoAsymptoticStateError
names the dynamics.  :func:`limit_projection`, the eigenprojection of 1
with the convergence of T^(2^j), is the oracle of this solve and is not
on the state path.  The exact maps are in the Bohr frame of h_S
(:mod:`ris.dynamics`), which leaves verdicts, spectra and norms as they
are: only the densities returned are converted, to q rho q^†.  The CLI
``asymptotic`` experiment compares the exact periodic states with the
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
    _reduced_map,
)
from .linops import Superoperator, superop_norm
from .vanhove import EffectiveGenerator, _alpha_classes, _second_order_reduction


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


def _asymptotic_state(m: np.ndarray, point: float, dynamics: str) -> np.ndarray:
    """The unique asymptotic state of the map (``point`` 1) or generator (``point`` 0) ``m``.

    The verdict reads ``numpy.linalg.eigvals`` only; the state, Hermitian
    with trace one, is the solution of the bordered system of the module
    docstring.  Raises NoAsymptoticStateError naming ``dynamics`` unless
    exactly one eigenvalue lies within 1e-9 of ``point``, the rest of the
    spectrum is isolated, the residual ||M^T w - point w|| is at most 1e-9
    and the state is PSD.
    """
    eigs = np.linalg.eigvals(m)
    near = np.abs(eigs - point) <= 1e-9
    others = eigs[~near]
    # a map's other eigenvalues decay inside the unit disc, a generator's in the left half-plane
    isolated = bool(np.all(np.abs(others) < 1.0 - 1e-7 if point else others.real < -1e-9))
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
    pairing_condition: float
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


def asymptotic_periodic_state(model: RISModel, lam: float, tau: float,
                              t_samples=()) -> AsymptoticReport:
    """The periodic family of states the repeated interactions relax to.

    The density at the period start is the fixed point of the trace dual
    of T(lambda, tau); the sample at t in [0, tau) is it propagated through
    the partial-interval map.  T and the partial maps share one eigh of
    H_0 + lambda v.  Raises NoAsymptoticStateError when T has no unique
    asymptotic state.
    """
    for t in t_samples:
        if not 0 <= t < tau:
            raise ValueError(f"sample time {t} outside [0, tau)")
    t_map, *partials = _reduced_map(model, lam, [tau, *t_samples])
    rho0 = _asymptotic_state(t_map, 1.0, f"T at (lambda, tau) = ({lam:g}, {tau:g})")
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


def effective_asymptotic_state(gen: EffectiveGenerator | Superoperator) -> np.ndarray:
    """The density that exp(s*gen) relaxes to as s -> infinity.

    The fixed point of the trace dual of the generator at eigenvalue 0;
    raises NoAsymptoticStateError when the generator has no unique
    asymptotic state.
    """
    g = gen.generator if isinstance(gen, EffectiveGenerator) else gen
    return _asymptotic_state(g.matrix, 0.0, "the effective generator")


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

    # P(0), in the Bohr frame the eigenvalue class of index (0, 0): angles 0 mod 2 pi
    labels, _ = _alpha_classes(model, tau)
    fixed = labels == labels[0]
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
