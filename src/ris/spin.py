"""Two-level system coupled to a chain of two-level elements: closed forms.

The model: h_S = diag(0, S), h_E = diag(0, E), interaction

    v = sigma_plus (x) B + sigma_minus (x) B†,   B = [[a, b], [c, d]],

with sigma_plus = |1><0|, so that b couples the exchange transition
|1,0> <-> |0,1> (Bohr frequency E - S) and c the two-excitation
transition |1,1> <-> |0,0> (frequency E + S).  The chain is thermal at
inverse temperature beta.  The diagonal entries of the weak-coupling
effective generator then have the closed forms

    delta_0 = -2/(1+w) * { w |b|^2 K(E-S) + |c|^2 K(E+S) },
    delta_1 = -2/(1+w) * { |b|^2 K(E-S) + w |c|^2 K(E+S) },

with w = e^{-beta E} and K(x) = (1 - cos(tau x))/x^2, extended by its
limit tau^2/2 at the resonance x = 0.  Both are <= 0: their sum is 0 only
where b = c = 0 or both kernels are.  The argument tau x / 2 of a kernel
rounds by at most 2 eps_mach of itself, so K rounds by (2 eps_mach)^2 K(0).
When S != 0 and |delta_0 + delta_1| lies above (2 eps_mach)^2 times its
peak (|b|^2 + |c|^2) tau^2, both kernels resonant, the dynamics relaxes to
diag(delta_1, delta_0)/(delta_0 + delta_1).  The fast-repetition generator
has the small-tau limits delta_i/tau^2 (peak |b|^2 + |c|^2) on its
diagonal, and relaxes to the same form of state built from them.

These formulas are evaluated directly, independently of the simulation
pipeline, and serve as its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import NoAsymptoticStateError, RISModel
from .linops import kron


@dataclass(frozen=True)
class SpinParams:
    S: float
    E: float
    beta: float
    b: complex
    c: complex
    tau: float
    a: complex = 0.0
    d: complex = 0.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def coupling_strength(self) -> float:
        """|b|^2 + |c|^2, the quantity controlling relaxation."""
        return abs(self.b) ** 2 + abs(self.c) ** 2


def _u(k: int, l: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[k, l] = 1.0
    return m


def build_spin_model(p: SpinParams) -> RISModel:
    """Assemble the spin-spin model; p0 = |0><0| is attached when a = d = 0."""
    h_s = np.diag([0.0, p.S]).astype(complex)
    h_e = np.diag([0.0, p.E]).astype(complex)
    bmat = np.array([[p.a, p.b], [p.c, p.d]], dtype=complex)
    v = kron(_u(1, 0), bmat) + kron(_u(0, 1), bmat.conj().T)
    p0 = _u(0, 0) if p.a == 0 and p.d == 0 else None
    return RISModel(h_s=h_s, h_e=h_e, v=v, beta=p.beta, p0=p0)


def _kernel(x: float, tau: float) -> float:
    # (1 - cos(tau x)) / x^2, stably via 2 sin^2; removable singularity at 0
    if x == 0.0:
        return tau * tau / 2.0
    return 2.0 * np.sin(tau * x / 2.0) ** 2 / (x * x)


def closed_form_deltas(p: SpinParams) -> tuple[float, float]:
    """(delta_0, delta_1): diagonal entries of the weak-coupling generator."""
    w = np.exp(-p.beta * p.E)
    k_minus = _kernel(p.E - p.S, p.tau)
    k_plus = _kernel(p.E + p.S, p.tau)
    pref = -2.0 / (1.0 + w)
    delta0 = pref * (w * abs(p.b) ** 2 * k_minus + abs(p.c) ** 2 * k_plus)
    delta1 = pref * (abs(p.b) ** 2 * k_minus + w * abs(p.c) ** 2 * k_plus)
    return float(delta0), float(delta1)


def fast_repetition_deltas(p: SpinParams) -> tuple[float, float]:
    """Small-tau limits delta_i(tau)/tau^2, the fast-repetition generator diagonals."""
    w = np.exp(-p.beta * p.E)
    pref = -1.0 / (1.0 + w)
    return (float(pref * (w * abs(p.b) ** 2 + abs(p.c) ** 2)),
            float(pref * (abs(p.b) ** 2 + w * abs(p.c) ** 2)))


def spin_asymptotic_state(p: SpinParams, deltas=closed_form_deltas) -> np.ndarray:
    """Asymptotic density matrix diag(delta_1, delta_0)/(delta_0 + delta_1).

    ``deltas`` gives (delta_0, delta_1): :func:`closed_form_deltas` for the
    weak-coupling state, :func:`fast_repetition_deltas` for the
    fast-repetition one.
    """
    if p.S == 0:
        raise NoAsymptoticStateError("S = 0: free system dynamics never mixes "
                                     "the populations")
    d0, d1 = deltas(p)
    # the rounding (2 eps_mach)^2 of the kernels, on the peak rate: both resonant at S = E = 0
    floor = (2.0 * np.finfo(float).eps) ** 2 * abs(sum(deltas(replace(p, S=0.0, E=0.0))))
    if abs(d0 + d1) <= floor:
        raise NoAsymptoticStateError(
            f"|delta_0 + delta_1| = {abs(d0 + d1):.1e} <= {floor:.1e}: both relaxation rates "
            "vanish (b = c = 0, or a resonant tau kills both kernels)")
    return np.diag([d1, d0]).astype(complex) / (d0 + d1)
