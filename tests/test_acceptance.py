"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""
import itertools
import time

import numpy as np

from ris.asymptotic import (
    asymptotic_periodic_state,
    effective_asymptotic_state,
    kato_structure_check,
    trace_distance,
)
from ris.dynamics import (
    check_H1,
    dyson_term,
    dyson_term_quadrature,
    dyson_truncation_bound,
    interaction_dynamics,
    reduced_map_T,
)
from ris.linops import (
    Superoperator,
    matrix_exp,
    spectral_decompose,
    superop_norm,
)
from ris.spin import SpinParams, build_spin_model, closed_form_deltas
from ris.vanhove import (
    converge_lambda,
    converge_lambda_interpolated,
    converge_tau,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    second_order_term,
)

from conftest import cli_trace_distances, random_two_level_model, spin_base
from oracles import (
    cesaro_average,
    choi_matrix,
    commutator_superop,
    full_generator,
    log_generator_A0,
    spectral_average,
)


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


SPIN_GRID = list(itertools.product((0.5, 1.0), (1.0, 2.0), (0.0, 1.0), (0.5, 1.0),
                                   ((1, 1), (1, 0), (1j, 2))))


def test_criterion_01_spin_oracle():
    worst = 0.0
    for s, e, beta, tau, (b, c) in SPIN_GRID:
        params = SpinParams(S=s, E=e, beta=beta, b=b, c=c, tau=tau)
        d0, d1 = closed_form_deltas(params)
        gen = effective_generator_weak_coupling(build_spin_model(params),
                                                tau).generator.matrix
        worst = max(worst, abs(gen[0, 0].real - d0), abs(gen[3, 3].real - d1))
    report(1, "spin oracle: pipeline generator diagonals match closed-form "
              "deltas over the 48-point grid to 1e-9",
           worst <= 1e-9, f"worst |diff| = {worst:.3e}")


def test_criterion_02_weak_coupling_convergence():
    model = build_spin_model(spin_base())
    start = time.perf_counter()
    rep = converge_lambda(model, 1.0, [0.2, 0.1, 0.05], 5.0, 50)
    elapsed = time.perf_counter() - start
    sups = [e for _, e in rep.sup_errors]
    ok = sups[0] > sups[1] > sups[2] and sups[2] <= 0.25 * sups[0] and elapsed <= 60.0
    report(2, "weak-coupling convergence: sup-errors strictly decreasing, "
              "sup(0.05) <= 0.25*sup(0.2), within 60 s",
           ok, f"sups = {[f'{x:.3e}' for x in sups]}, {elapsed:.1f} s")


def test_criterion_03_interpolated_convergence():
    model = build_spin_model(spin_base())
    lattice = converge_lambda(model, 1.0, [0.2, 0.1, 0.05], 5.0, 50)
    interp = converge_lambda_interpolated(model, 1.0, [0.2, 0.1, 0.05], 5.0, 50)
    ratios = [interp.sup_error(lam) / lattice.sup_error(lam)
              for lam in (0.2, 0.1, 0.05)]
    report(3, "interpolated convergence: off-lattice sup-error within 2x of "
              "the lattice sup-error at each lambda",
           all(r <= 2.0 for r in ratios),
           f"ratios = {[f'{r:.2f}' for r in ratios]}")


def test_criterion_04_fast_repetition_convergence():
    model = build_spin_model(spin_base())
    rep = converge_tau(model, [(1.0, 0.2), (1.0, 0.1), (1.0, 0.05)], 5.0, 50)
    sups = [e for _, e in rep.sup_errors]
    ratios = [r for _, r in rep.decay_ratios]
    ok = sups[0] > sups[1] > sups[2] and all(r >= 1.5 for r in ratios)
    report(4, "fast-repetition convergence: sup-errors decreasing with "
              "error(tau)/error(tau/2) >= 1.5",
           ok, f"ratios = {[f'{r:.2f}' for r in ratios]}")


def test_criterion_05_evenness():
    model = build_spin_model(spin_base())
    assert check_H1(model)
    worst = 0.0
    for lam in (0.1, 0.5, 1.0):
        for tau in (0.1, 1.0):
            worst = max(worst, superop_norm(reduced_map_T(model, lam, tau)
                                            - reduced_map_T(model, -lam, tau)))
    broken = build_spin_model(spin_base(a=1.0))
    gap = superop_norm(reduced_map_T(broken, 0.5, 1.0)
                       - reduced_map_T(broken, -0.5, 1.0))
    report(5, "evenness: ||T(lam) - T(-lam)|| <= 1e-12 under H1, and the "
              "a=1 model breaks it above 1e-6",
           worst <= 1e-12 and gap > 1e-6,
           f"H1 worst = {worst:.3e}, broken gap = {gap:.3e}")


def test_criterion_06_cp_unitality():
    model = build_spin_model(spin_base())
    min_eig, unital_defect = 0.0, 0.0
    for lam in (0.05, 0.1, 0.2, 0.5, 1.0):
        for tau in (0.1, 0.5, 1.0):
            t_map = reduced_map_T(model, lam, tau)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(choi_matrix(t_map)).min()))
            unital_defect = max(unital_defect,
                                float(np.abs(t_map.apply(np.eye(2)) - np.eye(2)).max()))
    report(6, "CP/unitality: Choi matrices PSD to -1e-10 and T(I) = I to "
              "1e-12 across the grids",
           min_eig >= -1e-10 and unital_defect <= 1e-12,
           f"min Choi eig = {min_eig:.3e}, unitality defect = {unital_defect:.3e}")


def test_criterion_07_dyson_bound():
    model = build_spin_model(spin_base())
    a1 = superop_norm(commutator_superop(model.v))
    bound_ok, details = True, []
    t = 1.0
    for lam in (0.5, 1.0):          # lambda * t in {0.5, 1}
        phi = interaction_dynamics(model, lam, t)
        free = matrix_exp(t * full_generator(model, 0.0))
        for order in (2, 3, 4):
            total = Superoperator(free.matrix.copy())
            for k in range(1, order):
                total = total + (1j * lam) ** k * (dyson_term(model, k, t) @ free)
            err = superop_norm(phi - total)
            bound = dyson_truncation_bound(order, lam, t, a1)
            bound_ok &= err <= bound
            details.append(f"n={order},lt={lam * t}: {err:.2e}<={bound:.2e}")
    quad_gap = max(superop_norm(dyson_term(model, k, 2.0)
                                - dyson_term_quadrature(model, k, 2.0))
                   for k in (1, 2, 3))
    report(7, "Dyson bound: truncation errors within the series tail bound; "
              "block-exponential vs quadrature to 1e-6",
           bound_ok and quad_gap <= 1e-6,
           f"quad gap = {quad_gap:.2e}; " + "; ".join(details))


def test_criterion_08_asymptotic_state_order(tmp_path):
    lambdas = [0.2, 0.1, 0.05]
    dists = cli_trace_distances(tmp_path, spin_base(), lambdas=lambdas)
    ratios = [dists[l1, 1.0] / dists[l2, 1.0] for l1, l2 in zip(lambdas, lambdas[1:])]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report(8, "asymptotic-state order: trace-distance ratios across "
              "lambda-halvings in [3, 5]",
           ok, f"ratios = {[f'{r:.2f}' for r in ratios]}")


def _fast_repetition_distances(tmp_path, n_odd: int, eps_list) -> list:
    """CLI fast-repetition distances at (lambda, tau) = (eps^((1-n)/2), eps^n)."""
    pairs = [(eps ** ((1 - n_odd) / 2.0), eps ** n_odd) for eps in eps_list]
    dists = cli_trace_distances(tmp_path, spin_base(), regime="fast-repetition",
                                lambdas=[lam for lam, _ in pairs], taus=[t for _, t in pairs])
    return [dists[pair] for pair in pairs]


def test_criterion_09_parametrized_regime(tmp_path):
    model = build_spin_model(spin_base())
    dists = _fast_repetition_distances(tmp_path, 1, [0.2, 0.1, 0.05])
    ratios = [dists[0] / dists[1], dists[1] / dists[2]]
    decreasing = dists[0] > dists[1] > dists[2]
    # the n=1 and n=3 parametrization curves cross at eps = 1
    cross_gap = abs(_fast_repetition_distances(tmp_path, 1, [1.0])[0]
                    - _fast_repetition_distances(tmp_path, 3, [1.0])[0])
    # and every n=3 point agrees with a direct computation at its (lambda, tau)
    eps = 0.6
    rho_eff = effective_asymptotic_state(effective_generator_fast_repetition(model))
    direct = trace_distance(
        asymptotic_periodic_state(model, eps ** -1.0, eps ** 3).asymptotic_density,
        rho_eff)
    direct_gap = abs(_fast_repetition_distances(tmp_path, 3, [eps])[0] - direct)
    ok = decreasing and all(r >= 3.0 for r in ratios) and cross_gap <= 1e-9 \
        and direct_gap <= 1e-9
    report(9, "parametrized regime: n=1 distances decreasing with ratios "
              ">= 3; n=3 agrees with n=1 at the matching (lambda, tau) to 1e-9",
           ok, f"ratios = {[f'{r:.2f}' for r in ratios]}, "
               f"cross = {cross_gap:.1e}, direct = {direct_gap:.1e}")


def test_criterion_10_kato_structure():
    model = build_spin_model(spin_base())
    rep = kato_structure_check(model, 1.0, [0.04, 0.02, 0.01, 0.005])
    distances = [d for _, d in rep.distance_rows]
    rate_ok = (all(a > b for a, b in zip(distances, distances[1:]))
               and all(1.5 <= r <= 3.0 for r in rep.distance_ratios))
    ok = (rep.commutator_norm <= 1e-8 and rep.idempotency_defect <= 1e-8
          and rep.subprojection_defect <= 1e-6 and rep.extrapolation_stable
          and rate_ok)
    report(10, "Kato structure: [Q, P(0)] = 0 to 1e-8, P(0)Q idempotent to "
               "1e-8, P(0+) sub-projection to 1e-6, O(eps) ratio test",
           ok, f"comm = {rep.commutator_norm:.1e}, idem = "
               f"{rep.idempotency_defect:.1e}, sub = {rep.subprojection_defect:.1e}, "
               f"ratios = {[f'{r:.2f}' for r in rep.distance_ratios]}")


def test_criterion_11_spectral_averaging():
    rng = np.random.default_rng(11)
    worst_cesaro, worst_idem, worst_comm = 0.0, 0.0, 0.0
    for _ in range(100):
        model = random_two_level_model(rng)
        tau = float(rng.uniform(0.6, 1.0))
        a0 = log_generator_A0(model, tau)
        basis = spectral_decompose(a0)
        b = second_order_term(model, tau)
        nat = -effective_generator_weak_coupling(model, tau).generator
        worst_cesaro = max(worst_cesaro, superop_norm(cesaro_average(b, a0) - nat))
        worst_idem = max(worst_idem, superop_norm(spectral_average(nat, basis) - nat))
        worst_comm = max(worst_comm, superop_norm(a0 @ nat - nat @ a0))
    ok = worst_cesaro <= 1e-4 and worst_idem <= 1e-9 and worst_comm <= 1e-9
    report(11, "spectral averaging: Cesaro-mean oracle to 1e-4, "
               "natural-idempotence and [A0, B-natural] commutation to 1e-9 "
               "on 100 random models",
           ok, f"cesaro = {worst_cesaro:.2e}, idem = {worst_idem:.2e}, "
               f"comm = {worst_comm:.2e}")
