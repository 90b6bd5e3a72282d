import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ris.dynamics
from ris.dynamics import (
    MAX_QUADRATURE_NODES,
    MAX_SERIES_EXPONENT,
    MAX_STEPS,
    ChainState,
    RISModel,
    _computational,
    _free_evolution,
    _powers,
    _quadrature_terms,
    _reduced_map,
    _repeated,
    _steps,
    _unital,
    check_H1,
    check_series_exponent,
    dyson_check,
    dyson_term,
    dyson_term_quadrature,
    dyson_truncation_bound,
    gibbs_state,
    interaction_dynamics,
    reduced_map_T,
    restricted_dynamics,
    system_free_evolution,
)
from ris.linops import (
    Superoperator,
    kron,
    matrix_exp,
    superop_norm,
)
from ris.spin import build_spin_model

from conftest import random_hermitian, random_model, random_two_level_model, spin_base, u
from oracles import (
    choi_matrix,
    commutator_superop,
    conditional_expectation,
    derivation_superop,
    dyson_check_superoperator,
    dyson_term_loop_quadrature,
    dyson_term_product_quadrature,
    full_generator,
    identity_superop,
    restrict_to_system,
    superop_power,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import random_inline_model  # noqa: E402  (only reads perfbench/)

# frozen from direct evaluation of e^{-beta E} expressions, beta=1, E=2
GROUND_WEIGHT = 0.8807970779778823
EXCITED_WEIGHT = 0.11920292202211755


class TestGibbs:
    def test_two_level_closed_form(self):
        for beta in (0.0, 0.5, 3.0):
            e = 1.7
            rho = gibbs_state(np.diag([0.0, e]), beta).rho
            w = np.exp(-beta * e)
            assert np.allclose(rho, np.diag([1.0, w]) / (1.0 + w), atol=1e-14)

    def test_infinite_temperature(self):
        assert np.allclose(gibbs_state(np.diag([0.0, 5.0]), 0.0).rho, np.eye(2) / 2)

    def test_frozen_values(self):
        rho = gibbs_state(np.diag([0.0, 2.0]), 1.0).rho
        assert rho[0, 0].real == pytest.approx(GROUND_WEIGHT, abs=1e-15)
        assert rho[1, 1].real == pytest.approx(EXCITED_WEIGHT, abs=1e-15)

    def test_no_overflow_at_large_beta(self):
        rho = gibbs_state(np.diag([0.0, 1000.0]), 5.0).rho
        assert np.isfinite(rho).all()
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_basis_independent(self, rng):
        h = random_hermitian(rng, 3)
        rho = gibbs_state(h, 1.2).rho
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14
        # commutes with h: thermal states are stationary
        assert np.abs(rho @ h - h @ rho).max() <= 1e-12

    def test_chain_state_validation(self):
        with pytest.raises(ValueError, match="trace"):
            ChainState(np.diag([0.6, 0.6]))
        with pytest.raises(ValueError, match="positive"):
            ChainState(np.diag([1.5, -0.5]))


class TestConditionalExpectation:
    def test_product_observables(self, rng):
        model = random_two_level_model(rng)
        es = conditional_expectation(model)
        rho_e = model.chain_state.rho
        for _ in range(5):
            xs, xe = random_hermitian(rng, 2), random_hermitian(rng, 2)
            got = es.apply(kron(xs, xe))
            weight = np.trace(rho_e @ xe)
            assert np.allclose(got, weight * kron(xs, np.eye(2)), atol=1e-12)

    def test_unital_and_idempotent(self, rng):
        model = random_two_level_model(rng)
        es = conditional_expectation(model)
        assert np.allclose(es.apply(np.eye(4)), np.eye(4), atol=1e-13)
        assert superop_norm(es @ es - es) <= 1e-12

    def test_completely_positive(self, rng):
        model = random_two_level_model(rng)
        es = conditional_expectation(model)
        assert np.linalg.eigvalsh(choi_matrix(es)).min() >= -1e-10

    def test_bimodule_property(self, rng):
        model = random_two_level_model(rng)
        es = conditional_expectation(model)
        for _ in range(5):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            x = random_hermitian(rng, 4)
            a_full, b_full = kron(a, np.eye(2)), kron(b, np.eye(2))
            lhs = es.apply(a_full @ x @ b_full)
            rhs = a_full @ es.apply(x) @ b_full
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_spin_example_with_thermal_weight(self):
        model = build_spin_model(spin_base())
        es = conditional_expectation(model)
        got = es.apply(kron(u(0, 1), u(1, 1)))
        assert np.allclose(got, EXCITED_WEIGHT * kron(u(0, 1), np.eye(2)), atol=1e-14)

    def test_thermal_projection_can_cross_the_state(self, rng):
        # E_S(P0 x) = E_S(x P0) with P0 = I (x) p0: the Gibbs state satisfies
        # the detailed-balance identity exactly
        model = build_spin_model(spin_base())
        es = conditional_expectation(model)
        p_full = kron(np.eye(2), model.p0)
        for _ in range(5):
            x = random_hermitian(rng, 4)
            assert np.abs(es.apply(p_full @ x) - es.apply(x @ p_full)).max() <= 1e-12

    def test_intertwines_free_evolution(self, rng):
        # E_S alpha_SE^t = alpha_S^t E_S (the chain state is stationary)
        model = random_two_level_model(rng)
        es = conditional_expectation(model)
        for t in (0.3, 1.7):
            free_full = matrix_exp(t * full_generator(model, 0.0))
            free_s_on_full = matrix_exp(
                t * derivation_superop(kron(model.h_s, np.eye(model.n_e))))
            assert superop_norm(es @ free_full - free_s_on_full @ es) <= 1e-10
            restricted = restrict_to_system(model, free_full)
            assert superop_norm(restricted - system_free_evolution(model, t)) <= 1e-10


class TestFullGenerator:
    def test_equals_total_derivation(self, rng):
        model = random_two_level_model(rng)
        lam = 0.8
        total = derivation_superop(model.free_hamiltonian + lam * model.v)
        assert superop_norm(full_generator(model, lam) - total) <= 1e-12

    def test_kills_identity(self, rng):
        model = random_two_level_model(rng)
        assert np.abs(full_generator(model, 1.0).apply(np.eye(4))).max() <= 1e-13

    def test_anti_hermitian(self):
        model = build_spin_model(spin_base())
        g = full_generator(model, 1.0).matrix
        assert np.abs(g + g.conj().T).max() <= 1e-13


class TestInteractionDynamics:
    def test_time_zero(self, rng):
        model = random_two_level_model(rng)
        assert superop_norm(interaction_dynamics(model, 1.0, 0.0)
                            - identity_superop(4)) <= 1e-14

    def test_uncoupled_factorizes(self, rng):
        model = random_two_level_model(rng)
        t = 0.9
        phi = interaction_dynamics(model, 0.0, t)
        us = matrix_exp(1j * t * model.h_s)
        ue = matrix_exp(1j * t * model.h_e)
        for _ in range(5):
            xs, xe = random_hermitian(rng, 2), random_hermitian(rng, 2)
            expected = kron(us @ xs @ us.conj().T, ue @ xe @ ue.conj().T)
            assert np.abs(phi.apply(kron(xs, xe)) - expected).max() <= 1e-12

    def test_star_automorphism(self, rng):
        model = random_two_level_model(rng)
        phi = interaction_dynamics(model, 0.7, 1.3)
        for _ in range(5):
            x = random_hermitian(rng, 4)
            y = random_hermitian(rng, 4)
            assert np.abs(phi.apply(x @ y) - phi.apply(x) @ phi.apply(y)).max() <= 1e-9
            hx = phi.apply(x)
            assert np.abs(hx - hx.conj().T).max() <= 1e-12


class TestReducedMap:
    def test_uncoupled_is_free_evolution(self, rng):
        model = random_two_level_model(rng)
        tau = 1.1
        assert superop_norm(reduced_map_T(model, 0.0, tau)
                            - system_free_evolution(model, tau)) <= 1e-12

    def test_unital_and_cp(self):
        model = build_spin_model(spin_base())
        for lam, tau in [(0.1, 0.1), (0.5, 1.0), (1.0, 0.3)]:
            t_map = reduced_map_T(model, lam, tau)
            assert np.abs(t_map.apply(np.eye(2)) - np.eye(2)).max() <= 1e-12
            assert np.linalg.eigvalsh(choi_matrix(t_map)).min() >= -1e-10
            assert superop_norm(t_map) <= np.sqrt(2) + 1e-12

    def test_evenness_under_H1(self):
        model = build_spin_model(spin_base())
        assert check_H1(model)
        for lam in (0.1, 0.5, 1.0):
            for tau in (0.1, 1.0):
                gap = superop_norm(reduced_map_T(model, lam, tau)
                                   - reduced_map_T(model, -lam, tau))
                assert gap <= 1e-12

    def test_oddness_shows_without_H1(self):
        model = build_spin_model(spin_base(a=1.0))
        assert model.p0 is None
        gap = superop_norm(reduced_map_T(model, 0.5, 1.0)
                           - reduced_map_T(model, -0.5, 1.0))
        assert gap > 1e-6

    def test_odd_derivatives_vanish_under_H1(self):
        model = build_spin_model(spin_base())
        h = 0.05
        t = {k: reduced_map_T(model, k * h, 1.0).matrix for k in (-2, -1, 1, 2)}
        first = superop_norm(Superoperator((t[1] - t[-1]) / (2 * h)))
        third = superop_norm(Superoperator(
            (t[2] - 2 * t[1] + 2 * t[-1] - t[-2]) / (2 * h ** 3)))
        assert first <= 1e-8
        assert third <= 1e-8


class TestRestrictedDynamics:
    def test_integer_multiples(self):
        model = build_spin_model(spin_base())
        lam, tau = 0.4, 0.7
        t_map = reduced_map_T(model, lam, tau)
        for n in (0, 1, 3):
            got = restricted_dynamics(model, lam, tau, n * tau)
            assert superop_norm(got - superop_power(t_map, n)) <= 1e-12

    def test_time_zero_is_identity(self):
        model = build_spin_model(spin_base())
        assert superop_norm(restricted_dynamics(model, 0.3, 1.0, 0.0)
                            - identity_superop(2)) <= 1e-14

    def test_interval_composition(self):
        model = build_spin_model(spin_base())
        lam, tau, t1 = 0.4, 0.8, 0.3
        t_map = reduced_map_T(model, lam, tau)
        partial = restrict_to_system(model, matrix_exp(t1 * full_generator(model, lam)))
        direct = t_map @ t_map @ partial
        assert superop_norm(restricted_dynamics(model, lam, tau, 2 * tau + t1)
                            - direct) <= 1e-12


class TestStackedPieces:
    """The stacks of the grid evaluator against the one-matrix forms they replace."""

    def test_powers_equal_matrix_power(self, rng):
        t_map = reduced_map_T(random_model(rng, 2, 3), 0.7, 1.3).matrix
        exponents = [0, 1, 2, 3, 7, 8, 15, 16, 255, 256, 1000,
                     *rng.integers(0, 5000, size=8)]
        stacked = _powers(t_map, exponents)
        # the walk multiplies in step powers: matrix_power to rounding, also for
        # exponents unsorted, repeated and zero, as a list or as an int64 array
        unsorted = [7, 0, 3, 7, 1000, 0, 2, 3, 255, 1]
        for exps, stack in [(exponents, stacked), (unsorted, _powers(t_map, unsorted)),
                            (unsorted, _powers(t_map, np.array(unsorted)))]:
            assert stack.shape == (len(exps), *t_map.shape)
            for i, n in enumerate(exps):
                expected = np.linalg.matrix_power(t_map, int(n))
                assert np.linalg.norm(stack[i] - expected) <= 1e-12 * np.linalg.norm(expected), n
        # the walk is over the sorted exponents: shuffled and repeated
        # exponents give the same stack exactly
        order = rng.permutation(len(exponents))
        shuffled = _powers(t_map, [exponents[i] for i in order] * 2)
        for k, i in enumerate([*order, *order]):
            assert np.array_equal(shuffled[k], stacked[i])

    def test_powers_of_a_single_exponent(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for n in (0, 1, 2, 3, 4, 5, 31, 32, 33, 64):
            assert np.array_equal(_powers(m, [n])[0], np.linalg.matrix_power(m, n)), n
            assert np.array_equal(_powers(m, np.array([n]))[0], np.linalg.matrix_power(m, n)), n

    def test_stacked_partial_maps_equal_one_at_a_time(self, rng):
        model = random_model(rng, 2, 3)
        times = np.array([0.0, 1e-3, 0.25, 0.5, 0.999, 1.7])
        stacked = _reduced_map(model, 0.6, times)
        assert stacked.shape == (times.size, 4, 4)
        for t, m in zip(times, stacked):
            assert np.array_equal(m, _reduced_map(model, 0.6, t))
        converted = _unital(model, _computational(model, _reduced_map(model, 0.6, 1.3)))
        assert np.array_equal(converted, reduced_map_T(model, 0.6, 1.3).matrix)

    def test_stacked_free_evolution_equals_one_at_a_time(self, rng):
        model = random_model(rng, 3, 2)
        times = np.array([-2.5, -0.1, 0.0, 0.4, 3.0])
        stacked = _free_evolution(model, times)
        assert stacked.shape == (times.size, 9)
        for t, phases in zip(times, stacked):
            assert np.array_equal(phases, _free_evolution(model, t))
            assert np.array_equal(_computational(model, np.diag(phases)),
                                  system_free_evolution(model, t).matrix)

    def test_stacked_norm_equals_one_at_a_time(self, rng):
        stack = rng.standard_normal((5, 9, 9)) + 1j * rng.standard_normal((5, 9, 9))
        norms = superop_norm(stack)
        assert norms.shape == (5,)
        assert [float(x) for x in norms] == [superop_norm(m) for m in stack]
        assert isinstance(superop_norm(stack[0]), float)

    @pytest.mark.parametrize("tau", [0.1, 0.7, 1.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 1000])
    def test_boundary_times_snap_to_a_power(self, n, tau):
        for offset in (-1e-13, 0.0, 1e-13):
            t = max(n * tau + offset, 0.0)
            assert _steps(t, tau) == (n, 0.0), (t, tau)
        n_got, t1 = _steps(n * tau + 0.5 * tau, tau)
        assert n_got == n and abs(t1 - 0.5 * tau) <= 1e-12 * max(1.0, n * tau)

    def test_snapped_times_are_exact_powers(self):
        model = build_spin_model(spin_base())
        lam, tau = 0.4, 0.7
        t_map = _reduced_map(model, lam, tau)
        times = [3 * tau - 1e-13, 3 * tau, 3 * tau + 1e-13]
        for m in _repeated(model, lam, tau, *_steps(times, tau)):
            assert np.array_equal(m, np.linalg.matrix_power(t_map, 3))
        for t in times:
            assert np.array_equal(restricted_dynamics(model, lam, tau, t).matrix,
                                  _computational(model, np.linalg.matrix_power(t_map, 3)))

    def test_repeated_equals_power_then_partial_map(self, rng):
        # the per-time form: matrix_power of T, then the partial-interval map;
        # equal to rounding, since the powers come from one walk over the n
        model = random_model(rng, 2, 2)
        lam, tau = 0.5, 0.8
        t_map = _reduced_map(model, lam, tau)
        times = [0.0, 0.3, 0.8, 2.5, 2.4, 17.05]
        for t, m in zip(times, _repeated(model, lam, tau, *_steps(times, tau))):
            n, t1 = _steps(t, tau)
            expected = np.linalg.matrix_power(t_map, n)
            if t1 > 0.0:
                expected = expected @ _reduced_map(model, lam, t1)
            assert np.linalg.norm(m - expected) <= 1e-12 * np.linalg.norm(expected), t
            # a lone time is matrix_power exactly, as restricted_dynamics takes it
            assert np.array_equal(_repeated(model, lam, tau, *_steps([t], tau))[0], expected), t

    @pytest.mark.parametrize("t, tau", [(2e12, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                                        (1.0, 5e-324)])
    def test_step_cost_guard(self, t, tau):
        # a refused time refuses the whole array, and the error names its step count
        for times in (t, [t], [0.0, 1.5 * tau, t, 0.5 * tau]):
            with pytest.raises(ValueError, match="cost guard") as err:
                _steps(times, tau)
            assert str(err.value).startswith(f"{t / tau:.6g} interaction steps"), times
        assert _steps(MAX_STEPS * 1.0, 1.0) == (MAX_STEPS, 0.0)
        # an array of exact multiples, multiples -+1e-13, 0, halfway times and the guard's
        # edge: entry by entry the split of the time alone
        for tau in (0.1, 0.7, 1.0, 3.0):
            times = np.array([0.0, tau, 3 * tau, 3 * tau - 1e-13, 3 * tau + 1e-13,
                              1000 * tau - 1e-13, 1000 * tau + 1e-13, 2.5 * tau, MAX_STEPS * tau])
            n, t1 = _steps(times, tau)
            assert n.dtype == np.int64 and n.shape == t1.shape == times.shape
            assert n.tolist() == [0, 1, 3, 3, 3, 1000, 1000, 2, MAX_STEPS]
            assert (t1[:-2] == 0.0).all() and t1[-1] == 0.0
            assert abs(t1[-2] - 0.5 * tau) <= 1e-12 * max(1.0, tau)
            for k, x in enumerate(times):
                assert _steps(x, tau) == (n[k], t1[k]), x


# models of the quadrature tests; S = E gives H_0 the degenerate levels S and E
QUADRATURE_MODELS = {
    "spin": lambda: build_spin_model(spin_base()),
    "spin-degenerate": lambda: build_spin_model(spin_base(E=1.0)),
    "random-dim6": lambda: random_model(np.random.default_rng(6), 2, 3),
    "random-3x2": lambda: random_model(np.random.default_rng(32), 3, 2),
    "random-2x4": lambda: random_model(np.random.default_rng(8), 2, 4),
    "random-4x4": lambda: random_model(np.random.default_rng(16), 4, 4),
}


class TestDysonTerms:
    def test_first_order_commuting_interaction(self, rng):
        # v = h_S (x) I + I (x) h_E commutes with the free flow: the
        # integrand is constant and the first term is t*[v, .]
        h_s, h_e = random_hermitian(rng, 2), random_hermitian(rng, 2)
        v = kron(h_s, np.eye(2)) + kron(np.eye(2), h_e)
        model = RISModel(h_s=h_s, h_e=h_e, v=v, beta=0.5)
        t = 1.3
        got = dyson_term(model, 1, t)
        assert superop_norm(got - t * commutator_superop(v)) <= 1e-10

    def test_cost_guard(self, monkeypatch):
        # a quadrature is refused before the companion eigenproblem of leggauss(nodes)
        def leggauss(nodes):
            raise AssertionError(f"leggauss({nodes}) called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="cost guard"):
            dyson_term(model, 9, 1.0)
        for k, nodes in [(1, MAX_QUADRATURE_NODES + 1), (2, MAX_QUADRATURE_NODES + 1),
                         (3, 2_000_000)]:
            with pytest.raises(ValueError, match="quadrature nodes exceed the cost guard"):
                dyson_term_quadrature(model, k, 1.0, nodes=nodes)
        with pytest.raises(ValueError, match="the Dyson terms 1 to 3"):
            dyson_term_quadrature(model, 5, 1.0, nodes=32)

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_quadrature_range_comes_before_any_work(self, monkeypatch, k):
        # the quadrature gives the terms 1 - 3 only; any other k is refused before the
        # Gauss-Legendre rule or the eigh of H_0
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature started")

        model = build_spin_model(spin_base())
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for quadrature in (_quadrature_terms, dyson_term_quadrature):
            with pytest.raises(ValueError, match=f"^k = {k}: the quadrature gives the Dyson "
                                                 "terms 1 to 3$"):
                quadrature(model, k, 1.0, 7)

    @pytest.mark.parametrize("which", list(QUADRATURE_MODELS))
    def test_lower_orders_are_the_terms_of_the_third(self, which):
        # k = 1 forms the phases at t alone and k = 2 no W_3: the terms they return are
        # bit for bit those of the k = 3 call
        model = QUADRATURE_MODELS[which]()
        third = _quadrature_terms(model, 3, 1.3, 32)
        for k in (1, 2):
            terms = _quadrature_terms(model, k, 1.3, 32)
            assert len(terms) == k + 1
            assert all(np.array_equal(a, b) for a, b in zip(terms, third))

    def test_block_exponential_matches_quadrature(self):
        model = build_spin_model(spin_base())
        for k, t in [(1, 2.0), (2, 2.0), (3, 1.0)]:
            gap = superop_norm(dyson_term(model, k, t)
                               - dyson_term_quadrature(model, k, t))
            assert gap <= 1e-6

    @pytest.mark.parametrize("which", list(QUADRATURE_MODELS))
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_quadrature_matches_dyson_term(self, which, t):
        # at the default 32 nodes every level of the rule is exact to rounding
        model = QUADRATURE_MODELS[which]()
        for k in (1, 2, 3):
            term = dyson_term(model, k, t)
            gap = superop_norm(dyson_term_quadrature(model, k, t) - term)
            assert gap <= 1e-14 * superop_norm(term), k

    @pytest.mark.parametrize("which", ["spin", "random-dim6", "spin-degenerate", "random-3x2"])
    def test_eigenframe_quadrature_matches_product_form(self, which):
        # same nodes and weights, and the third level split at its middle time; the
        # oracle forms e^{iuH_0} v e^{-iuH_0} from one expm per node in the computational
        # basis
        model = QUADRATURE_MODELS[which]()
        for k, t, nodes in [(1, 2.0, 6), (2, 2.0, 6), (3, 1.0, 6), (3, 1.0, 5), (3, 1.0, 7)]:
            gap = superop_norm(dyson_term_quadrature(model, k, t, nodes=nodes)
                               - dyson_term_product_quadrature(model, k, t, nodes=nodes))
            assert gap <= 1e-13

    @pytest.mark.parametrize("which", ["spin", "random-2x4", "random-3x2", "random-4x4"])
    def test_third_level_matches_loop_over_outer_nodes(self, which):
        # the fully nested rule: at few nodes its quadrature error differs from the split
        # rule's (up to 8e-9 relative at 7 nodes); at 32 nodes both rules are exact to rounding
        model = QUADRATURE_MODELS[which]()
        oracle = dyson_term_loop_quadrature(model, 1.0, 32)
        gap = superop_norm(dyson_term_quadrature(model, 3, 1.0) - oracle)
        assert gap <= 1e-14 * superop_norm(oracle)

    @pytest.mark.parametrize("which, nodes, mib", [
        ("spin", 32, 0.5), ("random-2x4", 32, 1.0), ("random-4x4", 8, 8.0),
        ("random-4x4", 32, 3.0)])
    def test_quadrature_peak_memory(self, which, nodes, mib):
        # the levels hold (N + 1) N n-sided factors, and the Leibniz sum its k + 1
        # n^2-sided Kronecker products; a warm-up call caches the Gauss-Legendre nodes, the
        # cache of the quadrature (the eigh of H_0 runs, and is measured, on every call)
        model = QUADRATURE_MODELS[which]()
        dyson_term_quadrature(model, 3, 1.0, nodes=nodes)
        tracemalloc.start()
        try:
            dyson_term_quadrature(model, 3, 1.0, nodes=nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20

    def test_most_nodes_match_dyson_term(self):
        # the largest rule the node guard lets through, on a 4 x 4 pool model of the benchmark:
        # the phases, their weighted copy and their conjugate are three (N + 1) N n stacks of
        # complex128, 16 MiB each (50.2 MiB measured in all)
        doc = random_inline_model(0, 4, 4)["inline"]
        h_s, h_e, v = (np.array(doc[f])[..., 0] + 1j * np.array(doc[f])[..., 1]
                       for f in ("h_s", "h_e", "v"))
        model = RISModel(h_s=h_s, h_e=h_e, v=v, beta=doc["beta"])
        nodes = MAX_QUADRATURE_NODES
        dyson_term_quadrature(model, 1, 1.0, nodes=nodes)  # caches the Gauss-Legendre rule
        tracemalloc.start()
        try:
            terms = [dyson_term_quadrature(model, k, 1.0, nodes=nodes) for k in (1, 2, 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (nodes + 1) * nodes * model.dim * 16
        for k, term in enumerate(terms, start=1):
            exact = dyson_term(model, k, 1.0)
            assert superop_norm(term - exact) <= 1e-14 * superop_norm(exact), k

    def test_series_reconstruction_within_bound(self):
        model = build_spin_model(spin_base())
        lam, t = 0.3, 1.0
        free = matrix_exp(t * full_generator(model, 0.0))
        a1 = superop_norm(commutator_superop(model.v))
        total = Superoperator(free.matrix.copy())
        for k in range(1, 5):
            total = total + (1j * lam) ** k * (dyson_term(model, k, t) @ free)
        err = superop_norm(interaction_dynamics(model, lam, t) - total)
        assert err <= dyson_truncation_bound(5, lam, t, a1)


class TestDysonCheck:
    @pytest.mark.parametrize("which", ["spin", "spin-degenerate", "random-dim6", "random-3x2",
                                       "random-2x4"])
    def test_rows_match_superoperator_route(self, which):
        # kron(U, conj U) and the n-sided Kronecker sums against interaction_dynamics and the
        # products d @ free of the n^2-sided partial sums, orders 1 - 9
        model = QUADRATURE_MODELS[which]()
        orders, times = [3, 1, 9, 2, 5, 4, 6, 8, 7], [0.0, 0.05, 0.5, 1.0, 2.0]
        got = dyson_check(model, orders, times, nodes=12)
        oracle = dyson_check_superoperator(model, orders, times, nodes=12)
        assert got.shape == oracle.shape == (len(orders) * len(times), 6)
        assert np.array_equal(got[:, :3], oracle[:, :3])
        assert np.all(np.abs(got - oracle) <= 1e-13 * np.abs(oracle) + 1e-15)

    def test_free_flow_alone_is_exact(self, rng):
        # v = 0: U is the free flow, every term U_j beyond U_0 is 0, and the error is 0 at
        # any order and t, however far the expm of the Taylor stack rounds
        model = random_model(rng, 2, 3)
        model = RISModel(h_s=model.h_s, h_e=model.h_e, v=np.zeros((6, 6)), beta=1.0)
        rows = dyson_check(model, [1, 2, 4], [0.5, 10.0, 1e3], nodes=4)
        assert (rows[:, 3:] == 0.0).all()

    def test_one_eigh_per_unitary_for_all_times(self, monkeypatch, rng):
        # U and U_0 of every t from one eigh each; the quadrature reads H_0's cached chain frame
        model = random_model(rng, 2, 3)
        model._chain_frame  # its eighs of h_S and h_E, cached before the count
        shapes = []

        def counted(a, *args, _original=np.linalg.eigh, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        dyson_check(model, [2, 3, 4], [0.5, 1.0, 2.0], nodes=8)
        assert shapes == [(6, 6)] * 2

    def test_guards_come_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the check started")

        model = build_spin_model(spin_base())
        for name in ("matrix_exp", "_unitary"):
            monkeypatch.setattr(ris.dynamics, name, refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        t_max = MAX_SERIES_EXPONENT / model.commutator_norm
        for orders, times, nodes, match in [
                ([2, 10], [0.5], 32, "Dyson order 9 exceeds the cost guard"),
                ([0, 2], [0.5], 32, "orders must be >= 1"),
                ([4], [0.5], MAX_QUADRATURE_NODES + 1, "257 quadrature nodes exceed the cost guard"),
                ([2], [0.5], MAX_QUADRATURE_NODES + 1, "quadrature nodes exceed the cost guard"),
                ([2], [0.5, 1.001 * t_max], 32, "exceeds 700"),
                ([2], [math.nan], 32, "exceeds 700")]:
            with pytest.raises(ValueError, match=match):
                dyson_check(model, orders, times, nodes)
        with pytest.raises(AssertionError, match="the check started"):
            dyson_check(model, [2], [0.999 * t_max], 32)
        # order 1 needs no quadrature, and 200 nodes for the terms up to 3 pass the guard
        for orders, nodes in [([1], 10 ** 9), ([4], 200)]:
            with pytest.raises(AssertionError, match="the check started"):
                dyson_check(model, orders, [0.5], nodes)


class TestTruncationBound:
    def test_exponential_tail_closed_form(self):
        assert dyson_truncation_bound(1, 1.0, 1.0, 1.0) == pytest.approx(np.e - 1.0)

    def test_refused_past_the_float_range(self):
        # e^x overflows a float past x = 709; x ** n did so at x = 1e300 as an OverflowError
        assert math.isfinite(dyson_truncation_bound(2, 1.0, MAX_SERIES_EXPONENT, 1.0))
        for eps, t, a1 in [(1.0, 1e300, 2.0), (1.0, 351.0, 2.0), (1e200, 1e200, 1.0),
                           (1.0, math.inf, 1.0)]:
            with pytest.raises(ValueError, match="exceeds 700"):
                dyson_truncation_bound(2, eps, t, a1)
        for x in (MAX_SERIES_EXPONENT * (1 + 1e-15), math.inf, math.nan):
            with pytest.raises(ValueError, match="the bound of the series overflows"):
                check_series_exponent(x)

    # a float x ** n or n! past double range gave OverflowError where int arguments, in
    # exact integer arithmetic, gave the bound; the first term now comes by logarithms
    @pytest.mark.parametrize("n, x", [(171, 1), (120, 700), (200, 3), (5, 2)])
    def test_float_arguments_agree_with_int(self, n, x):
        exact = dyson_truncation_bound(n, 1, x, 1)
        assert dyson_truncation_bound(n, 1.0, float(x), 1.0) == pytest.approx(exact, rel=1e-12)

    def test_whole_exponential_tail(self):
        # the terms below order 120 are a fraction 1e-200 of e^700
        assert dyson_truncation_bound(120, 1.0, 700.0, 1.0) == pytest.approx(math.exp(700),
                                                                            rel=1e-12)

    def test_zero_coupling(self):
        assert dyson_truncation_bound(3, 0.0, 2.0, 5.0) == 0.0

    def test_monotone_in_time_and_coupling(self):
        grid = np.linspace(0.1, 3.0, 8)
        values_t = [dyson_truncation_bound(2, 0.5, t, 1.5) for t in grid]
        values_e = [dyson_truncation_bound(2, e, 0.5, 1.5) for e in grid]
        assert all(a < b for a, b in zip(values_t, values_t[1:]))
        assert all(a < b for a, b in zip(values_e, values_e[1:]))


class TestH1:
    def test_spin_exchange_only(self):
        report = check_H1(build_spin_model(spin_base()))
        assert report.applicable and report.passed

    def test_diagonal_coupling_breaks_it(self):
        model = build_spin_model(spin_base(a=1.0))
        # the spin builder drops p0 for a != 0; attach it by hand to probe
        probe = RISModel(h_s=model.h_s, h_e=model.h_e, v=model.v,
                         beta=model.beta, p0=u(0, 0))
        report = check_H1(probe)
        assert report.applicable and not report.passed
        assert report.offdiagonal_defect > 0.5

    def test_zero_interaction(self):
        model = RISModel(h_s=np.diag([0.0, 1.0]), h_e=np.diag([0.0, 2.0]),
                         v=np.zeros((4, 4)), beta=1.0, p0=u(0, 0))
        assert check_H1(model)

    def test_absent_projection(self, rng):
        report = check_H1(random_two_level_model(rng))
        assert not report.applicable
        assert not report


class TestModelValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="h_s"):
            RISModel(h_s=np.array([[0, 1], [0, 0]]), h_e=np.eye(2),
                     v=np.zeros((4, 4)), beta=1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            RISModel(h_s=np.eye(2), h_e=np.eye(2), v=np.zeros((3, 3)), beta=1.0)

    def test_rejects_bad_p0(self):
        with pytest.raises(ValueError, match="projection"):
            RISModel(h_s=np.eye(2), h_e=np.eye(2), v=np.zeros((4, 4)),
                     beta=1.0, p0=0.5 * np.eye(2))
        with pytest.raises(ValueError, match="commute"):
            RISModel(h_s=np.eye(2), h_e=np.diag([0.0, 1.0]), v=np.zeros((4, 4)),
                     beta=1.0, p0=np.array([[0.5, 0.5], [0.5, 0.5]]))
