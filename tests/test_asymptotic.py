import numpy as np
import pytest

from ris.asymptotic import (
    JordanDefectError,
    _eigenprojection_near,
    asymptotic_periodic_state,
    compare_orders,
    effective_asymptotic_state,
    kato_structure_check,
    limit_projection,
    parametrized_tau_experiment,
    peripheral_spectrum,
    trace_distance,
)
from ris.dynamics import NoAsymptoticStateError, RISModel, reduced_map_T
from ris.linops import Superoperator, superop_norm
from ris.spin import build_spin_model, spin_asymptotic_state
from ris.vanhove import (
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
)

from conftest import random_density, random_model, random_unitary, spin_base


def projection_onto_identity(rho):
    """x -> Tr(rho x) * I as a superoperator (rank one, unital)."""
    n = rho.shape[0]
    return Superoperator(np.outer(np.eye(n, dtype=complex).reshape(-1),
                                  rho.T.reshape(-1)))


class TestPeripheralSpectrum:
    def test_unitary_conjugation_all_peripheral(self, rng):
        w = random_unitary(rng, 2)
        conj = Superoperator.left_right(w, w.conj().T)
        assert len(peripheral_spectrum(conj)) == 4

    def test_free_step_on_spin_model(self):
        model = build_spin_model(spin_base())
        tau = 1.0
        periph = peripheral_spectrum(reduced_map_T(model, 0.0, tau))
        got = np.sort_complex(np.array(periph))
        expected = np.sort_complex(np.array(
            [1.0, 1.0, np.exp(1j * tau), np.exp(-1j * tau)]))
        assert np.allclose(got, expected, atol=1e-12)

    def test_coupled_spin_map_is_mixing(self):
        model = build_spin_model(spin_base())
        periph = peripheral_spectrum(reduced_map_T(model, 0.1, 1.0))
        assert len(periph) == 1
        assert periph[0] == pytest.approx(1.0, abs=1e-12)


class TestEigenprojectionNear:
    @pytest.mark.parametrize("n", [2, 5])
    def test_pairing_reconstructs_a_non_normal_matrix(self, rng, n):
        a = np.array([[1.0, 1.0], [0.0, 0.5]]) if n == 2 else rng.standard_normal((n, n))
        eigs = np.linalg.eigvals(a)
        projections = []
        for e in eigs:
            p, cond = _eigenprojection_near(a, e, 1e-9)
            assert 1.0 <= cond < 1e6
            projections.append(p)
        assert np.abs(sum(projections) - np.eye(n)).max() <= 1e-10
        assert np.abs(sum(e * p for e, p in zip(eigs, projections)) - a).max() <= 1e-9
        assert np.abs(projections[0] @ projections[1]).max() <= 1e-10


class TestLimitProjection:
    def test_projection_is_its_own_limit(self, rng):
        p = projection_onto_identity(random_density(rng, 2))
        lp = limit_projection(p)
        assert lp.converged
        assert superop_norm(lp.projection - p) <= 1e-10

    def test_diagonal_toy(self):
        t = Superoperator(np.diag([1.0, 0.5, 0.3, 0.2]))
        lp = limit_projection(t)
        assert lp.converged
        assert np.allclose(lp.projection.matrix, np.diag([1.0, 0, 0, 0]))

    def test_power_iteration_matches_eigenprojection(self):
        model = build_spin_model(spin_base())
        lp = limit_projection(reduced_map_T(model, 0.1, 1.0))
        assert lp.converged
        assert min(lp.power_errors) <= 1e-8
        assert lp.pairing_condition < 1e3

    def test_free_dynamics_does_not_converge(self):
        model = build_spin_model(spin_base())
        lp = limit_projection(reduced_map_T(model, 0.0, 1.0))
        assert not lp.converged
        assert lp.subdominant_modulus == pytest.approx(1.0, abs=1e-12)

    def test_jordan_block_detected(self):
        shift = np.eye(4) + 0.5 * np.diag(np.ones(3), 1)  # defective at 1
        with pytest.raises(JordanDefectError):
            limit_projection(Superoperator(shift))


class TestAsymptoticPeriodicState:
    @pytest.mark.parametrize("seed, n_s, n_e",
                             [(3, 2, 2), (0, 2, 4), (2, 4, 2), (0, 4, 4), (19, 4, 2)])
    def test_slow_relaxation_keeps_its_unique_state(self, seed, n_s, n_e):
        # at lambda = 0.025 the subdominant modulus of T is within ~1e-4 of 1,
        # and a unitality defect of a few 1e-16 in T doubles with every
        # squaring in limit_projection: it crossed the 1e-10 floor before the
        # powers converged and the unique state was reported missing.  Seed 19
        # at (4, 2), member 19 of the benchmark generation rule, still did so
        # with a unital T: ||T^(2^j) - P|| reached 1.01e-10 at j = 20 and then
        # doubled from the rounding of each squaring
        model = random_model(np.random.default_rng(seed), n_s, n_e)
        report = asymptotic_periodic_state(model, 0.025, 1.0)
        rho = report.asymptotic_density
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert report.is_rank_one

    def test_free_dynamics_raises(self):
        model = build_spin_model(spin_base())
        with pytest.raises(NoAsymptoticStateError):
            asymptotic_periodic_state(model, 0.0, 1.0)

    def test_infinite_temperature_gives_maximally_mixed(self):
        model = build_spin_model(spin_base(beta=0.0))
        report = asymptotic_periodic_state(model, 0.3, 1.0)
        assert np.abs(report.asymptotic_density - np.eye(2) / 2).max() <= 1e-12

    def test_close_to_closed_form_state(self):
        params = spin_base()
        model = build_spin_model(params)
        lam = 0.1
        report = asymptotic_periodic_state(model, lam, 1.0)
        dist = trace_distance(report.asymptotic_density, spin_asymptotic_state(params))
        assert dist <= 0.1 * lam ** 2
        assert report.is_rank_one

    def test_period_samples_are_states(self):
        model = build_spin_model(spin_base())
        report = asymptotic_periodic_state(model, 0.2, 1.0,
                                           t_samples=(0.0, 0.25, 0.75))
        assert len(report.period_samples) == 3
        for t, rho in report.period_samples:
            assert np.abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
        t0, rho0 = report.period_samples[0]
        assert np.abs(rho0 - report.asymptotic_density).max() <= 1e-10

    def test_limit_projection_encodes_the_state(self):
        model = build_spin_model(spin_base())
        report = asymptotic_periodic_state(model, 0.2, 1.0)
        p = report.limit_projection
        assert np.abs(p.apply(np.eye(2)) - np.eye(2)).max() <= 1e-9
        x = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
        expected = np.trace(report.asymptotic_density @ x) * np.eye(2)
        assert np.abs(p.apply(x) - expected).max() <= 1e-9


class TestEffectiveAsymptoticState:
    def test_zero_generator_not_rank_one(self):
        result = effective_asymptotic_state(Superoperator.zero(2))
        assert not result.rank_one
        assert result.density is None

    def test_spin_generator_recovers_closed_form(self):
        params = spin_base()
        eff = effective_generator_weak_coupling(build_spin_model(params), 1.0)
        result = effective_asymptotic_state(eff, horizon=1e3)
        assert result.rank_one
        assert np.abs(result.density - spin_asymptotic_state(params)).max() <= 1e-9
        assert result.horizon_defect <= 1e-9

    def test_system_only_coupling_never_mixes(self):
        # b = c = 0 with a = d makes v a pure system operator (x) I: the
        # reduced map stays a unitary conjugation at every coupling, so
        # there is no asymptotic state (the whole spectrum is peripheral)
        model = build_spin_model(spin_base(b=0.0, c=0.0, a=0.7, d=0.7))
        assert len(peripheral_spectrum(reduced_map_T(model, 0.3, 1.0))) == 4
        with pytest.raises(NoAsymptoticStateError):
            asymptotic_periodic_state(model, 0.3, 1.0)

    def test_diagonal_couplings_still_relax(self):
        # b = c = 0 but a != d: second-order processes through a and d
        # relax the populations symmetrically toward I/2 (the closed-form
        # deltas cover only a = d = 0 and vanish here, but the dynamics
        # does mix)
        model = build_spin_model(spin_base(b=0.0, c=0.0, a=1.0, d=0.5))
        assert len(peripheral_spectrum(reduced_map_T(model, 0.3, 1.0))) == 1
        report = asymptotic_periodic_state(model, 0.3, 1.0)
        assert np.abs(report.asymptotic_density - np.eye(2) / 2).max() <= 0.05


class TestCompareOrders:
    def test_infinite_temperature_distances_vanish(self):
        model = build_spin_model(spin_base(beta=0.0))
        comparison = compare_orders(model, 1.0, [0.2, 0.1])
        assert all(d <= 1e-10 for _, d in comparison.rows)

    def test_quadratic_decay(self):
        model = build_spin_model(spin_base())
        comparison = compare_orders(model, 1.0, [0.2, 0.1])
        (l1, d1), (l2, d2) = comparison.rows
        assert d2 < d1
        assert 3.0 <= comparison.ratios[0] <= 5.0


class TestKatoStructure:
    def test_zero_interaction_structure(self):
        model = RISModel(h_s=np.diag([0.0, 1.0]), h_e=np.diag([0.0, 2.0]),
                         v=np.zeros((4, 4)), beta=1.0)
        report = kato_structure_check(model, 1.0, [0.04, 0.02, 0.01])
        # P(eps) is constant, the extrapolation reproduces P(0), and the
        # reduced first-order operator vanishes so Q is everything
        assert superop_norm(report.p_plus - report.p0) <= 1e-10
        assert superop_norm(report.q - Superoperator.identity(2)) <= 1e-10
        assert all(d <= 1e-10 for _, d in report.distance_rows)

    def test_spin_model_lemma_items(self):
        model = build_spin_model(spin_base())
        report = kato_structure_check(model, 1.0, [0.04, 0.02, 0.01, 0.005])
        assert report.commutator_norm <= 1e-8
        assert report.idempotency_defect <= 1e-8
        assert report.subprojection_defect <= 1e-6
        assert report.extrapolation_stable
        assert report.trace_p_plus == pytest.approx(1.0, abs=1e-6)
        distances = [d for _, d in report.distance_rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))
        assert all(1.5 <= r <= 3.0 for r in report.distance_ratios)

    def test_requires_positive_eps(self):
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="positive"):
            kato_structure_check(model, 1.0, [0.0, 0.01])

    # the Richardson step needs the two smallest eps, and they must differ
    @pytest.mark.parametrize("eps", [[0.01], [0.02, 0.01, 0.01], [0.04, 0.02, 0.02, 0.01]])
    def test_requires_two_distinct_eps(self, eps):
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="two distinct"):
            kato_structure_check(model, 1.0, eps)


class TestParametrizedTauExperiment:
    def test_parametrization_arithmetic(self):
        model = build_spin_model(spin_base())
        rows = parametrized_tau_experiment(model, 1, [0.2, 0.1])
        assert [r.lam for r in rows] == [1.0, 1.0]
        assert [r.tau for r in rows] == [0.2, 0.1]
        rows3 = parametrized_tau_experiment(model, 3, [0.5])
        assert rows3[0].lam == pytest.approx(2.0)
        assert rows3[0].tau == pytest.approx(0.125)

    def test_rejects_even_order(self):
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="odd"):
            parametrized_tau_experiment(model, 2, [0.1])

    def test_distances_decrease(self):
        model = build_spin_model(spin_base())
        rows = parametrized_tau_experiment(model, 1, [0.2, 0.1])
        assert rows[1].trace_distance < rows[0].trace_distance

    def test_parametrizations_agree_where_curves_cross(self):
        # the n=1 and n=3 curves intersect at eps=1, i.e. (lambda, tau) = (1, 1)
        model = build_spin_model(spin_base())
        row1, = parametrized_tau_experiment(model, 1, [1.0])
        row3, = parametrized_tau_experiment(model, 3, [1.0])
        assert abs(row1.trace_distance - row3.trace_distance) <= 1e-9

    def test_matches_direct_computation(self):
        # a state computed through the n=3 path equals the direct one at
        # the same numeric (lambda, tau): parametrization independence
        model = build_spin_model(spin_base())
        eps = 0.6
        row, = parametrized_tau_experiment(model, 3, [eps])
        eff = effective_asymptotic_state(effective_generator_fast_repetition(model))
        direct = asymptotic_periodic_state(model, eps ** -1.0, eps ** 3)
        dist = trace_distance(direct.asymptotic_density, eff.density)
        assert abs(row.trace_distance - dist) <= 1e-9


class TestOneDecompositionPerMap:
    """Each map the asymptotic module analyses goes through one eig call."""

    @staticmethod
    def decomposed(monkeypatch) -> list:
        inputs = []
        for name in ("eig", "eigvals"):
            def counted(m, _original=getattr(np.linalg, name)):
                inputs.append(np.array(m))
                return _original(m)
            monkeypatch.setattr(np.linalg, name, counted)
        return inputs

    def test_asymptotic_periodic_state(self, monkeypatch):
        model = build_spin_model(spin_base())
        inputs = self.decomposed(monkeypatch)
        asymptotic_periodic_state(model, 0.2, 1.0, t_samples=(0.0, 0.5))
        assert len(inputs) == 1

    def test_effective_asymptotic_state(self, monkeypatch):
        eff = effective_generator_weak_coupling(build_spin_model(spin_base()), 1.0)
        inputs = self.decomposed(monkeypatch)
        effective_asymptotic_state(eff, horizon=10.0)
        assert len(inputs) == 1

    def test_kato_structure_check(self, monkeypatch):
        model = build_spin_model(spin_base())
        inputs = self.decomposed(monkeypatch)
        eps = [0.04, 0.02, 0.01]
        kato_structure_check(model, 1.0, eps)
        # P0 T' P0 and one T(eps) per eps, each once; P(0) of alpha_S^tau
        # is read off the Bohr frame of h_S
        assert len(inputs) == 1 + len(eps)
        assert not any(np.array_equal(a, b) for i, a in enumerate(inputs) for b in inputs[:i])
