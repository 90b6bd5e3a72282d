import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris.linops
import ris.vanhove
from ris.asymptotic import (
    _asymptotic_state,
    asymptotic_periodic_state,
    effective_asymptotic_state,
    kato_structure_check,
)
from ris.dynamics import (
    MAX_PHASE,
    RISModel,
    check_phases,
    reduced_map_T,
    restricted_dynamics,
    system_free_evolution,
)
from ris.linops import (
    Superoperator,
    change_frame,
    kron,
    matrix_exp,
    spectral_decompose,
    superop_norm,
)
from ris.spin import build_spin_model, fast_repetition_deltas
from ris.vanhove import (
    _phi2,
    _second_order_reduction,
    _sector_reduction,
    converge_lambda,
    converge_lambda_interpolated,
    converge_tau,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    second_order_term,
)

from conftest import (
    centred_model,
    random_hermitian,
    random_model,
    random_two_level_model,
    random_unitary,
    spin_base,
)
from oracles import (
    _branch_log,
    cesaro_average,
    commutator_superop,
    derivation_superop,
    log_generator_A0,
    restrict_to_system,
    spectral_average,
    zero_superop,
)

# frozen oracle values: direct evaluation of the closed forms at
# (S, E, beta, tau) = (1, 2, 1, 1), b = c = 1, computed before the build
DELTA0 = -0.4991011892643799
DELTA1 = -0.8625147537994395


def zero_interaction_model():
    return RISModel(h_s=np.diag([0.0, 1.0]), h_e=np.diag([0.0, 2.0]),
                    v=np.zeros((4, 4)), beta=1.0)


class TestSpectralAverage:
    def test_commuting_map_unchanged(self, rng):
        basis = spectral_decompose(np.diag([0.0, 1.0, 1.0, 2.0]))
        block = np.zeros((4, 4), dtype=complex)
        block[0, 0] = 0.3
        block[1:3, 1:3] = random_hermitian(rng, 2)
        block[3, 3] = -0.7
        b = Superoperator(block)
        assert superop_norm(spectral_average(b, basis) - b) <= 1e-12

    def test_rank_one_basis_extracts_diagonal(self, rng):
        basis = spectral_decompose(np.diag([0.0, 1.0, 2.0, 3.0]))
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        averaged = spectral_average(Superoperator(m), basis)
        assert np.allclose(averaged.matrix, np.diag(np.diag(m)))

    def test_idempotent_and_commuting(self, rng):
        for _ in range(10):
            model = random_two_level_model(rng)
            tau = float(rng.uniform(0.6, 1.0))
            a0 = log_generator_A0(model, tau)
            basis = spectral_decompose(a0)
            avg = -effective_generator_weak_coupling(model, tau).generator
            assert superop_norm(spectral_average(avg, basis) - avg) <= 1e-12
            assert superop_norm(a0 @ avg - avg @ a0) <= 1e-9
            for p in basis.projection_matrices():
                assert superop_norm(Superoperator(p @ avg.matrix - avg.matrix @ p)) <= 1e-9

    def test_cesaro_oracle_on_spin_model(self):
        model = build_spin_model(spin_base())
        a0 = log_generator_A0(model, 1.0)
        nat = -effective_generator_weak_coupling(model, 1.0).generator
        ces = cesaro_average(second_order_term(model, 1.0), a0)
        assert superop_norm(ces - nat) <= 1e-4

    def test_cesaro_trivial_generator(self, rng):
        b = Superoperator(rng.standard_normal((4, 4)))
        assert superop_norm(cesaro_average(b, zero_superop(2)) - b) <= 1e-14


class TestLogGeneratorA0:
    def test_tau_zero(self):
        model = build_spin_model(spin_base())
        assert superop_norm(log_generator_A0(model, 0.0)) == 0.0

    def test_spin_eigenvalues(self):
        model = build_spin_model(spin_base())
        a0 = log_generator_A0(model, 1.0, branch_cut_angle=np.pi)
        got = np.sort(np.linalg.eigvals(a0.matrix).imag)
        assert np.allclose(got, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_resonant_tau_gives_zero(self):
        # tau*S = 2*pi: alpha_S^tau is the identity and the logarithm
        # vanishes on the coherence sector too
        model = build_spin_model(spin_base(tau=2 * np.pi))
        a0 = log_generator_A0(model, 2 * np.pi)
        assert superop_norm(a0) <= 1e-12

    def test_exp_recovers_free_step(self, rng):
        for tau in (0.3, 1.0, 2.0):
            model = build_spin_model(spin_base())
            a0 = log_generator_A0(model, tau)
            assert superop_norm(matrix_exp(a0) - system_free_evolution(model, tau)) <= 1e-10
        for _ in range(5):
            model = random_two_level_model(rng)
            tau = float(rng.uniform(0.2, 1.2))
            a0 = log_generator_A0(model, tau)
            assert superop_norm(matrix_exp(a0) - system_free_evolution(model, tau)) <= 1e-10


class TestSecondOrderTerm:
    def test_zero_interaction(self):
        assert superop_norm(second_order_term(zero_interaction_model(), 1.0)) == 0.0

    def test_small_tau_reduces_to_double_commutator(self):
        # phi_2^tau = (tau^2/2) [v,.]^2 + O(tau^3), compressed to the system
        model = build_spin_model(spin_base())
        cv = commutator_superop(model.v)
        target = restrict_to_system(model, cv @ cv)
        gaps = []
        for tau in (0.1, 0.05):
            gaps.append(superop_norm(
                (2.0 / tau ** 2) * second_order_term(model, tau) - target))
        assert gaps[1] <= 0.6 * gaps[0]  # O(tau) remainder

    def test_finite_difference_oracle(self):
        # T(lam) = alpha + lam^2 T2 + O(lam^4): Richardson-extrapolated
        # central second differences recover 2*T2 = -2*(result o alpha)
        model = build_spin_model(spin_base())
        tau, h = 1.0, 1e-3
        t0 = reduced_map_T(model, 0.0, tau).matrix

        def second_diff(step):
            plus = reduced_map_T(model, step, tau).matrix
            minus = reduced_map_T(model, -step, tau).matrix
            return (plus + minus - 2 * t0) / step ** 2

        extrapolated = (4.0 * second_diff(h / 2) - second_diff(h)) / 3.0
        target = -2.0 * (second_order_term(model, tau) @ system_free_evolution(model, tau)).matrix
        assert np.abs(extrapolated - target).max() <= 1e-7


class TestWeakCouplingGenerator:
    def test_zero_interaction(self):
        eff = effective_generator_weak_coupling(zero_interaction_model(), 1.0)
        assert superop_norm(eff.generator) == 0.0

    def test_spin_diagonals_match_closed_forms(self):
        model = build_spin_model(spin_base())
        g = effective_generator_weak_coupling(model, 1.0).generator.matrix
        assert abs(g[0, 0].real - DELTA0) <= 1e-9
        assert abs(g[3, 3].real - DELTA1) <= 1e-9

    def test_invariants(self, rng):
        for _ in range(5):
            model = random_two_level_model(rng)
            eff = effective_generator_weak_coupling(model, 0.8)
            gen = eff.generator
            assert np.abs(gen.apply(np.eye(2))).max() <= 1e-10
            q = model._system_bohr[1]
            frame = kron(q, q.conj())
            for label in np.unique(eff.sectors):
                p = (frame * (eff.sectors == label)) @ frame.conj().T
                assert superop_norm(Superoperator(p @ gen.matrix - gen.matrix @ p)) <= 1e-9
            for s in (0.1, 1.0, 10.0):
                assert superop_norm(matrix_exp(s * gen)) <= np.sqrt(2) + 1e-9


def diagonal_model(levels, seed: int = 3, n_e: int = 3) -> RISModel:
    """h_S = diag(levels) exactly; random h_E and v."""
    rng = np.random.default_rng(seed)
    return RISModel(h_s=np.diag(levels), h_e=random_hermitian(rng, n_e),
                    v=random_hermitian(rng, len(levels) * n_e), beta=1.0)


class TestSectorReduction:
    """R = tau^2 R^ on its in-sector entries, from divided differences over tau, against the
    Taylor stack's R; at tau = 0, R^ against the double commutator."""

    @staticmethod
    def gap(model, tau):
        labels, _ = ris.vanhove._alpha_classes(model, tau)
        r = tau * tau * _sector_reduction(model, tau, labels)
        same = labels[:, None] == labels[None, :]
        assert not r[~same].any()
        ref = np.where(same, _second_order_reduction(model, tau), 0.0)
        return np.abs(r - ref).max() / np.abs(ref).max()

    @pytest.mark.parametrize("tau", [1.0, 0.37, 5.0])
    @pytest.mark.parametrize("dims", [(2, 4), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_models(self, seed, dims, tau):
        assert self.gap(random_model(np.random.default_rng(seed), *dims), tau) <= 1e-13

    def test_spin_model(self):
        assert self.gap(build_spin_model(spin_base()), 1.0) <= 1e-13

    @pytest.mark.parametrize("levels", [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 1e-10]],
                             ids=["degenerate", "split-1e-10"])
    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_degenerate_and_nearly_degenerate_levels(self, levels, tau):
        # U2 is formed between the two levels, by the confluent form at their midpoint
        assert self.gap(diagonal_model(levels), tau) <= 1e-13

    @pytest.mark.parametrize("gap_pair", [(0, 1), (1, 2)])
    def test_resonant_tau(self, gap_pair):
        # tau (w_l - w_k) = 2 pi: the quotient of first divided differences
        levels = [0.0, 0.7, 1.6]
        tau = 2 * np.pi / (levels[gap_pair[1]] - levels[gap_pair[0]])
        assert self.gap(diagonal_model(levels), tau) <= 1e-13

    @pytest.mark.parametrize("levels", [[0.0, 0.7, 1.9], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]],
                             ids=["distinct", "degenerate", "equally-spaced"])
    def test_tau_zero_is_the_double_commutator(self, levels):
        # R^(0) = -(1/2) E_S [v,[v,.]] on the Bohr sectors, which hold more than one entry
        # for degenerate or equally spaced levels
        model = diagonal_model(levels)
        labels = ris.vanhove._sector_labels(model._system_bohr[0])
        same = labels[:, None] == labels[None, :]
        cv = commutator_superop(model.v)
        q = model._system_bohr[1]
        ref = change_frame(q.conj().T, -0.5 * restrict_to_system(model, cv @ cv).matrix)
        ref = np.where(same, ref, 0.0)
        got = _sector_reduction(model, 0.0, labels)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_no_expm(self, monkeypatch):
        def refuse(a):
            raise AssertionError(f"expm of side {a.shape[0]}")

        monkeypatch.setattr(ris.linops, "_pade_expm", refuse)
        model = random_model(np.random.default_rng(2), 4, 4)
        effective_generator_weak_coupling(model, 1.0)
        kato_structure_check(model, 1.0, [0.02, 0.01])

    @pytest.mark.parametrize("call", [
        lambda model, tau: effective_generator_weak_coupling(model, tau),
        lambda model, tau: kato_structure_check(model, tau, [0.02, 0.01]),
    ], ids=["weak", "kato"])
    def test_phases_past_double_precision_refused_before_any_work(self, monkeypatch, call):
        def refuse(*args):
            raise AssertionError("the work started")

        monkeypatch.setattr(ris.vanhove, "_free_evolution", refuse)
        with pytest.raises(ValueError, match=r"^tau = 1e\+300 with max\|E\| = 3 over the "
                                             r"levels E of H_0 and \|\|v\|\|_inf = 0.5: .* "
                                             r"exceeds 2\^53"):
            call(RISModel(h_s=np.diag([0.0, 1.0, 2.0]), h_e=np.diag([0.0, 1.0]),
                          v=0.5 * np.eye(6), beta=1.0), 1e300)

    @pytest.mark.parametrize("levels, v", [([0.0, 1.0, 3.0], 0.5), ([0.0, 0.0, 0.0], 2.0)],
                             ids=["levels", "coupling"])
    def test_phase_threshold(self, levels, v):
        # the larger of max|E| and ||v||_inf, powers of 2 here, sets it: with E = 0, (tau v)^2
        # in R would overflow
        model = RISModel(h_s=np.diag(levels), h_e=np.diag([0.0, 1.0]), v=v * np.eye(6),
                         beta=1.0)
        top = max(levels[-1] + 1.0, v)
        check_phases(model, MAX_PHASE / top)
        with pytest.raises(ValueError, match="exceeds 2\\^53"):
            check_phases(model, np.nextafter(MAX_PHASE / top, np.inf))

    def test_phi2_series_meets_the_quotient(self):
        # either side of |w| = 1 the series and the quotient agree to rounding
        w = 1j * np.array([0.9, 0.99, 1.01, 1.1]) * np.exp(0.3j)
        quotient = (np.exp(w) - 1.0 - w) / w ** 2
        assert np.abs(_phi2(w) - quotient).max() <= 1e-15
        assert _phi2(np.zeros(1, dtype=complex))[0] == 0.5


class TestFastRepetitionGenerator:
    def test_zero_interaction(self):
        eff = effective_generator_fast_repetition(zero_interaction_model())
        assert superop_norm(eff.generator) == 0.0

    def test_spin_diagonals_are_delta_limits(self):
        params = spin_base()
        model = build_spin_model(params)
        g = effective_generator_fast_repetition(model).generator.matrix
        d0_fast, d1_fast = fast_repetition_deltas(params)
        w = np.exp(-2.0)
        assert d0_fast == pytest.approx(-(w + 1.0) / (1.0 + w))
        assert abs(g[0, 0].real - d0_fast) <= 1e-12
        assert abs(g[3, 3].real - d1_fast) <= 1e-12

    def test_weak_coupling_limit_consistency(self):
        # tau^-2-rescaled weak-coupling generator approaches the
        # fast-repetition one at rate O(tau)
        model = build_spin_model(spin_base())
        fast = effective_generator_fast_repetition(model).generator
        gaps = []
        for tau in (0.1, 0.05):
            weak = effective_generator_weak_coupling(model, tau).generator
            gaps.append(superop_norm((1.0 / tau ** 2) * weak - fast))
        assert gaps[1] <= 0.6 * gaps[0]

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (4, 4)])
    def test_weak_coupling_tends_to_it_at_first_order(self, dims):
        # weak / tau^2 = R^(tau) alpha_S^{-tau} on the classes of alpha_S^tau, the Bohr sectors
        # at these tau, and R^(tau) = R^(0) + O(tau): each halving of tau halves the gap
        model = random_model(np.random.default_rng(0), *dims)
        fast = effective_generator_fast_repetition(model).bohr
        gaps = [superop_norm(effective_generator_weak_coupling(model, tau).bohr / tau ** 2 - fast)
                for tau in (0.1, 0.05, 0.025, 0.0125)]
        assert all(fine <= 0.55 * coarse for coarse, fine in zip(gaps, gaps[1:]))


class TestConvergenceExperiments:
    def test_lambda_errors_decrease(self):
        model = build_spin_model(spin_base())
        report = converge_lambda(model, 1.0, [0.2, 0.1], 2.0, 20)
        sups = dict(report.sup_errors)
        assert sups[0.1] < sups[0.2]
        assert report.decay_ratios[0][1] >= 2.0
        first_rows = [r for r in report.rows if r[1] == 0.0]
        assert all(err == 0.0 for _, _, err in first_rows)

    def test_rows_sorted_and_nonnegative(self):
        model = build_spin_model(spin_base())
        report = converge_lambda(model, 1.0, [0.3, 0.2], 1.0, 7)
        assert list(report.rows) == sorted(report.rows)
        assert all(err >= 0 for _, _, err in report.rows)

    def test_lambda_validation(self):
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="decreasing"):
            converge_lambda(model, 1.0, [0.1, 0.2], 1.0, 5)

    def test_interpolated_matches_lattice_on_lattice_points(self):
        # s values hitting n*lambda^2 exactly produce identical rows
        model = build_spin_model(spin_base())
        lam, tau = 0.5, 1.0
        s_max = 8 * lam * lam  # grid of exact multiples
        lattice = converge_lambda(model, tau, [lam], s_max, 9)
        interp = converge_lambda_interpolated(model, tau, [lam], s_max, 9)
        for (p1, s1, e1), (p2, s2, e2) in zip(lattice.rows, interp.rows):
            assert s1 == s2
            assert abs(e1 - e2) <= 1e-10

    def test_interpolated_stays_within_twice_lattice(self):
        model = build_spin_model(spin_base())
        lattice = converge_lambda(model, 1.0, [0.2, 0.1], 3.0, 15)
        interp = converge_lambda_interpolated(model, 1.0, [0.2, 0.1], 3.0, 15)
        for lam in (0.2, 0.1):
            assert interp.sup_error(lam) <= 2.0 * lattice.sup_error(lam)

    def test_interpolated_pointwise_gap_within_dyson_bound(self):
        # the partial last interval changes each error by at most the
        # second-order series tail over one interval (first order dies
        # under the conditional expectation), times the norm of T^n
        from ris.dynamics import dyson_truncation_bound
        model = build_spin_model(spin_base())
        lam, tau = 0.2, 1.0
        lattice = converge_lambda(model, tau, [lam], 3.0, 15)
        interp = converge_lambda_interpolated(model, tau, [lam], 3.0, 15)
        a1 = superop_norm(commutator_superop(model.v))
        allowed = np.sqrt(2) * dyson_truncation_bound(2, lam, tau, a1)
        for (_, s1, e1), (_, s2, e2) in zip(lattice.rows, interp.rows):
            assert s1 == s2
            assert abs(e1 - e2) <= allowed

    def test_tau_zero_interaction(self):
        report = converge_tau(zero_interaction_model(),
                              [(1.0, 0.4), (1.0, 0.2)], 1.0, 5)
        assert max(err for _, _, err in report.rows) <= 1e-12

    def test_tau_errors_decrease_with_rate(self):
        model = build_spin_model(spin_base())
        report = converge_tau(model, [(1.0, 0.2), (1.0, 0.1)], 3.0, 20)
        assert report.decay_ratios[0][1] >= 1.5

    def test_tau_diverging_lambda(self):
        # lambda_n = tau_n^(-1/4) diverges while lambda^2 tau -> 0
        model = build_spin_model(spin_base())
        pairs = [(tau ** -0.25, tau) for tau in (0.2, 0.1)]
        report = converge_tau(model, pairs, 2.0, 15)
        sups = [e for _, e in report.sup_errors]
        assert sups[1] < sups[0]


class TestWeakCouplingTimeScale:
    """The weak generator is a rate per interaction: s = lambda^2 n, at any tau."""

    @pytest.mark.parametrize("tau", [0.37, 0.5, 2.0])
    @pytest.mark.parametrize("converge", [converge_lambda, converge_lambda_interpolated])
    def test_errors_fall_off_unit_tau(self, converge, tau):
        # read at s = lambda^2 tau n the sups stall near 0.25-0.35 (ratio 0.85-0.99)
        report = converge(build_spin_model(spin_base()), tau, [0.2, 0.1, 0.05], 5.0, 50)
        assert report.sup_error(0.05) <= 0.25 * report.sup_error(0.2)


def bohr_separated_model(rng, n_s: int, n_e: int) -> RISModel:
    """A centred model (:func:`centred_model`) whose distinct Bohr frequencies lie at least
    0.1 apart: closer ones make the limit non-uniform at these lambda and tau."""
    while True:
        model = centred_model(rng, n_s, n_e)
        bohr = np.unique(model._system_bohr[0])
        if np.diff(bohr).min() >= 0.1:
            return model


CENTRED_DRAWS = [(seed, *[(2, 2), (2, 3), (3, 2), (2, 4)][seed % 4]) for seed in range(40)]


class TestCentredModels:
    """On centred random models both van Hove limits show: the sup error at the smallest
    parameter is at most 0.6 of the one at the largest (s_max 5, 26 steps)."""

    @pytest.mark.parametrize("seed, n_s, n_e", CENTRED_DRAWS)
    def test_weak_coupling(self, seed, n_s, n_e):
        # tau in [0.3, 3], every Bohr angle tau omega at least 0.5 from a multiple of 2 pi
        rng = np.random.default_rng(seed)
        model = bohr_separated_model(rng, n_s, n_e)
        omegas = np.abs(model._system_bohr[0])
        while True:
            tau = rng.uniform(0.3, 3.0)
            angles = np.mod(tau * omegas[omegas > 0], 2 * np.pi)
            if np.minimum(angles, 2 * np.pi - angles).min() >= 0.5:
                break
        for converge in (converge_lambda, converge_lambda_interpolated):
            report = converge(model, tau, [0.2, 0.1, 0.05], 5.0, 26)
            assert report.sup_error(0.05) <= 0.6 * report.sup_error(0.2), (converge, tau)

    @pytest.mark.parametrize("seed, n_s, n_e", CENTRED_DRAWS)
    def test_fast_repetition(self, seed, n_s, n_e):
        rng = np.random.default_rng(seed)
        model = bohr_separated_model(rng, n_s, n_e)
        lam = rng.uniform(0.5, 2.0)
        report = converge_tau(model, [(lam, tau) for tau in (0.2, 0.1, 0.05)], 5.0, 26)
        assert report.sup_error(0.05) <= 0.6 * report.sup_error(0.2), lam


class TestGeneratorFrame:
    """Generators stay in the Bohr frame of h_S: only a read of ``generator`` converts."""

    @staticmethod
    def model(index: int) -> RISModel:
        """A non-diagonal h_S: three rotated 3 x 2 models and a rotated two-level one."""
        if index < 3:
            return rotated_model(index, [0.0, 0.7, 1.9])
        return random_two_level_model(np.random.default_rng(8))

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        for name, module in list(sys.modules.items()):
            if (name == "ris" or name.startswith("ris.")) and hasattr(module, "change_frame"):
                def counting(*args, _original=getattr(module, "change_frame")):
                    calls.append(args)
                    return _original(*args)
                monkeypatch.setattr(module, "change_frame", counting)
        return calls

    @pytest.mark.parametrize("index", range(4))
    def test_no_conversion_off_the_generator_read(self, monkeypatch, index):
        model = self.model(index)
        assert not np.allclose(model.h_s, np.diag(np.diag(model.h_s)))
        calls = self.counted(monkeypatch)
        converge_lambda(model, 1.0, [0.3, 0.2], 1.0, 5)
        converge_lambda_interpolated(model, 1.0, [0.3, 0.2], 1.0, 5)
        converge_tau(model, [(1.0, 0.3), (1.0, 0.2)], 1.0, 5)
        weak = effective_generator_weak_coupling(model, 1.0)
        fast = effective_generator_fast_repetition(model)
        effective_asymptotic_state(weak)
        effective_asymptotic_state(fast)
        asymptotic_periodic_state(model, 0.3, 1.0, t_samples=(0.0, 0.5))
        kato_structure_check(model, 1.0, [0.02, 0.01])
        assert calls == []
        for k, eff in enumerate([weak, fast, weak], start=1):
            eff.generator
            assert len(calls) == k

    @pytest.mark.parametrize("index", range(4))
    def test_generator_is_the_converted_bohr_matrix(self, index):
        model = self.model(index)
        q = np.linalg.eigh(model.h_s)[1]
        for eff in (effective_generator_weak_coupling(model, 1.0),
                    effective_generator_fast_repetition(model)):
            assert np.array_equal(eff.frame, q)
            assert np.array_equal(eff.generator.matrix, change_frame(q, eff.bohr))

    @pytest.mark.parametrize("index", range(4))
    def test_state_matches_the_computational_solve(self, index):
        # the oracle: the bordered solve on the generator in the computational basis
        model = self.model(index)
        for eff in (effective_generator_weak_coupling(model, 1.0),
                    effective_generator_fast_repetition(model)):
            scale, dissipation = np.abs(eff.bohr).sum(axis=0).max(), -np.trace(eff.bohr).real
            oracle, _ = _asymptotic_state(eff.generator.matrix, 0.0, scale, dissipation,
                                          "the effective generator")
            assert np.abs(effective_asymptotic_state(eff) - oracle).max() <= 1e-13


class TestOneReductionPath:
    """Each generator is one in-sector reduction: one :func:`_sector_reduction`, whose one
    ``_pair_reduction`` forms the U1 (x) conj U1 term, and no ``matrix_exp``."""

    @pytest.mark.parametrize("build", [
        lambda model: effective_generator_weak_coupling(model, 1.0),
        effective_generator_fast_repetition,
    ], ids=["weak", "fast"])
    @pytest.mark.parametrize("levels", [[0.0, 0.7, 1.9], [0.0, 1.0, 1.0]],
                             ids=["distinct", "degenerate"])
    def test_calls(self, monkeypatch, build, levels):
        calls = []
        for name, module in list(sys.modules.items()):
            if name != "ris" and not name.startswith("ris."):
                continue
            for function in ("_sector_reduction", "_pair_reduction", "matrix_exp"):
                if hasattr(module, function):
                    def counting(*args, _original=getattr(module, function), _name=function):
                        calls.append(_name)
                        return _original(*args)
                    monkeypatch.setattr(module, function, counting)
        build(rotated_model(0, levels))
        assert sorted(calls) == ["_pair_reduction", "_sector_reduction"]


class TestGridEvaluator:
    """Each row of the three reports against restricted_dynamics and the expm form of alpha_S."""

    MODELS = {
        "spin": lambda: build_spin_model(spin_base()),
        "random-diagonal-hs": lambda: random_model(np.random.default_rng(7), 2, 3),
        "random-rotated-hs": lambda: random_two_level_model(np.random.default_rng(8)),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_match_independent_form(self, name):
        model = self.MODELS[name]()
        lambdas, pairs = [0.4, 0.25], [(1.0, 0.3), (2.0, 0.1)]
        lam_of_tau = {t: l for l, t in pairs}
        fast = effective_generator_fast_repetition(model).generator.matrix
        cases = [  # (report, generator, parameter -> (lambda, tau), (s, lambda, tau) -> t)
            (converge_tau(model, pairs, 2.0, 7), fast, lambda p: (lam_of_tau[p], p),
             lambda s, lam, tau: s / (lam * lam * tau)),
        ]
        for tau in (1.0, 0.37):  # the weak generator is a rate per interaction at any tau
            weak = effective_generator_weak_coupling(model, tau).generator.matrix
            cases += [
                (converge_lambda(model, tau, lambdas, 2.0, 7), weak, lambda p, tau=tau: (p, tau),
                 lambda s, lam, tau: tau * np.floor(s / (lam * lam))),
                (converge_lambda_interpolated(model, tau, lambdas, 2.0, 7), weak,
                 lambda p, tau=tau: (p, tau), lambda s, lam, tau: tau * s / (lam * lam)),
            ]
        off_lattice = 0
        for report, gen, params, time_of in cases:
            assert len(report.rows) == 14
            for p, s, err in report.rows:
                lam, tau_p = params(p)
                t = time_of(s, lam, tau_p)
                off_lattice += abs(t / tau_p - round(t / tau_p)) > 1e-6
                expected = superop_norm(
                    restricted_dynamics(model, lam, tau_p, t).matrix
                    @ matrix_exp(-t * derivation_superop(model.h_s).matrix)
                    - matrix_exp(s * gen))
                assert abs(err - expected) <= 1e-12
        assert off_lattice >= 10

    @pytest.mark.parametrize("regime", ["weak", "fast"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_flows_match_per_s_expm(self, monkeypatch, name, regime):
        # the flows are powers of one expm e^{ds gen}, gen in the Bohr frame of
        # h_S; each against e^{s gen} itself
        model = self.MODELS[name]()
        flows, powers = [], ris.vanhove._powers

        def recording_powers(m, exponents):
            flows.append(powers(m, exponents))
            return flows[-1]

        monkeypatch.setattr(ris.vanhove, "_powers", recording_powers)
        s_max, s_steps = 5.0, 50
        if regime == "weak":
            gen = effective_generator_weak_coupling(model, 1.0).bohr
            converge_lambda(model, 1.0, [0.4], s_max, s_steps)
        else:
            gen = effective_generator_fast_repetition(model).bohr
            converge_tau(model, [(1.0, 0.3)], s_max, s_steps)
        (stack,) = flows
        for s, flow in zip(np.linspace(0.0, s_max, s_steps), stack, strict=True):
            expected = matrix_exp(s * gen)
            assert np.linalg.norm(flow - expected) <= 1e-12 * np.linalg.norm(expected), s

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_one_s_step(self, name):
        # s = 0 only: the flow is I, and so is phi_res^0 alpha_S^0 to rounding
        model = self.MODELS[name]()
        for report, params in [
                (converge_lambda(model, 1.0, [0.4, 0.25], 2.0, 1), [0.25, 0.4]),
                (converge_lambda_interpolated(model, 1.0, [0.4, 0.25], 2.0, 1), [0.25, 0.4]),
                (converge_tau(model, [(1.0, 0.3), (2.0, 0.1)], 2.0, 1), [0.1, 0.3])]:
            assert [row[:2] for row in report.rows] == [(p, 0.0) for p in params]
            assert all(err <= 1e-12 for _, _, err in report.rows)

    def test_step_cost_guard(self):
        model = build_spin_model(spin_base())
        with pytest.raises(ValueError, match="cost guard"):
            converge_lambda_interpolated(model, 1.0, [1e-7], 1.0, 2)

    # 1e-7: about 1e13 steps; 1e-160: lambda^2 underflows to a subnormal and s/lambda^2
    # overflows to inf; 1e-300: lambda^2 is 0, and t = 0/0 even at s = 0
    @pytest.mark.parametrize("lam", [1e-7, 1e-160, 1e-300])
    @pytest.mark.parametrize("converge", [converge_lambda, converge_lambda_interpolated,
                                          converge_tau])
    @pytest.mark.parametrize("s_steps", [1, 5])
    def test_too_many_steps_names_the_parameter(self, converge, lam, s_steps):
        model = build_spin_model(spin_base())
        if converge is converge_tau:
            call, name = lambda: converge(model, [(0.3, 0.2), (lam, 0.1)], 5.0, s_steps), "tau"
            param = 0.1
        else:
            call, name = lambda: converge(model, 1.0, [0.3, lam], 5.0, s_steps), "lambda"
            param = lam
        if s_steps == 1 and lam * lam > 0:  # s = 0 only: t = 0, no step at all
            call()
            return
        with pytest.raises(ValueError, match="cost guard") as err:
            call()
        assert str(err.value).startswith(f"{name} = {param!r}: ")

    # the spin model has n_S^4 = 16: 2^20 steps fill the guard, 10^9 would take 8 GB per stack
    @pytest.mark.parametrize("s_steps", [2 ** 20 + 1, 10 ** 9])
    @pytest.mark.parametrize("converge", [converge_lambda, converge_lambda_interpolated,
                                          converge_tau])
    def test_grid_cost_guard_refuses_before_any_work(self, monkeypatch, converge, s_steps):
        def refuse(*args, **kwargs):
            raise AssertionError("the s grid was formed")

        model = build_spin_model(spin_base())
        args = ([(0.3, 0.2)],) if converge is converge_tau else (1.0, [0.3])
        monkeypatch.setattr(ris.vanhove, "_powers", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValueError, match="cost guard") as err:
            converge(model, *args, 5.0, s_steps)
        assert str(err.value) == (f"s_steps * n_S^4 = {s_steps} * 2^4 = {16 * s_steps} grid "
                                  f"entries exceed the cost guard ({2 ** 24})")
        # at the guard itself the grid is formed
        with pytest.raises(AssertionError, match="the s grid was formed"):
            converge(model, *args, 5.0, 2 ** 20)

    def test_zero_coupling_is_the_free_flow(self):
        # lambda = 0: every time is 0, T^0 = I, and the error is ||I - e^{s gen}||
        model = self.MODELS["random-diagonal-hs"]()
        gen = effective_generator_fast_repetition(model).generator.matrix
        report = converge_tau(model, [(0.0, 0.3)], 2.0, 5)
        assert len(report.rows) == 5
        for p, s, err in report.rows:
            assert p == 0.3
            expected = superop_norm(np.eye(gen.shape[0]) - matrix_exp(s * gen))
            assert abs(err - expected) <= 1e-12


def rotated_model(seed: int, levels, n_e: int = 2) -> RISModel:
    """h_S = q diag(levels) q^† for a random unitary q; random h_E and v."""
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, len(levels))
    h_s = q @ np.diag(levels) @ q.conj().T
    return RISModel(h_s=0.5 * (h_s + h_s.conj().T), h_e=random_hermitian(rng, n_e),
                    v=random_hermitian(rng, len(levels) * n_e), beta=1.0)


# repeated levels make h_S degenerate; with tau = 2 pi the Bohr frequencies
# 0.5 and 1.5 meet at the angle pi and 1.0 and 2.0 at the angle 0
bohr_levels = st.lists(st.sampled_from([-1.3, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=4)
bohr_taus = st.sampled_from([0.7, 1.0, 2 * np.pi, 4 * np.pi / 3])


class TestBohrFrameAverage:
    """The Bohr-frame masks against the Schur route: A0 by a Schur logarithm of
    alpha_S^tau, clustered Schur projections, and the sum of P B P."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), bohr_levels, bohr_taus)
    @example(seed=5, levels=[0.0, 0.5, 1.0, 2.0], tau=2 * np.pi)
    def test_matches_schur_route(self, seed, levels, tau):
        model = rotated_model(seed, levels)

        def close(got, ref):
            return superop_norm(got - ref) <= 1e-12 * max(1.0, superop_norm(ref))

        weak = effective_generator_weak_coupling(model, tau)
        alpha = system_free_evolution(model, tau)
        assert abs(weak.branch_cut_angle - _branch_log(alpha, None)[1]) <= 1e-9
        # every branch of A0 has the eigenprojections of alpha_S^tau, so the average is the
        # same at a quarter, a half and three quarters into the largest angular gap, and in
        # the middle of every other gap that clears the clustering tolerance
        angles = np.sort(np.mod(np.angle(np.linalg.eigvals(alpha.matrix)), 2 * np.pi))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        big = int(np.argmax(gaps))
        cuts = [angles[big] + f * gaps[big] for f in (0.25, 0.5, 0.75)]
        cuts += [a + g / 2 for i, (a, g) in enumerate(zip(angles, gaps)) if i != big and g > 1e-3]
        second = second_order_term(model, tau)
        for cut in cuts:
            ref = -1.0 * spectral_average(second, spectral_decompose(_branch_log(alpha, cut)[0]))
            assert close(weak.generator.matrix, ref.matrix), cut

        cv = commutator_superop(model.v)
        ref = -0.5 * spectral_average(restrict_to_system(model, cv @ cv),
                                      spectral_decompose(derivation_superop(model.h_s)))
        assert close(effective_generator_fast_repetition(model).generator.matrix, ref.matrix)

    def test_no_schur_or_nonsymmetric_eigensolver(self, monkeypatch):
        calls = []
        targets = [(scipy.linalg, "schur"), (np.linalg, "eig"), (np.linalg, "eigvals")]
        targets += [(module, name) for module in (ris.linops, ris.vanhove)
                    for name in ("spectral_decompose", "matrix_log_unitary")
                    if hasattr(module, name)]
        for module, name in targets:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        model = rotated_model(3, [0.0, 0.5, 1.0, 1.0])
        effective_generator_weak_coupling(model, 1.0)
        effective_generator_fast_repetition(model)
        assert calls == []

    def test_default_cut_independent_of_basis(self):
        # the largest angular gap comes as a pair theta, -theta; rounding
        # alone must not pick which one the cut bisects
        levels = [0.2336, -0.3435, 2.5861, -2.7569]
        diagonal = RISModel(h_s=np.diag(levels), h_e=np.diag([0.0, 1.0]),
                            v=random_hermitian(np.random.default_rng(0), 8), beta=1.0)
        cut = effective_generator_weak_coupling(diagonal, 1.0).branch_cut_angle
        for seed in range(5):
            rotated = rotated_model(seed, levels)
            assert abs(effective_generator_weak_coupling(rotated, 1.0).branch_cut_angle
                       - cut) <= 1e-9
        assert cut > 0

    def test_sectors_label_bohr_frequencies(self):
        # spin model: Bohr frequencies (0, -1, 1, 0) in the frame of diag(0, 1)
        eff = effective_generator_fast_repetition(build_spin_model(spin_base()))
        assert eff.sectors[0] == eff.sectors[3]
        assert len(set(eff.sectors.tolist())) == 3
