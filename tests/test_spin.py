import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from ris.asymptotic import effective_asymptotic_state
from ris.dynamics import NoAsymptoticStateError, check_H1
from ris.linops import hermitian_defect, matrix_exp
from ris.spin import (
    SpinParams,
    build_spin_model,
    closed_form_deltas,
    fast_repetition_deltas,
    spin_asymptotic_state,
)
from ris.vanhove import effective_generator_weak_coupling

from conftest import spin_base

# direct evaluation of the displayed formulas at (1, 2, 1, 1), b = c = 1,
# frozen before the pipeline was built
DELTA0_REF = -0.4991011892643799
DELTA1_REF = -0.8625147537994395
STATE_REF = np.diag([0.6334493644798731, 0.36655063552012684])


class TestBuild:
    def test_zero_coupling(self):
        model = build_spin_model(spin_base(b=0.0, c=0.0))
        assert not model.v.any()
        assert model.p0 is not None

    def test_hermitian_by_construction(self):
        model = build_spin_model(spin_base(a=0.3 + 0.1j, b=1j, c=2.0, d=-0.5j))
        assert hermitian_defect(model.v) == 0.0

    def test_h1_holds_iff_exchange_only(self):
        assert check_H1(build_spin_model(spin_base()))
        assert build_spin_model(spin_base(a=1.0)).p0 is None

    def test_exchange_couples_the_right_levels(self):
        # b sits on the energy-exchange transition |1,0> <-> |0,1>
        model = build_spin_model(spin_base(b=2.0, c=0.0))
        assert model.v[2, 1] == 2.0  # <10|v|01>
        assert model.v[1, 2] == 2.0
        assert model.v[3, 0] == 0.0  # <11|v|00> carries c
        model_c = build_spin_model(spin_base(b=0.0, c=3.0))
        assert model_c.v[3, 0] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            SpinParams(S=1, E=1, beta=1, b=1, c=1, tau=0.0)
        with pytest.raises(ValueError, match="beta"):
            SpinParams(S=1, E=1, beta=-1, b=1, c=1, tau=1)


class TestClosedFormDeltas:
    def test_no_coupling(self):
        assert closed_form_deltas(spin_base(b=0.0, c=0.0)) == (0.0, 0.0)

    def test_infinite_temperature_symmetry(self):
        d0, d1 = closed_form_deltas(spin_base(beta=0.0, b=1.3, c=0.4))
        assert d0 == pytest.approx(d1)

    def test_frozen_reference_point(self):
        d0, d1 = closed_form_deltas(spin_base())
        assert d0 == pytest.approx(DELTA0_REF, abs=1e-15)
        assert d1 == pytest.approx(DELTA1_REF, abs=1e-15)

    def test_resonance_is_removable(self):
        # E = S: the exchange kernel degenerates to tau^2/2, continuously
        at = closed_form_deltas(spin_base(S=1.0, E=1.0))
        near = closed_form_deltas(spin_base(S=1.0, E=1.0 + 1e-9))
        assert at[0] == pytest.approx(near[0], rel=1e-6)
        assert at[1] == pytest.approx(near[1], rel=1e-6)
        w = np.exp(-1.0)
        expected_d0 = (-2 / (1 + w)) * (w * 0.5 + (1 - np.cos(2.0)) / 4.0)
        assert at[0] == pytest.approx(expected_d0)

    def test_nonpositive_on_grid(self):
        for s, e, beta, tau, (b, c) in itertools.product(
                (0.5, 1.0), (1.0, 2.0), (0.0, 1.0), (0.5, 1.0),
                ((1, 1), (1, 0), (1j, 2))):
            d0, d1 = closed_form_deltas(SpinParams(S=s, E=e, beta=beta,
                                                   b=b, c=c, tau=tau))
            assert d0 <= 0.0 and d1 <= 0.0
            if abs(b) ** 2 + abs(c) ** 2 > 0:
                assert d0 < 0.0 or d1 < 0.0

    def test_fast_repetition_limit(self):
        params = spin_base()
        d0_fast, d1_fast = fast_repetition_deltas(params)
        for tau in (1e-3, 1e-4):
            d0, d1 = closed_form_deltas(spin_base(tau=tau))
            assert d0 / tau ** 2 == pytest.approx(d0_fast, rel=1e-5)
            assert d1 / tau ** 2 == pytest.approx(d1_fast, rel=1e-5)


@dataclass(frozen=True)
class SpinGeneratorReport:
    """Pipeline generator vs closed forms, in the basis {u00, u11, u01, u10}.

    ``block_offdiagonal_defect``: norm of the coupling between the
    population sector {u00, u11} and the coherence sector {u01, u10}
    (zero in exact arithmetic).  ``diag_deviation``: max deviation of the
    population block from [[d0, -d0], [-d1, d1]] (a = d = 0 only).
    ``offdiagonal_bounds``: rows (tau, re01, re10, bound, slack, ok)
    checking Re<u01|gen|u01> <= -(tau^2/2)(|b|^2+|c|^2) up to the stated
    cubic slack, and likewise for u10.
    """
    unitality_defect: float
    block_offdiagonal_defect: float
    diag_deviation: float | None
    delta0_closed: float
    delta1_closed: float
    delta0_pipeline: float
    delta1_pipeline: float
    offdiagonal_bounds: tuple


# reorder vec indices (u00,u01,u10,u11) -> (u00,u11,u01,u10)
_SECTOR_ORDER = (0, 3, 1, 2)


def closed_form_generator_checks(p: SpinParams, bound_taus=(0.1, 0.05)) -> SpinGeneratorReport:
    """Compare the numerically built weak-coupling generator with the closed forms."""
    model = build_spin_model(p)
    gen = effective_generator_weak_coupling(model, p.tau).generator.matrix
    g = gen[np.ix_(_SECTOR_ORDER, _SECTOR_ORDER)]
    d0, d1 = closed_form_deltas(p)

    unitality = float(np.abs(gen @ np.eye(2).reshape(-1)).max())
    off_block = float(np.linalg.norm(g[:2, 2:], 2) + np.linalg.norm(g[2:, :2], 2))
    if p.a == 0 and p.d == 0:
        expected = np.array([[d0, -d0], [-d1, d1]])
        diag_dev = float(np.abs(g[:2, :2] - expected).max())
    else:
        diag_dev = None

    bounds = []
    for tau in bound_taus:
        pt = SpinParams(S=p.S, E=p.E, beta=p.beta, b=p.b, c=p.c, tau=tau, a=p.a, d=p.d)
        gt = effective_generator_weak_coupling(build_spin_model(pt), tau).generator.matrix
        re01 = float(gt[1, 1].real)
        re10 = float(gt[2, 2].real)
        bnorm = np.linalg.norm(np.array([[pt.a, pt.b], [pt.c, pt.d]], dtype=complex), 2)
        bound = -(tau ** 2 / 2.0) * pt.coupling_strength
        slack = 10.0 * tau ** 3 * bnorm ** 2
        ok = re01 <= bound + slack and re10 <= bound + slack
        bounds.append((tau, re01, re10, bound, slack, ok))

    return SpinGeneratorReport(
        unitality_defect=unitality,
        block_offdiagonal_defect=off_block,
        diag_deviation=diag_dev,
        delta0_closed=d0,
        delta1_closed=d1,
        delta0_pipeline=float(gen[0, 0].real),
        delta1_pipeline=float(gen[3, 3].real),
        offdiagonal_bounds=tuple(bounds),
    )


class TestGeneratorChecks:
    def test_pipeline_matches_closed_forms(self):
        report = closed_form_generator_checks(spin_base())
        assert abs(report.delta0_pipeline - report.delta0_closed) <= 1e-9
        assert abs(report.delta1_pipeline - report.delta1_closed) <= 1e-9
        assert report.diag_deviation <= 1e-9
        assert report.unitality_defect <= 1e-10
        assert report.block_offdiagonal_defect <= 1e-9

    def test_offdiagonal_bound_small_tau(self):
        report = closed_form_generator_checks(spin_base(a=0.4 + 0.2j, d=-0.3))
        assert report.diag_deviation is None
        for tau, re01, re10, bound, slack, ok in report.offdiagonal_bounds:
            assert ok, (tau, re01, re10, bound, slack)

    def test_infinite_temperature_offdiagonal_symmetry(self):
        # at beta = 0 with |a| = |d| the two coherence decay rates coincide
        report = closed_form_generator_checks(spin_base(beta=0.0, a=0.5, d=0.5j))
        for tau, re01, re10, _, _, _ in report.offdiagonal_bounds:
            assert re01 == pytest.approx(re10, abs=1e-12)

    def test_row_sum_structure(self):
        # gen(I) = 0 forces the (d0, -d0; -d1, d1) population block
        g = effective_generator_weak_coupling(build_spin_model(spin_base()),
                                              1.0).generator.matrix
        assert abs(g[0, 0] + g[0, 3]) <= 1e-12   # u00 row
        assert abs(g[3, 3] + g[3, 0]) <= 1e-12   # u11 row


class TestAsymptoticState:
    def test_infinite_temperature(self):
        rho = spin_asymptotic_state(spin_base(beta=0.0))
        assert np.allclose(rho, np.eye(2) / 2)

    def test_frozen_reference_point(self):
        rho = spin_asymptotic_state(spin_base())
        assert np.abs(rho - STATE_REF).max() <= 1e-15

    def test_pure_exchange_thermalizes(self):
        # c = 0: only the exchange channel acts and the state carries
        # Gibbs-like weights (1, e^{-beta*E}) regardless of detuning
        params = spin_base(b=1.0, c=0.0, S=0.7, E=1.9, beta=0.8)
        rho = spin_asymptotic_state(params)
        w = np.exp(-params.beta * params.E)
        assert np.allclose(rho, np.diag([1.0, w]) / (1.0 + w))

    def test_state_properties(self):
        rho = spin_asymptotic_state(spin_base(b=1j, c=2.0, beta=0.3))
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() >= 0.0

    def test_error_cases(self):
        with pytest.raises(NoAsymptoticStateError, match="S = 0"):
            spin_asymptotic_state(spin_base(S=0.0))
        with pytest.raises(NoAsymptoticStateError, match="vanish"):
            spin_asymptotic_state(spin_base(b=0.0, c=0.0))

    def test_resonant_tau_has_no_state_in_either_path(self):
        # at tau = 2 pi with S = 1, E = 2 both kernels vanish; the deltas are
        # rounding noise of -6e-32, and the pipeline's verdict agrees
        params = spin_base(tau=2 * np.pi)
        assert abs(sum(closed_form_deltas(params))) <= 1e-30
        with pytest.raises(NoAsymptoticStateError, match="resonant"):
            spin_asymptotic_state(params)
        eff = effective_generator_weak_coupling(build_spin_model(params), params.tau)
        with pytest.raises(NoAsymptoticStateError, match="effective generator"):
            effective_asymptotic_state(eff)

    def test_fixed_by_effective_dynamics(self):
        params = spin_base()
        rho = spin_asymptotic_state(params)
        gen = effective_generator_weak_coupling(build_spin_model(params),
                                                params.tau).generator
        # Schroedinger picture: the dual semigroup leaves rho invariant
        for s in (0.5, 3.0):
            propagated = matrix_exp(s * gen).trace_dual().apply(rho)
            assert np.abs(propagated - rho).max() <= 1e-9

    def test_matches_pipeline_state(self):
        params = spin_base()
        eff = effective_generator_weak_coupling(build_spin_model(params), params.tau)
        pipeline_rho = effective_asymptotic_state(eff)
        assert np.abs(pipeline_rho - spin_asymptotic_state(params)).max() <= 1e-9
