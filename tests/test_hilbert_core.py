"""The Hilbert-space reduced maps against the superoperator oracles, on random models."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ris.asymptotic import asymptotic_periodic_state, effective_asymptotic_state
from ris.dynamics import (
    RISModel,
    dyson_term,
    dyson_term_quadrature,
    interaction_dynamics,
    reduced_map_T,
    system_free_evolution,
)
from ris.linops import (
    Superoperator,
    matrix_exp,
    spectral_decompose,
    superop_norm,
)
from ris.vanhove import (
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    second_order_term,
)

from conftest import random_model, random_unitary
from oracles import (
    choi_matrix,
    commutator_superop,
    density_from_dual_fixed_point,
    derivation_superop,
    dyson_term_block,
    full_generator,
    restrict_to_system,
    spectral_average,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

sizes = st.sampled_from([2, 3, 4])
betas = st.sampled_from([0.0, 1.0, 50.0])


def drawn_model(seed, n_s, n_e, beta, rotate):
    """:func:`random_model`; with ``rotate``, h_S = U diag(levels) U^† for a random unitary U."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_s, n_e, beta)
    if not rotate:
        return model
    u = random_unitary(rng, n_s)
    h_s = u @ model.h_s @ u.conj().T
    return RISModel(h_s=0.5 * (h_s + h_s.conj().T), h_e=model.h_e, v=model.v, beta=beta)


# h_S diagonal or not: a rotated h_S has a Bohr frame q != I
models = st.builds(drawn_model, st.integers(0, 2 ** 32 - 1), sizes, sizes, betas, st.booleans())


def max_abs(a):
    return float(np.abs(a).max())


@PROPERTY
@given(models, st.sampled_from([0.0, 0.3, -0.3]), st.sampled_from([0.0, 0.7]))
def test_kraus_map_matches_oracle_and_is_unital_cp(model, lam, t):
    t_map = reduced_map_T(model, lam, t)
    oracle = restrict_to_system(model, matrix_exp(t * full_generator(model, lam)))
    assert max_abs(t_map.matrix - oracle.matrix) <= 1e-13
    assert max_abs(t_map.apply(np.eye(model.n_s)) - np.eye(model.n_s)) <= 1e-15
    assert np.linalg.eigvalsh(choi_matrix(t_map)).min() >= -1e-12


# the oracle exponentiates a 3n^2-sided block matrix (768 at n = 16): fewer draws
@settings(PROPERTY, max_examples=10)
@given(models)
def test_second_order_term_matches_block_exponential_oracle(model):
    tau = 0.7
    oracle = restrict_to_system(model, dyson_term_block(model, 2, tau)[1])
    assert max_abs(second_order_term(model, tau).matrix - oracle.matrix) <= 1e-12


# the oracle exponentiates one 5n^2-sided block matrix (1280 at n = 16) for k = 1..4
@settings(PROPERTY, max_examples=10)
@given(models)
def test_dyson_terms_match_block_exponential_oracle(model):
    t = 0.7
    for k, oracle in enumerate(dyson_term_block(model, 4, t), start=1):
        err = max_abs(dyson_term(model, k, t).matrix - oracle.matrix)
        assert err <= 1e-12 * max(1.0, superop_norm(oracle))


# the quadrature costs about 2 * 32^2 n^2-sided GEMMs at k = 3: smaller models
@PROPERTY
@given(st.builds(lambda seed, n_s, n_e: random_model(np.random.default_rng(seed), n_s, n_e),
                 st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.sampled_from([2, 3])),
       st.sampled_from([1, 2, 3]), st.floats(0.0, 1.5))
def test_eigenframe_quadrature_matches_dyson_term(model, k, t):
    err = superop_norm(dyson_term_quadrature(model, k, t, nodes=32) - dyson_term(model, k, t))
    assert err <= 1e-10


@PROPERTY
@given(models, st.sampled_from([0.0, 0.3, -1.0]), st.sampled_from([0.0, 0.5, 1.0]))
def test_interaction_dynamics_matches_superoperator_exponential(model, lam, t):
    oracle = matrix_exp(t * full_generator(model, lam))
    assert max_abs(interaction_dynamics(model, lam, t).matrix - oracle.matrix) <= 1e-12


def leveled_model(seed, levels, n_e, beta):
    """:func:`random_model` with h_S = U diag(levels) U^†, U a random unitary: with repeated
    or equally spaced levels a Bohr sector holds more than one index, and U2 is formed off
    k = k'."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, len(levels), n_e, beta)
    u = random_unitary(rng, len(levels))
    h_s = u @ np.diag(levels) @ u.conj().T
    return RISModel(h_s=0.5 * (h_s + h_s.conj().T), h_e=model.h_e, v=model.v, beta=beta)


spectra = st.lists(st.sampled_from([-1.3, 0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=4)
leveled_models = st.builds(leveled_model, st.integers(0, 2 ** 32 - 1), spectra, sizes, betas)


@PROPERTY
@given(models | leveled_models)
def test_fast_repetition_double_commutator_matches_oracle(model):
    cv = commutator_superop(model.v)
    basis = spectral_decompose(derivation_superop(model.h_s))
    oracle = -0.5 * spectral_average(restrict_to_system(model, cv @ cv), basis)
    got = effective_generator_fast_repetition(model).generator
    assert max_abs(got.matrix - oracle.matrix) <= 1e-12


# repeated levels make h_S degenerate, where eigh may return any basis of an eigenspace
levels = st.lists(st.sampled_from([-1.3, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=4)
times = st.sampled_from([0.0, -4e4, 4e4]) | st.floats(-4e4, 4e4)


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1), levels, times)
def test_free_evolution_from_eigenphases_matches_expm(seed, levels, t):
    n = len(levels)
    q = random_unitary(np.random.default_rng(seed), n)
    h_s = q @ np.diag(levels) @ q.conj().T
    model = RISModel(h_s=0.5 * (h_s + h_s.conj().T), h_e=np.zeros((2, 2)),
                     v=np.zeros((2 * n, 2 * n)), beta=1.0)
    oracle = matrix_exp(t * derivation_superop(model.h_s))
    err = superop_norm(system_free_evolution(model, t) - oracle)
    assert err <= 1e-14 * max(1.0, abs(t) * np.linalg.norm(model.h_s, 2))


@PROPERTY
@given(models, st.sampled_from([0.2, 0.1, 0.05, 0.025]))
def test_density_from_limit_projection_matches_dual_fixed_point(model, lam):
    rho = asymptotic_periodic_state(model, lam, 1.0).asymptotic_density
    oracle = density_from_dual_fixed_point(reduced_map_T(model, lam, 1.0))
    assert max_abs(rho - oracle) <= 1e-10


@PROPERTY
@given(models, st.sampled_from([effective_generator_weak_coupling,
                                lambda model, tau: effective_generator_fast_repetition(model)]))
def test_density_from_zero_projection_matches_dual_null_vector(model, generator):
    gen = generator(model, 1.0)
    rho = effective_asymptotic_state(gen)
    oracle = density_from_dual_fixed_point(gen.generator, point=0.0)
    assert max_abs(rho - oracle) <= 1e-10


@PROPERTY
@given(models, st.sampled_from([effective_generator_weak_coupling,
                                lambda model, tau: effective_generator_fast_repetition(model)]))
def test_generators_have_lindblad_form(model, generator):
    # unital, and conditionally completely positive: the Choi matrix is PSD on the
    # complement of the maximally entangled vector, whose projector the identity map gives
    gen = generator(model, 1.0).generator
    n = model.n_s
    assert max_abs(gen.apply(np.eye(n))) <= 1e-12
    off = np.eye(n * n) - choi_matrix(Superoperator(np.eye(n * n))) / n
    projected = off @ choi_matrix(gen) @ off
    assert np.linalg.eigvalsh(0.5 * (projected + projected.conj().T)).min() >= -1e-12
