"""The Hilbert-space reduced maps against the superoperator oracles, on random models."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ris.dynamics import (
    RISModel,
    dyson_term,
    interaction_dynamics,
    reduced_map_T,
    system_free_evolution,
)
from ris.linops import (
    choi_matrix,
    commutator_superop,
    derivation_superop,
    matrix_exp,
    spectral_decompose,
    superop_norm,
)
from ris.vanhove import effective_generator_fast_repetition, second_order_term, spectral_average

from conftest import random_model, random_unitary
from oracles import restrict_to_system

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

sizes = st.sampled_from([2, 3, 4])
betas = st.sampled_from([0.0, 1.0, 50.0])
models = st.builds(lambda seed, n_s, n_e, beta: random_model(np.random.default_rng(seed),
                                                             n_s, n_e, beta),
                   st.integers(0, 2 ** 32 - 1), sizes, sizes, betas)


def max_abs(a):
    return float(np.abs(a).max())


@PROPERTY
@given(models, st.sampled_from([0.0, 0.3, -0.3]), st.sampled_from([0.0, 0.7]))
def test_kraus_map_matches_oracle_and_is_unital_cp(model, lam, t):
    t_map = reduced_map_T(model, lam, t)
    oracle = restrict_to_system(model, interaction_dynamics(model, lam, t))
    assert max_abs(t_map.matrix - oracle.matrix) <= 1e-13
    assert max_abs(t_map.apply(np.eye(model.n_s)) - np.eye(model.n_s)) <= 1e-15
    assert np.linalg.eigvalsh(choi_matrix(t_map)).min() >= -1e-12


# the oracle exponentiates a 3n^2-sided block matrix (768 at n = 16): fewer draws
@settings(PROPERTY, max_examples=10)
@given(models)
def test_second_order_term_matches_block_exponential_oracle(model):
    tau = 0.7
    oracle = restrict_to_system(model, dyson_term(model, 2, tau))
    assert max_abs(second_order_term(model, tau).matrix - oracle.matrix) <= 1e-12


@PROPERTY
@given(models)
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
