"""Rotating the system rotates every output: h_S -> U h_S U^†, v -> (U ⊗ I) v (U ⊗ I)^†.

The maps on M_S are computed in the Bohr frame of h_S and converted to the
computational basis only where a public value is given in it.  A model with
a diagonal h_S has q = I, so there a missing conversion shows nowhere; these
tests run a model and its rotation, where q != I.  Scalars (errors, Kato
distances, trace distances) must not move, a generator or map must become
F_U g F_U^† with F_U = kron(U, conj U), and a density U rho U^†, each at the
benchmark's tolerance |diff| <= 1e-9 + 1e-9*|ref|.
"""
import json

import numpy as np
import pytest

from ris.cli import parse_config, run
from ris.dynamics import (
    RISModel,
    reduced_map_T,
    restricted_dynamics,
    system_free_evolution,
)
from ris.linops import kron
from ris.vanhove import second_order_term

from conftest import random_unitary

N_S, N_E = 4, 2


def coupled_model() -> RISModel:
    """dim-8 model: v = A ⊗ |0><1| + A^† ⊗ |1><0| couples the chain element across its levels."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((N_S, N_S)) + 1j * rng.standard_normal((N_S, N_S))
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    v = kron(a, lower) + kron(a.conj().T, lower.T)
    return RISModel(h_s=np.diag([0.0, 0.45, 1.05, 1.9]).astype(complex),
                    h_e=np.diag([0.0, 1.3]).astype(complex),
                    v=v / np.linalg.norm(v, 2), beta=1.0)


def rotated(model: RISModel, u: np.ndarray) -> RISModel:
    big = kron(u, np.eye(N_E))
    return RISModel(h_s=u @ model.h_s @ u.conj().T, h_e=model.h_e,
                    v=big @ model.v @ big.conj().T, beta=model.beta)


ROTATION = random_unitary(np.random.default_rng(11), N_S)
FRAME = kron(ROTATION, ROTATION.conj())

EXPERIMENTS = {  # id -> (experiment, config fields)
    "effective-weak": ("effective", {"tau": 1.0}),
    "effective-fast": ("effective", {"regime": "fast-repetition"}),
    "converge-lambda": ("converge-lambda", {"tau": 1.0, "lambdas": [0.4, 0.2], "s_steps": 8}),
    "converge-lambda-interpolated": ("converge-lambda", {"tau": 1.0, "lambdas": [0.4, 0.2],
                                                         "s_steps": 8, "interpolated": True}),
    "converge-tau": ("converge-tau", {"lambdas": [1.0], "taus": [0.2, 0.1], "s_steps": 8}),
    "asymptotic-weak": ("asymptotic", {"tau": 1.0, "lambdas": [0.3, 0.2],
                                       "t_samples": [0.0, 0.4]}),
    "asymptotic-fast": ("asymptotic", {"regime": "fast-repetition", "lambdas": [1.0],
                                       "taus": [0.2, 0.1], "t_samples": [0.0, 0.05]}),
    "kato": ("kato", {"tau": 1.0}),
}


def encode(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m]


def rows_of(tmp_path, model: RISModel, experiment: str, fields: dict) -> tuple:
    """(header, rows as float arrays) of one CLI run on ``model``."""
    doc = {"experiment": experiment, "model": {"inline": {
        "h_s": encode(model.h_s), "h_e": encode(model.h_e), "v": encode(model.v),
        "beta": model.beta}}, **fields}
    out = tmp_path / f"{experiment}.csv"
    assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
    header, *lines = out.read_text().splitlines()
    return header.split(","), np.array([[float(x) for x in line.split(",")] for line in lines])


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    gap = np.abs(got - ref) - 1e-9 * np.abs(ref)
    assert gap.max() <= 1e-9, float(gap.max())


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_outputs_rotate_with_the_system(tmp_path, name):
    experiment, fields = EXPERIMENTS[name]
    model = coupled_model()
    header, ref = rows_of(tmp_path, model, experiment, fields)
    header_rot, got = rows_of(tmp_path, rotated(model, ROTATION), experiment, fields)
    assert header_rot == header
    if experiment == "effective":
        n = N_S * N_S
        assert np.array_equal(got[:, :2], ref[:, :2])
        g = (ref[:, 2] + 1j * ref[:, 3]).reshape(n, n)
        g_rot = (got[:, 2] + 1j * got[:, 3]).reshape(n, n)
        assert_close(g_rot, FRAME @ g @ FRAME.conj().T)
    elif experiment == "asymptotic":
        lead = header.index("rho_00_re")
        assert_close(got[:, :lead], ref[:, :lead])
        assert_close(got[:, -1], ref[:, -1])  # trace distances
        for row, row_rot in zip(ref, got):
            pairs = row[lead:-1].reshape(N_S, N_S, 2)
            rho = pairs[..., 0] + 1j * pairs[..., 1]
            pairs = row_rot[lead:-1].reshape(N_S, N_S, 2)
            assert_close(pairs[..., 0] + 1j * pairs[..., 1],
                         ROTATION @ rho @ ROTATION.conj().T)
    else:  # converge rows (parameter, s, error) and Kato rows (eps, distance)
        assert_close(got, ref)


@pytest.mark.parametrize("name, value", [
    ("reduced_map_T", lambda m: reduced_map_T(m, 0.3, 0.7)),
    ("restricted_dynamics", lambda m: restricted_dynamics(m, 0.3, 0.7, 2.5)),
    ("system_free_evolution", lambda m: system_free_evolution(m, 1.3)),
    ("second_order_term", lambda m: second_order_term(m, 0.7)),
])
def test_public_maps_rotate_with_the_system(name, value):
    model = coupled_model()
    m = value(model).matrix
    assert_close(value(rotated(model, ROTATION)).matrix, FRAME @ m @ FRAME.conj().T)
