import dataclasses
import json

import numpy as np
import pytest

from ris import RISModel, SpinParams
from ris.cli import parse_config, run


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def u(k, l, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[k, l] = 1.0
    return m


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def spin_base(**overrides):
    """The workhorse spin model: (S, E, beta, tau) = (1, 2, 1, 1), b = c = 1."""
    kw = dict(S=1.0, E=2.0, beta=1.0, b=1.0, c=1.0, tau=1.0)
    kw.update(overrides)
    return SpinParams(**kw)


def cli_trace_distances(out_dir, params: SpinParams, **fields) -> dict:
    """{(lambda, tau): trace_distance} of the CLI ``asymptotic`` experiment on a spin model.

    One ``parse_config`` + ``run`` with the default ``t_samples`` [0], so one
    row per (lambda, tau); ``fields`` are config fields such as ``lambdas``,
    ``taus`` and ``regime``.  Weak-coupling rows carry the model's tau.
    """
    spin = {key: [value.real, value.imag] if isinstance(value, complex) else value
            for key, value in dataclasses.asdict(params).items()}
    doc = {"experiment": "asymptotic", "model": {"spin": spin}, **fields}
    out = out_dir / "asymptotic.csv"
    assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
    header, *lines = out.read_text().splitlines()
    columns = header.split(",")
    distances = {}
    for line in lines:
        row = dict(zip(columns, map(float, line.split(","))))
        distances[row["lambda"], row.get("tau", params.tau)] = row["trace_distance"]
    return distances


def random_two_level_model(rng, safe_gap=True):
    """Random n_S = n_E = 2 model; safe_gap keeps the Bohr gap of h_S away from 0 and pi."""
    if safe_gap:
        split = rng.uniform(0.5, 1.2)
        basis = random_unitary(rng, 2)
        h_s = basis @ np.diag([0.0, split]).astype(complex) @ basis.conj().T
    else:
        h_s = random_hermitian(rng, 2)
    h_e = random_hermitian(rng, 2)
    v = random_hermitian(rng, 4, scale=rng.uniform(0.3, 1.0))
    return RISModel(h_s=h_s, h_e=h_e, v=v, beta=float(rng.uniform(0.0, 2.0)))


def random_model(rng, n_s, n_e, beta=1.0):
    """Random model: h_S = diag of distinct levels spanning [0, 2], h_E and v of spectral norm 1."""
    gaps = rng.uniform(0.5, 1.5, n_s - 1)
    levels = 2.0 * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    h_e = random_hermitian(rng, n_e)
    v = random_hermitian(rng, n_s * n_e)
    return RISModel(h_s=np.diag(levels).astype(complex), h_e=h_e / np.linalg.norm(h_e, 2),
                    v=v / np.linalg.norm(v, 2), beta=beta)


def centred_model(rng, n_s, n_e, beta=1.0):
    """:func:`random_model` with v <- v - (v_bar - Tr(v_bar)/n_S) (x) I, rescaled to spectral
    norm 1, for v_bar = Tr_E[(I (x) rho_E) v]: then v_bar is a multiple of I, so the lambda^1
    term of T(lambda, tau) vanishes and the van Hove limits exist."""
    model = random_model(rng, n_s, n_e, beta)
    v = model.v.reshape(n_s, n_e, n_s, n_e)
    v_bar = np.einsum("icja,ac->ij", v, model.chain_state.rho)
    v = model.v - np.kron(v_bar - np.trace(v_bar) / n_s * np.eye(n_s), np.eye(n_e))
    return RISModel(h_s=model.h_s, h_e=model.h_e, v=v / np.linalg.norm(v, 2), beta=beta)
