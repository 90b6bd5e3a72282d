"""Workload definitions and the seeded model generator.

A workload is a model plus a list of CLI experiments, each one a JSON
config that ``ris.cli.parse_config`` accepts.  The program under test only
ever sees the generated config text.

Random inline models are drawn from a pool of ``POOL`` members: the run
seed selects member ``seed % POOL``, and member k is generated from
``numpy.random.default_rng(k)``.  The pool exists so that every run, with
any seed, can be checked against a CSV captured for exactly that model
(``reference/``).  Generation rule for member k with sizes (n_S, n_E):

* h_S = diag(0, e_1, ..., e_{n_S-1} = LEVEL_SPAN), the gaps e_{i+1} - e_i
  proportional to draws from uniform(0.5, 1.5): distinct levels, every
  Bohr frequency below 2*pi/tau for tau = 1, so alpha_S^tau has no
  accidental resonance.  The span is fixed because the cost of expm grows
  with the norm of its argument: with a span that varied with the seed,
  some dim-16 models needed one more squaring of the 768^2 block
  exponential and ran 10-20% slower, which read as run-to-run noise;
* h_E and v: Hermitian parts of complex Gaussian matrices, each rescaled
  to spectral norm 1;
* beta = 1 and tau = 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 8
LEVEL_SPAN = 2.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GENERATION_RULE = (
    f"model index k = seed % {POOL}, rng = numpy.random.default_rng(k); "
    f"h_S = diag(levels), levels = {LEVEL_SPAN} * cumsum([0] + g) / sum(g), "
    "g = uniform(0.5, 1.5, n_S - 1); "
    "h_E, v = Hermitian part of (N + iN), rescaled to spectral norm 1 "
    "(h_E drawn before v); beta = 1; tau = 1")

# The paper's spin model: (S, E, beta, tau) = (1, 2, 1, 1), b = c = 1.
SPIN_MODEL = {"spin": {"S": 1, "E": 2, "beta": 1, "b": 1, "c": 1, "tau": 1}}

EXPERIMENTS = ("effective", "converge-lambda", "converge-tau", "asymptotic",
               "kato", "dyson-check", "spin-oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    # (experiment, extra config fields); jobs = 1 is added to every config
    experiments: tuple
    sizes: tuple | None = None      # (n_S, n_E) of a random inline model
    max_dim: int | None = None      # RIS_MAX_DIM for the process, when raised

    @property
    def seeded(self) -> bool:
        return self.sizes is not None


WORKLOADS = {w.name: w for w in (
    Workload(
        "spin-sweep",
        tuple((e, {}) for e in EXPERIMENTS)),
    Workload(
        "grid-dim8",
        (("converge-lambda", {"interpolated": True, "tau": 1.0}),
         ("converge-tau", {})),
        sizes=(2, 4)),
    Workload(
        "ceiling-dim16",
        (("effective", {"tau": 1.0}), ("asymptotic", {"tau": 1.0}),
         ("kato", {"tau": 1.0})),
        sizes=(4, 4), max_dim=16),
)}


def model_index(seed: int) -> int:
    return seed % POOL


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    return h / np.linalg.norm(h, 2)


def _encode(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def random_inline_model(index: int, n_s: int, n_e: int) -> dict:
    """Pool member ``index``: the inline model description given by GENERATION_RULE."""
    rng = np.random.default_rng(index)
    gaps = rng.uniform(0.5, 1.5, n_s - 1)
    levels = LEVEL_SPAN * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    h_e = _hermitian(rng, n_e)
    v = _hermitian(rng, n_s * n_e)
    return {"inline": {"h_s": _encode(np.diag(levels)), "h_e": _encode(h_e),
                       "v": _encode(v), "beta": 1.0}}


def configs(workload: Workload, seed: int) -> list:
    """[(experiment, config JSON text)] for one run of ``workload``."""
    if workload.seeded:
        model = random_inline_model(model_index(seed), *workload.sizes)
    else:
        model = SPIN_MODEL
    return [(name, json.dumps({"experiment": name, "model": model, "jobs": 1, **extra}))
            for name, extra in workload.experiments]


def reference_dir(workload: Workload, seed: int) -> Path:
    """Directory holding the reference CSV of each experiment for this run."""
    base = REFERENCE_DIR / workload.name
    return base / f"model-{model_index(seed)}" if workload.seeded else base
