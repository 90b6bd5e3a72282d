"""CLI outputs against the benchmark references under perfbench/reference/.

Runs all 7 spin-sweep configs, both converge experiments of every
grid-dim8 pool model and the effective, asymptotic and kato experiments of
every ceiling-dim16 pool model (the random-model asymptotic references)
through ``parse_config`` + ``run``, with the workload's RIS_MAX_DIM, and
compares each CSV and sidecar with the benchmark's own checker
(|diff| <= 1e-9 + 1e-9*|ref|).  Only reads perfbench/.
"""
import json
import sys
from pathlib import Path

import pytest

from ris.cli import parse_config, run

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from csvcheck import compare_csv, compare_meta  # noqa: E402
from workloads import POOL, WORKLOADS, configs, reference_dir  # noqa: E402

# (workload, seed, experiment); seed k runs pool model k of a seeded workload
CASES = [("spin-sweep", 0, name) for name, _ in configs(WORKLOADS["spin-sweep"], 0)] + [
    (workload, seed, name) for workload in ("grid-dim8", "ceiling-dim16") for seed in range(POOL)
    for name, _ in configs(WORKLOADS[workload], seed)]


def case_id(workload, seed, name):
    model = f"model{seed}-" if seed else ""
    return f"{workload}-{model}{name}"


@pytest.mark.parametrize("workload, seed, name", CASES, ids=[case_id(*c) for c in CASES])
def test_output_matches_reference(tmp_path, monkeypatch, workload, seed, name):
    spec = WORKLOADS[workload]
    if spec.max_dim is None:
        monkeypatch.delenv("RIS_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("RIS_MAX_DIM", str(spec.max_dim))
    text = dict(configs(spec, seed))[name]
    out = tmp_path / f"{name}.csv"
    assert run(parse_config(text), out_path=str(out)) == 0
    ref = reference_dir(spec, seed)
    assert compare_csv(out.read_text(), (ref / f"{name}.csv").read_text()) is None
    meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
    assert compare_meta(meta, json.loads((ref / f"{name}.meta.json").read_text())) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_config_parses(monkeypatch, workload):
    spec = WORKLOADS[workload]
    if spec.max_dim is not None:
        monkeypatch.setenv("RIS_MAX_DIM", str(spec.max_dim))
    for seed in range(POOL if spec.seeded else 1):
        for name, text in configs(spec, seed):
            assert parse_config(text).experiment == name
