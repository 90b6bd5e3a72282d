"""CLI outputs against the benchmark references under perfbench/reference/.

Runs all 7 spin-sweep configs and pool model 0 of grid-dim8 through
``parse_config`` + ``run``, and compares each CSV and sidecar with the
benchmark's own checker (|diff| <= 1e-9 + 1e-9*|ref|).  Only reads
perfbench/.
"""
import json
import sys
from pathlib import Path

import pytest

from ris.cli import parse_config, run

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from csvcheck import compare_csv, compare_meta  # noqa: E402
from workloads import WORKLOADS, configs, reference_dir  # noqa: E402

CASES = [(workload, name) for workload in ("spin-sweep", "grid-dim8")
         for name, _ in configs(WORKLOADS[workload], 0)]


@pytest.mark.parametrize("workload, name", CASES, ids=[f"{w}-{n}" for w, n in CASES])
def test_output_matches_reference(tmp_path, monkeypatch, workload, name):
    monkeypatch.delenv("RIS_MAX_DIM", raising=False)
    text = dict(configs(WORKLOADS[workload], 0))[name]
    out = tmp_path / f"{name}.csv"
    assert run(parse_config(text), out_path=str(out)) == 0
    ref = reference_dir(WORKLOADS[workload], 0)
    assert compare_csv(out.read_text(), (ref / f"{name}.csv").read_text()) is None
    meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
    assert compare_meta(meta, json.loads((ref / f"{name}.meta.json").read_text())) is None
