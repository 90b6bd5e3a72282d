"""Self-tests of the benchmark: ``PYTHONPATH=src python3 -m pytest -q perfbench``."""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import ris
from ris import cli, dynamics, linops
from ris.linops import Superoperator

import worker
from csvcheck import ATOL, RTOL, compare_csv, compare_meta
from tracer import Tracer, summarize
from workloads import EXPERIMENTS, WORKLOADS, configs, reference_dir

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def ris_functions():
    """(module name, attribute, value) of every function in a ris namespace."""
    return [(name, attr, value) for name, mod in sys.modules.items()
            if name == "ris" or name.startswith("ris.")
            for attr, value in vars(mod).items() if callable(value)]


def test_tracer_counts_nested_matrix_exp_once():
    with Tracer() as tracer:
        linops.matrix_exp(Superoperator(0.1j * np.eye(4)))  # re-enters for the ndarray
        linops.matrix_exp(0.5 * np.eye(3))
    layers = summarize(tracer.spans)
    assert layers["linops.matrix_exp.calls"] == 2
    assert layers["linops.matrix_exp.max_side"] == 4
    assert layers["linops.matrix_exp.side3_sum"] == 4 ** 3 + 3 ** 3


def test_tracer_sees_calls_between_modules_and_restores_them():
    before = {(m, a): v for m, a, v in ris_functions()}
    model = ris.build_spin_model(ris.SpinParams(S=1, E=2, beta=1, b=1, c=1, tau=1))
    with Tracer() as tracer:
        assert dynamics.matrix_exp is not before[("ris.dynamics", "matrix_exp")]
        dynamics.reduced_map_T(model, 0.1, 1.0)
    assert {(m, a): v for m, a, v in ris_functions()} == before
    names = [span[0] for span in tracer.spans]
    assert names == ["dynamics.reduced_map_T", "dynamics.interaction_dynamics",
                     "linops.matrix_exp"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
    layers = summarize(tracer.spans)
    top = tracer.spans[0][2] - tracer.spans[0][1]
    self_total = sum(layers[f"{m}.self_s"] for m in ("dynamics", "linops"))
    assert self_total == pytest.approx(top * 1e-9, rel=1e-12)
    assert min(v for k, v in layers.items() if k.endswith("self_s")) >= 0


def test_perturbed_csv_fails_reference_check():
    ref = (reference_dir(WORKLOADS["grid-dim8"], 0) / "converge-tau.csv").read_text()
    assert compare_csv(ref, ref) is None
    header, first, *rest = ref.splitlines()
    cells = first.split(",")
    value = float(cells[-1])

    def with_last_cell(x):
        return "\n".join([header, ",".join(cells[:-1] + [repr(x)]), *rest]) + "\n"

    assert compare_csv(with_last_cell(value + 0.5 * (ATOL + RTOL * abs(value))), ref) is None
    assert compare_csv(with_last_cell(value + 2 * (ATOL + RTOL * abs(value))), ref)
    assert compare_csv(with_last_cell(float("nan")), ref)
    assert compare_csv(ref.replace("error", "err", 1), ref)
    assert compare_csv("\n".join([header, *rest]) + "\n", ref)
    oracle = (reference_dir(WORKLOADS["spin-sweep"], 0) / "spin-oracle.csv").read_text()
    assert compare_csv(oracle.replace("delta0", "delta1", 1), oracle)


def test_perturbed_sidecar_fails_reference_check():
    ref = json.loads((reference_dir(WORKLOADS["ceiling-dim16"], 0) / "kato.meta.json").read_text())
    assert {"commutator_norm", "extrapolation_stable", "trace_p_plus"} <= set(ref)
    run_meta = {**ref, "wall_time_seconds": 1.0, "config": {}, "new_entry": 1}
    assert compare_meta(run_meta, ref) is None
    defect = ref["subprojection_defect"]
    assert compare_meta({**ref, "subprojection_defect": defect + 0.5 * ATOL}, ref) is None
    assert compare_meta({**ref, "subprojection_defect": defect + 2 * ATOL + RTOL * defect}, ref)
    assert compare_meta({**ref, "extrapolation_stable": not ref["extrapolation_stable"]}, ref)
    assert compare_meta({**ref, "trace_p_plus": True}, ref)
    assert compare_meta({**ref, "distance_ratios": ref["distance_ratios"][:-1]}, ref)
    assert compare_meta({k: v for k, v in ref.items() if k != "trace_p_plus"}, ref)
    effective = json.loads(
        (reference_dir(WORKLOADS["ceiling-dim16"], 0) / "effective.meta.json").read_text())
    assert compare_meta({**effective, "regime": "fast-repetition"}, effective)


def test_metric_names():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    spec_names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(set(spec_names)) == len(spec_names)
    # every name a run can print: BENCHMARK.json's and those of the full record
    names = (spec_names + [w["name"] for w in SPEC["workloads"]] + list(summarize([]))
             + [e.replace("-", "_") + "_s" for e in EXPERIMENTS])
    assert [n for n in names if not pattern.fullmatch(n)] == []
    layer_names = set(summarize([])) | {"trace_overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} <= layer_names
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert EXPERIMENTS == cli.EXPERIMENTS


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch, capsys):
    class NoTracer:
        def __init__(self):
            raise AssertionError("untraced run constructed a tracer")

    monkeypatch.setattr(worker, "Tracer", NoTracer)
    spin = WORKLOADS["spin-sweep"]
    text = dict(configs(spin, 0))["spin-oracle"]
    (tmp_path / "spin-oracle.json").write_text(text)
    plan = {"out_dir": str(tmp_path), "seconds": 0, "trace": 0, "setup_samples": 1,
            "spans_path": str(tmp_path / "spans.json"),
            "experiments": [{"name": "spin-oracle",
                             "config": str(tmp_path / "spin-oracle.json"),
                             "reference": str(reference_dir(spin, 0) / "spin-oracle.csv"),
                             "reference_meta": str(reference_dir(spin, 0)
                                                   / "spin-oracle.meta.json")}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert worker.main(str(tmp_path / "plan.json")) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["traced"] == [] and len(result["plain"]) == worker.MIN_PASSES
    assert len(result["setup"]) == 1 and result["setup"][0] > 0
    assert all(not p["failures"] for p in [result["warmup"], *result["plain"]])
    assert not any(hasattr(v, "__wrapped__") for _, _, v in ris_functions())
    assert not (tmp_path / "spans.json").exists()
