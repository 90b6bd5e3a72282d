"""Measuring process: runs one workload's experiments through ``ris.cli``.

Usage: ``python3 perfbench/worker.py <plan.json>`` with ``src`` on
PYTHONPATH.  The plan (written by run.py) lists each experiment's config
file and reference outputs, the output directory, the seconds to measure,
the number of set-up samples and whether to trace.  Each experiment is
one ``cli.parse_config`` plus one ``cli.run``, exactly what one
``ris <experiment> --config ...`` call does after reading its file.  A
pass runs every experiment once.

After one warm-up pass the worker repeats passes until the time is up,
and at least MIN_PASSES times.  With tracing on it alternates untraced
and traced passes, so the tracing overhead is measured in the same
process.  Between passes it times the plan's number of fresh interpreters
importing ``ris`` (the set-up time), spread evenly over the measured
seconds so that a slow stretch of the machine weighs on few of them.
Prints one JSON object on its last line of output.
"""
from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ris
from ris import cli

from csvcheck import compare_csv, compare_meta
from tracer import Tracer, summarize

MIN_PASSES = 3
IMPORT_TIMEOUT_S = 30

# the child reads the system-wide monotonic clock once ris is imported, so
# neither its teardown nor the wait for its exit enters the measurement
_IMPORT_PROBE = "import time, ris; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


def time_import() -> float:
    """Seconds from starting a fresh interpreter to the end of its ``import ris``."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True,
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    return float(proc.stdout) - start


def run_experiment(exp: dict, out_dir: Path) -> tuple:
    """(seconds, failure or None) for one parse plus one run, then the output check."""
    out_path = out_dir / f"{exp['name']}.csv"
    start = time.perf_counter()
    try:
        code = cli.run(cli.parse_config(exp["config_text"]), out_path=str(out_path))
    except Exception as exc:  # any raise is a failed experiment run, reported below
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}"
    mismatch = compare_csv(out_path.read_text(), exp["reference_csv"])
    if mismatch:
        return elapsed, f"CSV differs from reference: {mismatch}"
    meta = json.loads(out_path.with_suffix(".meta.json").read_text())
    mismatch = compare_meta(meta, exp["reference_meta"])
    return elapsed, mismatch and f"sidecar differs from reference: {mismatch}"


def run_pass(experiments: list, out_dir: Path) -> dict:
    gc.collect()
    times, failures = {}, []
    for exp in experiments:
        times[exp["name"]], failure = run_experiment(exp, out_dir)
        if failure:
            failures.append({"experiment": exp["name"], "error": failure})
    return {"times": times, "failures": failures}


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    out_dir = Path(plan["out_dir"])
    experiments = [{"name": e["name"],
                    "config_text": Path(e["config"]).read_text(),
                    "reference_csv": Path(e["reference"]).read_text(),
                    "reference_meta": json.loads(Path(e["reference_meta"]).read_text())}
                   for e in plan["experiments"]]

    warmup = run_pass(experiments, out_dir)
    plain, traced, spans, setup = [], [], [], []
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
           or (plan["trace"] and len(traced) < MIN_PASSES)):
        if plan["trace"] and len(traced) < len(plain):
            with Tracer() as tracer:
                result = run_pass(experiments, out_dir)
            result["layers"] = summarize(tracer.spans)
            traced.append(result)
            spans.append(tracer.spans)
        else:
            plain.append(run_pass(experiments, out_dir))
        # the set-up samples due by now; all of them once the time is up
        elapsed = time.perf_counter() - start
        share = min(elapsed / plan["seconds"], 1.0) if plan["seconds"] > 0 else 1.0
        while len(setup) < plan["setup_samples"] * share:
            setup.append(time_import())
    while len(setup) < plan["setup_samples"]:  # the time ran out during the last samples
        setup.append(time_import())

    if plan["trace"]:
        Path(plan["spans_path"]).write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "expm_side"],
             "passes": spans}, separators=(",", ":")))
    print(json.dumps({
        "warmup": warmup, "plain": plain, "traced": traced, "setup": setup,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "ris": ris.__version__},
        "blas": blas_info(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
