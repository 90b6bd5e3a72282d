"""Benchmark of the ``ris`` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's JSON configs from the seed and starts one
measuring process (worker.py).  For the given seconds it runs the
experiments through ``ris.cli``, checks every output against its
reference, and between passes times fresh interpreters importing ``ris``
(the set-up time).  Prints a full record as a JSON line, then, as the
last line, the result object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``) named in BENCHMARK.json.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import GENERATION_RULE, WORKLOADS, configs, model_index, reference_dir

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

BLAS_THREADS = 1          # single-threaded baseline; at most nproc
SETUP_SAMPLES = 15
# beyond --seconds: start-up, the warm-up pass and the pass under way when
# the time is up, with room for a pass of ceiling-dim16 to run 10x slower
WORKER_ALLOWANCE_S = 100


def worker_env(max_dim: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("RIS_MAX_DIM", None)
    if max_dim is not None:
        env["RIS_MAX_DIM"] = str(max_dim)
    return env


def timing_stats(samples: list) -> dict:
    """Median, max and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    stats = {"n": n, "median": statistics.median(ordered), "max": ordered[-1]}
    if n > 10:
        stats["percentile"] = round(100.0 * (n - 10) / n, 1)
        stats["percentile_value"] = ordered[n - 11]
    return stats


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ris").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        # the ceiling keeps git from reading a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize_run(worker: dict, experiments: list) -> dict:
    passes = worker["plain"]
    per_exp = {name.replace("-", "_") + "_s": timing_stats([p["times"][name] for p in passes])
               for name in experiments}
    summary = {"pass_s": timing_stats([sum(p["times"].values()) for p in passes]),
               "experiments": per_exp}
    if worker["traced"]:
        traced = worker["traced"]
        traced_pass = statistics.median(sum(p["times"].values()) for p in traced)
        layers = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        layers["trace_overhead_frac"] = traced_pass / summary["pass_s"]["median"] - 1.0
        summary["traced_pass_s"] = timing_stats([sum(p["times"].values()) for p in traced])
        summary["layers"] = layers
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ris" / "__init__.py").is_file():
        print(f"error: no ris package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = worker_env(workload.max_dim)

    run_dir = RUN_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    refs = reference_dir(workload, args.seed)
    plan = {"out_dir": str(run_dir / "out"), "seconds": args.seconds, "trace": args.trace,
            "setup_samples": SETUP_SAMPLES, "spans_path": str(run_dir / "spans.json"),
            "experiments": []}
    for name, text in configs(workload, args.seed):
        config_path = run_dir / f"{name}.json"
        config_path.write_text(text)
        plan["experiments"].append({"name": name, "config": str(config_path),
                                    "reference": str(refs / f"{name}.csv"),
                                    "reference_meta": str(refs / f"{name}.meta.json")})
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               str(plan_path)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=args.seconds + WORKER_ALLOWANCE_S)
    except subprocess.TimeoutExpired as exc:
        print(exc.stderr or "", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.splitlines()[-1])

    names = [name for name, _ in workload.experiments]
    all_passes = [worker["warmup"]] + worker["plain"] + worker["traced"]
    failures = [f for p in all_passes for f in p["failures"]]
    attempted = len(all_passes) * len(names)
    summary = summarize_run(worker, names)
    setup = worker["setup"]
    values = {"setup_s": statistics.median(setup),
              "pass_s": summary["pass_s"]["median"],
              "peak_rss_mb": worker["peak_rss_mb"],
              **summary.get("layers", {})}
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "model": ({"index": model_index(args.seed), "rule": GENERATION_RULE,
                   "sizes": workload.sizes} if workload.seeded else "paper spin model"),
        "environment": {"commit": commit(), "source_sha256": source_digest(),
                        "nproc": os.cpu_count(), **worker["versions"],
                        "blas": {**worker["blas"], "threads": BLAS_THREADS},
                        "RIS_MAX_DIM": env.get("RIS_MAX_DIM"), "jobs": 1},
        "setup_s": timing_stats(setup), "peak_rss_mb": worker["peak_rss_mb"],
        "failed_frac": len(failures) / attempted, "failures": failures,
        **summary,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
