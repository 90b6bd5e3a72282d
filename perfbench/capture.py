"""Rewrite the reference outputs from the current source tree.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/capture.py

Runs every experiment of every workload once (every pool member for the
seeded workloads) through ``ris.cli`` and stores each CSV, and the result
entries of its metadata sidecar, under perfbench/reference/.  Run it only
at a commit whose outputs are the accepted ones; a change that claims the
same numbers must pass the check against the outputs stored here, not
rewrite them.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ris import cli

from csvcheck import meta_outputs
from run import BLAS_THREADS, source_digest
from workloads import POOL, REFERENCE_DIR, WORKLOADS, configs, reference_dir


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != str(BLAS_THREADS):
        print(f"error: set OPENBLAS_NUM_THREADS={BLAS_THREADS}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            os.environ.pop("RIS_MAX_DIM", None)
            if workload.max_dim is not None:
                os.environ["RIS_MAX_DIM"] = str(workload.max_dim)
            for seed in range(POOL if workload.seeded else 1):
                target = reference_dir(workload, seed)
                target.mkdir(parents=True, exist_ok=True)
                for name, text in configs(workload, seed):
                    out = Path(tmp) / f"{name}.csv"
                    code = cli.run(cli.parse_config(text), out_path=str(out))
                    if code != 0:
                        print(f"error: {workload.name} model {seed} {name} exited {code}",
                              file=sys.stderr)
                        return 1
                    (target / f"{name}.csv").write_text(out.read_text())
                    meta = json.loads(out.with_suffix(".meta.json").read_text())
                    (target / f"{name}.meta.json").write_text(
                        json.dumps(meta_outputs(meta), indent=1, sort_keys=True) + "\n")
                print(f"captured {target.relative_to(REFERENCE_DIR)}")
    (REFERENCE_DIR / "manifest.json").write_text(json.dumps({
        "source_sha256": source_digest(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
