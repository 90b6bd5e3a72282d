"""Import hygiene: ``ris`` runs on numpy and the standard library only.

scipy.linalg takes most of a cold ``import ris`` and about 26 MB of
resident memory, so neither importing the package nor running any of its
experiments may load scipy.  Each check starts a fresh interpreter, since
this test process has long since loaded scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_LOADED = ("import json, sys\n{statement}\n"
           "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")

# every experiment through ris.cli.main on the paper's spin model, in one
# interpreter; prints {experiment: [exit code, scipy modules loaded so far]}
_RUN_ALL = """
import json, sys
from pathlib import Path
from ris.cli import EXPERIMENTS, main
out = Path(sys.argv[1])
spin = {"S": 1, "E": 2, "beta": 1, "b": [1, 0], "c": [1, 0], "tau": 1}
report = {}
for name in EXPERIMENTS:
    config = out / f"{name}.json"
    config.write_text(json.dumps({"model": {"spin": spin}, "experiment": name}))
    code = main([name, "--config", str(config), "--out", str(out / f"{name}.csv")])
    report[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(report))
"""


def _fresh_python(args: list) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


def scipy_modules_after(statement: str) -> list:
    """The scipy modules in sys.modules of a fresh interpreter after ``statement``."""
    return json.loads(_fresh_python(["-c", _LOADED.format(statement=statement)]))


@pytest.mark.parametrize("statement", ["import ris", "import ris.cli"])
def test_import_loads_no_scipy(statement):
    assert scipy_modules_after(statement) == []


def test_every_experiment_runs_without_scipy(tmp_path):
    report = json.loads(_fresh_python(["-c", _RUN_ALL, str(tmp_path)]))
    assert len(report) == 7
    assert report == {name: [0, []] for name in report}
