"""Import hygiene: ``import ris`` loads numpy and the standard library only.

scipy.linalg takes most of a cold ``import ris`` when loaded at module
level, so the package imports it on first use.  Each check starts a fresh
interpreter, since this test process has long since loaded scipy.
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


def scipy_modules_after(statement: str) -> list:
    """The scipy modules in sys.modules of a fresh interpreter after ``statement``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(statement=statement)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("statement", ["import ris", "import ris.cli"])
def test_import_loads_no_scipy(statement):
    assert scipy_modules_after(statement) == []


def test_first_exponential_loads_scipy_linalg():
    loaded = scipy_modules_after("import numpy as np, ris; ris.matrix_exp(0.5j * np.eye(2))")
    assert "scipy.linalg" in loaded
