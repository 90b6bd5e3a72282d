"""The names the benchmark's tracer binds still exist in ``ris``.

``perfbench/tracer.py`` rebinds each function of its ``TARGETS`` by name,
and ``perfbench/test_perfbench.py`` builds ``ris.linops.Superoperator``
values and exponentiates them.  The benchmark's own tests are not on the
test path, so these checks catch a deleted or renamed traced function
here.  Only reads perfbench/.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import TRACED_NAMES  # noqa: E402


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_traced_name_is_a_function_of_its_module(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"ris.{module}"), function, None))


def test_superoperator_exponential_used_by_the_benchmark_tests():
    from ris.linops import Superoperator, matrix_exp
    result = matrix_exp(Superoperator(0.1j * np.eye(4)))
    assert isinstance(result, Superoperator)
    assert np.allclose(result.matrix, np.exp(0.1j) * np.eye(4))
