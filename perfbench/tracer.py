"""Outside-in tracer for the ``ris`` package.

``Tracer.install`` rebinds each traced public function, by name, in every
``ris`` namespace that holds it (``from .linops import matrix_exp`` copies
the function into ``ris.dynamics``, ``ris.vanhove``, ``ris.cli`` and
``ris``), so calls made between modules are seen.  ``uninstall`` restores
the originals.  The package itself is never edited.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, side]``
with ``parent`` the index of the enclosing span (-1 at top level) and
``side`` the side of the matrix handed to ``matrix_exp`` (None for every
other function).  A call to a function from inside itself is not a new
span: ``matrix_exp`` re-enters itself for ``Superoperator`` inputs and
counts once.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> public functions whose calls are spans
TARGETS = {
    "cli": ("parse_config", "run"),
    "vanhove": ("second_order_term", "effective_generator_weak_coupling",
                "effective_generator_fast_repetition", "converge_lambda",
                "converge_lambda_interpolated", "converge_tau"),
    "asymptotic": ("limit_projection", "asymptotic_periodic_state",
                   "effective_asymptotic_state", "kato_structure_check"),
    "dynamics": ("reduced_map_T", "interaction_dynamics", "restricted_dynamics",
                 "dyson_term", "dyson_term_quadrature"),
    "linops": ("matrix_exp", "superop_norm", "spectral_decompose",
               "matrix_log_unitary"),
    "spin": ("build_spin_model", "closed_form_deltas", "spin_asymptotic_state"),
}

TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)

_EXPM = "linops.matrix_exp"


def _side(a) -> int:
    """Side of the matrix handed to matrix_exp (Superoperator or ndarray)."""
    return int(np.shape(getattr(a, "matrix", a))[0])


class Tracer:
    """Records a span per call of each traced function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._active: set = set()
        self._saved: list = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"ris.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "ris" and not modname.startswith("ris."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            index = len(spans)
            side = _side(args[0]) if name == _EXPM else None
            spans.append([name, clock(), 0, stack[-1] if stack else -1, side])
            stack.append(index)
            active.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                active.discard(name)

        return traced


def summarize(spans: list) -> dict:
    """Per-layer metrics of one set of spans.

    ``<module>.<function>.calls`` and ``.total_s`` (inclusive) for every
    traced function, ``<module>.self_s`` (span time not covered by a child
    span, summed over the module), and for matrix_exp the largest side and
    the sum of side**3, a computed flop proxy.
    """
    calls = dict.fromkeys(TRACED_NAMES, 0)
    total = dict.fromkeys(TRACED_NAMES, 0)
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_ns = dict.fromkeys(TARGETS, 0)
    for (name, start, end, _, _), covered in zip(spans, child):
        self_ns[name.split(".", 1)[0]] += end - start - covered
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name] * 1e-9
    for module, ns in self_ns.items():
        out[f"{module}.self_s"] = ns * 1e-9
    sides = [span[4] for span in spans if span[0] == _EXPM]
    out[f"{_EXPM}.max_side"] = max(sides, default=0)
    out[f"{_EXPM}.side3_sum"] = sum(side ** 3 for side in sides)
    return out
