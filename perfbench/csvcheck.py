"""Comparison of a CLI run's outputs with their references.

Two outputs per experiment: the results CSV and the metadata sidecar
(``<name>.meta.json``).  In the CSV, headers, row counts and text cells
must match exactly.  Of the sidecar, every key but the config echo, the
package version, ``jobs`` and the run's own wall time is an output
(``kato``'s projection defects and ``extrapolation_stable``,
``effective``'s ``regime`` and ``branch_cut_angle``, the row count):
booleans, strings and nulls must match exactly and lists element by
element.  Numbers, in either file, match when
|actual - reference| <= ATOL + RTOL * |reference|.

Why 1e-9 for both: it is the program's own oracle tolerance
(``tolerances.oracle``), and rounding alone moves these outputs less.
Every reference recomputed with 2 BLAS threads instead of 1 differs by at
most 1.7e-12 absolute in the CSVs (a kato distance of 3.1e-3).  Relative
differences reach 4.2e-9 on entries near 1e-6 (absolute 5.8e-15), which
is why the test is absolute-plus-relative and not relative alone.  In the
sidecars the largest difference is 5.9e-10, in kato's
``distance_ratios`` near 1.7 (ratios of differences of distances, which
magnify rounding), against a tolerance of 2.7e-9 there.  A difference
beyond the tolerance is a change of the numbers, not of the order of
arithmetic.
"""
from __future__ import annotations

ATOL = 1e-9
RTOL = 1e-9

# sidecar keys that echo the input or time the run rather than report a result
META_INPUTS = ("config", "version", "jobs", "wall_time_seconds")


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= ATOL + RTOL * abs(y)


def compare_csv(actual: str, reference: str) -> str | None:
    """None when ``actual`` matches ``reference``, else the first difference."""
    got, want = actual.splitlines(), reference.splitlines()
    if not want:
        return "reference is empty"
    if not got or got[0] != want[0]:
        return f"header {got[:1]} != {want[0]!r}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows != {len(want) - 1}"
    for line, (row, ref_row) in enumerate(zip(got, want), start=1):
        cells, ref_cells = row.split(","), ref_row.split(",")
        if len(cells) != len(ref_cells):
            return f"line {line}: {len(cells)} cells != {len(ref_cells)}"
        for col, (cell, ref_cell) in enumerate(zip(cells, ref_cells)):
            try:
                x, y = float(cell), float(ref_cell)
            except ValueError:
                if cell != ref_cell:
                    return f"line {line} col {col}: {cell!r} != {ref_cell!r}"
                continue
            if not _close(x, y):
                return f"line {line} col {col}: {cell} != {ref_cell}"
    return None


def meta_outputs(meta: dict) -> dict:
    """The result entries of a sidecar, the part kept as its reference."""
    return {key: value for key, value in meta.items() if key not in META_INPUTS}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if _is_number(want):
        return _is_number(got) and _close(got, want)
    return type(got) is type(want) and got == want


def compare_meta(actual: dict, reference: dict) -> str | None:
    """None when the sidecar ``actual`` holds every reference entry, else the first difference.

    Keys beyond the reference's are allowed: a new sidecar entry changes no
    existing output.
    """
    if not reference:
        return "sidecar reference is empty"
    for key, want in reference.items():
        if key not in actual:
            return f"sidecar lacks {key!r}"
        if not _same(actual[key], want):
            return f"sidecar {key}: {actual[key]!r} != {want!r}"
    return None
