"""Command-line runner: config ingestion, experiment orchestration, CSV emission.

Usage: ``ris <experiment> --config <path> [--out <path>] [--jobs N]``.

Configs are JSON; a complex scalar is a number or a two-element array
[re, im], and a complex matrix is a list of rows whose entries may mix
plain numbers and [re, im] pairs.  Every run writes a results CSV (fixed
columns per experiment) and a metadata JSON sidecar (config echo with
defaults filled in, itself a valid config, package version, wall time,
row count, and the run's diagnostics such as kato's).  The sidecar is one
object with one top-level key per line, in sorted order; each value is
compact JSON on its key's line.  Each experiment hands the writer one float
table whose columns are the CSV's, and ``spin-oracle`` a leading label column
too; the CSV body is that table in a fixed row order, every number in 17
significant digits, independent of the parallelism degree.
Exit codes: 0 success, 2 oracle tolerance failure (``dyson-check``: an error
above its bound by more than eps n^2 max(1, t D), n = n_S * n_E and D the
spread of the eigenvalues of H_0 + v; ``spin-oracle``: a row above the oracle
tolerance, and a state row above the pipeline's error estimate too), 1 anything
else; a state the pipeline refuses for precision leaves out its rows (``state_rows``).
``effective``, ``asymptotic`` and ``spin-oracle`` read ``regime``;
fast-repetition ``asymptotic`` runs over the (lambda, tau) pairs of
``converge-tau``.  Every field is read by some experiments only; one that
the run would not read is a config error, and so is a repeated entry that
keys the CSV rows: lambda in ``converge-lambda`` and weak-coupling
``asymptotic``, tau in ``converge-tau``, the (lambda, tau) pair in
fast-repetition ``asymptotic``, ``t_samples``, ``dyson_times``,
``dyson_orders`` and ``eps`` (``kato`` needs two at least); so is a
``dyson-check`` or a converge grid beyond the cost guards of
:mod:`ris.dynamics`, and a dyson time whose series bound overflows.  No
field sets a branch cut: each branch of log alpha_S^tau gives the same
generator, and ``effective`` records the cut it read.  RIS_MAX_DIM
overrides the default dimension cap (n_S * n_E <= 8).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import copy
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotic import (
    PrecisionExhaustedError,
    _effective_state,
    asymptotic_periodic_state,
    effective_asymptotic_state,
    kato_structure_check,
    trace_distance,
)
from .dynamics import (
    MAX_DYSON_ORDER,
    NoAsymptoticStateError,
    RISModel,
    check_grid,
    check_H1,
    check_quadrature,
    check_series_exponent,
    dyson_allowance,
    dyson_check,
)
from .linops import NotHermitianError
from .spin import (
    SpinParams,
    build_spin_model,
    closed_form_deltas,
    fast_repetition_deltas,
    spin_asymptotic_state,
)
from .vanhove import (
    FAST_REPETITION,
    converge_lambda,
    converge_lambda_interpolated,
    converge_tau,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
)

EXPERIMENTS = ("effective", "converge-lambda", "converge-tau", "asymptotic",
               "kato", "dyson-check", "spin-oracle")
#: the experiments that read ``regime``
REGIME_EXPERIMENTS = ("effective", "asymptotic", "spin-oracle")
#: rows per :func:`_csv_body` call of the CSV writer, which holds one chunk's cells as floats
_CSV_CHUNK_ROWS = 8192


#: the types of JSON numbers as json.loads makes them; bool is not one of them
_REALS = {int, float}


def _number(x) -> bool:
    """A finite JSON number: not true or false, nor an integer beyond the float range."""
    try:
        return type(x) in _REALS and math.isfinite(x)
    except OverflowError:
        return False


def _positive(x) -> bool:
    return _number(x) and x > 0


def _integer(low: int):
    return lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= low


_CONVERGE = ("converge-lambda", "converge-tau")
_WEAK = ("effective/weak", "asymptotic/weak")

#: field -> (default, check, what the check expects, the runs that read it,
#: the runs whose CSV rows its entries key, so that a repeat is an error).
#: A run is named by its experiment and, in one regime of a
#: REGIME_EXPERIMENTS entry, also by "<experiment>/weak" or "/fast".  A list
#: default makes the field a non-empty array and a dict default an object
#: with only those keys; the check then applies to each element or entry.
_FIELDS = {
    "regime": ("weak-coupling", lambda x: x in ("weak-coupling", "fast-repetition"),
               '"weak-coupling" or "fast-repetition"', REGIME_EXPERIMENTS, ()),
    # null: the tau of the spin model; spin-oracle always takes that one
    "tau": (None, _positive, "a positive number", ("converge-lambda", "kato", *_WEAK), ()),
    "lambdas": ([0.2, 0.1, 0.05], _positive, "a positive number",
                (*_CONVERGE, "asymptotic"), ("converge-lambda", "asymptotic/weak")),
    # the paired runs; fast-repetition asymptotic keys its rows by the
    # (lambda, tau) pair, reported at $.taus[i]
    "taus": ([0.2, 0.1, 0.05], _positive, "a positive number",
             ("converge-tau", "asymptotic/fast"), ("converge-tau", "asymptotic/fast")),
    "eps": ([0.04, 0.02, 0.01, 0.005], _positive, "a positive number", ("kato",), ("kato",)),
    "s_max": (5.0, _positive, "a positive number", _CONVERGE, ()),
    "s_steps": (50, _integer(2), "an integer >= 2", _CONVERGE, ()),
    "interpolated": (False, lambda x: isinstance(x, bool), "true or false",
                     ("converge-lambda",), ()),
    "quadrature_order": (32, _integer(1), "an integer >= 1", ("dyson-check",), ()),
    # order k needs the Dyson terms up to k - 1
    "dyson_orders": ([2, 3, 4], lambda x: _integer(1)(x) and x <= MAX_DYSON_ORDER + 1,
                     f"an integer in [1, {MAX_DYSON_ORDER + 1}]",
                     ("dyson-check",), ("dyson-check",)),
    "dyson_times": ([0.5, 1.0], lambda x: _number(x) and x >= 0, "a nonnegative number",
                    ("dyson-check",), ("dyson-check",)),
    "t_samples": ([0.0], _number, "a number", ("asymptotic",), ("asymptotic",)),
    "tolerances": ({"oracle": 1e-9}, _positive, "a positive number", ("spin-oracle",), ()),
    "jobs": (1, _integer(1), "an integer >= 1", EXPERIMENTS, ()),
    "output": (None, lambda x: x is None or isinstance(x, str), "a path or null", EXPERIMENTS, ()),
}


class ConfigError(ValueError):
    """Schema violation, annotated with the JSON path of the offending entry."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    experiment: str
    model: RISModel
    spin_params: SpinParams | None
    lambdas: list
    taus: list
    eps: list
    s_max: float
    s_steps: int
    interpolated: bool
    quadrature_order: int
    dyson_orders: list
    dyson_times: list
    t_samples: list
    regime: str
    tau: float | None  # None where the run does not read it
    jobs: int
    tolerances: dict
    output: str | None
    echo: dict = field(repr=False, default_factory=dict)


def _complex_scalar(value, path: str) -> complex:
    if _number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(path, "expected a finite number or a two-element [re, im] array")


def _decoded(value: list):
    """The square matrix ``value`` as a complex array, or None if a row or an entry is bad.

    One type test per entry, then one numpy call for the whole matrix: each
    entry becomes an (re, im) float pair, and the pairs viewed as complex128
    are complex(re, im) to the bit, signed zeros included.
    """
    n = len(value)
    if not all(isinstance(row, list) and len(row) == n for row in value):
        return None
    pairs = [x if isinstance(x, list) else (x, 0.0) for row in value for x in row]
    if not _REALS.issuperset(map(type, itertools.chain.from_iterable(pairs))):
        return None
    try:
        parts = np.array(pairs, dtype=float)
    except (ValueError, OverflowError):  # pairs of unequal lengths; an integer beyond float
        return None
    # pairs all of one wrong length, [re] or [re, im, x], make another shape
    if parts.shape != (n * n, 2) or not np.isfinite(parts).all():
        return None
    return parts.view(complex).reshape(n, n)


def _complex_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty matrix (list of rows)")
    matrix = _decoded(value)
    if matrix is not None:
        return matrix
    # the path of the first bad row or entry, in row-major order
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"{path}[{i}]", "matrix must be square")
        for j, x in enumerate(row):
            _complex_scalar(x, f"{path}[{i}][{j}]")
    raise ConfigError(path, "expected a square matrix of finite numbers or [re, im] arrays")


def _checked(key: str, value):
    """``value`` of the config field ``key``, validated against :data:`_FIELDS`."""
    default, ok, expected, _, _ = _FIELDS[key]
    path = f"$.{key}"
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty array")
        entries = [(f"{path}[{i}]", x) for i, x in enumerate(value)]
    elif isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(path, "expected an object")
        for name in value:
            if name not in default:
                raise ConfigError(f"{path}.{name}", "unknown field")
        entries = [(f"{path}.{name}", x) for name, x in value.items()]
        value = {**default, **value}
    else:
        entries = [(path, value)]
    for where, x in entries:
        if not ok(x):
            raise ConfigError(where, f"expected {expected}")
    return value


#: model kind -> (required fields, optional fields)
_MODELS = {"spin": (("S", "E", "beta", "tau"), ("b", "c", "a", "d")),
           "inline": (("h_s", "h_e", "v", "beta"), ())}


def _build_model(doc: dict, path: str) -> tuple[RISModel, SpinParams | None]:
    for kind in doc:
        if kind not in _MODELS:
            raise ConfigError(f"{path}.{kind}", "unknown field")
    if len(doc) != 1:
        raise ConfigError(path, 'expected one "spin" or "inline" model description')
    (kind, spec), = doc.items()
    path = f"{path}.{kind}"
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    required, optional = _MODELS[kind]
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}.{key}", "missing required field")
    for key in spec:
        if key not in required + optional:
            raise ConfigError(f"{path}.{key}", "unknown field")
    for key in ("S", "E", "beta", "tau"):
        if key in spec and not _number(spec[key]):
            raise ConfigError(f"{path}.{key}", "expected a finite number")
    if kind == "spin":
        couplings = {key: _complex_scalar(spec.get(key, 0.0), f"{path}.{key}") for key in optional}
        try:
            params = SpinParams(**{key: float(spec[key]) for key in required}, **couplings)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        return build_spin_model(params), params
    matrices = {key: _complex_matrix(spec[key], f"{path}.{key}") for key in ("h_s", "h_e", "v")}
    try:
        model = RISModel(**matrices, beta=float(spec["beta"]))
    except NotHermitianError as exc:  # the model names the field it checked
        raise ConfigError(f"{path}.{exc.name}", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return model, None


def _max_dim() -> int:
    raw = os.environ.get("RIS_MAX_DIM", "8")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("$RIS_MAX_DIM", f"not an integer: {raw!r}")


def _pairs(lambdas: list, taus: list) -> list:
    """(lambda, tau) pairs of the fast-repetition regime: one lambda for all taus, or one each."""
    if len(lambdas) == 1:
        return [(lambdas[0], t) for t in taus]
    if len(lambdas) == len(taus):
        return list(zip(lambdas, taus))
    raise ConfigError("$.lambdas", "need one lambda or one per tau")


def _guarded(path: str, check, *args) -> None:
    """check(*args), a cost guard of :mod:`ris.dynamics`; its ValueError as a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment description; fill and echo defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$", "top-level document must be an object")
    if "experiment" not in doc:
        raise ConfigError("$.experiment", "missing required field")
    experiment = doc["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError("$.experiment", f"unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")
    if "model" not in doc or not isinstance(doc["model"], dict):
        raise ConfigError("$.model", "missing model object")
    model, spin_params = _build_model(doc["model"], "$.model")

    cap = _max_dim()
    if model.dim > cap:
        raise ConfigError("$.model", f"full dimension {model.dim} exceeds the cap {cap} "
                          "(override with RIS_MAX_DIM)")

    # a default is a scalar, or a list or dict of scalars: a shallow copy of each is a deep one
    merged = {key: copy.copy(row[0]) for key, row in _FIELDS.items()}
    for key, value in doc.items():
        if key in ("experiment", "model"):
            continue
        if key not in _FIELDS:
            raise ConfigError(f"$.{key}", "unknown field")
        merged[key] = _checked(key, value)

    if experiment == "spin-oracle" and spin_params is None:
        raise ConfigError("$.model", "experiment 'spin-oracle' requires a spin model")
    if experiment == "spin-oracle" and not check_H1(model):  # p0 only for a = d = 0
        raise ConfigError(f"$.model.spin.{'a' if spin_params.a != 0 else 'd'}",
                          "the spin closed forms need a = d = 0 (hypothesis H1)")
    # the run's names in _FIELDS; a field the run would not read is an error,
    # not silently ignored
    run = {experiment, experiment + ("/fast" if merged["regime"] == FAST_REPETITION else "/weak")}
    reads = {key: not run.isdisjoint(row[3]) for key, row in _FIELDS.items()}
    for key, read in reads.items():
        if key in doc and not read:
            regime = f" in the {merged['regime']} regime" if reads["regime"] else ""
            raise ConfigError(f"$.{key}", f"experiment {experiment!r}{regime} does not read it")
    if reads["tau"]:
        if merged["tau"] is None and spin_params is None:
            raise ConfigError("$.tau", "missing required field (no spin tau to fall back on)")
        merged["tau"] = float(spin_params.tau if merged["tau"] is None else merged["tau"])
    # the echo is itself a config this run accepts: it leaves out what the run ignores
    echo = {"experiment": experiment, "model": doc["model"],
            **{key: value for key, value in merged.items() if reads[key]}}
    pairs = _pairs(merged["lambdas"], merged["taus"]) if reads["taus"] else None
    if experiment == "asymptotic":
        # sample times lie within one period: the shortest of the pairs
        period = min(merged["taus"]) if pairs else merged["tau"]
        for i, t in enumerate(merged["t_samples"]):
            if not 0 <= t < period:
                raise ConfigError(f"$.t_samples[{i}]", f"expected a time in [0, {period:g})")
    if experiment in _CONVERGE:
        _guarded("$.s_steps", check_grid, merged["s_steps"], model.n_s)
    if experiment == "kato" and len(merged["eps"]) < 2:  # two extrapolate to eps = 0+
        raise ConfigError("$.eps", "expected two entries at least")
    if experiment == "dyson-check":
        if max(merged["dyson_orders"]) >= 2:  # the run checks the terms 1..3 below the top order
            _guarded("$.quadrature_order", check_quadrature, merged["quadrature_order"])
        for i, t in enumerate(merged["dyson_times"]):
            _guarded(f"$.dyson_times[{i}]", check_series_exponent, t * model.commutator_norm)
    for key, row in _FIELDS.items():
        if not run.isdisjoint(row[4]):
            values = pairs if key == "taus" and experiment == "asymptotic" else merged[key]
            for i, x in enumerate(values):
                if x in values[:i]:
                    raise ConfigError(f"$.{key}[{i}]", f"repeats the grid parameter {x!r}")
    return ExperimentConfig(experiment=experiment, model=model, spin_params=spin_params,
                            echo=echo, **merged)


def _csv_body(table: np.ndarray, labels=()) -> str:
    """The CSV lines of the float table ``table``, each ended by a newline, from one format
    call: the row's entry of ``labels`` as it is, if any, then every number in "%.17g", the
    text of format(x, ".17g").  Raises ValueError on a non-finite number."""
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"non-finite value {float(table[~finite][0])!r} in results")
    line = ",".join(("%s",) * bool(labels) + ("%.17g",) * table.shape[1]) + "\n"
    if labels:
        table = np.column_stack([np.array(labels, dtype=object), table.astype(object)])
    return (line * len(table)) % tuple(table.reshape(-1).tolist())


# ---------------------------------------------------------------------------
# per-experiment drivers; the _rows_* workers are top-level so that they can
# be dispatched to worker processes, taking only picklable payloads
# ---------------------------------------------------------------------------

def _rows_converge(payload) -> np.ndarray:
    converge, args = payload
    # the (parameter, s, error) rows; fromiter is half the cost of np.array over tuples
    return np.fromiter(itertools.chain.from_iterable(converge(*args).rows), float).reshape(-1, 3)


def _rows_asymptotic(payload) -> np.ndarray:
    model, lam, tau, tau_column, t_samples, eff_density = payload
    report = asymptotic_periodic_state(model, lam, tau, t_samples=t_samples)
    dist = trace_distance(report.asymptotic_density, eff_density)
    times, states = zip(*report.period_samples)
    lead = np.tile((lam, tau) if tau_column else (lam,), (len(times), 1))
    # row-major entries, each as (re, im): the column order of the header
    entries = np.asarray(states, dtype=complex).view(float).reshape(len(times), -1)
    return np.column_stack([lead, times, entries, np.full(len(times), dist)])


def _shares(params: list, jobs: int) -> list:
    """The strided shares params[k::jobs]: at most ``jobs`` of them, none empty."""
    n = max(1, min(jobs, len(params)))
    return [params[k::n] for k in range(n)]


def _parallel_table(fn, payloads, jobs: int) -> np.ndarray:
    """The tables fn(payload) as one, its rows in ascending order, first column first."""
    if jobs > 1 and len(payloads) > 1:
        # the pool forks all its workers at once: no more of them than payloads
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            tables = list(pool.map(fn, payloads))
    else:
        tables = [fn(p) for p in payloads]
    table = np.concatenate(tables)
    return table[np.lexsort(table.T[::-1])]


def _effective(config: ExperimentConfig, tau: float | None):
    """The effective generator of the run's regime; weak coupling reads ``tau``."""
    if config.regime == FAST_REPETITION:
        return effective_generator_fast_repetition(config.model)
    return effective_generator_weak_coupling(config.model, tau)


def _run_experiment(config: ExperimentConfig, jobs: int):
    """Returns (header, table, labels, metadata_extras, exit_code): one float table with the
    columns of ``header``, and for ``spin-oracle`` only a leading label column ``labels``."""
    model, tau = config.model, config.tau
    extras = {}

    if config.experiment in ("converge-lambda", "converge-tau"):
        # worker k takes the strided share params[k::jobs] through one call of the
        # public converge_* function, which builds the generator and flows once
        grid = (config.s_max, config.s_steps)
        if config.experiment == "converge-lambda":
            converge = converge_lambda_interpolated if config.interpolated else converge_lambda
            payloads = [(converge, (model, tau, share, *grid))
                        for share in _shares(sorted(config.lambdas, reverse=True), jobs)]
        else:
            payloads = [(converge_tau, (model, share, *grid))
                        for share in _shares(_pairs(config.lambdas, config.taus), jobs)]
        table = _parallel_table(_rows_converge, payloads, jobs)
        return ["parameter", "s", "error"], table, (), extras, 0

    if config.experiment == "asymptotic":
        fast = config.regime == FAST_REPETITION
        pairs = (_pairs(config.lambdas, config.taus) if fast
                 else [(lam, tau) for lam in config.lambdas])
        rho_eff = effective_asymptotic_state(_effective(config, tau))
        payloads = [(model, lam, t, fast, config.t_samples, rho_eff) for lam, t in pairs]
        table = _parallel_table(_rows_asymptotic, payloads, jobs)
        header = ["lambda", "tau", "t"] if fast else ["lambda", "t"]
        for i in range(model.n_s):
            for j in range(model.n_s):
                header.extend([f"rho_{i}{j}_re", f"rho_{i}{j}_im"])
        header.append("trace_distance")
        return header, table, (), extras, 0

    if config.experiment == "effective":
        eff = _effective(config, tau)
        extras["regime"] = eff.regime
        extras["branch_cut_angle"] = eff.branch_cut_angle
        g = eff.generator.matrix
        table = np.column_stack([*np.indices(g.shape).reshape(2, -1), g.real.ravel(),
                                 g.imag.ravel()])
        return ["row", "col", "entry_re", "entry_im"], table, (), extras, 0

    if config.experiment == "kato":
        report = kato_structure_check(model, tau, config.eps)
        # every diagnostic but the rows, which are the table
        extras.update({k: v for k, v in vars(report).items() if k != "distance_rows"})
        return ["eps", "distance_to_p0plus"], np.array(report.distance_rows), (), extras, 0

    if config.experiment == "dyson-check":
        table = dyson_check(model, config.dyson_orders, config.dyson_times,
                            config.quadrature_order)
        # the computed error has a rounding floor where the bound tends to 0
        passed = (table[:, 3] <= table[:, 4] + dyson_allowance(model, table[:, 2])).all()
        return (["order", "lambda", "t", "truncation_error", "bound", "blockexp_vs_quadrature"],
                table, (), extras, 0 if passed else 2)

    if config.experiment == "spin-oracle":
        params = config.spin_params
        deltas = fast_repetition_deltas if config.regime == FAST_REPETITION else closed_form_deltas
        eff = _effective(config, params.tau)
        d0, d1 = deltas(params)
        g = eff.generator.matrix
        labels, pairs = ["delta0", "delta1"], [(d0, g[0, 0].real), (d1, g[-1, -1].real)]
        limits = [config.tolerances["oracle"]] * 2
        try:
            rho_closed = spin_asymptotic_state(params, deltas)
        except NoAsymptoticStateError:  # no closed-form state: the delta rows only
            pass
        else:
            try:
                rho_pipe, estimate = _effective_state(eff)
            except PrecisionExhaustedError as exc:  # nor one the pipeline resolves: say why
                extras["state_rows"] = f"left out: {exc}"
            else:  # the pipeline's state is good to its error estimate
                labels += ["rho_00", "rho_11"]
                pairs += [(rho_closed[i, i].real, rho_pipe[i, i].real) for i in range(2)]
                limits += [max(limits[0], estimate)] * 2
        table = np.array([(closed, pipe, abs(closed - pipe)) for closed, pipe in pairs])
        code = 0 if (table[:, 2] <= limits).all() else 2
        return ["quantity", "closed_form", "pipeline", "abs_diff"], table, labels, extras, code

    raise ConfigError("$.experiment", f"unhandled experiment {config.experiment!r}")


def _write_outputs(config: ExperimentConfig, header, table, labels, extras, out_path, wall, jobs):
    if not np.isfinite(table).all():  # the error, before the file opens: no CSV is written
        _csv_body(table, labels)
    with open(out_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), _CSV_CHUNK_ROWS):
            fh.write(_csv_body(table[i:i + _CSV_CHUNK_ROWS], labels[i:i + _CSV_CHUNK_ROWS]))
    meta = {
        "config": config.echo,
        "version": __version__,
        "wall_time_seconds": wall,
        "jobs": jobs,
        "rows": len(table),
        **extras,
    }
    # one sorted key per line, each value encoded whole: no indent, so the C encoder runs
    members = (f"  {json.dumps(key)}: {json.dumps(meta[key], sort_keys=True, default=repr)}"
               for key in sorted(meta))
    meta_path = os.path.splitext(out_path)[0] + ".meta.json"
    with open(meta_path, "w") as fh:
        fh.write("{\n" + ",\n".join(members) + "\n}\n")
    return meta_path


def run(config: ExperimentConfig, out_path: str | None = None,
        jobs: int | None = None) -> int:
    """Execute one experiment; write CSV + metadata sidecar; return the exit code."""
    jobs = jobs if jobs is not None else config.jobs
    out_path = out_path or config.output or f"{config.experiment}.csv"
    start = time.perf_counter()
    header, table, labels, extras, code = _run_experiment(config, jobs)
    wall = time.perf_counter() - start
    _write_outputs(config, header, table, labels, extras, out_path, wall, jobs)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ris",
        description="Repeated-interaction system experiments (exact dynamics, "
                    "van Hove limits, asymptotic states).")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="results CSV path")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers over grid rows")
    args = parser.parse_args(argv)
    if args.jobs is not None and not _FIELDS["jobs"][1](args.jobs):
        print(f"error: --jobs: expected {_FIELDS['jobs'][2]}", file=sys.stderr)
        return 1
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if config.experiment != args.experiment:
            print(f"error: config declares experiment {config.experiment!r}, "
                  f"command line says {args.experiment!r}", file=sys.stderr)
            return 1
        return run(config, out_path=args.out, jobs=args.jobs)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
