import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ris.cli
import ris.dynamics
import ris.linops
import ris.vanhove
from ris.cli import ConfigError, main, parse_config, run
from ris.dynamics import RISModel
from ris.linops import superop_norm
from ris.spin import fast_repetition_deltas

from conftest import random_model, random_unitary
from oracles import commutator_superop

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import random_inline_model  # noqa: E402  (only reads perfbench/)

SPIN_MODEL = {"spin": {"S": 1, "E": 2, "beta": 1, "b": [1, 0], "c": [1, 0], "tau": 1}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_minimal_spin_config(self):
        config = parse_config(json.dumps({"model": SPIN_MODEL,
                                          "experiment": "spin-oracle"}))
        assert config.experiment == "spin-oracle"
        assert config.spin_params.tau == 1.0
        assert config.model.dim == 4
        assert config.tolerances["oracle"] == 1e-9

    def test_missing_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"model": SPIN_MODEL}))
        assert err.value.path == "$.experiment"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match=r"\$\.experiment"):
            parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "nope"}))

    def test_empty_lambdas(self):
        with pytest.raises(ConfigError, match=r"\$\.lambdas"):
            parse_config(json.dumps({"model": SPIN_MODEL,
                                     "experiment": "converge-lambda",
                                     "lambdas": []}))

    def test_non_hermitian_inline_matrix(self):
        doc = {"model": {"inline": {"h_s": [[0, [0, 1]], [[0, 1], 0]],
                                    "h_e": [[0, 0], [0, 1]],
                                    "v": [[0] * 4 for _ in range(4)],
                                    "beta": 1.0}},
               "experiment": "effective", "tau": 1.0}
        with pytest.raises(ConfigError, match="asymmetry"):
            parse_config(json.dumps(doc))

    def test_inline_model_roundtrips_through_echo(self):
        v = [[0.0, [0.25, -0.125], 0.0, 0.0],
             [[0.25, 0.125], 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, [0.0, -1.0]],
             [0.0, 0.0, [0.0, 1.0], 0.0]]
        doc = {"model": {"inline": {"h_s": [[0, 0], [0, 1]],
                                    "h_e": [[0, 0], [0, 2]],
                                    "v": v, "beta": 0.5}},
               "experiment": "effective", "tau": 1.0}
        config = parse_config(json.dumps(doc))
        assert config.echo["model"]["inline"]["v"] == v
        # echo is itself a parseable config describing the same model
        reparsed = parse_config(json.dumps(config.echo))
        assert np.array_equal(reparsed.model.v, config.model.v)

    @pytest.mark.parametrize("fields", [
        {"experiment": e} for e in ris.cli.EXPERIMENTS] + [
        {"experiment": e, "regime": "fast-repetition"} for e in ris.cli.REGIME_EXPERIMENTS],
        ids=lambda f: "-".join(f.values()))
    def test_echo_reparses_to_the_same_echo(self, fields):
        # lambdas only where the run reads them
        reads_lambdas = fields["experiment"] in ("converge-lambda", "converge-tau", "asymptotic")
        lambdas = {"lambdas": [0.2]} if reads_lambdas else {}
        config = parse_config(json.dumps({"model": SPIN_MODEL, **lambdas, **fields}))
        assert parse_config(json.dumps(config.echo)).echo == config.echo

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("RIS_MAX_DIM", "2")
        with pytest.raises(ConfigError, match="cap"):
            parse_config(json.dumps({"model": SPIN_MODEL,
                                     "experiment": "spin-oracle"}))
        monkeypatch.setenv("RIS_MAX_DIM", "8")
        parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "spin-oracle"}))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.lambda"):
            parse_config(json.dumps({"model": SPIN_MODEL,
                                     "experiment": "spin-oracle",
                                     "lambda": [0.1]}))


BAD_VALUES = [  # (field, value, JSON path of the error)
    ("interpolated", "false", "$.interpolated"),
    ("quadrature_order", 3.7, "$.quadrature_order"),
    ("quadrature_order", 0, "$.quadrature_order"),
    ("branch_cut_angle", "pi", "$.branch_cut_angle"),
    ("dyson_orders", ["2"], "$.dyson_orders[0]"),
    ("dyson_orders", [2, 0], "$.dyson_orders[1]"),
    # the cost guards of the run: the Dyson terms up to 8, 256 quadrature nodes
    ("dyson_orders", [2, 10], "$.dyson_orders[1]"),
    ("quadrature_order", 257, "$.quadrature_order"),
    ("dyson_times", [0.5, True], "$.dyson_times[1]"),
    ("dyson_times", [-0.5], "$.dyson_times[0]"),
    # t ||[v,.]|| past 700: the series bound, about e^(t ||[v,.]||), overflows a float
    ("dyson_times", [0.5, 1e3], "$.dyson_times[1]"),
    ("dyson_times", [1e6], "$.dyson_times[0]"),
    ("dyson_times", [1e12, 0.5], "$.dyson_times[0]"),
    ("dyson_times", [1e30], "$.dyson_times[0]"),
    ("dyson_times", [1e300], "$.dyson_times[0]"),
    ("t_samples", "0", "$.t_samples"),
    ("tolerances", {"orcale": 1.0}, "$.tolerances.orcale"),
    ("tolerances", {"cluster": 1e-8}, "$.tolerances.cluster"),
    ("tolerances", {"peripheral": 1e-9}, "$.tolerances.peripheral"),
    ("tolerances", {"oracle": "1e-9"}, "$.tolerances.oracle"),
    ("parametrization_order", 1, "$.parametrization_order"),
    ("output", 5, "$.output"),
    ("tau", "1", "$.tau"),
]


@pytest.mark.parametrize("key, value, path", BAD_VALUES,
                         ids=[f"{key}={value!r}" for key, value, _ in BAD_VALUES])
def test_bad_value_is_a_config_error(tmp_path, capsys, key, value, path):
    doc = {"model": SPIN_MODEL, "experiment": "dyson-check", key: value}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "dyson.csv"
    assert main(["dyson-check", "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


def test_dyson_check_cost_guards_are_those_of_the_run(monkeypatch):
    def leggauss(nodes):
        raise AssertionError(f"leggauss({nodes}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)

    def parses(**fields):
        try:
            parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "dyson-check",
                                     **fields}))
        except ConfigError:
            return False
        return True

    top = ris.dynamics.MAX_DYSON_ORDER + 1  # order k needs the terms up to k - 1
    assert parses(dyson_orders=[top]) and not parses(dyson_orders=[top + 1])
    # order 1 needs no quadrature; a quadrature needs leggauss(nodes), an eigenproblem of
    # side nodes, and (N + 1) N n phases: any run that computes one is refused beyond
    # MAX_QUADRATURE_NODES
    assert parses(quadrature_order=10 ** 9, dyson_orders=[1])
    cap = ris.dynamics.MAX_QUADRATURE_NODES
    assert cap == 256
    for orders in ([2], [3], [2, 3], [2, 3, 4], [1, 4], [9]):
        assert parses(quadrature_order=cap, dyson_orders=orders)
        assert not parses(quadrature_order=cap + 1, dyson_orders=orders)
        assert not parses(quadrature_order=2 * 10 ** 6, dyson_orders=orders)


def diagonal_inline(n_s, n_e=1):
    """An inline model of n_S distinct levels and no coupling: cheap to parse at any size."""
    return {"inline": {"h_s": np.diag(np.arange(n_s, dtype=float)).tolist(),
                       "h_e": np.zeros((n_e, n_e)).tolist(),
                       "v": np.zeros((n_s * n_e, n_s * n_e)).tolist(), "beta": 1.0}}


@pytest.mark.parametrize("experiment", ["converge-lambda", "converge-tau"])
def test_converge_grid_cost_guard_is_that_of_the_run(monkeypatch, experiment):
    cap = ris.dynamics.MAX_GRID_ENTRIES
    monkeypatch.setenv("RIS_MAX_DIM", "32")

    def parses(model, n_s, s_steps=50):
        doc = {"model": model, "experiment": experiment, "s_steps": s_steps}
        if experiment == "converge-lambda":
            doc["tau"] = 1.0
        try:
            parse_config(json.dumps(doc))
        except ConfigError as err:
            assert err.path == "$.s_steps"
            assert str(err).endswith(f"{s_steps} * {n_s}^4 = {s_steps * n_s ** 4} grid entries "
                                     f"exceed the cost guard ({cap})")
            return False
        return True

    # the spin model: n_S = 2, 16 entries per map
    assert parses(SPIN_MODEL, 2, cap // 16) and not parses(SPIN_MODEL, 2, cap // 16 + 1)
    assert not parses(SPIN_MODEL, 2, 10 ** 9)
    # the default 50 steps up to n_S = 24
    assert parses(diagonal_inline(24), 24) and not parses(diagonal_inline(25), 25)
    assert not parses(diagonal_inline(32), 32)
    assert parses(diagonal_inline(4, 4), 4, cap // 4 ** 4)
    assert not parses(diagonal_inline(4, 4), 4, cap // 4 ** 4 + 1)


@pytest.mark.parametrize("experiment", ["converge-lambda", "converge-tau"])
def test_cli_converge_grid_cost_guard_comes_before_any_work(tmp_path, capsys, monkeypatch,
                                                            experiment):
    def refuse(*args, **kwargs):
        raise AssertionError("the converge run started")

    monkeypatch.setattr(ris.vanhove, "_powers", refuse)
    monkeypatch.setattr(ris.vanhove, "effective_generator_weak_coupling", refuse)
    monkeypatch.setattr(ris.vanhove, "effective_generator_fast_repetition", refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    path = write_config(tmp_path, {"model": SPIN_MODEL, "experiment": experiment,
                                   "s_steps": 1_000_000_000})
    out = tmp_path / "c.csv"
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: $.s_steps: ") and "cost guard" in err
    assert not out.exists()


# only "effective", "asymptotic" and "spin-oracle" read the regime: anywhere
# else it would be silently ignored
IGNORED_REGIMES = [  # (experiment, regime)
    ("dyson-check", "weak-coupling"),
    ("converge-lambda", "fast-repetition"),
    ("converge-tau", "weak-coupling"),
    ("kato", "weak-coupling"),
]


@pytest.mark.parametrize("experiment, regime", IGNORED_REGIMES,
                         ids=[f"{e}-{r}" for e, r in IGNORED_REGIMES])
def test_regime_outside_effective_is_a_config_error(tmp_path, capsys, experiment, regime):
    doc = {"model": SPIN_MODEL, "experiment": experiment, "regime": regime}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == "$.regime"
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert "$.regime" in capsys.readouterr().err
    assert not out.exists()


# a top-level tau or a branch cut where the run reads neither would be silently ignored
IGNORED_FIELDS = [  # (experiment, extra config fields, JSON path of the error)
    ("converge-tau", {"tau": 1.0}, "$.tau"),
    ("asymptotic", {"regime": "fast-repetition", "lambdas": [1.0], "tau": 1.0}, "$.tau"),
    ("effective", {"regime": "fast-repetition", "tau": 1.0}, "$.tau"),
    ("dyson-check", {"tau": 1.0}, "$.tau"),
    ("spin-oracle", {"tau": 5.0}, "$.tau"),
    ("converge-tau", {"branch_cut_angle": 0.5}, "$.branch_cut_angle"),
    ("kato", {"branch_cut_angle": 0.5}, "$.branch_cut_angle"),
    ("dyson-check", {"branch_cut_angle": None}, "$.branch_cut_angle"),
    ("effective", {"regime": "fast-repetition", "branch_cut_angle": 0.5},
     "$.branch_cut_angle"),
    ("asymptotic", {"regime": "fast-repetition", "lambdas": [1.0], "branch_cut_angle": 0.5},
     "$.branch_cut_angle"),
    ("spin-oracle", {"regime": "fast-repetition", "branch_cut_angle": 0.5},
     "$.branch_cut_angle"),
]


@pytest.mark.parametrize("experiment, fields, path", IGNORED_FIELDS,
                         ids=[f"{e}-{'-'.join(f)}" for e, f, _ in IGNORED_FIELDS])
def test_ignored_tau_or_branch_cut_is_a_config_error(tmp_path, capsys, experiment, fields,
                                                     path):
    doc = {"model": SPIN_MODEL, "experiment": experiment, **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


# every field is read by some runs only; anywhere else it would be silently ignored
UNREAD_FIELDS = [  # (experiment, extra config fields, JSON path of the error)
    ("kato", {"lambdas": [9.0], "dyson_times": [3.0], "s_steps": 7}, "$.lambdas"),
    ("kato", {"dyson_times": [3.0]}, "$.dyson_times"),
    ("kato", {"s_steps": 7}, "$.s_steps"),
    ("effective", {"lambdas": [0.1]}, "$.lambdas"),
    ("effective", {"eps": [0.02, 0.01]}, "$.eps"),
    ("converge-lambda", {"eps": [0.02, 0.01]}, "$.eps"),
    ("asymptotic", {"s_max": 2.0}, "$.s_max"),
    ("spin-oracle", {"s_steps": 7}, "$.s_steps"),
    ("converge-tau", {"interpolated": True}, "$.interpolated"),
    ("kato", {"interpolated": False}, "$.interpolated"),
    ("converge-lambda", {"quadrature_order": 8}, "$.quadrature_order"),
    ("spin-oracle", {"dyson_orders": [2]}, "$.dyson_orders"),
    ("asymptotic", {"dyson_times": [0.5]}, "$.dyson_times"),
    ("converge-lambda", {"t_samples": [0.0]}, "$.t_samples"),
    ("converge-lambda", {"taus": [0.1]}, "$.taus"),
    ("asymptotic", {"taus": [0.1]}, "$.taus"),
    ("dyson-check", {"tolerances": {"oracle": 1e-6}}, "$.tolerances"),
]


@pytest.mark.parametrize("experiment, fields, path", UNREAD_FIELDS,
                         ids=[f"{e}-{'-'.join(f)}" for e, f, _ in UNREAD_FIELDS])
def test_unread_field_is_a_config_error(tmp_path, capsys, experiment, fields, path):
    doc = {"model": SPIN_MODEL, "experiment": experiment, **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ris.cli.EXPERIMENTS)
def test_jobs_and_output_are_read_by_every_experiment(tmp_path, experiment):
    doc = {"model": SPIN_MODEL, "experiment": experiment, "jobs": 1,
           "output": str(tmp_path / "out.csv")}
    config = parse_config(json.dumps(doc))
    assert (config.jobs, config.output) == (1, doc["output"])
    assert (config.echo["jobs"], config.echo["output"]) == (1, doc["output"])


# the grid parameters key the CSV rows: (parameter, s) for converge, (lambda, t)
# or (lambda, tau, t) for asymptotic, (order, lambda, t) for dyson-check and eps
# for kato; a repeat writes two row sets under one key, which for converge-tau
# hold different errors; kato extrapolates to eps = 0+ from two eps at least
FAST = {"regime": "fast-repetition"}
REPEATED_PARAMETERS = [  # (experiment, extra config fields, JSON path of the error)
    ("converge-lambda", {"lambdas": [0.2, 0.1, 0.2], "s_steps": 3}, "$.lambdas[2]"),
    ("converge-lambda", {"lambdas": [0.1, 0.1], "interpolated": True, "s_steps": 3},
     "$.lambdas[1]"),
    ("converge-tau", {"lambdas": [1, 2], "taus": [0.1, 0.1], "s_steps": 3}, "$.taus[1]"),
    ("converge-tau", {"lambdas": [1.0], "taus": [0.2, 0.1, 0.2], "s_steps": 3}, "$.taus[2]"),
    ("asymptotic", {"lambdas": [0.2, 0.1, 0.2]}, "$.lambdas[2]"),
    ("asymptotic", {**FAST, "lambdas": [1.0], "taus": [0.2, 0.1, 0.2]}, "$.taus[2]"),
    ("asymptotic", {**FAST, "lambdas": [1.0, 1.0], "taus": [0.2, 0.2]}, "$.taus[1]"),
    ("asymptotic", {"lambdas": [0.2], "t_samples": [0.0, 0.5, 0.0]}, "$.t_samples[2]"),
    ("asymptotic", {**FAST, "lambdas": [1.0], "taus": [0.2], "t_samples": [0.1, 0.1]},
     "$.t_samples[1]"),
    ("dyson-check", {"dyson_times": [0.5, 0.5]}, "$.dyson_times[1]"),
    ("dyson-check", {"dyson_orders": [2, 3, 2]}, "$.dyson_orders[2]"),
    ("kato", {"eps": [0.02, 0.02, 0.01]}, "$.eps[1]"),
    ("kato", {"eps": [0.01]}, "$.eps"),
]


@pytest.mark.parametrize("experiment, fields, path", REPEATED_PARAMETERS,
                         ids=[f"{e}-{fields['regime']}-{path}" if "regime" in fields
                              else f"{e}-{path}" for e, fields, path in REPEATED_PARAMETERS])
def test_repeated_grid_parameter_is_a_parse_error(tmp_path, capsys, experiment, fields, path):
    doc = {"model": SPIN_MODEL, "experiment": experiment, **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


def test_repeated_lambda_across_pairs_is_accepted():
    # converge-tau keys its rows by tau: one lambda shared by two taus is fine
    config = parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "converge-tau",
                                      "lambdas": [1.0, 1.0], "taus": [0.2, 0.1]}))
    assert config.lambdas == [1.0, 1.0]


def test_repeated_lambda_across_asymptotic_pairs_is_accepted():
    # fast-repetition asymptotic keys its rows by (lambda, tau): distinct pairs are fine
    config = parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "asymptotic", **FAST,
                                      "lambdas": [1.0, 1.0, 2.0], "taus": [0.2, 0.1, 0.2]}))
    assert config.lambdas == [1.0, 1.0, 2.0] and config.taus == [0.2, 0.1, 0.2]


# the fast-repetition regime pairs one lambda with every tau, or one with each
@pytest.mark.parametrize("fields", [
    {"experiment": "converge-tau"},
    {"experiment": "asymptotic", "regime": "fast-repetition"},
], ids=["converge-tau", "asymptotic-fast-repetition"])
def test_unpaired_lambdas_are_a_parse_error(fields):
    doc = {"model": SPIN_MODEL, "lambdas": [1.0, 2.0], "taus": [0.2, 0.1, 0.05], **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == "$.lambdas"


# every sample time lies in [0, tau), tau the shortest pair's in the fast-repetition regime
BAD_SAMPLE_TIMES = [  # (extra config fields, JSON path of the error, test id)
    ({"t_samples": [1.5]}, "$.t_samples[0]", "beyond-tau"),
    ({"t_samples": [0.0, -0.2]}, "$.t_samples[1]", "negative"),
    ({"t_samples": [0.5, 1.0]}, "$.t_samples[1]", "period-end"),
    ({"tau": 0.5, "t_samples": [0.25, 0.75]}, "$.t_samples[1]", "beyond-explicit-tau"),
    ({"regime": "fast-repetition", "lambdas": [1.0], "taus": [0.2, 0.1],
      "t_samples": [0.0, 0.15]}, "$.t_samples[1]", "beyond-shortest-pair"),
]


@pytest.mark.parametrize("fields, path", [case[:2] for case in BAD_SAMPLE_TIMES],
                         ids=[case[2] for case in BAD_SAMPLE_TIMES])
def test_sample_time_outside_the_period_is_a_config_error(tmp_path, capsys, fields, path):
    doc = {"model": SPIN_MODEL, "experiment": "asymptotic", "lambdas": [0.2], **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


NAN = float("nan")
INLINE = {"h_s": [[0, 0], [0, 1]], "h_e": [[0, 0], [0, 2]],
          "v": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], "beta": 1.0}


def spin(**fields):
    return {"spin": {**SPIN_MODEL["spin"], **fields}}


def inline(**fields):
    return {"inline": {**INLINE, **fields}}


BAD_MODELS = [  # (model object, JSON path of the error, test id)
    (spin(S="1"), "$.model.spin.S", "spin-S-string"),
    (spin(beta=True), "$.model.spin.beta", "spin-beta-true"),
    (spin(E=NAN), "$.model.spin.E", "spin-E-nan"),
    (spin(tau=NAN), "$.model.spin.tau", "spin-tau-nan"),
    (spin(b=True), "$.model.spin.b", "spin-b-true"),
    (spin(c=[1, True]), "$.model.spin.c", "spin-c-pair-true"),
    (spin(a=[NAN, 0]), "$.model.spin.a", "spin-a-pair-nan"),
    (spin(gamma=1), "$.model.spin.gamma", "spin-unknown-key"),
    (inline(h_s=[[True, 0], [0, 1]]), "$.model.inline.h_s[0][0]", "inline-entry-true"),
    (inline(v=[[0, [0, True], 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
     "$.model.inline.v[0][1]", "inline-pair-true"),
    (inline(h_e=[[0, 0], [0, NAN]]), "$.model.inline.h_e[1][1]", "inline-entry-nan"),
    (inline(h_s=[[0, 1], [0, 1]]), "$.model.inline.h_s", "inline-h_s-not-hermitian"),
    (inline(h_e=[[0, [0, 1]], [[0, 1], 2]]), "$.model.inline.h_e", "inline-h_e-not-hermitian"),
    (inline(v=[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 0]]),
     "$.model.inline.v", "inline-v-not-hermitian"),
    (inline(beta=True), "$.model.inline.beta", "inline-beta-true"),
    (inline(beta=NAN), "$.model.inline.beta", "inline-beta-nan"),
    (inline(rho_e=[[1, 0], [0, 0]]), "$.model.inline.rho_e", "inline-unknown-key"),
    # nothing reads p0 of an inline model: no experiment checks H1
    (inline(p0=[[1, 0], [0, 0]]), "$.model.inline.p0", "inline-p0"),
    ({**SPIN_MODEL, "inline": INLINE}, "$.model", "spin-and-inline"),
    ({**SPIN_MODEL, "comment": "x"}, "$.model.comment", "model-unknown-key"),
]


@pytest.mark.parametrize("model, path", [case[:2] for case in BAD_MODELS],
                         ids=[case[2] for case in BAD_MODELS])
def test_bad_model_is_a_config_error(tmp_path, capsys, model, path):
    doc = {"model": model, "experiment": "effective", "tau": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    assert main(["effective", "--config", str(config)]) == 1
    assert path in capsys.readouterr().err


HUGE = 10 ** 400  # a JSON integer beyond the float range

# an integer too large for a float is not a finite number: a config error at its path
OVERFLOWS = [  # (experiment, extra config fields, JSON path of the error)
    ("effective", {"tau": HUGE}, "$.tau"),
    ("effective", {"model": spin(S=HUGE), "tau": 1.0}, "$.model.spin.S"),
    ("effective", {"model": inline(h_s=[[0, HUGE], [0, 1]]), "tau": 1.0},
     "$.model.inline.h_s[0][1]"),
    ("asymptotic", {"lambdas": [HUGE]}, "$.lambdas[0]"),
]


@pytest.mark.parametrize("experiment, fields, path", OVERFLOWS,
                         ids=[path for _, _, path in OVERFLOWS])
def test_integer_beyond_float_is_a_config_error(tmp_path, capsys, experiment, fields, path):
    doc = {"model": SPIN_MODEL, "experiment": experiment, **fields}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == path
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


ENTRY = "expected a finite number or a two-element [re, im] array"
SQUARE = "matrix must be square"
BAD_MATRICES = [  # (h_s, JSON path of the error below $.model.inline.h_s, message, test id)
    ([[True, 0], [0, 1]], "[0][0]", ENTRY, "bool"),
    ([[0, "1"], [0, 1]], "[0][1]", ENTRY, "string"),
    ([[0, 0], [None, 1]], "[1][0]", ENTRY, "null"),
    ([[0, 0], [0, NAN]], "[1][1]", ENTRY, "nan"),
    ([[float("inf"), 0], [0, 1]], "[0][0]", ENTRY, "infinity"),
    ([[0, 0], [0, HUGE]], "[1][1]", ENTRY, "integer-beyond-float"),
    ([[0, [0, HUGE]], [0, 1]], "[0][1]", ENTRY, "pair-integer-beyond-float"),
    ([[0, [0, True]], [0, 1]], "[0][1]", ENTRY, "pair-bool"),
    ([[0, [0, NAN]], [0, 1]], "[0][1]", ENTRY, "pair-nan"),
    ([[0, [[0, 1], 0]], [0, 1]], "[0][1]", ENTRY, "pair-nested"),
    ([[0, [1.0]], [0, 1]], "[0][1]", ENTRY, "re-only"),
    ([[0, 0], [[1.0, 0.0, 2.0], 1]], "[1][0]", ENTRY, "re-im-extra"),
    # every entry of one wrong length: no ragged array to give the error away
    ([[[0.0], [1.0]], [[1.0], [2.0]]], "[0][0]", ENTRY, "all-re-only"),
    ([[[0, 0, 1], [1, 0, 1]], [[1, 0, 1], [2, 0, 1]]], "[0][0]", ENTRY, "all-re-im-extra"),
    ([[[1, 0, 0, 0]]], "[0][0]", ENTRY, "one-entry-of-four"),
    ([[[]]], "[0][0]", ENTRY, "one-empty-entry"),
    ([[0, 0], 5], "[1]", SQUARE, "row-not-a-list"),
    ([[0, 0], [0]], "[1]", SQUARE, "ragged-row"),
    ([[0, 0], [0, 1], [0, 2]], "[0]", SQUARE, "more-rows-than-columns"),
    ([], "", "expected a non-empty matrix (list of rows)", "empty"),
    ({"0": [0]}, "", "expected a non-empty matrix (list of rows)", "object"),
]


@pytest.mark.parametrize("h_s, where, message", [case[:3] for case in BAD_MATRICES],
                         ids=[case[3] for case in BAD_MATRICES])
def test_bad_matrix_is_a_config_error(h_s, where, message):
    doc = {"model": inline(h_s=h_s), "experiment": "effective", "tau": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    path = "$.model.inline.h_s" + where
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


class TestMatrixDecode:
    """Matrix entries decode in one numpy call to exactly complex(re, im)."""

    ENTRIES = [0, -0.0, [-0.0, -0.0], [0, -0.0], [-0.0, 0], 1, 2 ** 53 + 1, -2 ** 63,
               2 ** 64 + 1, 10 ** 300, [1e-310, -5e-324], 1.7976931348623157e308,
               [0.1, 0.2], [3, 4], [-1, 2.5], 7.25]

    def test_bit_identical_to_complex(self):
        value = [self.ENTRIES[4 * i:4 * i + 4] for i in range(4)]
        expected = np.array([[complex(*x) if isinstance(x, list) else complex(x) for x in row]
                             for row in value])
        decoded = ris.cli._complex_matrix(value, "$.m")
        assert decoded.dtype == np.complex128 and decoded.shape == (4, 4)
        assert np.array_equal(decoded.view(np.uint64), expected.view(np.uint64))

    def test_mixed_numbers_and_pairs_are_accepted(self):
        h_s = [[0, [0.5, -0.25]], [[0.5, 0.25], 1]]
        config = parse_config(json.dumps({"model": inline(h_s=h_s), "experiment": "effective",
                                          "tau": 1.0}))
        assert np.array_equal(config.model.h_s, [[0, 0.5 - 0.25j], [0.5 + 0.25j, 1]])


def rotated_inline_model(seed=3, n_s=2, n_e=3):
    """A random inline model whose h_S is rotated out of the computational basis."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_s, n_e)
    u = random_unitary(rng, n_s)
    big = np.kron(u, np.eye(n_e))

    def encode(m):
        return [[[x.real, x.imag] for x in row] for row in m.tolist()]

    return {"inline": {"h_s": encode(u @ model.h_s @ u.conj().T), "h_e": encode(model.h_e),
                       "v": encode(big @ model.v @ big.conj().T), "beta": model.beta}}


class TestRun:
    def test_spin_oracle_passes(self, tmp_path):
        config = parse_config(json.dumps({"model": SPIN_MODEL,
                                          "experiment": "spin-oracle"}))
        out = tmp_path / "oracle.csv"
        assert run(config, out_path=str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,closed_form,pipeline,abs_diff"
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-9
        meta = json.loads((tmp_path / "oracle.meta.json").read_text())
        assert meta["version"]
        assert meta["config"]["experiment"] == "spin-oracle"

    def test_converge_lambda_csv_contract(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "converge-lambda",
               "lambdas": [0.2, 0.1], "s_max": 1.0, "s_steps": 6}
        out = tmp_path / "cl.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "parameter,s,error"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows == sorted(rows)
        sups = {}
        for lam, s, err in rows:
            assert np.isfinite(err) and err >= 0
            sups[lam] = max(sups.get(lam, 0.0), err)
        assert sups[0.1] < sups[0.2]

    def test_parallel_determinism(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "converge-lambda",
               "lambdas": [0.3, 0.2, 0.1], "s_max": 1.0, "s_steps": 5}
        config = parse_config(json.dumps(doc))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(config, out_path=str(out1), jobs=1)
        run(config, out_path=str(out2), jobs=3)
        assert out1.read_bytes() == out2.read_bytes()

    # the converge runs hand worker k the share params[k::jobs]; the unsorted
    # lambdas reach the converge_* functions in decreasing order
    UNSORTED = {"lambdas": [0.1, 0.3, 0.05, 0.2, 0.15], "s_max": 1.0, "s_steps": 5}


    @pytest.mark.parametrize("doc", [
        {"experiment": "converge-lambda", "interpolated": True, "lambdas": [0.3, 0.2, 0.1],
         "s_max": 1.0, "s_steps": 5},
        {"experiment": "converge-lambda", **UNSORTED},
        {"experiment": "converge-lambda", "interpolated": True, **UNSORTED},
        {"experiment": "converge-tau", "lambdas": [1.0], "taus": [0.2, 0.1], "s_max": 1.0,
         "s_steps": 5},
        {"experiment": "converge-tau", "lambdas": [1.0, 2.0, 0.5, 1.5],
         "taus": [0.1, 0.2, 0.3, 0.05], "s_max": 1.0, "s_steps": 5},
        {"experiment": "converge-lambda", "interpolated": True, "tau": 1.0,
         "model": rotated_inline_model(), **UNSORTED},
        {"experiment": "converge-tau", "model": rotated_inline_model(),
         "lambdas": [1.0, 2.0, 0.5], "taus": [0.1, 0.2, 0.3], "s_max": 1.0, "s_steps": 5},
        {"experiment": "asymptotic", "lambdas": [0.2, 0.1], "t_samples": [0.0, 0.5]},
        {"experiment": "asymptotic", "regime": "fast-repetition", "lambdas": [1.0, 2.0],
         "taus": [0.2, 0.1], "t_samples": [0.0, 0.05]},
    ], ids=["converge-lambda-interpolated", "converge-lambda-unsorted",
            "converge-lambda-interpolated-unsorted", "converge-tau", "converge-tau-4-pairs",
            "converge-lambda-interpolated-rotated-inline", "converge-tau-rotated-inline",
            "asymptotic", "asymptotic-fast-repetition"])
    def test_parallel_determinism_per_experiment(self, tmp_path, doc):
        config = parse_config(json.dumps({"model": SPIN_MODEL, **doc}))
        out = {jobs: tmp_path / f"jobs{jobs}.csv" for jobs in (1, 2, 3)}
        for jobs, path in out.items():
            assert run(config, out_path=str(path), jobs=jobs) == 0
        assert out[1].read_bytes() == out[2].read_bytes() == out[3].read_bytes()

    def test_dyson_check(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "dyson-check",
               "dyson_times": [0.5], "dyson_orders": [2, 3]}
        out = tmp_path / "dyson.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert header.startswith("order,lambda,t,truncation_error,bound")
        for line in rows:
            cells = line.split(",")
            assert float(cells[3]) <= float(cells[4])

    def test_dyson_check_verdict_allows_rounding(self, tmp_path, monkeypatch):
        # as t -> 0 the bound of order 9 is nearly tight and below 1e-14: the rounding floor
        # of the error, a few eps n^2, decides err <= bound alone
        doc = {"model": SPIN_MODEL, "experiment": "dyson-check", "dyson_orders": [9],
               "dyson_times": [0.05]}
        out = tmp_path / "dyson.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        (row,) = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(row[4]) < 1e-14
        # a bound that fails by more than rounding still fails the run
        bound = ris.dynamics.dyson_truncation_bound
        monkeypatch.setattr(ris.dynamics, "dyson_truncation_bound",
                            lambda *args: 0.5 * bound(*args))
        doc = {"model": SPIN_MODEL, "experiment": "dyson-check"}
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 2

    def test_dyson_check_most_quadrature_nodes(self, tmp_path):
        # the largest rule the node guard lets through agrees with the Taylor-stack terms
        doc = {"model": SPIN_MODEL, "experiment": "dyson-check", "quadrature_order": 256}
        out = tmp_path / "dyson.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("blockexp_vs_quadrature")
        assert len(rows) == 6 and all(float(row.split(",")[column]) <= 1e-14 for row in rows)

    @pytest.mark.parametrize("t", [10.0, 100.0, 1e3])
    def test_dyson_check_allowance_grows_with_t(self, tmp_path, t):
        # pool model 0 at 2 x 4 with h_S turned off its eigenbasis and v near 0: the bound is
        # near 0 and the error the rounding of U, U_0 and the Taylor terms, which grows with t
        # (at t = 10: err 4.07e-14, bound 1.91e-14, eps n^2 = 1.42e-14)
        doc = random_inline_model(0, 2, 4)["inline"]
        h_s = np.array(doc["h_s"])[..., 0]
        c, s = math.cos(0.3), math.sin(0.3)
        turn = np.array([[c, -s], [s, c]])
        doc = {**doc, "h_s": (turn @ h_s @ turn.T).tolist(),
               "v": (1e-8 * np.array(doc["v"])).tolist()}
        config = parse_config(json.dumps({"model": {"inline": doc}, "experiment": "dyson-check",
                                          "dyson_times": [t]}))
        out = tmp_path / "dyson.csv"
        assert run(config, out_path=str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        slack = ris.dynamics.dyson_allowance(config.model, rows[:, 2])
        assert (rows[:, 3] > rows[:, 4] + np.finfo(float).eps * 64).any()
        assert (rows[:, 3] <= rows[:, 4] + slack).all()

    def test_dyson_check_needs_no_tau(self, tmp_path):
        # dyson-check reads its times from dyson_times, never tau
        doc = {"model": {"inline": INLINE}, "experiment": "dyson-check",
               "dyson_times": [0.5], "dyson_orders": [2], "quadrature_order": 8}
        config = parse_config(json.dumps(doc))
        out = tmp_path / "dyson.csv"
        assert run(config, out_path=str(out)) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_asymptotic_columns(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "asymptotic",
               "lambdas": [0.2, 0.1], "t_samples": [0.0, 0.5]}
        out = tmp_path / "asym.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert header == ("lambda,t,rho_00_re,rho_00_im,rho_01_re,rho_01_im,"
                          "rho_10_re,rho_10_im,rho_11_re,rho_11_im,trace_distance")
        assert len(rows) == 4  # two lambdas, two sample times

    def test_asymptotic_fast_repetition_pairs(self, tmp_path):
        # one lambda per tau, and no top-level tau: the inline model has none
        doc = {"model": {"inline": INLINE}, "experiment": "asymptotic",
               "regime": "fast-repetition", "lambdas": [1.0, 2.0], "taus": [0.2, 0.1],
               "t_samples": [0.0, 0.05]}
        out = tmp_path / "asym.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert header == ("lambda,tau,t,rho_00_re,rho_00_im,rho_01_re,rho_01_im,"
                          "rho_10_re,rho_10_im,rho_11_re,rho_11_im,trace_distance")
        cells = [tuple(map(float, line.split(","))) for line in rows]
        assert [row[:3] for row in cells] == [(1.0, 0.2, 0.0), (1.0, 0.2, 0.05),
                                              (2.0, 0.1, 0.0), (2.0, 0.1, 0.05)]
        assert all(0.0 <= row[-1] <= 1.0 for row in cells)
        meta = json.loads((tmp_path / "asym.meta.json").read_text())
        assert meta["config"]["regime"] == "fast-repetition"

    def test_asymptotic_fast_repetition_needs_matching_pairs(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "asymptotic", "regime": "fast-repetition",
               "lambdas": [1.0, 2.0], "taus": [0.2, 0.1, 0.05]}
        with pytest.raises(ConfigError) as err:
            run(parse_config(json.dumps(doc)), out_path=str(tmp_path / "asym.csv"))
        assert err.value.path == "$.lambdas"

    def test_converge_tau_pairs(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "converge-tau",
               "lambdas": [1.0], "taus": [0.2, 0.1], "s_max": 1.0, "s_steps": 5}
        out = tmp_path / "ct.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "parameter,s,error"
        taus = {float(line.split(",")[0]) for line in rows}
        assert taus == {0.2, 0.1}

    def test_effective_fast_repetition(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "effective",
               "regime": "fast-repetition"}
        out = tmp_path / "eff.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        meta = json.loads((tmp_path / "eff.meta.json").read_text())
        assert meta["regime"] == "fast-repetition"
        header, *rows = out.read_text().splitlines()
        assert header == "row,col,entry_re,entry_im"
        assert len(rows) == 16

    def test_effective_fast_repetition_needs_no_tau(self, tmp_path):
        # the fast-repetition generator does not depend on tau: the inline model has none
        doc = {"model": {"inline": INLINE}, "experiment": "effective",
               "regime": "fast-repetition"}
        config = parse_config(json.dumps(doc))
        assert "tau" not in config.echo and config.tau is None
        out = tmp_path / "eff.csv"
        assert run(config, out_path=str(out)) == 0
        assert len(out.read_text().splitlines()) == 17

    @pytest.mark.parametrize("spin_fields", [{}, {"S": 0.5, "E": 1.5, "beta": 0.3},
                                             {"b": [0.5, 0.5], "c": 0, "beta": 2.0}],
                             ids=["paper", "detuned", "exchange-only"])
    def test_spin_oracle_fast_repetition(self, tmp_path, spin_fields):
        doc = {"model": spin(**spin_fields), "experiment": "spin-oracle",
               "regime": "fast-repetition"}
        config = parse_config(json.dumps(doc))
        out = tmp_path / "oracle.csv"
        assert run(config, out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "quantity,closed_form,pipeline,abs_diff"
        cells = [line.split(",") for line in rows]
        assert [c[0] for c in cells] == ["delta0", "delta1", "rho_00", "rho_11"]
        assert all(float(c[3]) <= 1e-12 for c in cells)
        deltas = fast_repetition_deltas(config.spin_params)
        assert [float(c[1]) for c in cells[:2]] == list(deltas)

    def test_spin_oracle_fast_repetition_out_of_tolerance_exits_2(self, tmp_path, monkeypatch):
        def shifted(params):
            d0, d1 = fast_repetition_deltas(params)
            return d0 + 1e-6, d1
        monkeypatch.setattr(ris.cli, "fast_repetition_deltas", shifted)
        doc = {"model": SPIN_MODEL, "experiment": "spin-oracle", "regime": "fast-repetition"}
        assert run(parse_config(json.dumps(doc)), out_path=str(tmp_path / "oracle.csv")) == 2

    def test_kato_metadata(self, tmp_path):
        doc = {"model": SPIN_MODEL, "experiment": "kato",
               "eps": [0.04, 0.02, 0.01]}
        out = tmp_path / "kato.csv"
        assert run(parse_config(json.dumps(doc)), out_path=str(out)) == 0
        meta = json.loads((tmp_path / "kato.meta.json").read_text())
        assert meta["commutator_norm"] <= 1e-8
        assert meta["extrapolation_stable"] is True


class TestMain:
    def test_cli_happy_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": SPIN_MODEL,
                                       "experiment": "spin-oracle"})
        out = tmp_path / "res.csv"
        assert main(["spin-oracle", "--config", str(path), "--out", str(out)]) == 0
        assert out.exists()

    def test_cli_schema_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": SPIN_MODEL})
        assert main(["spin-oracle", "--config", str(path)]) == 1
        assert "$.experiment" in capsys.readouterr().err

    def test_cli_experiment_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": SPIN_MODEL,
                                       "experiment": "spin-oracle"})
        assert main(["kato", "--config", str(path)]) == 1

    def test_cli_kato_single_eps_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": SPIN_MODEL, "experiment": "kato",
                                       "eps": [0.01]})
        assert main(["kato", "--config", str(path), "--out", str(tmp_path / "k.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    # lambda = 1e-160 overflows t = s / lambda^2 to inf, 1e-300 makes it 0/0
    @pytest.mark.parametrize("experiment, fields, start", [
        ("converge-lambda", {"lambdas": [0.2, 1e-7]}, "lambda = 1e-07: "),
        ("converge-lambda", {"lambdas": [1e-160]}, "lambda = 1e-160: "),
        ("converge-lambda", {"lambdas": [1e-300], "interpolated": True}, "lambda = 1e-300: "),
        ("converge-tau", {"lambdas": [1e-7], "taus": [0.2, 0.1]}, "tau = 0.2: "),
    ])
    def test_cli_converge_step_cost_guard(self, tmp_path, capsys, experiment, fields, start):
        path = write_config(tmp_path, {"model": SPIN_MODEL, "experiment": experiment,
                                       "s_steps": 3, **fields})
        out = tmp_path / "c.csv"
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + start) and "cost guard" in err
        assert "Traceback" not in err
        assert not out.exists()

    # the phases tau E at tau = 1e300, refused before any work, and i t B of the free flow at
    # t = 1e30 (99 squarings): both used to end in NaN or an SVD failure after numpy warnings
    @pytest.mark.parametrize("doc, start, text", [
        ({"model": {"spin": {**SPIN_MODEL["spin"], "tau": 1e300}}, "experiment": "effective",
          "tau": 1e300}, "error: tau = 1e+300 with max|E| = ", "exceeds 2^53"),
        ({"model": {"inline": {"h_s": [[0, [0.3, 0.1]], [[0.3, -0.1], 1]],
                               "h_e": np.diag([0.0, 0.5, 1.0, 1.5]).tolist(),
                               "v": np.zeros((8, 8)).tolist(), "beta": 1.0}},
          "experiment": "dyson-check", "dyson_times": [1e30]},
         "error: matrix_exp: ||A||_1 = ", "needs 99 squarings"),
    ], ids=["effective-tau-1e300", "dyson-check-t-1e30"])
    def test_cli_exponent_past_double_precision(self, tmp_path, capsys, doc, start, text):
        path = write_config(tmp_path, doc)
        out = tmp_path / "x.csv"
        assert main([doc["experiment"], "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and text in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_cli_missing_file(self, capsys):
        assert main(["spin-oracle", "--config", "/nonexistent.json"]) == 1

    def test_cli_unwritable_out_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": SPIN_MODEL, "experiment": "effective"})
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["effective", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and str(out) in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_cli_jobs_below_one_is_an_error(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, {"model": SPIN_MODEL, "experiment": "converge-tau",
                                       "s_steps": 3})
        out = tmp_path / "ct.csv"
        assert main(["converge-tau", "--config", str(path), "--out", str(out),
                     "--jobs", jobs]) == 1
        assert "--jobs: expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


def _encode(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


class TestDysonCheckCost:
    """dyson-check exponentiates one (k+1)n-sided Taylor stack and runs one quadrature per t."""

    @pytest.mark.parametrize("which", ["spin", "random-dim8"])
    def test_expm_sides_and_quadrature_calls(self, tmp_path, monkeypatch, which):
        model = SPIN_MODEL
        if which == "random-dim8":
            m = random_model(np.random.default_rng(8), 2, 4)
            model = {"inline": {"h_s": _encode(m.h_s), "h_e": _encode(m.h_e),
                                "v": _encode(m.v), "beta": m.beta}}
        # the quadrature order sets only its accuracy, not which calls are made
        config = parse_config(json.dumps({"model": model, "experiment": "dyson-check",
                                          "quadrature_order": 6}))
        sides, quadratures = [], []
        expm, quadrature = ris.linops._pade_expm, ris.dynamics._quadrature_terms

        def counting_expm(a):
            sides.append(a.shape[0])
            return expm(a)

        def counting_quadrature(model, k, t, *args, **kwargs):
            quadratures.append((k, t))
            return quadrature(model, k, t, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a superoperator route was taken")

        monkeypatch.setattr(ris.linops, "_pade_expm", counting_expm)
        monkeypatch.setattr(ris.dynamics, "_quadrature_terms", counting_quadrature)
        for name in ("interaction_dynamics", "dyson_term", "dyson_term_quadrature"):
            monkeypatch.setattr(ris.dynamics, name, refuse)
        assert run(config, out_path=str(tmp_path / "dyson.csv")) == 0
        assert max(sides) == max(config.dyson_orders) * config.model.dim
        # every term of one t comes from one Taylor stack, and W^q_1..W^q_3 from one quadrature
        assert len(sides) == len(config.dyson_times)
        assert quadratures == [(3, t) for t in config.dyson_times]

    @staticmethod
    def _dim16_gaps(tmp_path, monkeypatch, **fields):
        """blockexp_vs_quadrature column of dyson-check on a seeded random 4 x 4 model."""
        monkeypatch.setenv("RIS_MAX_DIM", "16")
        m = random_model(np.random.default_rng(16), 4, 4)
        model = {"inline": {"h_s": _encode(m.h_s), "h_e": _encode(m.h_e),
                            "v": _encode(m.v), "beta": m.beta}}
        config = parse_config(json.dumps({"model": model, "experiment": "dyson-check", **fields}))
        out = tmp_path / "dyson.csv"
        assert run(config, out_path=str(out)) == 0
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("blockexp_vs_quadrature")
        return [float(row.split(",")[column]) for row in rows]

    def test_dim16_with_eight_nodes(self, tmp_path, monkeypatch):
        gaps = self._dim16_gaps(tmp_path, monkeypatch, quadrature_order=8)
        assert len(gaps) == 6 and all(np.isfinite(gap) and gap <= 1e-6 for gap in gaps)

    def test_dim16_default_nodes(self, tmp_path, monkeypatch):
        # at the default 32 nodes the quadrature matches the Taylor-stack terms to rounding
        gaps = self._dim16_gaps(tmp_path, monkeypatch)
        assert len(gaps) == 6 and all(np.isfinite(gap) and gap <= 1e-12 for gap in gaps)


class TestConvergeCost:
    """Each converge call exponentiates one n_S^2-sided matrix for its flows e^{s gen}."""

    @pytest.mark.parametrize("fields", [
        {"experiment": "converge-lambda"},
        {"experiment": "converge-lambda", "interpolated": True},
        {"experiment": "converge-tau"},
    ], ids=["lattice", "interpolated", "tau"])
    @pytest.mark.parametrize("which", ["spin", "random-dim8"])
    def test_one_flow_expm(self, tmp_path, monkeypatch, which, fields):
        model = SPIN_MODEL
        if which == "random-dim8":
            m = random_model(np.random.default_rng(8), 2, 4)
            model = {"inline": {"h_s": _encode(m.h_s), "h_e": _encode(m.h_e),
                                "v": _encode(m.v), "beta": m.beta}}
            if fields["experiment"] == "converge-lambda":
                fields = {**fields, "tau": 1.0}
        # the default grid: 50 values of s
        config = parse_config(json.dumps({"model": model, **fields}))
        sides, expm = [], ris.linops._pade_expm

        def counting_expm(a):
            sides.append(a.shape[0])
            return expm(a)

        monkeypatch.setattr(ris.linops, "_pade_expm", counting_expm)
        assert run(config, out_path=str(tmp_path / "converge.csv"), jobs=1) == 0
        # the weak-coupling generator adds no expm
        assert sides == [config.model.n_s ** 2]


class TestSidecar:
    """The sidecar: one sorted top-level key per line, each value from the C JSON encoder."""

    KATO = {"model": SPIN_MODEL, "experiment": "kato", "eps": [0.04, 0.02, 0.01]}
    EFFECTIVE = {"model": inline(), "experiment": "effective", "tau": 1.0}

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    @pytest.mark.parametrize("doc", [KATO, EFFECTIVE], ids=["kato", "effective-inline"])
    def test_never_takes_the_pure_python_encoder(self, tmp_path, monkeypatch, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert run(parse_config(json.dumps(doc)), out_path=str(tmp_path / "out.csv")) == 0
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert meta["config"] == parse_config(json.dumps(doc)).echo

    def test_layout_and_content(self, tmp_path):
        config = parse_config(json.dumps(self.EFFECTIVE))
        # extras of every JSON kind, nested keys out of order, and one value only repr encodes
        extras = {"kato_like": {"z": [1.5, -0.0], "a": True}, "none": None, "text": "λ → 0",
                  "opaque": np.float32(0.5), "big": 10 ** 30}
        out = tmp_path / "out.csv"
        meta_path = ris.cli._write_outputs(config, ["x"], np.array([[1.0], [2.0]]), (), extras,
                                           str(out), 0.25, 3)
        text = (tmp_path / "out.meta.json").read_text()
        assert meta_path == str(tmp_path / "out.meta.json")
        assert out.read_text() == "x\n1\n2\n"
        # what an indent=2 rendering of the same object parses to
        meta = {"config": config.echo, "version": ris.__version__, "wall_time_seconds": 0.25,
                "jobs": 3, "rows": 2, **extras}
        assert json.loads(text) == json.loads(json.dumps(meta, indent=2, sort_keys=True,
                                                         default=repr))
        lines = text.split("\n")
        assert (lines[0], lines[-2], lines[-1]) == ("{", "}", "")
        members = [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-2]]
        assert [key for member in members for key in member] == sorted(meta)
        assert all(len(member) == 1 for member in members)


class TestCsvBody:
    """A float table is formatted in one call, with the text of format(float(x), ".17g") per
    cell, after a leading label column if the table has one."""

    VALUES = [0.0, -0.0, 1, -3, 10 ** 20, 2 ** 53 + 1, True, 5e-324, 1.7976931348623157e308,
              0.1, 1 / 3, -2.5e-17, np.float64(-0.0), np.float64(0.6334493644798731),
              np.int64(7), np.float64(1e300)]

    @staticmethod
    def oracle(rows, labels=()):
        """One format(float(x), ".17g") per cell, after the row's label if there are labels."""
        return "".join(",".join([*labels[i:i + 1], *(format(float(x), ".17g") for x in row)])
                       + "\n" for i, row in enumerate(rows))

    def test_same_text_as_one_format_per_cell(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                                rng.standard_normal(200)])
        rows = [self.VALUES, draws[:16], draws[-16:], [3] * 16, list(map(float, draws[16:32]))]
        for row in rows:
            assert ris.cli._csv_body(np.array([row], dtype=float)) == self.oracle([row])
        assert ris.cli._csv_body(np.array(rows, dtype=float)) == self.oracle(rows)
        assert ris.cli._csv_body(draws.reshape(-1, 1)) == self.oracle(draws.reshape(-1, 1))
        assert ris.cli._csv_body(draws.reshape(4, -1)) == self.oracle(draws.reshape(4, -1))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_empty_table_is_empty_text(self, columns):
        assert ris.cli._csv_body(np.empty((0, columns))) == ""

    def test_leading_label_is_written_as_it_is(self):
        table = np.array([[0.5, -0.0, 2], [1e-17, 1.0, -3.5]])
        # labels that hold an n or a % sign, as a list or a tuple
        for labels in (["rho_00", "delta0"], ("nan_inf", "100%n%s")):
            assert ris.cli._csv_body(table, labels) == self.oracle(table, labels)
        assert ris.cli._csv_body(table, ["a", "b"]) == ("a,0.5,-0,2\n"
                                                        "b,1.0000000000000001e-17,1,-3.5\n")

    @pytest.mark.parametrize("bad, text", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-math.inf, "-inf"), (np.float64("nan"), "nan")])
    @pytest.mark.parametrize("where", [0, 2])
    @pytest.mark.parametrize("labels", [(), ("n", "nn")])
    def test_non_finite_value_is_an_error(self, bad, text, where, labels):
        table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        table[-1, where] = bad
        with pytest.raises(ValueError, match=f"^non-finite value {text} in results$"):
            ris.cli._csv_body(table, labels)

    def test_first_non_finite_value_is_named(self):
        table = np.array([[1.0, 2.0, -math.inf], [math.nan, 5.0, math.inf]])
        with pytest.raises(ValueError, match="value -inf in"):
            ris.cli._csv_body(table)


class TestCsvChunks:
    """The writer formats and writes a table in chunks of _CSV_CHUNK_ROWS rows, to the bytes of
    one :func:`_csv_body` call, and a table with a non-finite number writes no CSV."""

    CONFIG = {"model": SPIN_MODEL, "experiment": "effective"}

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_same_text_as_one_call(self, tmp_path, monkeypatch, chunk, labelled):
        monkeypatch.setattr(ris.cli, "_CSV_CHUNK_ROWS", chunk)
        table = np.random.default_rng(chunk).standard_normal((5, 3)) * 10.0 ** np.arange(3)
        labels = ["a", "b%s", "n", "rho_00", "delta1"] if labelled else ()
        out = tmp_path / "out.csv"
        ris.cli._write_outputs(parse_config(json.dumps(self.CONFIG)), ["x", "y", "z"], table,
                               labels, {}, str(out), 0.0, 1)
        assert out.read_text() == "x,y,z\n" + ris.cli._csv_body(table, labels)

    def test_non_finite_value_writes_no_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ris.cli, "_CSV_CHUNK_ROWS", 2)
        table = np.ones((5, 2))
        table[4, 1] = math.nan
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="^non-finite value nan in results$"):
            ris.cli._write_outputs(parse_config(json.dumps(self.CONFIG)), ["x", "y"], table,
                                   (), {}, str(out), 0.0, 1)
        assert not out.exists()


class TestTau:
    """tau is a field of the parsed config, read there and not from the echo."""

    @pytest.mark.parametrize("fields, tau", [
        ({"experiment": "kato"}, 1.0),
        ({"experiment": "kato", "tau": 0.5}, 0.5),
        ({"experiment": "converge-lambda", "tau": 2}, 2.0),
        ({"experiment": "effective", "regime": "fast-repetition"}, None),
        ({"experiment": "dyson-check"}, None),
        ({"experiment": "spin-oracle"}, None),
    ])
    def test_config_field(self, fields, tau):
        config = parse_config(json.dumps({"model": SPIN_MODEL, **fields}))
        assert config.tau == tau and type(config.tau) is type(tau)
        assert config.echo.get("tau") == tau

    def test_run_reads_the_field(self, tmp_path):
        config = parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "effective",
                                          "tau": 0.5}))
        out = {name: tmp_path / f"{name}.csv" for name in ("as_parsed", "echo_changed")}
        assert run(config, out_path=str(out["as_parsed"])) == 0
        config.echo["tau"] = 2.0
        assert run(config, out_path=str(out["echo_changed"])) == 0
        assert out["as_parsed"].read_bytes() == out["echo_changed"].read_bytes()


class TestPoolSize:
    """The process pool forks no more workers than there are payloads."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of each pool opened; the stand-in maps serially and starts no process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(ris.cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (64, 3)])
    def test_asymptotic_three_lambdas(self, tmp_path, pools, jobs, workers):
        config = parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "asymptotic"}))
        assert len(config.lambdas) == 3
        assert run(config, out_path=str(tmp_path / "asym.csv"), jobs=jobs) == 0
        assert pools == [workers]

    def test_converge_tau_three_taus(self, tmp_path, pools):
        config = parse_config(json.dumps({"model": SPIN_MODEL, "experiment": "converge-tau",
                                          "s_steps": 3}))
        assert run(config, out_path=str(tmp_path / "ct.csv"), jobs=64) == 0
        assert pools == [3]


# dyson-check takes the norm of [v,.] from the spread of the eigenvalues of v
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_commutator_norm_is_eigenvalue_spread(seed, n_s, n_e, scale):
    m = random_model(np.random.default_rng(seed), n_s, n_e)
    model = RISModel(h_s=m.h_s, h_e=m.h_e, v=scale * m.v, beta=m.beta)
    gap = abs(superop_norm(commutator_superop(model.v)) - model.commutator_norm)
    assert gap <= 1e-12 * np.linalg.norm(model.v, 2)


#: spin models at the edges of the closed forms and of the pipeline's verdict
EDGE_SPIN_MODELS = {
    "resonant-tau": {"tau": 2 * math.pi},
    "S0": {"S": 0},
    "b-c-0": {"b": 0, "c": 0},
    "a-d-0.7": {"a": 0.7, "d": 0.7, "b": 0, "c": 0},
    "beta0": {"beta": 0},
    "beta1e6": {"beta": 1e6},
    "S-eq-E": {"S": 2},
}
#: every experiment, in each regime that it reads
EDGE_RUNS = [(e, r) for e in ris.cli.EXPERIMENTS
             for r in (("weak-coupling", "fast-repetition")
                       if e in ris.cli.REGIME_EXPERIMENTS else (None,))]


@pytest.mark.parametrize("model", sorted(EDGE_SPIN_MODELS))
@pytest.mark.parametrize("experiment, regime", EDGE_RUNS,
                         ids=[f"{e}-{r}" if r else e for e, r in EDGE_RUNS])
def test_edge_spin_model_ends_in_an_exit_code(tmp_path, capsys, model, experiment, regime):
    doc = {"experiment": experiment, "model": spin(**EDGE_SPIN_MODELS[model])}
    if regime:
        doc["regime"] = regime
    config = write_config(tmp_path, doc)
    code = main([experiment, "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert code in (0, 1, 2)
    if code == 1:
        assert "error:" in capsys.readouterr().err


def test_spin_oracle_at_resonant_tau_writes_the_delta_rows_only(tmp_path):
    # at tau = 2 pi both kernels vanish: delta_0 + delta_1 is -6e-32, rounding noise
    config = write_config(tmp_path, {"experiment": "spin-oracle", "model": spin(tau=2 * math.pi)})
    out = tmp_path / "so.csv"
    assert main(["spin-oracle", "--config", str(config), "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["delta0", "delta1"]


@pytest.mark.parametrize("d", [1e-6, 5e-7])
def test_spin_oracle_near_resonance_passes_within_the_estimate(tmp_path, d):
    # at tau = 2 pi (1 + d) the pipeline's state is 1.9e-8 and 1.3e-6 off the closed form:
    # above the oracle tolerance 1e-9, within the pipeline's error estimate
    config = write_config(tmp_path, {"experiment": "spin-oracle",
                                     "model": spin(tau=2 * math.pi * (1 + d))})
    out = tmp_path / "so.csv"
    assert main(["spin-oracle", "--config", str(config), "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["delta0", "delta1", "rho_00", "rho_11"]
    assert float(rows[-1][3]) > 1e-9


@pytest.mark.parametrize("d", [3e-7, 1e-7])
def test_spin_oracle_leaves_out_a_state_the_pipeline_cannot_resolve(tmp_path, d):
    # the closed form gives a state, the pipeline refuses it as precision exhausted: the delta
    # rows, exit 0, and the refusal in the sidecar
    config = write_config(tmp_path, {"experiment": "spin-oracle",
                                     "model": spin(tau=2 * math.pi * (1 + d))})
    out = tmp_path / "so.csv"
    assert main(["spin-oracle", "--config", str(config), "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["delta0", "delta1"]
    meta = json.loads((tmp_path / "so.meta.json").read_text())
    assert "precision exhausted" in meta["state_rows"]


@pytest.mark.parametrize("regime", ["weak-coupling", "fast-repetition"])
@pytest.mark.parametrize("coupling", [1e-5, 1e-8])
def test_spin_oracle_at_weak_couplings_writes_the_state_rows(tmp_path, coupling, regime):
    # |delta_0 + delta_1| is 1.4e-10 at b = c = 1e-5: above the rounding floor of its peak,
    # so the closed form gives the state the pipeline gives
    model = spin(b=[coupling, 0], c=[coupling, 0])
    config = write_config(tmp_path, {"experiment": "spin-oracle", "model": model,
                                     "regime": regime})
    out = tmp_path / "so.csv"
    assert main(["spin-oracle", "--config", str(config), "--out", str(out)]) == 0
    labels = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert labels == ["delta0", "delta1", "rho_00", "rho_11"]


@pytest.mark.parametrize("fields, path", [
    ({"a": 0.7, "d": 0.7, "b": 0, "c": 0}, "$.model.spin.a"),
    ({"d": 0.5}, "$.model.spin.d"),
])
def test_spin_oracle_without_H1_is_a_config_error(fields, path):
    # the closed forms hold for a = d = 0 only
    with pytest.raises(ConfigError, match="a = d = 0") as err:
        parse_config(json.dumps({"experiment": "spin-oracle", "model": spin(**fields)}))
    assert err.value.path == path
