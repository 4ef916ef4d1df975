"""Harness: config validation and round-trip, determinism, parallel
invariance, coverage/comparison behavior at small scale."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmix import (
    ConfigError,
    ExperimentConfig,
    KnobPolicy,
    LPolicy,
    XiPolicy,
    bernoulli_ar1,
    burn_in_threshold,
    finite_markov,
    hetero_mds,
    iid_bernoulli,
    iid_rademacher,
    iid_uniform,
    maurer_pontil_radius,
    run_block_sensitivity,
    run_coverage,
    run_sharpness_sweep,
)
from ebmix.blocking import block_partition, row_vhat
from ebmix.core_bounds import burn_in_power_law
from ebmix.harness import (
    BOUND_TABLE, BOUNDS, _CHUNK_VALUES, _ELEMENTWISE_CHUNK_VALUES, _chunk_edges,
    _median, _row_statistic, resolve_bound,
)
from ebmix.processes import _BLOCK as _CSS_VALUES
from ebmix import processes, reporting

TWO_STATE = [[0.9, 0.1], [0.1, 0.9]]
SLOW_3 = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]


def _config(**overrides):
    base = dict(
        process=iid_bernoulli(0.5),
        bounds=("empirical_bernstein",),
        n_grid=(400,),
        replications=400,
        master_seed=17,
        alpha=0.05,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_alias_resolution():
    assert resolve_bound("eb") == "empirical_bernstein"
    assert resolve_bound("eb_corollary1") == "empirical_bernstein"
    assert resolve_bound("phi_thm2") == "phi_mixing"
    assert resolve_bound("tilde_phi_thm3") == "tilde_phi_mixing"
    assert resolve_bound("agnostic_thm4") == "mixing_agnostic"
    assert resolve_bound("maurer_pontil") == "maurer_pontil_baseline"
    # every `ebmix bound --method` name is a config name too, freedman included
    assert resolve_bound("freedman") == "freedman_oracle"
    for name, row in BOUND_TABLE.items():
        assert resolve_bound(name) == name
        for alias in (row.method, row.legacy):
            assert alias is None or resolve_bound(alias) == name
    with pytest.raises(ConfigError, match="unknown bound"):
        resolve_bound("nope")


def test_config_requires_exactly_one_level_parameter():
    with pytest.raises(ConfigError, match="exactly one"):
        _config(delta=0.01)  # alpha also set by default
    with pytest.raises(ConfigError, match="exactly one"):
        _config(alpha=None)


def test_config_rejects_unknown_field():
    raw = _config().to_dict()
    raw["bogus_field"] = 1
    with pytest.raises(ConfigError, match="bogus_field"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "field, value, named",
    [("l_policy", {"kind": "exponent", "valeu": 0.3}, "l_policy.valeu"),
     ("l_policies", [{"kind": "fixed", "value": 5}, {"kind": "exponent", "valeu": 0.3}],
      "l_policies[1].valeu"),
     ("xi", {"scale": 2.0, "powr": -0.5}, "xi.powr"),
     ("knobs", {"t_scale": 0.5, "c_mod": "fixed"}, "knobs.c_mod"),
     ("process", {"kind": "bernoulli_ar1", "parmas": {}}, "process.parmas")],
)
def test_config_refuses_an_unknown_key_inside_an_object(field, value, named):
    # Each key was once dropped without a word, and the default ran.
    raw = _config().to_dict()
    raw[field] = value
    with pytest.raises(ConfigError, match=f"^field {re.escape(repr(named))}: unknown field"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [("l_policies", [{"kind": "exponent", "value": 0.3}, {"kind": "exponent", "value": 1.5}],
      "field 'l_policies[1].value': exponent must lie in (0, 1), got 1.5"),
     ("l_policies", [{"kind": "fixed", "value": 5}, {"kind": "fixed", "value": 0.5}],
      "field 'l_policies[1].value': fixed l must be >= 1, got 0.5"),
     ("l_policies", [{"kind": "exponent", "value": "0.3"}],
      "field 'l_policies[0].value': must be a number, got '0.3'"),
     ("l_policies", [{"kind": "fixed", "value": 5}, {"kind": "linear", "value": 0.3}],
      "field 'l_policies[1].kind': must be 'exponent' or 'fixed', got 'linear'"),
     ("l_policy", {"kind": "exponent", "value": 1.5},
      "field 'l_policy.value': exponent must lie in (0, 1), got 1.5"),
     ("knobs", {"c_mode": "max"},
      "field 'knobs.c_mode': must be 'remainder' or 'fixed', got 'max'")],
)
def test_config_names_the_entry_that_holds_a_bad_value_or_kind(field, value, message):
    # An l_policies entry was once named as l_policy.
    raw = {**_config().to_dict(), field: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [(None, [1, 2], "config: must be a JSON object, got [1, 2]"),
     ("l_policy", [0.3], "field 'l_policy': must be a JSON object, got [0.3]"),
     ("l_policy", 0, "field 'l_policy': must be a JSON object, got 0"),
     ("l_policies", [{"kind": "fixed", "value": 5}, "fixed"],
      "field 'l_policies[1]': must be a JSON object, got 'fixed'"),
     ("l_policies", 3, "field 'l_policies': must be a list, got 3"),
     ("xi", "1/n", "field 'xi': must be a JSON object, got '1/n'"),
     ("knobs", [], "field 'knobs': must be a JSON object, got []"),
     ("process", "bernoulli_ar1", "field 'process': must be a JSON object, got 'bernoulli_ar1'"),
     ("process", {"params": {}}, "field 'process.kind': required")],
)
def test_config_refuses_a_value_that_is_not_an_object(field, value, message):
    raw = value if field is None else {**_config().to_dict(), field: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)


_DEFAULT_KNOBS = {"t_scale": 1.0, "t_power": -0.45, "s_scale": 1.0, "s_power": -0.45,
                  "c_mode": "remainder", "c_value": 0.0}
_DEFAULT_L = {"kind": "exponent", "value": 0.4}


@pytest.mark.parametrize(
    "given, expected",
    [({"l_policy": None}, {}), ({"l_policy": {}}, {}),
     ({"knobs": None}, {}), ({"knobs": {}}, {}),
     ({"xi": None}, {}), ({"xi": {}}, {}),
     ({"xi": {"power": -0.5}}, {"xi": {"scale": 1.0, "power": -0.5}}),
     ({"l_policies": None}, {}), ({"l_policies": []}, {}),
     ({"l_policies": [{}, {"kind": "fixed", "value": 7}]},
      {"l_policies": [_DEFAULT_L, {"kind": "fixed", "value": 7.0}]}),
     ({"alpha": None, "delta": 0.01}, {"alpha": None, "delta": 0.01}),
     ({"delta": None}, {}), ({"eta": None}, {}),
     ({"l_policy": {"kind": "exponent", "value": None}},
      "field 'l_policy.value': must be a number, got None"),
     ({"xi": {"scale": None}}, "field 'xi.scale': must be a number, got None"),
     ({"knobs": {"c_value": None}}, "field 'knobs.c_value': must be a number, got None"),
     ({"l_policies": [{"kind": None}]},
      "field 'l_policies[0].kind': must be 'exponent' or 'fixed', got None"),
     ({"bounds": []}, "field 'bounds': at least one bound is required"),
     ({"n_grid": []}, "field 'n_grid': must be nonempty"),
     ({"process": None}, "field 'process': required"),
     ({"replications": None}, "field 'replications': required")],
)
def test_config_null_and_empty_values_keep_their_meaning(given, expected):
    raw = {"process": {"kind": "bernoulli_ar1", "params": {}}, "bounds": ["tilde_phi"],
           "n_grid": [500], "replications": 20, "master_seed": 0, "alpha": 0.05, **given}
    if isinstance(expected, str):
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            ExperimentConfig.from_dict(raw)
        return
    assert ExperimentConfig.from_dict(raw).to_dict() == {
        "process": {"kind": "bernoulli_ar1", "params": {}}, "bounds": ["tilde_phi_mixing"],
        "n_grid": [500], "replications": 20, "master_seed": 0, "delta": None, "alpha": 0.05,
        "l_policy": _DEFAULT_L, "l_policies": None, "xi": None, "knobs": _DEFAULT_KNOBS,
        "eta": 0.5, **expected,
    }


def test_config_to_dict_writes_every_field_as_json_values():
    cfg = _config(
        process=finite_markov(TWO_STATE, [0.0, 1.0]), bounds=("eb", "phi", "agnostic"),
        n_grid=(100, 200.0), replications=10.0, master_seed=3, l_policy=LPolicy("fixed", 7),
        l_policies=(LPolicy("fixed", 7), LPolicy("exponent", 0.3)), xi=XiPolicy(2, -0.5),
        knobs=KnobPolicy(t_scale=0.5, c_mode="fixed", c_value=0.1), eta=0.25,
    )
    assert cfg.to_dict() == {
        "process": {"kind": "finite_markov", "params": {"P": TWO_STATE, "h": [0.0, 1.0]}},
        "bounds": ["empirical_bernstein", "phi_mixing", "mixing_agnostic"],
        "n_grid": [100, 200], "replications": 10, "master_seed": 3, "delta": None,
        "alpha": 0.05, "l_policy": {"kind": "fixed", "value": 7.0},
        "l_policies": [{"kind": "fixed", "value": 7.0}, {"kind": "exponent", "value": 0.3}],
        "xi": {"scale": 2.0, "power": -0.5},
        "knobs": {"t_scale": 0.5, "t_power": -0.45, "s_scale": 1.0, "s_power": -0.45,
                  "c_mode": "fixed", "c_value": 0.1},
        "eta": 0.25,
    }
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert _config(l_policies=()).to_dict()["l_policies"] is None
    assert _config(l_policies=()).l_policies is None


def test_config_round_trip_is_idempotent():
    cfg = _config(
        bounds=("eb", "phi_thm2"),
        process=finite_markov(TWO_STATE, [0.0, 1.0]),
        delta=0.02,
        alpha=None,
        l_policy=LPolicy("fixed", 25),
        xi=XiPolicy(2.0, -0.5),
        knobs=KnobPolicy(t_scale=0.5),
    )
    d1 = cfg.to_dict()
    d2 = ExperimentConfig.from_dict(d1).to_dict()
    assert d1 == d2
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # aliases resolve to canonical names on parse
    assert d1["bounds"] == ["empirical_bernstein", "phi_mixing"]


@pytest.mark.parametrize(
    "field, value",
    [("master_seed", 7.5), ("master_seed", True), ("master_seed", "7"), ("master_seed", -1),
     ("replications", 10.9), ("replications", True), ("replications", 0),
     ("replications", float("inf")), ("n_grid", [True])],
)
def test_config_refuses_non_integral_counts_and_booleans(field, value):
    raw = _config().to_dict()
    raw[field] = value
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("key", ["process", "n_grid", "replications", "master_seed"])
def test_config_refuses_a_missing_required_key(key):
    raw = _config().to_dict()
    del raw[key]
    with pytest.raises(ConfigError, match=f"^field '{key}': required$"):
        ExperimentConfig.from_dict(raw)


def test_config_takes_integral_floats_and_null_eta_as_default():
    raw = _config().to_dict()
    raw.update(master_seed=7.0, replications=10.0, eta=None)
    cfg = ExperimentConfig.from_dict(raw)
    assert (cfg.master_seed, cfg.replications, cfg.eta) == (7, 10, 0.5)
    assert type(cfg.master_seed) is int and type(cfg.replications) is int


def test_config_accepts_single_bound_field():
    raw = _config().to_dict()
    del raw["bounds"]
    raw["bound"] = "eb"
    assert ExperimentConfig.from_dict(raw).bounds == ("empirical_bernstein",)


@pytest.mark.parametrize(
    "fields, message",
    [({}, "field 'bounds': required"),
     ({"bound": None, "bounds": None}, "field 'bounds': required"),
     ({"bound": "eb", "bounds": ["phi"]}, "fields 'bound' and 'bounds': set one, not both"),
     ({"bound": "eb", "bounds": "eb"}, "fields 'bound' and 'bounds': set one, not both")],
)
def test_config_takes_one_of_bound_and_bounds(fields, message):
    # Both fields once parsed, and 'bound' was dropped without a word.
    raw = _config().to_dict()
    del raw["bounds"]
    raw.update(fields)
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw)


_PROCESSES = {
    "bernoulli": iid_bernoulli(0.3),
    "rademacher": iid_rademacher(),
    "uniform": iid_uniform(-1.0, 1.0),
    "hetero_mds": hetero_mds([0.5, 1.0]),
    "two_state": finite_markov(TWO_STATE, [0.0, 1.0]),
    "ar1": bernoulli_ar1(),
}

# Each bound's requirement, and the processes above that do not meet it.
_UNMET = {
    "freedman_oracle": ("an IID or bounded martingale-difference process (oracle variance)",
                        {"two_state", "ar1"}),
    "mds_empirical": ("a zero-mean martingale-difference process",
                      {"bernoulli", "two_state", "ar1"}),
    "empirical_bernstein": ("constant conditional mean (IID or bounded MDS data)",
                            {"two_state", "ar1"}),
    "eb_ignore_linear": ("IID data (the penalty analysis is IID-only)",
                         {"hetero_mds", "two_state", "ar1"}),
    "phi_mixing": ("phi budget required: the process provides no uniform-mixing bound", {"ar1"}),
    "tilde_phi_mixing": (None, set()),
    "mixing_agnostic": (None, set()),
    "dedecker_baseline": ("a strictly positive phi_tilde budget",
                          {"bernoulli", "rademacher", "uniform", "hetero_mds"}),
    "maurer_pontil_baseline": ("[0,1]-valued data", {"rademacher", "uniform", "hetero_mds"}),
}


@pytest.mark.parametrize("n_grid", [(200,), (1,)], ids=["n200", "n1"])
@pytest.mark.parametrize("bound, process", itertools.product(BOUNDS, _PROCESSES))
def test_bound_process_compatibility(bound, process, n_grid):
    # At n = 1 most cells fail a precondition; an unmet requirement
    # must still raise, not be flagged.
    spec = _PROCESSES[process]
    requirement, unmet_on = _UNMET[bound]
    unmet = [requirement] if process in unmet_on else []
    if bound == "maurer_pontil_baseline" and max(n_grid) < 2:
        unmet.append("n >= 2")
    cfg = _config(process=spec, bounds=(bound,), n_grid=n_grid, replications=20)
    if unmet:
        message = (f"bound {bound!r} is incompatible with process {spec.label()!r}; "
                   "requires: " + "; ".join(unmet))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_coverage(cfg)
    else:
        (row,) = run_coverage(cfg).rows
        if n_grid == (200,):
            assert not [f for f in row.flags if f.startswith("precondition:")]


def test_incompatible_bound_is_refused_before_any_path_is_drawn(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(processes, "simulate_paths", draw)
    cfg = _config(process=bernoulli_ar1(), bounds=("tilde_phi_mixing", "phi_mixing"),
                  n_grid=(300, 600))
    with pytest.raises(ConfigError, match="phi budget required"):
        run_coverage(cfg)


def test_report_bytes_deterministic_and_parallel_invariant():
    cfg = _config(
        process=bernoulli_ar1(),
        bounds=("tilde_phi_mixing", "mixing_agnostic"),
        n_grid=(500,),
        replications=600,
        delta=0.02,
        alpha=None,
    )
    a = reporting.coverage_csv(run_coverage(cfg))
    b = reporting.coverage_csv(run_coverage(cfg))
    c = reporting.coverage_csv(run_coverage(cfg, n_jobs=4))
    assert a == b == c
    ja = reporting.report_json(run_coverage(cfg))
    jb = reporting.report_json(run_coverage(cfg, n_jobs=3))
    assert ja == jb


# SHA-256 of small coverage CSVs, pinned from the sequential per-timestep
# transform.  A change to how paths are computed must leave these bytes alone;
# only a deliberate stream change may re-pin them.
PINNED_CSV_SHA256 = {
    "ar1": "7e9f7273a3c9dba4492a5f11a517ebbe1f35e49cbb702907d666a0b26f46be87",
    "sticky_markov": "b0e7a95b00b8720f90924e8341fdcec16ef2f234474a891c39d64586a8bdb78b",
}


@pytest.mark.parametrize(
    "name, process, bounds, n, replications",
    [
        ("ar1", bernoulli_ar1(), ("tilde_phi_mixing", "mixing_agnostic", "dedecker_baseline"),
         3001, 50),
        ("sticky_markov", finite_markov([[0.99, 0.01], [0.01, 0.99]], [0.0, 1.0]),
         ("phi_mixing", "tilde_phi_mixing", "mixing_agnostic"), 2500, 40),
    ],
)
def test_pinned_coverage_csv_digest(name, process, bounds, n, replications):
    cfg = _config(process=process, bounds=bounds, n_grid=(n,), replications=replications,
                  master_seed=2024)
    csv_text = reporting.coverage_csv(run_coverage(cfg))
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == PINNED_CSV_SHA256[name]


# The one pinned report that holds flagged rows, of each kind:
# maurer_pontil_baseline at n = 1, block cells with too few blocks, and a
# block length longer than n.  A flagged row takes most of its fields from
# the CellResult defaults, so this pins those defaults too.  A non-block
# bound listed after a block bound pins the row order: by l policy, then
# by bound.
PINNED_FLAGGED_SHA256 = (
    "638e0cab4a25f00ef26b7af657fdf2be39b7c360e87ce20e3a2475641dd96392",  # CSV
    "6cfd200cc402e0c7e76c690be4ff1f83de4525691fa56c280b1ffa98b303ee53",  # JSON
)


def test_pinned_flagged_report_digest():
    cfg = _config(bounds=("tilde_phi_mixing", "maurer_pontil_baseline"), n_grid=(1, 50),
                  replications=20, l_policies=(LPolicy("exponent", 0.4), LPolicy("fixed", 50)))
    report = run_coverage(cfg)
    flags = [row.flags for row in report.rows]
    assert sum(1 for f in flags if f and f[0].startswith("precondition:")) == 4
    assert any("too few blocks" in f[0] for f in flags if f)
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (reporting.coverage_csv(report), reporting.report_json(report)))
    assert digests == PINNED_FLAGGED_SHA256


def test_coverage_of_constant_process_is_one():
    # degenerate "constant" data: uniform with a == b is rejected, so use a
    # bernoulli with p = 1 (all ones, css = 0, center = mu exactly)
    cfg = _config(process=iid_bernoulli(1.0), n_grid=(50,), replications=200)
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage == 1.0
    assert row.mean_radius > 0


def test_eb_coverage_meets_lower_bound_iid_and_mds():
    for process in (iid_bernoulli(0.5), hetero_mds([0.4, 1.0])):
        bounds = ("empirical_bernstein",)
        cfg = _config(process=process, bounds=bounds, n_grid=(1000,), replications=5000)
        row = run_coverage(cfg).rows[0]
        assert row.level == pytest.approx(0.90)
        floor = row.level - 3.0 * math.sqrt(row.level * (1 - row.level) / cfg.replications)
        assert row.empirical_coverage >= floor


def test_same_paths_shared_across_bounds():
    cfg = _config(bounds=("empirical_bernstein", "eb_ignore_linear"), process=iid_bernoulli(0.5))
    rows = run_coverage(cfg).rows
    assert [r.bound for r in rows] == ["empirical_bernstein", "eb_ignore_linear"]
    # with xi_n = n^(-1/4) small, dropping the linear term wins on average
    assert rows[1].mean_radius < rows[0].mean_radius
    assert rows[1].penalty is not None and rows[1].burn_in_n is not None


def test_freedman_vs_eb_ratio_approaches_constant():
    cfg = _config(
        bounds=("freedman_oracle", "empirical_bernstein"),
        n_grid=(1000, 100_000),
        replications=200,
    )
    rows = run_coverage(cfg).rows
    by = {(r.bound, r.n): r for r in rows}
    ratio_small = (
        by[("empirical_bernstein", 1000)].mean_radius / by[("freedman_oracle", 1000)].mean_radius
    )
    ratio_large = (
        by[("empirical_bernstein", 100_000)].mean_radius
        / by[("freedman_oracle", 100_000)].mean_radius
    )
    limit = math.sqrt(math.log(30.0) / math.log(20.0))
    assert ratio_large < ratio_small
    assert abs(ratio_large - limit) < 0.05


def test_tilde_phi_on_iid_with_zero_budget_covers():
    cfg = _config(
        bounds=("tilde_phi_mixing",), process=iid_bernoulli(0.5), n_grid=(1000,), replications=3000
    )
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage >= row.level - 3 * max(row.mc_se, 1e-6)
    assert row.error_total is None


def test_agnostic_on_iid_has_zero_error_budget():
    cfg = _config(bounds=("mixing_agnostic",), process=iid_bernoulli(0.5), n_grid=(1000,))
    row = run_coverage(cfg).rows[0]
    assert row.error_total == 0.0
    assert "errors_unquantified" not in row.flags


def test_block_bounds_agree_on_a_constant_valued_chain():
    # h is constant, so tv_norm = 0 while Phi~ > 0.  mixing_agnostic was
    # once flagged "precondition: tv_phi_product must be > 0" here, while
    # tilde_phi_mixing reported coverage.
    spec = finite_markov([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
    budget = processes.mixing_budget_for(spec, "phi_tilde", 400)
    assert budget.tv_norm == 0.0 and budget.phi_sum > 0.0
    cfg = _config(process=spec, bounds=("tilde_phi_mixing", "mixing_agnostic"), n_grid=(400,),
                  replications=30, delta=0.01, alpha=None)
    tilde, agnostic = run_coverage(cfg).rows
    for row in (tilde, agnostic):
        assert row.flags == () and row.covered == 30 and row.mean_vhat == 0.0, row.bound
    assert agnostic.error_total == 0.0 and agnostic.level == tilde.level == 1.0 - 3.0 * 0.01


def test_dedecker_baseline_on_a_constant_valued_chain_has_radius_zero():
    # tv_norm = 0 while Phi~ > 0: dedecker_baseline was once flagged
    # "precondition: tv_norm and phi_tilde_sum must be > 0" here, while the
    # block bounds reported coverage 1.0.
    spec = finite_markov([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
    cfg = _config(process=spec, bounds=("phi_mixing", "tilde_phi_mixing", "mixing_agnostic",
                                        "dedecker_baseline"), n_grid=(200,), replications=50)
    rows = run_coverage(cfg).rows
    for row in rows:
        assert row.flags == () and row.empirical_coverage == 1.0, row.bound
    assert rows[-1].bound == "dedecker_baseline" and rows[-1].mean_radius == 0.0


def test_precondition_cell_is_flagged_not_fatal():
    cfg = _config(n_grid=(6,), replications=50, alpha=None, delta=0.02)
    report = run_coverage(cfg)
    row = report.rows[0]
    assert row.empirical_coverage is None
    assert any("precondition" in f for f in row.flags)
    # the summary line names the flag in place of a coverage
    assert reporting.summary_lines(report) == [
        "iid_bernoulli(p=0.5) empirical_bernstein n=6 [precondition: inflation undefined: "
        "too few effective samples (need n_eff > 2 log(1/delta) = 7.82405, got 6)]"]


def test_small_n_and_large_delta_cells_are_flagged_not_fatal():
    # Both once raised out of run_coverage: maurer_pontil_baseline at n = 1
    # divided by n - 1 = 0, and dedecker_baseline's 3*delta >= 1 check raised
    # an exception that run_cells did not catch.
    rows = run_coverage(
        _config(bounds=("maurer_pontil_baseline",), n_grid=(1, 50), replications=20)
    ).rows
    assert rows[0].empirical_coverage is None
    assert rows[0].flags == ("precondition: n must be an integer >= 2, got 1",)
    assert rows[1].empirical_coverage is not None
    row = run_coverage(
        _config(process=bernoulli_ar1(), bounds=("dedecker_baseline",), n_grid=(200,),
                replications=20, delta=0.4, alpha=None)
    ).rows[0]
    assert row.empirical_coverage is None
    assert row.flags == ("precondition: total miss probability 3*delta >= 1",)


@pytest.mark.parametrize("policy", [LPolicy("fixed", 7.0), XiPolicy(2.0, -0.5),
                                    KnobPolicy(t_scale=0.5, c_mode="fixed", c_value=0.1)],
                         ids=lambda p: type(p).__name__)
def test_a_policy_round_trips_through_its_dict(policy):
    d = policy.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert type(policy).from_dict(d) == policy


def test_xi_policy_label():
    assert XiPolicy(2.0, -0.5).label() == "2*n^-0.5"
    assert XiPolicy().label() == "1*n^-1"


@pytest.mark.parametrize("delta", [0.6666666666666666, 0.7])
def test_a_delta_whose_alpha_reaches_one_is_refused_naming_delta(delta):
    # alpha_eff = 1.5 * delta goes into log(1/alpha): at 1.0 (the float
    # product at the first delta) the sharpness limit divided by zero, and
    # past it took the log of a negative number.
    assert 1.5 * delta >= 1.0
    with pytest.raises(ConfigError, match=r"^field 'delta': 1\.5 \* delta"):
        _config(delta=delta, alpha=None)
    with pytest.raises(ConfigError, match="^field 'delta'"):
        ExperimentConfig.from_dict({**_config().to_dict(), "alpha": None, "delta": delta})


@pytest.mark.parametrize("delta", [0.65, 0.66])
def test_a_delta_whose_alpha_stays_below_one_runs(delta):
    row = run_coverage(_config(delta=delta, alpha=None, replications=20)).rows[0]
    assert row.alpha == 1.5 * delta < 1.0
    assert row.empirical_coverage is not None


INDEPENDENT_CHAIN = finite_markov([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0])


def test_dedecker_baseline_refuses_a_chain_with_identical_rows():
    # Its phi_tilde budget is an exact 0, as on iid data; a 1.39e-16 residue
    # once passed the check and gave coverage 0.08 at level 0.9.
    with pytest.raises(ConfigError, match="requires: a strictly positive phi_tilde budget"):
        run_coverage(_config(process=INDEPENDENT_CHAIN, bounds=("dedecker_baseline",),
                             n_grid=(100,), replications=200))


def test_tilde_phi_and_agnostic_report_a_chain_with_identical_rows_unflagged():
    rows = run_coverage(_config(process=INDEPENDENT_CHAIN, n_grid=(100,), replications=200,
                                bounds=("tilde_phi_mixing", "mixing_agnostic"))).rows
    assert [row.bound for row in rows] == ["tilde_phi_mixing", "mixing_agnostic"]
    for row in rows:
        assert row.flags == ()
        assert row.empirical_coverage >= row.level


def test_a_block_length_past_n_is_flagged_in_one_short_line():
    # floor(l) was printed as an exact integer: 1e308 made a 381-character
    # flag that held a 309-digit number.
    report = run_coverage(_config(bounds=("tilde_phi_mixing",), n_grid=(100,), replications=20,
                                  l_policy=LPolicy("fixed", 1e308)))
    flag = "precondition: need 1 <= floor(l) <= n = 100, got l = 1e+308"
    assert report.rows[0].flags == (flag,)
    assert reporting.coverage_csv(report).splitlines()[1].endswith(f',"{flag}"')


def test_sweep_requires_increasing_grid():
    with pytest.raises(ConfigError, match="increasing"):
        run_sharpness_sweep(_config(n_grid=(1000, 500)))
    with pytest.raises(ConfigError, match="at least two"):
        run_sharpness_sweep(_config(n_grid=(1000,)))


def test_block_sensitivity_rows_and_remark_agreement():
    cfg = _config(
        process=bernoulli_ar1(),
        bounds=("tilde_phi_mixing",),
        n_grid=(100_000,),
        replications=100,
        delta=0.05,
        alpha=None,
        l_policies=(LPolicy("exponent", 1.0 / 3.0), LPolicy("exponent", 0.40), LPolicy("exponent", 0.45)),
    )
    rows = run_block_sensitivity(cfg).rows
    assert len(rows) == 3
    vhats = [r.mean_vhat for r in rows]
    assert all(v is not None for v in vhats)
    # block-length insensitivity: pairwise deviations of mean vhat <= 15%,
    # hence the leading radius terms agree to within sqrt of that
    for a in vhats:
        for b in vhats:
            assert abs(a - b) / min(a, b) <= 0.15
    assert {r.l_policy for r in rows} == {"n^0.333333", "n^0.4", "n^0.45"}


def test_block_sensitivity_validation():
    with pytest.raises(ConfigError, match="at least two"):
        run_block_sensitivity(_config())
    with pytest.raises(ConfigError, match="block-based"):
        run_block_sensitivity(
            _config(l_policies=(LPolicy("exponent", 0.3), LPolicy("exponent", 0.4)))
        )


def test_iid_vhat_tracks_marginal_variance_for_all_l():
    cfg = _config(
        process=iid_bernoulli(0.5),
        bounds=("tilde_phi_mixing",),
        n_grid=(50_000,),
        replications=100,
        l_policies=(LPolicy("exponent", 1.0 / 3.0), LPolicy("exponent", 0.45)),
    )
    for row in run_block_sensitivity(cfg).rows:
        assert row.mean_vhat == pytest.approx(0.25, rel=0.05)


def test_burn_in_vectorized_matches_reference_op():
    # The closed form against the reference loop.  Powers at and below -1/2
    # make n * xi_n^2 non-increasing, large sigma2 qualifies at n = 1, and
    # small ones run past n_max.
    n_max = 20_000
    grid = itertools.product(
        (0.5, 1.0, 2.0),  # scale
        (-0.1, -0.25, -0.45, -0.5, -0.6),  # power
        (0.05, 1e-4),  # delta
        (0.3, 0.9),  # eta
        (0.01, 0.25, 1e3),  # sigma2
        (1.0, 3.0),  # b
    )
    outcomes = set()
    for scale, power, delta, eta, sigma2, b in grid:
        fast = burn_in_power_law(delta, eta, sigma2, b, scale, power, n_max=n_max)
        slow = burn_in_threshold(delta, eta, sigma2, b, lambda n: scale * n**power, n_max)
        assert fast == slow, (scale, power, delta, eta, sigma2, b)
        outcomes.add("none" if fast is None else "one" if fast == 1 else "later")
    assert outcomes == {"none", "one", "later"}


def test_maurer_pontil_radius_formula():
    v = 0.2
    expected = math.sqrt(2 * v * math.log(2 / 0.05) / 50) + 7 * math.log(2 / 0.05) / (3 * 49)
    assert maurer_pontil_radius(50, v, 0.05) == pytest.approx(expected, rel=1e-12)


def test_maurer_pontil_baseline_covers_iid():
    cfg = _config(bounds=("maurer_pontil_baseline",), n_grid=(500,), replications=3000)
    row = run_coverage(cfg).rows[0]
    assert row.level == pytest.approx(0.90)
    assert row.empirical_coverage >= row.level - 3 * max(row.mc_se, 1e-6)


def test_dedecker_baseline_row_on_ar1():
    cfg = _config(
        process=bernoulli_ar1(),
        bounds=("dedecker_baseline",),
        n_grid=(2000,),
        replications=2000,
        delta=0.05 / 3,
        alpha=None,
    )
    row = run_coverage(cfg).rows[0]
    assert row.sharpness_limit is None
    assert row.sigma_ref_source == "long_run"
    assert row.empirical_coverage >= row.level - 3 * max(row.mc_se, 1e-6)


def test_mixing_coverage_at_desk_scale():
    # the three dependence-aware bounds at n = 2000, R = 20000, level 0.95
    for process, bounds in (
        (finite_markov(TWO_STATE, [0.0, 1.0]), ("phi_mixing",)),
        (bernoulli_ar1(), ("tilde_phi_mixing", "mixing_agnostic")),
    ):
        cfg = _config(
            process=process,
            bounds=bounds,
            n_grid=(2000,),
            replications=20_000,
            delta=0.05 / 3,
            alpha=None,
        )
        for row in run_coverage(cfg).rows:
            assert row.empirical_coverage >= row.level - 3 * max(row.mc_se, 1e-6), row.bound


def test_single_block_policy_is_flagged_degenerate():
    # l = n gives m = 1: the block inflation is undefined, so the cell is
    # reported with a precondition flag instead of a bogus zero-variance radius
    cfg = _config(
        process=bernoulli_ar1(),
        bounds=("tilde_phi_mixing",),
        n_grid=(400,),
        l_policy=LPolicy("fixed", 400),
        delta=0.02,
        alpha=None,
    )
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage is None
    assert any("too few blocks" in f for f in row.flags)


def test_harness_radius_matches_unit_ops_on_same_path():
    import ebmix

    n, seed, delta = 2000, 77, 0.01
    alpha = 1.5 * delta
    two_state = finite_markov(TWO_STATE, [0.0, 1.0])
    for bound, spec in (
        ("freedman_oracle", iid_bernoulli(0.5)),
        ("mds_empirical", iid_rademacher()),
        ("empirical_bernstein", iid_bernoulli(0.5)),
        ("eb_ignore_linear", iid_bernoulli(0.5)),
        ("phi_mixing", two_state),
        ("tilde_phi_mixing", bernoulli_ar1()),
        ("mixing_agnostic", bernoulli_ar1()),
        ("dedecker_baseline", bernoulli_ar1()),
        ("maurer_pontil_baseline", iid_bernoulli(0.5)),
    ):
        cfg = _config(process=spec, bounds=(bound,), n_grid=(n,), replications=1,
                      master_seed=seed, delta=delta, alpha=None)
        row = run_coverage(cfg).rows[0]
        values, truth = ebmix.simulate(spec, n, (seed, 0))
        summary = ebmix.summarize(values, b=truth.b_abs)
        blocks = ebmix.block_summary(values, ebmix.block_partition(n, float(n) ** 0.4))
        rw = truth.range_width
        if bound == "freedman_oracle":
            direct = ebmix.freedman_radius(n, truth.sigma2_marginal, truth.b_centered, alpha)
        elif bound == "mds_empirical":
            direct = ebmix.core_bounds.mds_empirical_interval(values, truth.b_abs, delta).radius
        elif bound == "empirical_bernstein":
            direct = ebmix.eb_interval(summary, delta).radius
        elif bound == "eb_ignore_linear":
            direct = ebmix.ignore_linear_radius(summary, delta, n**-0.25)
        elif bound == "phi_mixing":
            budget = ebmix.mixing_budget_for(spec, "phi", n)
            direct = ebmix.phi_interval(blocks, rw, budget, delta, xi_n=1.0 / n).radius
        elif bound == "tilde_phi_mixing":
            budget = ebmix.mixing_budget_for(spec, "phi_tilde", n)
            direct = ebmix.tilde_phi_interval(blocks, rw, budget, delta, xi_n=1.0 / n).radius
        elif bound == "mixing_agnostic":
            knobs = KnobPolicy().evaluate(n, blocks.partition.remainder_size, rw)
            direct = ebmix.agnostic_interval(blocks, rw, knobs, delta).radius
        elif bound == "dedecker_baseline":
            budget = ebmix.mixing_budget_for(spec, "phi_tilde", n)
            direct = ebmix.dedecker_prieur_radius(n, budget.tv_norm, budget.phi_sum, 3 * delta)
        else:
            direct = maurer_pontil_radius(n, float(np.var(values, ddof=1)), alpha)
        # The block variance is one reduction, shared by the library and the
        # harness.  The library assembles a radius with recompose, the
        # harness with its pre-summed row rule, and the two can differ in
        # the last bit; on this path the bounds other than the css-based
        # ones happen to agree exactly.  The library's css is
        # shift-stabilized (and np.var is a third accumulation), so those
        # agree to rounding.
        if bound in ("empirical_bernstein", "eb_ignore_linear", "maurer_pontil_baseline"):
            assert row.mean_radius == pytest.approx(direct, rel=1e-12), bound
        else:
            assert row.mean_radius == direct, bound


def test_chunk_edges_are_balanced_and_cover_exactly():
    # 850 rows of 10^4 values fit 104 to an 8 MB chunk: nine even chunks.
    assert _chunk_edges(850, 10_000) == [
        (0, 94), (94, 188), (188, 283), (283, 377), (377, 472),
        (472, 566), (566, 661), (661, 755), (755, 850),
    ]
    # Two threads share the budget: 52 rows fit half of it, seventeen chunks of 50.
    assert _chunk_edges(850, 10_000, 2) == [(50 * i, 50 * i + 50) for i in range(17)]
    for elementwise, budget in ((False, _CHUNK_VALUES), (True, _ELEMENTWISE_CHUNK_VALUES)):
        for n_jobs in (1, 2, 3, 8):
            for r, n in ((850, 10_000), (1, 10), (7, 1), (10, 1 << 22), (40_000, 200),
                         (5, 1 << 24), (1001, 3 << 13), (999_983, 17)):
                edges = _chunk_edges(r, n, n_jobs, elementwise)
                cap = max(1, budget // n_jobs // n)
                sizes = [hi - lo for lo, hi in edges]
                assert edges[0][0] == 0 and edges[-1][1] == r
                assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
                assert max(sizes) - min(sizes) <= 1 and 1 <= min(sizes) and max(sizes) <= cap
                assert len(edges) == -(-r // cap)


@pytest.mark.parametrize("spec, r, n, chunks", [
    # iid_short_paths: 1310 rows fit 2^18 values, 655 on each of two threads.
    (iid_bernoulli(0.3), 40_000, 200, (31, 62)),
    (hetero_mds([0.5, 1.0, 0.25]), 40_000, 200, (31, 62)),
    # ar1_long_paths and the slow chain keep their 2^20-value chunks.
    (bernoulli_ar1(), 16, 200_000, (4, 8)),
    (finite_markov([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
                   [0.0, 0.5, 1.0]), 850, 10_000, (9, 17)),
], ids=["iid_bernoulli", "hetero_mds", "bernoulli_ar1", "finite_markov"])
def test_chunk_budget_follows_the_path_transform(spec, r, n, chunks):
    elementwise = processes.is_elementwise(spec)
    assert elementwise == (spec.kind in ("iid_bounded", "hetero_mds"))
    budget = _ELEMENTWISE_CHUNK_VALUES if elementwise else _CHUNK_VALUES
    for n_jobs, count in zip((1, 2), chunks):
        edges = _chunk_edges(r, n, n_jobs, elementwise)
        assert len(edges) == count
        assert max(hi - lo for lo, hi in edges) * n <= max(n, budget // n_jobs)


def _digests(report):
    return tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                 for text in (reporting.coverage_csv(report), reporting.report_json(report)))


# CSV and report-JSON SHA-256 of css-based bounds with one and with an odd
# number of replications, at n on both sides of 2**19 and 2**20 // 3.  Each
# row of 4e5 or 6e5 values is alone in its chunk, and takes the bits it gets
# in a chunk of several rows.
PINNED_CSS_SHA256 = {
    1: ("8a3b686c92ee53c361eaae297a61e957fdddc9c4e749f5a679718f5511c4d459",
        "bf9f63b9457acf94e9835beede2bbb787c6cd857bbaa340a55cb1cfd7cebbfcf"),
    3: ("bfabe0e3d16f317d17d04c8f4b1c14b59f6a6ce2869b44b145cffe91677b089f",
        "89a4b644bdff627963f8751116a74fb50dbbc6c0d3a8c5c93bbca5f21a3051b7"),
    5: ("b16a5d06fb31859e848bb36bccd471c976d54e0e77e66e43353f27d6485450c0",
        "8ea3f7d7255c71e1729c587ffd2ac21ae62bdba207ef256a8654ae0dacf77f64"),
}


@pytest.mark.parametrize("replications", sorted(PINNED_CSS_SHA256))
def test_pinned_css_report_digests_with_few_replications(replications):
    cfg = _config(process=iid_bernoulli(0.3),
                  bounds=("empirical_bernstein", "eb_ignore_linear", "maurer_pontil_baseline"),
                  n_grid=(200, 400_000, 600_000), replications=replications, master_seed=2024)
    for jobs in (1, 2):
        assert _digests(run_coverage(cfg, n_jobs=jobs)) == PINNED_CSS_SHA256[replications], jobs


_ROW_BLOCK_GRID = pytest.mark.parametrize(
    "rows, n",
    [(1, 1000), (2, 1 << 17), (5, 40_000), (131, 1000), (196, 1000), (64, 1000), (4001, 200),
     (66, 1000), (1, 10_000), (1, 200_000)]
    + [(rows, n) for n in (8_191, 8_193, 10_000, 200_000) for rows in (2, 3, 7)],
)


@_ROW_BLOCK_GRID
def test_blocked_row_css_equals_the_whole_chunk_expression_bit_for_bit(rows, n):
    # 196 rows of 1000 values: css blocks of 65, 65, 65 and a lone row.  einsum
    # reduces each row of a chunk of two or more rows alike, so the chunk is
    # taken twice over for the reference.
    assert _CSS_VALUES // 1000 == 65
    vals = np.random.default_rng([rows, n]).random((rows, n)) * 1e3
    means = vals.mean(axis=1)
    d = np.concatenate([vals, vals]) - np.concatenate([means, means])[:, None]
    expected = np.einsum("ij,ij->i", d, d)[:rows].view(np.uint64)
    assert np.array_equal(_row_statistic("css", vals, means).view(np.uint64), expected)
    # A row alone gets the bits it gets among the others.
    for i in range(rows):
        alone = _row_statistic("css", vals[i:i + 1], means[i:i + 1]).view(np.uint64)
        assert alone[0] == expected[i], i


@_ROW_BLOCK_GRID
@pytest.mark.parametrize("exact", [False, True])
def test_blocked_row_vhat_equals_the_whole_chunk_row_vhat_bit_for_bit(monkeypatch, rows, n,
                                                                     exact):
    # 4001 rows of 200 values, 25 blocks of 8 each: v-hat blocks of 2621
    # rows and 1380, against row_vhat over the whole chunk.  Data of 0s and
    # 1s have exact partial sums, as the einsum block sums need.
    from ebmix import harness

    vals = np.random.default_rng([rows, n]).random((rows, n))
    vals = (vals < 0.3).astype(float) if exact else vals * 1e3
    partition = block_partition(n, float(n) ** 0.4)
    key = ("vhat", partition.m, partition.floor_l)
    expected = row_vhat(vals, partition.m, partition.floor_l, exact).view(np.uint64)
    heights = []
    monkeypatch.setattr(harness, "row_vhat", lambda block, *args: heights.append(len(block))
                        or row_vhat(block, *args))
    got = _row_statistic(key, vals, vals.mean(axis=1), exact).view(np.uint64)
    assert np.array_equal(got, expected)
    # No block's block sums hold more than _CSS_VALUES values, or one row's.
    assert sum(heights) == rows and max(heights) * partition.m <= max(_CSS_VALUES, partition.m)
    for i in range(rows):
        alone = _row_statistic(key, vals[i:i + 1], vals[i:i + 1].mean(axis=1), exact)
        assert alone.view(np.uint64)[0] == expected[i], i


@pytest.mark.parametrize("spec, bounds", [
    (iid_bernoulli(0.3), ("empirical_bernstein", "eb_ignore_linear", "maurer_pontil_baseline",
                          "tilde_phi_mixing")),
    (iid_uniform(0.0, 1.0), ("empirical_bernstein", "eb_ignore_linear",
                             "maurer_pontil_baseline", "tilde_phi_mixing")),
    (hetero_mds([0.5, 1.0, 0.25]), ("mds_empirical", "empirical_bernstein",
                                    "tilde_phi_mixing")),
], ids=["iid_bernoulli", "iid_uniform", "hetero_mds"])
def test_report_bytes_do_not_depend_on_chunk_size_or_jobs(monkeypatch, spec, bounds):
    # 7 rows of 2e4 values come in chunks of one row (2**12), of two or three
    # rows (2**16) and of all seven (2**20), whose css blocks are 3, 3 and a
    # lone row; on 2 or 3 threads the 2**16 budget is split into one-row
    # chunks.  tilde_phi with l = 2 reduces 10^4 block sums per row.  These
    # processes are elementwise, so their chunks follow that budget.
    from ebmix import harness

    cfg = _config(process=spec, bounds=bounds, n_grid=(20_000,), replications=7,
                  master_seed=5, l_policy=LPolicy("fixed", 2))
    digests = set()
    for values in (1 << 12, 1 << 16, 1 << 20):
        monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES", values)
        for jobs in (1, 2, 3):
            digests.add(_digests(run_coverage(cfg, n_jobs=jobs)))
    assert len(digests) == 1


def _column_step_chain():
    # 17 states and 272 distinct cumulative cuts: the chain takes the column step.
    P = np.random.default_rng(8).uniform(0.5, 1.0, (17, 17))
    return finite_markov(P / P.sum(axis=1, keepdims=True), np.arange(17) / 16)


_BLOCKS = ("tilde_phi_mixing", "mixing_agnostic")
_GRID_KINDS = {
    "iid_bernoulli": (iid_bernoulli(0.3), ("freedman_oracle", "empirical_bernstein",
                                           "maurer_pontil_baseline") + _BLOCKS),
    "iid_uniform": (iid_uniform(-0.5, 2.0), ("empirical_bernstein", "eb_ignore_linear")
                    + _BLOCKS),
    "hetero_mds": (hetero_mds([0.5, 1.0, 0.25]), ("mds_empirical", "empirical_bernstein")
                   + _BLOCKS),
    "bernoulli_ar1": (bernoulli_ar1(), ("dedecker_baseline",) + _BLOCKS),
    "dyadic_chain": (finite_markov(SLOW_3, [0.0, 0.5, 1.0]), ("phi_mixing",) + _BLOCKS),
    "column_step_chain": (_column_step_chain(), ("phi_mixing",) + _BLOCKS),
}


@pytest.mark.parametrize("kind", sorted(_GRID_KINDS))
def test_a_multi_n_report_has_the_rows_of_the_one_n_reports(monkeypatch, kind):
    # A multi-n run draws each replication once, at its largest n, and reads
    # every n from the prefix.  With 2^16-value budgets the n = 70 000 paths
    # come one row to a chunk, while each one-n run below it takes all five
    # rows in one chunk, so an n that read another replication's path, or
    # another path's values, would change its mean radius or block variance.
    # n = 2 and 7 flag the block bounds (too few blocks).
    from ebmix import harness

    monkeypatch.setattr(harness, "_CHUNK_VALUES", 1 << 16)
    monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES", 1 << 16)
    spec, bounds = _GRID_KINDS[kind]
    grid = (300, 2, 70_000, 7)
    cfg = _config(process=spec, bounds=bounds, n_grid=grid, replications=5, master_seed=9,
                  l_policies=(LPolicy("exponent", 0.4), LPolicy("fixed", 3)))
    for jobs in (1, 2):
        report = run_coverage(cfg, n_jobs=jobs)
        singles = [run_coverage(dataclasses.replace(cfg, n_grid=(n,)), n_jobs=jobs) for n in grid]
        csv_rows = [reporting.coverage_csv(one).splitlines()[1:] for one in singles]
        assert reporting.coverage_csv(report).splitlines()[1:] == sum(csv_rows, [])
        json_rows = [json.loads(reporting.report_json(one))["rows"] for one in singles]
        assert json.loads(reporting.report_json(report))["rows"] == sum(json_rows, [])
        assert any(row.covered is None for row in report.rows)
        assert sum(row.mean_vhat is not None for row in report.rows) >= 4


@pytest.mark.parametrize("spec, grid, top", [
    (iid_bernoulli(0.3), (300, 20, 1000), 1000),
    (finite_markov(SLOW_3, [0.0, 0.5, 1.0]), (1000, 20, 300), 1000),
    # l = 20 leaves one block at n = 20 and 30, too few: nothing is drawn.
    (iid_bernoulli(0.3), (20, 30), None),
], ids=["iid_bernoulli", "dyadic_chain", "all_flagged"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_each_chunk_is_drawn_once_at_the_largest_live_n(monkeypatch, spec, grid, top, jobs):
    from ebmix import harness

    monkeypatch.setattr(harness, "_CHUNK_VALUES", 1 << 14)
    monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES", 1 << 14)
    calls = []
    draw = processes.simulate_paths

    def counted(process, n, master_seed, indices):
        calls.append((n, len(indices)))
        return draw(process, n, master_seed, indices)

    monkeypatch.setattr(processes, "simulate_paths", counted)
    r = 90
    cfg = _config(process=spec, bounds=("tilde_phi_mixing",), n_grid=grid, replications=r,
                  l_policy=LPolicy("fixed", 20))
    rows = harness.run_cells(cfg, n_jobs=jobs)
    assert [row.covered is not None for row in rows] == [n >= 300 for n in grid]
    if top is None:
        assert calls == []
        return
    chunks = _chunk_edges(r, top, jobs, processes.is_elementwise(spec))
    assert len(chunks) > 1
    assert sorted(calls) == sorted((top, hi - lo) for lo, hi in chunks)
    assert sum(n * rows for n, rows in calls) == r * top


@pytest.mark.parametrize(
    "spec, n, l, seed, delta",
    [(bernoulli_ar1(), 200_000, l, 4, 0.01) for l in (1, 2, 10)]
    + [(iid_uniform(0.0, 1.0), 37, 37, 2, 0.65)],
    ids=["1", "2", "10", "one-block"],
)
def test_library_block_variance_equals_the_harness_bit_for_bit(spec, n, l, seed, delta):
    # 2e4 or more blocks: past einsum's 8192-value buffer, where a lone row
    # takes another kernel unless it goes through blocking.row_sumsq.  At one
    # block (l = n, which needs delta > e^(-1/2)) the centered block sum is a
    # rounding residue, 3.4e-31 on the second path here; block_summary once
    # forced it to 0.0.
    import ebmix
    from ebmix import harness, processes

    r = 3
    cfg = _config(process=spec, bounds=("tilde_phi_mixing",), n_grid=(n,), replications=r,
                  master_seed=seed, l_policy=LPolicy("fixed", l), delta=delta, alpha=None)
    partition = ebmix.block_partition(n, l)
    library = np.array([ebmix.block_summary(ebmix.simulate(spec, n, (seed, i))[0], partition).v_hat
                        for i in range(r)])
    vals = processes.simulate_paths(spec, n, seed, range(r))
    plan = harness._CellPlan(cfg, "tilde_phi_mixing", n, cfg.l_policy)
    vhat = harness._row_statistic(plan.stat, vals, vals.mean(axis=1))
    assert np.array_equal(vhat.view(np.uint64), library.view(np.uint64))
    assert run_coverage(cfg).rows[0].mean_vhat == float(np.mean(library))


# Ties, signed zeros, subnormals and infinities, drawn often enough to meet.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, math.inf, -math.inf]


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False), min_size=1, max_size=41),
    st.booleans(),
)
def test_median_equals_numpy_median_bit_for_bit(values, with_nan):
    x = np.array(values + [math.nan] * with_nan)
    with np.errstate(invalid="ignore"):  # inf - inf in the middle pair
        got, want = _median(x.copy()), np.median(x)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_cell_result_exact_coverage_ratio():
    cfg = _config(n_grid=(300,), replications=700)
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage == row.covered / row.replications
    assert row.mc_se == pytest.approx(
        math.sqrt(row.empirical_coverage * (1 - row.empirical_coverage) / row.replications)
    )



@pytest.mark.parametrize("spec, exact", [
    (iid_bernoulli(0.3), True),
    (finite_markov([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]], [0.0, 0.5, 1.0]),
     True),
    (bernoulli_ar1(), False),
    (iid_uniform(-0.5, 2.0), False),
])
def test_block_variances_take_einsum_sums_only_for_exact_processes(monkeypatch, spec, exact):
    from ebmix import harness

    seen = []
    row_vhat = harness.row_vhat

    def recording_vhat(vals, m, fl, exact=False):
        seen.append(exact)
        return row_vhat(vals, m, fl, exact)

    monkeypatch.setattr(harness, "row_vhat", recording_vhat)
    elementwise = processes.is_elementwise(spec)
    monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES" if elementwise else "_CHUNK_VALUES",
                        20 * 200)
    cfg = _config(process=spec, bounds=("tilde_phi_mixing", "mixing_agnostic"), n_grid=(200,),
                  replications=50, l_policies=(LPolicy("exponent", 0.4), LPolicy("fixed", 15)))
    assert all(row.covered is not None for row in run_coverage(cfg).rows)
    assert seen == [exact] * 2 * len(_chunk_edges(50, 200, elementwise=elementwise))


def test_row_statistics_are_computed_once_per_chunk(monkeypatch):
    from ebmix import harness, processes

    calls = {"css": 0, "vhat": 0}
    row_sumsq, row_vhat = harness.row_sumsq, harness.row_vhat

    def counted_css(*args):  # the harness takes a row sum of squares only for css here
        calls["css"] += 1
        return row_sumsq(*args)

    def counted_vhat(*args):
        calls["vhat"] += 1
        return row_vhat(*args)

    monkeypatch.setattr(harness, "row_sumsq", counted_css)
    monkeypatch.setattr(harness, "row_vhat", counted_vhat)
    monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES", 20 * 200)
    css_bounds = ("empirical_bernstein", "eb_ignore_linear", "maurer_pontil_baseline")
    policies = (LPolicy("exponent", 0.4), LPolicy("exponent", 0.5))  # l = 8 and l = 14
    cfg = _config(
        process=iid_bernoulli(0.3),
        bounds=css_bounds + ("phi_mixing", "tilde_phi_mixing", "mixing_agnostic"),
        n_grid=(200,),
        replications=50,
        l_policies=policies,
    )
    chunks = len(_chunk_edges(50, 200, elementwise=True))
    assert chunks == 3
    rows = harness.run_cells(cfg)
    assert calls == {"css": chunks, "vhat": 2 * chunks}
    assert all(row.covered is not None for row in rows)

    # Plans share a statistic, so evaluate only reads it: the statistic
    # keeps its bits, and a copy of it gives the same radii.
    vals = processes.simulate_paths(cfg.process, 200, cfg.master_seed, range(20))
    means = vals.mean(axis=1)
    for lp in policies:
        for bound in cfg.bounds:
            plan = harness._CellPlan(cfg, bound, 200, lp)
            shared = harness._row_statistic(plan.stat, vals, means)
            kept = shared.copy()
            radii = plan.evaluate(shared)
            assert np.array_equal(shared.view(np.uint64), kept.view(np.uint64)), bound
            assert np.array_equal(radii.view(np.uint64), plan.evaluate(kept).view(np.uint64)), bound


_IID_BOUNDS = ("freedman_oracle", "empirical_bernstein", "eb_ignore_linear", "phi_mixing",
               "tilde_phi_mixing", "mixing_agnostic", "maurer_pontil_baseline")


def test_each_plan_is_evaluated_once_per_n_not_per_chunk(monkeypatch):
    from ebmix import harness

    calls = []
    evaluate = harness._CellPlan.evaluate

    def counted(plan, stat):
        calls.append((plan.n, plan.bound))
        return evaluate(plan, stat)

    monkeypatch.setattr(harness._CellPlan, "evaluate", counted)
    monkeypatch.setattr(harness, "_ELEMENTWISE_CHUNK_VALUES", 20 * 200)
    cfg = _config(process=iid_bernoulli(0.3), bounds=_IID_BOUNDS, n_grid=(200, 100),
                  replications=50)
    assert len(_chunk_edges(50, 200, elementwise=True)) == 3
    rows = harness.run_cells(cfg)
    assert all(row.covered is not None for row in rows)
    assert sorted(calls) == sorted((row.n, row.bound) for row in rows)


def test_iid_short_paths_run_holds_one_chunk_and_one_float_per_replication_per_statistic():
    # The iid_short_paths config: 8 * 10^6 values, 64 MB as one array, in
    # 31 chunks of at most 1291 rows, 2 MB each: an elementwise process
    # needs no more in flight.  Its 7 bounds read 3 distinct row statistics:
    # the mean, the css and one block variance.  Radii are made one plan at
    # a time, at the end.
    n, r = 200, 40_000
    cfg = _config(process=iid_bernoulli(0.3), bounds=_IID_BOUNDS, n_grid=(n,), replications=r,
                  master_seed=0)
    run_coverage(dataclasses.replace(cfg, replications=10))  # one-time imports, outside the trace
    tracemalloc.start()
    try:
        run_coverage(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**18 + 3 * 8 * r + 1.5 * 2**20


def _traced_peak(cfg, n_jobs):
    tracemalloc.start()
    try:
        run_coverage(cfg, n_jobs=n_jobs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_threads_share_one_chunk_budget():
    # 400 paths of 10^4 values, 32 MB as one array: four chunks of 100 rows
    # on one thread, eight of 50 on two.  Each thread holding a chunk of the
    # serial size would double the peak.
    cfg = _config(process=finite_markov(SLOW_3, [0.0, 0.5, 1.0]), bounds=("tilde_phi_mixing",),
                  n_grid=(10_000,), replications=400, master_seed=0)
    run_coverage(cfg)  # the chain's cached set-up, outside the traced runs
    assert _traced_peak(cfg, 2) <= 1.25 * _traced_peak(cfg, 1)


def _scale_fault(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


_SLACK_FAULT = _scale_fault("the slack sqrt(2 L xi_n) / n carries no data unit")
_KNOB_FAULT = _scale_fault("the knobs t_n and s_n carry no data unit")


@pytest.mark.parametrize("process, bound", [
    (lambda s: iid_uniform(-s, 2 * s), "empirical_bernstein"),
    (lambda s: iid_uniform(-s, 2 * s), "eb_ignore_linear"),
    (lambda s: iid_uniform(-s, 2 * s), "freedman_oracle"),
    (lambda s: hetero_mds([s / 2, s]), "mds_empirical"),
    (lambda s: hetero_mds([s / 2, s]), "empirical_bernstein"),
    pytest.param(lambda s: finite_markov(SLOW_3, [0.0, s / 2, s]), "phi_mixing",
                 marks=_SLACK_FAULT),
    pytest.param(lambda s: finite_markov(SLOW_3, [0.0, s / 2, s]), "tilde_phi_mixing",
                 marks=_SLACK_FAULT),
    pytest.param(lambda s: finite_markov(SLOW_3, [0.0, s / 2, s]), "mixing_agnostic",
                 marks=_KNOB_FAULT),
    pytest.param(lambda s: finite_markov(SLOW_3, [0.0, s / 2, s]), "dedecker_baseline",
                 marks=_scale_fault("the radius sqrt(2 tv phi_sum log(2/eps) / n) scales "
                                    "like sqrt(s)")),
    # Named, since pytest would number a repeated "<lambda>-bound" id and so
    # rename the cases above.
    pytest.param(lambda s: hetero_mds([s / 2, s]), "freedman_oracle", id="mds-freedman_oracle"),
    pytest.param(lambda s: iid_uniform(-s, 2 * s), "phi_mixing", marks=_SLACK_FAULT,
                 id="iid-phi_mixing"),
    pytest.param(lambda s: iid_uniform(-s, 2 * s), "tilde_phi_mixing", marks=_SLACK_FAULT,
                 id="iid-tilde_phi_mixing"),
    pytest.param(lambda s: iid_uniform(-s, 2 * s), "mixing_agnostic", marks=_KNOB_FAULT,
                 id="iid-mixing_agnostic"),
    pytest.param(lambda s: hetero_mds([s / 2, s]), "phi_mixing", marks=_SLACK_FAULT,
                 id="mds-phi_mixing"),
    pytest.param(lambda s: hetero_mds([s / 2, s]), "tilde_phi_mixing", marks=_SLACK_FAULT,
                 id="mds-tilde_phi_mixing"),
    pytest.param(lambda s: hetero_mds([s / 2, s]), "mixing_agnostic", marks=_KNOB_FAULT,
                 id="mds-mixing_agnostic"),
])
def test_radius_scales_with_the_data_bit_for_bit(process, bound):
    # Scaling the data, and with them every scale input, by s = 2**k is
    # exact in floating point, and so is every operation of a radius whose
    # terms carry one data unit.
    def row(s):
        cfg = _config(process=process(s), bounds=(bound,), n_grid=(2000,), replications=64,
                      master_seed=3)
        return run_coverage(cfg).rows[0]

    base = row(1.0)
    assert base.covered is not None
    for k in (-3, 1, 5):
        s, scaled = 2.0**k, row(2.0**k)
        assert scaled.mean_radius == s * base.mean_radius, k
        assert scaled.median_radius == s * base.median_radius, k
        assert (scaled.level, scaled.flags, scaled.covered) == (
            base.level, base.flags, base.covered), k


def test_reflected_chain_keeps_every_radius_bit_for_bit():
    # h -> -h keeps the states, so each path is negated bit for bit, and so
    # are its mean and block sums; the block variances, the range and the
    # budgets are unchanged, and so is |center - mu|.  These are the bounds
    # a chain admits.
    def spec(sign):
        return finite_markov(SLOW_3, [sign * 0.0, sign * 0.5, sign * 1.0])

    def rows(sign):
        cfg = _config(process=spec(sign), bounds=("phi_mixing", "tilde_phi_mixing",
                                                  "mixing_agnostic", "dedecker_baseline"),
                      n_grid=(2000,), replications=64, master_seed=3)
        return run_coverage(cfg).rows

    base, mirrored = rows(1.0), rows(-1.0)
    path, flipped = (processes.simulate_paths(spec(sign), 2000, 3, range(8)) for sign in (1, -1))
    assert np.array_equal((-path).view(np.uint64), flipped.view(np.uint64))
    for a, b in zip(base, mirrored, strict=True):
        assert a.covered is not None, a.bound
        assert a.mean_radius == b.mean_radius and a.median_radius == b.median_radius, a.bound
        assert (a.level, a.flags, a.covered) == (b.level, b.flags, b.covered), a.bound


def test_chain_set_up_runs_once_per_run_not_per_plan_or_chunk(monkeypatch):
    from ebmix import harness, processes

    monkeypatch.setattr(harness, "_CHUNK_VALUES", 20 * 300)
    checks = []
    monkeypatch.setattr(processes, "_check_ergodic",
                        lambda P, _real=processes._check_ergodic: checks.append(P) or _real(P))
    processes._chain_set_up.cache_clear()
    cfg = _config(process=finite_markov(TWO_STATE, [0.0, 1.0]),
                  bounds=("phi_mixing", "tilde_phi_mixing", "mixing_agnostic"),
                  n_grid=(300, 600), replications=50,
                  l_policies=(LPolicy("exponent", 0.4), LPolicy("exponent", 0.5)))
    chunks = sum(len(_chunk_edges(50, n)) for n in cfg.n_grid)
    assert chunks == 3 + 5
    rows = harness.run_cells(cfg)
    assert all(row.covered is not None for row in rows)
    info = processes._chain_set_up.cache_info()
    # built once, with its one ergodicity check, when the spec was made
    assert info.misses == 1 and len(checks) == 1
    # and read by every plan, bound check and budget, and by every chunk
    assert info.hits >= 2 * len(rows) + chunks


def test_threads_sharing_a_cold_chain_set_up_write_the_serial_bytes(monkeypatch):
    # More threads than cores, many small chunks and a short switch interval,
    # with the chain's cached set-up cleared so that threads race to build it.
    from ebmix import processes

    monkeypatch.setattr("ebmix.harness._CHUNK_VALUES", 4 * 500)
    cfg = _config(process=finite_markov([[0.99, 0.01], [0.01, 0.99]], [0.0, 1.0]),
                  bounds=("phi_mixing", "tilde_phi_mixing"), n_grid=(500,), replications=120)
    serial = reporting.coverage_csv(run_coverage(cfg))
    paths = processes.simulate_paths(cfg.process, 500, 0, range(120))
    chunks = [range(lo, lo + 4) for lo in range(0, 120, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            processes._chain_set_up.cache_clear()
            assert reporting.coverage_csv(run_coverage(cfg, n_jobs=8)) == serial
            # the plans build the set-up before any chunk runs, so race for it here
            processes._chain_set_up.cache_clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                raced = list(pool.map(
                    lambda rows: processes.simulate_paths(cfg.process, 500, 0, rows), chunks))
            assert np.array_equal(np.concatenate(raced).view(np.uint64), paths.view(np.uint64))
    finally:
        sys.setswitchinterval(interval)
