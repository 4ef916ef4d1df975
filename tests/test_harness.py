"""Harness: config validation and round-trip, determinism, parallel
invariance, coverage/comparison behavior at small scale."""

import hashlib
import json
import math

import pytest

from ebmix import (
    ConfigError,
    ExperimentConfig,
    KnobPolicy,
    LPolicy,
    XiPolicy,
    bernoulli_ar1,
    burn_in_threshold,
    compare_bounds,
    finite_markov,
    hetero_mds,
    iid_bernoulli,
    iid_rademacher,
    maurer_pontil_radius,
    run_block_sensitivity,
    run_coverage,
    run_sharpness_sweep,
)
from ebmix.harness import _burn_in_vectorized, resolve_bound
from ebmix import reporting

TWO_STATE = [[0.9, 0.1], [0.1, 0.9]]


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


def test_config_accepts_single_bound_field():
    raw = _config().to_dict()
    del raw["bounds"]
    raw["bound"] = "eb"
    assert ExperimentConfig.from_dict(raw).bounds == ("empirical_bernstein",)


def test_incompatible_bound_raises_config_error():
    with pytest.raises(ConfigError, match="phi budget required"):
        run_coverage(_config(process=bernoulli_ar1(), bounds=("phi_mixing",)))
    with pytest.raises(ConfigError, match="zero-mean"):
        run_coverage(_config(bounds=("mds_empirical",)))
    with pytest.raises(ConfigError, match=r"\[0,1\]-valued"):
        run_coverage(
            _config(process=iid_rademacher(), bounds=("maurer_pontil_baseline",))
        )
    with pytest.raises(ConfigError, match="IID"):
        run_coverage(
            _config(process=finite_markov(TWO_STATE, [0.0, 1.0]), bounds=("eb_ignore_linear",))
        )


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
    rows = compare_bounds(cfg).rows
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


def test_precondition_cell_is_flagged_not_fatal():
    cfg = _config(n_grid=(6,), replications=50, alpha=None, delta=0.02)
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage is None
    assert any("precondition" in f for f in row.flags)


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
    for scale, power in ((1.0, -0.25), (0.5, -0.3), (2.0, -0.45)):
        pol = XiPolicy(scale, power)
        fast = _burn_in_vectorized(0.05, 0.5, 0.25, 1.0, pol, n_max=50_000)
        slow = burn_in_threshold(0.05, 0.5, 0.25, 1.0, lambda n: pol.scale * n**pol.power, 50_000)
        assert fast == slow
    pol = XiPolicy(1.0, -0.6)  # n * xi^2 decreasing: never attained
    assert _burn_in_vectorized(0.05, 0.5, 0.25, 1.0, pol, n_max=20_000) is None
    assert burn_in_threshold(0.05, 0.5, 0.25, 1.0, lambda n: n**-0.6, 20_000) is None


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

    n, seed = 2000, 77
    spec = bernoulli_ar1()
    cfg = _config(
        process=spec,
        bounds=("tilde_phi_mixing",),
        n_grid=(n,),
        replications=1,
        master_seed=seed,
        delta=0.01,
        alpha=None,
    )
    row = run_coverage(cfg).rows[0]
    values, truth = ebmix.simulate(spec, n, (seed, 0))
    part = ebmix.block_partition(n, float(n) ** 0.4)
    blocks = ebmix.block_summary(values, part)
    budget = ebmix.mixing_budget_for(spec, "phi_tilde", n)
    direct = ebmix.tilde_phi_interval(blocks, truth.range_width, budget, 0.01, xi_n=1.0 / n)
    assert row.mean_radius == pytest.approx(direct.radius, rel=1e-12)

    iid = iid_bernoulli(0.5)
    cfg_eb = _config(
        process=iid, bounds=("empirical_bernstein",), n_grid=(n,), replications=1,
        master_seed=seed, delta=0.01, alpha=None,
    )
    row_eb = run_coverage(cfg_eb).rows[0]
    values_eb, truth_eb = ebmix.simulate(iid, n, (seed, 0))
    direct_eb = ebmix.eb_interval(ebmix.summarize(values_eb, b=truth_eb.b_abs), 0.01)
    assert row_eb.mean_radius == pytest.approx(direct_eb.radius, rel=1e-9)


def test_cell_result_exact_coverage_ratio():
    cfg = _config(n_grid=(300,), replications=700)
    row = run_coverage(cfg).rows[0]
    assert row.empirical_coverage == row.covered / row.replications
    assert row.mc_se == pytest.approx(
        math.sqrt(row.empirical_coverage * (1 - row.empirical_coverage) / row.replications)
    )

