"""CLI contract: JSON output shape, exit-code discipline, atomic output
files, frozen CSV headers, and environment-variable defaults."""

import json

import numpy as np
import pytest

from ebmix import cli, core_bounds
from ebmix.cli import main, read_values
from ebmix.errors import InputError
from ebmix.harness import ExperimentConfig, run_coverage
from ebmix.processes import ground_truth, iid_rademacher
from ebmix.reporting import COVERAGE_COLUMNS, SENSITIVITY_COLUMNS

# Frozen interface: changing either header is a breaking change.
GOLDEN_COVERAGE_HEADER = (
    "process,bound,n,delta,alpha,level,replications,covered,empirical_coverage,"
    "mc_se,mean_radius,median_radius,sharpness_ratio,sharpness_limit,sigma_ref,"
    "sigma_ref_source,l_policy,block_len,blocks,remainder,mean_vhat,error_total,"
    "penalty,burn_in_n,master_seed,flags"
)
GOLDEN_SENSITIVITY_HEADER = (
    "process,bound,n,l_policy,block_len,blocks,remainder,mean_vhat,mean_radius,"
    "replications,master_seed,flags"
)


def _write_config(path, **overrides):
    cfg = {
        "process": {"kind": "iid_bounded", "params": {"dist": "bernoulli", "p": 0.5}},
        "bounds": ["eb"],
        "n_grid": [300],
        "replications": 300,
        "master_seed": 5,
        "alpha": 0.05,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_golden_csv_headers():
    assert ",".join(COVERAGE_COLUMNS) == GOLDEN_COVERAGE_HEADER
    assert ",".join(SENSITIVITY_COLUMNS) == GOLDEN_SENSITIVITY_HEADER


def test_bound_json_contract(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("# comment\n0.2\n0.4\n\n0.6\n0.8\n" * 30, encoding="utf-8")
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--b", "1", "--data", str(data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) >= {"center", "radius", "level", "breakdown"}
    assert out["level"] == pytest.approx(0.90)
    assert out["center"] == pytest.approx(0.5)


def test_bound_constant_data_reduces_to_linear_term(tmp_path, capsys):
    data = tmp_path / "const.txt"
    data.write_text("0.5\n" * 100, encoding="utf-8")
    assert main(["bound", "--method", "eb", "--delta", "0.01", "--b", "1", "--data", str(data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["breakdown"]["leading"] == 0.0
    expected = out["breakdown"]["inflation"] * out["breakdown"]["linear"]
    assert out["radius"] == pytest.approx(expected, rel=1e-12)


def test_bound_precondition_exit_2(capsys):
    code = main(
        ["bound", "--method", "eb", "--delta", "0.001", "--b", "1",
         "--n", "10", "--mean", "0.5", "--css", "1.0"]
    )
    assert code == 2
    assert "inflation undefined" in capsys.readouterr().err


def test_bound_summary_input_and_methods(capsys):
    assert main(
        ["bound", "--method", "freedman", "--n", "100", "--sigma2", "1", "--b", "1",
         "--delta", str(np.exp(-2))]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radius"] == pytest.approx(0.20666666666666667, rel=1e-9)


def test_bound_mixing_method(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "mix.txt"
    data.write_text("\n".join(str(v) for v in rng.uniform(0, 1, 400)), encoding="utf-8")
    code = main(
        ["bound", "--method", "tilde_phi", "--delta", "0.0166", "--data", str(data),
         "--l", "12", "--range-width", "1", "--phi-sum", "1.0", "--tv-norm", "1.0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radius"] > 0 and "remainder" in out["breakdown"]


def test_bound_missing_required_flag(capsys):
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--n", "100",
                 "--mean", "0.5", "--css", "1.0"]) == 2
    assert "--b" in capsys.readouterr().err


def test_read_values_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n# ok\nxyz\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3"):
        read_values(str(bad))
    with pytest.raises(InputError, match="cannot read"):
        read_values(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_read_values_rejects_non_finite_values(tmp_path, token):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0.5\n# note\n{token}\n0.25\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3.*not finite"):
        read_values(str(bad))


def test_bound_on_nan_data_exits_2(tmp_path, capsys):
    # A NaN once gave exit 0 and an invalid-JSON "center": NaN.
    data = tmp_path / "nan.txt"
    data.write_text("0.2\nnan\n0.4\n" * 20, encoding="utf-8")
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--b", "1", "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


@pytest.mark.parametrize("method", ["eb", "eb_ignore_linear", "mds_empirical"])
def test_bound_refuses_data_above_b(tmp_path, capsys, method):
    # A value above --b voids the interval; this was once a warning and exit 0.
    data = tmp_path / "wide.txt"
    data.write_text("0.5\n-0.25\n-1.5\n0.125\n" * 10, encoding="utf-8")
    assert main(["bound", "--method", method, "--delta", "0.01", "--b", "1",
                 "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "value -1.5 exceeds --b 1.0" in captured.err


def test_bound_mds_empirical_reads_its_data_once(tmp_path, capsys, monkeypatch):
    data = tmp_path / "inc.txt"
    data.write_text("0.5\n-0.25\n0.125\n-0.5\n" * 25, encoding="utf-8")
    reads = []
    real = cli.read_values

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "read_values", counting)
    assert main(["bound", "--method", "mds_empirical", "--delta", "0.01", "--b", "1",
                 "--data", str(data)]) == 0
    assert reads == [str(data)]
    out = json.loads(capsys.readouterr().out)
    values = real(str(data))
    t = np.log(100.0)
    assert out["center"] == float(np.mean(values))
    assert out["radius"] == pytest.approx(
        (np.sqrt(2.0 * np.sum(values * values) * t) + core_bounds.EMPIRICAL_LINEAR_CONSTANT * t) / 100,
        rel=1e-12,
    )


def test_bound_freedman_alpha_matches_harness_oracle(capsys):
    # With --alpha the CLI once reported the delta = 2 alpha / 3 radius at the
    # one-sided level 1 - delta; the harness oracle uses alpha at level 1 - 2 alpha.
    n, alpha = 1000, 0.05
    truth = ground_truth(iid_rademacher())
    cfg = ExperimentConfig(process=iid_rademacher(), bounds=("freedman_oracle",), n_grid=(n,),
                           replications=20, master_seed=0, alpha=alpha)
    row = run_coverage(cfg).rows[0]
    assert main(["bound", "--method", "freedman", "--n", str(n), "--sigma2",
                 repr(truth.sigma2_marginal), "--b", repr(truth.b_centered),
                 "--alpha", str(alpha)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radius"] == core_bounds.freedman_radius(n, truth.sigma2_marginal,
                                                        truth.b_centered, alpha)
    assert out["radius"] == pytest.approx(row.mean_radius, rel=1e-12)
    assert out["level"] == row.level == pytest.approx(0.90)
    assert core_bounds.recompose(out["breakdown"]) == pytest.approx(out["radius"], rel=1e-12)


def test_bound_freedman_delta_reports_two_sided_level(capsys):
    delta = 0.01
    assert main(["bound", "--method", "freedman", "--n", "400", "--sigma2", "0.25", "--b", "1",
                 "--delta", str(delta)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radius"] == core_bounds.freedman_radius(400, 0.25, 1.0, delta)
    assert out["level"] == 1.0 - 2.0 * delta
    assert main(["bound", "--method", "freedman", "--n", "400", "--sigma2", "0.25", "--b", "1",
                 "--delta", "0.01", "--alpha", "0.05"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_simulate_writes_identical_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        assert main(["simulate", "--kind", "bernoulli_ar1", "--n", "200",
                     "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    values = read_values(str(out1))
    assert values.size == 200 and values.min() >= 0 and values.max() <= 1


def test_simulate_stdout_round_trips_into_bound(tmp_path, capsys):
    assert main(["simulate", "--kind", "iid_bounded",
                 "--params", '{"dist": "bernoulli", "p": 0.4}',
                 "--n", "50", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    data = tmp_path / "sim.txt"
    data.write_text(text, encoding="utf-8")  # includes the '# truth:' comment
    assert main(["bound", "--method", "eb", "--alpha", "0.1", "--b", "1",
                 "--data", str(data)]) == 0


def test_coverage_outputs_and_force_discipline(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    argv = ["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    csv_path, json_path = tmp_path / "coverage.csv", tmp_path / "coverage.json"
    assert csv_path.exists() and json_path.exists()
    first = csv_path.read_bytes()
    assert first.decode().splitlines()[0] == GOLDEN_COVERAGE_HEADER
    # refusal without --force
    assert main(argv) == 3
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    assert csv_path.read_bytes() == first  # deterministic rerun
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "ebmix-report-v1"
    assert payload["rows"][0]["bound"] == "empirical_bernstein"


def test_out_dir_env_variable(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json")
    monkeypatch.setenv("EBMIX_OUT_DIR", str(tmp_path / "envout"))
    assert main(["coverage", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "coverage.csv").exists()


def test_overrides_win_over_file_values(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--replications", "77", "--n", "123", "--force"]) == 0
    payload = json.loads((tmp_path / "coverage.json").read_text())
    assert payload["config"]["replications"] == 77
    assert payload["config"]["n_grid"] == [123]


def test_config_schema_error_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", bogus=1)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg2 = _write_config(tmp_path / "cfg2.json", bounds=["phi_thm2"],
                         process={"kind": "bernoulli_ar1", "params": {}})
    assert main(["coverage", "--config", str(cfg2), "--out-dir", str(tmp_path)]) == 2
    assert "phi budget required" in capsys.readouterr().err


def test_compare_and_sweep_subcommands(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cmp.json", bounds=["eb", "maurer_pontil_baseline"], n_grid=[200, 400]
    )
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 bounds x 2 n
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0


def test_sensitivity_subcommand(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "sens.json",
        process={"kind": "bernoulli_ar1", "params": {}},
        bounds=["tilde_phi"],
        n_grid=[2000],
        replications=80,
        l_policies=[{"kind": "exponent", "value": 1.0 / 3.0},
                    {"kind": "exponent", "value": 0.45}],
    )
    assert main(["sensitivity", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == GOLDEN_SENSITIVITY_HEADER
    assert len(lines) == 3


def test_selfcheck_deterministic_and_fault_injection(capsys):
    assert main(["selfcheck", "--cases", "120", "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    assert main(["selfcheck", "--cases", "120", "--seed", "5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.count("PASS") == 5
    assert main(["selfcheck", "--cases", "40", "--inject-fault"]) == 1
    assert "FAIL block_identity_residual" in capsys.readouterr().out
