"""CLI contract: JSON output shape, exit-code discipline, atomic output
files, frozen CSV headers, and environment-variable defaults."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ebmix import blocking, cli, core_bounds, harness
from ebmix.cli import main, read_values
from ebmix.errors import InputError
from ebmix.harness import ExperimentConfig, run_coverage
from ebmix.processes import (
    ProcessSpec, bernoulli_ar1, finite_markov, ground_truth, iid_bernoulli, iid_rademacher,
    mixing_budget_for, simulate, simulate_paths,
)
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


def _refuse_constant(name):
    raise AssertionError(f"ebmix bound printed {name}, which is not JSON")


def _bound_json(text: str) -> dict:
    """``ebmix bound`` stdout parsed as strict JSON: NaN and Infinity fail."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_golden_csv_headers():
    assert ",".join(COVERAGE_COLUMNS) == GOLDEN_COVERAGE_HEADER
    assert ",".join(SENSITIVITY_COLUMNS) == GOLDEN_SENSITIVITY_HEADER


def test_bound_json_contract(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("# comment\n0.2\n0.4\n\n0.6\n0.8\n" * 30, encoding="utf-8")
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--b", "1", "--data", str(data)]) == 0
    out = _bound_json(capsys.readouterr().out)
    assert set(out) >= {"center", "radius", "level", "breakdown"}
    assert out["level"] == pytest.approx(0.90)
    assert out["center"] == pytest.approx(0.5)


def test_bound_constant_data_reduces_to_linear_term(tmp_path, capsys):
    data = tmp_path / "const.txt"
    data.write_text("0.5\n" * 100, encoding="utf-8")
    assert main(["bound", "--method", "eb", "--delta", "0.01", "--b", "1", "--data", str(data)]) == 0
    out = _bound_json(capsys.readouterr().out)
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
    out = _bound_json(capsys.readouterr().out)
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
    out = _bound_json(capsys.readouterr().out)
    assert out["radius"] > 0 and "remainder" in out["breakdown"]


@pytest.mark.parametrize("argv, message", [
    (["--method", "eb", "--alpha", "0.05", "--n", "100", "--mean", "0.5", "--css", "1.0"],
     "error: method 'eb' requires --b\n"),
    (["--method", "mds_empirical", "--b", "1", "--delta", "0.01", "--n", "100"],
     "error: method 'mds_empirical' requires --data (raw increments)\n"),
], ids=["eb-without-b", "mds_empirical-without-data"])
def test_bound_missing_required_flag(argv, message, capsys):
    assert main(["bound", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("delta", ["0.01", "0.4"])
def test_bound_human_format_prints_the_json_fields(delta, capsys):
    argv = ["bound", "--method", "eb", "--n", "400", "--mean", "0.5", "--css", "30", "--b", "1",
            "--delta", delta]
    assert main(argv) == 0
    out = _bound_json(capsys.readouterr().out)
    assert main([*argv, "--format", "human"]) == 0
    want = [f"center  {out['center']!r}", f"radius  {out['radius']!r}",
            f"level   {out['level']!r}"]
    want += [f"  {name:<12} {value!r}" for name, value in out["breakdown"].items()]
    want += [f"  flag: {flag}" for flag in out.get("flags", [])]
    lines = capsys.readouterr().out.splitlines()
    assert lines == want
    assert (lines[-1] == "  flag: vacuous_level") == (delta == "0.4")


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


def test_read_values_one_pass_and_line_loop_give_the_same_bits(tmp_path):
    rng = np.random.default_rng(3)
    tokens = [repr(float(v)) for v in rng.normal(size=200)]
    tokens += ["-0.0", "5e-324", "1e308", " 0.1 ", "\t2.5", "10", "7"]
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    headed = tmp_path / "headed.txt"
    headed.write_text('# truth: {"mu": 0}\n' + "\n".join(tokens) + "\n", encoding="utf-8")
    loop = cli._parse_lines(str(plain), plain.read_text(encoding="utf-8").splitlines())
    bits = [a.view(np.uint64).tolist() for a in (read_values(str(plain)), loop,
                                                  read_values(str(headed)))]
    assert bits[0] == bits[1] == bits[2]


def test_read_values_parses_a_comment_free_file_in_one_pass(tmp_path, monkeypatch):
    data = tmp_path / "plain.txt"
    data.write_text("0.5\n-0.25\n1e-3\n", encoding="utf-8")

    def no_loop(path, lines):
        raise AssertionError("the line loop ran on a comment-free file")

    monkeypatch.setattr(cli, "_parse_lines", no_loop)
    assert read_values(str(data)).tolist() == [0.5, -0.25, 1e-3]


@pytest.mark.parametrize(
    "text",
    ["0.5\r\n\t0.25 \r\n  10\r\n", "# head\r\n0.5\r\n\r\n\t0.25 \r\n  10\r\n"],
    ids=["one-pass", "line-loop"],
)
def test_read_values_accepts_crlf_tabs_and_spaces(tmp_path, text):
    data = tmp_path / "data.txt"
    data.write_bytes(text.encode("utf-8"))
    assert read_values(str(data)).tolist() == [0.5, 0.25, 10.0]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.25\n0.5 # x\n", "line 2: not a number: '0.5 # x'"),
        ("0.25\n1 2\n", "line 2: not a number: '1 2'"),
        ("# h\n\n1 2\n", "line 3: not a number: '1 2'"),
        ("", "no numeric data found"),
        (" \n\t\n\n", "no numeric data found"),
        ("# a\n  # b\n", "no numeric data found"),
    ],
    ids=["trailing-comment", "two-numbers", "two-numbers-after-comment", "empty",
         "whitespace-only", "comments-only"],
)
def test_read_values_refuses_with_exact_messages(tmp_path, text, message):
    data = tmp_path / "bad.txt"
    data.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.5\nnan\n", "line 2: value is not finite: 'nan'"),
        ("# h\n\n0.5\n\n  inf \n0.25\n", "line 5: value is not finite: 'inf'"),
        ("\n# h\n0.5\n# mid\n\n-nan\n", "line 6: value is not finite: '-nan'"),
    ],
    ids=["one-pass", "after-comment-and-blank", "after-two-comments"],
)
def test_read_values_names_the_non_finite_line(tmp_path, text, message):
    data = tmp_path / "bad.txt"
    data.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: {message}"


def test_read_values_parses_simulate_stdout_in_one_pass(tmp_path, capsys, monkeypatch):
    # `ebmix simulate` without --out starts with a '# truth:' line.
    assert main(["simulate", "--kind", "bernoulli_ar1", "--n", "500", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# truth: ")
    data = tmp_path / "sim.txt"
    data.write_text(text, encoding="utf-8")
    loop = cli._parse_lines(str(data), text.splitlines())

    def no_loop(path, lines):
        raise AssertionError("the line loop ran on a file with only a leading comment")

    monkeypatch.setattr(cli, "_parse_lines", no_loop)
    values = read_values(str(data))
    simulated, _ = simulate(bernoulli_ar1(), 500, 4)
    assert values.view(np.uint64).tolist() == loop.view(np.uint64).tolist()
    assert values.view(np.uint64).tolist() == simulated.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "tail, message",
    [("0.5\nabc\n", "line 4: not a number: 'abc'"),
     ("0.5\n# mid\n  nan\n", "line 5: value is not finite: 'nan'")],
    ids=["word", "nan"],
)
def test_read_values_behind_leading_comments_names_the_same_line(tmp_path, tail, message):
    data = tmp_path / "bad.txt"
    data.write_text("# truth: {}\n\n" + tail, encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: {message}"


def test_read_values_behind_leading_comments_still_skips_later_ones(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("\n# truth: {}\n  # more\n0.5\n\n# mid\n0.25\n", encoding="utf-8")
    assert read_values(str(data)).tolist() == [0.5, 0.25]


def test_read_values_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "latin1.txt"
    data.write_bytes(b"0.5\n\xff0.25\n")
    with pytest.raises(InputError, match="cannot read data file"):
        read_values(str(data))
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--b", "1",
                 "--data", str(data)]) == 2


def _lines_file(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_read_values_holds_the_values_not_the_text(tmp_path):
    # The file is read a block of lines at a time: the peak is the block
    # arrays and their concatenation, not ~90 B of text and line strings per
    # value.
    n = 200_000
    values = np.random.default_rng(5).normal(size=n)
    data = _lines_file(tmp_path / "big.txt", [repr(v) for v in values.tolist()])
    read_values(str(data))  # one-time imports, outside the trace
    tracemalloc.start()
    try:
        got = read_values(str(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert peak <= 3 * 8 * n + 2**20


@pytest.mark.parametrize(
    "lineno, token, message",
    [(4_500, "abc", "not a number: 'abc'"), (9_000, " nan", "value is not finite: 'nan'")],
    ids=["word", "nan"],
)
def test_read_values_names_the_line_in_a_later_block(tmp_path, lineno, token, message):
    lines = ["0.5"] * 10_000
    lines[lineno - 1] = token
    data = _lines_file(tmp_path / "bad.txt", lines)
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: line {lineno}: {message}"


@pytest.mark.parametrize("token", ["1_000", "\u0661\u0662", "\uff11"],
                         ids=["underscore", "arabic-indic", "full-width"])
@pytest.mark.parametrize("lineno, comment_at", [(2, None), (4_500, None), (4_500, 4_200)],
                         ids=["first-block", "later-block", "block-with-a-comment"])
def test_read_values_refuses_underscores_and_non_ascii_digits(
    tmp_path, capsys, token, lineno, comment_at
):
    # float() reads '1_000' as 1000.0, Arabic-Indic '12' as 12.0 and a
    # full-width '1' as 1.0; none is a decimal real in the file grammar.
    lines = ["0.5"] * 10_000
    lines[lineno - 1] = token
    if comment_at is not None:
        lines[comment_at - 1] = "# mid"
    data = _lines_file(tmp_path / "bad.txt", lines)
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: line {lineno}: not a number: {token!r}"
    assert main(["bound", "--method", "eb", "--alpha", "0.05", "--b", "1",
                 "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


def test_read_values_accepts_utf8_comments_with_the_same_values(tmp_path):
    lines = [repr(v) for v in np.random.default_rng(7).normal(size=9_000).tolist()]
    plain = _lines_file(tmp_path / "plain.txt", lines)
    lines[5_000:5_000] = ["  # \u00b5 = \u00bd, \u0661\u0662 \uff11 1_000 \u2713"]
    commented = _lines_file(tmp_path / "commented.txt",
                            ["# truth: na\u00efve \u2014 \u00e9t\u00e9"] + lines)
    bits = [read_values(str(f)).view(np.uint64).tolist() for f in (plain, commented)]
    assert bits[0] == bits[1]


def test_read_values_reads_a_pipe_with_a_mid_file_comment(tmp_path):
    # Nothing seeks, so `--data /dev/stdin` works; the comment sends one
    # block through the line loop.
    lines = [repr(v) for v in np.random.default_rng(6).normal(size=10_000).tolist()]
    lines[6_000:6_000] = ["# mid", ""]
    data = _lines_file(tmp_path / "data.txt", lines)
    payload = data.read_bytes()
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as sink:
            sink.write(payload)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = read_values(f"/dev/fd/{r}")
    finally:
        writer.join(timeout=60)
        os.close(r)
    assert not writer.is_alive()
    assert piped.view(np.uint64).tolist() == read_values(str(data)).view(np.uint64).tolist()


@pytest.mark.parametrize("raw", [b"0.5\r0.25\r10\r", b"0.5\r# mid\r\r0.25\r10"],
                         ids=["one-pass", "line-loop"])
def test_read_values_ends_a_line_at_a_lone_cr(tmp_path, raw):
    data = tmp_path / "data.txt"
    data.write_bytes(raw)
    assert read_values(str(data)).tolist() == [0.5, 0.25, 10.0]


@pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "vtab", "file-sep", "nel", "line-sep"])
def test_read_values_does_not_end_a_line_at_other_breaks(tmp_path, sep):
    # str.splitlines would split here; text mode does not, so the line is
    # refused rather than read as two values.
    data = tmp_path / "data.txt"
    data.write_text(f"0.5{sep}0.25\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_values(str(data))
    assert str(info.value) == f"{data}: line 1: not a number: {'0.5' + sep + '0.25'!r}"


def test_read_values_refuses_a_non_utf8_byte_after_the_first_block(tmp_path):
    data = tmp_path / "latin1.txt"
    data.write_bytes(b"0.5\n" * 10_000 + b"\xff0.25\n")
    with pytest.raises(InputError, match="^cannot read data file .*utf-8"):
        read_values(str(data))


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
    out = _bound_json(capsys.readouterr().out)
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
    out = _bound_json(capsys.readouterr().out)
    assert out["radius"] == core_bounds.freedman_radius(n, truth.sigma2_marginal,
                                                        truth.b_centered, alpha)
    assert out["radius"] == pytest.approx(row.mean_radius, rel=1e-12)
    assert out["level"] == row.level == pytest.approx(0.90)
    assert core_bounds.recompose(out["breakdown"]) == pytest.approx(out["radius"], rel=1e-12)


def test_bound_freedman_delta_reports_two_sided_level(capsys):
    delta = 0.01
    assert main(["bound", "--method", "freedman", "--n", "400", "--sigma2", "0.25", "--b", "1",
                 "--delta", str(delta)]) == 0
    out = _bound_json(capsys.readouterr().out)
    assert out["radius"] == core_bounds.freedman_radius(400, 0.25, 1.0, delta)
    assert out["level"] == 1.0 - 2.0 * delta
    assert main(["bound", "--method", "freedman", "--n", "400", "--sigma2", "0.25", "--b", "1",
                 "--delta", "0.01", "--alpha", "0.05"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_bound_freedman_refuses_data_that_disagree_with_its_flags(tmp_path, capsys):
    # Both once gave exit 0: the n = 100000 radius for a 3-value file, and a
    # radius at --b 1 for data holding 5.
    data = tmp_path / "three.txt"
    data.write_text("0.1\n0.2\n0.3\n", encoding="utf-8")
    argv = ["bound", "--method", "freedman", "--sigma2", "1", "--b", "1", "--delta", "0.01",
            "--data", str(data)]
    assert main(argv + ["--n", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "holds 3 values but --n is 100000" in captured.err
    assert main(argv + ["--n", "3"]) == 0
    assert _bound_json(capsys.readouterr().out)["center"] == float(np.mean([0.1, 0.2, 0.3]))
    data.write_text("0.1\n5\n0.3\n", encoding="utf-8")
    assert main(argv + ["--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "values span 4.9 (max - min), more than 2 * --b = 2.0" in captured.err


@pytest.mark.parametrize("method", ["phi", "tilde_phi", "agnostic"])
def test_bound_block_methods_refuse_data_wider_than_range_width(tmp_path, capsys, method):
    data = tmp_path / "wide.txt"
    data.write_text("0.5\n" * 500 + "5.0\n", encoding="utf-8")
    argv = ["bound", "--method", method, "--delta", "0.01", "--l", "20", "--phi-sum", "1",
            "--tv-norm", "1", "--data", str(data)]
    assert main(argv + ["--range-width", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "values span 4.5 (max - min)" in captured.err
    assert main(argv + ["--range-width", "4.5"]) == 0
    assert _bound_json(capsys.readouterr().out)["radius"] > 0


# Finite values for every numeric flag of each method; "eb-summary" is eb
# from --n/--mean/--css instead of a data file.
_FINITE_BOUND_ARGV = {
    "eb": ["--delta", "0.01", "--b", "1"],
    "eb-summary": ["--delta", "0.01", "--b", "1", "--mean", "0.5", "--css", "30"],
    "eb_ignore_linear": ["--delta", "0.01", "--b", "1", "--xi", "0.3"],
    "mds_empirical": ["--delta", "0.01", "--b", "1"],
    "freedman": ["--delta", "0.01", "--sigma2", "0.25", "--b", "1"],
    "phi": ["--delta", "0.01", "--l", "12", "--range-width", "1", "--phi-sum", "1",
            "--xi", "0.01"],
    "tilde_phi": ["--delta", "0.01", "--l", "12", "--range-width", "1", "--phi-sum", "1",
                  "--tv-norm", "1", "--xi", "0.01"],
    "agnostic": ["--delta", "0.01", "--l", "12", "--range-width", "1", "--phi-sum", "1",
                 "--tv-norm", "1", "--t", "0.01", "--s", "0.01", "--c", "0.01"],
}


def _bound_argv(case, data, flag=None, token=None):
    """The argv of ``case``, with ``flag`` (``--alpha`` in place of ``--delta``)
    set to ``token``; the '=' form lets '-inf' through argparse."""
    argv = list(_FINITE_BOUND_ARGV[case])
    if flag is not None:
        at = argv.index("--delta" if flag == "--alpha" else flag)
        argv[at:at + 2] = [f"{flag}={token}"]
    method = case.removesuffix("-summary")
    where = ["--n", "400"] if case in ("eb-summary", "freedman") else ["--data", str(data)]
    return ["bound", "--method", method, *argv, *where]


@pytest.fixture
def uniform_data(tmp_path):
    data = tmp_path / "uniform.txt"
    values = np.random.default_rng(0).uniform(0, 1, 400)
    data.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    return data


@pytest.mark.parametrize("case", sorted(_FINITE_BOUND_ARGV))
def test_bound_finite_argv_prints_strict_json(case, uniform_data, capsys):
    assert main(_bound_argv(case, uniform_data)) == 0
    assert math.isfinite(_bound_json(capsys.readouterr().out)["radius"])


@pytest.mark.parametrize(
    "case, flag, token",
    [
        (case, flag, token)
        for case, argv in sorted(_FINITE_BOUND_ARGV.items())
        for flag in argv[::2] + ["--alpha"]
        for token in ("nan", "inf", "-inf")
    ],
)
def test_bound_refuses_a_flag_that_is_not_finite(case, flag, token, uniform_data, capsys):
    # 55 of these once exited 0, most printing "radius": NaN or Infinity,
    # which is not JSON, or ended in a traceback (a non-finite --l).
    assert main(_bound_argv(case, uniform_data, flag, token)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("token", ["0", "-0.0", "-0.3"])
def test_bound_refuses_eb_ignore_linear_at_xi_zero_or_below(token, uniform_data, capsys):
    # --xi 0 once exited 0 with a radius at level 0.97, though no n is past
    # burn-in at xi_n = 0, so that level is not proven.
    assert main(_bound_argv("eb_ignore_linear", uniform_data, "--xi", token)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: xi_n must be > 0")


@pytest.mark.parametrize(
    "case, flag, message",
    [("eb-summary", "--mean", "mean must be a finite number, got nan"),
     ("phi", "--l", "l must be a finite number, got nan"),
     ("phi", "--phi-sum", "phi_sum must be a finite number, got nan"),
     ("agnostic", "--tv-norm", "tv_norm must be a finite number, got nan"),
     ("agnostic", "--range-width", "range_width must be a finite number, got nan"),
     ("agnostic", "--c", "c must be a finite number, got nan")],
)
def test_bound_names_the_flag_that_is_not_finite(case, flag, message, uniform_data, capsys):
    assert main(_bound_argv(case, uniform_data, flag, "nan")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", ["phi", "tilde_phi", "agnostic"])
def test_bound_names_a_block_length_past_n_in_one_short_line(case, uniform_data, capsys):
    # floor(l) was printed as an exact integer: --l 1e308 put a 309-digit
    # number on stderr.
    assert main(_bound_argv(case, uniform_data, "--l", "1e308")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 1 <= floor(l) <= n = 400, got l = 1e+308\n"


@pytest.mark.parametrize("case", sorted(_FINITE_BOUND_ARGV) + ["agnostic-unbudgeted"])
def test_bound_flags_a_level_that_is_not_positive(case, uniform_data, capsys):
    # --alpha 0.6 is delta 0.4 (0.6 for freedman): every level is -0.2 or
    # less.  mds_empirical, eb_ignore_linear and freedman once left it
    # unflagged, and so did agnostic when its error budget (here 1) made it so.
    # eb_ignore_linear's level leaves out its penalty, which it flags first.
    first = {"agnostic-unbudgeted": ["errors_unquantified"],
             "eb_ignore_linear": ["penalty_unquantified"]}.get(case, [])
    for alpha in ("0.6", "0.3"):
        argv = _bound_argv(case.removesuffix("-unbudgeted"), uniform_data, "--alpha", alpha)
        if case == "agnostic-unbudgeted":
            for flag in ("--phi-sum", "--tv-norm"):
                at = argv.index(flag)
                del argv[at:at + 2]
        assert main(argv) == 0
        out = _bound_json(capsys.readouterr().out)
        vacuous = out["level"] <= 0
        assert vacuous == (alpha == "0.6" or case == "agnostic")
        assert out.get("flags", []) == first + ["vacuous_level"] * vacuous


def test_bound_agnostic_zero_budget_agrees_with_harness(tmp_path, capsys):
    # A zero --phi-sum was once flagged errors_unquantified by the CLI, while
    # the harness reported a zero error budget for the same zero sum.
    spec, n, delta = iid_bernoulli(0.3), 400, 0.01
    cfg = ExperimentConfig(process=spec, bounds=("mixing_agnostic",), n_grid=(n,),
                           replications=1, master_seed=3, delta=delta)
    row = run_coverage(cfg).rows[0]
    assert row.error_total == 0.0 and row.flags == ()
    values, truth = simulate(spec, n, (3, 0))
    data = tmp_path / "path.txt"
    data.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    argv = ["bound", "--method", "agnostic", "--delta", repr(delta), "--data", str(data),
            "--l", repr(cfg.l_policy.block_length(n)), "--range-width", repr(truth.range_width)]
    assert main(argv + ["--phi-sum", "0", "--tv-norm", "1"]) == 0
    out = _bound_json(capsys.readouterr().out)
    assert out["level"] == row.level == 1.0 - 3.0 * delta
    assert tuple(out.get("flags", ())) == row.flags
    assert out["radius"] == pytest.approx(row.mean_radius, rel=1e-12)
    assert main(argv) == 0
    assert _bound_json(capsys.readouterr().out)["flags"] == ["errors_unquantified"]


def test_bound_agnostic_takes_a_zero_tv_norm_as_a_zero_error_budget(tmp_path, capsys):
    # A constant path with --tv-norm 0 once exited 2, naming tv_phi_product,
    # which is not a flag; every error term reads only tv_norm * phi_sum.
    data = tmp_path / "const.txt"
    data.write_text("0.5\n" * 400, encoding="utf-8")
    argv = ["bound", "--method", "agnostic", "--delta", "0.01", "--data", str(data),
            "--l", "10", "--range-width", "1"]
    assert main(argv + ["--phi-sum", "1", "--tv-norm", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = _bound_json(captured.out)
    assert out["level"] == 1.0 - 3.0 * 0.01 and "flags" not in out
    assert main(argv + ["--phi-sum", "0", "--tv-norm", "1"]) == 0
    assert _bound_json(capsys.readouterr().out) == out


# Each `ebmix bound` method, the harness bound it computes, and a process
# that bound suits.  The chain has a nonzero phi budget.
_SLOW_CHAIN = finite_markov([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
                            [0.0, 0.5, 1.0])
_CLI_AND_HARNESS = {
    "eb": ("empirical_bernstein", iid_bernoulli(0.3)),
    "eb_ignore_linear": ("eb_ignore_linear", iid_bernoulli(0.3)),
    "mds_empirical": ("mds_empirical", iid_rademacher()),
    "freedman": ("freedman_oracle", iid_bernoulli(0.3)),
    "phi": ("phi_mixing", _SLOW_CHAIN),
    "tilde_phi": ("tilde_phi_mixing", bernoulli_ar1()),
    "agnostic": ("mixing_agnostic", bernoulli_ar1()),
}


@pytest.mark.parametrize("method", sorted(_CLI_AND_HARNESS))
def test_bound_agrees_with_the_harness_on_one_path(method, tmp_path, capsys):
    # The flags come from the process's ground truth and budget, as the
    # harness takes them; freedman runs on the data, centred at their mean.
    bound, spec = _CLI_AND_HARNESS[method]
    n, seed = 2000, 77
    methods = [r.method for r in harness.BOUND_TABLE.values() if r.method is not None]
    assert sorted(methods) == sorted(_CLI_AND_HARNESS)
    assert harness.BOUND_TABLE[bound].method == method
    cfg = ExperimentConfig(process=spec, bounds=(bound,), n_grid=(n,), replications=1,
                           master_seed=seed, alpha=0.05)
    (row,) = run_coverage(cfg).rows
    values = simulate_paths(spec, n, seed, range(1))[0]
    data = tmp_path / "path.txt"
    data.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    truth = ground_truth(spec)
    argv = ["bound", "--method", method, "--alpha", "0.05", "--data", str(data)]
    if method == "freedman":
        argv += ["--n", str(n), "--sigma2", repr(truth.sigma2_marginal),
                 "--b", repr(truth.b_centered)]
    elif method in ("eb", "eb_ignore_linear", "mds_empirical"):
        argv += ["--b", repr(truth.b_abs)]
    else:
        regime = "phi" if method == "phi" else "phi_tilde"
        budget = mixing_budget_for(spec, regime, n)
        argv += ["--l", repr(n ** 0.4), "--range-width", repr(truth.range_width),
                 "--phi-sum", repr(budget.phi_sum)]
        if regime == "phi_tilde":
            argv += ["--tv-norm", repr(budget.tv_norm)]
    assert main(argv) == 0
    out = _bound_json(capsys.readouterr().out)
    assert out["level"] == row.level
    if method == "eb_ignore_linear":  # the harness has the penalty; the CLI flags it
        assert out["flags"] == ["penalty_unquantified"] and "below_burn_in" in row.flags
    else:
        assert tuple(out.get("flags", ())) == row.flags
    assert out["radius"] == pytest.approx(row.mean_radius, rel=1e-12)


def test_bound_agnostic_refuses_half_a_budget(uniform_data, capsys):
    argv = _bound_argv("agnostic", uniform_data)
    for flag in ("--phi-sum", "--tv-norm"):
        half = list(argv)
        at = half.index(flag)
        del half[at:at + 2]
        assert main(half) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: method 'agnostic' requires {flag} "
                                "(its error budget needs both)\n")


@pytest.mark.parametrize("method", ["eb", "eb_ignore_linear", "mds_empirical"])
def test_bound_refuses_summary_flags_beside_data(method, uniform_data, capsys):
    # These methods take n, mean and css from the file; the flags were once
    # ignored without a word, even when they contradicted it.
    argv = ["bound", "--method", method, "--alpha", "0.05", "--b", "1", "--data", str(uniform_data)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--n", "7", "--mean", "3", "--css", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: method {method!r} takes n, mean and css from --data; drop --n, --mean, --css\n")
    assert main(argv + ["--css", "1"]) == 2
    assert capsys.readouterr().err.endswith("drop --css\n")


def test_bound_freedman_checks_the_spread_of_its_data_against_b(tmp_path, capsys):
    # --b bounds |X - mu|, as the harness's b_centered does: Bernoulli data
    # with b = 0.5 were once refused because 1.0 > 0.5.
    data = tmp_path / "bernoulli.txt"
    data.write_text("0\n1\n" * 200, encoding="utf-8")
    argv = ["bound", "--method", "freedman", "--n", "400", "--sigma2", "0.25", "--alpha", "0.05",
            "--data", str(data)]
    assert main(argv + ["--b", "0.5"]) == 0
    out = _bound_json(capsys.readouterr().out)
    assert out["center"] == 0.5
    assert out["radius"] == core_bounds.freedman_radius(400, 0.25, 0.5, 0.05)
    assert main(argv + ["--b", "0.49"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "values span 1.0 (max - min), more than 2 * --b = 0.98" in captured.err


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0.2\n0.4\n0.6\n0.8\n" * 50, encoding="utf-8")
    argv = ["bound", "--method", "eb_ignore_linear", "--delta", "0.01", "--b", "1",
            "--data", str(data)]
    assert cli.build_parser() is cli.build_parser()
    assert main(argv + ["--xi", "0.3"]) == 0
    with_xi = _bound_json(capsys.readouterr().out)
    assert main(argv) == 0
    default = _bound_json(capsys.readouterr().out)
    summary = core_bounds.summarize(read_values(str(data)), b=1.0)
    xi = float(harness.BOUND_TABLE["eb_ignore_linear"].xi.evaluate(summary.n))
    assert default["radius"] == core_bounds.ignore_linear_interval(summary, 0.01, xi).radius
    assert with_xi["radius"] == core_bounds.ignore_linear_interval(summary, 0.01, 0.3).radius
    assert with_xi["radius"] != default["radius"]

    cli.build_parser.cache_clear()
    assert main(argv) == 0
    alone = capsys.readouterr()
    assert _bound_json(alone.out) == default
    with pytest.raises(SystemExit) as info:
        main(["bound", "--method", "eb", "--b", "not-a-number"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == alone


def test_cached_parser_runs_the_current_command_function(capsys, monkeypatch):
    # Callers that wrap cli.cmd_bound after the parser is built (the
    # benchmark's tracer does) must still see their wrapper run.
    assert main(["selfcheck", "--cases", "1", "--seed", "-1"]) == 2
    calls = []
    monkeypatch.setattr(cli, "cmd_bound", lambda args: calls.append(args.method) or 0)
    assert main(["bound", "--method", "eb"]) == 0
    assert calls == ["eb"]


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
    assert _bound_json(capsys.readouterr().out)["level"] == pytest.approx(0.8)


@pytest.mark.parametrize(
    "spec",
    [{"kind": "iid_bounded", "params": {"dist": "uniform", "a": -1.0, "b": 2.0}},
     {"kind": "hetero_mds", "params": {"scales": [0.5, 1.0]}},
     {"kind": "finite_markov", "params": {"P": [[0.9, 0.1], [0.2, 0.8]], "h": [0.0, 1.0]}},
     {"kind": "bernoulli_ar1", "params": {}}],
    ids=lambda spec: spec["kind"],
)
def test_simulate_truth_payload_keys_and_values(spec, tmp_path, capsys):
    process = ProcessSpec.from_dict(spec)
    truth = ground_truth(process)
    expected = [("process", process.label()), ("mu", truth.mu),
                ("sigma2_marginal", truth.sigma2_marginal),
                ("sigma2_longrun", truth.sigma2_longrun), ("b_range", list(truth.b_range)),
                ("b_abs", truth.b_abs), ("tv_norm", truth.tv_norm), ("m4", truth.m4)]
    argv = ["simulate", "--spec", json.dumps(spec), "--n", "20", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# truth: " + json.dumps(dict(expected))
    assert list(json.loads(first.removeprefix("# truth: ")).items()) == expected
    assert main(argv + ["--out", str(tmp_path / "path.txt")]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(dict(expected), indent=2) + "\n"
    assert list(json.loads(printed).items()) == expected


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


def test_coverage_csv_onto_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", replications=20)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    argv = ["coverage", "--config", str(cfg), "--out-dir", str(tmp_path), "--csv", str(outdir)]
    assert main(argv + ["--force"]) == 2
    assert f"error: cannot write {outdir}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp")) and not list(outdir.iterdir())
    assert not (tmp_path / "coverage.json").exists()


@pytest.mark.parametrize("out", [".", "outdir"])
def test_simulate_out_onto_a_directory_exits_2_and_leaves_no_temp_file(
    tmp_path, capsys, monkeypatch, out
):
    (tmp_path / "outdir").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--kind", "bernoulli_ar1", "--n", "10", "--seed", "0", "--out", out]
    assert main(argv + ["--force"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["outdir"]


def test_atomic_write_text_that_fails_raises_and_removes_its_temp_file(tmp_path, monkeypatch):
    from ebmix import reporting

    target = tmp_path / "report.csv"

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(reporting.os, "replace", failing_replace)
        with pytest.raises(InputError, match=rf"^cannot write {re.escape(str(target))}: No space left on device$"):
            reporting.atomic_write_text(target, "a,b\n")
    assert list(tmp_path.iterdir()) == []
    # A directory in the temp file's place is not removed.
    (tmp_path / "report.csv.tmp").mkdir()
    with pytest.raises(InputError, match=rf"^cannot write {re.escape(str(target))}: Is a directory$"):
        reporting.atomic_write_text(target, "a,b\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv.tmp"]
    (tmp_path / "report.csv.tmp").rmdir()
    reporting.atomic_write_text(target, "a,b\n")
    assert target.read_text() == "a,b\n"


@pytest.mark.parametrize("n", [1, 4_096, 4_097, 2 * 4_096 + 3])
def test_simulate_writes_the_repr_of_each_value(tmp_path, capsys, n):
    # The bytes of the whole-string writer that the blocks replaced.
    spec = {"kind": "iid_bounded", "params": {"dist": "uniform", "a": -1.0, "b": 2.0}}
    values, _ = simulate(ProcessSpec.from_dict(spec), n, 9)
    want = ("\n".join(repr(float(v)) for v in values) + "\n").encode()
    argv = ["simulate", "--spec", json.dumps(spec), "--n", str(n), "--seed", "9"]
    out = tmp_path / "path.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want
    capsys.readouterr()
    assert main(argv) == 0
    head, body = capsys.readouterr().out.split("\n", 1)
    assert head.startswith("# truth: ") and body.encode() == want


def test_simulate_out_holds_the_values_not_the_text(tmp_path, capsys):
    n = 200_000
    argv = ["simulate", "--kind", "bernoulli_ar1", "--n", str(n), "--seed", "0",
            "--out", str(tmp_path / "path.txt"), "--force"]
    assert main(argv) == 0  # one-time imports, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 2**20


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_atomic_write_removes_its_temp_file_when_the_pieces_raise(tmp_path, error):
    from ebmix import reporting

    def pieces():
        yield "0.5\n" * 10_000
        raise error("stop")

    with pytest.raises(error):
        reporting.atomic_write(tmp_path / "out.txt", pieces())
    assert list(tmp_path.iterdir()) == []


def test_simulate_into_a_closed_pipe_exits_141_quietly():
    # 141 is what a shell reports for a writer that SIGPIPE ended; the
    # interpreter's final flush must not print a traceback either.
    path = [str(Path(harness.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ebmix.cli", "simulate", "--kind", "bernoulli_ar1", "--n",
         "200000", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"# truth: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("n, message", [
    ("100000000000000", "error: out of memory: Unable to allocate 728. TiB for an array with "
                        "shape (1, 100000000000000) and data type float64\n"),
    ("10000000000000000000", "error: 1 x 10000000000000000000 values exceed the largest array "
                             "of float64 numpy can hold\n"),
], ids=["728-TiB", "beyond-intp"])
def test_simulate_of_a_path_too_large_to_allocate_exits_2(n, message, capsys):
    # Each size fails at once: the first when numpy asks for the memory, the
    # second before it asks.  Both once ended in a traceback with exit 1.
    assert main(["simulate", "--kind", "bernoulli_ar1", "--n", n, "--seed", "0"]) == 2
    assert capsys.readouterr() == ("", message)


_TYPO_CONFIG = {"process": {"kind": "bernoulli_ar1", "params": {}}, "bounds": ["tilde_phi"],
                "n_grid": [500], "replications": 20, "master_seed": 0, "delta": 0.01,
                "l_policy": {"kind": "exponent", "valeu": 0.3}}


@pytest.mark.parametrize(
    "argv, inputs, message",
    [(["simulate", "--kind", "iid_bounded", "--params", "nonsense", "--n", "5", "--seed", "0"],
      {}, "error: --params is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
     (["simulate", "--kind", "iid_bounded", "--params", "{", "--n", "5", "--seed", "0"], {},
      "error: --params is not valid JSON: "),
     (["simulate", "--spec", "[1]", "--n", "5", "--seed", "0"], {},
      "error: --spec must be a JSON object, got [1]\n"),
     (["simulate", "--spec", '{"kind": "bernoulli_ar1", "parmas": {}}', "--n", "5", "--seed", "0"],
      {}, "error: field 'process.parmas': unknown field; known: ['kind', 'params']\n"),
     (["coverage", "--config", "list.json", "--n", "5"], {"list.json": "[1, 2]"},
      "error: config list.json must be a JSON object, got [1, 2]\n"),
     (["coverage", "--config", "typo.json"], {"typo.json": json.dumps(_TYPO_CONFIG)},
      "error: field 'l_policy.valeu': unknown field; known: ['kind', 'value']\n"),
     (["coverage", "--config", "missing.json"], {},
      "error: cannot read config missing.json: [Errno 2] No such file or directory"),
     (["simulate", "--kind", "bernoulli_ar1", "--n", "10", "--seed", "0", "--out", "afile/x"],
      {"afile": "x\n"}, "error: cannot write afile/x: afile is not a directory\n"),
     (["simulate", "--kind", "bernoulli_ar1", "--n", "10", "--seed", "0", "--out", "afile/y/z",
       "--force"], {"afile": "x\n"}, "error: cannot write afile/y/z: afile is not a directory\n")],
    ids=["params-not-json", "params-cut-short", "spec-a-list", "spec-unknown-key",
         "config-a-list", "config-policy-typo", "config-unreadable", "out-under-a-file",
         "out-two-under-a-file"],
)
def test_json_and_output_refusals_exit_2_and_write_nothing(
    argv, inputs, message, tmp_path, capsys, monkeypatch
):
    # The JSON cases once exited 1 with a traceback, or 0 at the default
    # policy; a file as the output's parent was named "File exists".
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(inputs)


def test_experiment_subcommands_keep_their_help_and_output_stem(tmp_path, capsys, monkeypatch):
    helps = {
        "coverage": "empirical coverage experiment from a config file",
        "sweep": "sharpness sweep over an increasing n grid",
        "sensitivity": "block-length sensitivity table",
        "compare": "side-by-side bound comparison table",
    }
    monkeypatch.setenv("COLUMNS", "200")
    text = cli.build_parser().format_help()
    for name, help_text in helps.items():
        assert re.search(rf"^ +{name} +{re.escape(help_text)}$", text, re.M), name
    cfg = _write_config(
        tmp_path / "cfg.json", process={"kind": "bernoulli_ar1", "params": {}},
        bounds=["tilde_phi"], n_grid=[200, 400], replications=10,
        l_policies=[{"kind": "exponent", "value": 0.3}, {"kind": "exponent", "value": 0.5}],
    )
    out = tmp_path / "out"
    for name in helps:
        assert main([name, "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / f"{name}.csv").read_text().splitlines()[0]
        golden = GOLDEN_SENSITIVITY_HEADER if name == "sensitivity" else GOLDEN_COVERAGE_HEADER
        assert header == golden
        assert json.loads((out / f"{name}.json").read_text())["schema"] == "ebmix-report-v1"
        assert capsys.readouterr().out.endswith(f"wrote {out / name}.csv and {out / name}.json\n")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{name}.{ext}" for name in helps for ext in ("csv", "json"))


def test_out_dir_env_variable(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json")
    monkeypatch.setenv("EBMIX_OUT_DIR", str(tmp_path / "envout"))
    assert main(["coverage", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "coverage.csv").exists()


@pytest.mark.parametrize("file, flags, want", [
    ({}, ["--replications", "77", "--n", "123"], {"replications": 77, "n_grid": [123]}),
    ({}, ["--delta", "0.02", "--seed", "3"], {"delta": 0.02, "alpha": None, "master_seed": 3}),
    ({"alpha": None, "delta": 0.01}, ["--alpha", "0.1"], {"alpha": 0.1, "delta": None}),
], ids=["replications-n", "delta-seed", "alpha"])
def test_overrides_win_over_file_values(file, flags, want, tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", replications=40, **file)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path), *flags]) == 0
    config = json.loads((tmp_path / "coverage.json").read_text())["config"]
    assert {key: config[key] for key in want} == want
    row = (tmp_path / "coverage.csv").read_text().splitlines()[1].split(",")
    seed_column = GOLDEN_COVERAGE_HEADER.split(",").index("master_seed")
    assert row[seed_column] == str(config["master_seed"])


@pytest.mark.parametrize("flag, value, label", [("--l", "10", "l=10"),
                                                ("--l-exponent", "0.45", "n^0.45")])
def test_flat_block_length_replaces_the_file_policies(flag, value, label, tmp_path, capsys):
    # Both runs once kept the file's two policies and ignored the flag.
    cfg = _write_config(
        tmp_path / "two.json", process={"kind": "bernoulli_ar1", "params": {}},
        bounds=["tilde_phi", "agnostic"], n_grid=[1000], replications=20,
        l_policies=[{"kind": "exponent", "value": 0.3}, {"kind": "exponent", "value": 0.5}],
    )
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path), flag, value]) == 0
    payload = json.loads((tmp_path / "coverage.json").read_text())
    assert payload["config"]["l_policies"] is None
    assert [row["l_policy"] for row in payload["rows"]] == [label, label]
    capsys.readouterr()
    assert main(["sensitivity", "--config", str(cfg), "--out-dir", str(tmp_path), flag, value]) == 2
    assert "needs at least two policies" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["coverage", "sensitivity"])
@pytest.mark.parametrize("pair", [("--delta", "0.02", "--alpha", "0.05"),
                                  ("--l", "5", "--l-exponent", "0.3")],
                         ids=["delta-alpha", "l-l-exponent"])
def test_experiment_refuses_both_flags_of_an_exclusive_pair(subcommand, pair, tmp_path, capsys):
    # One flag of each pair once silently won over the other.
    cfg = _write_config(tmp_path / "cfg.json", replications=20)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([subcommand, "--config", str(cfg), "--out-dir", str(out_dir), *pair])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {pair[2]}: not allowed with argument {pair[0]}" in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("delta", ["0.6666666666666666", "0.7", "0.66"])
def test_coverage_refuses_a_delta_whose_alpha_reaches_one(delta, tmp_path, capsys):
    # 1.5 * delta is the alpha the sharpness limit takes log(1/alpha) of: a
    # ZeroDivisionError at the first delta and a math domain error at the
    # second once escaped as a traceback with exit 1.
    cfg = _write_config(tmp_path / "cfg.json", replications=20)
    out_dir = tmp_path / "out"
    code = main(["coverage", "--config", str(cfg), "--delta", delta, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    if 1.5 * float(delta) < 1.0:
        assert code == 0 and (out_dir / "coverage.csv").exists()
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: field 'delta': 1.5 * delta (the alpha it implies) must be "
                            f"below 1, got {float(delta)!r}\n")
    assert not out_dir.exists()


def test_config_schema_error_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", bogus=1)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg2 = _write_config(tmp_path / "cfg2.json", bounds=["phi_thm2"],
                         process={"kind": "bernoulli_ar1", "params": {}})
    assert main(["coverage", "--config", str(cfg2), "--out-dir", str(tmp_path)]) == 2
    assert "phi budget required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, named",
    [({"master_seed": 7.5}, "master_seed"), ({"replications": 10.9}, "replications"),
     ({"master_seed": True}, "master_seed"), ({"n_grid": [300, 2.5]}, "n_grid")],
)
def test_config_non_integral_count_exits_2(tmp_path, capsys, overrides, named):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"field '{named}'" in capsys.readouterr().err
    assert not (tmp_path / "coverage.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"alpha": None, "delta": "abc"}, "field 'delta': must be a number, got 'abc'"),
        ({"n_grid": 5}, "field 'n_grid': must be a list, got 5"),
        ({"bounds": 3}, "field 'bounds': must be a list, got 3"),
        ({"bounds": [["eb"]]}, "field 'bounds': unknown bound ['eb']"),
        ({"l_policy": {"kind": "exponent", "value": "x"}},
         "field 'l_policy.value': must be a number, got 'x'"),
        ({"xi": {"scale": "big"}}, "field 'xi.scale': must be a number, got 'big'"),
        ({"knobs": {"t_power": [1]}}, "field 'knobs.t_power': must be a number, got [1]"),
        ({"xi": {"scale": math.nan}}, "field 'xi.scale': must be a finite number, got nan"),
        ({"xi": {"scale": math.inf}}, "field 'xi.scale': must be a finite number, got inf"),
        ({"knobs": {"t_scale": math.nan}},
         "field 'knobs.t_scale': must be a finite number, got nan"),
        ({"knobs": {"c_mode": "fixed", "c_value": math.inf}},
         "field 'knobs.c_value': must be a finite number, got inf"),
        ({"l_policy": {"kind": "fixed", "value": math.nan}},
         "field 'l_policy.value': must be a finite number, got nan"),
        ({"alpha": None, "delta": "0.01"}, "field 'delta': must be a number, got '0.01'"),
        ({"l_policy": {"kind": "fixed", "value": "7"}},
         "field 'l_policy.value': must be a number, got '7'"),
        ({"xi": {"scale": "1"}}, "field 'xi.scale': must be a number, got '1'"),
        ({"knobs": {"t_power": "-0.45"}},
         "field 'knobs.t_power': must be a number, got '-0.45'"),
        ({"eta": True}, "field 'eta': must be a number, got True"),
        ({"n_grid": [300, 300.0]}, "field 'n_grid': 300 is listed more than once"),
        ({"bounds": ["eb", "empirical_bernstein"]},
         "field 'bounds': 'empirical_bernstein' is listed more than once"),
        ({"l_policies": [{"kind": "fixed", "value": 7}, {"kind": "fixed", "value": 7.0}]},
         "field 'l_policies': LPolicy(kind='fixed', value=7.0) is listed more than once"),
        ({"knobs": {"c_mode": "fixed", "c_value": -1}},
         "field 'knobs.c_value': must be >= 0, got -1.0"),
        ({"knobs": {"t_scale": -0.5}}, "field 'knobs.t_scale': must be >= 0, got -0.5"),
        ({"knobs": {"s_scale": -2}}, "field 'knobs.s_scale': must be >= 0, got -2.0"),
    ],
    ids=["delta", "n_grid", "bounds", "bounds-entry", "l_policy", "xi", "knobs",
         "xi-scale-nan", "xi-scale-inf", "knobs-t-nan", "knobs-c-inf", "l-fixed-nan",
         "delta-numeric-string", "l-fixed-numeric-string", "xi-scale-numeric-string",
         "knobs-t-numeric-string", "eta-true", "n_grid-repeated", "bounds-repeated-alias",
         "l_policies-repeated", "knobs-c-negative", "knobs-t-negative", "knobs-s-negative"],
)
def test_config_mistyped_field_exits_2(tmp_path, capsys, overrides, message):
    # Each once exited 1 with a ValueError or TypeError traceback.  A NaN or
    # infinite policy value was accepted, giving a NaN or infinite
    # mean_radius with exit 0 for the bounds that read it.  A numeric string
    # or a boolean was read as its number.  A repeated n wrote two identical
    # rows, a repeated bound or policy silently became one, and a negative
    # knob flagged every agnostic cell "precondition:" with exit 0.
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not (tmp_path / "coverage.csv").exists()


_MARKOV = {"P": [[0.9, 0.1], [0.1, 0.9]], "h": [0.0, 1.0]}


@pytest.mark.parametrize(
    "process, message",
    [
        ({"kind": "finite_markov", "params": {**_MARKOV, "P": [[math.nan, 1.0], [0.5, 0.5]]}},
         "P must be a square matrix of finite numbers"),
        ({"kind": "finite_markov", "params": {**_MARKOV, "P": "x"}},
         "P must be a square matrix of finite numbers"),
        ({"kind": "finite_markov", "params": {**_MARKOV, "P": [[0.9, 0.1], [0.1]]}},
         "P must be a square matrix of finite numbers"),
        ({"kind": "finite_markov", "params": {**_MARKOV, "h": [0.0, math.inf]}},
         "h must list one finite number per state"),
        ({"kind": "finite_markov", "params": {**_MARKOV, "h": ["a", "b"]}},
         "h must list one finite number per state"),
        ({"kind": "iid_bounded", "params": {"dist": "uniform", "a": 0.0, "b": math.inf}},
         "uniform needs finite a < b"),
        ({"kind": "iid_bounded", "params": {"dist": "uniform", "a": "0", "b": 1.0}},
         "uniform needs finite a < b"),
        ({"kind": "iid_bounded", "params": {"dist": "bernoulli", "p": "x"}},
         "bernoulli needs p in [0, 1], got 'x'"),
        ({"kind": "iid_bounded", "params": {"dist": "bernoulli", "p": math.nan}},
         "bernoulli needs p in [0, 1], got nan"),
        ({"kind": "iid_bounded", "params": 5}, "process params must be a mapping, got 5"),
        ({"kind": "hetero_mds", "params": {"scales": ["a"]}},
         "hetero_mds needs a nonempty list of finite positive scales"),
        ({"kind": "hetero_mds", "params": {"scales": [1.0, math.inf]}},
         "hetero_mds needs a nonempty list of finite positive scales"),
    ],
    ids=["P-nan", "P-string", "P-ragged", "h-inf", "h-strings", "uniform-b-inf",
         "uniform-a-string", "p-string", "p-nan", "params-not-a-mapping", "scales-strings",
         "scales-inf"],
)
def test_config_process_params_must_be_finite_numbers(tmp_path, capsys, process, message):
    # Each once exited 1 with a traceback, or 0 with NaN in the report.
    cfg = _write_config(tmp_path / "cfg.json", process=process)
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "coverage.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_coverage_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["coverage", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--jobs", jobs]) == 2
    assert f"got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "coverage.csv").exists()


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


def test_coverage_and_sensitivity_runs_do_not_import_numpy_ma(tmp_path):
    """np.median and np.unique import numpy.ma (~14 ms) on their first call;
    the coverage and sensitivity paths use neither."""
    ar1 = _write_config(tmp_path / "ar1.json", process={"kind": "bernoulli_ar1", "params": {}},
                        bounds=["tilde_phi"], n_grid=[200], replications=20)
    slow = _write_config(
        tmp_path / "slow.json",
        process={"kind": "finite_markov",
                 "params": {"P": [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
                            "h": [0.0, 0.5, 1.0]}},
        bounds=["phi"], n_grid=[300], replications=20,
        l_policies=[{"kind": "exponent", "value": 0.4}, {"kind": "exponent", "value": 0.5}],
    )
    path = [str(Path(harness.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for command, cfg in (("coverage", ar1), ("sensitivity", slow)):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ebmix.cli", command, "--config", str(cfg),
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"{command}.csv").exists()
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"numpy", "ebmix.harness"} <= imported  # the import log is complete
        assert not {m for m in imported if m.split(".")[:2] == ["numpy", "ma"]}, command


def test_selfcheck_deterministic_and_fault_injection(capsys, monkeypatch):
    assert main(["selfcheck", "--cases", "120", "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    assert main(["selfcheck", "--cases", "120", "--seed", "5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.count("PASS") == 5
    # The negative control is a fault in the library's v_hat itself.
    rule = blocking.row_vhat
    monkeypatch.setattr(blocking, "row_vhat", lambda *args, **kw: 1.001 * rule(*args, **kw))
    assert main(["selfcheck", "--cases", "40"]) == 1
    assert "FAIL block_identity_residual" in capsys.readouterr().out


def test_selfcheck_has_no_inject_fault_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["selfcheck", "--cases", "40", "--inject-fault"])
    assert info.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kind", "bernoulli_ar1", "--n", "5", "--seed", "-3"],
        ["selfcheck", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2_naming_it(argv, capsys):
    assert main(argv) == 2
    assert f"got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["0", "-4"])
def test_selfcheck_refuses_fewer_than_one_case(cases, capsys):
    assert main(["selfcheck", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"got {cases}" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [(["--method", "eb", "--n", "10", "--mean", "5", "--css", "1", "--b", "1"],
      "--mean 5.0 exceeds --b 1.0 in absolute value, which no data within --b can have"),
     (["--method", "eb_ignore_linear", "--n", "10", "--mean", "-1.5", "--css", "0", "--b", "1"],
      "--mean -1.5 exceeds --b 1.0 in absolute value, which no data within --b can have"),
     (["--method", "eb", "--n", "10", "--mean", "0.5", "--css", "100", "--b", "1"],
      "--css 100.0 exceeds --n * (--b^2 - --mean^2) = 7.5, which no data within --b can have"),
     # The slack is relative, so it scales with the data.
     (["--method", "eb", "--n", "100", "--mean", "0", "--css", "1e-13", "--b", "1e-8"],
      "--css 1e-13 exceeds --n * (--b^2 - --mean^2) = 1e-14, which no data within --b can have"),
     (["--method", "freedman", "--n", "10", "--sigma2", "4", "--b", "1"],
      "--sigma2 4.0 exceeds --b^2 = 1.0 (--b bounds |X - mu|), which no data within --b can have")],
    ids=["mean-above-b", "mean-below-minus-b", "css-above-bhatia-davis", "css-above-at-small-b",
         "sigma2-above-b2"],
)
def test_bound_refuses_summaries_that_no_data_within_b_can_have(argv, message, capsys):
    # All five once exited 0 (a center of 5.0, a radius of 111).
    assert main(["bound", *argv, "--delta", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["--method", "freedman", "--n", "2000", "--sigma2", "0.25", "--b", "0.5"],  # sigma2 = b^2
     ["--method", "eb", "--n", "400", "--mean", "0.5", "--css", "30", "--b", "1"],
     ["--method", "eb", "--n", "10", "--mean", "0.5", "--css", "7.5", "--b", "1"],  # css at its most
     ["--method", "eb", "--n", "10", "--mean", "-1", "--css", "0", "--b", "1"]],  # |mean| = b
)
def test_bound_accepts_summaries_at_the_edge_of_b(argv, capsys):
    assert main(["bound", *argv, "--delta", "0.01"]) == 0
    assert _bound_json(capsys.readouterr().out)["radius"] > 0


@pytest.mark.parametrize("source", ["params", "spec", "config"])
def test_an_unknown_process_params_key_exits_2(source, tmp_path, capsys, monkeypatch):
    # Once silently dropped: the process ran without the key.
    monkeypatch.chdir(tmp_path)
    params = {"dist": "bernoulli", "p": 0.3, "q": 1}
    process = {"kind": "iid_bounded", "params": params}
    if source == "config":
        argv = ["coverage", "--config", str(_write_config(tmp_path / "c.json", process=process))]
    elif source == "spec":
        argv = ["simulate", "--spec", json.dumps(process), "--n", "5", "--seed", "0"]
    else:
        argv = ["simulate", "--kind", "iid_bounded", "--params", json.dumps(params), "--n", "5",
                "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'process.params.q': unknown field; known: ['dist', 'p']\n"
    assert [p.name for p in tmp_path.iterdir()] == (["c.json"] if source == "config" else [])


_WIDE_UNIFORM = {"kind": "iid_bounded", "params": {"dist": "uniform", "a": -1e308, "b": 1e308}}
_BARELY_ERGODIC = {"kind": "finite_markov",
                   "params": {"P": [[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-200], [1e-200, 0.0, 1.0]],
                              "h": [0, 0.5, 1]}}
_SINGULAR = ("P = [[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-200], [1e-200, 0.0, 1.0]] mixes too slowly "
             "for a long-run variance: its fundamental matrix is singular")


@pytest.mark.parametrize("argv, inputs, message", [
    (["simulate", "--kind", "hetero_mds", "--params", '{"scales": [1e200]}', "--n", "5",
      "--seed", "0"], {}, "ground truth sigma2_marginal = inf is not finite"),
    (["simulate", "--spec", json.dumps(_WIDE_UNIFORM), "--n", "5", "--seed", "0", "--out", "x"],
     {}, "ground truth sigma2_marginal = inf is not finite"),
    (["coverage", "--config", "wide.json"],
     {"wide.json": json.dumps({"process": _WIDE_UNIFORM, "bounds": ["eb"], "n_grid": [200],
                               "replications": 10, "master_seed": 0, "alpha": 0.05})},
     "ground truth sigma2_marginal = inf is not finite"),
    (["coverage", "--config", "policies.json"],
     {"policies.json": json.dumps({
         "process": {"kind": "bernoulli_ar1", "params": {}}, "bounds": ["tilde_phi"],
         "n_grid": [500], "replications": 20, "master_seed": 0, "delta": 0.01,
         "l_policies": [{"kind": "exponent", "value": 0.3}, {"kind": "exponent", "value": 1.5}]})},
     "field 'l_policies[1].value': exponent must lie in (0, 1), got 1.5"),
    (["simulate", "--spec", json.dumps(_BARELY_ERGODIC), "--n", "3", "--seed", "0"], {},
     _SINGULAR),
    (["coverage", "--config", "chain.json", "--out-dir", "out"],
     {"chain.json": json.dumps({"process": _BARELY_ERGODIC, "bounds": ["phi"], "n_grid": [200],
                                "replications": 10, "master_seed": 0, "alpha": 0.05})},
     _SINGULAR),
], ids=["simulate-hetero", "simulate-uniform", "coverage-uniform", "coverage-l-policies",
        "simulate-barely-ergodic", "coverage-barely-ergodic"])
def test_overflowing_truths_and_bad_policy_entries_exit_2_and_write_nothing(
    argv, inputs, message, tmp_path, capsys, monkeypatch
):
    # The two processes once ran with exit 0, writing NaN into coverage.json
    # or Infinity into the truth line; the entry was named l_policy.value.
    # The barely ergodic chain, whose long-run variance has no fundamental
    # matrix to solve with, once exited 1 with a traceback.
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(inputs)


# Each method's flags; a flag with the data's unit is scaled with the data
# (--sigma2 with their square) in the metamorphic tests below.
_SCALED_BOUND_ARGV = {
    "eb": {"--b": 1.0},
    "eb_ignore_linear": {"--b": 1.0},
    "mds_empirical": {"--b": 1.0},
    "freedman": {"--n": 400, "--sigma2": 0.25, "--b": 1.0},
    "phi": {"--l": 12, "--range-width": 2.0, "--phi-sum": 1.0},
    "tilde_phi": {"--l": 12, "--range-width": 2.0, "--phi-sum": 1.0, "--tv-norm": 2.0},
    "agnostic": {"--l": 12, "--range-width": 2.0, "--phi-sum": 1.0, "--tv-norm": 2.0},
}
_UNIT = {"--b": 1, "--range-width": 1, "--tv-norm": 1, "--sigma2": 2}


def _bound_on(method, values, s, tmp_path, capsys):
    """``ebmix bound --method`` on ``values`` and flags scaled by s, as parsed JSON."""
    data = tmp_path / f"x{s!r}.txt"
    data.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    argv = ["bound", "--method", method, "--delta", "0.01", "--data", str(data)]
    for flag, value in _SCALED_BOUND_ARGV[method].items():
        argv += [flag, repr(value * s ** _UNIT[flag] if flag in _UNIT else value)]
    assert main(argv) == 0
    return _bound_json(capsys.readouterr().out)


_BOUND_DATA = np.random.default_rng(11).uniform(-0.5, 1.0, 400)


def _scale_fault(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


_SLACK_FAULT = _scale_fault("the slack sqrt(2 L xi_n) / n carries no data unit")


@pytest.mark.parametrize("method", [
    "eb", "eb_ignore_linear", "mds_empirical", "freedman",
    pytest.param("phi", marks=_SLACK_FAULT),
    pytest.param("tilde_phi", marks=_SLACK_FAULT),
    pytest.param("agnostic", marks=_scale_fault("the knobs t_n and s_n are absolute")),
])
def test_bound_radius_scales_with_the_data_bit_for_bit(method, tmp_path, capsys):
    # Scaling the data and every flag in their unit by 2**k is exact in
    # floating point, and so is every operation of a radius whose terms
    # carry one data unit.
    base = _bound_on(method, _BOUND_DATA, 1.0, tmp_path, capsys)
    for k in (-3, 1, 5):
        s = 2.0**k
        scaled = _bound_on(method, s * _BOUND_DATA, s, tmp_path, capsys)
        assert scaled["radius"] == s * base["radius"], k
        assert scaled["center"] == s * base["center"], k
        assert (scaled["level"], scaled.get("flags")) == (base["level"], base.get("flags")), k


@pytest.mark.parametrize("method", sorted(_SCALED_BOUND_ARGV))
def test_bound_reflected_data_keep_the_radius_and_negate_the_center(method, tmp_path, capsys):
    base = _bound_on(method, _BOUND_DATA, 1.0, tmp_path, capsys)
    reflected = _bound_on(method, -_BOUND_DATA, 1.0, tmp_path, capsys)
    assert reflected["radius"].hex() == base["radius"].hex()
    assert reflected["center"] == -base["center"]
    assert (reflected["level"], reflected.get("flags")) == (base["level"], base.get("flags"))
