"""Command-line frontend.

Exit codes: 0 success, 1 property/acceptance failure, 2 precondition or
validation error, 3 refusal to overwrite an output file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import core_bounds, harness, mixing_bounds, processes, reporting, selfcheck
from .blocking import block_partition, block_summary
from .errors import (
    ConfigError, DomainError, InputError, OutputExistsError, PreconditionError, _check_nonneg,
)

OUT_DIR_ENV = "EBMIX_OUT_DIR"

BOUND_METHODS = ("eb", "eb_ignore_linear", "mds_empirical", "freedman", "phi", "tilde_phi", "agnostic")


def read_values(path: str) -> np.ndarray:
    """Newline-separated finite decimal reals; blank lines and '#' comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    lines = text.splitlines()
    # One pass when every line after the leading blank and '#' lines (such
    # as the '# truth:' line of `ebmix simulate`) is a number.  float()
    # raises on a blank line and on a comment, so any file it accepts here
    # the line loop accepts too, with the same bits; any other file takes
    # the loop, which numbers the lines of the whole file.
    head = 0
    while head < len(lines) and (not lines[head].strip() or lines[head].lstrip().startswith("#")):
        head += 1
    try:
        data = lines[head:] if head else lines
        array = np.fromiter(map(float, data), dtype=float, count=len(data))
    except ValueError:
        array = _parse_lines(path, lines)
    if array.size == 0:
        raise InputError(f"{path}: no numeric data found")
    if not np.isfinite(array).all():
        # Checked once on the array to keep the parse lean; the line loop
        # runs only on this error path, to name the line.
        _parse_lines(path, lines)
    return array


def _parse_lines(path: str, lines: list[str]) -> np.ndarray:
    """The line loop: skips blank and '#' lines and names a line that is not
    a finite number."""
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise InputError(f"{path}: line {lineno}: not a number: {line!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{path}: line {lineno}: value is not finite: {line!r}")
        values.append(value)
    return np.asarray(values, dtype=float)


def _interval_payload(res: core_bounds.IntervalResult) -> dict:
    payload = {
        "center": res.center,
        "radius": res.radius,
        "level": res.level,
        "breakdown": dict(res.breakdown),
    }
    if res.flags:
        payload["flags"] = list(res.flags)
    return payload


def _print_interval(res: core_bounds.IntervalResult, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_interval_payload(res), indent=2))
    else:
        print(f"center  {res.center!r}")
        print(f"radius  {res.radius!r}")
        print(f"level   {res.level!r}")
        for k, v in res.breakdown.items():
            print(f"  {k:<12} {v!r}")
        for flag in res.flags:
            print(f"  flag: {flag}")


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise DomainError(f"method {args.method!r} requires --" + ", --".join(missing))


def _values_within(args, limit: float, measure, message: str) -> np.ndarray:
    """The data file's values.  Data whose ``measure`` exceeds ``limit`` in
    absolute value make the interval void, so that is an input error, not a
    warning; ``message`` words it from the measured ``value`` and ``limit``."""
    values = read_values(args.data)
    value = float(measure(values))
    if abs(value) > limit * (1 + 1e-12):
        raise InputError(
            f"{args.data}: {message.format(value=value, limit=limit)}, so the interval would be void"
        )
    return values


def _extreme(values: np.ndarray) -> float:
    """The value of largest magnitude, with its sign."""
    return values[int(np.argmax(np.abs(values)))]


_ABOVE_B = "value {value!r} exceeds --b {limit!r} in absolute value"
_WIDER_THAN_RANGE = "values span {value!r} (max - min), more than --range-width {limit!r}"


def _summary_from_args(args) -> core_bounds.SampleSummary:
    if args.data is not None:
        return core_bounds.summarize(_values_within(args, args.b, _extreme, _ABOVE_B), b=args.b)
    _require(args, ["n", "mean", "css"])
    return core_bounds.SampleSummary(n=args.n, mean=args.mean, css=args.css, b=args.b)


def _delta_from_args(args, misses: int = 3) -> float:
    """--delta, or the delta at which an interval that misses with
    probability at most ``misses * delta`` has the level 1 - 2 alpha of
    --alpha."""
    if (args.delta is None) == (args.alpha is None):
        raise DomainError("exactly one of --delta and --alpha is required")
    return args.delta if args.delta is not None else 2.0 * args.alpha / misses


def cmd_bound(args) -> int:
    method = args.method
    if method == "freedman":
        _require(args, ["n", "sigma2", "b"])
        # Each side misses with probability at most delta, so --alpha is
        # that delta, as in the harness's freedman_oracle.
        delta = _delta_from_args(args, misses=2)
        center = 0.0
        if args.data is not None:
            values = _values_within(args, args.b, _extreme, _ABOVE_B)
            if values.size != args.n:
                raise InputError(f"{args.data}: holds {values.size} values but --n is {args.n}")
            center = float(np.mean(values))
        res = core_bounds.freedman_interval(center, args.n, args.sigma2, args.b, delta)
    elif method == "mds_empirical":  # data are treated as zero-mean increments
        _require(args, ["b"])
        if args.data is None:
            raise DomainError("method 'mds_empirical' requires --data (raw increments)")
        values = _values_within(args, args.b, _extreme, _ABOVE_B)
        res = core_bounds.mds_empirical_interval(values, args.b, _delta_from_args(args))
    elif method in ("eb", "eb_ignore_linear"):
        _require(args, ["b"])
        summary = _summary_from_args(args)
        delta = _delta_from_args(args)
        if method == "eb":
            res = core_bounds.eb_interval(summary, delta)
        else:
            default_xi = float(harness._DEFAULT_XI[method].evaluate(summary.n))
            xi = args.xi if args.xi is not None else default_xi
            res = core_bounds.ignore_linear_interval(summary, delta, xi)
    else:  # block-based methods need raw data and a block length
        _require(args, ["data", "l", "range_width"])
        delta = _delta_from_args(args)
        _check_nonneg(args.range_width, "range_width")  # before the agnostic knobs use it
        values = _values_within(args, args.range_width, np.ptp, _WIDER_THAN_RANGE)
        summary = block_summary(values, block_partition(values.size, args.l))
        if method == "phi":
            _require(args, ["phi_sum"])
            budget = mixing_bounds.MixingBudget(regime="phi", phi_sum=args.phi_sum)
            res = mixing_bounds.phi_interval(summary, args.range_width, budget, delta, xi_n=args.xi)
        elif method == "tilde_phi":
            _require(args, ["phi_sum", "tv_norm"])
            budget = mixing_bounds.MixingBudget(
                regime="phi_tilde", phi_sum=args.phi_sum, tv_norm=args.tv_norm
            )
            res = mixing_bounds.tilde_phi_interval(
                summary, args.range_width, budget, delta, xi_n=args.xi
            )
        else:  # agnostic
            n = values.size
            policy = harness.KnobPolicy()
            if args.c is not None:
                policy = harness.KnobPolicy(c_mode="fixed", c_value=_check_nonneg(args.c, "c"))
            knobs = policy.evaluate(n, summary.partition.remainder_size, args.range_width)
            given = {"t_n": args.t, "s_n": args.s}
            knobs = dataclasses.replace(knobs, **{k: v for k, v in given.items() if v is not None})
            budget = None
            if args.tv_norm is not None and args.phi_sum is not None:
                budget = mixing_bounds.MixingBudget(
                    regime="phi_tilde", phi_sum=args.phi_sum, tv_norm=args.tv_norm
                )
            errors = mixing_bounds.agnostic_errors(summary.partition, knobs, budget)
            res = mixing_bounds.agnostic_interval(summary, args.range_width, knobs, delta, errors)
    _print_interval(res, args.format)
    return 0


def cmd_simulate(args) -> int:
    if args.spec is not None:
        spec = processes.ProcessSpec.from_dict(json.loads(args.spec))
    else:
        params = json.loads(args.params) if args.params else {}
        spec = processes.ProcessSpec(kind=args.kind, params=params)
    values, truth = processes.simulate(spec, args.n, args.seed)
    lines = "\n".join(repr(float(v)) for v in values) + "\n"
    truth_payload = {"process": spec.label(), **dataclasses.asdict(truth)}
    if args.out:
        reporting.atomic_write_text(args.out, lines, force=args.force)
        print(json.dumps(truth_payload, indent=2))
    else:
        print(f"# truth: {json.dumps(truth_payload)}")
        sys.stdout.write(lines)
    return 0


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config FILE is required")
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    # flat CLI overrides win over file values
    if args.n is not None:
        raw["n_grid"] = [args.n]
    if args.delta is not None:
        raw["delta"] = args.delta
        raw["alpha"] = None
    if args.alpha is not None:
        raw["alpha"] = args.alpha
        raw["delta"] = None
    if args.replications is not None:
        raw["replications"] = args.replications
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.l is not None:
        raw["l_policy"] = {"kind": "fixed", "value": args.l}
    if args.l_exponent is not None:
        raw["l_policy"] = {"kind": "exponent", "value": args.l_exponent}
    if args.l is not None or args.l_exponent is not None:
        raw["l_policies"] = None  # the one given block length replaces the file's list
    return harness.ExperimentConfig.from_dict(raw)


def _output_paths(args, stem: str) -> tuple[Path, Path]:
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    csv_path = Path(args.csv) if args.csv else out_dir / f"{stem}.csv"
    json_path = Path(args.json_out) if args.json_out else out_dir / f"{stem}.json"
    return csv_path, json_path


def _run_experiment(args, runner, stem: str, csv_renderer) -> int:
    config = _load_config(args)
    report = runner(config, n_jobs=args.jobs)
    csv_path, json_path = _output_paths(args, stem)
    reporting.atomic_write_text(csv_path, csv_renderer(report), force=args.force)
    reporting.atomic_write_text(json_path, reporting.report_json(report), force=args.force)
    for line in reporting.summary_lines(report):
        print(line)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_coverage(args) -> int:
    return _run_experiment(args, harness.run_coverage, "coverage", reporting.coverage_csv)


def cmd_sweep(args) -> int:
    return _run_experiment(args, harness.run_sharpness_sweep, "sweep", reporting.coverage_csv)


def cmd_sensitivity(args) -> int:
    return _run_experiment(
        args, harness.run_block_sensitivity, "sensitivity", reporting.sensitivity_csv
    )


def cmd_compare(args) -> int:
    return _run_experiment(args, harness.run_coverage, "compare", reporting.coverage_csv)


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all(seed=args.seed, cases=args.cases, inject_fault=args.inject_fault)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} (cases={res.cases}): {res.detail}")
        failed = failed or not res.passed
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: argparse keeps no state between parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="ebmix",
        description="Concentration radii, process simulators, and Monte Carlo coverage experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_bound = sub.add_parser("bound", help="evaluate one bound on supplied data or a summary")
    p_bound.add_argument("--method", required=True, choices=BOUND_METHODS)
    p_bound.add_argument("--data", help="file of newline-separated reals ('#' comments allowed)")
    p_bound.add_argument("--n", type=int)
    p_bound.add_argument("--mean", type=float)
    p_bound.add_argument("--css", type=float)
    p_bound.add_argument("--b", type=float, help="a.s. bound on |Z_i| (not the range width)")
    p_bound.add_argument("--sigma2", type=float)
    p_bound.add_argument("--delta", type=float)
    p_bound.add_argument("--alpha", type=float)
    p_bound.add_argument("--l", type=float, help="block length (block-based methods)")
    p_bound.add_argument("--range-width", type=float, dest="range_width")
    p_bound.add_argument("--phi-sum", type=float, dest="phi_sum")
    p_bound.add_argument("--tv-norm", type=float, dest="tv_norm")
    p_bound.add_argument("--xi", type=float)
    p_bound.add_argument("--t", type=float)
    p_bound.add_argument("--s", type=float)
    p_bound.add_argument("--c", type=float)
    p_bound.add_argument("--format", choices=("json", "human"), default="json")

    p_sim = sub.add_parser("simulate", help="draw one process path with known ground truth")
    p_sim.add_argument("--kind", choices=processes.KINDS)
    p_sim.add_argument("--params", help="JSON object of kind-specific parameters")
    p_sim.add_argument("--spec", help="full process spec as JSON (overrides --kind/--params)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", help="write values here (default: stdout)")
    p_sim.add_argument("--force", action="store_true")

    for name, help_text in (
        ("coverage", "empirical coverage experiment from a config file"),
        ("sweep", "sharpness sweep over an increasing n grid"),
        ("sensitivity", "block-length sensitivity table"),
        ("compare", "side-by-side bound comparison table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--csv", help="CSV output path")
        p.add_argument("--json", dest="json_out", help="JSON output path")
        p.add_argument("--out-dir", help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--n", type=int, help="override: single n")
        p.add_argument("--delta", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--replications", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--l", type=float, help="override: fixed block length")
        p.add_argument("--l-exponent", type=float, dest="l_exponent")

    p_check = sub.add_parser("selfcheck", help="run the randomized property oracles")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--cases", type=int, default=1000)
    p_check.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up by name on each call, not bound into the
    # cached parser, so a replaced cmd_* function is the one that runs.
    command = globals()["cmd_" + args.subcommand]
    try:
        return command(args)
    except OutputExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, DomainError, ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
