"""Command-line frontend.

Exit codes: 0 success, 1 property/acceptance failure, 2 precondition or
validation error or too little memory, 3 refusal to overwrite an output
file, 141 stdout closed by its reader (the status a shell reports for a
writer ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import core_bounds, harness, mixing_bounds, processes, reporting, selfcheck
from .blocking import block_partition, block_summary
from .errors import (
    ConfigError, DomainError, InputError, OutputExistsError, PreconditionError, _check_nonneg,
)

OUT_DIR_ENV = "EBMIX_OUT_DIR"

# Lines per block that `ebmix simulate` writes in, and bytes per block that
# a data file is read in: enough to amortize the per-block work, few enough
# that the text of one block is far smaller than the values it holds.
_BLOCK_LINES = 4096
_BLOCK_BYTES = 1 << 16

# A block's leading blank and '#' lines, each with its line end; the bytes a
# body read in one JSON call may hold; a '\r' that is not part of '\r\n';
# and an integer '-0' in such a body.
_HEAD = re.compile(rb"(?:[ \t\x0b\x0c]*(?:#[^\r\n]*)?(?:\r\n|\r|\n))*")
_NUMERAL_BYTES = b"0123456789.eE+- \t\r\n"
_LONE_CR = re.compile(rb"\r(?!\n)")
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")

# Each `ebmix bound --method` and the bound-table row it reads.
_METHODS = {row.method: row for row in harness.BOUND_TABLE.values() if row.method is not None}

# The `ebmix bound` flags each method reads besides --method, --delta,
# --alpha and --format, which all read; any other flag given is refused.
_READS = {
    "freedman": {"n", "sigma2", "b", "data"},
    "mds_empirical": {"b", "data"},
    "eb": {"b", "data", "n", "mean", "css"},
    "eb_ignore_linear": {"b", "data", "n", "mean", "css", "xi"},
    "phi": {"data", "l", "range_width", "phi_sum", "xi"},
    "tilde_phi": {"data", "l", "range_width", "phi_sum", "tv_norm", "xi"},
    "agnostic": {"data", "l", "range_width", "phi_sum", "tv_norm", "t", "s", "c"},
}
_READ_BY_ALL = {"subcommand", "method", "delta", "alpha", "format"}

# Each experiment subcommand: its help text, and the names of its runner in
# `harness` and its CSV renderer in `reporting`, looked up at each call so
# that a wrapped function is the one that runs.  Its outputs are
# <subcommand>.csv and <subcommand>.json.
_EXPERIMENTS = {
    "coverage": ("empirical coverage experiment from a config file", "run_coverage", "coverage_csv"),
    "sweep": ("sharpness sweep over an increasing n grid", "run_sharpness_sweep", "coverage_csv"),
    "sensitivity": ("block-length sensitivity table", "run_block_sensitivity", "sensitivity_csv"),
    "compare": ("side-by-side bound comparison table", "run_coverage", "coverage_csv"),
}


def read_values(path: str) -> np.ndarray:
    """Finite decimal reals, one per line; blank lines and '#' comments ignored.

    A value line is ASCII and holds no '_': float() would also read
    '1_000', Arabic-Indic digits and full-width digits, which are refused
    here with the line named.  A comment may hold any UTF-8 text.

    A line is what text mode yields: it ends at '\\n', '\\r\\n' or '\\r'.  The
    file is read ``_BLOCK_BYTES`` bytes at a time, each block cut after its
    last line end and the partial line carried into the next read; it never
    seeks, so a pipe works and only one block of bytes is held at a time."""
    blocks, start, carry = [], 1, b""
    try:
        with open(path, "rb") as f:
            # A line longer than a block is read in doubling chunks, so
            # carrying it costs time linear in its length.
            while chunk := f.read(max(_BLOCK_BYTES, len(carry))):
                block = carry + chunk
                # After the last '\n'; with none, after the last '\r' that is
                # not the last byte, so that no '\r\n' is split.
                cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
                carry = block[cut:]
                if cut:
                    start = _parse_block(path, block[:cut], start, blocks)
            if carry:
                _parse_block(path, carry, start, blocks)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    array = np.concatenate(blocks) if blocks else np.empty(0)
    if array.size == 0:
        raise InputError(f"{path}: no numeric data found")
    return array


def _parse_block(path: str, block: bytes, start: int, out: list) -> int:
    """Append the values of ``block``, whose first line is line ``start``,
    to ``out`` and return the number of the line after it.

    After the block's leading blank and '#' lines (such as the '# truth:'
    line of `ebmix simulate`), which must still be UTF-8, the body is read
    by one ``orjson.loads`` of a JSON array, each line end turned into a
    comma.  That path is taken only when the body holds numeral bytes
    alone and ends its lines with '\\n' or '\\r\\n' only, or with '\\r'
    only, and then only if orjson accepts it and no value is an integer
    '-0' (which orjson reads as the int 0, where float() gives -0.0).  A
    JSON number is a decimal that float() reads too, and orjson rounds it
    correctly, so the bits are float()'s; it refuses a number that
    overflows to infinity, which the line loop then names.  A JSON array
    holds one value between each two commas, so the body gives one value
    per line: a blank line, a comment or two numbers on one line make it
    invalid.  Any other block (with '.5', '1.', '+1', a leading zero, a
    lone '\\r' among '\\n' line ends, ...) is decoded with universal
    newlines and goes through the line loop."""
    import orjson  # only `ebmix bound --data` pays for loading it

    offset = _HEAD.match(block).end()
    body = block[offset:]
    if not body or body.translate(None, _NUMERAL_BYTES):
        return _parse_text(path, block, start, out)
    end = b"\n" if b"\n" in body else b"\r"
    # '\r' is JSON whitespace, so '\r\n' reads as one line end; but among
    # '\n' line ends, a lone '\r' would end a line that JSON does not see.
    if end == b"\n" and b"\r" in body and _LONE_CR.search(body):
        return _parse_text(path, block, start, out)
    text = body.removesuffix(end).replace(end, b",")
    block[:offset].decode("utf-8")  # a comment may hold any UTF-8 text, and only that
    try:
        values = orjson.loads(b"[" + text + b"]")
    except orjson.JSONDecodeError:
        return _parse_text(path, block, start, out)
    array = np.fromiter(values, dtype=float, count=len(values))
    # '-0' is looked for in the text only when some value is zero.
    if not array.all() and _INTEGER_MINUS_ZERO.search(body):
        return _parse_text(path, block, start, out)
    out.append(array)
    return start + len(block[:offset].splitlines()) + len(values)


def _parse_text(path: str, block: bytes, start: int, out: list) -> int:
    """:func:`_parse_block` through the line loop, on the lines text mode
    gives: ``block`` decoded as UTF-8 with universal newlines."""
    lines = list(io.TextIOWrapper(io.BytesIO(block), encoding="utf-8"))
    out.append(_parse_lines(path, lines, start))
    return start + len(lines)


def _parse_lines(path: str, lines: list[str], start: int = 1) -> np.ndarray:
    """The line loop: skips blank and '#' lines and names a line that is not
    a finite number, counting the first of ``lines`` as line ``start``."""
    values = []
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.isascii() or "_" in line:
                raise ValueError
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


def _require(args, names, why: str = "") -> None:
    missing = [n.replace("_", "-") for n in names if getattr(args, n) is None]
    if missing:
        raise DomainError(f"method {args.method!r} requires --" + ", --".join(missing) + why)


def _refuse_unread(args) -> None:
    """Refuse any flag given that --method does not read (see ``_READS``)."""
    unread = [name.replace("_", "-") for name, value in vars(args).items()
              if value is not None and name not in _READ_BY_ALL | _READS[args.method]]
    if unread:
        raise DomainError(f"method {args.method!r} does not read --" + ", --".join(unread))


def _values_within(args, limit: float, measure, message: str) -> np.ndarray:
    """The data file's values, read after any flag the method does not read
    is refused.  Data whose ``measure`` exceeds ``limit`` in absolute value
    make the interval void, so that is an input error, not a warning;
    ``message`` words it from the measured ``value`` and ``limit``."""
    _refuse_unread(args)
    values = read_values(args.data)
    value = float(measure(values))
    if abs(value) > limit * (1 + 1e-12):
        raise InputError(
            f"{args.data}: {message.format(value=value, limit=limit)}, so the interval would be void"
        )
    return values


_WIDER_THAN_2B = "values span {value!r} (max - min), more than 2 * --b = {limit!r}"
_WIDER_THAN_RANGE = "values span {value!r} (max - min), more than --range-width {limit!r}"


def _values_within_b(args) -> np.ndarray:
    """The data file's values within --b, for a method that reads n, mean and css from them."""
    given = [f"--{name}" for name in ("n", "mean", "css") if getattr(args, name) is not None]
    if given:
        raise DomainError(f"method {args.method!r} takes n, mean and css from --data; "
                          f"drop {', '.join(given)}")
    return _values_within(args, args.b, lambda x: x[int(np.argmax(np.abs(x)))],
                          "value {value!r} exceeds --b {limit!r} in absolute value")


def _summary_within_b(value: float, limit: float, message: str) -> None:
    """Refuse a summary flag, worded by ``message``, if its ``value``
    exceeds ``limit``, the most that data within --b allow."""
    if value > limit * (1 + core_bounds._RANGE_RTOL):
        raise DomainError(f"{message}, which no data within --b can have")


def cmd_bound(args) -> int:
    """The library interval of --method.  Its bound-table row gives the level
    rule (``delta = 2 alpha / misses``), the regime of the budget from
    --phi-sum and --tv-norm, and the default xi."""
    method, row = args.method, _METHODS[args.method]
    if (args.delta is None) == (args.alpha is None):
        raise DomainError("exactly one of --delta and --alpha is required")
    delta = args.delta if args.delta is not None else 2.0 * args.alpha / row.misses

    def xi(n):
        return args.xi if args.xi is not None else float(row.xi.evaluate(n))

    if method == "freedman":
        _require(args, ["n", "sigma2", "b"])
        center = 0.0
        if args.data is not None:
            # --b bounds |X - mu|, which no mu meets if the spread exceeds 2 --b.
            values = _values_within(args, 2.0 * args.b, np.ptp, _WIDER_THAN_2B)
            if values.size != args.n:
                raise InputError(f"{args.data}: holds {values.size} values but --n is {args.n}")
            center = float(np.mean(values))
        res = core_bounds.freedman_interval(center, args.n, args.sigma2, args.b, delta)
        b2 = args.b * args.b
        _summary_within_b(args.sigma2, b2, f"--sigma2 {args.sigma2!r} exceeds --b^2 = {b2!r} "
                          "(--b bounds |X - mu|)")
    elif method == "mds_empirical":  # data are treated as zero-mean increments
        _require(args, ["b"])
        if args.data is None:
            raise DomainError("method 'mds_empirical' requires --data (raw increments)")
        res = core_bounds.mds_empirical_interval(_values_within_b(args), args.b, delta)
    elif method in ("eb", "eb_ignore_linear"):
        _require(args, ["b"])
        if args.data is not None:
            summary = core_bounds.summarize(_values_within_b(args), b=args.b)
        else:
            _require(args, ["n", "mean", "css"])
            summary = core_bounds.SampleSummary(n=args.n, mean=args.mean, css=args.css, b=args.b)
            mean, b, css = summary.mean, summary.b, summary.css
            _summary_within_b(abs(mean), b, f"--mean {mean!r} exceeds --b {b!r} in absolute value")
            # Bhatia-Davis: data in [-b, b] have css <= n (b - mean) (b + mean),
            # which is n (b^2 - mean^2) without its cancellation near |mean| = b.
            most = summary.n * (b - mean) * (b + mean)
            _summary_within_b(css, most, f"--css {css!r} exceeds --n * (--b^2 - --mean^2) = {most!r}")
        if method == "eb":
            res = core_bounds.eb_interval(summary, delta)
        else:
            res = core_bounds.ignore_linear_interval(summary, delta, xi(summary.n))
    else:  # block-based methods need raw data and a block length
        _require(args, ["data", "l", "range_width"])
        _check_nonneg(args.range_width, "range_width")  # before the agnostic knobs use it
        values = _values_within(args, args.range_width, np.ptp, _WIDER_THAN_RANGE)
        summary = block_summary(values, block_partition(values.size, args.l))
        names = ["phi_sum", "tv_norm"] if row.regime == "phi_tilde" else ["phi_sum"]
        budget = None
        if row.needs_budget is not None or any(getattr(args, n) is not None for n in names):
            _require(args, names, "" if row.needs_budget else " (its error budget needs both)")
            budget = mixing_bounds.MixingBudget(row.regime, *(getattr(args, n) for n in names))
        if method in ("phi", "tilde_phi"):
            interval = (mixing_bounds.phi_interval if method == "phi"
                        else mixing_bounds.tilde_phi_interval)
            res = interval(summary, args.range_width, budget, delta, xi(values.size))
        else:  # agnostic
            policy = harness.KnobPolicy()
            if args.c is not None:
                policy = harness.KnobPolicy(c_mode="fixed", c_value=_check_nonneg(args.c, "c"))
            knobs = policy.evaluate(values.size, summary.partition.remainder_size, args.range_width)
            given = {"t_n": args.t, "s_n": args.s}
            knobs = dataclasses.replace(knobs, **{k: v for k, v in given.items() if v is not None})
            errors = mixing_bounds.agnostic_errors(summary.partition, knobs, budget)
            res = mixing_bounds.agnostic_interval(summary, args.range_width, knobs, delta, errors)
    if args.data is None:  # with --data, _values_within refused them before reading
        _refuse_unread(args)
    _print_interval(res, args.format)
    return 0


def _json_object(text: str, what: str) -> dict:
    """The JSON object ``text`` holds, or a ConfigError naming ``what``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def cmd_simulate(args) -> int:
    if args.spec is not None:
        spec = processes.ProcessSpec.from_dict(_json_object(args.spec, "--spec"))
    else:
        params = _json_object(args.params, "--params") if args.params else {}
        spec = processes.ProcessSpec(kind=args.kind, params=params)
    values, truth = processes.simulate(spec, args.n, args.seed)
    # One line per value, rendered a block at a time so that the text of
    # the whole path is never held at once.
    blocks = ("".join(repr(v) + "\n" for v in values[i:i + _BLOCK_LINES].tolist())
              for i in range(0, values.size, _BLOCK_LINES))
    truth_payload = {"process": spec.label(), **dataclasses.asdict(truth)}
    if args.out:
        reporting.atomic_write(args.out, blocks, force=args.force)
        print(json.dumps(truth_payload, indent=2))
    else:
        print(f"# truth: {json.dumps(truth_payload)}")
        sys.stdout.writelines(blocks)
    return 0


def _load_config(args) -> harness.ExperimentConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    raw = _json_object(text, f"config {args.config}")
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


def _run_experiment(args) -> int:
    _, runner, renderer = _EXPERIMENTS[args.subcommand]
    config = _load_config(args)
    report = getattr(harness, runner)(config, n_jobs=args.jobs)
    csv_path, json_path = _output_paths(args, args.subcommand)
    reporting.atomic_write_text(csv_path, getattr(reporting, renderer)(report), force=args.force)
    reporting.atomic_write_text(json_path, reporting.report_json(report), force=args.force)
    for line in reporting.summary_lines(report):
        print(line)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all(seed=args.seed, cases=args.cases)
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
    p_bound.add_argument("--method", required=True, choices=list(_METHODS))
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

    for name, (help_text, _, _) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--csv", help="CSV output path")
        p.add_argument("--json", dest="json_out", help="JSON output path")
        p.add_argument("--out-dir", help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--n", type=int, help="override: single n")
        level = p.add_mutually_exclusive_group()
        level.add_argument("--delta", type=float)
        level.add_argument("--alpha", type=float)
        p.add_argument("--replications", type=int)
        p.add_argument("--seed", type=int)
        block_length = p.add_mutually_exclusive_group()
        block_length.add_argument("--l", type=float, help="override: fixed block length")
        block_length.add_argument("--l-exponent", type=float, dest="l_exponent")

    p_check = sub.add_parser("selfcheck", help="run the randomized property oracles")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--cases", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up by name on each call, not bound into the
    # cached parser, so a replaced cmd_* function is the one that runs.
    name = args.subcommand
    command = _run_experiment if name in _EXPERIMENTS else globals()["cmd_" + name]
    try:
        status = command(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout has gone, as in `ebmix simulate ... | head -1`.
        # Stdout now points at devnull so that the interpreter's final flush
        # stays quiet, and the status is the one a shell reports for a
        # writer that SIGPIPE ended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OutputExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, DomainError, ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a path or report too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
