"""CSV / JSON serialization of experiment reports and atomic file output.

The coverage columns are the fields of ``harness.CellResult`` in declaration
order, and the JSON rows have the same keys.  Both column lists are frozen
interfaces: tests pin them and the README documents them.  Floats are
rendered with ``repr`` (shortest round-trip), so a given report serializes to
identical bytes on every platform.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
from pathlib import Path

from .harness import CellResult, CoverageReport
from .errors import InputError, OutputExistsError

COVERAGE_COLUMNS = tuple(field.name for field in dataclasses.fields(CellResult))

# A reordered subset of the coverage columns.
SENSITIVITY_COLUMNS = (
    "process",
    "bound",
    "n",
    "l_policy",
    "block_len",
    "blocks",
    "remainder",
    "mean_vhat",
    "mean_radius",
    "replications",
    "master_seed",
    "flags",
)

JSON_SCHEMA = "ebmix-report-v1"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(value)
    return str(value)


def _csv(report: CoverageReport, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for cell in report.rows:
        writer.writerow([_fmt(getattr(cell, col)) for col in columns])
    return buf.getvalue()


def coverage_csv(report: CoverageReport) -> str:
    return _csv(report, COVERAGE_COLUMNS)


def sensitivity_csv(report: CoverageReport) -> str:
    return _csv(report, SENSITIVITY_COLUMNS)


def report_json(report: CoverageReport) -> str:
    payload = {
        "schema": JSON_SCHEMA,
        "config": report.config.to_dict(),
        "rows": [dataclasses.asdict(c) for c in report.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def summary_lines(report: CoverageReport) -> list[str]:
    lines = []
    for c in report.rows:
        if c.empirical_coverage is None:
            lines.append(f"{c.process} {c.bound} n={c.n} [{';'.join(c.flags)}]")
        else:
            lines.append(
                f"{c.process} {c.bound} n={c.n} l={c.l_policy} "
                f"coverage={c.empirical_coverage:.4f} (level {c.level:.4f}) "
                f"mean_radius={c.mean_radius:.6g}"
            )
    return lines


def atomic_write_text(path, text: str, force: bool = False) -> None:
    """``atomic_write`` of one string."""
    atomic_write(path, (text,), force=force)


def check_writable(path, force: bool = False) -> Path:
    """``path``, unless it is a directory (InputError) or an existing file without force."""
    path = Path(path)
    if path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    if path.exists() and not force:
        raise OutputExistsError(f"refusing to overwrite existing output {path} (use --force)")
    return path


def atomic_write(path, pieces, force: bool = False) -> None:
    """Write the text ``pieces`` in turn via a temp file + rename, after
    ``check_writable``.  A write that fails raises InputError ("cannot write
    <path>: <reason>", naming a parent that is not a directory).  The temp
    file is removed whatever ends the write early: a failed write, an
    exception from ``pieces``, or an interrupt."""
    path = check_writable(path, force)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # unlink never removes a directory
            tmp.unlink()
        if not isinstance(exc, OSError):
            raise
        reason = next((f"{parent} is not a directory" for parent in path.parents
                       if parent.exists() and not parent.is_dir()), exc.strerror or exc)
        raise InputError(f"cannot write {path}: {reason}") from exc
