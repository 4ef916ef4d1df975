"""CSV / JSON serialization of experiment reports and atomic file output.

The coverage columns are the fields of ``harness.CellResult`` in declaration
order, and the JSON rows have the same keys.  Both column lists are frozen
interfaces: tests pin them and the README documents them.  Floats are
rendered with ``repr`` (shortest round-trip), so a given report serializes to
identical bytes on every platform.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from pathlib import Path

from .harness import CellResult, CoverageReport
from .errors import OutputExistsError

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
    """Write via a temp file + rename; refuse to overwrite unless force."""
    path = Path(path)
    if path.exists() and not force:
        raise OutputExistsError(f"refusing to overwrite existing output {path} (use --force)")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
