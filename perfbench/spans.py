"""In-memory span recorder for the traced benchmark run.

The recorder wraps module-level functions and methods of ``ebmix`` at each
layer boundary from the benchmark's side; no library source is touched.
Spans are kept in memory while the workload runs, reduced to per-layer
metrics afterwards, and can be written out as CSV.

A seam that does not exist (a private helper a later refactor removed) is
recorded as missing, and every metric fed only by it reads ``None``.
"""

from __future__ import annotations

import csv
import functools
import threading
import time

# One ``harness.evaluate.<bound>.s`` metric per harness bound.  The list is
# fixed here rather than read from ebmix because it names metrics in
# BENCHMARK.json.
HARNESS_BOUNDS = (
    "freedman_oracle",
    "mds_empirical",
    "empirical_bernstein",
    "eb_ignore_linear",
    "phi_mixing",
    "tilde_phi_mixing",
    "mixing_agnostic",
    "dedecker_baseline",
    "maurer_pontil_baseline",
)


def _simulate_paths_counts(args, kwargs, result):
    # The uniform buffer has the shape of the returned paths and is float64.
    return {"values": result.size, "bytes": result.size * 8 + result.nbytes}


def _chunk_counts(args, kwargs, result):
    return {"chunks": len(result), "rows": sum(hi - lo for lo, hi in result)}


def _written_counts(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _read_counts(args, kwargs, result):
    return {"values": result.size}


def _bound_tag(args, kwargs):
    return getattr(args[0], "bound", None)


# (module, owner attribute or None, attribute, span name, counter, tagger)
SEAMS = (
    ("processes", None, "simulate_paths", "processes.simulate_paths", _simulate_paths_counts, None),
    ("processes", None, "_generator", "processes.seed", None, None),
    ("processes", None, "_paths_from_uniforms", "processes.transform", None, None),
    ("processes", None, "mixing_budget_for", "processes.mixing_budget_for", None, None),
    ("processes", None, "markov_phi_budget", "processes.markov_phi_budget", None, None),
    ("harness", None, "run_cells", "harness.run_cells", None, None),
    ("harness", None, "validate_config", "harness.validate_config", None, None),
    ("harness", "_CellPlan", "__init__", "harness.plan", None, None),
    ("harness", "_CellPlan", "evaluate", "harness.evaluate", None, _bound_tag),
    ("harness", None, "_finish_cell", "harness.finish_cell", None, None),
    ("harness", None, "_chunk_edges", "harness.chunk_edges", _chunk_counts, None),
    ("reporting", None, "coverage_csv", "reporting.coverage_csv", None, None),
    ("reporting", None, "sensitivity_csv", "reporting.sensitivity_csv", None, None),
    ("reporting", None, "report_json", "reporting.report_json", None, None),
    ("reporting", None, "atomic_write_text", "reporting.atomic_write_text", _written_counts, None),
    ("cli", None, "cmd_bound", "cli.cmd_bound", None, None),
    ("cli", None, "read_values", "cli.read_values", _read_counts, None),
    # cli binds block_summary by name, so the seam is the cli reference.
    ("cli", None, "block_summary", "blocking.block_summary", None, None),
    ("core_bounds", None, "summarize", "core_bounds.summarize", None, None),
    ("core_bounds", None, "eb_interval", "core_bounds.eb_interval", None, None),
    ("mixing_bounds", None, "phi_interval", "mixing_bounds.phi_interval", None, None),
    ("mixing_bounds", None, "tilde_phi_interval", "mixing_bounds.tilde_phi_interval", None, None),
    ("mixing_bounds", None, "agnostic_interval", "mixing_bounds.agnostic_interval", None, None),
)

_MISSING = object()


class Tracer:
    """Records spans ``[name, tag, start, end, parent, thread id]``.

    The parent of a span is the innermost open span of the same thread.  A
    span opened in a worker thread with no open span of its own gets the
    innermost open span of the installing thread as parent, since the
    harness's pool threads run work on behalf of ``run_cells``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._saved: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        record = [name, tag, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            self.spans.append(record)
            span_id = len(self.spans) - 1
        stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name, counter, tagger):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.open(name, tagger(args, kwargs) if tagger else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span_id)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.count(f"{name}.{key}", amount)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every seam that exists in ``modules`` (name -> module)."""
        for mod_name, owner_name, attr, name, counter, tagger in SEAMS:
            owner = modules.get(mod_name)
            if owner is not None and owner_name is not None:
                owner = vars(owner).get(owner_name)
            original = vars(owner).get(attr, _MISSING) if owner is not None else _MISSING
            if original is _MISSING or not callable(original):
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter, tagger))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return the seams not restored."""
        not_restored = []
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                not_restored.append(attr)
        self._saved.clear()
        return not_restored

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "tag", "start", "end", "parent", "thread"))
            for span_id, (name, tag, start, end, parent, tid) in enumerate(self.spans):
                writer.writerow((span_id, name, tag or "", repr(start), repr(end), parent, tid))


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, tag, start, end, parent, tid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for span_id, (name, tag, start, end, parent, tid) in enumerate(spans):
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        out.append((end - start) - _union_length(covered))
    return out


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Reduce the recorded spans and counts to the per-layer metric names."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    by_bound: dict[str, float] = {}
    for (name, tag, start, end, parent, tid), own in zip(tracer.spans, self_times(tracer.spans)):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own
        if name == "harness.evaluate":
            by_bound[tag] = by_bound.get(tag, 0.0) + (end - start)
    counts = tracer.counts
    missing = set(tracer.missing)

    def seam(name, value):
        return None if name in missing else value

    def s(name):
        return seam(name, total.get(name, 0.0))

    def n(name):
        return seam(name, calls.get(name, 0))

    m = {}
    for name in ("processes.simulate_paths", "processes.seed", "processes.transform",
                 "processes.mixing_budget_for", "processes.markov_phi_budget",
                 "harness.plan", "harness.evaluate", "cli.read_values"):
        m[f"{name}.s"] = s(name)
        m[f"{name}.calls"] = n(name)
    m["processes.simulate_paths.values"] = seam(
        "processes.simulate_paths", counts.get("processes.simulate_paths.values", 0))
    m["processes.simulate_paths.bytes"] = seam(
        "processes.simulate_paths", counts.get("processes.simulate_paths.bytes", 0))
    parts = (m["processes.simulate_paths.s"], m["processes.seed.s"], m["processes.transform.s"])
    m["processes.draw_s"] = None if None in parts else parts[0] - parts[1] - parts[2]

    m["harness.validate_config.s"] = s("harness.validate_config")
    for bound in HARNESS_BOUNDS:
        m[f"harness.evaluate.{bound}.s"] = seam("harness.evaluate", by_bound.get(bound, 0.0))
    m["harness.finish_cell.s"] = s("harness.finish_cell")
    m["harness.run_cells.s"] = s("harness.run_cells")
    m["harness.run_cells.self_s"] = seam("harness.run_cells", self_total.get("harness.run_cells", 0.0))
    chunks = counts.get("harness.chunk_edges.chunks", 0)
    m["harness.chunks"] = seam("harness.chunk_edges", chunks)
    m["harness.rows_per_chunk"] = seam(
        "harness.chunk_edges", counts.get("harness.chunk_edges.rows", 0) / chunks if chunks else 0.0)
    # Chunk work is path simulation plus radius evaluation, wherever it ran.
    busy_parts = (m["processes.simulate_paths.s"], m["harness.evaluate.s"], m["harness.run_cells.s"])
    if None in busy_parts:
        m["harness.thread_busy_ratio"] = None
    else:
        run = busy_parts[2]
        m["harness.thread_busy_ratio"] = (busy_parts[0] + busy_parts[1]) / (jobs * run) if run else 0.0

    for name in ("coverage_csv", "sensitivity_csv", "report_json", "atomic_write_text"):
        m[f"reporting.{name}.s"] = s(f"reporting.{name}")
    m["reporting.bytes_written"] = seam(
        "reporting.atomic_write_text", counts.get("reporting.atomic_write_text.bytes", 0))

    m["cli.read_values.values"] = seam("cli.read_values", counts.get("cli.read_values.values", 0))
    m["cli.cmd_bound.self_s"] = seam("cli.cmd_bound", self_total.get("cli.cmd_bound", 0.0))
    for name in ("blocking.block_summary", "core_bounds.summarize", "core_bounds.eb_interval",
                 "mixing_bounds.phi_interval", "mixing_bounds.tilde_phi_interval",
                 "mixing_bounds.agnostic_interval"):
        m[f"{name}.s"] = s(name)
    m["trace.spans"] = len(tracer.spans)
    return m


# Spans that contain none of the other traced spans, plus the draw residual
# of simulate_paths; the largest of them is the layer a workload loads most.
LEAF_METRICS = (
    "processes.seed.s",
    "processes.transform.s",
    "processes.draw_s",
    "processes.markov_phi_budget.s",
    "harness.evaluate.s",
    "harness.finish_cell.s",
    "reporting.coverage_csv.s",
    "reporting.sensitivity_csv.s",
    "reporting.report_json.s",
    "reporting.atomic_write_text.s",
    "cli.read_values.s",
    "cli.cmd_bound.self_s",
    "blocking.block_summary.s",
    "core_bounds.summarize.s",
    "core_bounds.eb_interval.s",
    "mixing_bounds.phi_interval.s",
    "mixing_bounds.tilde_phi_interval.s",
    "mixing_bounds.agnostic_interval.s",
)


def dominant_leaf(metrics: dict) -> str | None:
    present = [(metrics[k], k) for k in LEAF_METRICS if metrics.get(k) is not None]
    return max(present)[1] if present else None
