"""Benchmark entry point for ebmix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It byte-compiles ``src/ebmix``, then
starts fresh child processes (``child.py``) one at a time while the next
one is expected to end within ``--seconds``, and at least three of them.
Each child sets the workload up from the seed, runs it once and checks its
outputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, medians over
  the children (call latencies pooled over every call of every child).
  Every timing is scaled to the nominal speed of the reference kernel that
  each child samples while its workload runs (``reference.py``), since the
  shared machine's own speed drifts by up to a factor of two; the unscaled
  median wall time and the median slice time are printed above the result;
* ``--trace 1``: untraced and traced children alternate; the per-layer
  metrics are medians over the traced children, and ``trace.overhead_s`` is
  the traced minus the untraced median ``wall_s``, both unscaled (a traced
  child does not sample the reference kernel).

Every child of one run uses the same seed, so all must write identical
report bytes, traced or not; a child that differs counts as failed.
This process imports nothing heavy itself, so that the children's peak RSS
is their own.
"""

from __future__ import annotations

import argparse
import collections
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_CHILDREN = {0: 3, 1: 4}
# Whole-run deadline, under the 180 s a run may take.
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def warm_up(src: Path) -> None:
    """Compile the package and load numpy once, so no child pays a one-off
    cost that a user's repeated runs would not."""
    code = "import sys, compileall, numpy; sys.exit(not compileall.compile_dir(sys.argv[1], quiet=1))"
    subprocess.run([sys.executable, "-c", code, str(src / "ebmix")], check=True, timeout=120)


def run_child(workload: str, seed: int, traced: bool, work_dir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--work-dir", str(work_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s", "attempted": 1, "failed": 1}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: {' | '.join(tail)}", "attempted": 1, "failed": 1}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": f"unreadable child output {lines[-1][:200]!r}", "attempted": 1, "failed": 1}
    record["traced"] = traced
    return record


def percentile(samples, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def median_or_none(values):
    return None if any(v is None for v in values) else statistics.median(values)


def aggregate(records: list[dict], trace: bool) -> tuple[dict, int, int, list[str]]:
    """Reduce child records to (metrics, attempted, failed, problems).

    A child that crashed, failed its own checks, or wrote reports that
    differ from the other children's counts against ``failed``.
    """
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [r["crashed"] for r in records if "crashed" in r]
    ok = [r for r in records if "crashed" not in r]
    for r in ok:
        problems.extend(r["problems"])
    digests = collections.Counter(r["digest"] for r in ok)
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for r in ok:
            if r["digest"] != common:
                problems.append(f"child output {r['digest'][:12]} differs from {common[:12]}")
                failed += r["attempted"] - r["failed"]
    metrics: dict = {}
    if not ok:
        return metrics, attempted, failed, problems
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not trace:
        # Each child's timings at the reference kernel's nominal speed.
        scaled = [(r, reference.NOMINAL_S / r["slice_s"]) for r in ok]
        calls = sorted(ms * k for r, k in scaled for ms in r["calls_ms"])
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * k for r, k in scaled),
            "wall_s": statistics.median(r["wall_s"] * k for r, k in scaled),
            "ns_per_value": statistics.median(r["wall_s"] * k * 1e9 / r["values"] for r, k in scaled),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "call_p50_ms": statistics.median(calls),
            "call_p95_ms": percentile(calls, 95),
            "calls": len(calls),
            "raw_wall_s": statistics.median(r["wall_s"] for r in ok),
            "slice_s": statistics.median(r["slice_s"] for r in ok),
        }
    elif traced and plain:
        for name in traced[0]["layers"]:
            metrics[name] = median_or_none([r["layers"][name] for r in traced])
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.missing_seams"] = sorted({s for r in traced for s in r["missing_seams"]})
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    begin = time.monotonic()
    src = ROOT / "src"
    if not (src / "ebmix" / "__init__.py").is_file():
        print(f"error: no ebmix sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    warm_up(src)

    work_dir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    records: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    try:
        # Start another child while it is expected to end within --seconds.
        while (len(records) < MIN_CHILDREN[args.trace]
               or time.monotonic() - start + statistics.median(durations) <= args.seconds):
            remaining = DEADLINE_S - (time.monotonic() - begin)
            if remaining < 5:
                break
            traced = bool(args.trace) and len(records) % 2 == 1
            child_start = time.monotonic()
            records.append(run_child(args.workload, args.seed, traced,
                                     work_dir / str(len(records)), remaining))
            durations.append(time.monotonic() - child_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, attempted, failed, problems = aggregate(records, bool(args.trace))
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not metrics or any(m["name"] not in metrics for m in names):
        print("error: no child completed; no metrics to report", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  children {len(records)}  "
          f"trace {args.trace}")
    if not args.trace:
        print(f"  call latency samples: {metrics['calls']}")
        print(f"  reference slice: median {metrics['slice_s']!r} s, nominal {reference.NOMINAL_S!r} s; "
              f"unscaled wall_s {metrics['raw_wall_s']!r} s")
    else:
        print(f"  largest leaf span: {spans.dominant_leaf(metrics)}")
        if metrics["trace.missing_seams"]:
            print(f"  seams not found (reported as null): {metrics['trace.missing_seams']}")
    out = {}
    for m in names:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<42} {metrics[m['name']]!r} {m['unit']}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted!r}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
