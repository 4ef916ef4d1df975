"""One fresh-process run of one workload; prints a JSON record on stdout.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --work-dir DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import ebmix`` and the
workload's set-up (config construction or writing the data file).
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Traced children leave their spans here; run.py removes only the
# per-run directories below it.
SPANS_DIR = ROOT / ".perfbench_work"
# Seconds between two slices of the reference kernel in an untraced run.
SAMPLE_INTERVAL_S = 0.05


def import_ebmix():
    """Import ``ebmix`` from this checkout's ``src``; fail if it is not there."""
    if not (SRC / "ebmix" / "__init__.py").is_file():
        raise SystemExit(f"no ebmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ebmix
    from ebmix import cli, core_bounds, harness, mixing_bounds, processes, reporting

    if Path(ebmix.__file__).resolve().parent != (SRC / "ebmix").resolve():
        raise SystemExit(f"imported ebmix from {ebmix.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli, core_bounds=core_bounds, harness=harness,
        mixing_bounds=mixing_bounds, processes=processes, reporting=reporting,
    )


def run_once(ebmix, workload, state: dict, trace: bool, spans_path=None,
             sampler=None) -> dict:
    """Run a set-up workload once, optionally traced or sampled for machine
    speed (see reference.Sampler), and check its outputs."""
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install(vars(ebmix))
    try:
        with sampler or contextlib.nullcontext():
            out = workload.run(ebmix, state)
    finally:
        not_restored = tracer.uninstall() if tracer else []
    paused = sampler.paused if sampler else (lambda start, end: 0.0)
    problems, failed, digest = workload.check(state, out)
    if not_restored:
        problems.append(f"wrappers left in place: {not_restored}")
        failed = max(failed, 1)
    record = {
        "span": out["span"],
        "wall_s": out["span"][1] - out["span"][0] - paused(*out["span"]),
        "calls_ms": [(end - start - paused(start, end)) * 1e3 for start, end in out["calls"]],
        "values": out["values"],
        "attempted": out["attempted"],
        "failed": failed,
        "problems": problems,
        "digest": digest,
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, workload.jobs)
        record["missing_seams"] = tracer.missing
        if spans_path is not None:
            tracer.write_csv(spans_path)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    ebmix = import_ebmix()
    workload = workloads.WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(ebmix, args.seed, work_dir)
    setup_s = time.monotonic() - args.t0
    spans_path = SPANS_DIR / f"spans-{args.workload}.csv" if args.trace else None
    # An untraced run samples the machine's speed as it goes (see reference.py).
    sampler = None if args.trace else reference.Sampler(SAMPLE_INTERVAL_S)
    record = run_once(ebmix, workload, state, bool(args.trace), spans_path, sampler)
    record["setup_s"] = setup_s
    if sampler is not None:
        record["slice_s"] = sampler.slice_s()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
