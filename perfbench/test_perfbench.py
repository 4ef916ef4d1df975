"""Self-tests of the benchmark.

    python3 -m pytest perfbench

Tracing changes no report byte and leaves no wrapper behind, a missing seam
reads as null, and a corrupted output counts as a failed operation.
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import child
import reference
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
EBMIX = child.import_ebmix()

TINY_SENSITIVITY = workloads.CoverageWorkload(
    "tiny_sensitivity", "run_block_sensitivity", "sensitivity_csv",
    process={"kind": "finite_markov",
             "params": {"P": [[0.9, 0.1], [0.2, 0.8]], "h": [0.0, 1.0]}},
    bounds=("phi_mixing", "tilde_phi_mixing", "mixing_agnostic"),
    n=500, replications=12, jobs=2, l_exponents=(0.4, 0.5),
)
TINY_COVERAGE = workloads.CoverageWorkload(
    "tiny_coverage", "run_coverage", "coverage_csv",
    process={"kind": "iid_bounded", "params": {"dist": "bernoulli", "p": 0.3}},
    bounds=("empirical_bernstein", "maurer_pontil_baseline"),
    n=50, replications=40, jobs=1,
)
TINY_BOUND = workloads.BoundCliWorkload("tiny_bound", n_values=400, calls=12, pinned={})


def seam_objects() -> dict:
    found = {}
    for mod_name, owner_name, attr, *_ in spans.SEAMS:
        owner = getattr(EBMIX, mod_name)
        if owner_name is not None:
            owner = vars(owner)[owner_name]
        found[(mod_name, owner_name, attr)] = vars(owner)[attr]
    return found


def test_traced_run_writes_the_same_bytes_and_restores_every_seam(tmp_path):
    before = seam_objects()
    for workload in (TINY_SENSITIVITY, TINY_COVERAGE, TINY_BOUND):
        state = workload.setup(EBMIX, 7, tmp_path)
        plain = child.run_once(EBMIX, workload, state, trace=False)
        traced = child.run_once(EBMIX, workload, state, trace=True,
                                spans_path=tmp_path / "spans.csv")
        assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
        assert traced["digest"] == plain["digest"]
        assert traced["missing_seams"] == []
        assert (tmp_path / "spans.csv").read_text().startswith("id,name,tag,start,end")
        assert seam_objects() == before
    layers = traced["layers"]
    assert layers["cli.read_values.calls"] >= TINY_BOUND.calls
    assert layers["processes.simulate_paths.calls"] == 0


def test_speed_sampling_changes_no_byte_and_is_taken_out_of_the_timings(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    state = TINY_BOUND.setup(EBMIX, 7, tmp_path)
    plain = child.run_once(EBMIX, TINY_BOUND, state, trace=False)
    sampler = reference.Sampler(0.002)
    sampled = child.run_once(EBMIX, TINY_BOUND, state, trace=False, sampler=sampler)
    assert sampled["failed"] == 0 and sampled["digest"] == plain["digest"]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples and sampler.slice_s() > 0
    # Every slice began inside the run, so the run's time excludes them all.
    start, end = sampled["span"]
    assert sampler.paused(-float("inf"), float("inf")) == sampler.paused(start, end)
    assert 0 < sampled["wall_s"] == end - start - sampler.paused(start, end)


def test_layer_metrics_follow_the_spans(tmp_path):
    state = TINY_SENSITIVITY.setup(EBMIX, 3, tmp_path)
    layers = child.run_once(EBMIX, TINY_SENSITIVITY, state, trace=True)["layers"]
    assert layers["processes.seed.calls"] == TINY_SENSITIVITY.replications
    assert layers["processes.simulate_paths.values"] == 12 * 500
    assert layers["harness.plan.calls"] == 6
    assert layers["harness.evaluate.calls"] == 6
    assert layers["processes.markov_phi_budget.calls"] >= 6
    assert abs(layers["processes.draw_s"] - (layers["processes.simulate_paths.s"]
               - layers["processes.seed.s"] - layers["processes.transform.s"])) < 1e-12
    assert layers["harness.evaluate.phi_mixing.s"] > 0
    assert layers["harness.evaluate.empirical_bernstein.s"] == 0


def test_missing_seam_reads_null_and_others_still_trace():
    processes = SimpleNamespace(**{k: v for k, v in vars(EBMIX.processes).items()
                                   if k != "_generator"})
    modules = dict(vars(EBMIX), processes=processes)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        processes.simulate_paths(EBMIX.processes.iid_bernoulli(0.5), 10, 1, range(3))
    finally:
        assert tracer.uninstall() == []
    metrics = spans.layer_metrics(tracer, 1)
    assert tracer.missing == ["processes.seed"]
    assert metrics["processes.seed.s"] is None
    assert metrics["processes.draw_s"] is None
    assert metrics["processes.simulate_paths.calls"] == 1


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ["parent", None, 0.0, 10.0, -1, 1],
        ["a", None, 1.0, 4.0, 0, 1],
        ["b", None, 3.0, 6.0, 0, 2],  # overlaps a, from another thread
        ["c", None, 9.0, 12.0, 0, 2],  # runs past the parent's end
    ]
    assert spans.self_times(spans_) == [4.0, 3.0, 3.0, 3.0]


def test_corrupted_coverage_output_is_a_failure(tmp_path):
    state = TINY_COVERAGE.setup(EBMIX, 5, tmp_path)
    out = TINY_COVERAGE.run(EBMIX, state)
    assert TINY_COVERAGE.check(state, out)[:2] == ([], 0)
    header, first, rest = out["csv_text"].split("\n", 2)
    fields = first.split(",")
    fields[10] = "nan"  # mean_radius
    out["csv_text"] = "\n".join((header, ",".join(fields), rest))
    problems, failed, _ = TINY_COVERAGE.check(state, out)
    assert failed == 1
    assert any("non-finite" in p for p in problems)


def test_pinned_digest_catches_changed_bytes_at_the_default_seed(tmp_path):
    workload = workloads.WORKLOADS["ar1_long_paths"]
    state = {"seed": workloads.DEFAULT_SEED}
    out = {"csv_text": "process\n", "json_text": '{"rows": []}', "csv_path": tmp_path / "c",
           "json_path": tmp_path / "j"}
    out["csv_path"].write_text(out["csv_text"])
    out["json_path"].write_text(out["json_text"])
    problems, failed, _ = workload.check(state, out)
    assert failed == 1
    assert any("pinned" in p for p in problems)


def test_bound_cli_matches_its_pins_and_counts_a_corrupted_call(tmp_path):
    workload = copy.copy(workloads.WORKLOADS["bound_cli"])
    workload.calls = 6
    state = workload.setup(EBMIX, workloads.DEFAULT_SEED, tmp_path)
    out = workload.run(EBMIX, state)
    assert workload.check(state, out)[:2] == ([], 0)
    method, code, stdout, stderr = out["outputs"][2]
    payload = json.loads(stdout)
    payload["radius"] *= 1.0 + 1e-12
    out["outputs"][2] = (method, code, json.dumps(payload), stderr)
    problems, failed, _ = workload.check(state, out)
    assert failed == 1
    assert "pinned" in problems[0]


def record(digest, failed=0, speed=1.0):
    """A child record from a machine running at ``speed`` times nominal."""
    return {"attempted": 1, "failed": failed, "problems": [], "digest": digest, "traced": False,
            "setup_s": 0.2 / speed, "wall_s": 1.0 / speed, "values": 10, "peak_rss_mb": 50.0,
            "calls_ms": [1000.0 / speed], "slice_s": reference.NOMINAL_S / speed}


def test_aggregate_counts_a_child_whose_bytes_differ():
    metrics, attempted, failed, problems = run.aggregate(
        [record("a"), record("a"), record("b")], trace=False)
    assert (attempted, failed) == (3, 1)
    assert problems
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert names <= set(metrics)


def test_timings_are_scaled_to_the_reference_speed():
    metrics = run.aggregate([record("a", speed=0.5), record("a", speed=2.0), record("a")],
                            trace=False)[0]
    for name, value in (("setup_s", 0.2), ("wall_s", 1.0), ("ns_per_value", 1e8),
                        ("call_p50_ms", 1000.0), ("call_p95_ms", 1000.0)):
        assert abs(metrics[name] - value) < 1e-9 * value, name
    assert metrics["raw_wall_s"] == 1.0


def test_per_layer_names_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics(spans.Tracer(), 1)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
