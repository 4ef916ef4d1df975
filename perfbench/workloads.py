"""The benchmark's workloads: input generation from a seed, one run through
the public entry points, and the output checks.

Each workload is run in a fresh child process (see ``child.py``).  The seed
reaches the program only through the generated config or data file.

Why each workload was chosen, and the layer it loads and bypasses:

* ``iid_short_paths`` -- coverage, iid Bernoulli(0.3), n=200, 7 compatible
  bounds, jobs=1.  Per-replication ``SeedSequence`` + ``Philox`` set-up is
  most of the run and the path transform a few per cent, so it loads
  ``processes`` seeding and radius evaluation and bypasses the transform
  loop.  It is also the plain single-threaded baseline.
* ``ar1_long_paths`` -- coverage, ``bernoulli_ar1``, n=200 000, R=16, three
  long-run bounds, jobs=1.  The per-timestep Python loop of the transform is
  nearly all of the run while seeding and evaluation are each under 1 %, so
  it loads the transform and bypasses seeding and evaluation.
* ``markov_slow_sensitivity`` -- block sensitivity, a slowly mixing
  3-state chain (0.9 on the diagonal), 4 block-length exponents x 3 block
  bounds, jobs=2.  Twelve cells share one set of paths, two chunks run on
  two threads, and ``markov_phi_budget`` never reaches its cut-off on this
  chain, so it loads the mixing budget and the thread pool.
* ``bound_cli`` -- closed loop, one caller, cycling ``ebmix bound`` in
  process over six methods on a fixed ``bernoulli_ar1`` data file.  It loads
  ``cli`` (``read_values`` dominates) and the scalar library, and bypasses
  ``processes`` and ``harness`` entirely.

Sizes are scaled so one run of a coverage workload takes a few seconds on a
2-core x86-64 machine; the sensitivity workload keeps n * R above the
harness's 2**23-value chunk size so that both threads get a chunk.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

_ALPHA = 0.05


class CoverageWorkload:
    """A coverage or sensitivity experiment rendered and written as CSV + JSON."""

    def __init__(self, name, runner, csv_renderer, process, bounds, n, replications,
                 jobs, l_exponents=None, pinned_csv_sha256=None):
        self.name = name
        # Names, looked up on the module at each call so traced wrappers apply.
        self.runner = runner  # in ebmix.harness
        self.csv_renderer = csv_renderer  # in ebmix.reporting
        self.process = process
        self.bounds = tuple(bounds)
        self.n = n
        self.replications = replications
        self.jobs = jobs
        self.l_exponents = l_exponents
        self.pinned_csv_sha256 = pinned_csv_sha256

    @property
    def expected_rows(self) -> int:
        return len(self.bounds) * (len(self.l_exponents) if self.l_exponents else 1)

    def config_dict(self, seed: int) -> dict:
        cfg = {
            "process": self.process,
            "bounds": list(self.bounds),
            "n_grid": [self.n],
            "replications": self.replications,
            "master_seed": seed,
            "alpha": _ALPHA,
        }
        if self.l_exponents:
            cfg["l_policies"] = [{"kind": "exponent", "value": v} for v in self.l_exponents]
        return cfg

    def setup(self, ebmix, seed: int, work_dir: Path) -> dict:
        config = ebmix.harness.ExperimentConfig.from_dict(self.config_dict(seed))
        return {"config": config, "seed": seed, "work_dir": work_dir}

    def run(self, ebmix, state: dict) -> dict:
        harness, reporting = ebmix.harness, ebmix.reporting
        csv_path = state["work_dir"] / f"{self.name}.csv"
        json_path = state["work_dir"] / f"{self.name}.json"
        start = time.perf_counter()
        report = getattr(harness, self.runner)(state["config"], n_jobs=self.jobs)
        csv_text = getattr(reporting, self.csv_renderer)(report)
        json_text = reporting.report_json(report)
        reporting.atomic_write_text(csv_path, csv_text, force=True)
        reporting.atomic_write_text(json_path, json_text, force=True)
        span = (start, time.perf_counter())
        return {
            "span": span,
            "calls": [span],
            "values": self.replications * self.n,
            "attempted": 1,
            "csv_text": csv_text,
            "json_text": json_text,
            "csv_path": csv_path,
            "json_path": json_path,
        }

    def check(self, state: dict, out: dict) -> tuple[list[str], int, str]:
        """Return (problems, failed operations, digest of the outputs)."""
        problems = check_report(out["csv_text"], out["json_text"], self.expected_rows)
        if out["csv_path"].read_text(encoding="utf-8") != out["csv_text"]:
            problems.append("written CSV differs from the rendered report")
        if out["json_path"].read_text(encoding="utf-8") != out["json_text"]:
            problems.append("written JSON differs from the rendered report")
        digest = sha256(out["csv_text"])
        if state["seed"] == DEFAULT_SEED and digest != self.pinned_csv_sha256:
            problems.append(f"CSV sha256 {digest} differs from the pinned {self.pinned_csv_sha256}")
        return problems, 1 if problems else 0, sha256(out["csv_text"] + out["json_text"])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(csv_text: str, json_text: str, expected_rows: int) -> list[str]:
    """Structural checks that hold for any seed: row count, finite numbers,
    no flagged (failed) cell, and a JSON report with the same rows."""
    problems = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if len(rows) != expected_rows + 1:
        problems.append(f"CSV has {len(rows) - 1} rows, expected {expected_rows}")
    for row in rows[1:]:
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                problems.append(f"non-finite CSV field {field!r}")
        if any("precondition" in field for field in row):
            problems.append(f"flagged cell: {row}")
    try:
        payload = json.loads(json_text)
    except json.JSONDecodeError as exc:
        problems.append(f"JSON report does not parse: {exc}")
    else:
        if len(payload.get("rows", ())) != expected_rows:
            problems.append("JSON report row count differs from the CSV")
    return problems


def ar1_values(seed: int, n: int) -> np.ndarray:
    """Dyadic AR(1) path X_t = X_{t-1}/2 + eps_t/2 from the benchmark's own
    Philox stream, so the data file does not go through ``ebmix.processes``."""
    u = np.random.Generator(np.random.Philox(seed)).random(n)
    x = np.empty(n)
    x[0] = u[0]
    noise = 0.5 * (u < 0.5)
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + noise[t]
    return x


# ``ebmix bound`` argument lists cycled by the bound_cli workload.
_BOUND_METHODS = {
    "eb": ["--b", "1"],
    "eb_ignore_linear": ["--b", "1"],
    "mds_empirical": ["--b", "1"],
    "phi": ["--l", "50", "--range-width", "1", "--phi-sum", "1"],
    "tilde_phi": ["--l", "50", "--range-width", "1", "--phi-sum", "1", "--tv-norm", "1"],
    "agnostic": ["--l", "50", "--range-width", "1", "--phi-sum", "1", "--tv-norm", "1"],
}


class BoundCliWorkload:
    """Closed loop with one caller: ``ebmix bound`` in process, cycling over
    the methods, on one data file written at set-up."""

    def __init__(self, name, n_values, calls, pinned):
        self.name = name
        self.n_values = n_values
        self.calls = calls
        self.pinned = pinned  # method -> (center, radius, level) at DEFAULT_SEED
        self.jobs = 1

    def setup(self, ebmix, seed: int, work_dir: Path) -> dict:
        values = ar1_values(seed, self.n_values)
        data_path = work_dir / "bound_cli_data.txt"
        data_path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
        argvs = [
            (method, ["bound", "--method", method, "--data", str(data_path),
                      "--alpha", repr(_ALPHA), *extra])
            for method, extra in _BOUND_METHODS.items()
        ]
        return {"seed": seed, "argvs": argvs, "mean": float(np.mean(values)),
                "lo": float(values.min()), "hi": float(values.max())}

    def run(self, ebmix, state: dict) -> dict:
        cli = ebmix.cli
        argvs = state["argvs"]
        outputs, calls = [], []
        start = time.perf_counter()
        for i in range(self.calls):
            method, argv = argvs[i % len(argvs)]
            buf, err = io.StringIO(), io.StringIO()
            call_start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a raising call is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            calls.append((call_start, time.perf_counter()))
            outputs.append((method, code, buf.getvalue(), err.getvalue()))
        return {
            "span": (start, time.perf_counter()),
            "calls": calls,
            "values": self.calls * self.n_values,
            "attempted": self.calls,
            "outputs": outputs,
        }

    def check(self, state: dict, out: dict) -> tuple[list[str], int, str]:
        problems, failed, first = [], 0, {}
        for method, code, stdout, stderr in out["outputs"]:
            bad = self._check_call(state, method, code, stdout, stderr, first)
            if bad:
                failed += 1
                problems.append(f"{method}: {bad}")
        digest = sha256(json.dumps(sorted(first.items())))
        return problems[:10], failed, digest

    def _check_call(self, state, method, code, stdout, stderr, first) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        try:
            payload = json.loads(stdout)
            got = (payload["center"], payload["radius"], payload["level"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc})"
        if not all(isinstance(v, float) and math.isfinite(v) for v in got):
            return f"non-finite result {got}"
        center, radius, level = got
        if radius <= 0 or level >= 1 or not state["lo"] <= center <= state["hi"]:
            return f"implausible result {got}"
        if abs(center - state["mean"]) > 1e-12:
            return f"center {center!r} is not the sample mean {state['mean']!r}"
        if state["seed"] == DEFAULT_SEED and got != self.pinned[method]:
            return f"result {got} differs from the pinned {self.pinned[method]}"
        if first.setdefault(method, got) != got:
            return f"result {got} differs from an earlier call's {first[method]}"
        return None


_SLOW_CHAIN = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]

WORKLOADS = {
    w.name: w
    for w in (
        CoverageWorkload(
            "iid_short_paths", "run_coverage", "coverage_csv",
            process={"kind": "iid_bounded", "params": {"dist": "bernoulli", "p": 0.3}},
            bounds=("freedman_oracle", "empirical_bernstein", "eb_ignore_linear",
                    "phi_mixing", "tilde_phi_mixing", "mixing_agnostic",
                    "maurer_pontil_baseline"),
            n=200, replications=40_000, jobs=1,
            pinned_csv_sha256="8f265acdcf5854ca80646344b665ed02dcc345a0ae49cd2118f41d880283eb27",
        ),
        CoverageWorkload(
            "ar1_long_paths", "run_coverage", "coverage_csv",
            process={"kind": "bernoulli_ar1", "params": {}},
            bounds=("tilde_phi_mixing", "mixing_agnostic", "dedecker_baseline"),
            n=200_000, replications=16, jobs=1,
            pinned_csv_sha256="3f15e3992070e3e3c3cb8c058281aa19c2a2e260912a9ddd230a8a7856db7bb4",
        ),
        CoverageWorkload(
            "markov_slow_sensitivity", "run_block_sensitivity", "sensitivity_csv",
            process={"kind": "finite_markov", "params": {"P": _SLOW_CHAIN, "h": [0.0, 0.5, 1.0]}},
            bounds=("phi_mixing", "tilde_phi_mixing", "mixing_agnostic"),
            n=10_000, replications=850, jobs=2, l_exponents=(0.3, 0.4, 0.5, 0.6),
            pinned_csv_sha256="37bde7970c25a8d67909cab19d1630f3868ddda872d7856dcb1a189b03d4ab9a",
        ),
        BoundCliWorkload(
            "bound_cli", n_values=20_000, calls=60,
            pinned={
                "eb": (0.49942416522633026, 0.005953171489978376, 0.9),
                "eb_ignore_linear": (0.49942416522633026, 0.005862125767654082, 0.9),
                "mds_empirical": (0.4994241652263303, 0.011166106942414543, 0.9),
                "phi": (0.4994241652263303, 0.05377471099580035, 0.9),
                "tilde_phi": (0.4994241652263303, 0.04800107738609189, 0.9),
                "agnostic": (0.4994241652263303, 0.21912796079938873, 0.9),
            },
        ),
    )
}
