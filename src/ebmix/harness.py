"""Monte Carlo experiment engine: coverage, sharpness, block-length
sensitivity, and method-comparison tables.

Replication ``i`` of every experiment draws from the substream keyed by
``(master_seed, i)``, so reports are byte-identical for a given config and
seed, whether chunks run serially or in parallel.  Coverage is always
measured two-sided against the process's marginal mean.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import core_bounds, mixing_bounds, processes
from .blocking import block_partition
from .errors import ConfigError, DomainError, PreconditionError

BOUNDS = (
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

# Accepted shorthands; resolved once when a config is parsed.
BOUND_ALIASES = {
    "eb": "empirical_bernstein",
    "eb_corollary1": "empirical_bernstein",
    "phi": "phi_mixing",
    "phi_thm2": "phi_mixing",
    "tilde_phi": "tilde_phi_mixing",
    "tilde_phi_thm3": "tilde_phi_mixing",
    "agnostic": "mixing_agnostic",
    "agnostic_thm4": "mixing_agnostic",
    "maurer_pontil": "maurer_pontil_baseline",
}

_BLOCK_BOUNDS = ("phi_mixing", "tilde_phi_mixing", "mixing_agnostic")
_LONGRUN_BOUNDS = _BLOCK_BOUNDS + ("dedecker_baseline",)

# Rows per simulation chunk are capped so a chunk holds ~8M values.
_CHUNK_VALUES = 1 << 23


def resolve_bound(name: str) -> str:
    canonical = BOUND_ALIASES.get(name, name)
    if canonical not in BOUNDS:
        raise ConfigError(f"field 'bounds': unknown bound {name!r}; known: {sorted(BOUNDS)}")
    return canonical


class _Policy:
    """JSON round trip of the policy dataclasses below.  A missing key takes
    the field's default; ``_FIELD`` and ``_EXPECTED`` word the error for a
    value that is not an object."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"field {cls._FIELD!r}: expected {cls._EXPECTED}")
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls) if f.name in d})


@dataclass(frozen=True)
class LPolicy(_Policy):
    """Block-length rule: either l = n**value or a fixed l = value."""

    _FIELD = "l_policy"
    _EXPECTED = "an object with 'kind' and 'value'"

    kind: str = "exponent"
    value: float = 0.4

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.kind not in ("exponent", "fixed"):
            raise ConfigError(f"field 'l_policy.kind': must be 'exponent' or 'fixed', got {self.kind!r}")
        if self.kind == "exponent" and not (0.0 < self.value < 1.0):
            raise ConfigError(f"field 'l_policy.value': exponent must lie in (0, 1), got {self.value!r}")
        if self.kind == "fixed" and self.value < 1:
            raise ConfigError(f"field 'l_policy.value': fixed l must be >= 1, got {self.value!r}")

    def block_length(self, n: int) -> float:
        return float(n) ** self.value if self.kind == "exponent" else float(self.value)

    def label(self) -> str:
        return f"n^{self.value:g}" if self.kind == "exponent" else f"l={self.value:g}"


@dataclass(frozen=True)
class XiPolicy(_Policy):
    """Vanishing-sequence rule xi_n = scale * n**power."""

    _FIELD = "xi"
    _EXPECTED = "an object with 'scale' and 'power'"

    scale: float = 1.0
    power: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "power", float(self.power))
        if self.scale <= 0:
            raise ConfigError(f"field 'xi.scale': must be > 0, got {self.scale!r}")
        if self.power >= 0:
            raise ConfigError(f"field 'xi.power': must be < 0 so xi_n vanishes, got {self.power!r}")

    def evaluate(self, n):
        return self.scale * np.asarray(n, dtype=float) ** self.power

    def label(self) -> str:
        return f"{self.scale:g}*n^{self.power:g}"


@dataclass(frozen=True)
class KnobPolicy(_Policy):
    """Rules for the agnostic-bound knobs, evaluated at each n.

    ``c_mode='remainder'`` sets c_n to the almost-sure bound
    ``remainder_size * range_width / n`` (zero when the blocks tile n).
    """

    _FIELD = "knobs"
    _EXPECTED = "an object"

    t_scale: float = 1.0
    t_power: float = -0.45
    s_scale: float = 1.0
    s_power: float = -0.45
    c_mode: str = "remainder"
    c_value: float = 0.0

    def __post_init__(self):
        for name in ("t_scale", "t_power", "s_scale", "s_power", "c_value"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.c_mode not in ("remainder", "fixed"):
            raise ConfigError(f"field 'knobs.c_mode': must be 'remainder' or 'fixed', got {self.c_mode!r}")

    def evaluate(self, n: int, remainder_size: int, range_width: float) -> mixing_bounds.AgnosticKnobs:
        if self.c_mode == "remainder":
            c_n = remainder_size * range_width / n
        else:
            c_n = self.c_value
        return mixing_bounds.AgnosticKnobs(
            c_n=c_n,
            t_n=self.t_scale * float(n) ** self.t_power,
            s_n=self.s_scale * float(n) ** self.s_power,
        )


_DEFAULT_XI = {"eb_ignore_linear": XiPolicy(1.0, -0.25)}
_MIXING_XI = XiPolicy(1.0, -1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte."""

    process: processes.ProcessSpec
    bounds: tuple[str, ...]
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    delta: float | None = None
    alpha: float | None = None
    l_policy: LPolicy = LPolicy()
    l_policies: tuple[LPolicy, ...] | None = None
    xi: XiPolicy | None = None
    knobs: KnobPolicy = KnobPolicy()
    eta: float = 0.5

    def __post_init__(self):
        if not self.bounds:
            raise ConfigError("field 'bounds': at least one bound is required")
        object.__setattr__(self, "bounds", tuple(resolve_bound(b) for b in self.bounds))
        if not self.n_grid:
            raise ConfigError("field 'n_grid': must be nonempty")
        if any(n != int(n) or int(n) < 1 for n in self.n_grid):
            raise ConfigError(f"field 'n_grid': entries must be positive integers, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.replications < 1:
            raise ConfigError(f"field 'replications': must be >= 1, got {self.replications!r}")
        if self.master_seed < 0:
            raise ConfigError(f"field 'master_seed': must be a nonnegative integer, got {self.master_seed!r}")
        if (self.delta is None) == (self.alpha is None):
            raise ConfigError("exactly one of 'delta' and 'alpha' must be set")
        level = self.delta if self.delta is not None else self.alpha
        if not (0.0 < level < 1.0):
            name = "delta" if self.delta is not None else "alpha"
            raise ConfigError(f"field '{name}': must lie in (0, 1), got {level!r}")
        if not (0.0 < self.eta < 1.0):
            raise ConfigError(f"field 'eta': must lie in (0, 1), got {self.eta!r}")

    @property
    def delta_eff(self) -> float:
        return self.delta if self.delta is not None else 2.0 * self.alpha / 3.0

    @property
    def alpha_eff(self) -> float:
        return self.alpha if self.alpha is not None else 1.5 * self.delta

    def xi_for(self, bound: str) -> XiPolicy:
        if self.xi is not None:
            return self.xi
        return _DEFAULT_XI.get(bound, _MIXING_XI)

    def to_dict(self) -> dict:
        return {
            "process": self.process.to_dict(),
            "bounds": list(self.bounds),
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "delta": self.delta,
            "alpha": self.alpha,
            "l_policy": self.l_policy.to_dict(),
            "l_policies": [p.to_dict() for p in self.l_policies] if self.l_policies else None,
            "xi": self.xi.to_dict() if self.xi else None,
            "knobs": self.knobs.to_dict(),
            "eta": self.eta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "process", "bounds", "bound", "n_grid", "replications", "master_seed",
            "delta", "alpha", "l_policy", "l_policies", "xi", "knobs", "eta",
        }
        for key in d:
            if key not in known:
                raise ConfigError(f"field {key!r}: unknown config field")
        for key in ("process", "n_grid", "replications", "master_seed"):
            if key not in d or d[key] is None:
                raise ConfigError(f"field {key!r}: required")
        bounds = d.get("bounds")
        if bounds is None:
            single = d.get("bound")
            if single is None:
                raise ConfigError("field 'bounds': required (a name or list of names)")
            bounds = [single] if isinstance(single, str) else list(single)
        elif isinstance(bounds, str):
            bounds = [bounds]
        return cls(
            process=processes.ProcessSpec.from_dict(d["process"]),
            bounds=tuple(bounds),
            n_grid=tuple(d["n_grid"]),
            replications=int(d["replications"]),
            master_seed=int(d["master_seed"]),
            delta=None if d.get("delta") is None else float(d["delta"]),
            alpha=None if d.get("alpha") is None else float(d["alpha"]),
            l_policy=LPolicy.from_dict(d["l_policy"]) if d.get("l_policy") else LPolicy(),
            l_policies=(
                tuple(LPolicy.from_dict(p) for p in d["l_policies"]) if d.get("l_policies") else None
            ),
            xi=XiPolicy.from_dict(d["xi"]) if d.get("xi") else None,
            knobs=KnobPolicy.from_dict(d["knobs"]) if d.get("knobs") else KnobPolicy(),
            eta=float(d.get("eta", 0.5)),
        )


@dataclass(frozen=True)
class CellResult:
    """One (n, bound, block policy) cell of a report."""

    process: str
    bound: str
    n: int
    delta: float
    alpha: float
    level: float | None
    replications: int
    covered: int | None
    empirical_coverage: float | None
    mc_se: float | None
    mean_radius: float | None
    median_radius: float | None
    sharpness_ratio: float | None
    sharpness_limit: float | None
    sigma_ref: float | None
    sigma_ref_source: str
    l_policy: str
    block_len: int | None
    blocks: int | None
    remainder: int | None
    mean_vhat: float | None
    error_total: float | None
    penalty: float | None
    burn_in_n: int | None
    master_seed: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CoverageReport:
    config: ExperimentConfig
    rows: tuple[CellResult, ...]


def bound_requirements(bound: str, spec: processes.ProcessSpec, n: int) -> list[str]:
    """Unmet requirements of `bound` on `spec` (empty list means compatible)."""
    truth = processes.ground_truth(spec)
    unmet = []
    if bound == "freedman_oracle" and spec.kind not in ("iid_bounded", "hetero_mds"):
        unmet.append("an IID or bounded martingale-difference process (oracle variance)")
    if bound == "mds_empirical" and truth.mu != 0.0:
        unmet.append("a zero-mean martingale-difference process")
    if bound == "empirical_bernstein" and spec.kind not in ("iid_bounded", "hetero_mds"):
        unmet.append("constant conditional mean (IID or bounded MDS data)")
    if bound == "eb_ignore_linear":
        if spec.kind != "iid_bounded":
            unmet.append("IID data (the penalty analysis is IID-only)")
        elif truth.sigma2_marginal <= 0:
            unmet.append("a non-degenerate variable (sigma2 > 0)")
    if bound == "phi_mixing" and processes.mixing_budget_for(spec, "phi", n) is None:
        unmet.append("phi budget required: the process provides no uniform-mixing bound")
    if bound in ("tilde_phi_mixing", "dedecker_baseline"):
        budget = processes.mixing_budget_for(spec, "phi_tilde", n)
        if budget is None:
            unmet.append("a conditional-CDF (phi_tilde) mixing budget")
        elif bound == "dedecker_baseline" and budget.phi_sum <= 0:
            unmet.append("a strictly positive phi_tilde budget")
    if bound == "maurer_pontil_baseline":
        if truth.b_range != (0.0, 1.0):
            unmet.append("[0,1]-valued data")
        if n < 2:
            unmet.append("n >= 2")
    return unmet


def validate_config(config: ExperimentConfig) -> None:
    n_ref = max(config.n_grid)
    for bound in config.bounds:
        unmet = bound_requirements(bound, config.process, n_ref)
        if unmet:
            raise ConfigError(
                f"bound {bound!r} is incompatible with process "
                f"{config.process.label()!r}; requires: " + "; ".join(unmet)
            )


class _FlaggedCell(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.message = message


class _CellPlan:
    """Deterministic per-cell context: the library's cell terms, computed
    once, and a vectorized radius evaluator."""

    def __init__(self, config: ExperimentConfig, bound: str, n: int, l_policy: LPolicy):
        self.bound = bound
        self.n = n
        self.l_policy = l_policy
        self.truth = processes.ground_truth(config.process)
        self.delta = config.delta_eff
        self.alpha = config.alpha_eff
        self.log_term = math.log(1.0 / self.delta)
        self.level: float | None = 1.0 - 3.0 * self.delta
        self.flags: list[str] = []
        self.block_len = self.blocks = self.remainder = None
        self.error_total = self.penalty = self.burn_in_n = None
        self.uses_blocks = bound in _BLOCK_BOUNDS
        if self.level <= 0.0:
            self.flags.append("vacuous_level")
        self._prepare(config)

    def _prepare(self, config):
        truth, n, bound, delta = self.truth, self.n, self.bound, self.delta
        if bound == "freedman_oracle":
            self.scalar_radius = core_bounds.freedman_radius(
                n, truth.sigma2_marginal, truth.b_centered, self.alpha
            )
            self.level = 1.0 - 2.0 * self.alpha
        elif bound == "mds_empirical":
            self.b = truth.b_abs
        elif bound == "empirical_bernstein":
            self._use_terms(core_bounds.eb_terms(n, truth.b_abs, delta))
        elif bound == "eb_ignore_linear":
            self.nu = core_bounds.inflation_factor(n, delta)
            xi_policy = config.xi_for(bound)
            self.xi_n = float(xi_policy.evaluate(n))
            if truth.m4 is not None and truth.sigma2_marginal > 0:
                self.penalty = core_bounds.ignorance_penalty(
                    n, truth.sigma2_marginal, truth.m4, truth.b_abs, config.eta
                )
                self.burn_in_n = core_bounds.burn_in_power_law(
                    delta, config.eta, truth.sigma2_marginal, truth.b_abs,
                    xi_policy.scale, xi_policy.power,
                )
                if self.burn_in_n is None or n < self.burn_in_n:
                    self.flags.append("below_burn_in")
            else:
                self.flags.append("penalty_unavailable")
        elif bound == "maurer_pontil_baseline":
            self.mp_log_term = core_bounds.maurer_pontil_log_term(n, self.alpha)
            self.level = 1.0 - 2.0 * self.alpha
        elif bound == "dedecker_baseline":
            budget = processes.mixing_budget_for(config.process, "phi_tilde", n)
            eps = 3.0 * delta
            if eps >= 1.0:
                raise PreconditionError("total miss probability 3*delta >= 1")
            self.scalar_radius = mixing_bounds.dedecker_prieur_radius(
                n, budget.tv_norm, budget.phi_sum, eps
            )
        elif bound in _BLOCK_BOUNDS:
            self.partition = partition = block_partition(n, self.l_policy.block_length(n))
            self.block_len, self.blocks = partition.floor_l, partition.m
            self.remainder = partition.remainder_size
            rw = truth.range_width
            if bound == "mixing_agnostic":
                knobs = config.knobs.evaluate(n, partition.remainder_size, rw)
                self._use_terms(mixing_bounds.agnostic_terms(partition, rw, knobs, delta))
                budget = processes.mixing_budget_for(config.process, "phi_tilde", n)
                if budget is None:
                    errors = None
                elif budget.phi_sum == 0.0:
                    errors = mixing_bounds.ErrorBudget(0.0, 0.0, 0.0)
                else:
                    errors = mixing_bounds.agnostic_error_budget(
                        n, partition, knobs, budget.tv_norm * budget.phi_sum
                    )
                if errors is not None:
                    self.error_total = errors.total
                self.level, flags = mixing_bounds.agnostic_level(delta, errors)
                self.flags.extend(flags)
            else:
                regime = "phi" if bound == "phi_mixing" else "phi_tilde"
                budget = processes.mixing_budget_for(config.process, regime, n)
                xi_n = float(config.xi_for(bound).evaluate(n))
                self._use_terms(mixing_bounds.mixing_terms(partition, rw, budget, delta, xi_n))
        else:  # pragma: no cover - resolve_bound guards this
            raise ConfigError(f"unknown bound {self.bound!r}")

    def _use_terms(self, terms: dict):
        """Pre-sum the cell terms for the row rule
        ``inflation * (leading + A + B) + remainder``: A adds the terms
        before ``linear``, B the terms from ``linear`` on."""
        keys = [k for k in terms if k not in ("inflation", "remainder")]
        split = keys.index("linear")
        self.inflation = terms["inflation"]
        self.sqrt_terms = sum(terms[k] for k in keys[:split])
        self.linear_terms = sum(terms[k] for k in keys[split:])
        self.rem_term = terms.get("remainder", 0.0)

    def evaluate(self, vals: np.ndarray, means: np.ndarray):
        """Per-replication radii (and block variances where applicable)."""
        bound, n = self.bound, self.n
        vhat = None
        if bound in ("freedman_oracle", "dedecker_baseline"):
            return np.full(vals.shape[0], self.scalar_radius), None
        if bound == "mds_empirical":
            qv = np.einsum("ij,ij->i", vals, vals)
            return core_bounds.mds_empirical_radius(qv, self.b, self.log_term) / n, None
        if bound == "eb_ignore_linear":
            css = _row_css(vals, means)
            return core_bounds.ignore_linear_rows(css, n, self.log_term, self.nu, self.xi_n), None
        if bound == "maurer_pontil_baseline":
            var_u = _row_css(vals, means) / (n - 1)
            return core_bounds.maurer_pontil_rows(var_u, n, self.mp_log_term), None
        if bound == "empirical_bernstein":
            leading = core_bounds.eb_leading(_row_css(vals, means), n, self.log_term)
        else:  # block bounds
            p = self.partition
            m, fl = p.m, p.floor_l
            head = vals[:, : m * fl].reshape(vals.shape[0], m, fl)
            block_sums = head.sum(axis=2)
            h_bar = block_sums.sum(axis=1) / (m * fl)
            centered = block_sums - fl * h_bar[:, None]
            vhat = np.einsum("ij,ij->i", centered, centered) / n
            leading = mixing_bounds.block_leading(vhat, n, self.log_term)
        radii = self.inflation * (leading + self.sqrt_terms + self.linear_terms) + self.rem_term
        return radii, vhat


def _row_css(vals, means):
    d = vals - means[:, None]
    return np.einsum("ij,ij->i", d, d)


def _chunk_edges(replications: int, n: int) -> list[tuple[int, int]]:
    """The fewest chunks of at most ~8M values, their sizes differing by at most one."""
    cap = max(1, min(replications, _CHUNK_VALUES // max(1, n)))
    k = -(-replications // cap)
    return [(i * replications // k, (i + 1) * replications // k) for i in range(k)]


def run_cells(config: ExperimentConfig, n_jobs: int = 1) -> tuple[CellResult, ...]:
    """Evaluate every (n, bound, l_policy) cell of the config.

    Simulated paths are shared by all bounds at a given n, so comparison
    tables are paired across bounds by construction.
    """
    validate_config(config)
    l_policies = config.l_policies if config.l_policies else (config.l_policy,)
    results = []
    for n in config.n_grid:
        plans: dict[tuple, _CellPlan | _FlaggedCell] = {}
        for lp in l_policies:
            for bound in config.bounds:
                if bound not in _BLOCK_BOUNDS and lp is not l_policies[0]:
                    continue  # non-block bounds do not depend on the l policy
                key = (bound, lp)
                try:
                    plans[key] = _CellPlan(config, bound, n, lp)
                except (PreconditionError, DomainError) as exc:
                    plans[key] = _FlaggedCell(f"precondition: {exc}")
        live = {k: p for k, p in plans.items() if isinstance(p, _CellPlan)}
        r = config.replications
        radii = {k: np.empty(r) for k in live}
        covered = {k: np.empty(r, dtype=bool) for k in live}
        vhats = {k: np.empty(r) for k, p in live.items() if p.uses_blocks}
        mu = processes.ground_truth(config.process).mu

        def work(chunk):
            lo, hi = chunk
            vals = processes.simulate_paths(config.process, n, config.master_seed, range(lo, hi))
            means = vals.mean(axis=1)
            for key, plan in live.items():
                rad, vh = plan.evaluate(vals, means)
                radii[key][lo:hi] = rad
                covered[key][lo:hi] = np.abs(means - mu) <= rad
                if vh is not None:
                    vhats[key][lo:hi] = vh

        chunks = _chunk_edges(r, n) if live else []
        if n_jobs > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                list(pool.map(work, chunks))
        else:
            for chunk in chunks:
                work(chunk)

        for lp in l_policies:
            for bound in config.bounds:
                key = (bound, lp)
                if key not in plans:
                    continue
                plan = plans[key]
                if isinstance(plan, _FlaggedCell):
                    results.append(_flagged_result(config, bound, n, lp, plan.message))
                    continue
                results.append(_finish_cell(config, plan, radii[key], covered[key], vhats.get(key)))
    return tuple(results)


def _flagged_result(config, bound, n, lp, message) -> CellResult:
    return CellResult(
        process=config.process.label(),
        bound=bound,
        n=n,
        delta=config.delta_eff,
        alpha=config.alpha_eff,
        level=None,
        replications=config.replications,
        covered=None,
        empirical_coverage=None,
        mc_se=None,
        mean_radius=None,
        median_radius=None,
        sharpness_ratio=None,
        sharpness_limit=None,
        sigma_ref=None,
        sigma_ref_source="n/a",
        l_policy=lp.label(),
        block_len=None,
        blocks=None,
        remainder=None,
        mean_vhat=None,
        error_total=None,
        penalty=None,
        burn_in_n=None,
        master_seed=config.master_seed,
        flags=(message,),
    )


def _sharpness_limit(bound: str, delta: float, alpha: float) -> float | None:
    log_a = math.log(1.0 / alpha)
    if bound == "freedman_oracle":
        return 1.0
    if bound == "maurer_pontil_baseline":
        return math.sqrt(math.log(2.0 / alpha) / log_a)
    if bound == "dedecker_baseline":
        return None
    return math.sqrt(math.log(1.0 / delta) / log_a)


def _finish_cell(config, plan: _CellPlan, radii, covered, vhat) -> CellResult:
    truth = plan.truth
    n, bound = plan.n, plan.bound
    r = config.replications
    n_covered = int(np.count_nonzero(covered))
    p_hat = n_covered / r
    mc_se = math.sqrt(p_hat * (1.0 - p_hat) / r)
    mean_radius = float(np.mean(radii))
    if bound in _LONGRUN_BOUNDS and truth.sigma2_longrun is not None:
        sigma_ref, source = math.sqrt(truth.sigma2_longrun), "long_run"
    elif bound in _LONGRUN_BOUNDS:
        sigma_ref, source = math.sqrt(truth.sigma2_marginal), "marginal (long-run unavailable)"
    else:
        sigma_ref, source = math.sqrt(truth.sigma2_marginal), "marginal"
    if sigma_ref > 0:
        log_alpha = math.log(1.0 / plan.alpha)
        sharpness = math.sqrt(n) * mean_radius / (sigma_ref * math.sqrt(2.0 * log_alpha))
    else:
        sharpness = None
    return CellResult(
        process=config.process.label(),
        bound=bound,
        n=n,
        delta=plan.delta,
        alpha=plan.alpha,
        level=plan.level,
        replications=r,
        covered=n_covered,
        empirical_coverage=p_hat,
        mc_se=mc_se,
        mean_radius=mean_radius,
        median_radius=float(np.median(radii)),
        sharpness_ratio=sharpness,
        sharpness_limit=_sharpness_limit(bound, plan.delta, plan.alpha),
        sigma_ref=sigma_ref,
        sigma_ref_source=source,
        l_policy=plan.l_policy.label(),
        block_len=plan.block_len,
        blocks=plan.blocks,
        remainder=plan.remainder,
        mean_vhat=float(np.mean(vhat)) if vhat is not None else None,
        error_total=plan.error_total,
        penalty=plan.penalty,
        burn_in_n=plan.burn_in_n,
        master_seed=config.master_seed,
        flags=tuple(plan.flags),
    )


def run_coverage(config: ExperimentConfig, n_jobs: int = 1) -> CoverageReport:
    """Empirical two-sided coverage of each configured bound against the
    marginal mean, one row per (n, bound) cell."""
    return CoverageReport(config=config, rows=run_cells(config, n_jobs=n_jobs))


def run_sharpness_sweep(config: ExperimentConfig, n_jobs: int = 1) -> CoverageReport:
    """Coverage report over an increasing n grid; the sharpness_ratio column
    tracks sqrt(n) * mean_radius / (sigma_ref * sqrt(2 log(1/alpha)))."""
    if len(config.n_grid) < 2:
        raise ConfigError("field 'n_grid': a sharpness sweep needs at least two n values")
    if list(config.n_grid) != sorted(config.n_grid):
        raise ConfigError("field 'n_grid': must be increasing for a sweep")
    return CoverageReport(config=config, rows=run_cells(config, n_jobs=n_jobs))


def run_block_sensitivity(config: ExperimentConfig, n_jobs: int = 1) -> CoverageReport:
    """Mean block variance and mean radius per block-length policy."""
    if not config.l_policies or len(config.l_policies) < 2:
        raise ConfigError("field 'l_policies': block sensitivity needs at least two policies")
    if not any(b in _BLOCK_BOUNDS for b in config.bounds):
        raise ConfigError("field 'bounds': block sensitivity needs a block-based bound")
    return CoverageReport(config=config, rows=run_cells(config, n_jobs=n_jobs))
