"""Monte Carlo experiment engine: coverage, sharpness, block-length
sensitivity, and method-comparison tables.

Replication ``i`` of every experiment draws from the substream keyed by
``(master_seed, i)``, so reports are byte-identical for a given config and
seed, whether chunks run serially or in parallel.  Coverage is always
measured two-sided against the process's marginal mean.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import core_bounds, mixing_bounds, processes
from .blocking import block_partition, row_sumsq, row_vhat
from .errors import (
    ConfigError, DomainError, PreconditionError, _check_count, _check_prob, _object,
)

_BLOCK_BOUNDS = ("phi_mixing", "tilde_phi_mixing", "mixing_agnostic")

# A run holds at most _CHUNK_VALUES simulated values at once (8 MB of
# float64) when its paths run through a recurrence, which wants 2^19 values
# in flight, and at most _ELEMENTWISE_CHUNK_VALUES (2 MB, about an L2 cache)
# when each value is made from its own uniform (processes.is_elementwise).
# The budget is split evenly over the run's threads: a chunk holds at most
# budget // n_jobs values, or one row if a row is longer.
_CHUNK_VALUES = 1 << 20
_ELEMENTWISE_CHUNK_VALUES = 1 << 18


def resolve_bound(name: str) -> str:
    canonical = BOUND_ALIASES.get(name, name) if isinstance(name, str) else name
    if canonical not in BOUNDS:
        raise ConfigError(f"field 'bounds': unknown bound {name!r}; known: {sorted(BOUNDS)}")
    return canonical


def _set_numbers(obj, prefix: str, *names) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a float, or
    raise a ConfigError naming the field (``prefix + name``) if it is not a
    finite number.  A string or a boolean is not a number."""
    for name in names:
        field, value = prefix + name, getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"field {field!r}: must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"field {field!r}: must be a finite number, got {value!r}")
        object.__setattr__(obj, name, float(value))


def _as_tuple(field: str, value) -> tuple:
    """``tuple(value)``, or a ConfigError naming the field."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"field {field!r}: must be a list, got {value!r}") from None


class _Policy:
    """JSON round trip of the policy dataclasses below.  A missing key takes
    the field's default; ``_FIELD`` names the config field in errors."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _floats(self, *names) -> None:
        _set_numbers(self, f"{self._FIELD}.", *names)

    @classmethod
    def from_dict(cls, d, field: str | None = None):
        """The policy of ``d``, read as the config field ``field`` (default
        ``_FIELD``), which every error names."""
        field = field or cls._FIELD
        try:
            return cls(**_object(cls, d, field))
        except ConfigError as exc:  # the checks name _FIELD, not an entry such as l_policies[1]
            raise ConfigError(str(exc).replace(f"'{cls._FIELD}.", f"'{field}.", 1)) from None


@dataclass(frozen=True)
class LPolicy(_Policy):
    """Block-length rule: either l = n**value or a fixed l = value."""

    _FIELD = "l_policy"

    kind: str = "exponent"
    value: float = 0.4

    def __post_init__(self):
        self._floats("value")
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

    scale: float = 1.0
    power: float = -1.0

    def __post_init__(self):
        self._floats("scale", "power")
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

    t_scale: float = 1.0
    t_power: float = -0.45
    s_scale: float = 1.0
    s_power: float = -0.45
    c_mode: str = "remainder"
    c_value: float = 0.0

    def __post_init__(self):
        self._floats("t_scale", "t_power", "s_scale", "s_power", "c_value")
        for name in ("t_scale", "s_scale", "c_value"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"field 'knobs.{name}': must be >= 0, got {value!r}")
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


def _as_count(field: str, value, minimum: int = 1) -> int:
    """``int(value)`` for a whole number of at least ``minimum`` (``7`` or
    ``7.0``, not ``7.5``, ``"7"`` or ``true``), or a ConfigError naming the field."""
    try:
        return _check_count(value, field, minimum)
    except DomainError:
        raise ConfigError(f"field {field!r}: must be an integer >= {minimum}, got {value!r}") from None


_PHI_TILDE_BUDGET = "a conditional-CDF (phi_tilde) mixing budget"


@dataclass(frozen=True)
class BoundRow:
    """A bound as the harness and ``ebmix bound`` read it: its --method, the
    misses its level ``1 - misses * delta`` pays for (``delta = 2 alpha /
    misses``), its budget's regime and worded need (None: optional), its xi,
    and the legacy spelling a config may still use."""

    method: str | None = None
    misses: int = 3
    regime: str | None = None
    needs_budget: str | None = None
    xi: XiPolicy = XiPolicy(1.0, -1.0)
    legacy: str | None = None


BOUND_TABLE = {
    "freedman_oracle": BoundRow("freedman", misses=2),
    "mds_empirical": BoundRow("mds_empirical"),
    "empirical_bernstein": BoundRow("eb", legacy="eb_corollary1"),
    "eb_ignore_linear": BoundRow("eb_ignore_linear", xi=XiPolicy(1.0, -0.25)),
    "phi_mixing": BoundRow("phi", regime="phi", needs_budget="phi budget required: the "
                           "process provides no uniform-mixing bound", legacy="phi_thm2"),
    "tilde_phi_mixing": BoundRow("tilde_phi", regime="phi_tilde",
                                 needs_budget=_PHI_TILDE_BUDGET, legacy="tilde_phi_thm3"),
    "mixing_agnostic": BoundRow("agnostic", regime="phi_tilde", legacy="agnostic_thm4"),
    "dedecker_baseline": BoundRow(regime="phi_tilde", needs_budget=_PHI_TILDE_BUDGET),
    "maurer_pontil_baseline": BoundRow(misses=2, legacy="maurer_pontil"),
}
BOUNDS = tuple(BOUND_TABLE)
# Each bound's other names, its --method and legacy spelling; resolved once per config.
BOUND_ALIASES = {alias: name for name, row in BOUND_TABLE.items()
                 for alias in (row.method, row.legacy) if alias}


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
        if not self.l_policies:
            object.__setattr__(self, "l_policies", None)
        if not self.bounds:
            raise ConfigError("field 'bounds': at least one bound is required")
        object.__setattr__(self, "bounds", tuple(resolve_bound(b) for b in self.bounds))
        if not self.n_grid:
            raise ConfigError("field 'n_grid': must be nonempty")
        object.__setattr__(self, "n_grid", tuple(_as_count("n_grid", n) for n in self.n_grid))
        for name in ("bounds", "n_grid", "l_policies"):
            entries = getattr(self, name) or ()
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ConfigError(f"field {name!r}: {entry!r} is listed more than once")
        for name, low in (("replications", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), low))
        if (self.delta is None) == (self.alpha is None):
            raise ConfigError("exactly one of 'delta' and 'alpha' must be set")
        for name in ("delta" if self.delta is not None else "alpha", "eta"):
            value = getattr(self, name)
            _set_numbers(self, "", name)
            try:
                _check_prob(value, name)
            except DomainError:
                raise ConfigError(f"field '{name}': must lie in (0, 1), got {value!r}") from None
        # alpha_eff = 1.5 delta enters log(1/alpha), so it must stay below 1.
        if self.delta is not None and 1.5 * self.delta >= 1.0:
            raise ConfigError(f"field 'delta': 1.5 * delta (the alpha it implies) must be "
                              f"below 1, got {self.delta!r}")

    @property
    def delta_eff(self) -> float:
        return self.delta if self.delta is not None else 2.0 * self.alpha / 3.0

    @property
    def alpha_eff(self) -> float:
        return self.alpha if self.alpha is not None else 1.5 * self.delta

    def xi_for(self, bound: str) -> XiPolicy:
        return self.xi if self.xi is not None else BOUND_TABLE[bound].xi

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists."""
        return json.loads(json.dumps(dataclasses.asdict(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a JSON object.  A null (or, for a policy, ``{}``)
        takes the field's default; ``[]`` for ``l_policies`` is None."""
        _object(cls, d, None, extra=("bound",))
        for key in ("process", "n_grid", "replications", "master_seed"):
            if d.get(key) is None:
                raise ConfigError(f"field {key!r}: required")
        named = [key for key in ("bounds", "bound") if d.get(key) is not None]
        if not named:
            raise ConfigError("field 'bounds': required (a name or list of names)")
        if len(named) > 1:
            raise ConfigError("fields 'bound' and 'bounds': set one, not both")
        bounds = d[named[0]]
        if isinstance(bounds, str):
            bounds = [bounds]
        given = {key: d[key] for key in ("delta", "alpha", "eta") if d.get(key) is not None}
        given.update(
            process=processes.ProcessSpec.from_dict(d["process"]),
            bounds=_as_tuple("bounds", bounds),
            n_grid=_as_tuple("n_grid", d["n_grid"]),
            replications=d["replications"],
            master_seed=d["master_seed"],
        )
        for key, policy in (("l_policy", LPolicy), ("xi", XiPolicy), ("knobs", KnobPolicy)):
            if d.get(key) not in (None, {}):
                given[key] = policy.from_dict(d[key])
        if d.get("l_policies") is not None:
            entries = _as_tuple("l_policies", d["l_policies"])
            given["l_policies"] = tuple(LPolicy.from_dict(p, f"l_policies[{i}]")
                                        for i, p in enumerate(entries))
        return cls(**given)


@dataclass(frozen=True, kw_only=True)
class CellResult:
    """One (n, bound, block policy) cell of a report, and the one declaration
    of a report row: the fields, in this order, are the CSV columns and the
    keys of each JSON row.  A cell flagged ``precondition:`` sets only the
    identifying fields and its flag; the rest keep their defaults."""

    process: str
    bound: str
    n: int
    delta: float
    alpha: float
    level: float | None = None
    replications: int
    covered: int | None = None
    empirical_coverage: float | None = None
    mc_se: float | None = None
    mean_radius: float | None = None
    median_radius: float | None = None
    sharpness_ratio: float | None = None
    sharpness_limit: float | None = None
    sigma_ref: float | None = None
    sigma_ref_source: str = "n/a"
    l_policy: str
    block_len: int | None = None
    blocks: int | None = None
    remainder: int | None = None
    mean_vhat: float | None = None
    error_total: float | None = None
    penalty: float | None = None
    burn_in_n: int | None = None
    master_seed: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CoverageReport:
    config: ExperimentConfig
    rows: tuple[CellResult, ...]


def validate_config(config: ExperimentConfig) -> list[tuple[int, dict]]:
    """Every cell's plan, by n: ``(n, {(bound, l_policy): plan})`` in row
    order.  A plan whose preconditions fail at its n is flagged (its ``stat``
    is None).  A bound the process does not suit raises ConfigError here,
    before any path is drawn."""
    l_policies = config.l_policies if config.l_policies else (config.l_policy,)
    keys = [(bound, lp) for lp in l_policies for bound in config.bounds
            if bound in _BLOCK_BOUNDS or lp is l_policies[0]]
    return [(n, {(bound, lp): _CellPlan(config, bound, n, lp) for bound, lp in keys})
            for n in config.n_grid]


_MDS_KINDS = ("iid_bounded", "hetero_mds")


class _CellPlan:
    """One cell's bound, decided once, in ``_prepare``: its requirements of
    the process, the row statistic it reads (``stat``), its radius as data,
    the cell's flags, and ``row``, the :class:`CellResult` columns known
    before any path is drawn.  Its :data:`BOUND_TABLE` row gives the level
    rule, the budget regime and the default xi.  ``stat`` is each row's
    ``"mean"`` (for a constant radius), its sum of squares ``"qv"``, its sum
    of squares about its mean ``"css"``, or its block variance ``("vhat", m,
    floor_l)``.  The radius is ``leading``, a map from the statistic to each
    row's leading term (or the term itself, for a constant radius), and
    ``terms``, the other terms as the library's term builders return them.
    An unmet requirement raises ConfigError before any other check of its
    branch.  A precondition that fails at this n (PreconditionError or
    DomainError) flags the plan: its ``stat`` is None, its flags are
    ``["precondition: ..."]`` and its row holds only the identifying
    columns, so a cell fails on construction, not inside a chunk."""

    def __init__(self, config: ExperimentConfig, bound: str, n: int, l_policy: LPolicy):
        self.bound = bound
        self.n = n
        self.l_policy = l_policy
        delta, alpha = config.delta_eff, config.alpha_eff
        identity = dict(process=config.process.label(), bound=bound, n=n, delta=delta, alpha=alpha,
                        replications=config.replications, l_policy=l_policy.label(),
                        master_seed=config.master_seed)
        spec = BOUND_TABLE[bound]
        if spec.misses != 3:  # delta_eff is 2 alpha / 3, with a given delta's own bits
            delta = 2.0 * alpha / spec.misses
        truth = processes.ground_truth(config.process)
        self.row = dict(identity, level=1.0 - spec.misses * delta,
                        sharpness_limit=math.sqrt(math.log(1.0 / delta) / math.log(1.0 / alpha)),
                        sigma_ref=math.sqrt(truth.sigma2_marginal), sigma_ref_source="marginal")
        self.flags = ["vacuous_level"] if self.row["level"] <= 0.0 else []
        try:
            self._prepare(config, truth, spec, delta)
        except (PreconditionError, DomainError) as exc:
            self.row, self.stat, self.flags = identity, None, [f"precondition: {exc}"]

    def _require(self, config, conditions: dict) -> None:
        """Refuse the bound on this process unless each requirement holds."""
        unmet = "; ".join(requirement for requirement, met in conditions.items() if not met)
        if unmet:
            raise ConfigError(f"bound {self.bound!r} is incompatible with process "
                              f"{config.process.label()!r}; requires: {unmet}")

    def _prepare(self, config, truth, spec, delta):
        n, bound, row = self.n, self.bound, self.row
        kind = config.process.kind
        log_term = math.log(1.0 / delta)
        terms = {}
        if spec.regime is not None:
            budget = processes.mixing_budget_for(config.process, spec.regime, n)
            if spec.needs_budget is not None:
                self._require(config, {spec.needs_budget: budget is not None})
            row.update(sigma_ref=math.sqrt(truth.sigma2_longrun), sigma_ref_source="long_run")
        if bound == "freedman_oracle":
            self._require(config, {"an IID or bounded martingale-difference process "
                                   "(oracle variance)": kind in _MDS_KINDS})
            terms = core_bounds.freedman_terms(n, truth.sigma2_marginal, truth.b_centered, delta)
            stat, leading = "mean", terms.pop("leading")
        elif bound == "mds_empirical":
            self._require(config, {"a zero-mean martingale-difference process": truth.mu == 0.0})
            stat = "qv"
            leading = lambda qv: core_bounds.mds_empirical_radius(qv, truth.b_abs, log_term) / n
        elif bound == "empirical_bernstein":
            self._require(config, {"constant conditional mean (IID or bounded MDS data)":
                                   kind in _MDS_KINDS})
            stat, terms = "css", core_bounds.eb_terms(n, truth.b_abs, delta)
            leading = lambda css: core_bounds.eb_leading(css, n, log_term)
        elif bound == "eb_ignore_linear":
            self._require(config, {"IID data (the penalty analysis is IID-only)":
                                   kind == "iid_bounded"})
            self._require(config, {"a non-degenerate variable (sigma2 > 0)":
                                   truth.sigma2_marginal > 0})
            nu = core_bounds.inflation_factor(n, delta)
            xi_policy = config.xi_for(bound)
            xi_n = float(xi_policy.evaluate(n))
            stat = "css"
            leading = lambda css: core_bounds.ignore_linear_rows(css, n, log_term, nu, xi_n)
            row["penalty"] = core_bounds.ignorance_penalty(
                n, truth.sigma2_marginal, truth.m4, truth.b_abs, config.eta
            )
            row["burn_in_n"] = burn_in_n = core_bounds.burn_in_power_law(
                delta, config.eta, truth.sigma2_marginal, truth.b_abs,
                xi_policy.scale, xi_policy.power,
            )
            if burn_in_n is None or n < burn_in_n:
                self.flags.append("below_burn_in")
        elif bound == "maurer_pontil_baseline":
            # A grid that reaches n >= 2 flags its smaller cells instead.
            self._require(config, {"[0,1]-valued data": truth.b_range == (0.0, 1.0),
                                   "n >= 2": max(config.n_grid) >= 2})
            mp_log_term = core_bounds.maurer_pontil_log_term(n, delta)
            stat, terms = "css", core_bounds.maurer_pontil_terms(n, mp_log_term)
            leading = lambda css: core_bounds.maurer_pontil_leading(css / (n - 1), n, mp_log_term)
            row["sharpness_limit"] = math.sqrt(mp_log_term / log_term)
        elif bound == "dedecker_baseline":
            self._require(config, {"a strictly positive phi_tilde budget": budget.phi_sum > 0})
            if 3.0 * delta >= 1.0:
                raise PreconditionError("total miss probability 3*delta >= 1")
            stat, leading = "mean", mixing_bounds.dedecker_prieur_radius(
                n, budget.tv_norm, budget.phi_sum, 3.0 * delta)
            row["sharpness_limit"] = None
        else:  # a block bound; resolve_bound admits no other name
            partition = block_partition(n, self.l_policy.block_length(n))
            row.update(block_len=partition.floor_l, blocks=partition.m,
                       remainder=partition.remainder_size)
            rw = truth.range_width
            if bound == "mixing_agnostic":
                knobs = config.knobs.evaluate(n, partition.remainder_size, rw)
                terms = mixing_bounds.agnostic_terms(partition, rw, knobs, delta)
                errors = mixing_bounds.agnostic_errors(partition, knobs, budget)
                if errors is not None:
                    row["error_total"] = errors.total
                row["level"], flags = mixing_bounds.agnostic_level(delta, errors)
                self.flags.extend(flags)
            else:
                xi_n = float(config.xi_for(bound).evaluate(n))
                terms = mixing_bounds.mixing_terms(partition, rw, budget, delta, xi_n)
            stat = ("vhat", partition.m, partition.floor_l)
            leading = lambda vhat: mixing_bounds.block_leading(vhat, n, log_term)
        self.stat, self.leading, self.terms = stat, leading, terms
        keys = [k for k in terms if k not in ("inflation", "remainder")]
        split = keys.index("linear") if keys else 0
        self._inflation, self._remainder = terms.get("inflation", 1.0), terms.get("remainder", 0.0)
        self._a, self._b = (sum(terms[k] for k in part) for part in (keys[:split], keys[split:]))

    def evaluate(self, stat: np.ndarray) -> np.ndarray:
        """Per-replication radii from the rows' ``self.stat``, which is only
        read; :func:`run_cells` calls it once per plan, on every
        replication's statistic.  The rule is elementwise, so no radius
        depends on the other rows: ``inflation * (leading + A + B) +
        remainder``, where A adds the terms before ``linear``, B the rest, a
        missing inflation is 1.0 and a missing remainder 0.0.  The pinned
        reports hold this float order, which may differ from
        :func:`core_bounds.recompose` in the last bit.  ``mds_empirical`` and
        ``eb_ignore_linear`` keep their whole rule in ``leading``: no split of
        ``(a + c) / n`` or ``((nu (1 + xi)) s) / n`` into terms keeps its
        bits."""
        leading = self.leading(stat) if callable(self.leading) else np.full(len(stat), self.leading)
        return self._inflation * (leading + self._a + self._b) + self._remainder


def _row_statistic(key, vals, means, exact=False):
    """The row statistic ``key`` (see :class:`_CellPlan`) of each row of
    ``vals``, whose row means are ``means``.  The css (the sum of squares
    about the row mean) and the block variances are reduced over blocks of
    rows whose temporary, the centered rows or their block sums, holds at
    most ``processes._BLOCK`` values (or one row's), so it stays small
    whatever the chunk holds; no row's statistic depends on its block.
    ``exact`` is :func:`processes.sums_are_exact` for the rows' process and
    length: block variances then take :func:`row_vhat`'s einsum block sums,
    with the same bits as the pairwise ones."""
    if key == "mean":
        return means
    if key == "qv":
        return row_sumsq(vals)
    rows, n = vals.shape
    step = max(1, processes._BLOCK // (n if key == "css" else key[1]))
    out = np.empty(rows)
    for lo in range(0, rows, step):
        block = vals[lo:lo + step]
        out[lo:lo + step] = (row_sumsq(block - means[lo:lo + step, None]) if key == "css"
                             else row_vhat(block, key[1], key[2], exact))
    return out


def _chunk_edges(replications: int, n: int, n_jobs: int = 1,
                 elementwise: bool = False) -> list[tuple[int, int]]:
    """The fewest chunks of replications of at most ``budget // n_jobs``
    values, or one row of ``n`` (a config's largest n), their sizes
    differing by at most one.  The budget is ``_ELEMENTWISE_CHUNK_VALUES``
    for an elementwise process (:func:`processes.is_elementwise`), else
    ``_CHUNK_VALUES``, read at each call.  The ``n_jobs`` threads of a run
    then hold at most the budget together, as a serial run does.  No row
    statistic depends on its chunk, so the chunks set speed and memory only."""
    budget = _ELEMENTWISE_CHUNK_VALUES if elementwise else _CHUNK_VALUES
    k = -(-replications // max(1, budget // n_jobs // n))
    return [(i * replications // k, (i + 1) * replications // k) for i in range(k)]


def run_cells(config: ExperimentConfig, n_jobs: int = 1) -> tuple[CellResult, ...]:
    """Evaluate every (n, bound, l_policy) cell of the config, running the
    chunks of replications on up to ``n_jobs`` (>= 1) threads.  The threads
    share one chunk budget, sized by the process's path transform and the
    config's largest n (:func:`_chunk_edges`), so a threaded run holds no
    more simulated values at once than a serial one.

    Rows come by n, then l policy, then bound; a bound without blocks gets
    one row per n, under the first policy.  A cell whose preconditions fail
    gets a ``precondition:`` flag, no coverage.  Each chunk is drawn once, at
    the largest n with a live plan, and each n reads its own paths, bit for
    bit, as the prefix ``paths[:, :n]``: every comparison is paired.

    Each chunk is reduced once per n to every distinct row statistic its
    plans read (:func:`_row_statistic`), and a run keeps one float per
    replication for each, the row means among them.  Once the chunks are
    done, :func:`_finish_cell` maps each plan's statistic to its radii.
    """
    try:
        n_jobs = _check_count(n_jobs, "n_jobs")
    except DomainError:
        raise ConfigError(f"n_jobs (--jobs): must be an integer >= 1, got {n_jobs!r}") from None
    r = config.replications
    mu = processes.ground_truth(config.process).mu
    cells = validate_config(config)
    stats = {}  # the row statistics of each n with a live plan
    for n, plans in cells:
        if live := [p.stat for p in plans.values() if p.stat is not None]:
            stats[n] = {s: np.empty(r) for s in dict.fromkeys(["mean"] + live)}
    exact = {n: processes.sums_are_exact(config.process, n) for n in stats}
    top = max(stats, default=0)

    def work(chunk):
        lo, hi = chunk
        paths = processes.simulate_paths(config.process, top, config.master_seed, range(lo, hi))
        for n, row_stats in stats.items():
            vals = paths[:, :n]
            means = vals.mean(axis=1)
            for s, out in row_stats.items():
                out[lo:hi] = _row_statistic(s, vals, means, exact[n])

    chunks = _chunk_edges(r, top, n_jobs, processes.is_elementwise(config.process)) if top else []
    if n_jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(work, chunks))
    else:
        list(map(work, chunks))
    return tuple(_finish_cell(plan, stats.get(n), mu) for n, plans in cells for plan in plans.values())


def _median(x) -> float:
    """``np.median`` of a nonempty 1-D float array, the same float: NaN if
    ``x`` holds a NaN, else the middle value or the mean of the two middle
    values, summed from +0.0 as ``np.mean`` sums (so -0.0 comes out 0.0).
    np.median's NaN check imports numpy.ma, which nothing else here needs."""
    half = x.size // 2
    if x.size % 2:
        part = np.partition(x, [half, -1])
        middle = 0.0 + part[half]
    else:
        part = np.partition(x, [half - 1, half, -1])
        middle = (0.0 + part[half - 1] + part[half]) / 2
    return math.nan if np.isnan(part[-1]) else float(middle)  # partition puts NaN last


def _finish_cell(plan: _CellPlan, stats: dict, mu: float) -> CellResult:
    """The plan's report row: its planned columns and flags, plus, unless the
    plan is flagged, the columns measured from every replication's row
    statistics ``stats`` (keyed as ``plan.stat``; ``"mean"`` holds the
    centers) and the process mean ``mu``.  The plan's radii are evaluated
    here, once, and a block bound also reports its mean block variance."""
    if plan.stat is None:
        return CellResult(**plan.row, flags=tuple(plan.flags))
    row, stat = plan.row, stats[plan.stat]
    radii, r = plan.evaluate(stat), stat.size
    covered = int(np.count_nonzero(np.abs(stats["mean"] - mu) <= radii))
    p_hat = covered / r
    mean_radius = float(np.mean(radii))
    sharpness, sigma_ref = None, row["sigma_ref"]
    if sigma_ref > 0:
        log_alpha = math.log(1.0 / row["alpha"])
        sharpness = math.sqrt(plan.n) * mean_radius / (sigma_ref * math.sqrt(2.0 * log_alpha))
    return CellResult(
        **row,
        covered=covered,
        empirical_coverage=p_hat,
        mc_se=math.sqrt(p_hat * (1.0 - p_hat) / r),
        mean_radius=mean_radius,
        median_radius=_median(radii),
        sharpness_ratio=sharpness,
        mean_vhat=float(np.mean(stat)) if isinstance(plan.stat, tuple) else None,
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
