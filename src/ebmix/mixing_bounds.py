"""Confidence radii for weakly dependent (mixing) data.

All intervals here share the same skeleton: a blocked self-normalized leading
term driven by the block empirical long-run variance, a linear term, an
inflation factor computed from the number of blocks, and an additive
remainder correction for the indices not covered by full blocks.  The mixing
budget enters only through the cumulative coefficient sum, so no decay rate
needs to be assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocking import BlockPartition, BlockSummary
from .core_bounds import EMPIRICAL_LINEAR_CONSTANT, IntervalResult, _inflation, _interval, _sqrt
from .errors import DomainError, _check_count, _check_finite, _check_nonneg, _check_prob

REGIMES = ("phi", "phi_tilde")
PROVENANCES = ("exact", "analytic_bound", "user_supplied")


@dataclass(frozen=True)
class MixingBudget:
    """Cumulative mixing-coefficient budget for a given horizon.

    ``phi_sum`` is the sum of the first n mixing coefficients (of the stated
    regime).  ``tv_norm`` is the total-variation norm of the test function;
    required for the phi_tilde regime.  ``provenance`` records whether the
    budget is exact, an analytic bound, or user supplied.
    """

    regime: str
    phi_sum: float
    tv_norm: float | None = None
    provenance: str = "user_supplied"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        _check_nonneg(self.phi_sum, "phi_sum")
        if self.tv_norm is not None:
            _check_nonneg(self.tv_norm, "tv_norm")
        if self.provenance not in PROVENANCES:
            raise DomainError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")


@dataclass(frozen=True)
class AgnosticKnobs:
    """User-defined sequences (evaluated at n) for the mixing-agnostic bound.

    ``t_n`` doubles as the slack sequence: internally ``xi_n = t_n ** 2``.
    """

    c_n: float
    t_n: float
    s_n: float

    def __post_init__(self):
        _check_nonneg(self.c_n, "c_n")
        _check_nonneg(self.t_n, "t_n")
        _check_nonneg(self.s_n, "s_n")


@dataclass(frozen=True)
class ErrorBudget:
    """Exponentially small coverage losses paid for ignoring the mixing
    quantities; each term is clamped to [0, 1]."""

    error1: float
    error2: float
    error3: float

    def __post_init__(self):
        for name in ("error1", "error2", "error3"):
            v = getattr(self, name)
            if not (0.0 <= _check_finite(v, name) <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")

    @property
    def total(self) -> float:
        return min(1.0, self.error1 + self.error2 + self.error3)


def block_inflation(m: int, delta: float) -> float:
    """Inflation factor 1 / (1 - sqrt(2 log(1/delta) / m)) over m blocks."""
    return _inflation(m, delta, "m", "blocks", "m = ")


# Term builders.  phi_interval and tilde_phi_interval must reduce to the
# *identical* float result when the budget is zero, so the common terms are
# computed by one code path.  The harness evaluates the same terms once per
# cell and the leading term per replication.

def block_leading(v_hat, n: int, log_term: float):
    """Leading term sqrt(2 log(1/delta) vhat / n); ``v_hat`` may be an array
    of per-row block variances."""
    return _sqrt(2.0 * log_term * v_hat / n)


def mixing_terms(
    partition: BlockPartition,
    range_width: float,
    budget: MixingBudget,
    delta: float,
    xi_n: float | None = None,
) -> dict:
    """Every term but the leading one of :func:`phi_interval` (for a 'phi'
    budget) or of :func:`tilde_phi_interval` (for a 'phi_tilde' budget)."""
    delta = _check_prob(delta, "delta")
    _check_nonneg(range_width, "range_width")
    n, m, fl = partition.n, partition.m, partition.floor_l
    xi = 1.0 / n if xi_n is None else _check_nonneg(xi_n, "xi_n")
    log_term = math.log(1.0 / delta)
    if budget.regime == "phi":
        budget_sqrt = 4.0 * range_width * budget.phi_sum * math.sqrt(2.0 * log_term * m) / n
        budget_linear = 2.0 * budget.phi_sum * range_width * log_term / n
    else:
        tv_phi = budget.tv_norm * budget.phi_sum
        budget_sqrt = 2.0 * tv_phi * math.sqrt(2.0 * log_term * m) / n
        budget_linear = EMPIRICAL_LINEAR_CONSTANT * tv_phi * log_term / n
    inflation = block_inflation(m, delta)
    return {
        "mixing_sqrt": budget_sqrt,
        "slack": math.sqrt(2.0 * log_term * xi) / n,
        "linear": EMPIRICAL_LINEAR_CONSTANT * fl * range_width * log_term / n,
        "linear_mixing": budget_linear,
        "inflation": inflation,
        "remainder": (n - m * fl) / n * range_width,
    }


def _blocked_interval(summary, delta, terms, level, flags=()):
    leading = block_leading(summary.v_hat, summary.partition.n, math.log(1.0 / delta))
    return _interval(summary.mean, level, {"leading": leading, **terms}, flags)


def phi_interval(
    summary: BlockSummary,
    range_width: float,
    budget: MixingBudget,
    delta: float,
    xi_n: float | None = None,
) -> IntervalResult:
    """Blocked empirical-Bernstein interval under a uniform-mixing budget.

    radius = inflation * (A + B) + remainder_fraction * range_width with

        A = sqrt(2 L vhat / n) + 4 range_width Phi sqrt(2 L m / n^2)
            + sqrt(2 L xi_n / n^2)
        B = (3.15 floor_l + 2 Phi) range_width L / n,   L = log(1/delta)

    Two-sided coverage at least ``1 - 3 delta``.  ``xi_n`` defaults to 1/n
    (any vanishing sequence is admissible).
    """
    if budget.regime != "phi":
        raise DomainError(f"phi_interval needs a 'phi' budget, got {budget.regime!r}")
    terms = mixing_terms(summary.partition, range_width, budget, delta, xi_n)
    return _blocked_interval(summary, delta, terms, 1.0 - 3.0 * delta)


def tilde_phi_interval(
    summary: BlockSummary,
    range_width: float,
    budget: MixingBudget,
    delta: float,
    xi_n: float | None = None,
) -> IntervalResult:
    """Blocked empirical-Bernstein interval under a conditional-CDF mixing
    budget (the weaker regime, scaled by the TV norm of the test function).

        A = sqrt(2 L vhat / n) + 2 tv Phi~ sqrt(2 L m / n^2)
            + sqrt(2 L xi_n / n^2)
        B = 3.15 (floor_l range_width + tv Phi~) L / n

    Two-sided coverage at least ``1 - 3 delta``.
    """
    if budget.regime != "phi_tilde":
        raise DomainError(f"tilde_phi_interval needs a 'phi_tilde' budget, got {budget.regime!r}")
    if budget.tv_norm is None:
        raise DomainError("tilde_phi_interval requires budget.tv_norm")
    terms = mixing_terms(summary.partition, range_width, budget, delta, xi_n)
    return _blocked_interval(summary, delta, terms, 1.0 - 3.0 * delta)


def agnostic_terms(
    partition: BlockPartition, range_width: float, knobs: AgnosticKnobs, delta: float
) -> dict:
    """Every term of :func:`agnostic_interval` but the leading one."""
    delta = _check_prob(delta, "delta")
    _check_nonneg(range_width, "range_width")
    n, m, fl = partition.n, partition.m, partition.floor_l
    log_term = math.log(1.0 / delta)
    inflation = block_inflation(m, delta)
    return {
        "knob_t": (1.0 + 1.0 / n) * knobs.t_n * math.sqrt(2.0 * log_term),
        "linear": EMPIRICAL_LINEAR_CONSTANT * log_term * (fl * range_width / n + knobs.s_n),
        "knob_c": knobs.c_n,
        "inflation": inflation,
    }


def agnostic_level(delta: float, errors: ErrorBudget | None) -> tuple[float, tuple[str, ...]]:
    """Nominal level ``1 - 3 delta`` less the error budget, flagged
    ``errors_unquantified`` when there is no budget."""
    if errors is None:
        return 1.0 - 3.0 * delta, ("errors_unquantified",)
    return 1.0 - 3.0 * delta - errors.total, ()


def agnostic_interval(
    summary: BlockSummary,
    range_width: float,
    knobs: AgnosticKnobs,
    delta: float,
    errors: ErrorBudget | None = None,
) -> IntervalResult:
    """Mixing-agnostic interval: no mixing quantity appears in the radius.

        radius = inflation * U,
        U = sqrt(2 L vhat / n) + (1 + 1/n) t_n sqrt(2 L)
            + 3.15 L (floor_l range_width / n + s_n) + c_n

    The nominal level is ``1 - 3 delta`` minus the error budget when one is
    supplied; without a budget the result is flagged ``errors_unquantified``.
    When the blocks tile n exactly there is no remainder to control, so a
    positive ``c_n`` only adds conservatism (and Error1 is identically zero,
    see :func:`agnostic_error_budget`).
    """
    terms = agnostic_terms(summary.partition, range_width, knobs, delta)
    level, flags = agnostic_level(delta, errors)
    return _blocked_interval(summary, delta, terms, level, flags)


def agnostic_error_budget(
    n: int, partition: BlockPartition, knobs: AgnosticKnobs, tv_phi_product: float
) -> ErrorBudget:
    """Coverage losses of the agnostic interval, evaluated a posteriori from
    the (possibly bounded) product ``tv_norm * Phi~_n``.

        error2 = 2 m exp(-0.5 (sqrt(n floor_l) t_n / tv_phi)^2)
        error3 = 2 m exp(-0.5 (n s_n / tv_phi)^2)
        error1 = 2 exp(-n^2 c_n^2 / (2 (n - m floor_l) tv_phi))  (0 if no remainder)

    Each term is clamped to [0, 1].
    """
    if _check_finite(tv_phi_product, "tv_phi_product") <= 0:
        raise DomainError(f"tv_phi_product must be > 0, got {tv_phi_product!r}")
    if n != partition.n:
        raise DomainError(f"n = {n} does not match partition.n = {partition.n}")
    m, fl = partition.m, partition.floor_l
    rem = partition.remainder_size
    t = math.sqrt(n * fl) * knobs.t_n / tv_phi_product
    s = n * knobs.s_n / tv_phi_product
    error1 = 0.0
    if rem:
        error1 = _tail(2.0, -(n * n * knobs.c_n * knobs.c_n) / (2.0 * rem * tv_phi_product))
    return ErrorBudget(error1=error1, error2=_tail(2.0 * m, -0.5 * t * t),
                       error3=_tail(2.0 * m, -0.5 * s * s))


def _tail(count: float, z: float) -> float:
    """count * exp(z) clamped to 1; an exponent that would underflow gives 0."""
    return min(1.0, count * math.exp(z)) if z > -745.0 else 0.0


def agnostic_errors(
    partition: BlockPartition, knobs: AgnosticKnobs, budget: MixingBudget | None
) -> ErrorBudget | None:
    """The error budget of :func:`agnostic_interval` for a 'phi_tilde' budget
    with its ``tv_norm``: none without a budget, zero for a zero ``phi_sum``,
    else :func:`agnostic_error_budget` of ``tv_norm * phi_sum``."""
    if budget is None:
        return None
    if budget.phi_sum == 0.0:
        return ErrorBudget(0.0, 0.0, 0.0)
    return agnostic_error_budget(partition.n, partition, knobs, budget.tv_norm * budget.phi_sum)


def _check_dedecker_budget(tv_norm: float, phi_tilde_sum: float) -> None:
    if _check_finite(tv_norm, "tv_norm") <= 0 or _check_finite(phi_tilde_sum, "phi_tilde_sum") <= 0:
        raise DomainError("tv_norm and phi_tilde_sum must be > 0")


def dedecker_prieur_tail(m: int, t: float, tv_norm: float, phi_tilde_sum: float) -> float:
    """Exponential tail of the average of m terms of a weakly dependent
    sequence: min(1, 2 exp(-m t^2 / (2 tv_norm phi_tilde_sum)))."""
    m = _check_count(m, "m")
    if _check_finite(t, "t") <= 0:
        raise DomainError(f"t must be > 0, got {t!r}")
    _check_dedecker_budget(tv_norm, phi_tilde_sum)
    return _tail(2.0, -(m * t * t) / (2.0 * tv_norm * phi_tilde_sum))


def dedecker_prieur_radius(n: int, tv_norm: float, phi_tilde_sum: float, eps: float) -> float:
    """Radius obtained by inverting :func:`dedecker_prieur_tail` at total miss
    probability ``eps``: sqrt(2 tv_norm phi_tilde_sum log(2/eps) / n)."""
    n = _check_count(n)
    _check_dedecker_budget(tv_norm, phi_tilde_sum)
    eps = _check_prob(eps, "eps")
    return math.sqrt(2.0 * tv_norm * phi_tilde_sum * math.log(2.0 / eps) / n)
