"""Fixed-n self-normalized and empirical-Bernstein radii for bounded data.

All radii here are for the martingale-difference / IID setting: the variance
input is either an oracle variance, a quadratic variation, or the centered sum
of squares of the sample itself.

Convention: ``b`` always bounds the absolute values ``|Z_i|`` (or ``|Z_i - mu|``
where an operation says so), *not* the range width ``b - a``.  Callers with
data in ``[0, 1]`` should pass ``b = 1``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, PreconditionError, _check_array, _check_count, _check_finite, _check_nonneg,
    _check_prob,
)

# Linear-term constant of the empirical-variance radius.  Fixed literal; do
# not recompute it from its components.
EMPIRICAL_LINEAR_CONSTANT = 3.15

_RECOMPOSE_RTOL = 1e-12
# Relative rounding slack of a summary statistic checked against its most.
_RANGE_RTOL = 1e-9


def recompose(breakdown: dict) -> float:
    """Radius implied by a term breakdown.

    Every interval in this package satisfies
    ``radius = inflation * (sum of additive terms) + remainder``
    where the additive terms are all breakdown entries except ``inflation``
    and ``remainder``.
    """
    terms = {k: _check_finite(v, f"breakdown[{k!r}]") for k, v in breakdown.items()}
    inflation = terms.get("inflation", 1.0)
    remainder = terms.get("remainder", 0.0)
    body = sum(v for k, v in terms.items() if k not in ("inflation", "remainder"))
    return inflation * body + remainder


def _sqrt(x):
    """math.sqrt of a scalar (a Python float back), np.sqrt of an array of
    per-row statistics; both round the same IEEE square root."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _interval(center, level, breakdown, flags=()):
    """The scalar assembly rule: an interval whose radius is
    ``recompose(breakdown)``, flagged ``vacuous_level`` after ``flags`` when
    its level is not positive."""
    if level <= 0.0:
        flags = (*flags, "vacuous_level")
    return IntervalResult(
        center=center, radius=recompose(breakdown), level=level, breakdown=breakdown, flags=flags
    )


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics of one bounded sample.

    ``css`` is the centered sum of squares ``sum_i (z_i - mean)^2``.
    ``b`` is an a.s. bound on ``|Z_i|`` (see module docstring).
    ``range``, when present, is the pair ``(a, b)`` bounding the values.
    """

    n: int
    mean: float
    css: float
    b: float
    range: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n))
        _check_finite(self.mean, "mean")
        _check_nonneg(self.css, "css")
        _check_nonneg(self.b, "b")
        if self.range is not None:
            a, hi = (_check_finite(v, "range") for v in self.range)
            if a > hi:
                raise DomainError(f"range must satisfy a <= b, got {self.range!r}")
            # Bhatia–Davis: data in [a, hi] with this mean have css at most
            # n (hi - mean)(mean - a).  The slack scales with the data: a
            # mean rounded at the data's magnitude moves the bound by up to
            # n * width * (its error), so a range far from 0 gets more.
            most = self.n * (hi - self.mean) * (self.mean - a)
            width = hi - a
            scale = max(width, abs(a), abs(hi))
            if self.css > most + _RANGE_RTOL * self.n * width * scale:
                raise DomainError(
                    f"css={self.css!r} exceeds n*(hi - mean)*(mean - a)={most!r} "
                    f"for range {self.range!r}"
                )


def summarize(values, b: float, range: tuple[float, float] | None = None) -> SampleSummary:
    """Build a SampleSummary with a shift-stabilized css accumulation.

    Values are centered at the first observation before accumulating, which
    avoids the catastrophic cancellation of the naive sum-of-squares formula
    when the mean is large relative to the spread.  Data with ``max |x|``
    above ``b * (1 + 1e-12)`` make the interval void and are refused.
    """
    x = _check_array(values, "values")
    if x.ndim != 1 or x.size < 1:
        raise DomainError("values must be a nonempty 1-d sequence")
    b = _check_nonneg(b, "b")
    n = x.size
    shift = float(x[0])
    d = x - shift
    s1 = float(np.sum(d))
    s2 = float(np.sum(d * d))
    mean = shift + s1 / n
    css = max(0.0, s2 - s1 * s1 / n)
    if (top := float(np.max(np.abs(x)))) > b * (1 + 1e-12):
        raise DomainError(f"data exceed the declared bound: max |x| = {top!r} > b = {b!r}")
    return SampleSummary(n=n, mean=mean, css=css, b=b, range=range)


@dataclass(frozen=True)
class IntervalResult:
    """A two-sided confidence interval ``center +/- radius``.

    ``breakdown`` maps term names to values and recomposes to ``radius``
    (see :func:`recompose`).  ``flags`` carries non-fatal warnings such as
    ``"vacuous_level"``.
    """

    center: float
    radius: float
    level: float
    breakdown: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        _check_finite(self.center, "center")
        _check_nonneg(self.radius, "radius")
        _check_finite(self.level, "level")
        if self.breakdown:
            expected = recompose(self.breakdown)
            scale = max(1.0, abs(self.radius))
            if abs(expected - self.radius) > _RECOMPOSE_RTOL * scale:
                raise DomainError(
                    f"breakdown recomposes to {expected!r}, not radius {self.radius!r}"
                )

    @property
    def lo(self) -> float:
        return self.center - self.radius

    @property
    def hi(self) -> float:
        return self.center + self.radius

    def recomposed(self) -> float:
        return recompose(self.breakdown)


def _check_stat(x, name):
    # An array of per-row statistics comes from the harness, which builds it
    # non-negative; only a scalar is checked.
    return x if isinstance(x, np.ndarray) else _check_nonneg(x, name)


def freedman_terms(n, sigma2, b, delta) -> dict:
    """The terms ``leading`` and ``linear`` of :func:`freedman_radius`."""
    n = _check_count(n)
    _check_nonneg(sigma2, "sigma2")
    _check_nonneg(b, "b")
    delta = _check_prob(delta, "delta")
    log_term = math.log(1.0 / delta)
    return {
        "leading": math.sqrt(2.0 * sigma2 * log_term / n),
        "linear": b * log_term / (3.0 * n),
    }


def freedman_radius(n: int, sigma2: float, b: float, delta: float) -> float:
    """Oracle Bernstein/Freedman radius for the normalized sum.

    radius = sqrt(2 sigma^2 log(1/delta) / n) + b log(1/delta) / (3 n)

    One-sided coverage at least ``1 - delta`` for bounded martingale
    differences with conditional variance ``sigma2`` and ``|Z_i| <= b``.
    """
    return recompose(freedman_terms(n, sigma2, b, delta))


def freedman_interval(center: float, n: int, sigma2: float, b: float, delta: float) -> IntervalResult:
    """:func:`freedman_radius` around ``center``.  Each side misses with
    probability at most ``delta``, so the two-sided level is ``1 - 2 delta``."""
    return _interval(center, 1.0 - 2.0 * delta, freedman_terms(n, sigma2, b, delta))


def mds_predictable_radius(pred_qv: float, b: float, t: float) -> float:
    """Self-normalized radius for the *unnormalized* sum M_n in terms of the
    predictable quadratic variation: sqrt(2 <M>_n t) + b t / 3.

    Two-sided coverage at least ``1 - 2 exp(-t)``.
    """
    _check_nonneg(pred_qv, "pred_qv")
    _check_nonneg(b, "b")
    _check_nonneg(t, "t")
    return math.sqrt(2.0 * pred_qv * t) + b * t / 3.0


def mds_empirical_terms(qv, b: float, t: float) -> dict:
    """The terms ``leading = sqrt(2 [M]_n t)`` and ``linear = 3.15 b t`` of
    :func:`mds_empirical_radius`, unchecked; ``qv`` may be an array."""
    return {"leading": _sqrt(2.0 * qv * t), "linear": EMPIRICAL_LINEAR_CONSTANT * b * t}


def mds_empirical_radius(qv, b: float, t: float):
    """Fully empirical radius for the unnormalized sum M_n in terms of the
    observable quadratic variation: sqrt(2 [M]_n t) + 3.15 b t.

    Two-sided coverage at least ``1 - 3 exp(-t)``.  ``qv`` may be an array
    of per-row values.
    """
    _check_stat(qv, "qv")
    _check_nonneg(b, "b")
    _check_nonneg(t, "t")
    terms = mds_empirical_terms(qv, b, t)
    return terms["leading"] + terms["linear"]


def mds_empirical_interval(values, b: float, delta: float) -> IntervalResult:
    """Interval for the mean of bounded martingale increments ``values`` at
    level ``1 - 3 delta``, centered at their sample mean.

    With ``t = log(1/delta)`` the breakdown is :func:`mds_empirical_terms`
    with each term divided by n.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("values must be a nonempty 1-d sequence")
    b = _check_nonneg(b, "b")
    delta = _check_prob(delta, "delta")
    n, t = x.size, math.log(1.0 / delta)
    terms = mds_empirical_terms(float(np.sum(x * x)), b, t)
    breakdown = {k: v / n for k, v in terms.items()}
    return _interval(float(np.mean(x)), 1.0 - 3.0 * delta, breakdown)


def inflation_factor(n_eff: int, delta: float) -> float:
    """Deterministic self-normalization inflation 1 / (1 - sqrt(2 log(1/delta) / n_eff)).

    Defined only when ``n_eff > 2 log(1/delta)``; always > 1.
    """
    return _inflation(n_eff, delta, "n_eff", "effective samples", "")


def _inflation(count, delta, name: str, what: str, got: str) -> float:
    """1 / (1 - sqrt(2 log(1/delta) / count)) for the argument ``name``; too
    few ``what`` raise PreconditionError, ``got`` prefixing the count."""
    count = _check_count(count, name)
    delta = _check_prob(delta, "delta")
    log_term = math.log(1.0 / delta)
    if count <= 2.0 * log_term:
        raise PreconditionError(
            f"inflation undefined: too few {what} "
            f"(need {name} > 2 log(1/delta) = {2.0 * log_term:.6g}, got {got}{count})"
        )
    return 1.0 / (1.0 - math.sqrt(2.0 * log_term / count))


def eb_leading(css, n: int, log_term: float):
    """Leading empirical-Bernstein term sqrt(2 css log(1/delta)) / n; ``css``
    may be an array of per-row values."""
    return _sqrt(2.0 * css * log_term) / n


def eb_terms(n: int, b: float, delta: float) -> dict:
    """The empirical-Bernstein terms that do not depend on the data: the
    linear term 3.15 b log(1/delta) / n and the inflation over n samples."""
    nu = inflation_factor(n, delta)
    return {"linear": EMPIRICAL_LINEAR_CONSTANT * b * math.log(1.0 / delta) / n, "inflation": nu}


def eb_interval(summary: SampleSummary, delta: float) -> IntervalResult:
    """Empirical-Bernstein interval for the marginal mean at level ``1 - 3 delta``.

    radius = nu * ( sqrt(2 css log(1/delta) / n^2) + 3.15 b log(1/delta) / n )

    with ``nu = inflation_factor(n, delta)``.  ``summary.b`` must bound
    ``|Z_i|`` (not the range width).  For ``delta >= 1/3`` the nominal level
    is vacuous; the interval is still computed and flagged.
    """
    delta = _check_prob(delta, "delta")
    terms = eb_terms(summary.n, summary.b, delta)
    leading = eb_leading(summary.css, summary.n, math.log(1.0 / delta))
    return _interval(summary.mean, 1.0 - 3.0 * delta, {"leading": leading, **terms})


def eb_interval_alpha(summary: SampleSummary, alpha: float) -> IntervalResult:
    """Empirical-Bernstein interval parametrized by ``alpha``: the same as
    :func:`eb_interval` with ``delta = 2 alpha / 3`` and level ``1 - 2 alpha``."""
    if not (0.0 < _check_finite(alpha, "alpha") < 1.5):
        raise DomainError(f"alpha must lie in (0, 1.5), got {alpha!r}")
    return eb_interval(summary, delta=2.0 * alpha / 3.0)


def ignore_linear_rows(css, n: int, log_term: float, nu: float, xi_n: float):
    """:func:`ignore_linear_radius` from ``css``, which may be an array of
    per-row values, and the unchecked constants ``nu`` and ``xi_n``."""
    return nu * (1.0 + xi_n) * _sqrt(2.0 * log_term * css) / n


def _check_xi(xi_n):
    """``xi_n`` as a finite float > 0: at xi_n = 0 the burn-in condition
    ``eta sigma2 >= 5 b^2 log(1/delta) / (n xi_n^2)`` never holds, so the
    interval would have no proven level."""
    if _check_finite(xi_n, "xi_n") <= 0:
        raise DomainError(f"xi_n must be > 0 (no burn-in holds at xi_n <= 0), got {xi_n!r}")
    return float(xi_n)


def ignore_linear_radius(summary: SampleSummary, delta: float, xi_n: float) -> float:
    """Simplified radius with the linear b-term dropped:

    radius = nu * (1 + xi_n) * sqrt(2 log(1/delta) css / n^2)

    Valid for IID data at level ``1 - 3 delta - penalty`` once
    ``n >= burn_in_threshold(...)``; see :func:`ignorance_penalty`.  No n
    is past burn-in at ``xi_n <= 0``, so that raises DomainError.
    """
    delta = _check_prob(delta, "delta")
    _check_xi(xi_n)
    nu = inflation_factor(summary.n, delta)
    return ignore_linear_rows(summary.css, summary.n, math.log(1.0 / delta), nu, xi_n)


def ignore_linear_interval(summary: SampleSummary, delta: float, xi_n: float) -> IntervalResult:
    """:func:`ignore_linear_radius` as an interval at level ``1 - 3 delta``,
    flagged ``penalty_unquantified`` (the proven level, past burn-in, is lower
    by a penalty of the true sigma2 and m4), with breakdown ``leading``
    (:func:`ignore_linear_rows` at ``nu = 1``) and the inflation.  Its radius,
    inflation times leading, may differ from :func:`ignore_linear_radius` in the last bit."""
    delta = _check_prob(delta, "delta")
    _check_xi(xi_n)
    nu = inflation_factor(summary.n, delta)
    leading = ignore_linear_rows(summary.css, summary.n, math.log(1.0 / delta), 1.0, xi_n)
    return _interval(summary.mean, 1.0 - 3.0 * delta, {"leading": leading, "inflation": nu},
                     ("penalty_unquantified",))


def maurer_pontil_log_term(n: int, delta: float) -> float:
    """Check the arguments of :func:`maurer_pontil_radius` and return its
    ``log(2/delta)``."""
    _check_count(n, minimum=2)
    return math.log(2.0 / _check_prob(delta, "delta"))


def maurer_pontil_leading(sample_var_unbiased, n: int, log_term: float):
    """Leading term sqrt(2 vhat L / n) of :func:`maurer_pontil_radius`, with
    L = ``log_term`` unchecked; ``sample_var_unbiased`` may be an array."""
    return _sqrt(2.0 * sample_var_unbiased * log_term / n)


def maurer_pontil_terms(n: int, log_term: float) -> dict:
    """The other term of :func:`maurer_pontil_radius`: linear 7 L / (3 (n - 1))."""
    return {"linear": 7.0 * log_term / (3.0 * (n - 1))}


def maurer_pontil_radius(n: int, sample_var_unbiased, delta: float):
    """External empirical-Bernstein baseline for [0,1]-valued IID data
    (Maurer and Pontil, 2009):

    sqrt(2 vhat log(2/delta) / n) + 7 log(2/delta) / (3 (n - 1))

    ``sample_var_unbiased`` may be an array of per-row values.
    """
    log_term = maurer_pontil_log_term(n, delta)
    var = _check_stat(sample_var_unbiased, "sample variance")
    return maurer_pontil_leading(var, n, log_term) + maurer_pontil_terms(n, log_term)["linear"]


def ignorance_penalty(n: int, sigma2: float, m4: float, b: float, eta: float) -> float:
    """Exponentially small coverage loss paid for dropping the linear term:

    exp( - n (1-eta)^2 sigma^4 / (2 (m4 + b (1-eta) sigma^2 / 3)) )

    clamped to [0, 1].  Requires a non-degenerate variable (``sigma2 > 0``);
    ``m4`` is the fourth central moment and must satisfy ``m4 >= sigma2^2``
    (Jensen) -- a violation only triggers a warning.
    """
    n = _check_count(n)
    if _check_finite(sigma2, "sigma2") <= 0:
        raise DomainError("degenerate variable excluded: sigma2 must be > 0")
    if _check_finite(m4, "m4") <= 0:
        raise DomainError(f"m4 must be positive, got {m4!r}")
    if _check_finite(b, "b") <= 0:
        raise DomainError(f"b must be positive, got {b!r}")
    eta = _check_prob(eta, "eta")
    if m4 < sigma2 * sigma2 * (1 - 1e-12):
        warnings.warn(
            f"m4={m4} is below sigma2^2={sigma2 * sigma2}; Jensen violated", stacklevel=2
        )
    one_minus = 1.0 - eta
    exponent = -(n * one_minus * one_minus * sigma2 * sigma2) / (
        2.0 * (m4 + b * one_minus * sigma2 / 3.0)
    )
    return min(1.0, math.exp(exponent))


def burn_in_threshold(delta, eta, sigma2, b, xi, n_max) -> int | None:
    """Smallest ``n <= n_max`` with ``eta sigma2 >= 5 b^2 log(1/delta) / (n xi(n)^2)``.

    Returns ``None`` when no such n exists up to ``n_max`` ("not attained");
    for sequences with ``n xi_n^2`` decreasing the set is genuinely empty.
    ``xi`` is a callable ``n -> xi_n > 0``.
    """
    delta = _check_prob(delta, "delta")
    eta = _check_prob(eta, "eta")
    if _check_finite(sigma2, "sigma2") <= 0:
        raise DomainError("sigma2 must be > 0")
    if _check_finite(b, "b") <= 0:
        raise DomainError("b must be > 0")
    n_max = _check_count(n_max, "n_max")
    target = eta * sigma2
    threshold = 5.0 * b * b * math.log(1.0 / delta)
    for n in range(1, n_max + 1):
        xi_n = xi(n)
        if not 0 < xi_n < math.inf:  # also refuses NaN
            raise DomainError(f"xi({n}) must be a finite number > 0, got {xi_n!r}")
        if target >= threshold / (n * xi_n * xi_n):
            return n
    return None


def burn_in_power_law(delta, eta, sigma2, b, scale, power, n_max: int = 10**6) -> int | None:
    """:func:`burn_in_threshold` for ``xi_n = scale * n**power`` in closed form.

    The condition reads ``eta sigma2 scale^2 n^(1 + 2 power) >= 5 b^2
    log(1/delta)``.  For ``1 + 2 power > 0`` it first holds at the ceiling of
    ``(5 b^2 log(1/delta) / (eta sigma2 scale^2))^(1 / (1 + 2 power))``;
    otherwise its left side never grows, so only n = 1 can qualify.  The
    candidate and its neighbours are checked with the float predicate
    ``eta * sigma2 * n * xi_n * xi_n >= threshold`` on a NumPy array, which
    decides rounding ties; the result is the first n <= n_max on which it
    holds, or ``None``.  ``delta``, ``eta``, ``sigma2`` and ``b`` are as in
    :func:`burn_in_threshold` but are not checked here.
    """
    threshold = 5.0 * b * b * math.log(1.0 / delta)
    exponent = 1.0 + 2.0 * power
    lo = hi = 1
    if exponent > 0.0:
        log_n = math.log(threshold / (eta * sigma2 * scale * scale)) / exponent
        guess = math.ceil(math.exp(min(log_n, math.log(n_max + 3.0))))
        lo, hi = max(1, guess - 2), min(n_max, guess + 2)
    ns = np.arange(lo, hi + 1, dtype=float)
    xi = scale * ns**power
    hits = np.flatnonzero(eta * sigma2 * ns * xi * xi >= threshold)
    return lo + int(hits[0]) if hits.size else None
