"""Unit tests for the fixed-n radii: frozen hand-evaluated values, domain
errors, and algebraic properties."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmix import (
    DomainError,
    IntervalResult,
    PreconditionError,
    SampleSummary,
    burn_in_threshold,
    eb_interval,
    eb_interval_alpha,
    freedman_radius,
    ignorance_penalty,
    ignore_linear_radius,
    inflation_factor,
    mds_empirical_radius,
    mds_predictable_radius,
    recompose,
    summarize,
)
from ebmix.core_bounds import ignore_linear_interval, mds_empirical_interval

RTOL = 1e-9


def test_freedman_variance_term_vanishes():
    assert freedman_radius(100, 0.0, 1.0, math.exp(-2)) == pytest.approx(
        0.006666666666666667, rel=RTOL
    )


def test_freedman_hand_value():
    assert freedman_radius(100, 1.0, 1.0, math.exp(-2)) == pytest.approx(
        0.20666666666666667, rel=RTOL
    )


def test_freedman_vanishes_as_delta_to_one():
    assert freedman_radius(100, 1.0, 1.0, 1.0 - 1e-12) < 1e-5


def test_freedman_domain_errors():
    with pytest.raises(DomainError):
        freedman_radius(0, 1.0, 1.0, 0.1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            freedman_radius(10, 1.0, 1.0, bad)


def test_mds_predictable_values():
    assert mds_predictable_radius(0.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=RTOL)
    assert mds_predictable_radius(8.0, 1.0, 1.0) == pytest.approx(4.0 + 1.0 / 3.0, rel=RTOL)
    assert mds_predictable_radius(5.0, 2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        mds_predictable_radius(-1.0, 1.0, 1.0)


def test_mds_empirical_values():
    assert mds_empirical_radius(0.0, 1.0, 1.0) == pytest.approx(3.15, rel=RTOL)
    assert mds_empirical_radius(8.0, 1.0, 1.0) == pytest.approx(7.15, rel=RTOL)
    assert mds_empirical_radius(5.0, 2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        mds_empirical_radius(1.0, -1.0, 1.0)


def test_inflation_factor_values():
    assert inflation_factor(8, math.exp(-1)) == pytest.approx(2.0, rel=RTOL)
    assert inflation_factor(100, math.exp(-2)) == pytest.approx(1.25, rel=RTOL)
    assert inflation_factor(10**12, 0.05) == pytest.approx(1.0, rel=1e-5)


def test_inflation_factor_precondition():
    with pytest.raises(PreconditionError, match="inflation undefined"):
        inflation_factor(4, math.exp(-2))  # n = 2 log(1/delta) exactly


def test_eb_interval_css_zero():
    s = SampleSummary(n=100, mean=0.5, css=0.0, b=1.0)
    res = eb_interval(s, math.exp(-2))
    assert res.radius == pytest.approx(0.07875, rel=RTOL)
    assert res.level == pytest.approx(1.0 - 3.0 * math.exp(-2), rel=RTOL)
    assert res.center == 0.5


def test_eb_interval_constant_data_centers_exactly():
    values = np.full(50, 0.37)
    res = eb_interval(summarize(values, b=1.0), 0.05)
    assert res.center == pytest.approx(0.37, rel=1e-15)
    assert res.breakdown["leading"] == 0.0


def test_eb_interval_hand_value_n400():
    s = SampleSummary(n=400, mean=0.0, css=100.0, b=1.0)
    res = eb_interval(s, math.exp(-2))
    assert res.breakdown["leading"] == pytest.approx(0.05, rel=RTOL)
    assert res.breakdown["inflation"] == pytest.approx(1.0 / 0.9, rel=RTOL)
    assert res.radius == pytest.approx(0.07305555555555556, rel=RTOL)


def test_eb_interval_vacuous_level_flag():
    s = SampleSummary(n=1000, mean=0.0, css=10.0, b=1.0)
    res = eb_interval(s, 0.4)
    assert res.level < 0
    assert "vacuous_level" in res.flags
    assert res.radius > 0


def test_eb_interval_alpha_substitution():
    s = SampleSummary(n=1000, mean=0.2, css=50.0, b=1.0)
    assert eb_interval_alpha(s, 0.05) == eb_interval(s, 2.0 * 0.05 / 3.0)
    assert eb_interval_alpha(s, 0.3).level == pytest.approx(0.4, rel=RTOL)
    assert eb_interval_alpha(s, 0.3).radius == eb_interval(s, 0.2).radius


def test_eb_interval_alpha_radius_grows_as_alpha_shrinks():
    s = SampleSummary(n=1000, mean=0.2, css=50.0, b=1.0)
    radii = [eb_interval_alpha(s, a).radius for a in (0.3, 0.1, 0.03, 0.01, 0.001)]
    assert all(r2 > r1 for r1, r2 in zip(radii, radii[1:]))


def test_ignore_linear_radius_values():
    zero = SampleSummary(n=100, mean=0.0, css=0.0, b=1.0)
    assert ignore_linear_radius(zero, math.exp(-2), 0.1) == 0.0
    s = SampleSummary(n=100, mean=0.0, css=25.0, b=1.0)
    assert ignore_linear_radius(s, math.exp(-2), 0.1) == pytest.approx(0.1375, rel=RTOL)


@pytest.mark.parametrize("xi", [0.0, -0.0, -0.1, -5e-324, -math.inf, math.nan])
@pytest.mark.parametrize("bound", [ignore_linear_radius, ignore_linear_interval])
def test_ignore_linear_refuses_xi_at_or_below_zero(bound, xi):
    # No n is past burn-in at xi_n <= 0 (eta sigma2 >= 5 b^2 log(1/delta) /
    # (n xi_n^2) never holds), so the interval would have no proven level.
    s = SampleSummary(n=100, mean=0.0, css=25.0, b=1.0)
    with pytest.raises(DomainError, match="xi_n must be"):
        bound(s, 0.05, xi)
    assert bound(s, 0.05, 5e-324) is not None  # the smallest positive xi_n is accepted


def test_ignore_linear_below_eb_when_xi_small():
    # dropping the positive linear term beats the (1 + xi) factor whenever
    # xi * leading <= linear
    s = SampleSummary(n=1000, mean=0.0, css=250.0, b=1.0)
    delta = 0.05
    log_term = math.log(1.0 / delta)
    leading = math.sqrt(2.0 * s.css * log_term) / s.n
    linear = 3.15 * s.b * log_term / s.n
    xi = 0.5 * linear / leading
    assert ignore_linear_radius(s, delta, xi) < eb_interval(s, delta).radius


def test_ignorance_penalty_rademacher():
    assert ignorance_penalty(100, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
        2.222515695969596e-05, rel=RTOL
    )


def test_ignorance_penalty_vacuous_as_eta_to_one():
    assert ignorance_penalty(100, 1.0, 1.0, 1.0, 1.0 - 1e-12) == pytest.approx(1.0, rel=1e-9)


def test_ignorance_penalty_decreasing_in_n():
    vals = [ignorance_penalty(n, 0.5, 0.3, 1.0, 0.4) for n in (10, 50, 250, 1250)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ignorance_penalty_degenerate_and_jensen():
    with pytest.raises(DomainError, match="degenerate"):
        ignorance_penalty(100, 0.0, 1.0, 1.0, 0.5)
    with pytest.warns(UserWarning, match="Jensen"):
        ignorance_penalty(100, 1.0, 0.5, 1.0, 0.5)


def test_burn_in_threshold_hand_value():
    # xi_n = n^(-1/4), b = 1, log(1/delta) = 1, eta sigma2 = 0.125:
    # need sqrt(n) >= 40, so the first qualifying n is 1600
    n = burn_in_threshold(math.exp(-1), 0.5, 0.25, 1.0, lambda n: n**-0.25, 10_000)
    assert n == 1600


def test_burn_in_threshold_immediate():
    assert burn_in_threshold(0.1, 0.9, 1e6, 1.0, lambda n: 1.0, 100) == 1


def test_burn_in_threshold_not_attained():
    # n * xi_n^2 = n^(-0.2) decreases, so the condition can never start holding
    assert burn_in_threshold(math.exp(-1), 0.5, 0.25, 1.0, lambda n: n**-0.6, 50_000) is None


def test_summarize_matches_two_pass_and_resists_cancellation():
    rng = np.random.default_rng(0)
    x = 1e8 + rng.uniform(0, 1, size=1000)
    s = summarize(x, b=1e9)
    direct = float(np.sum((x - x.mean()) ** 2))
    assert s.css == pytest.approx(direct, rel=1e-9)
    assert s.mean == pytest.approx(float(x.mean()), rel=1e-12)


# The two readers of a raw sample, which check it alike.
_READERS = {"summarize": lambda values, b: summarize(values, b=b),
            "mds_empirical_interval": lambda values, b: mds_empirical_interval(values, b, 0.01)}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("values, b, top", [
    ([0.0, 2.0], 1.0, 2.0),
    ([0.5, 0.7, 0.9] * 50, 0.0, 0.9),  # b = 0 once passed without a word
    ([0.0, -1e-300], 0.0, 1e-300),
    ([1.0, -(1.0 + 2e-12)], 1.0, 1.0 + 2e-12),
    # mds_empirical_interval once gave radius 12.6 at level 0.97 here
    ([5.0, -5.0, 3.0], 1.0, 5.0),
])
def test_summarize_refuses_data_beyond_b(reader, values, b, top):
    with pytest.raises(DomainError) as info:
        _READERS[reader](np.array(values), b)
    assert str(info.value) == f"data exceed the declared bound: max |x| = {top!r} > b = {b!r}"


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("values, message", [
    (["a"], "values must hold finite numbers only"),  # once numpy's ValueError
    ([math.nan], "values must hold finite numbers only"),  # once blamed on breakdown['leading']
    ([0.5, math.inf], "values must hold finite numbers only"),
    ([[0.5, 0.25]], "values must be a nonempty 1-d sequence"),
    ([], "values must be a nonempty 1-d sequence"),
], ids=["string", "nan", "inf", "2-d", "empty"])
def test_raw_sample_readers_refuse_what_is_not_a_finite_1d_sample(reader, values, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _READERS[reader](values, 1.0)


def test_summarize_accepts_data_at_b():
    assert summarize(np.zeros(5), b=0.0).css == 0.0
    assert summarize(np.array([1.0, -(1.0 + 1e-13)]), b=1.0).n == 2


def test_sample_summary_validation():
    with pytest.raises(DomainError):
        SampleSummary(n=0, mean=0.0, css=0.0, b=1.0)
    with pytest.raises(DomainError):
        SampleSummary(n=10, mean=0.0, css=-1.0, b=1.0)
    with pytest.raises(DomainError):
        SampleSummary(n=2, mean=0.5, css=100.0, b=1.0, range=(0.0, 1.0))
    with pytest.raises(DomainError, match=re.escape("range must satisfy a <= b, got (1.0, 0.0)")):
        SampleSummary(n=2, mean=0.5, css=0.0, b=1.0, range=(1.0, 0.0))
    for field in ("mean", "css", "b"):  # each once gave a NaN or infinite interval
        for value in (math.nan, math.inf, -math.inf):
            stats = {"n": 10, "mean": 0.5, "css": 1.0, "b": 1.0, field: value}
            with pytest.raises(DomainError, match=f"{field} must be a finite number"):
                SampleSummary(**stats)


def _refused(**stats) -> bool:
    try:
        SampleSummary(**stats)
    except DomainError as err:
        assert "exceeds n*(hi - mean)*(mean - a)" in str(err)
        return True
    return False


def test_range_check_is_bhatia_davis_and_scales_with_the_data():
    # Data in [0, 1e-8] with mean 0 are all 0, so css must be 0; the old
    # absolute slack of 1e-12 let css = 1e-13 through.  Then Bhatia–Davis
    # at its edge, just past it, within the width bound n*width^2 but past
    # n*(hi - mean)*(mean - a), at the middle, and a mean outside the range.
    edge = 100 * 0.75e-8 * 0.25e-8
    cases = [(0.0, 1e-13), (0.0, 0.0), (0.25e-8, edge), (0.25e-8, edge * (1 + 1e-6)),
             (0.25e-8, 0.9 * 100 * 1e-16), (0.5e-8, 100 * 0.25e-16), (-1e-9, 0.0)]
    refused = [True, False, False, True, True, False, True]
    for k in (-20, 0, 20):
        s = 2.0**k
        got = [_refused(n=100, mean=mean * s, css=css * s * s, b=1e-8 * s,
                        range=(0.0, 1e-8 * s)) for mean, css in cases]
        assert got == refused, k


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 0.7), (0.1, 0.3), (1e3, 1e3 + 1e-6),
                                    (-2.0**-30, 2.0**-29)])
def test_summarize_accepts_data_inside_the_range(lo, hi):
    rng = np.random.default_rng(7)
    b = max(abs(lo), abs(hi))
    for n in (1, 2, 17, 100_000):
        summarize(lo + (hi - lo) * rng.random(n), b=b, range=(lo, hi))
        for value in (lo, hi, (lo + hi) / 2):
            assert summarize(np.full(n, value), b=b, range=(lo, hi)).css == 0.0
        for k in {1, n // 3, n // 2, n - 1} - {0, n}:
            ends = np.where(np.arange(n) < k, lo, hi)
            for x in (ends, ends[::-1], rng.permutation(ends)):
                summarize(x, b=b, range=(lo, hi))


def test_interval_result_recomposition_enforced():
    with pytest.raises(DomainError, match="recomposes"):
        IntervalResult(center=0.0, radius=1.0, level=0.9, breakdown={"leading": 0.3})


def test_interval_result_ends_and_recomposed_radius():
    r = IntervalResult(center=0.5, radius=0.25, level=0.9,
                       breakdown={"inflation": 2.0, "leading": 0.1, "remainder": 0.05})
    assert (r.lo, r.hi) == (0.25, 0.75)
    assert r.recomposed() == 0.25


# -- properties -------------------------------------------------------------

positive = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)
# zero or comfortably-normal floats: keeps products away from underflow,
# where sqrt would lose the bits the equivariance check relies on
nonneg = st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=1e6))


@given(qv=nonneg, b=nonneg, t=nonneg, c=st.floats(min_value=1e-3, max_value=1e3))
def test_mds_empirical_scale_equivariance(qv, b, t, c):
    lhs = mds_empirical_radius(c * c * qv, c * b, t)
    rhs = c * mds_empirical_radius(qv, b, t)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(
    css=nonneg,
    n=st.integers(min_value=100, max_value=10**7),
    delta=st.floats(min_value=1e-6, max_value=0.3),
    xi=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
)
def test_ignore_linear_interval_matches_radius(css, n, delta, xi):
    # The interval's radius, nu * ((1 + xi) sqrt(...) / n), groups the
    # product differently from ignore_linear_radius; it may only round apart.
    s = SampleSummary(n=n, mean=0.25, css=css, b=1.0)
    res = ignore_linear_interval(s, delta, xi)
    assert res.level == 1.0 - 3.0 * delta
    assert res.radius == pytest.approx(ignore_linear_radius(s, delta, xi), rel=1e-14, abs=1e-300)


@given(
    values=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=50),
    delta=st.floats(min_value=1e-6, max_value=0.3),
)
def test_mds_empirical_interval_is_radius_over_n(values, delta):
    x = np.asarray(values)
    t = math.log(1.0 / delta)
    res = mds_empirical_interval(x, 1.0, delta)
    expected = mds_empirical_radius(float(np.sum(x * x)), 1.0, t) / x.size
    assert res.radius == pytest.approx(expected, rel=1e-14)


@given(
    qv=nonneg,
    b=nonneg,
    t=st.floats(min_value=0.0, max_value=100.0),
    bump=st.floats(min_value=1e-9, max_value=100.0),
)
def test_mds_empirical_monotone(qv, b, t, bump):
    base = mds_empirical_radius(qv, b, t)
    assert mds_empirical_radius(qv + bump, b, t) >= base
    assert mds_empirical_radius(qv, b + bump, t) >= base
    assert mds_empirical_radius(qv, b, t + bump) >= base


@given(
    n=st.integers(min_value=50, max_value=10**6),
    css=nonneg,
    b=positive,
    delta=st.floats(min_value=1e-6, max_value=0.2),
    shrink=st.floats(min_value=0.05, max_value=0.95),
)
def test_eb_interval_monotone_in_delta_css_b(n, css, b, delta, shrink):
    s = SampleSummary(n=n, mean=0.0, css=css, b=b)
    base = eb_interval(s, delta).radius
    assert eb_interval(s, delta * shrink).radius >= base
    assert eb_interval(SampleSummary(n=n, mean=0.0, css=css * 2 + 1, b=b), delta).radius >= base
    assert eb_interval(SampleSummary(n=n, mean=0.0, css=css, b=b * 2), delta).radius >= base


@given(
    n=st.integers(min_value=30, max_value=10**5),
    css=nonneg,
    b=positive,
    delta=st.floats(min_value=1e-5, max_value=0.3),
)
@settings(max_examples=200)
def test_eb_interval_recomposition(n, css, b, delta):
    if n <= 2 * math.log(1 / delta):
        return
    res = eb_interval(SampleSummary(n=n, mean=0.1, css=css, b=b), delta)
    assert recompose(res.breakdown) == pytest.approx(res.radius, rel=1e-12, abs=1e-300)
