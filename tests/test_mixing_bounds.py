"""Mixing-regime intervals: frozen hand values, reductions, error budgets."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmix import (
    AgnosticKnobs,
    DomainError,
    ErrorBudget,
    MixingBudget,
    PreconditionError,
    agnostic_error_budget,
    agnostic_interval,
    block_inflation,
    block_partition,
    block_summary,
    dedecker_prieur_radius,
    dedecker_prieur_tail,
    finite_markov,
    inflation_factor,
    mixing_budget_for,
    phi_interval,
    recompose,
    tilde_phi_interval,
)
from ebmix.mixing_bounds import agnostic_errors, mixing_terms

RTOL = 1e-9


def _summary_with_vhat(n, floor_l, vhat, center=0.5):
    """Constant-per-block values alternating around `center` so that the
    block variance equals `vhat` exactly (up to rounding)."""
    p = block_partition(n, floor_l)
    d = math.sqrt(vhat * p.n / (p.m * p.floor_l**2))
    levels = [center + d if j % 2 == 0 else center - d for j in range(p.m)]
    values = np.concatenate(
        [np.repeat(levels, p.floor_l), np.full(p.remainder_size, center)]
    )
    return block_summary(values, p)


def test_summary_with_vhat_helper():
    s = _summary_with_vhat(100, 10, 0.25)
    assert s.v_hat == pytest.approx(0.25, rel=1e-9)


def test_block_inflation_boundary():
    # m = 2 equals 2 log(1/delta) at delta = e^-1: undefined
    with pytest.raises(PreconditionError, match="too few blocks"):
        block_inflation(2, math.exp(-1))
    assert block_inflation(10, math.exp(-2)) == pytest.approx(
        1.0 / (1.0 - math.sqrt(0.4)), rel=RTOL
    )


@pytest.mark.parametrize("delta", [1e-300, 1e-9, 0.001, 0.01, 0.05, math.exp(-1), 0.5, 0.99])
def test_block_inflation_is_inflation_factor_bit_for_bit(delta):
    for count in (1, 2, 3, 5, 9, 10, 11, 19, 20, 50, 100, 1000, 12345, 10**9):
        try:
            expected = inflation_factor(count, delta)
        except PreconditionError:
            with pytest.raises(PreconditionError, match="too few blocks"):
                block_inflation(count, delta)
        else:
            assert block_inflation(count, delta).hex() == expected.hex()


def test_inflation_errors_keep_their_words():
    with pytest.raises(PreconditionError, match=re.escape(
            "inflation undefined: too few effective samples "
            "(need n_eff > 2 log(1/delta) = 9.21034, got 9)")):
        inflation_factor(9, 0.01)
    with pytest.raises(PreconditionError, match=re.escape(
            "inflation undefined: too few blocks (need m > 2 log(1/delta) = 9.21034, got m = 9)")):
        block_inflation(9, 0.01)
    with pytest.raises(DomainError, match="^n_eff must be a positive integer, got 0$"):
        inflation_factor(0, 0.01)
    with pytest.raises(DomainError, match="^m must be a positive integer, got 2.5$"):
        block_inflation(2.5, 0.01)


def test_phi_interval_zero_budget_reduces_to_blocked_form():
    s = _summary_with_vhat(120, 10, 0.3)
    delta = 0.05
    res = phi_interval(s, 1.0, MixingBudget("phi", 0.0), delta, xi_n=0.0)
    n, m, fl = 120, 12, 10
    log_term = math.log(1 / delta)
    nut = 1.0 / (1.0 - math.sqrt(2 * log_term / m))
    expected = nut * (
        math.sqrt(2 * log_term * s.v_hat / n) + 3.15 * fl * 1.0 * log_term / n
    )
    assert res.radius == pytest.approx(expected, rel=RTOL)
    assert res.breakdown["mixing_sqrt"] == 0.0
    assert res.breakdown["remainder"] == 0.0


def test_phi_interval_precondition_with_two_blocks():
    s = block_summary(np.array([0.0, 0.0, 1.0, 1.0]), block_partition(4, 2))
    assert s.v_hat == pytest.approx(0.5)
    with pytest.raises(PreconditionError, match="too few blocks"):
        phi_interval(s, 1.0, MixingBudget("phi", 0.5), math.exp(-1), xi_n=0.0)


def test_phi_interval_strictly_increasing_in_budget():
    s = _summary_with_vhat(200, 10, 0.2)
    radii = [
        phi_interval(s, 1.0, MixingBudget("phi", phi), 0.05).radius
        for phi in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(b > a for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("interval, regime, message", [
    (phi_interval, "phi_tilde", "phi_interval needs a 'phi' budget, got 'phi_tilde'"),
    (tilde_phi_interval, "phi", "tilde_phi_interval needs a 'phi_tilde' budget, got 'phi'"),
])
def test_phi_interval_rejects_wrong_regime(interval, regime, message):
    s = _summary_with_vhat(200, 10, 0.2)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        interval(s, 1.0, MixingBudget(regime, 0.5, tv_norm=1.0), 0.05)


@pytest.mark.parametrize("fields, message", [
    # No bound reads an "agnostic" budget; mixing_terms once raised TypeError on one.
    ({"regime": "agnostic"}, "regime must be one of ('phi', 'phi_tilde'), got 'agnostic'"),
    ({"provenance": "guess"},
     "provenance must be one of ('exact', 'analytic_bound', 'user_supplied'), got 'guess'"),
])
def test_mixing_budget_refuses_an_unknown_regime_or_provenance(fields, message):
    with pytest.raises(DomainError) as info:
        MixingBudget(**{"regime": "phi", "phi_sum": 1.0, **fields})
    assert str(info.value) == message


def test_tilde_phi_interval_hand_value():
    s = _summary_with_vhat(100, 10, 0.25)
    budget = MixingBudget("phi_tilde", 1.0, tv_norm=1.0)
    res = tilde_phi_interval(s, 1.0, budget, math.exp(-2), xi_n=0.0)
    assert res.radius == pytest.approx(2.5017139055157336, rel=RTOL)
    assert res.level == pytest.approx(1.0 - 3.0 * math.exp(-2), rel=RTOL)
    assert res.breakdown["remainder"] == 0.0


def test_tilde_phi_interval_increasing_in_tv_norm():
    s = _summary_with_vhat(100, 10, 0.25)
    radii = [
        tilde_phi_interval(s, 1.0, MixingBudget("phi_tilde", 0.7, tv_norm=tv), 0.05).radius
        for tv in (0.5, 1.0, 2.0)
    ]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_tilde_phi_requires_tv_norm():
    s = _summary_with_vhat(100, 10, 0.25)
    with pytest.raises(DomainError, match="tv_norm"):
        tilde_phi_interval(s, 1.0, MixingBudget("phi_tilde", 0.7), 0.05)


def test_zero_budget_phi_and_tilde_coincide_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fl = int(rng.integers(2, 15))
        m = int(rng.integers(30, 80))  # enough blocks for any delta below
        n = m * fl
        s = block_summary(rng.uniform(0, 1, size=n), block_partition(n, fl))
        delta = float(rng.uniform(1e-3, 0.05))
        rw = float(rng.uniform(0.5, 2.0))
        a = phi_interval(s, rw, MixingBudget("phi", 0.0), delta, xi_n=0.0)
        b = tilde_phi_interval(
            s, rw, MixingBudget("phi_tilde", 0.0, tv_norm=1.0), delta, xi_n=0.0
        )
        assert a.radius == b.radius  # bitwise


def test_default_xi_is_one_over_n():
    s = _summary_with_vhat(100, 10, 0.25)
    budget = MixingBudget("phi", 0.3)
    assert (
        phi_interval(s, 1.0, budget, 0.05).radius
        == phi_interval(s, 1.0, budget, 0.05, xi_n=1.0 / 100).radius
    )


def test_remainder_term_added():
    # n = 105, floor_l = 10: remainder 5 adds (5/105) * range_width
    s = _summary_with_vhat(105, 10, 0.25)
    res = phi_interval(s, 2.0, MixingBudget("phi", 0.0), 0.05, xi_n=0.0)
    assert res.breakdown["remainder"] == pytest.approx(5.0 / 105.0 * 2.0, rel=RTOL)


def test_agnostic_interval_hand_value():
    s = _summary_with_vhat(100, 10, 0.25)
    knobs = AgnosticKnobs(c_n=0.005, t_n=0.01, s_n=0.01)
    res = agnostic_interval(s, 1.0, knobs, math.exp(-2))
    body = sum(v for k, v in res.breakdown.items() if k not in ("inflation", "remainder"))
    assert body == pytest.approx(0.8182, rel=RTOL)
    assert res.radius == pytest.approx(res.breakdown["inflation"] * 0.8182, rel=RTOL)
    assert "errors_unquantified" in res.flags


def test_agnostic_interval_level_subtracts_errors():
    s = _summary_with_vhat(100, 10, 0.25)
    knobs = AgnosticKnobs(c_n=0.0, t_n=0.01, s_n=0.01)
    errors = ErrorBudget(0.01, 0.002, 0.003)
    res = agnostic_interval(s, 1.0, knobs, 0.01, errors)
    assert res.level == pytest.approx(1.0 - 0.03 - 0.015, rel=RTOL)
    assert res.flags == ()


def test_agnostic_interval_additive_in_knobs():
    s = _summary_with_vhat(100, 10, 0.25)
    base = agnostic_interval(s, 1.0, AgnosticKnobs(0.0, 0.0, 0.0), 0.05).radius
    for knobs in (AgnosticKnobs(0.01, 0, 0), AgnosticKnobs(0, 0.01, 0), AgnosticKnobs(0, 0, 0.01)):
        assert agnostic_interval(s, 1.0, knobs, 0.05).radius > base


def test_agnostic_all_knobs_zero_matches_blocked_form():
    s = _summary_with_vhat(100, 10, 0.25)
    res = agnostic_interval(s, 1.0, AgnosticKnobs(0.0, 0.0, 0.0), 0.05)
    log_term = math.log(1 / 0.05)
    expected_body = math.sqrt(2 * log_term * s.v_hat / 100) + 3.15 * 10 * 1.0 * log_term / 100
    body = sum(v for k, v in res.breakdown.items() if k not in ("inflation", "remainder"))
    assert body == pytest.approx(expected_body, rel=RTOL)


def test_error_budget_hand_values():
    part = block_partition(100, 10)
    budget = agnostic_error_budget(100, part, AgnosticKnobs(0.0, 1.0, 1.0), 10.0)
    assert budget.error2 == pytest.approx(0.13475893998170946, rel=RTOL)
    assert budget.error1 == 0.0  # no remainder
    assert budget.error3 == pytest.approx(
        min(1.0, 20.0 * math.exp(-0.5 * 100.0)), abs=1e-12
    )


def test_error_budget_error1_with_remainder():
    part = block_partition(105, 10)  # remainder of 5
    knobs = AgnosticKnobs(c_n=0.1, t_n=1.0, s_n=1.0)
    budget = agnostic_error_budget(105, part, knobs, 2.0)
    expected = 2.0 * math.exp(-(105.0**2 * 0.01) / (2.0 * 5.0 * 2.0))
    assert budget.error1 == pytest.approx(expected, rel=RTOL)


@pytest.mark.parametrize("n, floor_l", [(100, 10), (105, 10), (1000, 7), (50, 50), (10**6, 200)])
@pytest.mark.parametrize("c_n, t_n, s_n", [(0.0, 0.0, 0.0), (0.01, 0.1, 0.1), (1.0, 10.0, 10.0),
                                           (1e-9, 1e-5, 1e-6), (0.3, 0.02, 0.004)])
@pytest.mark.parametrize("tv_phi", [1e-3, 0.5, 2.0, 1e6])
def test_error_budget_equals_its_written_out_terms(n, floor_l, c_n, t_n, s_n, tv_phi):
    part = block_partition(n, floor_l)
    m, rem = part.m, part.remainder_size
    budget = agnostic_error_budget(n, part, AgnosticKnobs(c_n=c_n, t_n=t_n, s_n=s_n), tv_phi)
    t = math.sqrt(n * floor_l) * t_n / tv_phi
    s = n * s_n / tv_phi
    z2, z3 = -0.5 * t * t, -0.5 * s * s
    z1 = -(n * n * c_n * c_n) / (2.0 * rem * tv_phi) if rem else None
    # An exponent at or below -745 gives 0, never a subnormal exp.
    assert budget.error2 == (min(1.0, 2.0 * m * math.exp(z2)) if z2 > -745.0 else 0.0)
    assert budget.error3 == (min(1.0, 2.0 * m * math.exp(z3)) if z3 > -745.0 else 0.0)
    if rem == 0:  # no remainder to control: Error1 is zero whatever c_n is
        assert budget.error1 == 0.0
    else:
        assert budget.error1 == (min(1.0, 2.0 * math.exp(z1)) if z1 > -745.0 else 0.0)


def test_tails_are_zero_from_an_exponent_of_minus_745():
    # z = -m t^2 / 2 = -745 exactly at m = 1490, t = 1; 2 exp(-745) is subnormal.
    assert dedecker_prieur_tail(1490, 1.0, 1.0, 1.0) == 0.0
    assert dedecker_prieur_tail(1489, 1.0, 1.0, 1.0) == 2.0 * math.exp(-744.5) > 0.0
    part = block_partition(100, 10)
    deep = agnostic_error_budget(100, part, AgnosticKnobs(0.0, 1e3, 1e3), 1.0)
    assert (deep.error1, deep.error2, deep.error3) == (0.0, 0.0, 0.0)


def test_error_budget_vanishes_as_knobs_grow():
    part = block_partition(100, 10)
    assert agnostic_error_budget(100, part, AgnosticKnobs(0, 1e6, 1e6), 1.0).total == 0.0


def test_error_budget_requires_positive_product():
    part = block_partition(100, 10)
    with pytest.raises(DomainError):
        agnostic_error_budget(100, part, AgnosticKnobs(0, 1, 1), 0.0)


def test_agnostic_errors_is_the_one_budget_rule():
    part = block_partition(105, 10)
    knobs = AgnosticKnobs(c_n=0.1, t_n=0.5, s_n=0.5)
    assert agnostic_errors(part, knobs, None) is None
    zero = MixingBudget(regime="phi_tilde", phi_sum=0.0, tv_norm=2.0)
    assert agnostic_errors(part, knobs, zero) == ErrorBudget(0.0, 0.0, 0.0)
    some = MixingBudget(regime="phi_tilde", phi_sum=0.75, tv_norm=2.0)
    assert agnostic_errors(part, knobs, some) == agnostic_error_budget(105, part, knobs, 1.5)


def test_a_phi_tilde_budget_without_tv_norm_is_refused_where_it_is_made():
    # Such a budget once reached mixing_terms and agnostic_errors, which
    # raised TypeError on None * phi_sum.
    part, knobs = block_partition(100, 10), AgnosticKnobs(0.0, 0.5, 0.5)
    with pytest.raises(DomainError, match="tv_norm"):
        MixingBudget("phi_tilde", 1.0)
    with pytest.raises(DomainError, match="tv_norm"):
        mixing_terms(part, 1.0, MixingBudget("phi_tilde", 1.0), 0.05)
    with pytest.raises(DomainError, match="tv_norm"):
        agnostic_errors(part, knobs, MixingBudget("phi_tilde", 1.0))
    assert MixingBudget("phi", 1.0).tv_norm is None


def test_agnostic_errors_refuses_a_phi_budget():
    part, knobs = block_partition(100, 10), AgnosticKnobs(0.0, 0.5, 0.5)
    for budget in (MixingBudget("phi", 1.0), MixingBudget("phi", 1.0, tv_norm=1.0)):
        with pytest.raises(DomainError, match="'phi_tilde' budget, got 'phi'"):
            agnostic_errors(part, knobs, budget)


def test_agnostic_errors_is_zero_when_the_tv_phi_product_is_zero():
    # A constant test function (tv_norm 0) gives no deviation to pay for,
    # whatever phi_sum; agnostic_error_budget itself still refuses 0.
    part, knobs = block_partition(105, 10), AgnosticKnobs(0.1, 0.5, 0.5)
    for tv_norm, phi_sum in ((0.0, 1.0), (0.0, 0.0), (2.0, 0.0)):
        budget = MixingBudget("phi_tilde", phi_sum, tv_norm=tv_norm)
        assert agnostic_errors(part, knobs, budget) == ErrorBudget(0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="tv_phi_product"):
        agnostic_error_budget(105, part, knobs, 0.0)


def test_agnostic_errors_of_a_chain_with_identical_rows_is_zero():
    # Its phi_tilde budget is an exact 0, so agnostic_errors takes the
    # zero-product branch rather than agnostic_error_budget of a residue.
    budget = mixing_budget_for(finite_markov([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0]),
                               "phi_tilde", 100)
    part, knobs = block_partition(100, 7), AgnosticKnobs(0.1, 0.5, 0.5)
    assert agnostic_errors(part, knobs, budget) == ErrorBudget(0.0, 0.0, 0.0)


def test_error_budget_monotone_in_knobs():
    part = block_partition(105, 10)
    small = agnostic_error_budget(105, part, AgnosticKnobs(0.01, 0.02, 0.02), 1.0)
    large = agnostic_error_budget(105, part, AgnosticKnobs(0.02, 0.04, 0.04), 1.0)
    assert large.error1 <= small.error1
    assert large.error2 <= small.error2
    assert large.error3 <= small.error3


def test_dedecker_tail_values():
    assert dedecker_prieur_tail(100, 0.5, 1.0, 1.0) == pytest.approx(
        7.453306344157342e-06, rel=RTOL
    )
    assert dedecker_prieur_tail(100, 1e-9, 1.0, 1.0) == 1.0  # clamps
    tails = [dedecker_prieur_tail(m, 0.5, 1.0, 1.0) for m in (10, 50, 100, 500)]
    assert all(b < a for a, b in zip(tails, tails[1:]))


def test_dedecker_radius_inverts_tail():
    radius = dedecker_prieur_radius(400, 1.5, 0.8, 0.05)
    assert dedecker_prieur_tail(400, radius, 1.5, 0.8) == pytest.approx(0.05, rel=RTOL)


def test_dedecker_refuses_arguments_that_are_not_positive_numbers():
    # A NaN tv_norm, sum or t once passed the "> 0" checks and gave NaN.
    for bad in (math.nan, -1.0):
        with pytest.raises(DomainError):
            dedecker_prieur_radius(400, bad, 0.8, 0.05)
        with pytest.raises(DomainError):
            dedecker_prieur_tail(400, 0.5, bad, 0.8)
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            dedecker_prieur_radius(400, 1.5, bad, 0.05)
        with pytest.raises(DomainError):
            dedecker_prieur_tail(400, 0.5, 1.5, bad)
        with pytest.raises(DomainError):
            dedecker_prieur_tail(400, bad, 1.5, 0.8)
    # tv_norm = 0 is a constant test function: its average is its mean.
    assert dedecker_prieur_radius(400, 0.0, 0.8, 0.05) == 0.0
    assert dedecker_prieur_tail(400, 0.5, 0.0, 0.8) == 0.0
    for count in (math.nan, math.inf, 2.5, 0):
        with pytest.raises(DomainError):
            dedecker_prieur_tail(count, 0.5, 1.5, 0.8)
        with pytest.raises(DomainError):
            dedecker_prieur_radius(count, 1.5, 0.8, 0.05)


@given(
    phi=st.floats(min_value=0.0, max_value=10.0),
    bump=st.floats(min_value=1e-6, max_value=10.0),
    rw=st.floats(min_value=0.1, max_value=3.0),
    delta=st.floats(min_value=1e-4, max_value=0.05),
)
@settings(max_examples=100)
def test_phi_radius_monotone_in_budget_and_range(phi, bump, rw, delta):
    s = _summary_with_vhat(200, 10, 0.2)
    base = phi_interval(s, rw, MixingBudget("phi", phi), delta).radius
    assert phi_interval(s, rw, MixingBudget("phi", phi + bump), delta).radius >= base
    assert phi_interval(s, rw + bump, MixingBudget("phi", phi), delta).radius >= base
    smaller_delta = delta * 0.5
    assert phi_interval(s, rw, MixingBudget("phi", phi), smaller_delta).radius >= base


@given(
    vhat=st.floats(min_value=0.0, max_value=5.0),
    delta=st.floats(min_value=5e-3, max_value=0.05),
    phi=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=100)
def test_mixing_interval_recomposition(vhat, delta, phi):
    s = _summary_with_vhat(150, 10, vhat)
    res = tilde_phi_interval(s, 1.0, MixingBudget("phi_tilde", phi, tv_norm=1.3), delta)
    assert recompose(res.breakdown) == pytest.approx(res.radius, rel=1e-12, abs=1e-300)
