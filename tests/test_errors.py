"""The argument checks: each passes only finite numbers of its kind and
raises DomainError, never TypeError, ValueError or OverflowError, for
anything else."""

import math

import numpy as np
import pytest

from ebmix.blocking import block_partition
from ebmix.core_bounds import SampleSummary, burn_in_threshold, ignorance_penalty
from ebmix.errors import (DomainError, _check_array, _check_count, _check_finite, _check_nonneg,
                          _check_prob)
from ebmix.mixing_bounds import (
    AgnosticKnobs, agnostic_error_budget, block_inflation, dedecker_prieur_radius,
    dedecker_prieur_tail,
)

# Values no check passes: not finite, or not a number at all.
NOT_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), None, "1", [1.0],
              np.array([0.5, 0.5])]


@pytest.mark.parametrize("value", NOT_FINITE + [0, -3, 2.5, 1e-9, True, False],
                         ids=repr)
def test_count_refuses_all_but_positive_whole_numbers(value):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        _check_count(value)


@pytest.mark.parametrize("value", [7, 7.0, np.int64(7), np.float64(7.0)], ids=repr)
def test_count_returns_an_int(value):
    count = _check_count(value)
    assert count == 7 and type(count) is int


def test_count_minimum_and_name_word_the_message():
    assert _check_count(2, minimum=2) == 2
    with pytest.raises(DomainError) as info:
        _check_count(1, minimum=2)
    assert str(info.value) == "n must be an integer >= 2, got 1"
    with pytest.raises(DomainError) as info:
        _check_count(math.inf, "cases")
    assert str(info.value) == "cases must be a positive integer, got inf"


@pytest.mark.parametrize("value", NOT_FINITE + [0, 1, -0.5, 1.5, 5e-324], ids=repr)
def test_prob_refuses_all_but_the_open_unit_interval(value):
    with pytest.raises(DomainError, match="delta must lie in the open interval"):
        _check_prob(value, "delta")


@pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
def test_finite_and_nonneg_refuse_what_is_not_finite(value):
    for check in (_check_finite, _check_nonneg):
        with pytest.raises(DomainError, match="x must be a finite number"):
            check(value, "x")


def test_nonneg_refuses_negatives_and_finite_passes_them():
    with pytest.raises(DomainError, match="x must be nonnegative, got -1e-300"):
        _check_nonneg(-1e-300, "x")
    assert _check_finite(-3, "x") == -3.0 and type(_check_finite(-3, "x")) is float
    assert _check_nonneg(0, "x") == 0.0 and _check_prob(0.25, "p") == 0.25


@pytest.mark.parametrize("values", [[[1.0], [1.0, 2.0]], [1.0, [2.0]]], ids=repr)
def test_array_refuses_a_ragged_list(values):
    with pytest.raises(DomainError, match="^values must hold finite numbers only$"):
        _check_array(values, "values")


def _agnostic_budget(tv_phi_product):
    return agnostic_error_budget(100, block_partition(100, 10), AgnosticKnobs(0, 1, 1),
                                 tv_phi_product)


def _burn_in(sigma2, b, xi_n=1.0):
    return burn_in_threshold(0.05, 0.5, sigma2, b, lambda n: xi_n, 10)


# Library entry points whose positivity test alone let a NaN or an inf through:
# (call, the argument the message names).
NOT_FINITE_ARGUMENTS = {
    "agnostic tv_phi_product nan": (lambda: _agnostic_budget(math.nan), "tv_phi_product"),
    "agnostic tv_phi_product inf": (lambda: _agnostic_budget(math.inf), "tv_phi_product"),
    "penalty sigma2 nan": (lambda: ignorance_penalty(100, math.nan, 1, 1, 0.5), "sigma2"),
    "penalty m4 nan": (lambda: ignorance_penalty(100, 1, math.nan, 1, 0.5), "m4"),
    "penalty b nan": (lambda: ignorance_penalty(100, 1, 1, math.nan, 0.5), "b"),
    "burn-in sigma2 nan": (lambda: _burn_in(math.nan, 1), "sigma2"),
    "burn-in b nan": (lambda: _burn_in(1, math.nan), "b"),
    "burn-in xi nan": (lambda: _burn_in(1, 1, math.nan), r"xi\(1\)"),
    "summary range nan": (lambda: SampleSummary(2, 0.5, 1, 1, range=(math.nan, 1)), "range"),
    "summary range inf": (lambda: SampleSummary(2, 0.5, 1, 1, range=(0, math.inf)), "range"),
    "dedecker radius tv_norm inf": (lambda: dedecker_prieur_radius(400, math.inf, 0.8, 0.05),
                                    "tv_norm"),
    "dedecker radius phi_tilde_sum inf": (
        lambda: dedecker_prieur_radius(400, 1.5, math.inf, 0.05), "phi_tilde_sum"),
    "dedecker tail t inf": (lambda: dedecker_prieur_tail(400, math.inf, 1.5, 0.8), "t"),
    "dedecker tail tv_norm inf": (lambda: dedecker_prieur_tail(400, 0.5, math.inf, 0.8),
                                  "tv_norm"),
    "dedecker tail phi_tilde_sum inf": (lambda: dedecker_prieur_tail(400, 0.5, 1.5, math.inf),
                                        "phi_tilde_sum"),
}


@pytest.mark.parametrize("call, name", NOT_FINITE_ARGUMENTS.values(), ids=NOT_FINITE_ARGUMENTS)
def test_library_entry_points_refuse_arguments_that_are_not_finite(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
        call()


# Library entry points that took any count: (call, the count the message names).
NOT_A_COUNT_ARGUMENTS = {
    "inflation m nan": (lambda: block_inflation(math.nan, 0.05), "m"),
    "inflation m inf": (lambda: block_inflation(math.inf, 0.05), "m"),
}


@pytest.mark.parametrize("call, name", NOT_A_COUNT_ARGUMENTS.values(), ids=NOT_A_COUNT_ARGUMENTS)
def test_library_entry_points_refuse_counts_that_are_not_whole_numbers(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be a positive integer"):
        call()
