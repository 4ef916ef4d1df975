"""The argument checks: each passes only finite numbers of its kind and
raises DomainError, never TypeError, ValueError or OverflowError, for
anything else."""

import math

import numpy as np
import pytest

from ebmix.errors import DomainError, _check_count, _check_finite, _check_nonneg, _check_prob

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


@pytest.mark.parametrize("value", NOT_FINITE + [0, 1, -0.5, 1.5], ids=repr)
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
