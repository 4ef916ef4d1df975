"""Blocking: partition exactness, block variance, and the exact identity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmix import (
    BlockPartition,
    BlockSummary,
    DomainError,
    block_identity_residual,
    block_partition,
    block_summary,
)
from ebmix import blocking, selfcheck
from ebmix.blocking import row_sumsq, row_vhat


def test_partition_basic():
    p = block_partition(10, 3)
    assert p.floor_l == 3 and p.m == 3
    assert p.blocks == ((0, 3), (3, 6), (6, 9))
    assert p.remainder == (9, 10)
    assert p.remainder_size == 1


def test_partition_single_block():
    p = block_partition(10, 10)
    assert p.m == 1 and p.blocks == ((0, 10),)
    assert p.remainder_size == 0


def test_partition_floors_l():
    assert block_partition(10, 3.9).blocks == block_partition(10, 3).blocks


def test_partition_domain_errors():
    with pytest.raises(DomainError):
        block_partition(10, 0.5)  # floor(l) = 0
    with pytest.raises(DomainError):
        block_partition(10, 11)  # floor(l) > n
    # floor(1e308) as an exact integer once put a 309-digit number in the message
    with pytest.raises(DomainError) as caught:
        block_partition(100, 1e308)
    assert str(caught.value) == "need 1 <= floor(l) <= n = 100, got l = 1e+308"
    for l in (math.nan, math.inf, -math.inf):  # math.floor raised ValueError/OverflowError
        with pytest.raises(DomainError, match="l must be a finite number"):
            block_partition(10, l)


def test_block_summary_constant_data():
    p = block_partition(12, 4)
    s = block_summary(np.full(12, 3.3), p)
    assert s.v_hat == pytest.approx(0.0, abs=1e-24)
    assert s.h_bar == pytest.approx(3.3)


def test_block_summary_hand_value():
    p = block_partition(4, 2)
    s = block_summary(np.array([0.0, 0.0, 1.0, 1.0]), p)
    # block sums (0, 2) about floor_l * h_bar = 1: v_hat = (1 + 1) / 4, all exact
    assert (s.h_bar, s.v_hat, s.mean) == (0.5, 0.5, 0.5)


def test_block_summary_single_block_degenerates():
    p = block_partition(7, 7)
    s = block_summary(np.arange(7, dtype=float), p)
    assert s.v_hat == 0.0


def test_block_summary_uses_denominator_n_with_remainder():
    # n = 5, floor_l = 2, m = 2: remainder index 4 is excluded from h_bar and
    # the block sums, but the denominator stays n = 5
    values = np.array([0.0, 0.0, 1.0, 1.0, 100.0])
    s = block_summary(values, block_partition(5, 2))
    assert s.h_bar == pytest.approx(0.5)
    assert s.v_hat == pytest.approx((1.0 + 1.0) / 5.0, rel=1e-12)
    assert s.values_used == 4


def test_block_summary_length_mismatch():
    with pytest.raises(DomainError):
        block_summary(np.zeros(5), block_partition(6, 2))


def test_identity_residual_hand_case():
    # (0)^2 + 4 * (2)^2 - (4)^2 = 0
    assert block_identity_residual([1.0, 3.0], 1, 2, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_identity_residual_mu_equals_grand_mean():
    rng = np.random.default_rng(4)
    values = rng.normal(size=12)
    assert block_identity_residual(values, 3, 4, values.mean()) == pytest.approx(0.0, abs=1e-9)


def test_identity_residual_length_mismatch():
    with pytest.raises(DomainError):
        block_identity_residual([1.0, 2.0, 3.0], 2, 2, 0.0)


def test_identity_residual_thousand_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        l = int(rng.integers(1, 21))
        values = rng.uniform(-5, 5, size=m * l)
        mu = rng.uniform(-10, 10)
        rhs = float(np.sum((values.reshape(m, l).sum(axis=1) - l * mu) ** 2))
        res = block_identity_residual(values, m, l, mu)
        assert abs(res) <= 1e-9 * max(rhs, 1.0)


_VHAT_MUTANTS = {
    # every v_hat 0.1 % too large
    "row_vhat": lambda rule: lambda *args, **kw: 1.001 * rule(*args, **kw),
    # the sample-variance denominator n - 1 in place of n
    "_centered_vhat": lambda rule: lambda sums, fl, n: rule(sums, fl, n) * n / max(n - 1, 1),
}


@pytest.mark.parametrize("name", sorted(_VHAT_MUTANTS))
def test_check_block_identity_fails_on_a_mutated_block_variance(name, monkeypatch):
    # The identity's left side reads the library's v_hat, so a wrong v_hat
    # leaves a residual; a private copy of the centering once let both pass.
    assert selfcheck.check_block_identity(cases=200, seed=0).passed
    monkeypatch.setattr(blocking, name, _VHAT_MUTANTS[name](getattr(blocking, name)))
    result = selfcheck.check_block_identity(cases=200, seed=0)
    assert not result.passed, result.detail


def test_vhat_translation_invariance_and_scaling():
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 1, size=103)
    p = block_partition(103, 9)
    base = block_summary(values, p).v_hat
    shifted = block_summary(values + 7.25, p).v_hat
    scaled = block_summary(values * 3.0, p).v_hat
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


@given(
    n=st.integers(min_value=1, max_value=2000),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_partition_tiles_exactly(n, frac):
    l = 1.0 + frac * (n - 1) + frac * 0.999  # spans [1, n + 1)
    l = min(l, float(n) + 0.999)
    p = block_partition(n, l)
    cursor = 0
    for start, stop in p.blocks:
        assert start == cursor and stop - start == p.floor_l
        cursor = stop
    assert p.remainder == (cursor, n)
    assert p.m * p.floor_l + p.remainder_size == n


@given(
    n=st.integers(min_value=1, max_value=5000),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_partition_derives_blocks_and_remainder_from_its_numbers(n, frac):
    l = min(1.0 + frac * n, float(n) + 0.999)
    p = block_partition(n, l)
    fl = math.floor(l)
    m = n // fl
    assert (p.n, p.l, p.floor_l, p.m) == (n, l, fl, m)
    assert p.blocks == tuple((j * fl, (j + 1) * fl) for j in range(m))
    assert p.remainder == (m * fl, n)
    assert p.remainder_size == n - m * fl
    assert p.values_used == m * fl


def test_partition_stores_four_numbers_and_builds_no_tuple_per_block():
    # A partition once held one (start, stop) tuple per block: tens of MB
    # for 2e5 blocks of length 1.
    assert [f.name for f in dataclasses.fields(BlockPartition)] == ["n", "l", "floor_l", "m"]
    assert BlockPartition(n=10, l=3.0, floor_l=3, m=3).remainder_size == 1
    block_partition(10, 1)  # one-time work outside the trace
    tracemalloc.start()
    try:
        p = block_partition(2 * 10**5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.m == 2 * 10**5 and p.remainder_size == 0
    assert peak < 64 * 1024


def test_block_summary_holds_numbers_only_and_derives_values_used():
    assert [f.name for f in dataclasses.fields(BlockSummary)] == [
        "partition", "h_bar", "v_hat", "mean"]
    values = np.random.default_rng(12).normal(size=1003)
    s = block_summary(values, block_partition(1003, 10))
    assert all(type(v) is float for v in (s.h_bar, s.v_hat, s.mean))
    pairwise_sums = values[:1000].reshape(100, 10).sum(axis=1)
    assert s.h_bar == float(pairwise_sums.sum()) / 1000
    assert s.v_hat == float(row_vhat(values[None, :], 100, 10)[0])
    assert s.values_used == 1000


def test_block_summary_at_block_length_one_holds_one_array_of_block_sums():
    # Two passes of block sums and their tuple of Python floats peaked at 6x
    # the values; one pass of float64 sums, centered in place, is 1x.
    x = np.random.default_rng(13).random(2 * 10**5)
    p = block_partition(x.size, 1)
    block_summary(x[:10], block_partition(10, 1))  # one-time work outside the trace
    tracemalloc.start()
    try:
        s = block_summary(x, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.v_hat == float(row_vhat(x[None, :], x.size, 1)[0])
    assert peak < 1.25 * x.nbytes


@given(
    m=st.integers(min_value=1, max_value=12),
    l=st.integers(min_value=1, max_value=12),
    mu=st.floats(min_value=-100, max_value=100),
    data=st.data(),
)
@settings(max_examples=200)
def test_identity_residual_is_algebraically_zero(m, l, mu, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=m * l,
            max_size=m * l,
        )
    )
    arr = np.asarray(values)
    rhs = float(np.sum((arr.reshape(m, l).sum(axis=1) - l * mu) ** 2))
    assert abs(block_identity_residual(arr, m, l, mu)) <= 1e-9 * max(rhs, 1.0)


# Values whose partial sums are all exact floats, as processes.sums_are_exact
# reports for their process: any summation order gives the same block sums.
_EXACT_DATA = {
    "bernoulli": lambda rng, shape: (rng.random(shape) < 0.3).astype(float),
    "rademacher": lambda rng, shape: np.where(rng.random(shape) < 0.5, -1.0, 1.0),
    "halves": lambda rng, shape: rng.choice([0.0, -0.0, 0.5, 1.0], size=shape),
    "dyadic_scales": lambda rng, shape: (
        np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        * np.array([0.125, 1.5, 3.0, 0.25])[np.arange(shape[1]) % 4]
    ),
}
_BLOCK_LENGTHS = (1, 2, 7, 8, 9, 15, 16, 128, 129, 131, 251)


def _vhat_bits(vals, fl, exact):
    return row_vhat(vals, vals.shape[1] // fl, fl, exact).view(np.uint64)


@pytest.mark.parametrize("rows", (1, 2, 94))
@pytest.mark.parametrize("fl", _BLOCK_LENGTHS)
@pytest.mark.parametrize("data", sorted(_EXACT_DATA))
def test_einsum_block_sums_of_exact_data_keep_every_vhat_bit(data, fl, rows):
    rng = np.random.default_rng([fl, rows])
    for n in (6 * fl, 6 * fl + fl // 2):  # without, then (fl > 1) with a remainder
        vals = _EXACT_DATA[data](rng, (rows, n))
        assert np.array_equal(_vhat_bits(vals, fl, True), _vhat_bits(vals, fl, False)), n


@pytest.mark.parametrize("data", sorted(_EXACT_DATA))
def test_einsum_block_sums_of_a_long_lone_exact_row_keep_every_vhat_bit(data):
    # Past einsum's 8192-value buffer, where a lone row takes another kernel.
    vals = _EXACT_DATA[data](np.random.default_rng(3), (1, 20_011))
    for fl in _BLOCK_LENGTHS:
        assert np.array_equal(_vhat_bits(vals, fl, True), _vhat_bits(vals, fl, False)), fl


def test_block_variance_of_inexact_data_keeps_the_pairwise_block_sums():
    # On uniform data einsum's block sums round differently from numpy's
    # pairwise sum, so without exact the pairwise order must be kept.
    vals = np.random.default_rng(5).random((64, 2000))
    fl = 8
    m = vals.shape[1] // fl
    blocks = vals.reshape(64, m, fl)

    def vhat_of(block_sums):
        centered = block_sums - fl * (block_sums.sum(axis=1) / (m * fl))[:, None]
        return (row_sumsq(centered) / vals.shape[1]).view(np.uint64)

    pairwise, einsum = vhat_of(blocks.sum(axis=2)), vhat_of(np.einsum("rmf->rm", blocks))
    assert np.count_nonzero(pairwise != einsum) > 0
    assert np.array_equal(_vhat_bits(vals, fl, False), pairwise)
