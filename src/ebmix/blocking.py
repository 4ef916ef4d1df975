"""Block partitions of {1..n} and the block empirical long-run variance.

The block length ``l`` is user-supplied as a real number and floored once;
everything downstream uses ``floor(l)``.  Indices are half-open 0-based
ranges ``(start, stop)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_array, _check_count, _check_finite, _check_nonneg


@dataclass(frozen=True)
class BlockPartition:
    """Partition of {0..n-1} into m contiguous blocks of length floor(l)
    plus a (possibly empty) remainder."""

    n: int
    l: float
    floor_l: int
    m: int
    blocks: tuple[tuple[int, int], ...]
    remainder: tuple[int, int]

    @property
    def values_used(self) -> int:
        return self.m * self.floor_l

    @property
    def remainder_size(self) -> int:
        return self.remainder[1] - self.remainder[0]


@dataclass(frozen=True)
class BlockSummary:
    """Block sums, block-grand mean and block empirical long-run variance.

    ``h_bar`` is the mean over the first ``m * floor_l`` values; ``v_hat`` is
    ``(1/n) * sum_j (block_sum_j - floor_l * h_bar)^2`` with denominator n
    even when the remainder is non-empty.  ``mean`` is the mean of all n
    values (the interval center downstream).
    """

    partition: BlockPartition
    block_sums: tuple[float, ...]
    h_bar: float
    v_hat: float
    mean: float
    values_used: int


def block_partition(n: int, l: float) -> BlockPartition:
    """Partition {0..n-1} into m = floor(n / floor(l)) blocks of length floor(l)."""
    n = _check_count(n)
    floor_l = math.floor(_check_nonneg(l, "l"))
    if floor_l < 1 or floor_l > n:
        raise DomainError(f"need 1 <= floor(l) <= n, got floor({l!r}) = {floor_l} with n = {n}")
    m = n // floor_l
    blocks = tuple((j * floor_l, (j + 1) * floor_l) for j in range(m))
    return BlockPartition(
        n=n, l=float(l), floor_l=floor_l, m=m, blocks=blocks, remainder=(m * floor_l, n)
    )


def block_summary(values, partition: BlockPartition) -> BlockSummary:
    """Compute block sums, h_bar and v_hat for one sample.

    Summation order inside each block is the storage order, so results are
    deterministic and independent of how blocks are scheduled.  ``v_hat`` is
    :func:`row_vhat` of the lone row: the bits the harness gets for the same
    path in any chunk.
    """
    x = _check_array(values, "values")
    if x.ndim != 1 or x.size != partition.n:
        raise DomainError(f"values must have length n = {partition.n}, got {x.size}")
    m, fl, n = partition.m, partition.floor_l, partition.n
    used = m * fl
    block_sums = x[:used].reshape(m, fl).sum(axis=1)
    # the single block sum equals floor_l * h_bar identically
    v_hat = 0.0 if m == 1 else float(row_vhat(x[None, :], m, fl)[0])
    return BlockSummary(
        partition=partition,
        block_sums=tuple(float(s) for s in block_sums),
        h_bar=float(block_sums.sum()) / used,
        v_hat=v_hat,
        mean=float(np.sum(x)) / n,
        values_used=used,
    )


def row_vhat(vals, m: int, fl: int) -> np.ndarray:
    """Each row's block variance: the squared deviations of its ``m`` block
    sums of length ``fl`` (the first ``m * fl`` values) from their mean,
    summed and divided by the full row length."""
    rows, n = vals.shape
    block_sums = vals[:, : m * fl].reshape(rows, m, fl).sum(axis=2)
    h_bar = block_sums.sum(axis=1) / (m * fl)
    centered = block_sums - fl * h_bar[:, None]
    return row_sumsq(centered) / n


def row_sumsq(d) -> np.ndarray:
    """Each row's sum of squares, ``einsum("ij,ij->i", d, d)``, with the same
    bits whatever other rows ``d`` holds.  einsum reduces a lone row with a
    buffered 1-D kernel that can differ in the last bit from the per-row
    kernel of a taller array, so a lone row goes in as a stride-0 view of two."""
    pair = np.broadcast_to(d, (2, d.shape[1])) if d.shape[0] == 1 else d
    return np.einsum("ij,ij->i", pair, pair)[: d.shape[0]]


def block_identity_residual(values, m: int, l: int, mu: float) -> float:
    """LHS minus RHS of the exact recentering identity

        sum_j (sum_{i in B_j} (z_i - wbar))^2 + m l^2 (wbar - mu)^2
            = sum_j (sum_{i in B_j} (z_i - mu))^2

    where ``wbar`` is the grand mean over all m*l values.  The identity is
    pure algebra, so the residual must vanish up to floating error for every
    mu; it is used as a self-check oracle for the blocking code.
    """
    m, l = _check_count(m, "m"), _check_count(l, "l")
    mu = _check_finite(mu, "mu")
    x = _check_array(values, "values")
    if x.ndim != 1 or x.size != m * l:
        raise DomainError(f"values must have length m*l = {m * l}, got {x.size}")
    blocks = x.reshape(m, l)
    wbar = float(np.sum(x)) / (m * l)
    lhs_blocks = blocks.sum(axis=1) - l * wbar
    lhs = float(np.sum(lhs_blocks * lhs_blocks)) + m * l * l * (wbar - mu) ** 2
    rhs_blocks = blocks.sum(axis=1) - l * mu
    rhs = float(np.sum(rhs_blocks * rhs_blocks))
    return lhs - rhs
