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
    plus a (possibly empty) remainder.

    Only ``n``, ``l``, ``floor_l`` and ``m`` are stored; ``blocks``,
    ``remainder``, ``values_used`` and ``remainder_size`` are derived from
    them on each access, so no partition holds one tuple per block."""

    n: int
    l: float
    floor_l: int
    m: int

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        fl = self.floor_l
        return tuple((j * fl, (j + 1) * fl) for j in range(self.m))

    @property
    def remainder(self) -> tuple[int, int]:
        return (self.values_used, self.n)

    @property
    def values_used(self) -> int:
        return self.m * self.floor_l

    @property
    def remainder_size(self) -> int:
        return self.n - self.values_used


@dataclass(frozen=True)
class BlockSummary:
    """Block-grand mean and block empirical long-run variance.

    ``h_bar`` is the mean over the first ``m * floor_l`` values; ``v_hat`` is
    ``(1/n) * sum_j (block_sum_j - floor_l * h_bar)^2`` with denominator n
    even when the remainder is non-empty; at one block (m = 1) it is that
    rule's value, a rounding residue, not a forced 0.0.  ``mean`` is the
    mean of all n values (the interval center downstream).  ``values_used``
    is derived from ``partition``; the block sums are not kept.
    """

    partition: BlockPartition
    h_bar: float
    v_hat: float
    mean: float

    @property
    def values_used(self) -> int:
        return self.partition.values_used


def block_partition(n: int, l: float) -> BlockPartition:
    """Partition {0..n-1} into m = floor(n / floor(l)) blocks of length floor(l)."""
    n = _check_count(n)
    floor_l = math.floor(_check_nonneg(l, "l"))
    if floor_l < 1 or floor_l > n:
        raise DomainError(f"need 1 <= floor(l) <= n = {n}, got l = {l!r}")
    return BlockPartition(n=n, l=float(l), floor_l=floor_l, m=n // floor_l)


def block_summary(values, partition: BlockPartition) -> BlockSummary:
    """Compute h_bar and v_hat for one sample from one pass of block sums.

    Summation order inside each block is the storage order, so results are
    deterministic and independent of how blocks are scheduled.  The block
    sums are :func:`row_vhat`'s pairwise ones for the lone row, centered by
    the same rule at every m, one block included, so ``v_hat`` has the bits
    the harness gets for the same path in any chunk.
    """
    x = _check_array(values, "values")
    if x.ndim != 1 or x.size != partition.n:
        raise DomainError(f"values must have length n = {partition.n}, got {x.size}")
    m, fl, n = partition.m, partition.floor_l, partition.n
    sums = x[None, : m * fl].reshape(1, m, fl).sum(axis=2)
    h_bar = float(sums.sum()) / (m * fl)
    v_hat = float(_centered_vhat(sums, fl, n)[0])
    return BlockSummary(partition=partition, h_bar=h_bar, v_hat=v_hat, mean=float(np.sum(x)) / n)


def row_vhat(vals, m: int, fl: int, exact: bool = False) -> np.ndarray:
    """Each row's block variance: the squared deviations of its ``m`` block
    sums of length ``fl`` (the first ``m * fl`` values) from their mean,
    summed and divided by the full row length.

    ``exact`` says that every partial sum of a row is an exact float
    (:func:`ebmix.processes.sums_are_exact`).  The block sums are then the
    same in any order, so they are taken by ``einsum``, several times faster
    than numpy's pairwise ``sum``, which makes one inner-loop call per short
    block; otherwise the pairwise order is kept, whose bits the pinned
    reports hold."""
    blocks = vals[:, : m * fl].reshape(vals.shape[0], m, fl)
    return _centered_vhat(np.einsum("rmf->rm", blocks) if exact else blocks.sum(axis=2),
                          fl, vals.shape[1])


def _centered_vhat(block_sums, fl: int, n: int) -> np.ndarray:
    """:func:`row_vhat` from the block sums, which it centers in place."""
    block_sums -= fl * (block_sums.sum(axis=1) / (block_sums.shape[1] * fl))[:, None]
    return row_sumsq(block_sums) / n


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

    where ``wbar`` is the grand mean over all m*l values.  The first sum is
    ``m * l * row_vhat``, so this self-check oracle reads the library's v_hat.
    The identity is pure algebra, so the residual must vanish up to floating
    error for every mu.
    """
    m, l = _check_count(m, "m"), _check_count(l, "l")
    mu = _check_finite(mu, "mu")
    x = _check_array(values, "values")
    if x.ndim != 1 or x.size != m * l:
        raise DomainError(f"values must have length m*l = {m * l}, got {x.size}")
    wbar = float(np.sum(x)) / (m * l)
    lhs = m * l * float(row_vhat(x[None, :], m, l)[0]) + m * l * l * (wbar - mu) ** 2
    rhs_sums = x.reshape(m, l).sum(axis=1) - l * mu
    rhs = float(np.sum(rhs_sums * rhs_sums))
    return lhs - rhs
