"""Randomized self-checks: exact identities, partition exactness, and
radius monotonicity.  Used by the CLI `selfcheck` subcommand and the test
suite; all checks are deterministic given the seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core_bounds, mixing_bounds, processes
from .blocking import block_identity_residual, block_partition, block_summary
from .errors import _check_count


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The Philox stream of ``SeedSequence((seed, stream))``; a negative seed
    is refused with DomainError."""
    entropy = processes.entropy_words((seed, stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str


def check_block_identity(cases: int = 1000, seed: int = 0) -> CheckResult:
    """Recentering identity residual stays below 1e-9 relative on random
    (m, l, values, mu) instances with m, l <= 20.  The residual's left side
    is the library's own block variance (:func:`ebmix.blocking.row_vhat`),
    so a mis-scaled or mis-centered v_hat fails this check."""
    rng = _rng(seed, 101)
    worst = 0.0
    for _ in range(cases):
        m = int(rng.integers(1, 21))
        l = int(rng.integers(1, 21))
        scale = 10.0 ** rng.uniform(-3, 3)
        values = rng.uniform(-scale, scale, size=m * l)
        mu = rng.uniform(-2 * scale, 2 * scale)
        residual = block_identity_residual(values, m, l, mu)
        # relative to the magnitude of the recomposed right-hand side
        rhs = float(np.sum((values.reshape(m, l).sum(axis=1) - l * mu) ** 2))
        worst = max(worst, abs(residual) / max(rhs, 1e-300))
    return CheckResult(
        name="block_identity_residual",
        passed=worst <= 1e-9,
        cases=cases,
        detail=f"max relative residual {worst:.3e}",
    )


def check_partition_exactness(cases: int = 1000, seed: int = 0) -> CheckResult:
    """Blocks plus remainder tile {0..n-1} disjointly for random (n, l)."""
    rng = _rng(seed, 202)
    for _ in range(cases):
        n = int(rng.integers(1, 10_001))
        l = float(rng.uniform(1.0, n + 0.999))
        p = block_partition(n, l)
        spans = list(p.blocks) + [p.remainder]
        cursor = 0
        for start, stop in spans:
            if start != cursor or stop < start:
                return CheckResult("partition_exactness", False, cases, f"gap at n={n}, l={l}")
            cursor = stop
        if cursor != n or any(stop - start != p.floor_l for start, stop in p.blocks):
            return CheckResult("partition_exactness", False, cases, f"bad cover at n={n}, l={l}")
    return CheckResult("partition_exactness", True, cases, "blocks+remainder tile {0..n-1} exactly")


def check_radius_monotonicity(cases: int = 1000, seed: int = 0) -> CheckResult:
    """Each radius is nondecreasing in its exponent, bound, and variance
    arguments (randomized pairwise comparisons)."""
    rng = _rng(seed, 303)
    for i in range(cases):
        qv = float(rng.uniform(0, 50))
        b = float(rng.uniform(0, 5))
        t = float(rng.uniform(0.01, 10))
        bump = float(rng.uniform(1e-6, 5))
        base = core_bounds.mds_empirical_radius(qv, b, t)
        ok = (
            core_bounds.mds_empirical_radius(qv + bump, b, t) >= base
            and core_bounds.mds_empirical_radius(qv, b + bump, t) >= base
            and core_bounds.mds_empirical_radius(qv, b, t + bump) >= base
            and core_bounds.mds_predictable_radius(qv, b, t + bump)
            >= core_bounds.mds_predictable_radius(qv, b, t)
        )
        n = int(rng.integers(20, 10_000))
        delta = float(rng.uniform(1e-6, 0.3))
        smaller_delta = delta * float(rng.uniform(0.1, 0.99))
        f_base = core_bounds.freedman_radius(n, qv, b, delta)
        ok = ok and core_bounds.freedman_radius(n, qv, b, smaller_delta) >= f_base
        ok = ok and core_bounds.freedman_radius(n, qv + bump, b, delta) >= f_base
        if not ok:
            return CheckResult(
                "radius_monotonicity", False, cases, f"violated at case {i} (qv={qv}, b={b}, t={t})"
            )
    return CheckResult("radius_monotonicity", True, cases, "nondecreasing in all arguments")


def check_scale_equivariance(cases: int = 1000, seed: int = 0) -> CheckResult:
    """mds_empirical_radius(c^2 qv, c b, t) == c * mds_empirical_radius(qv, b, t)."""
    rng = _rng(seed, 404)
    worst = 0.0
    for _ in range(cases):
        qv = float(rng.uniform(0, 100))
        b = float(rng.uniform(0, 10))
        t = float(rng.uniform(0, 10))
        c = 10.0 ** float(rng.uniform(-3, 3))
        lhs = core_bounds.mds_empirical_radius(c * c * qv, c * b, t)
        rhs = c * core_bounds.mds_empirical_radius(qv, b, t)
        if rhs > 0:
            worst = max(worst, abs(lhs - rhs) / rhs)
    return CheckResult(
        name="scale_equivariance",
        passed=worst <= 1e-12,
        cases=cases,
        detail=f"max relative mismatch {worst:.3e}",
    )


def check_zero_budget_reduction(cases: int = 200, seed: int = 0) -> CheckResult:
    """With zero mixing budget, empty remainder and xi = 0, the phi and
    phi_tilde radii coincide exactly."""
    rng = _rng(seed, 505)
    for i in range(cases):
        fl = int(rng.integers(2, 20))
        m = int(rng.integers(30, 80))  # enough blocks for any delta below
        n = m * fl
        values = rng.uniform(0, 1, size=n)
        summary = block_summary(values, block_partition(n, fl))
        delta = float(rng.uniform(1e-3, 0.05))
        rw = float(rng.uniform(0.5, 3.0))
        phi0 = mixing_bounds.MixingBudget(regime="phi", phi_sum=0.0)
        tilde0 = mixing_bounds.MixingBudget(regime="phi_tilde", phi_sum=0.0, tv_norm=rng.uniform(0.5, 2))
        a = mixing_bounds.phi_interval(summary, rw, phi0, delta, xi_n=0.0)
        b = mixing_bounds.tilde_phi_interval(summary, rw, tilde0, delta, xi_n=0.0)
        if a.radius != b.radius:
            return CheckResult(
                "zero_budget_reduction", False, cases, f"mismatch at case {i}: {a.radius} != {b.radius}"
            )
    return CheckResult("zero_budget_reduction", True, cases, "phi and phi_tilde radii identical")


def run_all(seed: int = 0, cases: int = 1000) -> list[CheckResult]:
    cases = _check_count(cases, "cases")
    return [
        check_block_identity(cases=cases, seed=seed),
        check_partition_exactness(cases=cases, seed=seed),
        check_radius_monotonicity(cases=cases, seed=seed),
        check_scale_equivariance(cases=cases, seed=seed),
        check_zero_budget_reduction(cases=max(100, cases // 5), seed=seed),
    ]
