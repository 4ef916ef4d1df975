"""Exact coverage on two-valued IID data, with no Monte Carlo error.

For data taking the value ``hi`` k times and ``lo`` n - k times, the center
and every row statistic depend only on the count k: the mean is
(k hi + (n - k) lo) / n, the sum of squares about it k (n - k) (hi - lo)^2 / n,
and the sum of squares k hi^2 + (n - k) lo^2.  So a bound's coverage is the
binomial probability of the counts whose interval holds the mean,
sum over k of P(K = k) * [|center(k) - mu| <= r(k)].  The radii r(k) come
from the harness's own cell plans.  Bernoulli(p) is lo = 0, hi = 1;
Rademacher is lo = -1, hi = 1 at p = 1/2.
"""

import math

import numpy as np
import pytest

from ebmix import ExperimentConfig, iid_bernoulli, iid_rademacher, run_coverage
from ebmix.harness import validate_config

BERNOULLI_BOUNDS = ("empirical_bernstein", "maurer_pontil_baseline", "freedman_oracle",
                    "eb_ignore_linear")


def _binomial_pmf(n, p):
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                           for i in range(n + 1)])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _exact_cells(config, p, lo=0.0, hi=1.0):
    """Per bound of a one-n config on data that are ``hi`` with probability
    ``p``, else ``lo``: (stated level less any penalty, exact coverage, exact
    mean radius, exact radius variance, whether the radius is constant)."""
    [(n, plans)] = validate_config(config)
    pmf = _binomial_pmf(n, p)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    k = np.arange(n + 1)
    center = (k * hi + (n - k) * lo) / n
    stats = {"mean": center, "css": k * (n - k) * (hi - lo) ** 2 / n,
             "qv": k * hi * hi + (n - k) * lo * lo}
    mu = p * hi + (1 - p) * lo
    cells = {}
    for (bound, _), plan in plans.items():
        radii = plan.evaluate(stats[plan.stat])
        mean_radius = float(pmf @ radii)
        cells[bound] = (plan.row["level"] - (plan.row.get("penalty") or 0.0),
                        float(pmf[np.abs(center - mu) <= radii].sum()), mean_radius,
                        float(pmf @ (radii - mean_radius) ** 2), bool(np.ptp(radii) == 0))
    return cells


def _config(process, bounds, n, alpha, replications=1, master_seed=0):
    return ExperimentConfig(process=process, bounds=bounds, n_grid=(n,),
                            replications=replications, master_seed=master_seed, alpha=alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [20, 100, 1000])
@pytest.mark.parametrize("p", [1e-3, 0.01, 0.05, 0.3, 0.5, 1.0 - 1e-3])
def test_exact_coverage_is_at_least_the_stated_level(p, n, alpha):
    config = _config(iid_bernoulli(p), BERNOULLI_BOUNDS, n, alpha)
    for bound, (level, coverage, _, _, _) in _exact_cells(config, p).items():
        assert coverage >= level, (bound, coverage, level)


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [20, 100, 1000])
def test_mds_empirical_exact_coverage_on_rademacher_is_at_least_its_level(n, alpha):
    config = _config(iid_rademacher(), ("mds_empirical",), n, alpha)
    [(level, coverage, _, _, constant)] = _exact_cells(config, 0.5, lo=-1.0).values()
    assert constant  # qv = n on every path
    assert coverage >= level, (coverage, level)


def _check_against_exact(config, exact):
    # The Monte Carlo coverage is within 4 standard errors of the exact one;
    # so is a varying mean radius, and a constant radius is the constant.
    r = config.replications
    for row in run_coverage(config).rows:
        level, coverage, mean_radius, radius_var, constant = exact[row.bound]
        assert coverage < 0.99
        assert row.level - (row.penalty or 0.0) == level
        assert abs(row.empirical_coverage - coverage) <= 4 * math.sqrt(coverage * (1 - coverage) / r)
        if constant:
            assert row.mean_radius == pytest.approx(mean_radius, rel=1e-12)
        else:
            assert abs(row.mean_radius - mean_radius) <= 4 * math.sqrt(radius_var / r)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_harness_coverage_and_radius_lie_within_four_standard_errors_of_exact(p):
    # At alpha = 0.3 and n = 1000 every bound covers less than 0.99, so the
    # Monte Carlo coverage is a real check rather than a run of ones; at
    # this R, radii 5 % too small fail it.
    config = _config(iid_bernoulli(p), BERNOULLI_BOUNDS, 1000, 0.3, replications=20_000,
                     master_seed=5)
    _check_against_exact(config, _exact_cells(config, p))


def test_mds_empirical_harness_coverage_on_rademacher_lies_near_exact():
    config = _config(iid_rademacher(), ("mds_empirical",), 1000, 0.3, replications=20_000,
                     master_seed=5)
    _check_against_exact(config, _exact_cells(config, 0.5, lo=-1.0))
