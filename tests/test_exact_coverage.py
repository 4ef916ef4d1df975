"""Exact coverage on Bernoulli(p) data, with no Monte Carlo error.

For 0/1 data the center k/n and the sum of squares about it, k(n - k)/n,
depend only on the count k, so the coverage of a css bound is the binomial
probability of the counts whose interval holds p:
sum over k of P(K = k) * [|k/n - p| <= r(k)].  The radii r(k) come from the
harness's own cell plans.
"""

import math

import numpy as np
import pytest

from ebmix import ExperimentConfig, iid_bernoulli, run_coverage
from ebmix.harness import validate_config

CSS_BOUNDS = ("empirical_bernstein", "maurer_pontil_baseline")


def _binomial_pmf(n, p):
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                           for i in range(n + 1)])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _exact_cells(config):
    """Per bound of a one-n config: (stated level, exact coverage, exact mean
    radius, exact radius variance) on the config's Bernoulli process."""
    [(n, plans)] = validate_config(config)
    p = config.process.params["p"]
    pmf = _binomial_pmf(n, p)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    k = np.arange(n + 1)
    cells = {}
    for (bound, _), plan in plans.items():
        radii = plan.evaluate(k * (n - k) / n)
        mean_radius = float(pmf @ radii)
        cells[bound] = (plan.row["level"], float(pmf[np.abs(k / n - p) <= radii].sum()),
                        mean_radius, float(pmf @ (radii - mean_radius) ** 2))
    return cells


def _config(p, n, alpha, replications=1, master_seed=0):
    return ExperimentConfig(process=iid_bernoulli(p), bounds=CSS_BOUNDS, n_grid=(n,),
                            replications=replications, master_seed=master_seed, alpha=alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [20, 100, 1000])
@pytest.mark.parametrize("p", [1e-3, 0.01, 0.3, 0.5, 1.0 - 1e-3])
def test_exact_coverage_is_at_least_the_stated_level(p, n, alpha):
    for bound, (level, coverage, _, _) in _exact_cells(_config(p, n, alpha)).items():
        assert coverage >= level, (bound, coverage, level)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_harness_coverage_and_radius_lie_within_four_standard_errors_of_exact(p):
    # At alpha = 0.3 and n = 1000 both bounds cover about 0.975, so the
    # Monte Carlo coverage is a real check rather than a run of ones; at
    # this R, radii 5 % too small fail it.
    r = 20_000
    config = _config(p, 1000, 0.3, replications=r, master_seed=5)
    exact = _exact_cells(config)
    for row in run_coverage(config).rows:
        level, coverage, mean_radius, radius_var = exact[row.bound]
        assert coverage < 0.99
        assert row.level == level
        assert abs(row.empirical_coverage - coverage) <= 4 * math.sqrt(coverage * (1 - coverage) / r)
        assert abs(row.mean_radius - mean_radius) <= 4 * math.sqrt(radius_var / r)
