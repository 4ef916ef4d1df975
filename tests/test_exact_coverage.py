"""Exact coverage on two-valued data, with no Monte Carlo error.

For data taking the value ``hi`` k times and ``lo`` n - k times, the center
and every row statistic depend only on the count k: the mean is
(k hi + (n - k) lo) / n, the sum of squares about it k (n - k) (hi - lo)^2 / n,
and the sum of squares k hi^2 + (n - k) lo^2.  So a bound's coverage is the
probability of the counts whose interval holds the mean,
sum over k of P(K = k) * [|center(k) - mu| <= r(k)].  The radii r(k) come
from the harness's own cell plans.  For IID data P(K = k) is binomial:
Bernoulli(p) is lo = 0, hi = 1; Rademacher is lo = -1, hi = 1 at p = 1/2.
For a stationary 2-state chain with h = (0, 1), K counts the visits to
state 1, and its law comes from a forward pass over (state, count).
"""

import itertools
import math

import numpy as np
import pytest

from ebmix import (ConfigError, ExperimentConfig, finite_markov, iid_bernoulli, iid_rademacher,
                   run_coverage, stationary_distribution)
from ebmix.harness import validate_config

BERNOULLI_BOUNDS = ("empirical_bernstein", "maurer_pontil_baseline", "freedman_oracle",
                    "eb_ignore_linear")


def _binomial_pmf(n, p):
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                           for i in range(n + 1)])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _visit_count_pmf(n, P):
    """The law of the number of visits to state 1 in n steps of the
    stationary 2-state chain with transition matrix P."""
    P = np.asarray(P, dtype=float)
    at = np.zeros((2, n + 1))  # at[s, k]: in state s after k visits to state 1
    at[0, 0], at[1, 1] = stationary_distribution(P)
    for _ in range(n - 1):
        stay0 = at[0] * P[0, 0] + at[1] * P[1, 0]
        at[1, 1:] = (at[0] * P[0, 1] + at[1] * P[1, 1])[:-1]
        at[1, 0] = 0.0
        at[0] = stay0
    return at.sum(axis=0)


def _exact_cells(config, p, lo=0.0, hi=1.0, count_pmf=_binomial_pmf):
    """Per bound of a one-n config on data that are ``hi`` with probability
    ``p``, else ``lo``, whose count of ``hi`` values has the law
    ``count_pmf(n, p)``: (stated level less any penalty, exact coverage, exact
    mean radius, exact radius variance, whether the radius is constant)."""
    [(n, plans)] = validate_config(config)
    pmf = count_pmf(n, p)
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


# 199 values of p, 0.005 apart.  The smallest margin of coverage over level
# on this scan is freedman_oracle's, about +0.086 at alpha = 0.05, n = 1000
# and p near 0.44 (coverage 0.986 at level 0.9).
P_SCAN = np.linspace(0.005, 0.995, 199)


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [20, 100, 1000])
def test_exact_coverage_is_at_least_the_stated_level_at_every_p_of_a_scan(n, alpha):
    short = []
    for p in P_SCAN:
        config = _config(iid_bernoulli(float(p)), BERNOULLI_BOUNDS, n, alpha)
        for bound, (level, coverage, _, _, _) in _exact_cells(config, float(p)).items():
            if coverage < level:
                short.append((bound, float(p), coverage, level))
    assert not short


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


# Flip probability 0.2, 0.05 and 1e-3, and a chain that is not symmetric.
CHAINS = {"flip-0.2": [[0.8, 0.2], [0.2, 0.8]], "flip-0.05": [[0.95, 0.05], [0.05, 0.95]],
          "flip-1e-3": [[0.999, 0.001], [0.001, 0.999]],
          "asymmetric": [[0.9, 0.1], [0.3, 0.7]]}


def _chain_cells(P, config):
    """``_exact_cells`` of a config on the 2-state chain P with h = (0, 1)."""
    return _exact_cells(config, stationary_distribution(P)[1],
                        count_pmf=lambda n, _: _visit_count_pmf(n, P))


def test_visit_count_pmf_equals_the_sum_over_all_paths():
    P = np.asarray(CHAINS["asymmetric"])
    pi = stationary_distribution(P)
    n = 10
    want = np.zeros(n + 1)
    for path in itertools.product((0, 1), repeat=n):
        want[sum(path)] += pi[path[0]] * math.prod(P[a, b] for a, b in zip(path, path[1:]))
    assert np.allclose(_visit_count_pmf(n, P), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_dedecker_exact_coverage_on_two_state_chains_is_at_least_its_level(chain, n, alpha):
    P = CHAINS[chain]
    config = _config(finite_markov(P, [0.0, 1.0]), ("dedecker_baseline",), n, alpha)
    [(level, coverage, _, _, constant)] = _chain_cells(P, config).values()
    assert constant  # the radius depends on n, the budget and the level only
    assert coverage >= level, (coverage, level)


def test_dedecker_harness_coverage_on_a_two_state_chain_lies_near_exact():
    # At alpha = 0.3 and n = 1000 the radius is 0.0425 at level 0.4, and the
    # chain covers about 0.82 of the time, so a biased simulator shows.
    P = CHAINS["flip-0.2"]
    config = _config(finite_markov(P, [0.0, 1.0]), ("dedecker_baseline",), 1000, 0.3,
                     replications=20_000, master_seed=5)
    exact = _chain_cells(P, config)
    level, _, radius, _, _ = exact["dedecker_baseline"]
    assert level == pytest.approx(0.4) and radius == pytest.approx(0.0425, abs=5e-5)
    _check_against_exact(config, exact)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "dedecker_baseline under-covers near independence: its radius "
    "sqrt(2 tv Phi~ log(2/eps) / n) goes to 0 with Phi~, with no independent-data "
    "term (Rio 2000; Dedecker & Prieur 2005); the fix moves the ar1_long_paths pin"))
@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("flip", [0.45, 0.4])
def test_dedecker_exact_coverage_near_independence_is_at_least_its_level(flip, n):
    # Exact coverage at level 0.9: 0.680 (n = 100) and 0.710 (n = 1000) at
    # flip 0.45, where Phi~ is about 0.056; 0.836 and 0.844 at flip 0.4
    # (Phi~ = 0.125).  Flips 0.3 and 0.2 cover: 0.935 or more at both n.
    P = [[1.0 - flip, flip], [flip, 1.0 - flip]]
    config = _config(finite_markov(P, [0.0, 1.0]), ("dedecker_baseline",), n, 0.05)
    [(level, coverage, _, _, _)] = _chain_cells(P, config).values()
    assert level == pytest.approx(0.9)
    assert coverage >= level, (coverage, level)


# The flips where dedecker_baseline under-covers on the scan below: one run
# per case, [0.36, 0.57] (n = 100) and [0.355, 0.57] (n = 1000) at
# alpha = 0.05, [0.47, 0.52] and [0.47, 0.525] at alpha = 0.3, each held in
# its bracket.  The smallest margin of coverage over level outside the run
# is about +0.002 at alpha = 0.05 and +0.056 at alpha = 0.3.  Flip 0.5, whose
# rows are equal, is independent data with an exact 0 budget: it is refused.
DEDECKER_SHORT = {0.05: (0.35, 0.575), 0.3: (0.465, 0.53)}


@pytest.mark.parametrize("alpha", sorted(DEDECKER_SHORT))
@pytest.mark.parametrize("n", [100, 1000])
def test_dedecker_exact_coverage_is_at_least_its_level_at_every_flip_outside_independence(n, alpha):
    lo, hi = DEDECKER_SHORT[alpha]
    short = []
    for flip in P_SCAN.tolist():
        P = [[1.0 - flip, flip], [flip, 1.0 - flip]]
        config = _config(finite_markov(P, [0.0, 1.0]), ("dedecker_baseline",), n, alpha)
        if flip == 0.5:
            with pytest.raises(ConfigError, match="a strictly positive phi_tilde budget"):
                _chain_cells(P, config)
            continue
        [(level, coverage, _, _, _)] = _chain_cells(P, config).values()
        if coverage < level and not lo <= flip <= hi:
            short.append((flip, coverage, level))
    assert not short
