"""The harness's per-row radii against a frozen copy of the formulas it used
before it called the library's term builders, and each plan's terms against
the library's assembly rule, :func:`ebmix.core_bounds.recompose`.

The reference below keeps those expressions, in their order of operations,
and their cell constants.  Report bytes depend on every bit of the radii,
so the comparison is on the bits (``.view(np.uint64)``), not a tolerance.
"""

import math

import numpy as np
import pytest

from ebmix import (
    ExperimentConfig,
    KnobPolicy,
    LPolicy,
    bernoulli_ar1,
    block_partition,
    finite_markov,
    iid_bernoulli,
    iid_rademacher,
    processes,
)
from ebmix.core_bounds import _RECOMPOSE_RTOL, inflation_factor, recompose
from ebmix.harness import BOUNDS, _CellPlan, _row_statistic
from ebmix.mixing_bounds import block_inflation, dedecker_prieur_radius

C = 3.15  # the linear constant, written out as the reference had it


def _reference_radii(config, bound, n, lp, vals, means):
    """Per-row radii of the harness as it was before the term builders."""
    truth = processes.ground_truth(config.process)
    delta, alpha = config.delta_eff, config.alpha_eff
    log_term = math.log(1.0 / delta)
    rows = vals.shape[0]

    def css():
        d = vals - means[:, None]
        return np.einsum("ij,ij->i", d, d)

    if bound == "freedman_oracle":
        log_a = math.log(1.0 / alpha)
        radius = (math.sqrt(2.0 * truth.sigma2_marginal * log_a / n)
                  + truth.b_centered * log_a / (3.0 * n))
        return np.full(rows, radius)
    if bound == "dedecker_baseline":
        budget = processes.mixing_budget_for(config.process, "phi_tilde", n)
        return np.full(rows, dedecker_prieur_radius(n, budget.tv_norm, budget.phi_sum, 3.0 * delta))
    if bound == "mds_empirical":
        qv = np.einsum("ij,ij->i", vals, vals)
        return (np.sqrt(2.0 * qv * log_term) + C * truth.b_abs * log_term) / n
    if bound == "empirical_bernstein":
        nu = inflation_factor(n, delta)
        return nu * (np.sqrt(2.0 * css() * log_term) / n + C * truth.b_abs * log_term / n)
    if bound == "eb_ignore_linear":
        nu = inflation_factor(n, delta)
        xi_n = float(config.xi_for(bound).evaluate(n))
        return nu * (1.0 + xi_n) * np.sqrt(2.0 * log_term * css()) / n
    if bound == "maurer_pontil_baseline":
        mp_log = math.log(2.0 / alpha)
        vhat_u = css() / (n - 1)
        return np.sqrt(2.0 * vhat_u * mp_log / n) + 7.0 * mp_log / (3.0 * (n - 1))

    p = block_partition(n, lp.block_length(n))
    m, fl = p.m, p.floor_l
    rw = truth.range_width
    nut = block_inflation(m, delta)
    rem_term = (n - m * fl) / n * rw
    if bound == "phi_mixing":
        budget = processes.mixing_budget_for(config.process, "phi", n)
        xi_n = float(config.xi_for(bound).evaluate(n))
        sqrt_terms = (
            4.0 * rw * budget.phi_sum * math.sqrt(2.0 * log_term * m) / n
            + math.sqrt(2.0 * log_term * xi_n) / n
        )
        linear_terms = C * fl * rw * log_term / n + 2.0 * budget.phi_sum * rw * log_term / n
    elif bound == "tilde_phi_mixing":
        budget = processes.mixing_budget_for(config.process, "phi_tilde", n)
        tv_phi = budget.tv_norm * budget.phi_sum
        xi_n = float(config.xi_for(bound).evaluate(n))
        sqrt_terms = (
            2.0 * tv_phi * math.sqrt(2.0 * log_term * m) / n
            + math.sqrt(2.0 * log_term * xi_n) / n
        )
        linear_terms = C * fl * rw * log_term / n + C * tv_phi * log_term / n
    else:  # mixing_agnostic
        knobs = config.knobs.evaluate(n, p.remainder_size, rw)
        sqrt_terms = (1.0 + 1.0 / n) * knobs.t_n * math.sqrt(2.0 * log_term)
        linear_terms = C * log_term * (fl * rw / n + knobs.s_n) + knobs.c_n
        rem_term = 0.0
    head = vals[:, : m * fl].reshape(rows, m, fl)
    block_sums = head.sum(axis=2)
    h_bar = block_sums.sum(axis=1) / (m * fl)
    centered = block_sums - fl * h_bar[:, None]
    vhat = np.einsum("ij,ij->i", centered, centered) / n
    leading = np.sqrt(2.0 * log_term * vhat / n)
    return nut * (leading + sqrt_terms + linear_terms) + rem_term


IID = iid_bernoulli(0.3)
CASES = [
    ("freedman_oracle", IID),
    ("mds_empirical", iid_rademacher()),
    ("empirical_bernstein", IID),
    ("eb_ignore_linear", IID),
    ("maurer_pontil_baseline", IID),
    ("dedecker_baseline", bernoulli_ar1()),
    ("phi_mixing", finite_markov([[0.9, 0.1], [0.3, 0.7]], [0.0, 1.0])),
    ("phi_mixing", IID),  # zero budget
    ("tilde_phi_mixing", bernoulli_ar1()),
    ("tilde_phi_mixing", IID),  # zero budget
    ("mixing_agnostic", bernoulli_ar1()),
    ("mixing_agnostic", IID),  # zero budget, so a zero error budget
]


@pytest.mark.parametrize("bound, process", CASES)
@pytest.mark.parametrize(
    "n, l_policy, knobs",
    [
        (1000, LPolicy("exponent", 0.4), KnobPolicy()),  # 66 blocks of 15, remainder 10
        (1024, LPolicy("fixed", 16), KnobPolicy(c_mode="fixed", c_value=0.01)),  # no remainder
    ],
)
def test_cell_plan_radii_equal_the_reference_bit_for_bit(bound, process, n, l_policy, knobs):
    config = ExperimentConfig(process=process, bounds=(bound,), n_grid=(n,), replications=64,
                              master_seed=0, alpha=0.05, l_policy=l_policy, knobs=knobs)
    rng = np.random.default_rng([n, len(bound)])
    vals = rng.random((64, n))
    if bound == "mds_empirical":
        vals = 2.0 * vals - 1.0
    means = vals.mean(axis=1)
    plan = _CellPlan(config, bound, n, l_policy)
    radii = plan.evaluate(_row_statistic(plan.stat, vals, means))
    expected = _reference_radii(config, bound, n, l_policy, vals, means)
    assert np.array_equal(radii.view(np.uint64), expected.view(np.uint64))


def test_reference_cases_cover_a_remainder_and_a_zero_budget():
    assert block_partition(1000, 1000**0.4).remainder_size == 10
    assert block_partition(1024, 16).remainder_size == 0
    assert processes.mixing_budget_for(IID, "phi", 1000).phi_sum == 0.0


# Bounds whose plan recomposes to its radius bit for bit: a constant radius
# (no terms but ``linear``, or none), or a whole rule kept in ``leading``.
EXACT_RECOMPOSE = ("freedman_oracle", "dedecker_baseline", "mds_empirical", "eb_ignore_linear")


@pytest.mark.parametrize("bound, process", CASES)
def test_cell_plan_terms_recompose_to_its_radii(bound, process):
    n, l_policy = 1000, LPolicy("exponent", 0.4)
    config = ExperimentConfig(process=process, bounds=(bound,), n_grid=(n,), replications=32,
                              master_seed=0, alpha=0.05, l_policy=l_policy)
    vals = np.random.default_rng([n, len(bound), 1]).random((32, n))
    if bound == "mds_empirical":
        vals = 2.0 * vals - 1.0
    plan = _CellPlan(config, bound, n, l_policy)
    stat = _row_statistic(plan.stat, vals, vals.mean(axis=1))
    radii = plan.evaluate(stat)
    leading = plan.leading(stat) if callable(plan.leading) else np.full(len(stat), plan.leading)
    assert "leading" not in plan.terms
    assert np.ptp(leading) > 0 if plan.stat != "mean" else np.ptp(radii) == 0
    for lead, radius in zip(leading.tolist(), radii.tolist()):
        recomposed = recompose({"leading": lead, **plan.terms})
        if bound in EXACT_RECOMPOSE:
            assert recomposed == radius
        else:
            assert recomposed == pytest.approx(radius, rel=_RECOMPOSE_RTOL, abs=0.0)


def test_recompose_cases_cover_every_bound_and_kind_of_plan():
    assert {bound for bound, _ in CASES} == set(BOUNDS)
    kinds = {}
    for bound, process in CASES:
        config = ExperimentConfig(process=process, bounds=(bound,), n_grid=(1000,),
                                  replications=1, master_seed=0, alpha=0.05)
        plan = _CellPlan(config, bound, 1000, config.l_policy)
        kinds[bound] = (callable(plan.leading), sorted(plan.terms))
    assert kinds == {
        "freedman_oracle": (False, ["linear"]),
        "dedecker_baseline": (False, []),
        "mds_empirical": (True, []),
        "eb_ignore_linear": (True, []),
        "empirical_bernstein": (True, ["inflation", "linear"]),
        "maurer_pontil_baseline": (True, ["linear"]),
        "phi_mixing": (True, ["inflation", "linear", "linear_mixing", "mixing_sqrt", "remainder",
                              "slack"]),
        "tilde_phi_mixing": (True, ["inflation", "linear", "linear_mixing", "mixing_sqrt",
                                    "remainder", "slack"]),
        "mixing_agnostic": (True, ["inflation", "knob_c", "knob_t", "linear"]),
    }
