"""Process generators: determinism, boundedness, moment agreement, and the
brute-force oracles for mixing budgets and the long-run variance."""

import numpy as np
import pytest

from ebmix import processes
from ebmix import (
    DomainError,
    bernoulli_ar1,
    bernoulli_ar1_budget,
    finite_markov,
    ground_truth,
    hetero_mds,
    iid_bernoulli,
    iid_rademacher,
    iid_uniform,
    markov_long_run_variance,
    markov_phi_budget,
    mixing_budget_for,
    simulate,
    simulate_paths,
    stationary_distribution,
)

TWO_STATE = [[0.9, 0.1], [0.1, 0.9]]
H01 = [0.0, 1.0]

ALL_SPECS = [
    iid_bernoulli(0.3),
    iid_rademacher(),
    iid_uniform(-0.5, 2.0),
    hetero_mds([0.3, 0.6, 1.0]),
    finite_markov(TWO_STATE, H01),
    bernoulli_ar1(),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_simulate_is_deterministic(spec):
    a, _ = simulate(spec, 200, 42)
    b, _ = simulate(spec, 200, 42)
    c, _ = simulate(spec, 200, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_simulate_respects_declared_range(spec):
    values, truth = simulate(spec, 5000, 7)
    lo, hi = truth.b_range
    assert values.min() >= lo and values.max() <= hi
    assert np.max(np.abs(values)) <= truth.b_abs


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_batch_rows_equal_single_paths(spec):
    batch = simulate_paths(spec, 50, 11, range(4))
    for i in range(4):
        single, _ = simulate(spec, 50, (11, i))
        assert np.array_equal(batch[i], single)


@pytest.mark.parametrize(
    "spec",
    [iid_bernoulli(0.3), iid_rademacher(), iid_uniform(-0.5, 2.0)],
    ids=lambda s: s.label(),
)
def test_iid_moments_match_truth(spec):
    values, truth = simulate(spec, 1_000_000, 21)
    n = values.size
    se_mean = np.sqrt(truth.sigma2_marginal / n)
    assert abs(values.mean() - truth.mu) <= 4 * se_mean
    # variance of the sample variance ~ (m4 - sigma^4)/n
    var_se = np.sqrt(max(truth.m4 - truth.sigma2_marginal**2, 1e-12) / n)
    assert abs(values.var() - truth.sigma2_marginal) <= 4 * var_se + 1e-6


def test_hetero_mds_truth_and_zero_lag_one_correlation():
    spec = hetero_mds([0.3, 0.6, 1.0])
    values, truth = simulate(spec, 100_000, 7)
    assert truth.mu == 0.0
    assert truth.sigma2_marginal == pytest.approx((0.09 + 0.36 + 1.0) / 3.0)
    r1 = float(np.corrcoef(values[:-1], values[1:])[0, 1])
    assert abs(r1) <= 4.0 / np.sqrt(values.size)
    assert abs(values.mean()) <= 4 * np.sqrt(truth.sigma2_marginal / values.size)


def test_bernoulli_ar1_marginal_is_uniform():
    values, truth = simulate(bernoulli_ar1(), 100_000, 123)
    assert truth.mu == 0.5 and truth.sigma2_marginal == pytest.approx(1.0 / 12.0)
    z = np.sort(values)
    ranks = np.arange(1, z.size + 1) / z.size
    ks = max(float(np.max(np.abs(ranks - z))), float(np.max(np.abs(ranks - 1 / z.size - z))))
    # dependent data inflate the usual KS scale; 0.01 is ~4x the observed value
    assert ks <= 0.01
    assert abs(values.mean() - 0.5) <= 0.01
    assert abs(values.var() - 1.0 / 12.0) <= 0.005


def test_stationary_distribution_two_state():
    pi = stationary_distribution(TWO_STATE)
    assert pi == pytest.approx([0.5, 0.5], rel=1e-12)


def test_markov_long_run_variance_closed_form():
    # Cov(h_0, h_k) = 0.25 * 0.8^k, so LRV = 0.25 * (1 + 2 * 0.8 / 0.2) = 2.25
    assert markov_long_run_variance(TWO_STATE, H01) == pytest.approx(2.25, rel=1e-12)


def test_markov_long_run_variance_iid_rows():
    pi = [0.3, 0.7]
    P = [pi, pi]
    h = [1.0, 4.0]
    var_pi = 0.3 * 0.7 * (4.0 - 1.0) ** 2
    assert markov_long_run_variance(P, h) == pytest.approx(var_pi, rel=1e-12)


def test_markov_long_run_variance_constant_h():
    assert markov_long_run_variance(TWO_STATE, [2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


def test_markov_long_run_variance_matches_truncated_series():
    rng = np.random.default_rng(5)
    P = rng.uniform(0.05, 1.0, size=(3, 3))
    P /= P.sum(axis=1, keepdims=True)
    h = rng.uniform(-2, 2, size=3)
    pi = stationary_distribution(P)
    mu = float(pi @ h)
    hc = h - mu
    series = float(pi @ (hc * hc))
    power = np.eye(3)
    for _ in range(2000):
        power = power @ P
        series += 2.0 * float(pi @ (hc * (power @ hc)))
    assert markov_long_run_variance(P, h) == pytest.approx(series, rel=1e-12)


def test_markov_long_run_variance_matches_simulation():
    # Var(S_n)/n over replications converges to the oracle value
    spec = finite_markov(TWO_STATE, H01)
    reps, n = 12_000, 10_000
    sums = np.empty(reps)
    for lo in range(0, reps, 800):
        hi = min(lo + 800, reps)
        sums[lo:hi] = simulate_paths(spec, n, 99, range(lo, hi)).sum(axis=1)
    sim_lrv = float(sums.var(ddof=1)) / n
    assert abs(sim_lrv - 2.25) / 2.25 <= 0.05


def test_markov_phi_budget_matches_brute_force_matrix_powers():
    # closed form for the two-state chain: phi(k) = 0.5 * 0.8^k
    budget = markov_phi_budget(np.asarray(TWO_STATE), 25)
    pi = stationary_distribution(TWO_STATE)
    brute = 0.0
    for k in range(1, 26):
        pk = np.linalg.matrix_power(np.asarray(TWO_STATE), k)
        brute += 0.5 * float(np.max(np.abs(pk - pi).sum(axis=1)))
    assert budget.phi_sum == pytest.approx(brute, rel=1e-12)
    assert budget.phi_sum == pytest.approx(sum(0.5 * 0.8**k for k in range(1, 26)), rel=1e-9)
    assert budget.provenance == "analytic_bound"


def test_markov_phi_budget_zero_for_iid_rows():
    pi = [0.25, 0.75]
    assert markov_phi_budget(np.asarray([pi, pi]), 50).phi_sum == pytest.approx(0.0, abs=1e-12)


def test_markov_phi_budget_nondecreasing_in_n():
    sums = [markov_phi_budget(np.asarray(TWO_STATE), n).phi_sum for n in (1, 2, 5, 20)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def _ar1_conditional_cdf_gap(k: int) -> float:
    """Brute-force sup_z ess-sup_x |F_k(z | x) - z| for the dyadic AR(1).

    Given X_0 = x, the lag-k value is uniform on {(x + m) / 2^k}.  The CDF
    gap is probed at every support point (and just below it) over a grid of
    initial states.
    """
    two_k = 2**k
    support_offsets = np.arange(two_k)
    worst = 0.0
    for x in np.concatenate(([1e-6], np.linspace(0.05, 0.95, 19), [1 - 1e-6])):
        points = (x + support_offsets) / two_k
        for z in np.concatenate((points, points - 1e-12)):
            if z < 0 or z > 1:
                continue
            cdf = float(np.count_nonzero(points <= z)) / two_k
            worst = max(worst, abs(cdf - z))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_ar1_budget_coefficient_matches_brute_force(k):
    gap = _ar1_conditional_cdf_gap(k)
    assert gap <= 2.0**-k + 1e-9  # 2^-k really is an upper bound
    assert gap >= 2.0**-k * (1 - 1e-5)  # ... and it is essentially attained


def test_ar1_budget_values():
    assert bernoulli_ar1_budget(1).phi_sum == pytest.approx(0.5, rel=1e-12)
    assert bernoulli_ar1_budget(10).phi_sum == pytest.approx(1.0 - 2.0**-10, rel=1e-12)
    assert bernoulli_ar1_budget(10_000).phi_sum <= 1.0
    assert bernoulli_ar1_budget(3).tv_norm == 1.0
    sums = [bernoulli_ar1_budget(n).phi_sum for n in (1, 2, 4, 8)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_mixing_budget_for_regimes():
    assert mixing_budget_for(bernoulli_ar1(), "phi", 100) is None
    tilde = mixing_budget_for(bernoulli_ar1(), "phi_tilde", 100)
    assert tilde.phi_sum == pytest.approx(1.0 - 2.0**-100)
    iid = mixing_budget_for(iid_bernoulli(0.4), "phi", 100)
    assert iid.phi_sum == 0.0 and iid.provenance == "exact"
    markov_tilde = mixing_budget_for(finite_markov(TWO_STATE, H01), "phi_tilde", 10)
    assert markov_tilde.phi_sum == pytest.approx(2.0 * (1.0 - 0.8**10), rel=1e-9)
    assert markov_tilde.tv_norm == 1.0


def test_ground_truth_values():
    bern = ground_truth(iid_bernoulli(0.3))
    assert bern.mu == 0.3
    assert bern.sigma2_marginal == pytest.approx(0.21)
    assert bern.sigma2_longrun == bern.sigma2_marginal
    assert bern.m4 == pytest.approx(0.3 * 0.7 * (1 - 0.9 + 0.27))
    ar1 = ground_truth(bernoulli_ar1())
    assert ar1.sigma2_longrun == pytest.approx(0.25)
    assert ar1.tv_norm == 1.0
    mk = ground_truth(finite_markov(TWO_STATE, H01))
    assert mk.mu == pytest.approx(0.5)
    assert mk.sigma2_longrun == pytest.approx(2.25, rel=1e-9)
    assert mk.b_range == (0.0, 1.0)


def test_non_ergodic_chains_rejected():
    with pytest.raises(DomainError, match="ergodic"):
        finite_markov([[0.0, 1.0], [1.0, 0.0]], H01)  # periodic
    with pytest.raises(DomainError, match="ergodic"):
        finite_markov([[1.0, 0.0], [0.0, 1.0]], H01)  # reducible
    with pytest.raises(DomainError, match="stochastic"):
        finite_markov([[0.5, 0.4], [0.1, 0.9]], H01)


def test_ergodicity_check_sees_tiny_transition_probabilities():
    # A float power of P underflows these entries to zero and once rejected
    # this primitive chain; dropping the entry that closes the cycle makes it
    # reducible.
    eps = 1e-200
    finite_markov([[1 - eps, eps, 0.0], [0.0, 1 - eps, eps], [eps, 0.0, 1 - eps]], [0.0, 0.5, 1.0])
    with pytest.raises(DomainError, match="ergodic"):
        finite_markov([[1.0, 0.0, 0.0], [0.0, 1 - eps, eps], [eps, 0.0, 1 - eps]], [0.0, 0.5, 1.0])
    with pytest.raises(DomainError, match="ergodic"):
        finite_markov([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [0.0, 0.5, 1.0])


def test_invalid_specs_rejected():
    with pytest.raises(DomainError):
        iid_bernoulli(1.5)
    with pytest.raises(DomainError):
        hetero_mds([])
    with pytest.raises(DomainError):
        iid_uniform(2.0, 1.0)


def test_spec_round_trip():
    for spec in ALL_SPECS:
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec


# --- segment-parallel recurrences against the sequential per-timestep loops ---

STICKY = [[0.999, 0.001], [0.001, 0.999]]
SLOW_3 = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]


def _sequential_paths(spec, u):
    """The per-timestep transform loops, kept as the reference for ``_recur``."""
    if spec.kind == "finite_markov":
        P = np.asarray(spec.params["P"], dtype=float)
        h = np.asarray(spec.params["h"], dtype=float)
        pi = stationary_distribution(P)
        cum_pi = np.cumsum(pi)
        cum_rows = np.cumsum(P, axis=1)
        cum_pi[-1] = 1.0
        cum_rows[:, -1] = 1.0
        n_paths, n = u.shape
        states = np.empty((n_paths, n), dtype=np.int64)
        states[:, 0] = (cum_pi[None, :] <= u[:, 0:1]).sum(axis=1)
        for t in range(1, n):
            states[:, t] = (cum_rows[states[:, t - 1]] <= u[:, t : t + 1]).sum(axis=1)
        return h[states]
    n_paths, n = u.shape
    x = np.empty((n_paths, n), dtype=float)
    x[:, 0] = u[:, 0]
    for t in range(1, n):
        x[:, t] = 0.5 * x[:, t - 1] + 0.5 * (u[:, t] < 0.5)
    return x


def _assert_bit_equal(spec, u):
    got = processes._paths_from_uniforms(spec, u)
    want = _sequential_paths(spec, u)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


WARMUP = processes._RECUR_WARMUP
ROW_TARGET = processes._RECUR_STATES
AR1 = bernoulli_ar1()
MARKOV_3 = finite_markov(SLOW_3, [0.0, 0.5, 1.0])


@pytest.mark.parametrize(
    "spec, rows, n, regime",
    [
        (AR1, 1, 1_000_000, "many segments"),
        (MARKOV_3, 1, 100_003, "many segments"),
        (AR1, 8, 4 * WARMUP + 1, "many segments"),
        (MARKOV_3, 8, 4 * WARMUP + 1, "many segments"),
        (AR1, 16, 20_011, "uneven tail"),
        (MARKOV_3, 16, 20_011, "uneven tail"),
        (AR1, ROW_TARGET, 600, "single segment"),
        (MARKOV_3, ROW_TARGET + 5, 700, "single segment"),
        (AR1, 8, 4 * WARMUP - 1, "single segment"),
        (MARKOV_3, 3, 2 * WARMUP - 1, "single segment"),
        (AR1, 1, 1, "single segment"),
        (MARKOV_3, 1, 1, "single segment"),
    ],
    ids=lambda v: v.label() if hasattr(v, "label") else str(v),
)
def test_recurrence_matches_sequential_loop(spec, rows, n, regime):
    segments = processes._segment_count(rows, n)
    if regime == "single segment":
        assert segments == 1
    elif regime == "uneven tail":
        assert segments > 1 and n % segments != 0
    else:
        assert segments > 1 and n // segments >= 2 * WARMUP
    u = np.random.default_rng(rows * 7919 + n).random((rows, n))
    _assert_bit_equal(spec, u)


def test_ar1_without_coalescence_is_repaired():
    # u >= 0.5 gives X_t = X_{t-1} / 2 exactly: a guessed start never meets the
    # true path before both underflow, so segments have to be recomputed.
    rng = np.random.default_rng(3)
    u = 0.5 + 0.5 * rng.random((6, 40_000))
    u[3:] = rng.random((3, 40_000))  # a mix of repaired and verified rows
    u[4, 5000:9000] = 0.75
    _assert_bit_equal(AR1, u)


def test_sticky_chain_forces_repairs_and_stays_exact():
    spec = finite_markov(STICKY, H01)
    u = np.random.default_rng(4).random((8, 60_000))
    rows, n = u.shape
    segments = processes._segment_count(rows, n)
    length = n // segments
    seq = _sequential_paths(spec, u)
    # Every guess starts from the path's first state, and two copies of this
    # chain meet within the warm-up only about a quarter of the time, so the
    # segments whose true start differs from that state mostly need repair.
    guess_state = seq[:, :1]
    starts = seq[:, length : segments * length : length]
    assert np.any(starts != guess_state)
    _assert_bit_equal(spec, u)


def test_simulate_long_ar1_path_matches_sequential_loop():
    values, _ = simulate(AR1, 50_001, (9, 2))
    u = processes._generator((9, 2)).random((1, 50_001))
    assert np.array_equal(values.view(np.uint64), _sequential_paths(AR1, u)[0].view(np.uint64))


def _sequential_phi_sum(P, n):
    """The scalar running-sum loop ``markov_phi_budget`` is checked against."""
    P = np.asarray(P, dtype=float)
    pi = stationary_distribution(P)
    total = 0.0
    power = np.eye(P.shape[0])
    for _ in range(n):
        power = power @ P
        phi_k = 0.5 * float(np.max(np.abs(power - pi).sum(axis=1)))
        total += phi_k
        if phi_k < 1e-15:
            break
    return total


@pytest.mark.parametrize(
    "P, n",
    [
        (SLOW_3, 10_000),  # never reaches the cut-off
        (SLOW_3, 257),  # one block and one term
        (TWO_STATE, 5_000),  # reaches the cut-off inside the first block
        (STICKY, 40_000),  # reaches the cut-off after several blocks
        (STICKY, 1),
    ],
)
def test_markov_phi_budget_equals_running_sum_loop(P, n):
    assert markov_phi_budget(np.asarray(P), n).phi_sum == _sequential_phi_sum(P, n)


def test_markov_phi_budget_equals_running_sum_loop_on_a_larger_chain():
    rng = np.random.default_rng(8)
    P = rng.uniform(0.0, 1.0, size=(12, 12)) ** 4
    P /= P.sum(axis=1, keepdims=True)
    assert markov_phi_budget(P, 700).phi_sum == _sequential_phi_sum(P, 700)
