"""Process generators: determinism, boundedness, moment agreement, and the
brute-force oracles for mixing budgets and the long-run variance."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from ebmix import ConfigError, processes
from ebmix.processes import _PHI_BLOCK
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


@pytest.mark.parametrize(
    "spec, b_abs, tv_norm",
    [(iid_bernoulli(0.3), 1.0, 1.0), (iid_rademacher(), 1.0, 2.0), (iid_uniform(-1, 2), 2.0, 3.0),
     (iid_uniform(-0.5, 0.25), 0.5, 0.75), (hetero_mds([0.5, 1]), 1.0, 2.0),
     (hetero_mds([0.3, 0.6]), 0.6, 1.2), (finite_markov(TWO_STATE, H01), 1.0, 1.0),
     (finite_markov([[0.5, 0.25, 0.25]] * 3, [-0.5, 0.25, 2.0]), 2.0, 2.5),
     (finite_markov(TWO_STATE, [-3.0, -1.0]), 3.0, 2.0), (bernoulli_ar1(), 1.0, 1.0)],
    ids=lambda v: v.label() if hasattr(v, "label") else repr(v),
)
def test_ground_truth_derives_b_abs_and_tv_norm_from_b_range(spec, b_abs, tv_norm):
    truth = ground_truth(spec)
    assert (truth.b_abs, truth.tv_norm) == (b_abs, tv_norm)
    assert truth.range_width == tv_norm
    assert type(truth.b_abs) is float and type(truth.tv_norm) is float
    with pytest.raises(TypeError):
        type(truth)(mu=0.0, sigma2_marginal=1.0, sigma2_longrun=1.0, b_range=(-1.0, 1.0),
                    b_abs=1.0, tv_norm=2.0, m4=1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_batch_rows_equal_single_paths(spec):
    batch = simulate_paths(spec, 50, 11, range(4))
    for i in range(4):
        single, _ = simulate(spec, 50, (11, i))
        assert np.array_equal(batch[i], single)


def test_simulate_and_simulate_paths_key_one_generator_per_row(monkeypatch):
    # Both draw through one loop, which re-keys the generator once per row.
    calls = []
    real = processes._generator

    def counting(generator, key, state):
        calls.append(list(key))
        return real(generator, key, state)

    monkeypatch.setattr(processes, "_generator", counting)
    simulate(bernoulli_ar1(), 30, (11, 2))
    assert len(calls) == 1
    simulate_paths(bernoulli_ar1(), 30, 11, range(4))
    assert len(calls) == 5 and calls[0] == calls[3]


def _numpy_generator(seed) -> np.random.Generator:
    """numpy's own substream for ``seed``, the reference the vectorized key
    derivation is checked against."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _numpy_uniforms(master_seed, indices, n):
    return np.array([_numpy_generator((master_seed, i)).random(n) for i in indices])


def _numpy_keys(seeds):
    return np.array([_numpy_generator(s).bit_generator.state["state"]["key"] for s in seeds])


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70]
INDEX_LISTS = [
    [0, 2**32 - 1, 2**32, 2**64 - 1],
    [17, 3, 2**40 + 1, 0, 9],  # unsorted, non-contiguous, mixed word counts
    range(3, 9),
    np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
    np.array([17, 3, 2**40 + 1, 0, 9], dtype=np.int64),
    np.array([17, 3, 0, 2**31 - 1], dtype=np.int32),
    np.array([17, 3, 0, 255], dtype=np.uint8),
]
UNIFORM = iid_uniform(0.0, 1.0)  # the path is the uniforms themselves


@pytest.mark.parametrize("master_seed", SEEDS)
@pytest.mark.parametrize("indices", INDEX_LISTS,
                         ids=["edges", "unsorted", "range", "uint64", "int64", "int32", "uint8"])
def test_philox_keys_and_uniforms_match_numpy_seed_sequence(master_seed, indices):
    # An index array of any width draws what the list of its values draws,
    # and every form becomes int64 unless an index needs uint64.
    listed = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
    assert processes._index_array(indices).dtype == (np.uint64 if max(listed) >= 2**63 else np.int64)
    keys = processes._philox_keys(*processes._entropy_rows(master_seed, indices))
    expected = _numpy_keys([(master_seed, i) for i in listed])
    assert keys.dtype == np.uint64 and np.array_equal(keys, expected)
    paths = simulate_paths(UNIFORM, 40, master_seed, indices)
    assert np.array_equal(paths.view(np.uint64), _numpy_uniforms(master_seed, listed, 40).view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS + [(2**70, 5), (7, 2**64 - 1)])
def test_simulate_seed_matches_numpy_seed_sequence(seed):
    key = processes._philox_keys(processes.entropy_words(seed)[None, :])
    assert np.array_equal(key, _numpy_keys([seed]))
    values, _ = simulate(UNIFORM, 40, seed)
    assert np.array_equal(values.view(np.uint64), _numpy_generator(seed).random(40).view(np.uint64))


def test_chunked_simulate_paths_equal_one_call():
    # The first chunk has only one-word indices, so its rows hash a word fewer.
    whole = simulate_paths(UNIFORM, 30, 2**70, [5, 0, 2**32, 12, 2**40 + 1])
    parts = np.vstack([
        simulate_paths(UNIFORM, 30, 2**70, [5, 0]),
        simulate_paths(UNIFORM, 30, 2**70, [2**32, 12, 2**40 + 1]),
    ])
    assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))


def _column_step_chain():
    # 17 states and 272 distinct cumulative cuts: more buckets than a byte
    # holds, so the chain takes the column step, not the table step.
    P = np.random.default_rng(8).uniform(0.5, 1.0, (17, 17))
    return finite_markov(P / P.sum(axis=1, keepdims=True), np.arange(17) / 16)


PREFIX_SPECS = ALL_SPECS + [
    finite_markov([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]], [0.0, 0.5, 1.0]),
    finite_markov([[0.7, 0.3], [0.4, 0.6]], [0.1, 0.7]),  # h not dyadic
    _column_step_chain(),
]


@pytest.mark.parametrize("n1, n2", [(1, 2), (7, 300), (300, 200_000), (4_097, 70_000)])
@pytest.mark.parametrize("spec", PREFIX_SPECS, ids=lambda s: s.label()[:40])
def test_a_shorter_path_is_the_prefix_of_a_longer_one(spec, n1, n2):
    # The harness draws each replication once, at a config's largest n, and
    # reads every other n from the prefix.  n = 300 and 2e5 are cut into
    # different numbers of recurrence segments.
    indices = [0, 3, 2**40 + 1]
    short = simulate_paths(spec, n1, 11, indices)
    long = simulate_paths(spec, n2, 11, indices)
    assert np.array_equal(short.view(np.uint64), long[:, :n1].view(np.uint64))


@pytest.mark.parametrize("indices", [[-1], [3, -2], [2**64], [0, 2**64 + 7], range(-2, 3),
                                     range(2**64 - 1, 2**64 + 1), np.array([3, -2]),
                                     np.array([-1], dtype=np.int8)])
def test_simulate_paths_refuses_indices_outside_uint64(indices):
    with pytest.raises(DomainError, match="replication index"):
        simulate_paths(UNIFORM, 5, 0, indices)


@pytest.mark.parametrize("indices", [[[1, 2]], np.array([[1], [2]]), [[1], [2, 3]], [[]]],
                         ids=["nested-list", "2-d-array", "ragged", "empty-2-d"])
def test_simulate_paths_refuses_nested_indices(indices):
    # [[1, 2]] once drew two rows, and a ragged list raised numpy's ValueError.
    with pytest.raises(DomainError, match="^replication indices must be a flat sequence"):
        simulate_paths(AR1, 5, 0, indices)


@pytest.mark.parametrize("indices", [5, None], ids=["int", "none"])
def test_simulate_paths_refuses_indices_that_are_no_sequence(indices):
    with pytest.raises(DomainError, match="^replication indices must be a flat sequence"):
        simulate_paths(AR1, 5, 0, indices)


@pytest.mark.parametrize("indices", [[1.5], [0, 1.0], ["1"], np.array([1.0, 2.0]),
                                     np.array([True, False])],
                         ids=["float", "whole-float", "str", "float-array", "bool-array"])
def test_simulate_paths_refuses_indices_that_are_not_integers(indices):
    with pytest.raises(DomainError, match="^replication indices must be a flat sequence of integers$"):
        simulate_paths(AR1, 5, 0, indices)


@pytest.mark.parametrize("indices", [
    range(0), range(7), range(3, 3), range(5, 40), range(2, 11, 3), range(9, 0, -2),
    range(2**63 - 5, 2**63 - 1), range(2**63 - 2, 2**63 + 2), range(2**64 - 2, 2**64),
    range(2**32 - 2, 2**32 + 2),
], ids=repr)
def test_index_array_of_a_range_equals_that_of_its_list(indices):
    # A range of step 1 inside int64 takes np.arange; any other range, and
    # one past int64, takes the list's path.  Values and dtype agree.
    from ebmix.processes import _index_array

    got, want = _index_array(indices), _index_array(list(indices))
    assert got.tolist() == want.tolist() == list(indices)
    if len(indices):
        assert got.dtype == want.dtype


@pytest.mark.parametrize("seed", [-3, (-1, 0), (4, -1)])
def test_simulate_refuses_negative_seed(seed):
    with pytest.raises(DomainError, match="nonnegative integer, got -"):
        simulate(UNIFORM, 5, seed)


def test_simulate_paths_refuses_negative_master_seed():
    with pytest.raises(DomainError, match="nonnegative integer, got -3"):
        simulate_paths(UNIFORM, 5, -3, range(2))


def test_simulate_paths_of_no_indices_is_empty():
    assert simulate_paths(UNIFORM, 5, 0, []).shape == (0, 5)


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


def test_cached_stationary_law_is_a_fresh_copy_and_a_bad_chain_raises_every_time():
    pi = stationary_distribution(TWO_STATE)
    kept = pi.copy()
    pi[:] = 0.0
    assert np.array_equal(stationary_distribution(TWO_STATE), kept)
    for _ in range(2):
        with pytest.raises(DomainError, match="ergodic"):
            stationary_distribution([[0.0, 1.0], [1.0, 0.0]])


def test_stationary_distribution_two_state():
    pi = stationary_distribution(TWO_STATE)
    assert pi == pytest.approx([0.5, 0.5], rel=1e-12)


def test_markov_long_run_variance_closed_form():
    # Cov(h_0, h_k) = 0.25 * 0.8^k, so LRV = 0.25 * (1 + 2 * 0.8 / 0.2) = 2.25
    assert markov_long_run_variance(TWO_STATE, H01) == pytest.approx(2.25, rel=1e-12)


def test_markov_long_run_variance_refuses_h_of_another_length():
    want = r"^h must list one finite number per state, got shape \(3,\)$"
    with pytest.raises(DomainError, match=want):
        markov_long_run_variance(TWO_STATE, [0.0, 0.5, 1.0])


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
    with pytest.raises(DomainError, match="^regime must be 'phi' or 'phi_tilde', got 'agnostic'$"):
        mixing_budget_for(bernoulli_ar1(), "agnostic", 10)
    # n is checked first, on every path, before the regime and the kind.
    for spec, regime, n in ((iid_bernoulli(0.3), "phi", -5), (iid_bernoulli(0.3), "x", -5),
                            (hetero_mds([1.0]), "phi", 0), (bernoulli_ar1(), "phi", -5),
                            (finite_markov(TWO_STATE, H01), "phi_tilde", 0)):
        with pytest.raises(DomainError, match="^n must be a positive integer"):
            mixing_budget_for(spec, regime, n)


_HALF_CHAIN = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("spec, n, exact", [
    (iid_bernoulli(0.3), 10**6, True),
    (iid_bernoulli(0.0), 200, True),
    (iid_bernoulli(1.0), 200, True),
    (iid_rademacher(), 10**6, True),
    (hetero_mds([0.125, 1.5, 3.0]), 10**6, True),
    (hetero_mds([0.3]), 1, True),  # one value: no sum to round
    (hetero_mds([0.3]), 2, False),  # 0.3 has 54 fractional bits
    (hetero_mds([2.0**1023]), 1, True),
    (hetero_mds([2.0**1023]), 2, False),  # 2**1023 + 2**1023 overflows
    (finite_markov([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
                   [0.0, 0.5, 1.0]), 10_000, True),  # the benchmark's slow chain
    (finite_markov(_HALF_CHAIN, [0, 1]), 2**53, True),
    (finite_markov(_HALF_CHAIN, [0, 1]), 2**53 + 1, False),
    (finite_markov(_HALF_CHAIN, [0.0, -0.0]), 2**60, True),
    (finite_markov(_HALF_CHAIN, [0.1, 1]), 1, False),
    (finite_markov(_HALF_CHAIN, [2.0**-1074, 1]), 1, False),
    (finite_markov(_HALF_CHAIN, [2.0**-1074, 2.0**-1073]), 10**6, True),
    (iid_uniform(0.0, 1.0), 1, False),
    (iid_uniform(-0.5, 2.0), 200, False),
    (bernoulli_ar1(), 1, False),
    (bernoulli_ar1(), 200_000, False),
])
def test_sums_are_exact_truth_table(spec, n, exact):
    assert processes.sums_are_exact(spec, n) is exact


def test_sums_are_exact_refuses_a_bad_length():
    with pytest.raises(DomainError):
        processes.sums_are_exact(iid_bernoulli(0.3), 0)


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


@pytest.mark.filterwarnings("error")  # no overflow warning on the way
@pytest.mark.parametrize("spec, message", [
    (iid_uniform(-1e308, 1e308), "ground truth sigma2_marginal = inf is not finite"),
    (hetero_mds([1e200]), "ground truth sigma2_marginal = inf is not finite"),
    (finite_markov(_HALF_CHAIN, [1e200, -1e200]),
     "ground truth sigma2_marginal = inf is not finite"),
    (iid_uniform(0.0, 1e100), "ground truth m4 = inf is not finite"),
], ids=["uniform", "hetero", "markov", "uniform-m4"])
def test_a_process_whose_ground_truth_overflows_is_refused_before_any_path(
    spec, message, monkeypatch
):
    # Such processes once ran and reported NaN radii with exit 0.
    monkeypatch.setattr(processes, "_uniforms", lambda *_: pytest.fail("a path was drawn"))
    want = f"^{re.escape(message)}: the process's values are too large$"
    with pytest.raises(DomainError, match=want):
        ground_truth(spec)
    with pytest.raises(DomainError, match=want):
        simulate(spec, 5, 0)


def test_a_ground_truth_with_a_field_that_is_not_finite_is_refused():
    with pytest.raises(DomainError, match=r"^ground truth m4 = nan is not finite"):
        processes.GroundTruth(mu=0.0, sigma2_marginal=1.0, sigma2_longrun=1.0,
                              b_range=(-1.0, 1.0), m4=math.nan)
    with pytest.raises(DomainError, match=r"^ground truth b_range = \(0.0, inf\) is not finite"):
        processes.GroundTruth(mu=0.0, sigma2_marginal=1.0, sigma2_longrun=1.0,
                              b_range=(0.0, math.inf), m4=1.0)


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


def test_a_chain_too_slow_for_its_fundamental_matrix_is_refused_with_its_p():
    # Ergodic, so the spec is built, but I - P + 1 pi is singular in floats;
    # numpy's LinAlgError once escaped as a traceback.
    P = [[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-200], [1e-200, 0.0, 1.0]]
    spec = finite_markov(P, [0.0, 0.5, 1.0])
    want = r"^P = \[\[1\.0, 1e-200, 0\.0\], .* fundamental matrix is singular$"
    with pytest.raises(DomainError, match=want):
        markov_long_run_variance(P, [0.0, 0.5, 1.0])
    with pytest.raises(DomainError, match=want):
        ground_truth(spec)


@pytest.mark.parametrize("build, message", [
    (lambda: iid_bernoulli(1.5), "bernoulli needs p in [0, 1]"),
    (lambda: hetero_mds([]), "hetero_mds needs a nonempty list"),
    (lambda: iid_uniform(2.0, 1.0), "uniform needs finite a < b"),
    (lambda: processes.ProcessSpec("ar2", {}), "unknown process kind 'ar2'"),
    (lambda: processes.ProcessSpec("iid_bounded", {"dist": "beta"}),
     "iid_bounded dist must be one of"),
], ids=["p-above-1", "no-scales", "a-above-b", "unknown-kind", "unknown-dist"])
def test_invalid_specs_rejected(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        build()


def test_spec_round_trip():
    for spec in ALL_SPECS:
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec


# --- segment-parallel recurrences against the sequential per-timestep loops ---

STICKY = [[0.999, 0.001], [0.001, 0.999]]
SLOW_3 = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]
# Its phi(k) falls below the 1e-15 cut-off before its float powers repeat.
FAST_2 = [[0.5, 0.5], [0.3, 0.7]]


def _sequential_paths(spec, u):
    """The per-timestep transform loops, kept as the reference for ``_recur``.
    A lone row runs as a plain Python float loop with the same arithmetic,
    which is much faster than one-element NumPy steps."""
    n_paths, n = u.shape
    if spec.kind == "finite_markov":
        P = np.asarray(spec.params["P"], dtype=float)
        h = np.asarray(spec.params["h"], dtype=float)
        pi = stationary_distribution(P)
        cum_pi = np.cumsum(pi)
        cum_rows = np.cumsum(P, axis=1)
        cum_pi[-1] = 1.0
        cum_rows[:, -1] = 1.0
        states = np.empty((n_paths, n), dtype=np.int64)
        if n_paths == 1:
            rows = cum_rows.tolist()
            state = sum(c <= u[0, 0] for c in cum_pi.tolist())
            path = [state]
            for ut in u[0, 1:].tolist():
                state = sum(c <= ut for c in rows[state])
                path.append(state)
            states[0] = path
            return h[states]
        states[:, 0] = (cum_pi[None, :] <= u[:, 0:1]).sum(axis=1)
        for t in range(1, n):
            states[:, t] = (cum_rows[states[:, t - 1]] <= u[:, t : t + 1]).sum(axis=1)
        return h[states]
    x = np.empty((n_paths, n), dtype=float)
    x[:, 0] = u[:, 0]
    if n_paths == 1:
        xt = float(u[0, 0])
        path = [xt]
        for ut in u[0, 1:].tolist():
            xt = 0.5 * xt + 0.5 * (ut < 0.5)
            path.append(xt)
        x[0] = path
        return x
    for t in range(1, n):
        x[:, t] = 0.5 * x[:, t - 1] + 0.5 * (u[:, t] < 0.5)
    return x


def _assert_bit_equal(spec, u):
    # The transform overwrites the uniforms it is given.
    got = processes._paths_from_uniforms(spec, u.copy())
    want = _sequential_paths(spec, u)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


WARMUP = processes._RECUR_WARMUP
ROW_TARGET = processes._RECUR_STATES
AR1 = bernoulli_ar1()
MARKOV_3 = finite_markov(SLOW_3, [0.0, 0.5, 1.0])
HETERO = hetero_mds([0.3, 0.6, 1.0])


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


TILE = processes._TILE


@pytest.mark.parametrize("spec", [AR1, MARKOV_3], ids=lambda s: s.label())
@pytest.mark.parametrize(
    "rows, n, regime",
    [
        (3, TILE - 3, "shorter than a tile"),
        (2, TILE, "one partial tile"),
        (2, TILE + 1, "whole tiles"),
        (5, 3 * TILE + 4, "partial last tile"),
        (4, 1000, "segments with a partial last tile"),
    ],
)
def test_recurrence_tiles_of_any_length(spec, rows, n, regime):
    segments = processes._segment_count(rows, n)
    steps = n // segments - 1  # indices the tiles of each segment cover
    if regime == "shorter than a tile":
        assert segments == 1 and n < TILE
    elif regime == "whole tiles":
        assert segments == 1 and steps % TILE == 0
    elif regime == "segments with a partial last tile":
        assert segments > 1 and steps % TILE != 0 and n % segments != 0
    else:
        assert segments == 1 and steps % TILE != 0
    u = np.random.default_rng(rows * 31 + n).random((rows, n))
    _assert_bit_equal(spec, u)


def _skip_one_chain(k):
    # Row i is uniform over every state but 1 + i % (k - 2), so each row's
    # cumulative values are multiples of 1/(k - 1), shared by all rows.
    P = np.full((k, k), 1.0 / (k - 1))
    P[np.arange(k), 1 + np.arange(k) % (k - 2)] = 0.0
    return P


@pytest.mark.parametrize("tile", [1, 5, 32, 64])
@pytest.mark.parametrize(
    "spec, rows, n",
    [
        (AR1, 3, 2000),
        (MARKOV_3, 3, 2000),
        (AR1, 1, 5 * WARMUP - 7),
        (MARKOV_3, 1, 5 * WARMUP - 7),
        (AR1, 5, 40),
        ("over-table-limit", 2, 4 * WARMUP + 9),
        ("sticky", 4, 6000),
    ],
    ids=lambda v: v.label() if hasattr(v, "label") else str(v),
)
def test_recurrence_is_exact_at_any_tile_width(monkeypatch, tile, spec, rows, n):
    # Every case but the short one has segments, so the 63-step warm-up
    # ends in a partial tile at every width but 1; the lone rows and the
    # chains also leave a tail.
    monkeypatch.setattr(processes, "_TILE", tile)
    sticky = spec == "sticky"
    if sticky:
        spec = finite_markov(STICKY, H01)
    elif spec == "over-table-limit":  # the column step
        P = _skip_one_chain(257)
        spec = finite_markov(P / P.sum(axis=1, keepdims=True), np.arange(257, dtype=float))
    segments = processes._segment_count(rows, n)
    assert (segments > 1) == (n >= 4 * WARMUP)
    u = np.random.default_rng(rows * 101 + n).random((rows, n))
    if sticky:
        # Segments whose true start is not the path's first state need repair.
        length = n // segments
        starts = _sequential_paths(spec, u)[:, length : segments * length : length]
        assert np.any(starts != starts[:, :1])
    _assert_bit_equal(spec, u)


def test_ar1_step_equals_the_three_call_expression_bit_for_bit():
    # The step computes (x + b) * 0.5; the reference loop, 0.5 * x + 0.5 * b.
    # Both halve x + b after one rounding for normal x, and both give 0.5 * x
    # or 0.5 for a subnormal x, where halving itself rounds.
    rng = np.random.default_rng(10)
    special = [0.0, np.nextafter(0.0, 1.0), 2.0**-1022, 1.0 - 2.0**-53, 1.0]
    draws = rng.random(20_000) * 2.0 ** -rng.integers(0, 1080, 20_000).astype(float)
    x = np.concatenate([special, draws, rng.random(20_000)])
    for b in (0, 1):
        bits = np.full(x.size, b, dtype=np.uint8)
        want = (0.5 * x + 0.5 * bits).view(np.uint64)
        assert np.array_equal(((x + bits) * 0.5).view(np.uint64), want)
        fresh = processes._ar1_step(x, bits, np.empty_like(x))
        # In a tile the state is one row and the out row holds the inputs.
        tile = np.empty((2, x.size))
        tile[0], tile[1] = x, bits
        in_row = processes._ar1_step(tile[0], tile[1], tile[1])
        assert np.shares_memory(in_row, tile[1])
        for got in (fresh, in_row):
            assert np.array_equal(got.view(np.uint64), want)


def test_chain_with_more_states_than_a_byte_holds():
    # State indices above 255 need a wider dtype than uint8; h is the index,
    # so the values show which states were visited.
    k = 300
    P = np.random.default_rng(6).uniform(0.5, 1.0, size=(k, k))
    P /= P.sum(axis=1, keepdims=True)
    spec = finite_markov(P, np.arange(k, dtype=float))
    u = np.random.default_rng(7).random((4, 600))
    assert processes._segment_count(4, 600) > 1
    assert _sequential_paths(spec, u).max() > 255
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


def _counting_recur(monkeypatch):
    """Make ``_recur`` count its step calls into the returned list."""
    calls = [0]
    real = processes._recur

    def recur(step, *args, **kwargs):
        def counted(*step_args):
            calls[0] += 1
            return step(*step_args)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(processes, "_recur", recur)
    return calls


@pytest.mark.parametrize("rows, n, seed", [(8, 60_000, 4), (3, 200_000, 1)])
def test_repair_steps_only_until_the_paths_meet(monkeypatch, rows, n, seed):
    # Two copies of the flip chain (flip probability 1e-3) meet only when one
    # of them flips, after ~500 steps on average, so most guessed starts are
    # wrong and their re-runs outlast a segment.  Recomputing each wrong
    # segment in turn took 58 086 and 153 879 step calls here.
    spec = finite_markov(STICKY, H01)
    u = np.random.default_rng(seed).random((rows, n))
    calls = _counting_recur(monkeypatch)
    got = processes._paths_from_uniforms(spec, u.copy())
    assert calls[0] <= 6000
    # Lone rows take the reference's fast scalar loop.
    want = np.vstack([_sequential_paths(spec, u[i : i + 1]) for i in range(rows)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("spec", [AR1, MARKOV_3], ids=lambda s: s.label())
@pytest.mark.parametrize("rows, n", [(1, 5000), (3, 2000), (8, 1001), (16, 20_011)])
def test_recurrence_with_a_two_step_warmup_stays_exact(monkeypatch, spec, rows, n):
    # A guess driven through two inputs is nearly always wrong, so runs of
    # consecutive wrong starts take several repair rounds of at most L + 1
    # step calls each.
    monkeypatch.setattr(processes, "_RECUR_WARMUP", 2)
    segments = processes._segment_count(rows, n)
    length = n // segments
    assert segments > 1
    calls = _counting_recur(monkeypatch)
    u = np.random.default_rng(rows * 13 + n).random((rows, n))
    _assert_bit_equal(spec, u)
    # warm-up and start, the segments, the checks, the tail
    unrepaired = 2 + (length - 1) + 1 + n % segments
    assert calls[0] > unrepaired + 2 * (length + 1)


@pytest.mark.parametrize(
    "rows, n",
    [(1, 1), (1, 255), (1, 256), (4, 1000), (94, 10_000), (4, 200_000), (16, 20_011),
     (8, 60_000), (1, 2_000_000), (ROW_TARGET, 600), (1, 10**7 + 1)],
)
def test_segment_count_takes_the_fewest_steps_from_half_its_cap(rows, n):
    cap = max(1, min(ROW_TARGET // rows, n // (2 * WARMUP)))
    counts = range((cap + 1) // 2, cap + 1)
    segments = processes._segment_count(rows, n)
    assert segments in counts
    steps = [n // s + n % s for s in counts]
    assert n // segments + n % segments == min(steps)
    assert segments == counts[steps.index(min(steps))]  # the smallest on a tie


def test_long_rows_and_the_ar1_benchmark_chunk_have_no_tail():
    # A 4 x 2e5 chunk and a lone 2e6 row left 64 and 1 152 tail steps with
    # the most segments the cap allowed.
    assert processes._segment_count(4, 200_000) == 1000
    assert processes._segment_count(1, 2_000_000) == 4000


@pytest.mark.parametrize(
    "a",
    [
        np.empty((1, 0)),  # a one-state chain has no threshold
        np.array([[0.5, 0.75], [0.5, 0.75], [0.25, 0.5]]),  # shared thresholds
        np.array([[0.5, 0.5 - 1e-13], [0.25, 0.75]]),  # a row out of order
        np.array([[0.0, -0.0, 1.0], [1.0, 0.0, 0.0]]),
        np.random.default_rng(8).integers(0, 9, (17, 16)) / 8,  # many ties
        np.random.default_rng(9).uniform(0.0, 1.0, (40, 39)),
    ],
    ids=["empty", "shared", "unsorted", "signed-zeros", "ties", "distinct"],
)
def test_unique_equals_numpy_unique(a):
    got, want = processes._unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(3, 70_001), (1, 5), (0, 5)], ids=str)
def test_buckets_and_the_chain_lookup_walk_flat_blocks_of_the_uniforms(monkeypatch, shape):
    # 3 x 70 001 values are no multiple of _BLOCK, and each row is longer.
    chain = processes._chain(SLOW_3)
    rng = np.random.default_rng(shape)
    u = rng.random(shape)
    hits = rng.integers(0, max(u.size, 1), u.size // 3)
    u.flat[hits] = rng.choice(chain.cuts, hits.size)  # uniforms exactly on a cut
    want = np.searchsorted(chain.cuts, u, side="right").astype(np.uint8)
    got = processes._buckets(chain.cuts, u)
    assert got.dtype == np.uint8 and got.shape == shape
    assert np.array_equal(got, want)
    # The h lookup maps every state the recurrence returns, across block edges.
    states = []
    real = processes._recur
    monkeypatch.setattr(processes, "_recur", lambda *args: states.append(real(*args)) or states[-1])
    values = processes._paths_from_uniforms(MARKOV_3, u.copy())
    h = np.repeat(MARKOV_3.params["h"], chain.width)
    assert np.array_equal(values, h[states[0]])
    # A flat view of a non-contiguous array would be a copy: it raises.
    cut = np.random.default_rng(0).random((3, 7))[:, :5]
    for transform in (lambda: processes._buckets(chain.cuts, cut),
                      lambda: processes._paths_from_uniforms(MARKOV_3, cut)):
        with pytest.raises(ValueError, match="copy"):
            transform()


@pytest.mark.parametrize(
    "P, step",
    [
        # a zero probability puts a cumulative value of 1.0 before the last column
        ([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]], "_table_step"),
        # thresholds shared by several rows
        ([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25], [0.25, 0.25, 0.5]], "_table_step"),
        # a tiny negative entry leaves a cumulative row out of order
        ([[0.5, -1e-13, 0.5 + 1e-13], [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]], "_table_step"),
        (STICKY, "_table_step"),
        ([[1.0]], "_table_step"),  # one state, no threshold
        # 256 states x 256 buckets: exactly the table limit
        (np.full((256, 256), 1.0 / 256), "_table_step"),
        # 257 states x 256 buckets: just over it
        (_skip_one_chain(257), "_column_step"),
        # a small table, but 272 distinct thresholds: too many buckets for a byte
        (np.random.default_rng(8).uniform(0.5, 1.0, (17, 17)), "_column_step"),
    ],
    ids=["zero-probability", "shared-thresholds", "unsorted-row", "sticky", "one-state",
         "at-table-limit", "over-table-limit", "too-many-buckets"],
)
def test_markov_table_step_edge_cases_match_sequential_loop(monkeypatch, P, step):
    P = np.asarray(P, dtype=float)
    P /= P.sum(axis=1, keepdims=True)
    k = P.shape[0]
    spec = finite_markov(P, np.arange(k, dtype=float))
    cum_rows = np.cumsum(P, axis=1)
    cuts = np.unique(cum_rows[:, :-1])
    if step == "_table_step":
        assert k * (cuts.size + 1) <= processes._TABLE_SIZE and cuts.size < 256
    else:
        assert k * (cuts.size + 1) > processes._TABLE_SIZE or cuts.size >= 256
    rng = np.random.default_rng(k)
    u = rng.random((5, 1500))
    # uniforms that sit exactly on a threshold, or just below one
    hits = rng.integers(0, u.size, 500)
    u.flat[hits] = rng.choice(cuts[cuts < 1.0], 500) if (cuts < 1.0).any() else 0.0
    u.flat[hits[:100]] = np.nextafter(u.flat[hits[:100]], 0.0)
    taken = []
    for name in ("_table_step", "_column_step"):
        def spy(*args, _name=name, _real=getattr(processes, name)):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(processes, name, spy)
    # The step is built once per chain and cached; build this one afresh.
    processes._chain_set_up.cache_clear()
    _assert_bit_equal(spec, u)
    assert taken == [step]


@pytest.mark.parametrize(
    "spec",
    [iid_bernoulli(0.3), iid_uniform(-0.5, 2.0), iid_rademacher(), HETERO, MARKOV_3, AR1],
    ids=lambda s: s.label(),
)
def test_paths_are_written_into_the_uniforms(spec):
    u = np.random.default_rng(5).random((4, 3000))
    assert np.shares_memory(processes._paths_from_uniforms(spec, u), u)


@pytest.mark.parametrize("spec", [iid_rademacher(), HETERO], ids=lambda s: s.label())
def test_sign_paths_equal_the_where_expression_bit_for_bit(spec):
    u = np.random.default_rng(7).random((3, 4000))
    u[0, :3] = [0.5, np.nextafter(0.5, 0.0), 0.0]
    expected = np.where(u < 0.5, -1.0, 1.0)
    if spec.kind == "hetero_mds":
        scales = np.asarray(spec.params["scales"])
        expected = expected * scales[np.arange(u.shape[1]) % scales.size]
    got = processes._paths_from_uniforms(spec, u)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("spec", [iid_rademacher(), HETERO, MARKOV_3, AR1], ids=lambda s: s.label())
def test_paths_allocate_less_than_half_the_uniforms(spec):
    u = np.random.default_rng(6).random((64, 20_000))
    tracemalloc.start()
    try:
        processes._paths_from_uniforms(spec, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes / 2


def test_simulate_long_ar1_path_matches_sequential_loop():
    values, _ = simulate(AR1, 50_001, (9, 2))
    u = _numpy_generator((9, 2)).random((1, 50_001))
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
        (TWO_STATE, 5_000),  # its powers repeat inside the first block
        (STICKY, 40_000),  # its powers repeat after several blocks
        (STICKY, 1),
        (STICKY, 15_751),  # the last term before the repeat
        (STICKY, 15_752),  # the first repeated power, in the 62nd block
        (STICKY, 15_753),  # one repeated term after it
        (STICKY, 16_384),  # the repeat inside the last block, n at a block edge
        (FAST_2, 1_000),  # the repeated phi is below the cut-off
        # far past the repeat: the first block, then 2**16 repeated terms,
        # which end at a block edge, and one term more
        (SLOW_3, _PHI_BLOCK + (1 << 16)),
        (SLOW_3, _PHI_BLOCK + (1 << 16) + 1),
    ],
)
def test_markov_phi_budget_equals_running_sum_loop(P, n):
    assert markov_phi_budget(np.asarray(P), n).phi_sum == _sequential_phi_sum(P, n)


def _first_repeated_power(P, kmax):
    """The first k <= kmax with P^k == P^(k-1) bit for bit, else None."""
    P = np.asarray(P, dtype=float)
    previous = power = np.eye(P.shape[0])
    for k in range(1, kmax + 1):
        previous, power = power, power @ P
        if np.array_equal(power, previous):
            return k
    return None


def test_float_powers_reach_a_fixed_point():
    """Where the powers repeat, as the rows of the running-sum test assume."""
    assert _first_repeated_power(STICKY, 20_000) == 15_752
    assert _first_repeated_power(SLOW_3, 1_000) == 225
    assert _first_repeated_power(TWO_STATE, 1_000) == 159
    assert _first_repeated_power(FAST_2, 1_000) == 25


def test_markov_phi_budget_equals_running_sum_loop_on_a_larger_chain():
    rng = np.random.default_rng(8)
    P = rng.uniform(0.0, 1.0, size=(12, 12)) ** 4
    P /= P.sum(axis=1, keepdims=True)
    assert markov_phi_budget(P, 700).phi_sum == _sequential_phi_sum(P, 700)


def test_repeated_markov_phi_budget_calls_equal_the_loop():
    P = np.asarray(SLOW_3)
    want = _sequential_phi_sum(P, 3_001)
    hits = processes._phi_sum.cache_info().hits
    assert markov_phi_budget(P, 3_001).phi_sum == want
    assert markov_phi_budget(P.tolist(), 3_001).phi_sum == want
    assert processes._phi_sum.cache_info().hits == hits + 1


def test_markov_phi_budget_of_another_chain_of_the_same_shape_is_its_own():
    other = [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]
    first = markov_phi_budget(np.asarray(SLOW_3), 2_000).phi_sum
    second = markov_phi_budget(np.asarray(other), 2_000).phi_sum
    assert first == _sequential_phi_sum(SLOW_3, 2_000)
    assert second == _sequential_phi_sum(other, 2_000)
    assert second != first


def test_markov_phi_budget_refuses_a_non_ergodic_chain_on_every_call():
    periodic = np.asarray([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(2):
        with pytest.raises(DomainError, match="ergodic"):
            markov_phi_budget(periodic, 10)


@pytest.mark.parametrize(
    "spec, known",
    [(iid_bernoulli(0.3), ["dist", "p"]), (iid_rademacher(), ["dist"]),
     (iid_uniform(-1.0, 2.0), ["a", "b", "dist"]), (hetero_mds([0.5, 1.0]), ["scales"]),
     (finite_markov(TWO_STATE, H01), ["P", "h"]), (bernoulli_ar1(), [])],
    ids=lambda x: x.label() if isinstance(x, processes.ProcessSpec) else None,
)
def test_process_params_refuse_a_key_of_no_other_kind(spec, known):
    assert sorted(spec.params) == known  # each built spec passes with exactly its keys
    for extra in ("q", "dist_", "P" if "P" not in known else "p"):
        with pytest.raises(ConfigError) as info:
            processes.ProcessSpec(spec.kind, {**spec.params, extra: 1})
        assert str(info.value) == f"field 'process.params.{extra}': unknown field; known: {known}"
    with pytest.raises(ConfigError, match=r"^field 'process\.params\.q': unknown field"):
        processes.ProcessSpec.from_dict({"kind": spec.kind, "params": {**spec.params, "q": 0}})
