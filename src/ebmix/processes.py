"""Bounded stochastic-process generators with analytically known ground truth.

Reproducibility: every path is drawn from a Philox counter-based generator
seeded with ``numpy.random.SeedSequence(seed)``, where ``seed`` is either a
plain integer or a ``(master_seed, replication_index)`` pair.  Replications
therefore use disjoint substreams and results are identical across platforms
and across serial/parallel execution.

The AR(1) and finite-Markov paths equal the sequential recurrence
``x[t] = step(x[t-1], u[t])`` bit for bit, although ``_recur`` advances all
time segments of all paths together (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mixing_bounds import MixingBudget

KINDS = ("iid_bounded", "hetero_mds", "finite_markov", "bernoulli_ar1")
IID_DISTS = ("bernoulli", "rademacher", "uniform")

# Tail contributions below this size are dropped when accumulating mixing
# coefficient sums for ergodic finite chains.
_PHI_TAIL_CUTOFF = 1e-15
# Matrix powers are reduced this many at a time.
_PHI_BLOCK = 256

# Path recurrences advance about this many states per vectorized step, and a
# guessed segment start is driven through this many inputs before it is used.
_RECUR_STATES = 1 << 12
_RECUR_WARMUP = 128


@dataclass(frozen=True)
class ProcessSpec:
    """A named process with kind-specific parameters (JSON-serializable)."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown process kind {self.kind!r}; expected one of {KINDS}")
        _validate_params(self.kind, self.params)

    def label(self) -> str:
        if self.kind == "iid_bounded":
            dist = self.params["dist"]
            if dist == "bernoulli":
                return f"iid_bernoulli(p={self.params['p']:g})"
            if dist == "uniform":
                return f"iid_uniform({self.params['a']:g},{self.params['b']:g})"
            return "iid_rademacher"
        if self.kind == "hetero_mds":
            return f"hetero_mds(K={len(self.params['scales'])})"
        if self.kind == "finite_markov":
            return f"finite_markov(states={len(self.params['h'])})"
        return "bernoulli_ar1"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise DomainError("process spec must be a mapping with a 'kind' field")
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


def iid_bernoulli(p: float) -> ProcessSpec:
    return ProcessSpec("iid_bounded", {"dist": "bernoulli", "p": float(p)})


def iid_rademacher() -> ProcessSpec:
    return ProcessSpec("iid_bounded", {"dist": "rademacher"})


def iid_uniform(a: float, b: float) -> ProcessSpec:
    return ProcessSpec("iid_bounded", {"dist": "uniform", "a": float(a), "b": float(b)})


def hetero_mds(scales) -> ProcessSpec:
    """Bounded martingale differences Z_i = eps_i * s(i mod K) with
    independent sign flips eps_i and a fixed positive scale schedule s."""
    return ProcessSpec("hetero_mds", {"scales": [float(s) for s in scales]})


def finite_markov(transition, state_values) -> ProcessSpec:
    """Stationary ergodic finite chain emitting h(X_t) for state values h."""
    p = [[float(v) for v in row] for row in np.asarray(transition, dtype=float)]
    return ProcessSpec("finite_markov", {"P": p, "h": [float(v) for v in state_values]})


def bernoulli_ar1() -> ProcessSpec:
    """Dyadic AR(1): X_t = X_{t-1}/2 + eps_t/2 with Bernoulli(1/2) noise,
    started from its Uniform[0,1] stationary law."""
    return ProcessSpec("bernoulli_ar1", {})


def _validate_params(kind: str, params: dict) -> None:
    if kind == "iid_bounded":
        dist = params.get("dist")
        if dist not in IID_DISTS:
            raise DomainError(f"iid_bounded dist must be one of {IID_DISTS}, got {dist!r}")
        if dist == "bernoulli":
            p = params.get("p")
            if p is None or not (0.0 <= p <= 1.0):
                raise DomainError(f"bernoulli needs p in [0, 1], got {p!r}")
        if dist == "uniform":
            a, b = params.get("a"), params.get("b")
            if a is None or b is None or not (a < b):
                raise DomainError(f"uniform needs a < b, got a={a!r}, b={b!r}")
    elif kind == "hetero_mds":
        scales = params.get("scales")
        if not scales or any(s <= 0 for s in scales):
            raise DomainError("hetero_mds needs a nonempty list of positive scales")
    elif kind == "finite_markov":
        P = np.asarray(params.get("P"), dtype=float)
        h = params.get("h")
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise DomainError("P must be a square matrix")
        if h is None or len(h) != P.shape[0]:
            raise DomainError("h must list one value per state")
        _check_ergodic(P)


def _check_ergodic(P: np.ndarray) -> None:
    if np.any(P < -1e-12):
        raise DomainError("P must be elementwise nonnegative")
    rows = P.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-9):
        raise DomainError("P must be row-stochastic")
    # Primitivity (irreducible + aperiodic): some power of the 0/1 adjacency
    # matrix is all ones, and by Wielandt's bound the ((s-1)^2 + 1)-th power
    # is when any is.  Every row has a successor, so A^k > 0 implies
    # A^(k+1) > 0 and repeated squaring may overshoot the exponent.  Clipping
    # each product to 0/1 keeps tiny probabilities from underflowing, which a
    # matrix power of P does not; the clipped counts are exact in floats.
    reach = (P > 0).astype(float)
    for _ in range(max(1, math.ceil(math.log2((P.shape[0] - 1) ** 2 + 1)))):
        reach = np.minimum(reach @ reach, 1.0)
    if not reach.all():
        raise DomainError("P must be ergodic (irreducible and aperiodic)")


def stationary_distribution(P) -> np.ndarray:
    """Stationary row vector pi of an ergodic chain via a least-squares solve."""
    P = np.asarray(P, dtype=float)
    _check_ergodic(P)
    s = P.shape[0]
    a = np.vstack([P.T - np.eye(s), np.ones((1, s))])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def markov_long_run_variance(P, h) -> float:
    """Long-run variance Var_pi(h) + 2 sum_{k>=1} Cov_pi(h(X_0), h(X_k)).

    The covariance series is resolved exactly by the fundamental-matrix
    linear solve Z = (I - P + 1 pi)^{-1}: with h centered under pi,
    sum_{k>=1} P^k h_c = (Z - I) h_c.
    """
    P = np.asarray(P, dtype=float)
    h = np.asarray(h, dtype=float)
    pi = stationary_distribution(P)
    mu = float(pi @ h)
    hc = h - mu
    var = float(pi @ (hc * hc))
    s = P.shape[0]
    fundamental = np.linalg.inv(np.eye(s) - P + np.outer(np.ones(s), pi))
    tail = (fundamental - np.eye(s)) @ hc
    return var + 2.0 * float(pi @ (hc * tail))


def markov_phi_budget(P, n: int) -> MixingBudget:
    """Cumulative uniform-mixing budget Phi_n = sum_{k=1}^n phi(k) with
    phi(k) = max_x TV(P^k(x, .), pi) for a stationary ergodic finite chain.

    This TV quantity upper-bounds the mixing coefficient of the chain's
    natural filtration, hence provenance "analytic_bound".  Terms below
    1e-15 are dropped (the remaining geometric tail is negligible).
    """
    P = np.asarray(P, dtype=float)
    if n != int(n) or int(n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    pi = stationary_distribution(P)
    total = 0.0
    power = np.eye(P.shape[0])
    powers = np.empty((min(n, _PHI_BLOCK),) + P.shape)
    for lo in range(0, n, _PHI_BLOCK):
        block = powers[: min(_PHI_BLOCK, n - lo)]
        for j in range(block.shape[0]):
            power = power @ P
            block[j] = power
        phi = 0.5 * np.abs(block - pi).sum(axis=2).max(axis=1)
        below = np.flatnonzero(phi < _PHI_TAIL_CUTOFF)
        stop = below[0] + 1 if below.size else phi.size
        # cumsum adds term by term, so the total matches a scalar running sum.
        total = float(np.cumsum(np.concatenate(([total], phi[:stop])))[-1])
        if below.size:
            break
    return MixingBudget(regime="phi", phi_sum=total, tv_norm=None, provenance="analytic_bound")


def bernoulli_ar1_budget(n: int) -> MixingBudget:
    """Conditional-CDF mixing budget of the dyadic AR(1): the lag-k
    coefficient is 2^{-k}, so Phi~_n = 1 - 2^{-n} <= 1.  The test function is
    the identity on [0, 1], whose TV norm is 1."""
    if n != int(n) or int(n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    phi_sum = 1.0 - 0.5**n
    return MixingBudget(
        regime="phi_tilde", phi_sum=phi_sum, tv_norm=1.0, provenance="analytic_bound"
    )


@dataclass(frozen=True)
class GroundTruth:
    """Analytic facts about a process: target mean, variances, bounds, and
    moments used by oracles and reports.  ``b_abs`` bounds ``|Z_i|``."""

    mu: float
    sigma2_marginal: float
    sigma2_longrun: float | None
    b_range: tuple[float, float]
    b_abs: float
    tv_norm: float | None
    m4: float | None

    @property
    def range_width(self) -> float:
        return self.b_range[1] - self.b_range[0]

    @property
    def b_centered(self) -> float:
        """Bound on |Z_i - mu| derived from the range."""
        return max(self.b_range[1] - self.mu, self.mu - self.b_range[0])


def ground_truth(spec: ProcessSpec) -> GroundTruth:
    kind, p = spec.kind, spec.params
    if kind == "iid_bounded":
        if p["dist"] == "bernoulli":
            q = p["p"]
            s2 = q * (1.0 - q)
            return GroundTruth(
                mu=q,
                sigma2_marginal=s2,
                sigma2_longrun=s2,
                b_range=(0.0, 1.0),
                b_abs=1.0,
                tv_norm=1.0,
                m4=q * (1.0 - q) * (1.0 - 3.0 * q + 3.0 * q * q),
            )
        if p["dist"] == "rademacher":
            return GroundTruth(
                mu=0.0,
                sigma2_marginal=1.0,
                sigma2_longrun=1.0,
                b_range=(-1.0, 1.0),
                b_abs=1.0,
                tv_norm=2.0,
                m4=1.0,
            )
        a, b = p["a"], p["b"]
        w = b - a
        return GroundTruth(
            mu=(a + b) / 2.0,
            sigma2_marginal=w * w / 12.0,
            sigma2_longrun=w * w / 12.0,
            b_range=(a, b),
            b_abs=max(abs(a), abs(b)),
            tv_norm=w,
            m4=w**4 / 80.0,
        )
    if kind == "hetero_mds":
        s = np.asarray(p["scales"], dtype=float)
        avg2 = float(np.mean(s * s))
        top = float(np.max(s))
        return GroundTruth(
            mu=0.0,
            sigma2_marginal=avg2,
            sigma2_longrun=avg2,
            b_range=(-top, top),
            b_abs=top,
            tv_norm=2.0 * top,
            m4=float(np.mean(s**4)),
        )
    if kind == "finite_markov":
        P = np.asarray(p["P"], dtype=float)
        h = np.asarray(p["h"], dtype=float)
        pi = stationary_distribution(P)
        mu = float(pi @ h)
        hc = h - mu
        return GroundTruth(
            mu=mu,
            sigma2_marginal=float(pi @ (hc * hc)),
            sigma2_longrun=markov_long_run_variance(P, h),
            b_range=(float(np.min(h)), float(np.max(h))),
            b_abs=float(np.max(np.abs(h))),
            tv_norm=float(np.max(h) - np.min(h)),
            m4=float(pi @ hc**4),
        )
    # bernoulli_ar1: stationary law is Uniform[0, 1]; AR coefficient 1/2
    # gives long-run variance (1/12) * (1 + 0.5) / (1 - 0.5) = 1/4.
    return GroundTruth(
        mu=0.5,
        sigma2_marginal=1.0 / 12.0,
        sigma2_longrun=0.25,
        b_range=(0.0, 1.0),
        b_abs=1.0,
        tv_norm=1.0,
        m4=1.0 / 80.0,
    )


def mixing_budget_for(spec: ProcessSpec, regime: str, n: int) -> MixingBudget | None:
    """Best available budget of the requested regime, or None when the
    process offers no valid bound for it."""
    if regime not in ("phi", "phi_tilde"):
        raise DomainError(f"regime must be 'phi' or 'phi_tilde', got {regime!r}")
    truth = ground_truth(spec)
    if spec.kind in ("iid_bounded", "hetero_mds"):
        # Independent coordinates: every mixing coefficient is exactly zero.
        return MixingBudget(regime=regime, phi_sum=0.0, tv_norm=truth.tv_norm, provenance="exact")
    if spec.kind == "finite_markov":
        base = markov_phi_budget(np.asarray(spec.params["P"], dtype=float), n)
        # The conditional-CDF coefficient never exceeds the uniform one, so
        # the same sum is a valid phi_tilde budget.
        return MixingBudget(
            regime=regime,
            phi_sum=base.phi_sum,
            tv_norm=truth.tv_norm,
            provenance="analytic_bound",
        )
    if spec.kind == "bernoulli_ar1":
        if regime == "phi":
            return None  # not uniformly mixing; only the weaker regime applies
        return bernoulli_ar1_budget(n)
    return None


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, (tuple, list)):
        entropy = tuple(int(v) for v in seed)
    else:
        entropy = int(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _paths_from_uniforms(spec: ProcessSpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (paths, n) to process values, one row per path."""
    kind, p = spec.kind, spec.params
    if kind == "iid_bounded":
        if p["dist"] == "bernoulli":
            return (u < p["p"]).astype(float)
        if p["dist"] == "rademacher":
            return np.where(u < 0.5, -1.0, 1.0)
        return p["a"] + (p["b"] - p["a"]) * u
    if kind == "hetero_mds":
        scales = np.asarray(p["scales"], dtype=float)
        pattern = scales[np.arange(u.shape[1]) % scales.size]
        return np.where(u < 0.5, -1.0, 1.0) * pattern
    if kind == "finite_markov":
        P = np.asarray(p["P"], dtype=float)
        h = np.asarray(p["h"], dtype=float)
        pi = stationary_distribution(P)
        cum_pi = np.cumsum(pi)
        cum_rows = np.cumsum(P, axis=1)
        cum_pi[-1] = 1.0  # guard the top bin against rounding undershoot
        cum_rows[:, -1] = 1.0
        first = (cum_pi[None, :] <= u[:, 0:1]).sum(axis=1)
        states = _recur(
            lambda state, ut: (np.take(cum_rows, state, axis=0) <= ut[..., None]).sum(axis=-1),
            first,
            u,
        )
        return h[states]
    # bernoulli_ar1
    return _recur(lambda x, ut: 0.5 * x + 0.5 * (ut < 0.5), u[:, 0], u)


def _segment_count(rows: int, n: int) -> int:
    """Segments per path: about _RECUR_STATES states per step, and every
    segment at least twice as long as the warm-up."""
    return max(1, min(_RECUR_STATES // max(rows, 1), n // (2 * _RECUR_WARMUP)))


def _segment_view(a: np.ndarray, segments: int, length: int) -> np.ndarray:
    """``a[:, :segments * length]`` seen as (rows, segments, length), sharing memory."""
    row, col = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (a.shape[0], segments, length), (row, length * col, col)
    )


def _recur(step, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The array the loop ``out[:, 0] = first; out[:, t] = step(out[:, t-1], u[:, t])``
    produces, bit for bit, for uniforms ``u`` of shape (paths, n).

    Each path is cut into S segments of length L and all paths x segments
    advance together, one vectorized step per index within a segment.
    Segments after the first start from a guess (the path's first state)
    driven through the last _RECUR_WARMUP inputs of the previous segment.
    ``step`` is deterministic in (state, u_t), so chains fed the same inputs
    stay together once they meet (Propp & Wilson's coupling): a segment whose
    start equals the true state is exact to its end.  Starts are checked in
    order against one step from the previous segment's verified end, and only
    the paths that differ are recomputed; the last n - S*L indices are
    finished sequentially.  ``step`` must map states that compare equal to
    identical results.
    """
    rows, n = u.shape
    out = np.empty((rows, n), dtype=first.dtype)
    out[:, 0] = first
    segments = _segment_count(rows, n)
    length = n // segments
    xs = _segment_view(out, segments, length)
    us = _segment_view(u, segments, length)
    if segments > 1:
        guess = np.repeat(first[:, None], segments - 1, axis=1)
        for j in range(length - _RECUR_WARMUP + 1, length):
            guess = step(guess, us[:, :-1, j])
        xs[:, 1:, 0] = step(guess, us[:, 1:, 0])
    for j in range(1, length):
        xs[:, :, j] = step(xs[:, :, j - 1], us[:, :, j])
    if segments > 1:
        unsure = (step(xs[:, :-1, -1], us[:, 1:, 0]) != xs[:, 1:, 0]).any(axis=0)
        repaired = False
        for s in range(1, segments):
            if not (repaired or unsure[s - 1]):
                continue
            start = step(xs[:, s - 1, -1], us[:, s, 0])
            bad = np.flatnonzero(start != xs[:, s, 0])
            repaired = bad.size > 0
            if repaired:
                xs[bad, s, 0] = start[bad]
                for j in range(1, length):
                    xs[bad, s, j] = step(xs[bad, s, j - 1], us[bad, s, j])
    for t in range(segments * length, n):
        out[:, t] = step(out[:, t - 1], u[:, t])
    return out


def simulate(spec: ProcessSpec, n: int, seed) -> tuple[np.ndarray, GroundTruth]:
    """Draw one length-n path; deterministic given (spec, n, seed).

    ``seed`` may be an int or a ``(master_seed, replication_index)`` pair;
    the pair form draws from the same substream the Monte Carlo harness uses
    for that replication.
    """
    if n != int(n) or int(n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    u = _generator(seed).random((1, n))
    values = _paths_from_uniforms(spec, u)[0]
    return values, ground_truth(spec)


def simulate_paths(spec: ProcessSpec, n: int, master_seed: int, indices) -> np.ndarray:
    """Draw len(indices) paths, one per replication substream, shape (r, n)."""
    if n != int(n) or int(n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    idx = list(indices)
    u = np.empty((len(idx), n), dtype=float)
    for row, i in enumerate(idx):
        u[row] = _generator((master_seed, i)).random(n)
    return _paths_from_uniforms(spec, u)
