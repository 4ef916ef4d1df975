"""Bounded stochastic-process generators with analytically known ground truth.

Reproducibility: every path is drawn from the Philox counter-based generator
that ``numpy.random.SeedSequence(seed)`` seeds, where ``seed`` is either a
plain integer or a ``(master_seed, replication_index)`` pair.  Replications
therefore use disjoint substreams and results are identical across platforms
and across serial/parallel execution.  The Philox keys come from
``_philox_keys``, a port of SeedSequence's hash to NumPy arrays that derives
the keys of a whole batch of replications at once; it is tested bit for bit
against numpy's own.  Negative seeds and indices are refused with DomainError.

The AR(1) and finite-Markov paths equal the sequential recurrence
``x[t] = step(x[t-1], u[t])`` bit for bit, although ``_recur`` advances all
time segments of all paths together, a tile of time indices at a time (see
its docstring).  Each recurrence reads one byte per time index, not the
float64 uniform: the AR(1) reads its noise bit ``u < 0.5``, and a small
finite chain reads the uniform's bucket, the number of its distinct
cumulative transition probabilities at or below the uniform.  A chain whose
(state, bucket) table has at most ``_TABLE_SIZE`` entries, with at most 256
buckets, steps by one lookup in that table; a larger chain reads the uniform
and counts, column by column, the cumulative transition probabilities of the
current state that lie at or below it.  Both recurrences write their path
into the uniform buffer.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _check_array, _check_count, _check_finite
from .mixing_bounds import MixingBudget

KINDS = ("iid_bounded", "hetero_mds", "finite_markov", "bernoulli_ar1")
IID_DISTS = ("bernoulli", "rademacher", "uniform")

# Tail contributions below this size are dropped when accumulating mixing
# coefficient sums for ergodic finite chains.
_PHI_TAIL_CUTOFF = 1e-15
# Matrix powers are reduced this many at a time.
_PHI_BLOCK = 256
# Once the float powers repeat, the repeated term is added this many at a time.
_PHI_RUN = 1 << 16

# Path recurrences advance about this many states per vectorized step, and a
# guessed segment start is driven through this many inputs before it is used.
_RECUR_STATES = 1 << 12
_RECUR_WARMUP = 128
# _recur steps through this many time indices per contiguous tile.
_TILE = 8
# A finite chain steps by table lookup when its (state, bucket) table has at
# most this many entries.
_TABLE_SIZE = 1 << 16
# Element-wise passes over a (paths, n) array take blocks of this many
# elements at most, so their temporaries stay small.
_BLOCK = 1 << 16

# numpy.random.SeedSequence's pool size and hash constants
# (numpy/random/bit_generator.pyx), for _philox_keys.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


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
        params = d.get("params", {})
        return cls(kind=d["kind"], params=dict(params) if isinstance(params, dict) else params)


def iid_bernoulli(p: float) -> ProcessSpec:
    return ProcessSpec("iid_bounded", {"dist": "bernoulli", "p": _check_finite(p, "p")})


def iid_rademacher() -> ProcessSpec:
    return ProcessSpec("iid_bounded", {"dist": "rademacher"})


def iid_uniform(a: float, b: float) -> ProcessSpec:
    return ProcessSpec(
        "iid_bounded", {"dist": "uniform", "a": _check_finite(a, "a"), "b": _check_finite(b, "b")}
    )


def hetero_mds(scales) -> ProcessSpec:
    """Bounded martingale differences Z_i = eps_i * s(i mod K) with
    independent sign flips eps_i and a fixed positive scale schedule s."""
    return ProcessSpec("hetero_mds", {"scales": _check_array(scales, "scales").tolist()})


def finite_markov(transition, state_values) -> ProcessSpec:
    """Stationary ergodic finite chain emitting h(X_t) for state values h."""
    return ProcessSpec("finite_markov", {
        "P": _check_array(transition, "transition").tolist(),
        "h": _check_array(state_values, "state_values").tolist(),
    })


def bernoulli_ar1() -> ProcessSpec:
    """Dyadic AR(1): X_t = X_{t-1}/2 + eps_t/2 with Bernoulli(1/2) noise,
    started from its Uniform[0,1] stationary law."""
    return ProcessSpec("bernoulli_ar1", {})


def _validate_params(kind: str, params: dict) -> None:
    if not isinstance(params, dict):
        raise DomainError(f"process params must be a mapping, got {params!r}")
    if kind == "iid_bounded":
        dist = params.get("dist")
        if dist not in IID_DISTS:
            raise DomainError(f"iid_bounded dist must be one of {IID_DISTS}, got {dist!r}")
        if dist == "bernoulli":
            p = params.get("p")
            if _numbers(p, 0) is None or not (0.0 <= p <= 1.0):
                raise DomainError(f"bernoulli needs p in [0, 1], got {p!r}")
        if dist == "uniform":
            a, b = params.get("a"), params.get("b")
            if _numbers(a, 0) is None or _numbers(b, 0) is None or not (a < b):
                raise DomainError(f"uniform needs finite a < b, got a={a!r}, b={b!r}")
    elif kind == "hetero_mds":
        scales = _numbers(params.get("scales"), 1)
        if scales is None or not scales.size or np.any(scales <= 0):
            raise DomainError("hetero_mds needs a nonempty list of finite positive scales")
    elif kind == "finite_markov":
        P = _numbers(params.get("P"), 2)
        if P is None or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise DomainError("P must be a square matrix of finite numbers")
        h = _numbers(params.get("h"), 1)
        if h is None or h.size != P.shape[0]:
            raise DomainError("h must list one finite number per state")
        _check_ergodic(P)


def _numbers(value, ndim: int) -> np.ndarray | None:
    """``value`` as a float array with ``ndim`` dimensions, or None unless it
    holds only finite ints and floats (no bools, strings or ragged lists)."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if array.ndim != ndim or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        return None
    return array.astype(float)


def _check_ergodic(P: np.ndarray) -> None:
    if not np.isfinite(P).all():
        raise DomainError("P must hold finite numbers")
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
    P = _check_array(P, "P")
    return _stationary(P.tobytes(), P.shape).copy()


@functools.lru_cache(maxsize=64)
def _stationary(p_bytes: bytes, shape: tuple) -> np.ndarray:
    """``stationary_distribution`` of the float64 matrix with these bytes and
    shape, read-only.  Exceptions are not cached."""
    P = np.frombuffer(p_bytes).reshape(shape)
    _check_ergodic(P)
    s = P.shape[0]
    a = np.vstack([P.T - np.eye(s), np.ones((1, s))])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    pi.flags.writeable = False
    return pi


def markov_long_run_variance(P, h) -> float:
    """Long-run variance Var_pi(h) + 2 sum_{k>=1} Cov_pi(h(X_0), h(X_k)).

    The covariance series is resolved exactly by the fundamental-matrix
    linear solve Z = (I - P + 1 pi)^{-1}: with h centered under pi,
    sum_{k>=1} P^k h_c = (Z - I) h_c.
    """
    P, h = _check_array(P, "P"), _check_array(h, "h")
    pi = stationary_distribution(P)
    if h.shape != pi.shape:
        raise DomainError(f"h must list one finite number per state, got shape {h.shape}")
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
    1e-15 are dropped (the remaining geometric tail is negligible).  The
    float powers P^k reach a fixed point, P^(k+1) == P^k bit for bit, after
    which every phi(k) is the same float; from there the repeated term is
    added without further products, so the cost depends on where the powers
    repeat rather than on n.  The sum equals the scalar running sum of the
    first n terms either way.  It is computed once per (P, n) and then served
    from a cache; a P that is not ergodic raises on every call.
    """
    P = _check_array(P, "P")
    total = _phi_sum(P.tobytes(), P.shape, _check_count(n))
    return MixingBudget(regime="phi", phi_sum=total, tv_norm=None, provenance="analytic_bound")


@functools.lru_cache(maxsize=64)
def _phi_sum(p_bytes: bytes, shape: tuple, n: int) -> float:
    """``markov_phi_budget``'s sum for the float64 matrix with these bytes and
    shape.  Exceptions are not cached."""
    P = np.frombuffer(p_bytes).reshape(shape)
    pi = _stationary(p_bytes, shape)
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
        rest = n - lo - block.shape[0]
        if rest and np.array_equal(block[-1], block[-2]):
            # P^(k+1) == P^k makes every later product that same array, so
            # every later term is phi[-1].  One check per block keeps chains
            # that never repeat as fast as before.
            run = np.full(min(rest, _PHI_RUN) + 1, phi[-1])
            while rest:
                m = min(rest, _PHI_RUN)
                run[0] = total
                total = float(np.cumsum(run[: m + 1])[-1])
                rest -= m
            break
    return total


def bernoulli_ar1_budget(n: int) -> MixingBudget:
    """Conditional-CDF mixing budget of the dyadic AR(1): the lag-k
    coefficient is 2^{-k}, so Phi~_n = 1 - 2^{-n} <= 1.  The test function is
    the identity on [0, 1], whose TV norm is 1."""
    phi_sum = 1.0 - 0.5 ** _check_count(n)
    return MixingBudget(
        regime="phi_tilde", phi_sum=phi_sum, tv_norm=1.0, provenance="analytic_bound"
    )


@dataclass(frozen=True)
class GroundTruth:
    """Analytic facts about a process: target mean, variances, bounds, and
    moments used by oracles and reports.  ``b_abs`` bounds ``|Z_i|``."""

    mu: float
    sigma2_marginal: float
    sigma2_longrun: float
    b_range: tuple[float, float]
    b_abs: float
    tv_norm: float
    m4: float

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
        return _markov_truth(P.tobytes(), P.shape, h.tobytes())
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


@functools.lru_cache(maxsize=64)
def _markov_truth(p_bytes: bytes, shape: tuple, h_bytes: bytes) -> GroundTruth:
    """``ground_truth`` of the finite chain whose float64 P and h have these
    bytes.  Exceptions are not cached."""
    P = np.frombuffer(p_bytes).reshape(shape)
    h = np.frombuffer(h_bytes)
    pi = _stationary(p_bytes, shape)
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


def entropy_words(seed) -> np.ndarray:
    """The uint32 entropy words ``numpy.random.SeedSequence(seed)`` hashes, for
    an int seed or a sequence of ints: each int as its 32-bit words, least
    significant first, concatenated.  Negative or non-integer parts are refused."""
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    words = []
    for part in parts:
        try:
            value = operator.index(part)
        except TypeError:
            raise DomainError(f"seed must be a nonnegative integer, got {part!r}") from None
        if value < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return np.array(words, dtype=np.uint32)


def _index_array(indices) -> np.ndarray:
    """Replication indices as an int64 or uint64 array, refusing negatives and
    values at or above 2^64."""
    if not isinstance(indices, (range, np.ndarray)):
        indices = list(indices)
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        # Ints beyond int64 come back as float or object: check them exactly.
        try:
            idx = np.array([operator.index(i) for i in indices], dtype=object)
        except TypeError:
            raise DomainError("replication indices must be integers") from None
    if idx.size and idx.min() < 0:
        raise DomainError(f"replication index must be nonnegative, got {idx.min()}")
    if idx.size and idx.max() >= 2**64:
        raise DomainError(f"replication index must be below 2^64, got {idx.max()}")
    return idx if idx.dtype.kind in "iu" else idx.astype(np.uint64)


def _entropy_rows(master_seed: int, indices) -> tuple[np.ndarray, np.ndarray | None]:
    """``entropy_words((master_seed, i))`` for every index i, as zero-padded
    uint32 rows, and each row's word count (None when all rows are full): the
    seed's words, then i as one word below 2^32 or two words at or above it."""
    head = entropy_words(master_seed)
    idx = _index_array(indices)
    high = idx >> 32
    wide = bool(high.any())
    entropy = np.zeros((idx.size, head.size + 1 + wide), dtype=np.uint32)
    entropy[:, : head.size] = head
    entropy[:, head.size] = idx & _MASK32
    if not wide:
        return entropy, None
    entropy[:, -1] = high
    return entropy, head.size + 1 + (high > 0)


def _philox_keys(entropy, lengths=None) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)``, the key
    ``Philox(SeedSequence(row))`` starts from, for every row of a (rows, words)
    uint32 entropy array, as (rows, 2) uint64.

    A port of NumPy's ``mix_entropy`` and ``generate_state``
    (``numpy/random/bit_generator.pyx``) to wrapping uint32 array arithmetic.
    The hash constants advance independently of the data, so one sequence of
    them serves every row.  Row r holds its first ``lengths[r]`` words
    (default: all of them) and zeros after; a zero below the pool size hashes
    the same as a missing word, and words past ``lengths[r]`` are skipped.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, width = entropy.shape
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(_XSHIFT))

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            mixed = mix(pool[dst], hashmix(entropy[:, src]))
            pool[dst] = mixed if lengths is None else np.where(lengths > src, mixed, pool[dst])
    hash_const = _INIT_B
    state = np.stack([hashmix(word, _MULT_B) for word in pool], axis=1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _generator(generator: np.random.Generator, key, state: dict) -> np.random.Generator:
    """``generator`` set to the state ``Philox(SeedSequence(...))`` starts
    from for the substream with ``key``: that key, a zero counter and an
    empty buffer.  ``state`` is the Philox state dict of ``_uniforms``,
    reused for every key."""
    state["state"]["key"] = key
    generator.bit_generator.state = state
    return generator


def _paths_from_uniforms(spec: ProcessSpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (paths, n) to process values, one row per path.
    The values of every kind overwrite ``u`` and are returned in it."""
    kind, p = spec.kind, spec.params
    if kind == "iid_bounded":
        if p["dist"] == "bernoulli":
            return np.less(u, p["p"], out=u)
        if p["dist"] == "rademacher":
            return _signs(u)
        u *= p["b"] - p["a"]
        u += p["a"]
        return u
    if kind == "hetero_mds":
        scales = np.asarray(p["scales"], dtype=float)
        # +-1 times a scale is exact, so the product may overwrite the signs.
        _signs(u)
        u *= scales[np.arange(u.shape[1]) % scales.size]
        return u
    if kind == "finite_markov":
        P = np.asarray(p["P"], dtype=float)
        cum_pi, cuts, step, width, dtype = _markov_steps(P.tobytes(), P.shape)
        first = (cum_pi[None, :] <= u[:, 0:1]).sum(axis=1)
        inputs = u if cuts is None else _buckets(cuts, u)
        states = _recur(step, (first * width).astype(dtype), inputs)
        # State s is held as s * width, so h is looked up through a repeat.
        h = np.repeat(np.asarray(p["h"], dtype=float), width)
        for block in _blocks(u.shape):
            np.take(h, states[block], out=u[block], mode="clip")
        return u
    # bernoulli_ar1: the recurrence reads only the noise bits, so it can
    # write the path over the uniforms.
    bits = np.less(u, 0.5).view(np.uint8)
    return _recur(lambda x, b: 0.5 * x + 0.5 * b, u[:, 0].copy(), bits, out=u)


def _signs(u: np.ndarray) -> np.ndarray:
    """``np.where(u < 0.5, -1.0, 1.0)``, written into ``u``: ``u - 0.5`` is
    negative exactly when ``u < 0.5``, and +0.0 when ``u == 0.5``."""
    np.subtract(u, 0.5, out=u)
    return np.copysign(1.0, u, out=u)


@functools.lru_cache(maxsize=64)
def _markov_steps(p_bytes: bytes, shape: tuple):
    """The path set-up of the finite chain whose float64 P has these bytes,
    built once per chain rather than once per chunk: the cumulative
    stationary law, the cuts that bucket the uniforms (None when the step
    reads the uniforms), the step, the state width and the state dtype.
    The step only reads its arrays, so threads may share it.  Exceptions
    are not cached."""
    P = np.frombuffer(p_bytes).reshape(shape)
    cum_pi = np.cumsum(_stationary(p_bytes, shape))
    cum_rows = np.cumsum(P, axis=1)
    cum_pi[-1] = 1.0  # guard the top bin against rounding undershoot
    cum_rows[:, -1] = 1.0
    # u < 1 never reaches the last column, 1.0, so it is left out.
    cuts = _unique(cum_rows[:, :-1])
    cum_pi.flags.writeable = cuts.flags.writeable = False  # shared by every call
    # Each cut costs the buckets one counting pass, and they fit a byte.
    if cuts.size < 256 and P.shape[0] * (cuts.size + 1) <= _TABLE_SIZE:
        step, width = _table_step(cum_rows, cuts), cuts.size + 1
    else:
        step, width, cuts = _column_step(cum_rows), 1, None
    return cum_pi, cuts, step, width, np.min_scalar_type(P.shape[0] * width - 1)


def _unique(a) -> np.ndarray:
    """``np.unique(a)`` for a float array without NaN: its sorted distinct
    values.  np.unique's masked-array check imports numpy.ma."""
    v = np.sort(a, axis=None)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _blocks(shape):
    """Index tuples that cut an array of ``shape`` (rows, n) into blocks of at
    most _BLOCK elements, whole rows where they fit."""
    rows, n = shape
    width = min(n, _BLOCK)
    height = max(1, _BLOCK // width)
    for r in range(0, rows, height):
        for c in range(0, n, width):
            yield np.s_[r : r + height, c : c + width]


def _table_step(cum_rows: np.ndarray, cuts: np.ndarray):
    """The step from state s * width and bucket k, with width = cuts.size + 1,
    to the next state times width, by one lookup.

    A uniform in bucket k lies in [cuts[k-1], cuts[k]), and no threshold of
    any row lies strictly inside, so the thresholds at or below it are those
    at or below cuts[k-1] (none for k = 0): the column step's count, exactly.
    """
    width = cuts.size + 1
    lows = np.concatenate(([-np.inf], cuts))
    # A count does not depend on order, so sorting keeps it exact on a row
    # that rounding left out of order.
    rows = np.sort(cum_rows[:, :-1], axis=1)
    table = np.array([np.searchsorted(row, lows, side="right") for row in rows]) * width
    table = table.astype(np.min_scalar_type(table.size - 1)).ravel()
    return lambda state, bucket: np.take(table, state + bucket, mode="clip")


def _buckets(cuts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of ``cuts`` (fewer than 256) at or below each uniform, as uint8."""
    out = np.zeros(u.shape, dtype=np.uint8)
    scratch = np.empty(_BLOCK, dtype=bool)
    for block in _blocks(u.shape):
        ub, ob = u[block], out[block]
        hit = scratch[: ub.size].reshape(ub.shape)
        for cut in cuts:
            np.greater_equal(ub, cut, out=hit)
            ob += hit
    return out


def _column_step(cum_rows: np.ndarray):
    """The step that counts, column by column, the cumulative transition
    probabilities of the current state at or below the uniform."""
    cols = [np.ascontiguousarray(col) for col in cum_rows[:, :-1].T]

    def step(state, ut):
        nxt = np.zeros_like(state)
        for col in cols:
            nxt += np.take(col, state) <= ut
        return nxt

    return step


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


def _recur(step, first: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The array the loop ``out[:, 0] = first; out[:, t] = step(out[:, t-1], u[:, t])``
    produces, bit for bit, for per-time inputs ``u`` of shape (paths, n),
    written into ``out`` when given (it must not share memory with ``u``).

    Each path is cut into S segments of length L and all paths x segments
    advance together, one vectorized step per index within a segment.  The
    steps run over time tiles of _TILE indices: a tile's inputs are copied
    into a contiguous (tile, paths, segments) buffer, the state is kept as a
    contiguous (paths, segments) array, and the tile's states are written
    back into the output together, so no step touches a strided slice.
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
    if out is None:
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
    u_tile = np.empty((_TILE, rows, segments), dtype=u.dtype)
    x_tile = np.empty((_TILE, rows, segments), dtype=out.dtype)
    state = np.ascontiguousarray(xs[:, :, 0])
    for j0 in range(1, length, _TILE):
        j1 = min(j0 + _TILE, length)
        tu, tx = u_tile[: j1 - j0], x_tile[: j1 - j0]
        np.copyto(tu, us[:, :, j0:j1].transpose(2, 0, 1))
        for t in range(j1 - j0):
            state = tx[t] = step(state, tu[t])
        np.copyto(xs[:, :, j0:j1].transpose(2, 0, 1), tx)
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
    n = _check_count(n)
    keys = _philox_keys(entropy_words(seed)[None, :])
    values = _paths_from_uniforms(spec, _uniforms(keys, n))[0]
    return values, ground_truth(spec)


def simulate_paths(spec: ProcessSpec, n: int, master_seed: int, indices) -> np.ndarray:
    """Draw len(indices) paths, one per replication substream, shape (r, n)."""
    n = _check_count(n)
    keys = _philox_keys(*_entropy_rows(master_seed, indices))
    return _paths_from_uniforms(spec, _uniforms(keys, n))


def _uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """One row of n uniforms per Philox key, shape (len(keys), n).  The
    generator and its state dict are built per call, so threads share none."""
    u = np.empty((keys.shape[0], n), dtype=float)
    generator = np.random.Generator(np.random.Philox(key=[0, 0]))
    # A zero counter and an empty buffer, for _generator to put each key in.
    # The state setter reads counter, key and buffer element by element,
    # which is cheaper from lists of ints than from arrays.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # past the end of the 4-word buffer: nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, key in zip(u, keys.tolist()):
        _generator(generator, key, state).random(out=row)
    return u
