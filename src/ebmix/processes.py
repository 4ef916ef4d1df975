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
time segments of all paths together, a contiguous tile of ``_TILE`` time
indices at a time (see its docstring); the segments are reshape views of
the path.  Each segment starts from a guess driven through a 64-step
warm-up; wrong starts are repaired in rounds, each re-run stopping where it
meets the stored states.  The segment count is the one with the fewest
sequential steps from half a cap up to it.  A step
writes in place: ``step(state, inputs, out)`` puts the next state into
``out``, not into a new array; the AR(1) step is ``(x + b) * 0.5`` in two
calls, the table step an add and a ``take``.  Each recurrence reads one
byte per time index, not the float64 uniform: the AR(1) reads its noise bit
``u < 0.5``, and a small finite chain reads the uniform's bucket, the number
of its distinct cumulative transition probabilities at or below the uniform.
A chain whose (state, bucket) table has at most ``_TABLE_SIZE`` entries,
with at most 256 buckets, steps by one lookup in that table; a larger chain
reads the uniform and counts, column by column, the cumulative transition
probabilities of the current state that lie at or below it.  Both
recurrences write their path into the uniform buffer.  The elementwise
passes around a chain's recurrence, its buckets and its h lookup, walk flat
blocks of at most ``_BLOCK`` values of their C-contiguous buffers; a buffer
that is not contiguous raises rather than be copied.

``sums_are_exact`` tells, from the spec alone, whether every partial sum of
a path is an exact float (0/1, +-1 and other values on one dyadic grid), so
that a consumer may sum such paths in any order without a bit moving.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError, _check_array, _check_count, _check_finite, _object
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
# A wrong guess costs only a repair until it meets the true path, so a short
# warm-up is cheaper than a long one.
_RECUR_STATES = 1 << 12
_RECUR_WARMUP = 64
# _recur steps through this many time indices per contiguous tile: wider
# tiles make fewer copy calls per step, and each index adds a (paths,
# segments) row of states to the tile buffer, 25 KB for 4 paths of 2e5.
_TILE = 16
# A finite chain steps by table lookup when its (state, bucket) table has at
# most this many entries.
_TABLE_SIZE = 1 << 16
# Element-wise passes over a (paths, n) array take flat blocks of this many
# elements at most, so their temporaries stay small.  The harness sizes its
# row blocks by it too.
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
        if "kind" not in _object(cls, d, "process"):
            raise ConfigError("field 'process.kind': required")
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


# The keys of each kind's params, and of each iid_bounded dist's.
_PARAM_KEYS = {"bernoulli": ("dist", "p"), "rademacher": ("dist",), "uniform": ("dist", "a", "b"),
               "hetero_mds": ("scales",), "finite_markov": ("P", "h"), "bernoulli_ar1": ()}


def _validate_params(kind: str, params: dict) -> None:
    if not isinstance(params, dict):
        raise DomainError(f"process params must be a mapping, got {params!r}")
    dist = params.get("dist")
    if kind == "iid_bounded" and dist not in IID_DISTS:
        raise DomainError(f"iid_bounded dist must be one of {IID_DISTS}, got {dist!r}")
    known = _PARAM_KEYS[dist if kind == "iid_bounded" else kind]
    for key in params:
        if key not in known:
            raise ConfigError(f"field 'process.params.{key}': unknown field; known: {sorted(known)}")
    if kind == "iid_bounded":
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
        if _numbers(params.get("P"), 2) is None:
            raise DomainError(_NOT_SQUARE)
        pi = _chain(params["P"]).pi  # checks the shape and ergodicity, once per chain
        h = _numbers(params.get("h"), 1)
        if h is None or h.size != pi.size:
            raise DomainError("h must list one finite number per state")


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
    return _chain(P).pi.copy()


_ChainSetUp = namedtuple("_ChainSetUp", "P pi cum_pi cuts step width dtype")
_NOT_SQUARE = "P must be a square matrix of finite numbers"


def _chain(P) -> _ChainSetUp:
    """The set-up of the finite chain with transition matrix ``P``, the one
    reader of a P: anything but a nonempty square matrix of finite numbers
    raises DomainError.  Served from a cache keyed by P's float64 bytes."""
    P = _check_array(P, "P")
    if P.ndim != 2 or P.shape[0] != P.shape[1] or not P.size:
        raise DomainError(_NOT_SQUARE)
    return _chain_set_up(P.tobytes(), P.shape)


@functools.lru_cache(maxsize=64)
def _chain_set_up(p_bytes: bytes, shape: tuple) -> _ChainSetUp:
    """The set-up of the finite chain whose float64 P has these bytes, built
    once per chain rather than once per spec, plan or chunk; a chain that is
    not ergodic raises here, so each chain is checked once.  It holds P, the
    stationary law ``pi`` and the path set-up: the cumulative stationary law
    ``cum_pi``, the ``cuts`` that bucket the uniforms (None when the step
    reads the uniforms), the ``step``, the state ``width`` and its ``dtype``.
    Its arrays are read-only and the step only reads them, so threads may
    share it.  Exceptions are not cached."""
    P = np.frombuffer(p_bytes).reshape(shape)
    _check_ergodic(P)
    s = P.shape[0]
    a = np.vstack([P.T - np.eye(s), np.ones((1, s))])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    cum_pi = np.cumsum(pi)
    cum_rows = np.cumsum(P, axis=1)
    cum_pi[-1] = 1.0  # guard the top bin against rounding undershoot
    cum_rows[:, -1] = 1.0
    # u < 1 never reaches the last column, 1.0, so it is left out.
    cuts = _unique(cum_rows[:, :-1])
    pi.flags.writeable = cum_pi.flags.writeable = cuts.flags.writeable = False
    # Each cut costs the buckets one counting pass, and they fit a byte.
    if cuts.size < 256 and s * (cuts.size + 1) <= _TABLE_SIZE:
        step, width = _table_step(cum_rows, cuts), cuts.size + 1
    else:
        step, width, cuts = _column_step(cum_rows), 1, None
    return _ChainSetUp(P, pi, cum_pi, cuts, step, width, np.min_scalar_type(s * width - 1))


def markov_long_run_variance(P, h) -> float:
    """Long-run variance Var_pi(h) + 2 sum_{k>=1} Cov_pi(h(X_0), h(X_k)).

    The covariance series is resolved exactly by the fundamental-matrix
    linear solve Z = (I - P + 1 pi)^{-1}: with h centered under pi,
    sum_{k>=1} P^k h_c = (Z - I) h_c.  A chain that is ergodic but so
    barely that Z is singular in floating point raises DomainError.
    """
    P, pi, *_ = _chain(P)
    h = _check_array(h, "h")
    if h.shape != pi.shape:
        raise DomainError(f"h must list one finite number per state, got shape {h.shape}")
    mu = float(pi @ h)
    hc = h - mu
    var = float(pi @ (hc * hc))
    s = P.shape[0]
    try:
        fundamental = np.linalg.inv(np.eye(s) - P + np.outer(np.ones(s), pi))
    except np.linalg.LinAlgError:
        raise DomainError(f"P = {P.tolist()} mixes too slowly for a long-run variance: "
                          "its fundamental matrix is singular") from None
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
    first n terms either way.  A P whose rows are all equal draws each state
    independently of the last: every row is pi, so every phi(k) is 0 and the
    sum is exactly 0.0, not the rounding residue of the least-squares pi.
    It is computed once per (P, n) and then served from a cache; a P that is
    not ergodic raises on every call.
    """
    P = _chain(P).P
    total = _phi_sum(P.tobytes(), P.shape, _check_count(n))
    return MixingBudget(regime="phi", phi_sum=total, tv_norm=None, provenance="analytic_bound")


@functools.lru_cache(maxsize=64)
def _phi_sum(p_bytes: bytes, shape: tuple, n: int) -> float:
    """``markov_phi_budget``'s sum for the float64 matrix with these bytes and
    shape: exactly 0.0 when every row equals the first.  Exceptions are not
    cached."""
    P, pi, *_ = _chain_set_up(p_bytes, shape)
    if (P == P[0]).all():  # every row is the stationary law: each phi(k) is 0
        return 0.0
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
    moments used by oracles and reports.  ``b_abs`` bounds ``|Z_i|`` and
    ``tv_norm`` is the width of the range; both follow from ``b_range``.
    A field that is not finite (values too large for floats) is refused."""

    mu: float
    sigma2_marginal: float
    sigma2_longrun: float
    b_range: tuple[float, float]
    b_abs: float = field(init=False)
    tv_norm: float = field(init=False)
    m4: float

    def __post_init__(self):
        lo, hi = self.b_range
        object.__setattr__(self, "b_abs", max(abs(lo), abs(hi)))
        object.__setattr__(self, "tv_norm", hi - lo)
        for f in fields(self):
            if not np.isfinite(value := getattr(self, f.name)).all():
                raise DomainError(f"ground truth {f.name} = {value!r} is not finite: "
                                  "the process's values are too large")

    @property
    def range_width(self) -> float:
        return self.tv_norm

    @property
    def b_centered(self) -> float:
        """Bound on |Z_i - mu| derived from the range."""
        return max(self.b_range[1] - self.mu, self.mu - self.b_range[0])


@np.errstate(over="ignore", invalid="ignore")  # GroundTruth names the field that overflows
def ground_truth(spec: ProcessSpec) -> GroundTruth:
    kind, p = spec.kind, spec.params
    if kind == "iid_bounded":
        if p["dist"] == "bernoulli":
            q = p["p"]
            s2 = q * (1.0 - q)
            return GroundTruth(mu=q, sigma2_marginal=s2, sigma2_longrun=s2, b_range=(0.0, 1.0),
                               m4=q * (1.0 - q) * (1.0 - 3.0 * q + 3.0 * q * q))
        if p["dist"] == "rademacher":
            return GroundTruth(mu=0.0, sigma2_marginal=1.0, sigma2_longrun=1.0,
                               b_range=(-1.0, 1.0), m4=1.0)
        a, b = p["a"], p["b"]
        w = b - a
        try:
            m4 = w**4 / 80.0
        except OverflowError:  # a float power raises where a product gives inf
            m4 = math.inf
        return GroundTruth(mu=(a + b) / 2.0, sigma2_marginal=w * w / 12.0,
                           sigma2_longrun=w * w / 12.0, b_range=(a, b), m4=m4)
    if kind == "hetero_mds":
        s = np.asarray(p["scales"], dtype=float)
        avg2 = float(np.mean(s * s))
        top = float(np.max(s))
        return GroundTruth(mu=0.0, sigma2_marginal=avg2, sigma2_longrun=avg2,
                           b_range=(-top, top), m4=float(np.mean(s**4)))
    if kind == "finite_markov":
        pi, h = _chain(p["P"]).pi, np.asarray(p["h"], dtype=float)
        mu = float(pi @ h)
        hc = h - mu
        return GroundTruth(mu=mu, sigma2_marginal=float(pi @ (hc * hc)),
                           sigma2_longrun=markov_long_run_variance(p["P"], h),
                           b_range=(float(np.min(h)), float(np.max(h))), m4=float(pi @ hc**4))
    # bernoulli_ar1: stationary law is Uniform[0, 1]; AR coefficient 1/2
    # gives long-run variance (1/12) * (1 + 0.5) / (1 - 0.5) = 1/4.
    return GroundTruth(mu=0.5, sigma2_marginal=1.0 / 12.0, sigma2_longrun=0.25,
                       b_range=(0.0, 1.0), m4=1.0 / 80.0)


def mixing_budget_for(spec: ProcessSpec, regime: str, n: int) -> MixingBudget | None:
    """Best available budget of the requested regime, or None when the
    process offers no valid bound for it."""
    n = _check_count(n)
    if regime not in ("phi", "phi_tilde"):
        raise DomainError(f"regime must be 'phi' or 'phi_tilde', got {regime!r}")
    truth = ground_truth(spec)
    if spec.kind in ("iid_bounded", "hetero_mds"):
        # Independent coordinates: every mixing coefficient is exactly zero.
        return MixingBudget(regime=regime, phi_sum=0.0, tv_norm=truth.tv_norm, provenance="exact")
    if spec.kind == "finite_markov":
        base = markov_phi_budget(spec.params["P"], n)
        # The conditional-CDF coefficient never exceeds the uniform one, so
        # the same sum is a valid phi_tilde budget.
        return MixingBudget(regime=regime, phi_sum=base.phi_sum, tv_norm=truth.tv_norm,
                            provenance="analytic_bound")
    # bernoulli_ar1 is not uniformly mixing; only the weaker regime applies.
    return None if regime == "phi" else bernoulli_ar1_budget(n)


def sums_are_exact(spec: ProcessSpec, n: int) -> bool:
    """Whether every partial sum of at most ``n`` values of the process is an
    exact float, so that any summation order gives the same bits.

    True when the values are a finite set of multiples ``k * 2**-e`` of one
    power of two with ``n * max|k| <= 2**53`` and no sum of n of them
    overflows: every partial sum is then an integer multiple of ``2**-e`` of
    at most 53 bits.  That holds for iid Bernoulli (0/1) and Rademacher
    (+-1), for ``hetero_mds`` with dyadic scales and for finite chains with
    dyadic ``h`` such as (0, 1/2, 1), but not for iid uniform or
    ``bernoulli_ar1``, whose values are no finite set."""
    n = _check_count(n)
    kind, p = spec.kind, spec.params
    if kind == "iid_bounded" and p["dist"] != "uniform":
        values = [0.0, 1.0] if p["dist"] == "bernoulli" else [-1.0, 1.0]
    elif kind == "hetero_mds":
        values = p["scales"]  # the values are +-scale
    elif kind == "finite_markov":
        values = p["h"]
    else:
        return False
    sizes = [abs(Fraction(v)) for v in np.asarray(values, dtype=float).tolist() if v]
    if not sizes:
        return True
    # A float's denominator is a power of two, so this is the largest power
    # of two that divides every value.
    unit = min(Fraction(s.numerator & -s.numerator, s.denominator) for s in sizes)
    return n * max(sizes) / unit <= 2**53 and n * max(sizes) < 2**1024


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
    """Replication indices as int64, or uint64 when one is 2^63 or more,
    refusing all but a flat sequence of integers, negatives and 2^64 or more.
    A step-1 range inside int64 and a 1-d integer array of any width make no
    int per index; any other input is walked once with ``operator.index``."""
    if isinstance(indices, range) and indices.step == 1 and 0 <= indices.start and indices.stop < 2**63:
        return np.arange(indices.start, indices.stop)
    if isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu":
        idx, low, high = indices, indices.min(initial=0), indices.max(initial=0)
    else:
        try:
            idx = [operator.index(i) for i in indices]
        except TypeError:  # an int or None, a nested or a non-integer index
            raise DomainError("replication indices must be a flat sequence of integers") from None
        low, high = min(idx, default=0), max(idx, default=0)
    if low < 0:
        raise DomainError(f"replication index must be nonnegative, got {low}")
    if high >= 2**64:
        raise DomainError(f"replication index must be below 2^64, got {high}")
    return np.asarray(idx, dtype=np.uint64 if high >= 2**63 else np.int64)


def _entropy_rows(master_seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """``entropy_words((master_seed, i))`` for every index i as a uint32 row,
    the seed's words and then i's low and high word, and each row's word
    count for ``_philox_keys``: one word of i below 2^32, two at or above it."""
    head = entropy_words(master_seed)
    idx = _index_array(indices)
    entropy = np.empty((idx.size, head.size + 2), dtype=np.uint32)
    entropy[:, : head.size] = head
    entropy[:, head.size] = idx & _MASK32
    entropy[:, -1] = high = idx >> 32
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


def is_elementwise(spec: ProcessSpec) -> bool:
    """Whether :func:`_paths_from_uniforms` maps each uniform of ``spec`` to its
    value alone (iid and ``hetero_mds``), not through :func:`_recur` (finite
    chains and ``bernoulli_ar1``).  A recurrence is fast only with many
    states in flight, ``_RECUR_STATES`` per step over segments of at least
    128 steps, 2^19 values; an elementwise map runs as fast in small chunks,
    so the harness gives it a smaller chunk budget."""
    return spec.kind in ("iid_bounded", "hetero_mds")


def _paths_from_uniforms(spec: ProcessSpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (paths, n) to process values, one row per path.
    The values of every kind overwrite ``u`` and are returned in it; a
    finite chain walks flat blocks of ``u``, which must be C-contiguous."""
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
        chain = _chain(p["P"])
        first = (chain.cum_pi[None, :] <= u[:, 0:1]).sum(axis=1)
        inputs = u if chain.cuts is None else _buckets(chain.cuts, u)
        states = _recur(chain.step, (first * chain.width).astype(chain.dtype), inputs)
        # State s is held as s * width, so h is looked up through a repeat.
        h = np.repeat(np.asarray(p["h"], dtype=float), chain.width)
        flat_states, flat_u = states.ravel(), _flat(u)
        # take reads its indices through an 8-byte intp copy, so a block of
        # _BLOCK // 8 states keeps that copy at _BLOCK bytes.
        for lo in range(0, u.size, _BLOCK // 8):
            block = np.s_[lo : lo + _BLOCK // 8]
            np.take(h, flat_states[block], out=flat_u[block], mode="clip")
        return u
    # bernoulli_ar1: the recurrence reads only the noise bits, so it can
    # write the path over the uniforms.
    bits = np.less(u, 0.5).view(np.uint8)
    return _recur(_ar1_step, u[:, 0].copy(), bits, out=u)


def _ar1_step(x, b, out):
    """``0.5 * x + 0.5 * b`` for x in [0, 1] and a noise bit b, bit for bit,
    written into ``out`` as ``(x + b) * 0.5`` by two in-place calls.  For a
    normal x halving is exact, so both round x + b once; for a subnormal x
    both give ``0.5 * x`` (b = 0) or 0.5 (b = 1)."""
    np.add(x, b, out=out)
    return np.multiply(out, 0.5, out=out)


def _signs(u: np.ndarray) -> np.ndarray:
    """``np.where(u < 0.5, -1.0, 1.0)``, written into ``u``: ``u - 0.5`` is
    negative exactly when ``u < 0.5``, and +0.0 when ``u == 0.5``."""
    np.subtract(u, 0.5, out=u)
    return np.copysign(1.0, u, out=u)


def _unique(a) -> np.ndarray:
    """``np.unique(a)`` for a float array without NaN: its sorted distinct
    values.  np.unique's masked-array check imports numpy.ma."""
    v = np.sort(a, axis=None)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _flat(a: np.ndarray) -> np.ndarray:
    """``a.ravel()``, a view of a C-contiguous ``a``; any other ``a`` raises."""
    if not a.flags.c_contiguous:
        raise ValueError("a flat view of a non-contiguous array would be a copy")
    return a.ravel()


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

    def step(state, bucket, out):
        np.add(state, bucket, out=out)
        # take reads the small-int indices through an intp copy, so it may
        # write over them.  The method skips np.take's Python wrapper.
        return table.take(out, out=out, mode="clip")

    return step


def _buckets(cuts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of ``cuts`` (fewer than 256) at or below each uniform, as
    uint8, counted over flat blocks of _BLOCK uniforms of a C-contiguous ``u``."""
    flat = _flat(u)
    out = np.zeros(flat.size, dtype=np.uint8)
    scratch = np.empty(min(flat.size, _BLOCK), dtype=bool)
    for lo in range(0, flat.size, _BLOCK):
        ub, ob = flat[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        hit = scratch[: ub.size]
        # A bool is one byte of 0 or 1, so the hits add as uint8, with no cast.
        hits = hit.view(np.uint8)
        for cut in cuts:
            np.greater_equal(ub, cut, out=hit)
            ob += hits
    return out.reshape(u.shape)


def _column_step(cum_rows: np.ndarray):
    """The step that counts, column by column, the cumulative transition
    probabilities of the current state at or below the uniform."""
    cols = [np.ascontiguousarray(col) for col in cum_rows[:, :-1].T]

    def step(state, ut, out):
        out.fill(0)
        for col in cols:
            out += col.take(state) <= ut
        return out

    return step


def _segment_count(rows: int, n: int) -> int:
    """Segments per path.  The cap keeps about _RECUR_STATES states per step
    and every segment at least twice as long as the warm-up.  Among the
    counts S from half the cap up to it, the one with the fewest sequential
    steps, n // S in the segments plus the n % S of the tail, is taken, the
    smallest on a tie: a 4 x 2e5 chunk gets S = 1000, a lone 2e6 row S = 4000,
    and neither has a tail."""
    cap = max(1, min(_RECUR_STATES // max(rows, 1), n // (2 * _RECUR_WARMUP)))
    counts = np.arange((cap + 1) // 2, cap + 1)
    return int(counts[np.argmin(n // counts + n % counts)])


def _recur(step, first: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The array the loop ``out[:, 0] = first; step(out[:, t-1], u[:, t], out[:, t])``
    produces, bit for bit, for per-time inputs ``u`` of shape (paths, n),
    written into ``out`` when given (it must not share memory with ``u``).
    ``step(state, inputs, out)`` writes the next state into ``out`` and
    returns it.  ``out`` never shares memory with ``state``; it is a fresh
    buffer, or the inputs themselves when they cast safely to the state's
    dtype (see ``_steps``).

    Each path is cut into S segments of length L (``_segment_count``) and all
    paths x segments advance together, one vectorized step per index within
    a segment, in contiguous time tiles of _TILE indices (``_steps``).
    Segments after the first start from a guess (the path's first state)
    driven, through the same tiles, over the last _RECUR_WARMUP - 1 inputs of
    the previous segment and the segment's own first input.  ``step`` is
    deterministic in (state, u_t), so chains fed the same inputs stay
    together once they meet (Propp & Wilson's coupling): a segment whose
    start equals the true state is exact to its end.  Each start is then
    checked against one step from the previous segment's end, and the wrong
    ones are repaired in rounds (``_repair``).  The last n - S*L indices are
    finished as one more tiled run with one segment per path.  ``step`` must
    map states that compare equal to identical results.  The (paths, S, L)
    segments of ``u`` and ``out`` are reshape views of their first S*L
    columns: splitting the time axis never needs a copy.
    """
    rows, n = u.shape
    if out is None:
        out = np.empty((rows, n), dtype=first.dtype)
    out[:, 0] = first
    segments = _segment_count(rows, n)
    length = n // segments
    done = segments * length
    xs = out[:, :done].reshape(rows, segments, length)
    us = u[:, :done].reshape(rows, segments, length)
    # The warm-up, the segments and the tail cut their tiles from one buffer
    # (two when the inputs need their own dtype).
    x_flat = np.empty((_TILE + 1) * rows * segments, dtype=out.dtype)
    u_flat = None
    if not np.can_cast(u.dtype, out.dtype):
        u_flat = np.empty(_TILE * rows * segments, dtype=u.dtype)
    if segments > 1:
        guess = np.broadcast_to(first[:, None], (rows, segments - 1))
        warmup = us[:, :-1, length - _RECUR_WARMUP + 1 :]
        guess = _steps(step, guess, warmup, None, x_flat, u_flat)
        step(guess, us[:, 1:, 0], xs[:, 1:, 0])
    _steps(step, xs[:, :, 0], us[:, :, 1:], xs[:, :, 1:], x_flat, u_flat)
    if segments > 1:
        ends = step(xs[:, :-1, -1], us[:, 1:, 0], np.empty((rows, segments - 1), out.dtype))
        _repair(step, xs, us, ends != xs[:, 1:, 0])
    tail = np.s_[:, None, done:]
    _steps(step, out[:, done - 1 : done], u[tail], out[tail], x_flat, u_flat)
    return out


def _repair(step, xs, us, wrong):
    """Make every segment of ``xs`` (paths, segments, length) start from one
    step of the previous segment's end, where ``wrong[p, s]`` says that the
    start of segment s + 1 of path p does not.

    Every stored segment follows the recurrence from its own start, so a
    segment is exact once its start is.  Each round re-runs, for all paths at
    once, the first wrong start of each run of wrong starts from the end
    before it, and each re-run stops at the first index where it meets the
    stored state: from there on the stored segment is the re-run's.  A
    re-run that meets leaves its segment's end as it was, so the next start
    keeps its mark; only one that never meets changes that end, and the next
    start is checked again.  A path's first wrong start follows exact
    segments, so each round makes it right for good: at most S - 1 rounds,
    and a round costs the coupling time of the chains it re-runs.
    """
    segments, length = xs.shape[1:]
    while wrong.any():
        first = wrong.copy()
        first[:, 1:] &= ~wrong[:, :-1]
        wrong &= ~first
        p, s = np.nonzero(first)
        s += 1
        state = step(xs[p, s - 1, -1], us[p, s, 0], np.empty(p.size, xs.dtype))
        xs[p, s, 0] = state
        for j in range(1, length):
            state = step(state, us[p, s, j], np.empty_like(state))
            apart = state != xs[p, s, j]
            if not apart.all():
                p, s, state = p[apart], s[apart], state[apart]
                if not p.size:
                    break
            xs[p, s, j] = state
        # Re-runs that never met carry a new end: check the start after it.
        on = s < segments - 1
        p, s = p[on], s[on]
        if p.size:
            nxt = step(xs[p, s, -1], us[p, s + 1, 0], np.empty(p.size, xs.dtype))
            wrong[p, s] = nxt != xs[p, s + 1, 0]


def _steps(step, state, us, xs, x_flat, u_flat):
    """Step ``state`` (paths, segments) through the inputs ``us`` (paths,
    segments, m), write the state after ``us[:, :, j]`` into ``xs[:, :, j]``
    (unless ``xs`` is None), and return the last state, a view into
    ``x_flat``.

    The steps run over time tiles of _TILE indices.  A contiguous (tile + 1,
    paths, segments) buffer cut from ``x_flat`` holds the state the tile
    starts from in row 0, and each step writes into the next row; the tile's
    rows 1.. then go back into ``xs`` in one copy.  A tile's inputs are
    copied in one go into a contiguous buffer cut from ``u_flat``, or, when
    ``u_flat`` is None, into rows 1.. themselves, cast to the state's dtype,
    so each step then overwrites its own inputs.  No step allocates its
    result, reads a strided slice or writes over its state.
    """
    shape = state.shape
    size = state.size
    tx = x_flat[: (_TILE + 1) * size].reshape(_TILE + 1, *shape)
    tu = tx[1:] if u_flat is None else u_flat[: _TILE * size].reshape(_TILE, *shape)
    x_rows, u_rows = list(tx), list(tu)
    tx[0] = state
    m = us.shape[2]
    for j0 in range(0, m, _TILE):
        k = min(_TILE, m - j0)
        np.copyto(tu[:k], us[:, :, j0 : j0 + k].transpose(2, 0, 1))
        for t in range(k):
            step(x_rows[t], u_rows[t], x_rows[t + 1])
        if xs is not None:
            np.copyto(xs[:, :, j0 : j0 + k].transpose(2, 0, 1), tx[1 : k + 1])
        tx[0] = tx[k]
    return tx[0]


def simulate(spec: ProcessSpec, n: int, seed) -> tuple[np.ndarray, GroundTruth]:
    """Draw one length-n path; deterministic given (spec, n, seed).

    ``seed`` may be an int or a ``(master_seed, replication_index)`` pair;
    the pair form draws from the same substream the Monte Carlo harness uses
    for that replication.
    """
    n, truth = _check_count(n), ground_truth(spec)  # a truth that overflows draws nothing
    keys = _philox_keys(entropy_words(seed)[None, :])
    return _paths_from_uniforms(spec, _uniforms(keys, n))[0], truth


def simulate_paths(spec: ProcessSpec, n: int, master_seed: int, indices) -> np.ndarray:
    """Draw len(indices) paths, one per replication substream, shape (r, n)."""
    n = _check_count(n)
    keys = _philox_keys(*_entropy_rows(master_seed, indices))
    return _paths_from_uniforms(spec, _uniforms(keys, n))


def _uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """One row of n uniforms per Philox key, shape (len(keys), n).  The
    generator and its state dict are built per call, so threads share none."""
    rows = keys.shape[0]
    if rows * n > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{rows} x {n} values exceed the largest array of float64 numpy can hold")
    u = np.empty((rows, n), dtype=float)
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
