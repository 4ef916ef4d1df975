"""The argument contract of every numeric callable that ``ebmix`` exports.

Each row of ``ROWS`` is a call that succeeds.  Each numeric argument of it
(for a list or a mapping, its first number) is replaced in turn by a value
outside its domain, and by values drawn with hypothesis.  The call must then
return finite numbers (or ``None`` where documented) or raise DomainError or
PreconditionError; a row of the experiment layer may raise ConfigError too.
It must never raise TypeError or ValueError, nor return a NaN or an inf.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebmix
from ebmix import ConfigError, DomainError, LPolicy, PreconditionError

_PARTITION = ebmix.block_partition(100, 10)
_VALUES = [0.5 + 0.4 * math.sin(i) for i in range(100)]
_BLOCKS = ebmix.block_summary(_VALUES, _PARTITION)
_SUMMARY = ebmix.SampleSummary(n=100, mean=0.5, css=8.0, b=1.0)
_KNOBS = ebmix.AgnosticKnobs(c_n=0.01, t_n=0.1, s_n=0.1)
_P = [[0.9, 0.1], [0.2, 0.8]]
_SPEC = ebmix.iid_bernoulli(0.3)
_CONFIG = dict(process=_SPEC, bounds=("empirical_bernstein",), n_grid=(50,),
               replications=4, master_seed=1, delta=0.01, eta=0.5)


def _config(**overrides):
    return ebmix.ExperimentConfig(**{**_CONFIG, **overrides})


# Export name -> keyword arguments of a call that succeeds.
ROWS = {
    "AgnosticKnobs": dict(c_n=0.01, t_n=0.1, s_n=0.1),
    "ErrorBudget": dict(error1=0.01, error2=0.02, error3=0.03),
    "ExperimentConfig": _CONFIG,
    "IntervalResult": dict(center=0.5, radius=0.3, level=0.9,
                           breakdown={"leading": 0.1, "linear": 0.1, "inflation": 1.5}),
    "KnobPolicy": dict(t_scale=1.0, t_power=-0.45, s_scale=1.0, s_power=-0.45,
                       c_mode="fixed", c_value=0.0),
    "LPolicy": dict(kind="fixed", value=5.0),
    "MixingBudget": dict(regime="phi_tilde", phi_sum=1.0, tv_norm=1.0),
    "ProcessSpec": dict(kind="finite_markov", params={"P": _P, "h": [0.0, 1.0]}),
    "SampleSummary": dict(n=100, mean=0.5, css=8.0, b=1.0, range=(0.0, 1.0)),
    "XiPolicy": dict(scale=1.0, power=-1.0),
    "agnostic_error_budget": dict(n=100, partition=_PARTITION, knobs=_KNOBS, tv_phi_product=1.0),
    "agnostic_interval": dict(summary=_BLOCKS, range_width=1.0, knobs=_KNOBS, delta=0.01,
                              errors=ebmix.ErrorBudget(0.0, 0.0, 0.0)),
    "bernoulli_ar1": {},
    "bernoulli_ar1_budget": dict(n=100),
    "block_identity_residual": dict(values=[0.1, 0.2, 0.3, 0.4], m=2, l=2, mu=0.5),
    "block_inflation": dict(m=100, delta=0.01),
    "block_partition": dict(n=100, l=10.0),
    "block_summary": dict(values=_VALUES, partition=_PARTITION),
    "burn_in_threshold": dict(delta=0.05, eta=0.5, sigma2=0.25, b=1.0, xi=lambda n: 1.0,
                              n_max=200),
    "dedecker_prieur_radius": dict(n=100, tv_norm=1.0, phi_tilde_sum=1.0, eps=0.05),
    "dedecker_prieur_tail": dict(m=100, t=0.1, tv_norm=1.0, phi_tilde_sum=1.0),
    "eb_interval": dict(summary=_SUMMARY, delta=0.01),
    "eb_interval_alpha": dict(summary=_SUMMARY, alpha=0.015),
    "finite_markov": dict(transition=_P, state_values=[0.0, 1.0]),
    "freedman_radius": dict(n=100, sigma2=0.25, b=1.0, delta=0.01),
    "ground_truth": dict(spec=_SPEC),
    "hetero_mds": dict(scales=[0.5, 1.0]),
    "ignorance_penalty": dict(n=100, sigma2=0.25, m4=0.0625, b=1.0, eta=0.5),
    "ignore_linear_radius": dict(summary=_SUMMARY, delta=0.01, xi_n=0.1),
    "iid_bernoulli": dict(p=0.3),
    "iid_rademacher": {},
    "iid_uniform": dict(a=0.0, b=1.0),
    "inflation_factor": dict(n_eff=100, delta=0.01),
    "markov_long_run_variance": dict(P=_P, h=[0.0, 1.0]),
    "markov_phi_budget": dict(P=_P, n=100),
    "maurer_pontil_radius": dict(n=100, sample_var_unbiased=0.08, delta=0.01),
    "mds_empirical_radius": dict(qv=8.0, b=1.0, t=4.6),
    "mds_predictable_radius": dict(pred_qv=8.0, b=1.0, t=4.6),
    "mixing_budget_for": dict(spec=ebmix.bernoulli_ar1(), regime="phi_tilde", n=100),
    "phi_interval": dict(summary=_BLOCKS, range_width=1.0, budget=ebmix.MixingBudget("phi", 1.0),
                         delta=0.01, xi_n=0.01),
    "recompose": dict(breakdown={"leading": 0.1, "linear": 0.1, "inflation": 1.5,
                                 "remainder": 0.01}),
    "run_block_sensitivity": dict(
        config=_config(bounds=("tilde_phi_mixing",), process=ebmix.bernoulli_ar1(),
                       l_policies=(LPolicy("fixed", 5), LPolicy("fixed", 10))),
        n_jobs=1),
    "run_coverage": dict(config=_config(), n_jobs=1),
    "run_sharpness_sweep": dict(config=_config(n_grid=(50, 60)), n_jobs=1),
    "simulate": dict(spec=_SPEC, n=50, seed=3),
    "simulate_paths": dict(spec=_SPEC, n=50, master_seed=3, indices=[0, 1]),
    "stationary_distribution": dict(P=_P),
    "summarize": dict(values=_VALUES, b=1.0),
    "tilde_phi_interval": dict(summary=_BLOCKS, range_width=1.0,
                               budget=ebmix.MixingBudget("phi_tilde", 1.0, tv_norm=1.0),
                               delta=0.01, xi_n=0.01),
}

# Rows of the experiment layer, which words its refusals as ConfigError.
CONFIG_ROWS = {"ExperimentConfig", "KnobPolicy", "LPolicy", "XiPolicy",
               "run_block_sensitivity", "run_coverage", "run_sharpness_sweep"}

# Exported callables that take no numbers of a caller's own: export -> why.
NOT_NUMERIC = {
    "ConfigError": "an exception class",
    "DomainError": "an exception class",
    "InputError": "an exception class",
    "OutputExistsError": "an exception class",
    "PreconditionError": "an exception class",
    "BlockPartition": "a record that block_partition fills from checked arguments",
    "BlockSummary": "a record that block_summary fills from checked arguments",
    "CellResult": "a report row that the harness fills",
    "CoverageReport": "a report that the harness fills",
    "GroundTruth": "a record that ground_truth fills",
}

# Values outside most domains: not finite, negative, zero, a bool, a string.
OUT_OF_DOMAIN = [math.nan, math.inf, -math.inf, -1.0, 0, True, "x"]

# Values drawn for any numeric argument.  Magnitudes stay below 1e4, so that
# a drawn count (a path length, a block count) stays cheap to run.
DRAWN = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.integers(min_value=-10**4, max_value=10**4),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, np.float64(0.5), np.int64(3)]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.number)) and not isinstance(x, bool)


def _first_number(value):
    """The path (a tuple of keys) to the first number in ``value``, a number,
    a list, a tuple or a mapping; None when it holds none."""
    if _is_number(value):
        return ()
    if isinstance(value, (list, tuple, dict)):
        for key in (value if isinstance(value, dict) else range(len(value))):
            inner = _first_number(value[key])
            if inner is not None:
                return (key, *inner)
    return None


def _slots(name):
    """(argument, path) of each numeric argument of a row."""
    out = []
    for arg, value in ROWS[name].items():
        path = _first_number(value)
        if path is not None:
            out.append((arg, path))
    return out


def _replaced(value, path, new):
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, key: _replaced(value[key], rest, new)}
    items = list(value)
    items[key] = _replaced(items[key], rest, new)
    return type(value)(items)


def _finite(x) -> bool:
    if x is None or isinstance(x, (str, bool, int, np.integer)):
        return True
    if isinstance(x, (float, np.floating)):
        return math.isfinite(x)
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


def _check(name, arg, path, value):
    kwargs = dict(ROWS[name])
    kwargs[arg] = _replaced(kwargs[arg], path, value)
    allowed = (DomainError, PreconditionError) + ((ConfigError,) if name in CONFIG_ROWS else ())
    try:
        result = getattr(ebmix, name)(**kwargs)
    except allowed:
        return
    assert _finite(result), f"{name}({arg}={value!r}) returned {result!r}"


CASES = [(name, arg, path, value)
         for name in sorted(ROWS) for arg, path in _slots(name) for value in OUT_OF_DOMAIN]


def test_every_numeric_export_has_a_row():
    exported = {name for name, obj in vars(ebmix).items()
                if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)}
    assert not set(ROWS) & set(NOT_NUMERIC)
    assert exported - set(NOT_NUMERIC) - set(ROWS) == set(), "exports without a row"
    assert set(ROWS) | set(NOT_NUMERIC) <= exported


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_is_a_call_that_returns_finite_values(name):
    assert _finite(getattr(ebmix, name)(**ROWS[name]))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name, arg, path, value", CASES,
                         ids=[f"{n}-{a}-{v!r}" for n, a, _, v in CASES])
def test_out_of_domain_argument_is_refused_or_gives_finite_values(name, arg, path, value):
    _check(name, arg, path, value)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=400)
@given(st.data())
def test_drawn_argument_is_refused_or_gives_finite_values(data):
    name = data.draw(st.sampled_from(sorted(n for n in ROWS if _slots(n))))
    arg, path = data.draw(st.sampled_from(_slots(name)))
    _check(name, arg, path, data.draw(DRAWN))
