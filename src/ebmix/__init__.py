"""ebmix: self-normalized empirical-Bernstein confidence radii for bounded
IID, martingale-difference, and mixing data, plus process simulators and a
Monte Carlo coverage harness.

The variance inputs are always observable from data: the centered sum of
squares in the independent/martingale case, and a block empirical long-run
variance under mixing.  See README.md for the b-versus-range convention.
"""

from .blocking import (
    BlockPartition,
    BlockSummary,
    block_identity_residual,
    block_partition,
    block_summary,
)
from .core_bounds import (
    EMPIRICAL_LINEAR_CONSTANT,
    IntervalResult,
    SampleSummary,
    burn_in_threshold,
    eb_interval,
    eb_interval_alpha,
    freedman_radius,
    ignorance_penalty,
    ignore_linear_radius,
    inflation_factor,
    maurer_pontil_radius,
    mds_empirical_radius,
    mds_predictable_radius,
    recompose,
    summarize,
)
from .errors import (
    ConfigError,
    DomainError,
    InputError,
    OutputExistsError,
    PreconditionError,
)
from .harness import (
    BOUNDS,
    CellResult,
    CoverageReport,
    ExperimentConfig,
    KnobPolicy,
    LPolicy,
    XiPolicy,
    run_block_sensitivity,
    run_coverage,
    run_sharpness_sweep,
)
from .mixing_bounds import (
    AgnosticKnobs,
    ErrorBudget,
    MixingBudget,
    agnostic_error_budget,
    agnostic_interval,
    block_inflation,
    dedecker_prieur_radius,
    dedecker_prieur_tail,
    phi_interval,
    tilde_phi_interval,
)
from .processes import (
    GroundTruth,
    ProcessSpec,
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

__version__ = "0.1.0"
