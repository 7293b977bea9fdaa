"""Simulation and error analysis for collective-spin squeezing estimates.

Five measurement schemes (collective total-spin readout, exhaustive and
randomized pair correlations, with or without split single-qubit runs)
estimate the four squeezing parameters of an N-qubit state.  The package
provides exact benchmark states, collectors and unbiased estimators over the
collected datasets, the analytic variances of every estimator, a
concentration-bound hypothesis test with a sample-size planner, and a
seeded Monte-Carlo harness that validates the analytics.
"""

from .states import (
    DIRECTIONS,
    DenseState,
    DepolarizedMixture,
    DickeState,
    Direction,
    ManyBodySinglet,
    MomentTable,
    moment,
    moment_table,
    pair_correlation,
    single_expectation,
    total_spin_distribution,
)
from .schemes import (
    EstimateResult,
    PairDataset,
    Parameter,
    ParameterKind,
    RandomPairDataset,
    RandomSplitDataset,
    Scheme,
    SplitSingleDataset,
    TotalSpinDataset,
    collect_all_pairs,
    collect_datasets,
    collect_random_pairs,
    collect_random_split,
    collect_split_single,
    collect_total_spin,
    compose_parameter,
    estimate_parameter,
    ordered_pairs,
    read_dataset,
    sample_cost,
    split_directions,
    square_pairs,
    write_dataset,
)
from .variance import (
    UnsupportedAnalyticCaseError,
    VarianceReport,
    block_variance,
    parameter_value,
    var_parameter,
)
from .hypothesis import (
    SampleSizeResult,
    SeparableBound,
    cantelli_bound,
    critical_noise,
    max_variance_over_noise,
    p_value_bound,
    required_budget,
    separable_bound,
)
from .montecarlo import (
    ComparisonRecord,
    TrialStats,
    child_generator,
    child_seed,
    compare_analytic,
    config_hash,
    histogram,
    run_trials,
    state_spec,
    sweep_noise,
    sweep_sample_size,
    write_histogram,
    write_sweep,
    write_trial_stats,
)

__version__ = "0.1.0"
