"""Random electrical networks on trees with depth-scaled edge resistances.

Exact effective resistance and conductance via series-parallel reduction,
the optimal unit flow and its energy, an independent dense node-law oracle,
and a reproducible Monte Carlo engine for variance, tail, and expectation
asymptotics, including branching-process extensions.
"""

from .model import (
    GuardError,
    LEVEL_CAP,
    MEMORY_GUARD,
    Moments,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    derive_seed,
    dist_sample_block,
    level_scales,
    parse_distribution,
    parse_offspring,
)
from .evaluate import (
    ResistanceSample,
    SampledTree,
    gw_w_estimate,
    resistance_fast,
    resistance_of_tree,
    resistance_streaming,
    sample_tree_explicit,
    shorted_resistance_of_tree,
)
from .flows import (
    FlowBoundReport,
    FlowSolution,
    energy,
    flow_bound_report,
    flow_bound_sum,
    perturb_flow,
    random_perturbations,
    solve_flow,
    tail_bound_constant,
)
from .oracle import (
    DenseSystem,
    ORACLE_GUARD,
    OracleGaps,
    build_dense_system,
    kirchhoff_solve,
    oracle_compare,
    oracle_gap_table,
)
from .stats import (
    FitReport,
    GwReport,
    MomentReport,
    ReplicateSet,
    TailReport,
    VarianceBound,
    estimate_moments,
    fit_expectation,
    fit_variance_slope,
    gw_experiment,
    map_trees,
    rde_levels,
    run_replicates,
    sweep,
    tail_profile,
    variance_bound_constants,
)

__version__ = "0.1.0"
