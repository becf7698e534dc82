"""Bacteria-foraging multiobjective optimizer with swappable random engines.

Solves the resin-bonded sand mould model by weighted-sum scalarization,
sweeps weight lattices into Pareto frontiers, and scores them with an
exact hypervolume indicator and an average-explorative-rate metric.
"""

from .bfa import (
    BfaParams,
    RunResult,
    SwarmState,
    run_batch,
    run_bfa,
)
from .engines import (
    EngineConfig,
    EngineKind,
    StochasticEngine,
    gamma_cdf,
    gaussian_cdf,
    weibull_cdf,
    weibull_inverse_cdf,
)
from .errors import (
    BforageError,
    BudgetError,
    ConfigError,
    DegenerateTraceError,
    DomainError,
    InfeasibleError,
    LatticeError,
    ReferencePointError,
    SchemaError,
    UsageError,
)
from .experiment import (
    ExperimentConfig,
    FrontierReport,
    NADIR_REFERENCE,
    SolutionRecord,
    compare,
    derive_seed,
    generate_weights,
    read_frontier_csv,
    read_trace_csv,
    read_weights_csv,
    run_sweep,
    write_frontier_csv,
    write_report_json,
    write_trace_csv,
    write_weights_csv,
)
from .metrics import aer, hvi_exact, hvi_monte_carlo, pareto_filter
from .problem import (
    COEFFICIENTS,
    DecisionVector,
    LOWER_BOUNDS,
    ObjectiveVector,
    UPPER_BOUNDS,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
)

__version__ = "0.1.0"
