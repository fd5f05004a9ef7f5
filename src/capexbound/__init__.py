"""Capacity-expansion exercise boundary toolkit.

Solves the investment exercise boundary of a finite-horizon irreversible
capacity-expansion problem from its integral equation, builds the tracking
investment policy along simulated paths, and verifies optimality through
supergradient first-order conditions and lattice dynamic-programming oracles.
"""

from .boundary import (
    BoundaryCurve,
    BracketError,
    ConvergenceError,
    McConfig,
    SolverConfig,
    deterministic_boundary,
    residual,
    solve_boundary,
)
from .model import (
    AssumptionError,
    CobbDouglas,
    CoefficientSet,
    SaturatingExponential,
    SyntheticMarginal,
    TimeGrid,
    ValidationReport,
    ZeroScrap,
    power_marginal,
    validate,
)
from .paths import (
    MEASURE_P,
    MEASURE_Q,
    PathBatch,
    mean_and_se,
    simulate,
)
from .policy import (
    CapacityRangeError,
    PlanBatch,
    build_controls,
    constant_rate_plan,
    controlled_capacity,
    profit,
    zero_plan,
)
from .production import (
    InputChoice,
    UnsupportedVariantError,
    optimal_inputs,
    reduced_marginal_array,
    reduced_value_array,
)
from .verify import (
    FOCReport,
    Lattice,
    LatticeRangeError,
    StoppingRule,
    check_foc,
    cross_validate,
    dp_stopping_value,
    dp_value,
    shadow_value_gap,
)

__version__ = "0.1.0"
