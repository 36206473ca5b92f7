"""Multi-round profit licenses: concave-value optimization, backward
induction on a discretized license grid, policy simulation, and the
net-profit supermartingale check."""

from .values import PLCValue, least_concave_majorant, monotone_envelope, concave_monotone_hull
from .optimizer import (
    InfeasibleBudgetError,
    LicenseGrid,
    MultiplierRangeError,
    null_expectation_of_update,
    optimal_step,
    optimal_steps,
    solve_lambda,
)
from .discrete import DiscretizedEvidence, discrete_root_value
from .dp import DPPolicy, backward_induction
from .simulate import (
    EpisodeBatch,
    RandomizedAlignedStrategy,
    SingleStageStrategy,
    StrategyAction,
    SupermartingaleReport,
    episodes_to_csv_columns,
    random_factor_license,
    simulate_policy,
    simulate_strategy,
    supermartingale_check,
)

__all__ = [
    "PLCValue",
    "least_concave_majorant",
    "monotone_envelope",
    "concave_monotone_hull",
    "InfeasibleBudgetError",
    "LicenseGrid",
    "MultiplierRangeError",
    "null_expectation_of_update",
    "optimal_step",
    "optimal_steps",
    "solve_lambda",
    "DiscretizedEvidence",
    "discrete_root_value",
    "DPPolicy",
    "backward_induction",
    "EpisodeBatch",
    "RandomizedAlignedStrategy",
    "SingleStageStrategy",
    "StrategyAction",
    "SupermartingaleReport",
    "episodes_to_csv_columns",
    "random_factor_license",
    "simulate_policy",
    "simulate_strategy",
    "supermartingale_check",
]
