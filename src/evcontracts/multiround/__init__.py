"""Multi-round profit licenses: concave-value optimization, backward
induction on a discretized license grid, policy simulation, and the
net-profit supermartingale check."""

from .values import PLCValue, least_concave_majorant, monotone_envelope, concave_monotone_hull
from .optimizer import (
    InfeasibleBudgetError,
    LicenseGrid,
    alternative_value_of_update,
    max_spendable,
    null_expectation_of_update,
    optimal_step,
    pointwise_update,
    solve_lambda,
)
from .discrete import DiscretizedEvidence, optimal_step_discrete
from .dp import DPPolicy, backward_induction
from .simulate import (
    EpisodeBatch,
    EpisodeRecord,
    RandomizedAlignedStrategy,
    SingleStageStrategy,
    StrategyAction,
    SupermartingaleReport,
    episodes_to_csv_rows,
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
    "alternative_value_of_update",
    "max_spendable",
    "null_expectation_of_update",
    "optimal_step",
    "pointwise_update",
    "solve_lambda",
    "DiscretizedEvidence",
    "optimal_step_discrete",
    "DPPolicy",
    "backward_induction",
    "EpisodeBatch",
    "EpisodeRecord",
    "RandomizedAlignedStrategy",
    "SingleStageStrategy",
    "StrategyAction",
    "SupermartingaleReport",
    "episodes_to_csv_rows",
    "random_factor_license",
    "simulate_policy",
    "simulate_strategy",
    "supermartingale_check",
]
