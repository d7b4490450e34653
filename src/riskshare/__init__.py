"""Pareto and Nash risk-sharing equilibria for mean-variance agents."""

from .core import (
    Agent,
    Market,
    ProbSpace,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
    SpaceMismatchError,
    demand,
)
from .nash import (
    ConvergenceError,
    NashEndowmentOutcome,
    NashPercentageOutcome,
    NashPriceOutcome,
    nash_endowment,
    nash_percentage,
    nash_price,
    table1_report,
)
from .pareto import (
    CapmEquilibrium,
    aggregate_gain,
    capm_equilibrium,
    constrained_loss,
    endowment_prices,
    optimal_sharing,
    optimal_utility_levels,
    sharing_weights,
)
from .strategic import (
    DemandSchedule,
    best_demand_response,
    best_endowment_response,
    best_percentage_response,
    best_price_response,
    reported_utility,
    truthful_schedules,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
