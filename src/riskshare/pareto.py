"""Pareto-optimal risk sharing and competitive (CAPM) security pricing.

The optimal sharing rule, the price-allocation equilibrium for an arbitrary
basket, endowment prices, per-agent utility levels and the utility losses of
constrained sharing all have closed forms under mean-variance preferences.
Gains are quadratic forms in the market's covariance matrix, allocations
linear maps of its exposures. Of the freedom "up to constants", contracts
keep the constants W @ means: C*_i = sum_j weights[i, j] E_j, cash included.
The constants sum to zero across agents, and no gain or price reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Market,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
    autarky_utilities,
    pricing,
)


@dataclass(frozen=True, eq=False)
class ParetoSharing:
    """Optimal contracts C*_i and the allocation weights on the endowments.

    `weights[i, j]` is the number of units of endowment j that agent i holds
    in the sharing transaction: (gamma - gamma_i)/gamma_i on the diagonal and
    gamma/gamma_i off it.
    """

    contracts: list[Rv]
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class CapmEquilibrium:
    """Market-clearing price and allocation of a security basket."""

    prices: np.ndarray
    allocation: np.ndarray  # n x k, row i = quantities of agent i
    utility_levels: np.ndarray
    gains: np.ndarray


def sharing_weights(market: Market) -> np.ndarray:
    share = market.aggregate_gamma / market.gammas
    return np.tile(share[:, None], (1, market.n)) - np.eye(market.n)


def _contracts(market: Market):
    """C*_i = (gamma/gamma_i) sum_j E_j - E_i, a linear map of endowment rows in O(nm)."""
    share = market.aggregate_gamma / market.gammas
    return lambda x: share[:, None] * x.sum(axis=0) - x


def optimal_sharing(market: Market) -> ParetoSharing:
    """Unique (up to constants) sum-of-utilities maximizing zero-sum contracts."""
    return ParetoSharing(
        contracts=market.space.rvs(market.combine(_contracts(market))),
        weights=sharing_weights(market),
    )


def aggregate_gain(market: Market) -> float:
    """Maximized aggregate utility gain, sum_i gamma_i Var[E_i] - gamma Var[sum_i E_i]."""
    gram = market.gram
    return float(market.gammas @ np.diag(gram) - market.aggregate_gamma * gram.sum())


def report_gains(market: Market, own: np.ndarray, share: np.ndarray) -> np.ndarray:
    """Each agent's gain when the sharing rule runs on reports R_i = own_i E_i + share_i A.

    With A = sum_i R_i = w . E, w = own / (1 - sum share), agent i receives
    c_i = (gamma/gamma_i) A - R_i at price E[c_i] - 2 gamma Cov(A, c_i) and
    gains 2 gamma Cov(A, c_i) - gamma_i (Var[E_i + c_i] - Var[E_i]): quadratic
    forms in the covariance matrix. Truthful reports give the Pareto gains.
    """
    g = market.aggregate_gamma
    variances = np.diag(market.gram)
    weights = own / (1.0 - np.sum(share))
    cross = market.gram @ weights  # Cov(E_i, A)
    var_a = weights @ cross
    take, keep = g / market.gammas - share, 1.0 - own  # E_i + c_i = keep_i E_i + take_i A
    var_kept = keep * (keep * variances + 2.0 * take * cross) + take**2 * var_a
    return 2.0 * g * (take * var_a - own * cross) - market.gammas * (var_kept - variances)


def capm_equilibrium(market: Market, basket: SecurityBasket) -> CapmEquilibrium:
    """Price vector clearing all demand schedules, with the induced allocation.

    Prices depend on the securities only through their expectations and their
    covariances with the aggregate endowment; the allocation of agent i is
    Cov(C, C*_i) . Var^{-1}[C].
    """
    g = market.aggregate_gamma
    exposures = market.exposures(basket)
    total = exposures.sum(axis=0)  # Cov(C, sum_i E_i)
    exposure = _contracts(market)(exposures)  # Cov(C*_i, C)
    allocation = exposure @ basket.cov_inverse
    gains = market.gammas * np.sum(allocation * exposure, axis=1)
    return CapmEquilibrium(
        prices=pricing(g, basket.mean_vector, total),
        allocation=allocation,
        utility_levels=autarky_utilities(market) + gains,
        gains=gains,
    )


def endowment_prices(market: Market) -> np.ndarray:
    """Equilibrium prices of the agents' own endowments (complete market).

    Requires the endowments' covariance matrix to be non-singular; with
    collinear endowments pass an explicit reduced basket to
    `capm_equilibrium` instead.
    """
    try:
        SecurityBasket(tuple(market.endowments()))
    except SingularCovarianceError as exc:
        raise SingularCovarianceError(
            "endowment covariance matrix Var[E] is singular; "
            "price a reduced basket explicitly instead"
        ) from exc
    return pricing(market.aggregate_gamma, market.means, market.gram.sum(axis=0))


def _pareto_gains(market: Market) -> np.ndarray:
    """gamma_i Var[C*_i], each agent's gain from the optimal sharing transaction."""
    return report_gains(market, np.ones(market.n), np.zeros(market.n))


def optimal_utility_levels(market: Market) -> np.ndarray:
    """Per-agent utility level after the optimal sharing transaction."""
    return autarky_utilities(market) + _pareto_gains(market)


def constrained_loss(
    market: Market, basket: SecurityBasket
) -> tuple[np.ndarray, float]:
    """Utility each agent forgoes when sharing only through `basket`.

    Loss_i = gamma_i (Var[C*_i] - Cov(C,C*_i) Var^{-1}[C] Cov(C,C*_i)) >= 0,
    zero exactly when the optimal contract lies in span{1, C_1..C_k}; the
    subtracted term is agent i's gain in the basket equilibrium.
    """
    losses = _pareto_gains(market) - capm_equilibrium(market, basket).gains
    return losses, float(losses.sum())


def reservation_prices(market: Market, basket: SecurityBasket, i: int) -> np.ndarray:
    """Price vector at which agent i demands zero of every security.

    E[C] - 2 gamma_i Cov(C, E_i); at these prices the agent is indifferent
    between trading and not trading the basket.
    """
    return pricing(market.gammas[i], basket.mean_vector, market.exposures(basket)[i])
