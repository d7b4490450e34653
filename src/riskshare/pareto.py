"""Pareto-optimal risk sharing and competitive (CAPM) security pricing.

The optimal sharing rule, the price-allocation equilibrium for an arbitrary
basket, endowment prices, per-agent utility levels and the utility losses of
constrained sharing all have closed forms under mean-variance preferences.
Contracts are returned with the canonical zero-constant normalization (no
cash added), resolving the "up to constants" freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Market,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
    cov_vector,
    cross_cov,
    mv_utilities,
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
    g = market.aggregate_gamma
    n = market.n
    w = np.tile((g / market.gammas)[:, None], (1, n))
    np.fill_diagonal(w, (g - market.gammas) / market.gammas)
    return w


def _contract_rows(market: Market) -> np.ndarray:
    """Payoff rows of the optimal contracts, C*_i = sum_j weights[i, j] E_j."""
    return sharing_weights(market) @ market.payoffs


def optimal_sharing(market: Market) -> ParetoSharing:
    """Unique (up to constants) sum-of-utilities maximizing zero-sum contracts."""
    return ParetoSharing(
        contracts=market.space.rvs(_contract_rows(market)),
        weights=sharing_weights(market),
    )


def aggregate_gain(market: Market) -> float:
    """Maximized aggregate utility gain from the optimal sharing transaction."""
    return sharing_gain(market, market.payoffs)


def sharing_gain(market: Market, rows: np.ndarray) -> float:
    """Gain sum_i gamma_i Var[X_i] - gamma Var[sum_i X_i] of pooling payoff rows X_i."""
    p = market.space.probs
    total = rows.sum(axis=0)
    return float(
        market.gammas @ cross_cov(p, rows, rows)
        - market.aggregate_gamma * cross_cov(p, total, total)
    )


def capm_equilibrium(market: Market, basket: SecurityBasket) -> CapmEquilibrium:
    """Price vector clearing all demand schedules, with the induced allocation.

    Prices depend on the securities only through their expectations and their
    covariances with the aggregate endowment; the allocation of agent i is
    Cov(C, C*_i) . Var^{-1}[C].
    """
    g = market.aggregate_gamma
    prices = basket.mean_vector - 2.0 * g * cov_vector(basket, market.total_endowment)
    exposure = cross_cov(
        market.space.probs, _contract_rows(market)[:, None], basket.payoffs
    )
    allocation = exposure @ basket.cov_inverse
    gains = market.gammas * np.sum(allocation * exposure, axis=1)
    return CapmEquilibrium(
        prices=prices,
        allocation=allocation,
        utility_levels=mv_utilities(market, market.payoffs) + gains,
        gains=gains,
    )


def endowment_prices(market: Market) -> np.ndarray:
    """Equilibrium prices of the agents' own endowments (complete market).

    Requires the endowments' covariance matrix to be non-singular; with
    collinear endowments pass an explicit reduced basket to
    `capm_equilibrium` instead.
    """
    try:
        basket = SecurityBasket(tuple(market.endowments()))
    except SingularCovarianceError as exc:
        raise SingularCovarianceError(
            "endowment covariance matrix Var[E] is singular; "
            "price a reduced basket explicitly instead"
        ) from exc
    return capm_equilibrium(market, basket).prices


def _pareto_gains(market: Market) -> np.ndarray:
    """gamma_i Var[C*_i], each agent's gain from the optimal sharing transaction."""
    rows = _contract_rows(market)
    return market.gammas * cross_cov(market.space.probs, rows, rows)


def optimal_utility_levels(market: Market) -> np.ndarray:
    """Per-agent utility level after the optimal sharing transaction."""
    return _pareto_gains(market) + mv_utilities(market, market.payoffs)


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
    agent = market.agents[i]
    return basket.mean_vector - 2.0 * agent.gamma * cov_vector(
        basket, agent.endowment
    )
