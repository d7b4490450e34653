"""The sharing mechanism, Pareto-optimal sharing and competitive (CAPM) pricing.

The mechanism is stated here once. Agents report centered payoff rows R;
agent i receives c_i = (gamma/gamma_i) sum_j R_j - R_i (`sharing_rule`) at
the price E[c_i] - 2 gamma Cov(c_i, sum_j R_j) and so gains
`mechanism_gains`; `pooling_gain` is the gain left in pooling any rows.
Pareto sharing runs the mechanism on the true endowments, the Nash games
(`nash`) and a single deviator (`strategic`) on their reports. Basket prices
and allocations are linear maps of the market's exposures, and every engine
here works on the centered rows in O(nm), building no n x n covariance;
only `sharing_weights` returns an n x n array, because that array is its
output. Of the freedom "up to constants", the n x m contracts
(`optimal_sharing`) keep W @ means: C*_i = sum_j W_ij E_j, cash included,
with W = `sharing_weights`.
The constants sum to zero across agents, and no gain or price reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Market,
    SecurityBasket,
    _check_agent,
    autarky_utilities,
    pricing,
    require_invertible,
)


@dataclass(frozen=True, eq=False)
class CapmEquilibrium:
    """Market-clearing price and allocation of a security basket."""

    prices: np.ndarray
    allocation: np.ndarray  # n x k, row i = quantities of agent i
    utility_levels: np.ndarray
    gains: np.ndarray


def sharing_rule(market: Market):
    """x -> s_i sum_j x_j - x_i: the contracts for report rows x, in O(nm).

    Agent k, of the largest share, receives row k of `sharing_weights` times x,
    s_k sum_{j != k} x_j - (1 - s_k) x_k with the market's complement: its own
    row, which may dominate the total (a nearly risk-neutral agent's Nash
    report does), is never taken back out of it. Every other 1 - s_i >= 1/2.
    """
    share, k = market.shares[:, None], market.shares.argmax()
    weights = np.full(market.n, share[k, 0])
    weights[k] = -market.complements[k]

    def rule(x):
        contracts = share * x.sum(axis=0) - x
        contracts[k] = weights @ x
        return contracts

    return rule


def sharing_weights(market: Market) -> np.ndarray:
    """The n x n weights of the contracts on the endowments, C*_i = sum_j W_ij E_j.

    W_ij is the number of units of endowment j that agent i holds in the
    sharing transaction: the market's share s_i = gamma/gamma_i off the diagonal
    and its complement negated, s_i - 1, on it. The pareto report prints it.
    """
    return np.where(np.eye(market.n, dtype=bool), -market.complements, market.shares[:, None])


def mechanism_gains(market: Market, reports: np.ndarray) -> np.ndarray:
    """Each agent's utility gain when the sharing rule runs on centered report rows.

    With A = sum_j R_j, agent i keeps their true endowment E_i, receives
    c_i = (gamma/gamma_i) A - R_i and pays its price E[c_i] - 2 gamma Cov(A, c_i):
    gain_i = 2 gamma Cov(A, c_i) - gamma_i (2 Cov(E_i, c_i) + Var[c_i]),
    each covariance a p-weighted product of centered rows. Truthful reports,
    `market.centered`, give the Pareto gains gamma_i Var[C*_i].
    """
    contracts = sharing_rule(market)(reports)
    weighted = contracts * market.space.probs
    with_aggregate = weighted @ reports.sum(axis=0)  # Cov(A, c_i)
    spread = np.sum(weighted * (2.0 * market.centered + contracts), axis=1)
    return 2.0 * market.aggregate_gamma * with_aggregate - market.gammas * spread


def pooling_gain(market: Market, rows: np.ndarray) -> float:
    """sum_i gamma_i Var[X_i] - gamma Var[sum_i X_i]: the gain of pooling centered rows X.

    As gamma_i s_i = gamma and the shares sum to 1, it is sum_i gamma_i Var[c_i],
    c_i = s_i sum_j X_j - X_i the `sharing_rule` contract: no difference of
    two gains, so no rounding noise of either sign. Each variance weights by p
    before it squares, (c_i p) c_i: a deviation near 1e154 in a state of small
    probability would overflow when squared although its variance is finite.
    """
    contracts = sharing_rule(market)(rows)
    return float(market.gammas @ np.vecdot(contracts * market.space.probs, contracts))


def optimal_sharing(market: Market) -> np.ndarray:
    """The unique (up to constants) sum-of-utilities maximizing zero-sum
    contracts, a read-only n x m matrix: row i is C*_i, cash included."""
    contracts = market.combine(sharing_rule(market))
    contracts.flags.writeable = False
    return contracts


def aggregate_gain(market: Market) -> float:
    """Maximized aggregate utility gain, sum_i gamma_i Var[E_i] - gamma Var[sum_i E_i]."""
    return pooling_gain(market, market.centered)


def capm_equilibrium(market: Market, basket: SecurityBasket) -> CapmEquilibrium:
    """Price vector clearing all demand schedules, with the induced allocation.

    Prices depend on the securities only through their expectations and their
    covariances with the aggregate endowment; the allocation of agent i is
    Cov(C, C*_i) . Var^{-1}[C].
    """
    g = market.aggregate_gamma
    exposures = market.exposures(basket)
    total = exposures.sum(axis=0)  # Cov(C, sum_i E_i)
    exposure = sharing_rule(market)(exposures)  # Cov(C*_i, C)
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

    Requires the endowments' covariance matrix Var[E] to be non-singular,
    which n >= m endowments never are; with collinear endowments pass an
    explicit reduced basket to `capm_equilibrium` instead. Var[E] is formed
    only for n < m, to test it; the prices need only Cov(E_i, E), one O(nm)
    product with the column total of the centered rows.
    """
    market.variances  # an overflow in them raises before the verdict
    p, rows = market.space.probs, market.centered
    require_invertible(p, rows, "endowment covariance matrix Var[E] is singular; "
                       "price a reduced basket explicitly instead")
    return pricing(market.aggregate_gamma, market.means, (rows * p) @ rows.sum(axis=0))


def optimal_utility_levels(market: Market) -> np.ndarray:
    """Per-agent utility level after the optimal sharing transaction."""
    return autarky_utilities(market) + mechanism_gains(market, market.centered)


def constrained_loss(
    market: Market, basket: SecurityBasket
) -> tuple[np.ndarray, float]:
    """Utility each agent forgoes when sharing only through `basket`.

    Loss_i = gamma_i (Var[C*_i] - Cov(C,C*_i) Var^{-1}[C] Cov(C,C*_i))
    = gamma_i Var[C*_i - z_i.C], z_i the agent's basket allocation: zero
    exactly when the optimal contract lies in span{1, C_1..C_k}. A p-weighted
    product of the residual rows, it is >= 0 in floating point too, where a
    difference of two gains would leave rounding noise of either sign.
    """
    residual = (sharing_rule(market)(market.centered)
                - capm_equilibrium(market, basket).allocation @ basket.centered)
    losses = market.gammas * np.vecdot(residual * market.space.probs, residual)
    return losses, float(losses.sum())


def reservation_prices(market: Market, basket: SecurityBasket, i: int) -> np.ndarray:
    """Price vector at which agent i demands zero of every security.

    E[C] - 2 gamma_i Cov(C, E_i); at these prices the agent is indifferent
    between trading and not trading the basket.
    """
    _check_agent(i, market.n)
    return pricing(market.gammas[i], basket.mean_vector, market.exposures(basket)[i])
