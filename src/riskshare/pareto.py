"""The sharing mechanism, Pareto-optimal sharing and competitive (CAPM) pricing.

The mechanism is stated here once. Agents report centered payoff rows R;
agent i receives c_i = (gamma/gamma_i) sum_j R_j - R_i (`sharing_rule`) at
the price E[c_i] - 2 gamma Cov(c_i, sum_j R_j) and so gains one kernel,
gamma_i <c_i, c_i + 2 (R_i - T_i)> with T_i the truth (`_spreads`), in one
of two inner products. In the states, <x, y> = Cov(x, y), it gives
`mechanism_gains` and `pooling_gain`, the gain left in pooling any rows. On
a basket, the rows are the schedules Cov(C, R_i), <x, y> = x Var^-1[C] y and
the mechanism clears at E[C] - 2 gamma sum_i Cov(C, R_i)
(`_basket_clearing`, which `_basket_mechanism` extends by the gains):
`capm_equilibrium` on the truth and the demand deviator (`strategic`) on
reports; the price game (`nash`) reads the clearing step alone, its price and
allocation.
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


def _spreads(contracts: np.ndarray, weighted: np.ndarray, misreport) -> np.ndarray:
    """The mechanism's one gain kernel: <c_i, c_i + 2 D_i> per agent.

    c = `sharing_rule` of the report rows, weighted = c weighed by the inner
    product, so <c_i, y> = weighted_i . y, and D the misreport, reports - truth
    (0.0 when every row is the truth). Agent i's gain is gamma_i times its
    entry: with A = sum_j R_j, gamma A = gamma_i (c_i + R_i), so the textbook
    2 gamma <A, c_i> - gamma_i (2 <T_i, c_i> + <c_i, c_i>) reads
    gamma_i <c_i, c_i + 2 D_i>, with no aggregate term to cancel. The states
    weigh by p, c * p; a basket's exposure rows by Var^-1[C], c @ Var^-1[C],
    the allocation.
    """
    return np.vecdot(weighted, contracts + 2.0 * misreport)


def mechanism_gains(market: Market, reports: np.ndarray) -> np.ndarray:
    """Each agent's utility gain when the sharing rule runs on centered report rows.

    Agent i keeps their true endowment E_i, receives c_i = (gamma/gamma_i) A - R_i,
    A = sum_j R_j, and pays its price E[c_i] - 2 gamma Cov(A, c_i): the kernel
    `_spreads` in the states, gamma_i Cov(c_i, c_i + 2 (R_i - E_i)). Truthful
    reports, `market.centered`, give the Pareto gains gamma_i Var[C*_i].
    """
    return _gains(market, sharing_rule(market)(reports), reports)


def _gains(market: Market, contracts: np.ndarray, reports: np.ndarray) -> np.ndarray:
    """`mechanism_gains` of reports whose `sharing_rule` contracts are formed."""
    return market.gammas * _spreads(contracts, contracts * market.space.probs,
                                    reports - market.centered)


def pooling_gain(market: Market, rows: np.ndarray) -> float:
    """sum_i gamma_i Var[X_i] - gamma Var[sum_i X_i]: the gain of pooling centered rows X.

    As gamma_i s_i = gamma and the shares sum to 1, it is sum_i gamma_i Var[c_i],
    c_i = s_i sum_j X_j - X_i the `sharing_rule` contract: the kernel's gains
    when each row is reported truthfully, so no difference of two gains and no
    rounding noise of either sign. Each variance weights by p before it
    squares, (c_i p) c_i: a deviation near 1e154 in a state of small
    probability would overflow when squared although its variance is finite.
    """
    contracts = sharing_rule(market)(rows)
    return float(market.gammas @ _spreads(contracts, contracts * market.space.probs, 0.0))


def optimal_sharing(market: Market) -> np.ndarray:
    """The unique (up to constants) sum-of-utilities maximizing zero-sum
    contracts, a read-only n x m matrix: row i is C*_i, cash included."""
    contracts = market.combine(sharing_rule(market))
    contracts.flags.writeable = False
    return contracts


def aggregate_gain(market: Market) -> float:
    """Maximized aggregate utility gain, sum_i gamma_i Var[E_i] - gamma Var[sum_i E_i]."""
    return pooling_gain(market, market.centered)


def _basket_clearing(market: Market, basket: SecurityBasket, rows: np.ndarray):
    """The basket's clearing step on schedule rows Cov(C, R_i): (price, c, w).

    The price clears the rows' schedules, E[C] - 2 gamma sum_i rows_i, and
    agent i buys w_i = c_i Var^-1[C] of the rule's contract rows c. It forms
    no utility, so a price game whose price and allocation are finite reads
    them even where the gains would overflow.
    """
    contracts = sharing_rule(market)(rows)
    prices = pricing(market.aggregate_gamma, basket.mean_vector, rows.sum(axis=0))
    return prices, contracts, contracts @ basket.cov_inverse


def _basket_mechanism(market: Market, basket: SecurityBasket, rows: np.ndarray,
                      misreport) -> CapmEquilibrium:
    """The mechanism on a basket's schedule rows Cov(C, R_i), misreport D = rows - truth.

    It clears the rows (`_basket_clearing`), and agent i gains the kernel
    `_spreads` in the basket's inner product, gamma_i w_i . (c_i + 2 D_i).
    """
    prices, contracts, allocation = _basket_clearing(market, basket, rows)
    gains = market.gammas * _spreads(contracts, allocation, misreport)
    return CapmEquilibrium(
        prices=prices,
        allocation=allocation,
        utility_levels=autarky_utilities(market) + gains,
        gains=gains,
    )


def capm_equilibrium(market: Market, basket: SecurityBasket) -> CapmEquilibrium:
    """Price vector clearing all demand schedules, with the induced allocation.

    Prices depend on the securities only through their expectations and their
    covariances with the aggregate endowment; the allocation of agent i is
    Cov(C, C*_i) . Var^{-1}[C]: the mechanism on the truthful exposure rows.
    """
    return _basket_mechanism(market, basket, market.exposures(basket), 0.0)


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
    = gamma_i Var[C*_i - z_i.C], z_i the agent's basket allocation (the
    clearing step's on the truthful exposure rows, with no utility formed): zero
    exactly when the optimal contract lies in span{1, C_1..C_k}. A p-weighted
    product of the residual rows, it is >= 0 in floating point too, where a
    difference of two gains would leave rounding noise of either sign.
    """
    allocation = _basket_clearing(market, basket, market.exposures(basket))[2]
    residual = sharing_rule(market)(market.centered) - allocation @ basket.centered
    losses = market.gammas * np.vecdot(residual * market.space.probs, residual)
    return losses, float(losses.sum())
