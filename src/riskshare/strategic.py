"""Single-deviator strategies in the risk-sharing and security markets.

One agent learns what the others are going to share (their reported
endowments, or their demand schedules) and reports whatever maximizes their
own utility once the sharing mechanism is applied; the utility of any report
is the autarky utility plus the agent's `pareto.mechanism_gains` on the
report profile. The demand response reads the same mechanism on the basket
(`pareto._basket_mechanism`): the rows of `Market.exposures` with row i
replaced by the best schedule's, so it builds no schedule per agent and
forms no price. `best_price_response` takes the others' schedules as a list
and pools their gammas and covariance rows inline; `truthful_schedules`
builds such a list, one validated schedule per agent. A price's utility is
stated once, by the oracle (`oracle.clearing_utility`), which the engines
are checked against.
Every best response reads agent i's one best report B*_i (`_best_report`),
returned zero-mean normalized: the deviator's utility is invariant to cash
shifts of the report. A report's truthful utility is the engine's own level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DemandSchedule,
    Market,
    Rv,
    SecurityBasket,
    _check_agent,
    _check_schedules,
    autarky_utilities,
    centered,
    require_same_space,
)
from .pareto import _basket_mechanism, mechanism_gains, optimal_utility_levels


@dataclass(frozen=True, eq=False)
class ResponseReport:
    """A best response together with the utility it secures."""

    response: object  # Rv, float percentage or DemandSchedule
    utility_before: float
    utility_after: float


class ConstantEndowmentError(ValueError):
    """The percentage game met a riskless endowment: no multiple of it changes anything."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__("the percentage game needs a non-constant endowment")


def endowment_variances(market: Market, agents=None) -> np.ndarray:
    """Var[E_i], checked positive for `agents` (default all)."""
    variances = market.variances
    for k in (variances <= 0.0).nonzero()[0]:
        if agents is None or k in agents:
            raise ConstantEndowmentError(int(k))
    return variances


def truthful_schedules(market: Market, basket: SecurityBasket) -> list[DemandSchedule]:
    """Every agent's truthful schedule, one object per agent, for callers that
    pass the others' schedules as a list to `best_price_response` or the
    oracle's price search; no package path calls it."""
    return [DemandSchedule(g, c) for g, c in zip(market.gammas, market.exposures(basket))]


def _response_coefficients(market: Market) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent weights of a best report against the others' reports.

    gamma_i/(gamma_i + gamma) on the agent's own endowment and
    gamma^2/(gamma_i^2 - gamma^2) = s_i^2/((1 - s_i)(1 + s_i)) on the sum of
    the other agents' reports, with the market's `shares` s_i = gamma/gamma_i
    and `complements` 1 - s_i: the ratio cannot overflow, and nothing cancels.
    """
    g, share = market.aggregate_gamma, market.shares
    return market.gammas / (market.gammas + g), share**2 / (market.complements * (1.0 + share))


def reported_utility(
    market: Market,
    i: int,
    b: Rv,
    others: Sequence[Rv] | None = None,
) -> float:
    """Utility of agent i after reporting `b` to the sharing mechanism.

    The mechanism prices and allocates the *reported* endowments (b in slot i,
    `others` elsewhere, truthful by default) while agent i's real exposure
    stays their true endowment: U_i is agent i's autarky utility plus their
    `mechanism_gains` on the report profile. Cash in a report is priced at
    par, so only the centered reports matter; they are centered as the
    endowments are (`core.centered`), so no cash shift of a report moves the
    utility.
    """
    _check_agent(i, market.n)
    require_same_space(market.space, b.space, "report b is not on the market's space")
    reports = (market.centered if others is None else market.centered_profile(others)).copy()
    reports[i] = centered(market.space.probs, b.payoffs)[1]
    return float(autarky_utilities(market)[i] + mechanism_gains(market, reports)[i])


def _best_report(market: Market, i: int, rows: np.ndarray) -> np.ndarray:
    """Agent i's best report against centered report rows, as a centered row:
    B*_i = gamma_i/(gamma_i + gamma) E_i + gamma^2/(gamma_i^2 - gamma^2) R_{-i},
    R_{-i} the sum of the other agents' rows (one mask copies them)."""
    rest = rows[np.arange(market.n) != i].sum(axis=0)
    own, other = _response_coefficients(market)
    return centered(market.space.probs, own[i] * market.centered[i] + other[i] * rest)[1]


def best_endowment_response(
    market: Market,
    i: int,
    others: Sequence[Rv] | None = None,
) -> Rv:
    """Report maximizing agent i's utility, zero-mean normalized: `_best_report`
    against the others' reports (by default the endowments, read in place)."""
    _check_agent(i, market.n)
    rows = market.centered if others is None else market.centered_profile(others)
    return Rv(market.space, _best_report(market, i, rows))


def best_percentage_response(market: Market, i: int) -> float:
    """Optimal nonnegative multiple of agent i's true endowment to report.

    b*_i = max(0, Cov(E_i, B*_i) / Var[E_i]), the projection of the best
    report B*_i on E_i: the deviator's utility has curvature
    -(1 - s_i)(2 gamma + gamma_i (1 - s_i)) Var[report] in any report, so its
    best multiple of E_i is the one nearest B*_i. Only Var[E_i] must be positive.
    """
    _check_agent(i, market.n)
    variance = endowment_variances(market, (i,))[i]
    best = _best_report(market, i, market.centered)
    return float(max(0.0, (market.centered[i] * market.space.probs) @ best / variance))


def percentage_responses(market: Market):
    """The map b -> R(b): every agent's unclamped best multiple against the
    others' multiples b.

    R_i(b) = own_i + other_i (Cov(E_i, sum_j b_j E_j) / Var[E_i] - b_i), the
    projection on E_i of agent i's best report against the reports b_j E_j,
    in O(nm) per call; every variance must be positive, which building the
    map checks. Taking b_i back out of the ratio cancels
    when b_i E_i dominates the sum, and other_i = s_i^2/(1 - s_i^2), s_i =
    gamma/gamma_i, multiplies the lost digits. Since sum_i s_i^2 < 1, at most one agent has
    other_i > 1, and for that agent the sum leaves b_i E_i out instead. The
    coefficients, the p-weighted rows and the variances are formed once, when
    the map is built, so a solve that applies it many times forms them once.
    """
    own, other = _response_coefficients(market)
    rows, alone = market.centered, other > 1.0
    weighted, variances = rows * market.space.probs, endowment_variances(market)[:, None]

    def responses(b: np.ndarray) -> np.ndarray:
        sums = np.array([b, np.where(alone, 0.0, b)]) @ rows  # sum_j b_j E_j, and without `alone`
        ratios = weighted @ sums.T / variances
        return own + other * np.where(alone, ratios[:, 1], ratios[:, 0] - b)

    return responses


def best_price_response(
    market: Market,
    i: int,
    basket: SecurityBasket,
    other_schedules: Sequence[DemandSchedule],
) -> np.ndarray:
    """Clearing price most preferable for agent i against the others' schedules.

    First-order condition of `oracle.clearing_utility`: with gamma_o the
    harmonic aggregate of the others' gammas, cbar the sum of their c and
    h_i = Cov(C, E_i),
    E[C] - p_hat_i = 2 (gamma_i gamma_o h_i + gamma_o (gamma_i + gamma_o) cbar)
                     / (gamma_i + 2 gamma_o).
    The schedules may be any, one per other agent, each c one entry per
    security (`core._check_schedules`). Against truthful ones it reads
    p_hat_i = E[C] - 2 gamma Cov(C, gamma_i/(gamma_i+gamma) E_i
                                   + gamma_i^2/(gamma_i^2-gamma^2) E_{-i}),
    the clearing price of agent i's best demand response.
    """
    _check_agent(i, market.n)
    if len(other_schedules) != market.n - 1:
        raise ValueError("need one schedule per other agent")
    _check_schedules(other_schedules, basket.k)
    gi = market.gammas[i]
    go = 1.0 / np.sum([1.0 / s.gamma for s in other_schedules])
    cbar = np.sum([s.c for s in other_schedules], axis=0)
    h = market.exposures(basket)[i]
    gap = 2.0 * (gi * go * h + go * (gi + go) * cbar) / (gi + 2.0 * go)
    return basket.mean_vector - gap


def best_demand_response(
    market: Market, i: int, basket: SecurityBasket
) -> DemandSchedule:
    """Schedule that clears the market at agent i's preferred price.

    Same linear family as the truthful demand, with the covariance vector
    taken against the best report B*_i instead of the true endowment.
    """
    _check_agent(i, market.n)
    require_same_space(market.space, basket.space, "basket is not on the market's space")
    best = _best_report(market, i, market.centered)
    return DemandSchedule(market.gammas[i], (best * market.space.probs) @ basket.centered.T)


def _response_report(market: Market, i: int, response, report: Rv) -> ResponseReport:
    truthful = float(optimal_utility_levels(market)[i])
    return ResponseReport(response, truthful, reported_utility(market, i, report))


def endowment_response_report(market: Market, i: int) -> ResponseReport:
    best = best_endowment_response(market, i)
    return _response_report(market, i, best, best)


def percentage_response_report(market: Market, i: int) -> ResponseReport:
    best = best_percentage_response(market, i)
    return _response_report(market, i, best, market.space.rv(best * market.centered[i]))


def demand_response_report(
    market: Market, i: int, basket: SecurityBasket
) -> ResponseReport:
    """Agent i's best schedule and the CAPM level it improves on.

    Both utilities are row i of the basket mechanism: on the truthful
    exposure rows, and on those rows with row i replaced by the best
    schedule's c, which clears at agent i's preferred price. No price is
    formed and subtracted from E[C] again.
    """
    best = best_demand_response(market, i, basket)
    truthful = market.exposures(basket)
    rows = truthful.copy()
    rows[i] = best.c
    before = _basket_mechanism(market, basket, truthful, 0.0).utility_levels[i]
    after = _basket_mechanism(market, basket, rows, rows - truthful).utility_levels[i]
    return ResponseReport(best, float(before), float(after))
