"""Nash equilibria of the three risk-sharing games and comparison metrics.

Closed forms exist for the endowment game and the price-demand game; the
percentage game, whose clamped best responses are affine in the others'
reports, is solved exactly as a box-constrained linear complementarity
problem. All comparisons against the Pareto benchmark (inefficiency, price
pressure, per-agent gains) are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DemandSchedule,
    Market,
    Rv,
    SecurityBasket,
    centered,
    cov,
    cov_vector,
    cross_cov,
    mean,
    mv_utilities,
    var,
)
from .pareto import capm_equilibrium, optimal_sharing, sharing_gain
from .strategic import _response_coefficients, percentage_responses, profile_utilities


class ConvergenceError(RuntimeError):
    """The percentage-game solve did not converge within max_iter solves."""


@dataclass(frozen=True, eq=False)
class NashEndowmentOutcome:
    reported: list[Rv]  # B*_i
    aggregate: Rv  # sum of the reported endowments
    contracts: list[Rv]  # contract each agent receives at the fixed point
    inefficiency: float
    per_agent_gain: np.ndarray


@dataclass(frozen=True, eq=False)
class NashPercentageOutcome:
    b_star: np.ndarray
    kappa: float
    iterations: int  # active-set solves
    converged: bool
    residual: float  # max |b - BR(b)|


@dataclass(frozen=True, eq=False)
class NashPriceOutcome:
    price: np.ndarray
    schedules: list[DemandSchedule]
    allocation: np.ndarray  # n x k, rows are the equilibrium quantities
    pressure: np.ndarray  # Cov(C_j, E - aggregate reported endowment)


def nash_aggregate_endowment(market: Market) -> Rv:
    """Aggregate shared endowment at the Nash fixed point of the reports."""
    g = market.aggregate_gamma
    endow = market.payoffs
    denom = 1.0 - float(np.sum((g / market.gammas) ** 2))
    numer = endow.sum(axis=0) - g * (endow / market.gammas[:, None]).sum(axis=0)
    return Rv(market.space, numer / denom)


def _nash_reports(market: Market) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payoff rows of the Nash reports and contracts, and their aggregate."""
    share = (market.aggregate_gamma / market.gammas)[:, None]
    aggregate = nash_aggregate_endowment(market).payoffs
    reported = (1.0 - share) * market.payoffs + share**2 * aggregate
    return reported, share * aggregate - reported, aggregate


def nash_endowment(market: Market) -> NashEndowmentOutcome:
    """Unique (up to constants) Nash equilibrium of the endowment game.

    B*_i = gamma_i/(gamma_i + gamma_{-i}) E_i
           + (gamma_{-i}/(gamma_i + gamma_{-i}))^2 * aggregate,
    where gamma_{-i}/(gamma_i + gamma_{-i}) = gamma/gamma_i;
    the contract received is (gamma/gamma_i) * aggregate - B*_i, and the
    inefficiency is sum gamma_i Var[E_i - B*_i] - gamma Var[E - aggregate].
    """
    reported, contracts, aggregate = _nash_reports(market)
    gains = profile_utilities(market, reported) - mv_utilities(market, market.payoffs)
    return NashEndowmentOutcome(
        reported=market.space.rvs(reported),
        aggregate=Rv(market.space, aggregate),
        contracts=market.space.rvs(contracts),
        # the gain still available from pooling what the reports hold back
        inefficiency=sharing_gain(market, market.payoffs - reported),
        per_agent_gain=gains,
    )


# ---------------------------------------------------------------------------
# Two-agent comparison table


@dataclass(frozen=True, eq=False)
class Table1Row:
    name: str
    pareto_engine: object
    pareto_closed: object
    nash_engine: object
    nash_closed: object


def table1_report(market: Market) -> list[Table1Row]:
    """Pareto-vs-Nash comparison for n = 2 (everything from agent 1's side).

    Each cell is computed twice: by the general engines and by the two-agent
    closed forms, so the caller can regression-check one against the other.
    """
    if market.n != 2:
        raise ValueError("the comparison table is defined for two agents only")
    g1, g2 = market.gammas
    e1, e2 = market.endowments()
    g = market.aggregate_gamma

    sharing = optimal_sharing(market)
    nash = nash_endowment(market)
    diff = (g1 / (g1 + g2)) * e1 - (g2 / (g1 + g2)) * e2

    pareto_gain_engine = g1 * var(sharing.contracts[0])
    rows = [
        Table1Row(
            "aggregate_shared_endowment",
            market.total_endowment,
            market.total_endowment,
            nash.aggregate,
            (1.0 / (2.0 * g)) * (g1 * e1 + g2 * e2),
        ),
        Table1Row(
            "reported_endowment",
            e1,
            e1,
            nash.reported[0],
            ((2 * g1 + g2) / (2 * (g1 + g2))) * e1
            + (g2**2 / (2 * g1 * (g1 + g2))) * e2,
        ),
        Table1Row(
            "purchased_contract",
            sharing.contracts[0],
            -1.0 * diff,
            nash.contracts[0],
            -0.5 * diff,
        ),
        Table1Row(
            "gain_of_utility",
            pareto_gain_engine,
            g1 * var(diff),
            float(nash.per_agent_gain[0]),
            (g1 + 2 * g2) / 4.0 * var(diff),
        ),
        Table1Row(
            "inefficiency",
            0.0,
            0.0,
            nash.inefficiency,
            var(0.5 * (g1 * e1 - g2 * e2)) / (g1 + g2),
        ),
    ]
    return rows


# ---------------------------------------------------------------------------
# Percentage game


def percentage_best_response(
    market: Market, b: np.ndarray, kappa: float
) -> np.ndarray:
    """Clamped best percentage of every agent against reported multiples b."""
    p = market.space.probs
    endow = market.payoffs
    if np.any(cross_cov(p, endow, endow) <= 0.0):
        raise ValueError("percentage game needs non-constant endowments")
    reports = np.asarray(b, dtype=float)[:, None] * centered(p, endow)
    return np.minimum(percentage_responses(market, reports), kappa)


def nash_percentage(
    market: Market, kappa: float = 10.0, max_iter: int = 10000, raise_on_failure: bool = True
) -> NashPercentageOutcome:
    """Exact percentage-game equilibrium by an active-set solve.

    b = BR(b) = clamp(own + M b, 0, kappa), with M_ij = other_i Cov(E_i, E_j)
    / Var[E_i] off the diagonal, is a box-constrained linear complementarity
    problem (Cottle, Pang & Stone 1992). From b = 1, split the agents by
    own + M b into those at 0, at kappa (U) and free (F), solve
    (I - M_FF) b_F = own_F + kappa M_FU 1, and repeat until the split holds,
    at most `max_iter` solves. Non-convergence raises (or is flagged when
    `raise_on_failure` is false); it is never silent.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    covariance = cross_cov(market.space.probs, market.payoffs[:, None], market.payoffs)
    if np.any(np.diag(covariance) <= 0.0):
        raise ValueError("percentage game needs non-constant endowments")
    own, other = _response_coefficients(market)
    coupling = (other / np.diag(covariance))[:, None] * covariance
    np.fill_diagonal(coupling, 0.0)
    b, split, iterations = np.ones(market.n), None, 0
    while iterations < max_iter:
        new_split = np.digitize(own + coupling @ b, (0.0, kappa), right=True)
        if np.array_equal(new_split, split):
            break
        split, iterations, free = new_split, iterations + 1, new_split == 1
        b = np.where(split == 2, kappa, 0.0)  # split: 0 at zero, 1 free, 2 at kappa
        b[free] = np.linalg.solve(
            np.eye(free.sum()) - coupling[np.ix_(free, free)],
            own[free] + coupling[free] @ b,
        )
    residual = float(np.max(np.abs(b - percentage_best_response(market, b, kappa))))
    converged = residual <= 1e-10
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"percentage game did not converge: residual {residual:.3e} "
            f"after {iterations} active-set solves"
        )
    return NashPercentageOutcome(b, kappa, iterations, converged, residual)


def percentage_game_gains(
    market: Market, outcome: NashPercentageOutcome
) -> np.ndarray:
    """Per-agent utility gain over no trade at the percentage equilibrium."""
    reports = outcome.b_star[:, None] * centered(market.space.probs, market.payoffs)
    return profile_utilities(market, reports) - mv_utilities(market, market.payoffs)


# ---------------------------------------------------------------------------
# Price-demand game


def nash_price(market: Market, basket: SecurityBasket) -> NashPriceOutcome:
    """Nash equilibrium price, schedules and allocation of a security basket.

    p_hat = E[C] - 2 gamma Cov(C, aggregate reported endowment); each agent's
    schedule carries the covariance vector of their endowment-game report and
    the allocation is Cov(C, C*_i(B*_i)) . Var^{-1}[C].
    """
    p = market.space.probs
    securities = basket.payoffs
    reported, contracts, aggregate = _nash_reports(market)
    p_hat = basket.mean_vector - 2.0 * market.aggregate_gamma * cross_cov(
        p, securities, aggregate
    )
    schedules = [
        DemandSchedule(g, c)
        for g, c in zip(market.gammas, cross_cov(p, reported[:, None], securities))
    ]
    allocation = cross_cov(p, contracts[:, None], securities) @ basket.cov_inverse
    pressure = cross_cov(p, securities, market.payoffs.sum(axis=0) - aggregate)
    return NashPriceOutcome(
        price=p_hat, schedules=schedules, allocation=allocation, pressure=pressure
    )


def price_best_response_general(
    market: Market,
    i: int,
    basket: SecurityBasket,
    other_schedules: list[DemandSchedule],
) -> np.ndarray:
    """Agent i's preferred clearing price against arbitrary schedules.

    First-order condition of the price objective: with gamma_o the harmonic
    aggregate of the others' gammas and cbar the sum of their covariance
    vectors,
    E[C] - p = 2 (gamma_i gamma_o h_i + gamma_o (gamma_i + gamma_o) cbar)
               / (2 gamma_o + gamma_i),
    h_i = Cov(C, E_i). Reduces to the truthful-schedule closed form when the
    others bid truthfully.
    """
    if len(other_schedules) != market.n - 1:
        raise ValueError("need one schedule per other agent")
    gi = market.agents[i].gamma
    go = 1.0 / sum(1.0 / s.gamma for s in other_schedules)
    cbar = np.sum([s.c for s in other_schedules], axis=0)
    h = cov_vector(basket, market.agents[i].endowment)
    gap = 2.0 * (gi * go * h + go * (gi + go) * cbar) / (2.0 * go + gi)
    return basket.mean_vector - gap


@dataclass(frozen=True, eq=False)
class UtilityComparison:
    """Per-agent utilities of trading the basket, Pareto vs Nash regime."""

    pareto_utilities: np.ndarray
    nash_utilities: np.ndarray
    aggregate_decrease: float
    aggregate_decrease_closed: float
    # only populated for n=2, k=1, Var[C]=1
    agent1_nash_minus_pareto_closed: float | None = None


def nash_vs_pareto_utilities(
    market: Market, basket: SecurityBasket
) -> UtilityComparison:
    """Direct utility comparison of the two pricing regimes.

    The aggregate decrease is evaluated both directly and through the
    quadratic-form identity
    sum_i gamma_i (Zhat_i - Z_i) . (Var[C] (Zhat_i + Z_i) + 2 Cov(E_i, C)),
    valid because the price terms net out across a cleared market. For the
    two-agent single-security unit-variance case the per-agent difference is
    also returned in closed form.
    """
    capm = capm_equilibrium(market, basket)
    nash = nash_price(market, basket)
    endow = market.payoffs
    pareto_u = mv_utilities(market, endow + capm.allocation @ basket.payoffs) - (
        capm.allocation @ capm.prices
    )
    nash_u = mv_utilities(market, endow + nash.allocation @ basket.payoffs) - (
        nash.allocation @ nash.price
    )
    decrease = float(pareto_u.sum() - nash_u.sum())
    zh, z = nash.allocation, capm.allocation
    h = cross_cov(market.space.probs, endow[:, None], basket.payoffs)
    closed = market.gammas @ np.sum(
        (zh - z) * ((zh + z) @ basket.cov_matrix + 2.0 * h), axis=1
    )
    agent1_closed = None
    if market.n == 2 and basket.k == 1 and abs(basket.cov_matrix[0, 0] - 1.0) < 1e-12:
        g1, g2 = market.gammas
        sharing = optimal_sharing(market)
        t = cov(basket.securities[0], sharing.contracts[0])
        agent1_closed = float((g2 / 2.0 - 0.75 * g1) * t**2)
    return UtilityComparison(
        pareto_utilities=pareto_u,
        nash_utilities=nash_u,
        aggregate_decrease=decrease,
        aggregate_decrease_closed=float(closed),
        agent1_nash_minus_pareto_closed=agent1_closed,
    )


# ---------------------------------------------------------------------------
# Excess-return pricing identity


def excess_return_check(market: Market, basket: SecurityBasket, x: Rv) -> float:
    """Residual of E[R_X] = beta(X, M) E[R_M] with M the reported aggregate.

    Returns |LHS - RHS| where R_Y = Y / pi(Y) - 1 and
    pi(Y) = E[Y] - 2 gamma Cov(Y, M) is the Nash pricing functional.
    Requires every endowment and x to lie in span{1, C_1..C_k} and both
    prices to be nonzero.
    """
    design = np.vstack([np.ones(market.space.n_states), basket.payoffs]).T
    targets = np.vstack([x.payoffs, market.payoffs]).T
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    outside = ~np.isclose(design @ coef, targets, atol=1e-8).all(axis=0)
    if outside.any():
        k = int(np.argmax(outside))
        label = "x" if k == 0 else f"endowment {k - 1}"
        raise ValueError(f"{label} is not in the span of {{1, C_1..C_k}}")
    m = nash_aggregate_endowment(market)
    g = market.aggregate_gamma

    def price(y: Rv) -> float:
        return mean(y) - 2.0 * g * cov(y, m)

    px, pm = price(x), price(m)
    if abs(px) < 1e-12 or abs(pm) < 1e-12:
        raise ValueError("zero equilibrium price; returns are undefined")
    rx = (1.0 / px) * x - 1.0
    rm = (1.0 / pm) * m - 1.0
    vm = var(rm)
    if vm < 1e-18:
        raise ValueError("reported aggregate endowment is riskless")
    lhs = mean(rx)
    rhs = cov(rx, rm) / vm * mean(rm)
    return abs(lhs - rhs)
