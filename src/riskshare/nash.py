"""Nash equilibria of the three risk-sharing games and their metrics.

The endowment game's reports B*_i are a closed-form linear map of the
endowment rows (`_nash_reports`); the price-demand game's schedules are the
same map of the exposure rows Cov(C, E_i), one n x k matrix, agent i's
(gamma_i, row i). The percentage game, whose clamped best responses are
affine in the others' reports, is solved exactly as a box-constrained linear
complementarity problem. The reports then run through `pareto`'s one sharing
mechanism: contracts are its `sharing_rule`, per-agent gains its
`mechanism_gains`, the inefficiency the `pooling_gain` of what the reports
hold back, and the price game's price and allocation its basket clearing
step (`_basket_clearing`), the one that clears truthful schedules. The price
pressure is what the schedules hold back, sum_i Cov(C, E_i - B*_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Market, Rv, SecurityBasket, _check_count, _is_positive_real
from .pareto import (
    _basket_clearing,
    _gains,
    mechanism_gains,
    optimal_sharing,
    pooling_gain,
    sharing_rule,
)
from .strategic import percentage_responses


class ConvergenceError(RuntimeError):
    """The percentage-game solve ended with too large a residual.

    `stable` tells the cause: false, the active set still changed at max_iter
    solves; true, it was stable and the final solve itself was inaccurate.
    """

    def __init__(self, message: str, stable: bool):
        self.stable = stable
        super().__init__(message)


# The percentage solve is accepted when max |b - BR(b)| <= RESIDUAL_TOL
# (1 + max |b|): relative, because at |b| near 1e12 one ulp of b exceeds any
# absolute tolerance this small.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NashEndowmentOutcome:
    reported: list[Rv]  # B*_i
    aggregate: np.ndarray  # read-only m-vector, the sum of the reported endowments
    contracts: np.ndarray  # read-only n x m, row i the contract agent i receives
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
    schedules: np.ndarray  # read-only n x k, agent i's schedule (gammas[i], row i)
    allocation: np.ndarray  # n x k, rows are the equilibrium quantities
    pressure: np.ndarray  # sum_i Cov(C, E_i - B*_i), what the reports hold back


def _nash_reports(market: Market, x: np.ndarray):
    """The endowment game's aggregate and reports of rows x: (w . x, B*(x)).

    With the market's shares s_i = gamma/gamma_i and complements c_i = 1 - s_i,
    the Nash aggregate is M = w . E, w = c / (s . c) (1 - sum_j s_j^2 = s . c),
    and the reports B*_i = c_i E_i + s_i^2 M are a linear map of endowment
    rows, or of their covariances with a basket. No weight is a difference.
    """
    share, complement = market.shares, market.complements
    aggregate = (complement / (share @ complement)) @ x
    return aggregate, complement[:, None] * x + (share**2)[:, None] * aggregate


def _inefficiency(market: Market, reported: np.ndarray) -> float:
    """The `pooling_gain` of what the centered Nash reports hold back."""
    return pooling_gain(market, market.centered - reported)


def _nash_pass(market: Market):
    """The endowment game in one pass over the centered rows and the means.

    Returns the Nash aggregate (cash included), the centered reports
    B*(centered), the reports' cash B*(means) as a column, and the
    inefficiency (`_inefficiency`).
    """
    aggregate, reported = _nash_reports(market, market.centered)
    cash_aggregate, cash = _nash_reports(market, market.means[:, None])
    return aggregate + cash_aggregate, reported, cash, _inefficiency(market, reported)


def nash_endowment(market: Market) -> NashEndowmentOutcome:
    """Unique (up to constants) Nash equilibrium of the endowment game.

    B*_i = gamma_i/(gamma_i + gamma_{-i}) E_i
           + (gamma_{-i}/(gamma_i + gamma_{-i}))^2 * aggregate,
    where gamma_{-i}/(gamma_i + gamma_{-i}) = gamma/gamma_i;
    the contract received is (gamma/gamma_i) * aggregate - B*_i, and the
    inefficiency, the gain still available from pooling what the reports
    hold back, is sum gamma_i Var[E_i - B*_i] - gamma Var[E - aggregate].
    Every field comes from one `_nash_pass`, the centered rows and the cash
    apart, cash added last; only the reports are built as `Rv`s. The rule
    runs once on the centered reports: its contracts are also the gains'
    (`pareto._gains`, as `mechanism_gains` reads them).
    """
    aggregate, reported, cash, inefficiency = _nash_pass(market)
    rule = sharing_rule(market)
    centered = rule(reported)
    contracts = centered + rule(cash)
    for arr in (aggregate, contracts):
        arr.flags.writeable = False
    return NashEndowmentOutcome(
        reported=market.space.rvs(reported + cash),
        aggregate=aggregate,
        contracts=contracts,
        inefficiency=inefficiency,
        per_agent_gain=_gains(market, centered, reported),
    )


def nash_inefficiency(market: Market) -> float:
    """The endowment game's inefficiency: the `pooling_gain` of what the Nash
    reports hold back, sum gamma_i Var[E_i - B*_i] - gamma Var[E - aggregate].
    It reads the centered reports alone: the reports' cash moves no variance."""
    return _inefficiency(market, _nash_reports(market, market.centered)[1])


# ---------------------------------------------------------------------------
# Two-agent comparison table


@dataclass(frozen=True, eq=False)
class Table1Row:
    row: str
    pareto_engine: object
    pareto_closed: object
    nash_engine: object
    nash_closed: object


def table1_report(market: Market) -> list[Table1Row]:
    """Pareto-vs-Nash comparison for n = 2 (everything from agent 1's side).

    Each cell is computed twice: by the general engines and by the two-agent
    closed forms, so the caller can regression-check one against the other.
    The closed-form gains scale Var[diff], taken on one centered row, the
    weights (gamma_1, -gamma_2)/(gamma_1 + gamma_2) of the endowments.
    """
    if market.n != 2:
        raise ValueError("the comparison table is defined for two agents only")
    g1, g2 = market.gammas
    e1, e2 = market.payoffs
    g = market.aggregate_gamma

    sharing = optimal_sharing(market)
    nash = nash_endowment(market)
    diff = (g1 / (g1 + g2)) * e1 - (g2 / (g1 + g2)) * e2
    row = (np.array([g1, -g2]) / (g1 + g2)) @ market.centered  # diff, centered
    spread = float((row * market.space.probs) @ row)  # Var[diff]
    return [
        Table1Row(
            "aggregate_shared_endowment",
            market.payoffs.sum(axis=0),
            market.payoffs.sum(axis=0),
            nash.aggregate,
            (1.0 / (2.0 * g)) * (g1 * e1 + g2 * e2),
        ),
        Table1Row(
            "reported_endowment",
            e1,
            e1,
            nash.reported[0],
            ((2 * g1 + g2) / (2 * (g1 + g2))) * e1
            + ((g2 / g1) * (g2 / (2 * (g1 + g2)))) * e2,  # no g2^2 to overflow
        ),
        Table1Row(
            "purchased_contract",
            sharing[0],
            -1.0 * diff,
            nash.contracts[0],
            -0.5 * diff,
        ),
        Table1Row(
            "gain_of_utility",
            float(mechanism_gains(market, market.centered)[0]),
            g1 * spread,
            float(nash.per_agent_gain[0]),
            (g1 + 2 * g2) / 4.0 * spread,
        ),
        Table1Row(
            "inefficiency",
            0.0,
            0.0,
            nash.inefficiency,
            (g1 + g2) / 4.0 * spread,
        ),
    ]


# ---------------------------------------------------------------------------
# Percentage game


def nash_percentage(
    market: Market, kappa: float = 10.0, max_iter: int = 10000
) -> NashPercentageOutcome:
    """Exact percentage-game equilibrium by an active-set solve, in O(nm + m^2) memory.

    b = BR(b) = clamp(R(b), 0, kappa), with R the affine map
    `strategic.percentage_responses(market)`, built once per solve and
    clamped here, is a box-constrained linear
    complementarity problem (Cottle, Pang & Stone 1992). From b = 1, split the
    agents by R(b) into those at 0, at kappa and free (F), solve for b_F with
    the others at their bounds, and repeat until the split holds, at most
    `max_iter` solves (`kappa` is a finite positive number and `max_iter` an
    integer of at least 1, else ValueError). Times 1 - s_i^2 = c_i (1 + s_i),
    with the market's shares s_i = gamma/gamma_i and complements
    c_i = 1 - s_i, a free agent's condition b_i = R_i(b) is the endowment
    game's report rule on multiples of E_i,
    b_i = c_i + s_i^2 Cov(sum_j b_j E_j, E_i) / Var[E_i]. So with
    L = centered * sqrt(p) and w = s^2 / Var[E],
    (I - diag(w_F) L_F L_F^T) b_F = c_F (1 + s_F) R_F(b with b_F = 0),
    solved by Woodbury (Golub & Van Loan, section 2.1.4) through the m x m
    matrix I - L_F^T diag(w_F) L_F, whatever the number of free agents; L_F
    and diag(w_F) L_F are taken once per split. It is
    symmetric with eigenvalues in [1 - sum_F s_i^2, 1], positive as
    1 - sum_i s_i^2 = sum_i s_i c_i > 0. Near that bound, when one gamma_i
    dwarfs the others, the solve loses digits, so once the split holds one
    step of iterative refinement against R follows, and more while the
    residual max |b - BR(b)| is above RESIDUAL_TOL (1 + max |b|) and falls.
    A residual left above it raises ConvergenceError.
    """
    if not _is_positive_real(kappa):
        raise ValueError("kappa must be finite and positive")
    kappa = float(kappa)  # np.digitize takes no bound such as a Fraction
    _check_count(max_iter, "max_iter", 1)
    respond = percentage_responses(market)  # R, which checks every Var[E_i] > 0
    share = market.shares
    weights = market.complements * (1.0 + share)  # 1 - s_i^2
    rows = market.centered * np.sqrt(market.space.probs)  # L
    scaled = (share**2 / market.variances)[:, None] * rows  # diag(w) L

    def solve(b, responses):  # b_F moved by the solve of b_F = R_F(b), in place
        gap = (weights * (responses - b))[free]
        b[free] += gap + scaled_free @ np.linalg.solve(inner, rows_free.T @ gap)

    def residual_of(b):  # max |b - BR(b)| and its bound RESIDUAL_TOL (1 + max |b|)
        return (float(np.max(np.abs(b - np.clip(respond(b), 0.0, kappa)))),
                RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b)))))

    b, split, iterations, stable = np.ones(market.n), None, 0, False
    while iterations < max_iter and not stable:
        responses = respond(b)
        new_split = np.digitize(responses, (0.0, kappa), right=True)
        stable = np.array_equal(new_split, split)
        if not stable:  # a new active set: solve from b_F = 0
            split, iterations, free = new_split, iterations + 1, new_split == 1
            b = np.where(split == 2, kappa, 0.0)  # split: 0 at zero, 1 free, 2 at kappa
            responses = respond(b)
            rows_free, scaled_free = rows[free], scaled[free]
            inner = np.eye(rows.shape[1]) - rows_free.T @ scaled_free
        solve(b, responses)  # the solve, or, once the split holds, one step of refinement
    residual, tolerance = residual_of(b)
    while stable and not residual <= tolerance:  # refine on while the residual falls
        refined = b.copy()
        solve(refined, respond(refined))
        check = residual_of(refined)
        if not check[0] < residual:
            break
        b, (residual, tolerance) = refined, check
    if not residual <= tolerance:  # also when the residual is NaN
        cause = (f"the active set is stable after {iterations} solves, so the solve of "
                 f"the free agents is too ill-conditioned" if stable else
                 f"the active set still changed after {iterations} solves, the max_iter limit")
        raise ConvergenceError(f"percentage game did not converge: residual "
                               f"{residual:.3e} exceeds {tolerance:.3e}; {cause}", stable)
    return NashPercentageOutcome(b, kappa, iterations, True, residual)


def percentage_game_gains(market: Market, outcome: NashPercentageOutcome) -> np.ndarray:
    """Per-agent utility gain over no trade at the percentage equilibrium."""
    return mechanism_gains(market, outcome.b_star[:, None] * market.centered)


# ---------------------------------------------------------------------------
# Price-demand game


def nash_price(market: Market, basket: SecurityBasket) -> NashPriceOutcome:
    """Nash equilibrium price, schedules and allocation of a security basket.

    Agent i's schedule is (gamma_i, Cov(C, B*_i)), row i of the read-only
    n x k `schedules`: the endowment game's report map of the exposure rows.
    The price and the allocation are `pareto`'s basket clearing on them,
    E[C] - 2 gamma sum_i Cov(C, B*_i) and Cov(C, C*_i(B*_i)) . Var^{-1}[C];
    the pressure is what the reports hold back, sum_i Cov(C, E_i - B*_i).
    """
    exposures = market.exposures(basket)
    schedules = _nash_reports(market, exposures)[1]
    schedules.flags.writeable = False
    price, _, allocation = _basket_clearing(market, basket, schedules)
    return NashPriceOutcome(price=price, schedules=schedules, allocation=allocation,
                            pressure=(exposures - schedules).sum(axis=0))
