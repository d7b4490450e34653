"""Asymptotic experiments and figure-data generation.

Both growing-market tables come from `_growing_markets`: it draws one seeded
pool of agents, measures each prefix market, so the tables are nested (and
therefore smooth in n) and fully reproducible, and reads the verdict from
the largest. Figure grids realize arbitrary variance/correlation targets
with a three-state construction, since every quantity in the model depends
on the endowments only through first and second moments. `EXPERIMENTS`
maps each standard experiment id to its table, for the CLI and the script.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .core import Agent, Market, ProbSpace, Rv, SecurityBasket, var
from .nash import (
    nash_endowment,
    nash_percentage,
    nash_price,
    percentage_game_gains,
)
from .pareto import capm_equilibrium, mechanism_gains

DEFAULT_SIZES = (2, 5, 10, 20, 50, 100, 200)
# A growing-market table's verdict is pass when its value at the largest
# market (inefficiency or price gap) is below this.
VERDICT_THRESHOLD = 1e-2


@dataclass(frozen=True, eq=False)
class AgentSequenceSpec:
    """Bounded agent pool for growing-market experiments.

    Endowments are capped at L2 norm `m_bound` and risk aversions confined to
    [gamma_low, gamma_high]; both bounds are re-checked on every pool emitted.
    """

    m_bound: float = 1.0
    gamma_low: float = 0.5
    gamma_high: float = 2.0
    sizes: tuple[int, ...] = DEFAULT_SIZES
    n_states: int = 6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma_low <= self.gamma_high:
            raise ValueError("need 0 < gamma_low <= gamma_high")
        if self.m_bound <= 0.0:
            raise ValueError("endowment norm bound must be positive")
        if min(self.sizes) < 2:
            raise ValueError("market sizes must be at least 2")
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))


@dataclass(frozen=True, eq=False)
class Table:
    """CSV-ready result table with the thresholds used recorded alongside."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key in sorted(self.metadata):
            writer.writerow([f"# {key}", self.metadata[key]])
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)


def _uniform_space(spec: AgentSequenceSpec) -> ProbSpace:
    return ProbSpace(np.full(spec.n_states, 1.0 / spec.n_states))


def agent_pool(
    spec: AgentSequenceSpec, homogeneous: bool
) -> tuple[ProbSpace, list[Agent]]:
    """Seeded pool of max(sizes) agents; markets use its prefixes.

    Each agent draws its payoffs, then (heterogeneous pools) its risk
    aversion, so a pool's agents are the prefix of any larger pool's. Each
    draw is scaled to L2 norm `m_bound`.
    """
    rng = np.random.default_rng(spec.seed)
    space = _uniform_space(spec)
    p = space.probs
    gamma_h = float(np.sqrt(spec.gamma_low * spec.gamma_high))
    draws, gammas = [], []
    for _ in range(max(spec.sizes)):
        draws.append(rng.normal(size=spec.n_states))
        gammas.append(gamma_h if homogeneous else float(
            rng.uniform(spec.gamma_low, spec.gamma_high)))
    # one dot product per draw: a matrix-vector product sums in another order,
    # which would move the payoffs' last bits and so the experiment tables
    norms = np.sqrt([p @ x**2 for x in draws])
    payoffs = np.array(draws) * (spec.m_bound / norms)[:, None]
    emitted = np.sqrt(payoffs**2 @ p).max()
    if emitted > spec.m_bound * (1.0 + 1e-12):
        raise RuntimeError(f"generator emitted endowment with norm {emitted}")
    if not spec.gamma_low <= min(gammas) <= max(gammas) <= spec.gamma_high:
        raise RuntimeError(f"generator emitted gamma out of [{spec.gamma_low}, "
                           f"{spec.gamma_high}]")
    return space, [Agent(g, e) for g, e in zip(gammas, space.rvs(payoffs))]


def _growing_markets(
    spec: AgentSequenceSpec, homogeneous: bool, columns: tuple[str, ...], measure
) -> Table:
    """One row (n, *measure(market)) per size, on the prefix markets of one pool.

    The verdict is pass when the first measured value at the largest market
    is below VERDICT_THRESHOLD.
    """
    space, agents = agent_pool(spec, homogeneous)
    rows = [(n, *measure(Market(space, tuple(agents[:n])))) for n in spec.sizes]
    return Table(
        columns=("n", *columns),
        rows=rows,
        metadata={
            "seed": spec.seed,
            "homogeneous": homogeneous,
            "threshold": VERDICT_THRESHOLD,
            "verdict": "pass" if rows[-1][1] < VERDICT_THRESHOLD else "fail",
        },
    )


def inefficiency_decay(spec: AgentSequenceSpec, homogeneous: bool = False) -> Table:
    """Risk-sharing inefficiency of the endowment game along growing markets."""
    return _growing_markets(spec, homogeneous, ("inefficiency",),
                            lambda market: (nash_endowment(market).inefficiency,))


def homogeneous_inefficiency_closed_form(market: Market) -> float:
    """(1/n^2)(sum Var[E_i] - Var[E]/n); valid for equal risk aversions."""
    n = market.n
    total = sum(var(a.endowment) for a in market.agents)
    return (total - var(market.total_endowment) / n) / n**2


def price_allocation_convergence(
    spec: AgentSequenceSpec,
    basket_family=None,
    homogeneous: bool = False,
) -> Table:
    """Gap between competitive and Nash security prices along growing markets.

    `basket_family` maps a market size to the basket traded at that size; by
    default one fixed seeded security is used throughout.
    """
    if basket_family is None:
        security = np.random.default_rng(spec.seed + 1).normal(size=spec.n_states)
        fixed = SecurityBasket((Rv(_uniform_space(spec), security),))

        def basket_family(n):
            return fixed

    def gaps(market):
        basket = basket_family(market.n)
        capm = capm_equilibrium(market, basket)
        nash = nash_price(market, basket)
        return (float(np.linalg.norm(capm.prices - nash.price)),
                float(np.linalg.norm(capm.allocation - nash.allocation, axis=1).max()))

    return _growing_markets(spec, homogeneous, ("price_gap", "allocation_gap"), gaps)


# ---------------------------------------------------------------------------
# Figure grids


def correlated_pair_market(
    gamma1: float,
    gamma2: float,
    var1: float,
    var2: float,
    rho: float,
) -> Market:
    """Two-agent market realizing exact (Var[E_1], Var[E_2], rho) targets.

    Three states, of probabilities 0.3, 0.3 and 0.4, leave a two-dimensional
    centered subspace; an orthonormal basis of it (under the probability
    inner product) turns the moment targets into coordinates. Both
    endowments have zero mean.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if var1 <= 0.0 or var2 <= 0.0:
        raise ValueError("target variances must be positive")
    space = ProbSpace(np.array([0.3, 0.3, 0.4]))
    p = space.probs
    raw = [np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])]
    basis = []
    for v in raw:
        v = v - p @ v
        for u in basis:
            v = v - (p @ (v * u)) * u
        basis.append(v / np.sqrt(p @ v**2))
    u, w = basis
    e1 = np.sqrt(var1) * u
    e2 = np.sqrt(var2) * (rho * u + np.sqrt(max(0.0, 1.0 - rho**2)) * w)
    return Market(
        space,
        (Agent(gamma1, Rv(space, e1)), Agent(gamma2, Rv(space, e2))),
    )


def _percentage_figure(variance_ratio: float, rho_values) -> Table:
    rows = []
    for rho in rho_values:
        market = correlated_pair_market(1.0, 1.0, 1.0, variance_ratio, float(rho))
        outcome = nash_percentage(market)
        rows.append((float(rho), float(outcome.b_star[0]), float(outcome.b_star[1])))
    return Table(
        columns=("rho", "b1", "b2"),
        rows=rows,
        metadata={"variance_ratio": variance_ratio},
    )


def _gain_figure(variance_ratio: float, rho_values, gamma1_values) -> Table:
    rows = []
    for rho in rho_values:
        for g1 in gamma1_values:
            market = correlated_pair_market(
                float(g1), 1.0, 1.0, variance_ratio, float(rho)
            )
            outcome = nash_percentage(market)
            nash_gain = float(percentage_game_gains(market, outcome)[0])
            pareto_gain = float(mechanism_gains(market, market.centered)[0])
            rows.append(
                (float(rho), float(g1), nash_gain, pareto_gain, nash_gain - pareto_gain)
            )
    return Table(
        columns=("rho", "gamma1", "nash_gain", "pareto_gain", "difference"),
        rows=rows,
        metadata={"variance_ratio": variance_ratio},
    )


def figure_data(
    figure_id: int,
    rho_values=None,
    gamma1_values=None,
) -> Table:
    """Grid data behind the four standard figures.

    1, 2: equilibrium percentages versus correlation for equal risk aversions,
    with the second endowment ten times riskier (1) or ten times safer (2).
    3, 4: agent 1's percentage-game gain against the unconstrained sharing
    gain over a (rho, gamma_1) grid, same two variance ratios.
    """
    if rho_values is None:
        rho_values = np.linspace(-1.0, 1.0, 21)
    if gamma1_values is None:
        gamma1_values = np.linspace(0.2, 3.0, 15)
    if figure_id == 1:
        return _percentage_figure(10.0, rho_values)
    if figure_id == 2:
        return _percentage_figure(0.1, rho_values)
    if figure_id == 3:
        return _gain_figure(10.0, rho_values, gamma1_values)
    if figure_id == 4:
        return _gain_figure(0.1, rho_values, gamma1_values)
    raise ValueError("figure id must be 1, 2, 3 or 4")


# Every standard experiment by id, as a function of the agent-pool spec (the
# figure grids do not read it).
EXPERIMENTS = {
    "decay": inefficiency_decay,
    "decay-homogeneous": functools.partial(inefficiency_decay, homogeneous=True),
    "convergence": price_allocation_convergence,
    **{f"figure{k}": lambda spec, k=k: figure_data(k) for k in (1, 2, 3, 4)},
}
