"""Asymptotic experiments and figure-data generation.

Both growing-market tables come from `_growing_markets`: it draws one seeded
pool within the paper's bounds (ENDOWMENT_NORM, GAMMA_RANGE) as arrays, risk
aversions and an n x m payoff matrix, each stream in one generator call (the
payoffs from the seed, shared by both pool kinds, and a heterogeneous pool's
risk aversions from the seed's spawned child stream). Each stream is read in
order, so a smaller pool is the prefix of a larger one. It measures each
prefix market, built by `Market.from_arrays` on row slices, so the tables
are nested (and therefore smooth in n) and fully reproducible, and reads the
verdict from the largest. No table row builds an object per agent;
`agent_pool` hands callers that want agents the `Market.agents` of the same
draw. The figures are fixed grids whose variance/correlation targets a
three-state construction realizes, since every quantity in the model depends
on the endowments only through first and second moments;
`correlated_pair_market` builds each grid point's market from arrays, so no
figure builds an object per agent either. One loop, `_figure`, builds all
four: `FIGURES` maps each figure to its variance ratio, gamma1 grid, columns
and cells function. `EXPERIMENTS` maps each standard experiment id to its
table, for the CLI and the script.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Agent, Market, ProbSpace, Rv, SecurityBasket, _check_count, _is_count, _is_positive_real,
)
from .nash import (
    nash_inefficiency,
    nash_percentage,
    nash_price,
    percentage_game_gains,
)
from .pareto import _basket_clearing, mechanism_gains

DEFAULT_SIZES = (2, 5, 10, 20, 50, 100, 200)
# The paper's boundedness assumptions for the decay results: every endowment
# has L2 norm ENDOWMENT_NORM, and every risk aversion lies in GAMMA_RANGE.
ENDOWMENT_NORM = 1.0
GAMMA_RANGE = (0.5, 2.0)
# A growing-market table's verdict is pass when its value at the largest
# market (inefficiency or price gap) is below this.
VERDICT_THRESHOLD = 1e-2


@dataclass(frozen=True, eq=False)
class AgentSequenceSpec:
    """Market sizes, states and seed of a growing-market experiment's pool.

    The pool's bounds are the module's ENDOWMENT_NORM and GAMMA_RANGE.
    """

    sizes: tuple[int, ...] = DEFAULT_SIZES
    n_states: int = 6
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sizes, tuple) and self.sizes
                and all(_is_count(size, 2) for size in self.sizes)):
            raise ValueError("sizes must be a non-empty tuple of integers of at least 2")
        for name, low in (("n_states", 2), ("seed", 0)):
            _check_count(getattr(self, name), name, low)
        # a numpy integer is held as an int, which a table prints alike
        object.__setattr__(self, "sizes", tuple(sorted(map(int, self.sizes))))
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "seed", int(self.seed))


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


def _uniform_space(spec: AgentSequenceSpec) -> ProbSpace:
    return ProbSpace(np.full(spec.n_states, 1.0 / spec.n_states))


def _draw_pool(
    spec: AgentSequenceSpec, homogeneous: bool
) -> tuple[ProbSpace, np.ndarray, np.ndarray]:
    """The space, risk aversions and n x m payoffs of `agent_pool`, read-only.

    Both streams are seeded from one `SeedSequence(seed)`, and each is drawn
    in one generator call and read in order. The payoffs, the same for both
    pool kinds, are the rows of one `standard_normal((count, m))` of the
    sequence itself (the bytes of `default_rng(seed).normal(size=(count, m))`);
    a heterogeneous pool's risk aversions are one
    `uniform(*GAMMA_RANGE, size=count)` from a stream of their own, the
    sequence's spawned child `.spawn(1)[0]`, independent of the payoffs and
    of every other integer seed.
    """
    space = _uniform_space(spec)
    p = space.probs
    low, high = GAMMA_RANGE
    count = max(spec.sizes)
    seeds = np.random.SeedSequence(spec.seed)
    draws = np.random.default_rng(seeds).standard_normal((count, spec.n_states))
    if homogeneous:
        gammas = np.full(count, np.sqrt(low * high))
    else:
        gammas = np.random.default_rng(seeds.spawn(1)[0]).uniform(low, high, size=count)
    # vecdot runs the same inner dot as one `p @ x**2` per row, so it sums in
    # the same order; a matrix-vector product sums in another, which would
    # move the payoffs' last bits and so the experiment tables
    norms = np.sqrt(np.vecdot(draws**2, p))
    payoffs = draws * (ENDOWMENT_NORM / norms)[:, None]
    emitted = np.sqrt(payoffs**2 @ p).max()
    if emitted > ENDOWMENT_NORM * (1.0 + 1e-12):
        raise RuntimeError(f"generator emitted endowment with norm {emitted}")
    if not low <= gammas.min() <= gammas.max() <= high:
        raise RuntimeError(f"generator emitted gamma out of [{low}, {high}]")
    for arr in (gammas, payoffs):
        arr.flags.writeable = False
    return space, gammas, payoffs


def agent_pool(
    spec: AgentSequenceSpec, homogeneous: bool
) -> tuple[ProbSpace, tuple[Agent, ...]]:
    """Seeded pool of max(sizes) agents; markets use its prefixes.

    Agent k's payoffs are row k of the seed's normal draws, scaled to L2
    norm ENDOWMENT_NORM, and (heterogeneous pools) its risk aversion is entry
    k of the child stream's uniform draws; both streams are read in order,
    so a pool's agents are the prefix of any larger pool's, and the two
    kinds of pool share their payoffs, differing only in the risk
    aversions. Both bounds are re-checked on every pool emitted. The agents
    are the `Market.agents` of the whole pool.
    """
    space, gammas, payoffs = _draw_pool(spec, homogeneous)
    return space, Market.from_arrays(space, gammas, payoffs).agents


def _growing_markets(
    spec: AgentSequenceSpec, homogeneous: bool, columns: tuple[str, ...], measure
) -> Table:
    """One row (n, *measure(market)) per size, on the prefix markets of one pool.

    The verdict is pass when the first measured value at the largest market
    is below VERDICT_THRESHOLD.
    """
    space, gammas, payoffs = _draw_pool(spec, homogeneous)
    rows = [(n, *measure(Market.from_arrays(space, gammas[:n], payoffs[:n])))
            for n in spec.sizes]
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
                            lambda market: (nash_inefficiency(market),))


def price_allocation_convergence(
    spec: AgentSequenceSpec,
    basket_family=None,
    homogeneous: bool = False,
) -> Table:
    """Gap between competitive and Nash security prices along growing markets.

    `basket_family` maps a market size to the basket traded at that size; by
    default one fixed seeded security is used throughout. Both sides are
    `pareto`'s basket clearing step, price and allocation with no utility:
    the competitive side on the truthful exposure rows (the prices and the
    allocation of `capm_equilibrium`), the Nash side on the Nash schedules
    (`nash_price`).
    """
    if basket_family is None:
        security = np.random.default_rng(spec.seed + 1).normal(size=spec.n_states)
        fixed = SecurityBasket((Rv(_uniform_space(spec), security),))

        def basket_family(n):
            return fixed

    def gaps(market):
        basket = basket_family(market.n)
        prices, _, allocation = _basket_clearing(market, basket, market.exposures(basket))
        nash = nash_price(market, basket)
        return (float(np.linalg.norm(prices - nash.price)),
                float(np.linalg.norm(allocation - nash.allocation, axis=1).max()))

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
    if not (_is_positive_real(var1) and _is_positive_real(var2)):
        raise ValueError("target variances must be finite and positive")
    rho = float(rho)  # a float32 would compute 1 - rho^2 in float32
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
    e1 = np.sqrt(float(var1)) * u
    e2 = np.sqrt(float(var2)) * (rho * u + np.sqrt(max(0.0, 1.0 - rho**2)) * w)
    return Market.from_arrays(space, (gamma1, gamma2), (e1, e2))


RHO_GRID = np.linspace(-1.0, 1.0, 21)
GAMMA1_GRID = np.linspace(0.2, 3.0, 15)


def _figure(variance_ratio: float, gamma1_grid, columns: tuple[str, ...], cells) -> Table:
    """One row (rho, *cells(market, its percentage equilibrium)) per grid point.

    The market at (rho, gamma1) is `correlated_pair_market` of risk
    aversions (gamma1, 1) and variances (1, variance_ratio).
    """
    rows = []
    for rho in RHO_GRID:
        for g1 in gamma1_grid:
            market = correlated_pair_market(float(g1), 1.0, 1.0, variance_ratio, float(rho))
            rows.append((float(rho), *cells(market, nash_percentage(market))))
    return Table(columns=("rho", *columns), rows=rows,
                 metadata={"variance_ratio": variance_ratio})


def _gains(market: Market, outcome) -> tuple[float, ...]:
    """gamma1, agent 1's percentage-game and unconstrained gains, their difference."""
    nash_gain = float(percentage_game_gains(market, outcome)[0])
    pareto_gain = float(mechanism_gains(market, market.centered)[0])
    return float(market.gammas[0]), nash_gain, pareto_gain, nash_gain - pareto_gain


# Each figure's variance ratio Var[E_2] / Var[E_1], gamma1 grid, and the
# columns after rho with the function of (market, equilibrium) that fills them.
_PERCENTAGES = ((1.0,), ("b1", "b2"),
                lambda market, outcome: tuple(map(float, outcome.b_star)))
_GAINS = (GAMMA1_GRID, ("gamma1", "nash_gain", "pareto_gain", "difference"), _gains)
FIGURES = {1: (10.0, *_PERCENTAGES), 2: (0.1, *_PERCENTAGES),
           3: (10.0, *_GAINS), 4: (0.1, *_GAINS)}


def figure_data(figure_id: int) -> Table:
    """Grid data behind the four standard figures.

    1, 2: equilibrium percentages versus correlation (RHO_GRID) for equal
    risk aversions, with the second endowment ten times riskier (1) or ten
    times safer (2).
    3, 4: agent 1's percentage-game gain against the unconstrained sharing
    gain over the (RHO_GRID, GAMMA1_GRID) grid, same two variance ratios.
    """
    if figure_id not in FIGURES:
        raise ValueError("figure id must be 1, 2, 3 or 4")
    return _figure(*FIGURES[figure_id])


# Every standard experiment by id, as a function of the agent-pool spec (the
# figure grids do not read it).
EXPERIMENTS = {
    "decay": inefficiency_decay,
    "decay-homogeneous": functools.partial(inefficiency_decay, homogeneous=True),
    "convergence": price_allocation_convergence,
    **{f"figure{k}": lambda spec, k=k: figure_data(k) for k in FIGURES},
}
