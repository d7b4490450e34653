"""Finite probability spaces, random-variable algebra and mean-variance markets.

Everything downstream (sharing rules, equilibrium prices, Nash games) is a
function of first and second moments only, so random variables are stored as
payoff vectors over a finite state space, and a market keeps its endowments
as one n x m payoff matrix. The engines are array formulas over that matrix.
Every covariance goes through `cross_cov`, which centers its arguments
before multiplying them (the two-pass algorithm), so moments stay accurate
when a payoff carries a cash amount far larger than its spread.
All objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Tolerances used across the package.
PROB_SUM_TOL = 1e-12
ABS_TOL = 1e-9
# Two payoffs are "equal up to constants" when the variance of their
# difference is below this (centered versions coincide).
CONST_VAR_TOL = 1e-18
# Relative singular-value floor for covariance matrices of tradeable baskets.
SV_RATIO_MIN = 1e-10


class SpaceMismatchError(ValueError):
    """Random variables from different probability spaces were combined."""


class SingularCovarianceError(ValueError):
    """A covariance matrix required to be invertible is (near-)singular."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ProbSpace:
    """Finite state space with strictly positive probabilities summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_float_array(self.probs, "probs")
        if probs.size < 1:
            raise ValueError("probability space needs at least one state")
        if np.any(probs <= 0.0):
            raise ValueError("all state probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return self.probs.size

    def rv(self, payoffs) -> "Rv":
        return Rv(self, payoffs)

    def constant(self, value: float) -> "Rv":
        return Rv(self, np.full(self.n_states, float(value)))

    def rvs(self, rows) -> list["Rv"]:
        """One random variable per payoff row."""
        return [Rv(self, row) for row in rows]


@dataclass(frozen=True, eq=False)
class Rv:
    """Random variable: a payoff vector over a finite probability space."""

    space: ProbSpace
    payoffs: np.ndarray

    def __post_init__(self):
        payoffs = _as_float_array(self.payoffs, "payoffs")
        if payoffs.size != self.space.n_states:
            raise ValueError(
                f"payoff length {payoffs.size} does not match "
                f"space dimension {self.space.n_states}"
            )
        object.__setattr__(self, "payoffs", payoffs)

    def _check_space(self, other: "Rv") -> None:
        if other.space is not self.space and not np.array_equal(
            other.space.probs, self.space.probs
        ):
            raise SpaceMismatchError("random variables live on different spaces")

    def __add__(self, other):
        if isinstance(other, Rv):
            self._check_space(other)
            return Rv(self.space, self.payoffs + other.payoffs)
        return Rv(self.space, self.payoffs + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rv):
            self._check_space(other)
            return Rv(self.space, self.payoffs - other.payoffs)
        return Rv(self.space, self.payoffs - float(other))

    def __neg__(self):
        return Rv(self.space, -self.payoffs)

    def __mul__(self, scalar):
        return Rv(self.space, self.payoffs * float(scalar))

    __rmul__ = __mul__


def mean(x: Rv) -> float:
    """Expectation under the state probabilities."""
    return float(x.space.probs @ x.payoffs)


def centered(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Payoff rows (state axis last) minus their means under p."""
    return x - (x @ p)[..., None]


def cross_cov(p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Covariances of payoff rows, each centered first (two-pass).

    Broadcasts over the leading axes like elementwise arithmetic: equal
    shapes pair row i of x with row i of y, a single row is paired with
    every row, and x[:, None] against y gives the full cross-covariance
    matrix.
    """
    xc = centered(p, x)
    return (xc * (xc if y is x else centered(p, y))) @ p


def cov(x: Rv, y: Rv) -> float:
    """Covariance of two random variables; raises on a space mismatch."""
    x._check_space(y)
    return float(cross_cov(x.space.probs, x.payoffs, y.payoffs))


def var(x: Rv) -> float:
    return cov(x, x)


def equal_up_to_constants(x: Rv, y: Rv, tol: float = CONST_VAR_TOL) -> bool:
    """Whether x and y differ only by a cash amount."""
    return var(x - y) < tol


def mv_utility(agent_gamma: float, x: Rv) -> float:
    """Mean-variance utility E[x] - gamma * Var[x]."""
    if agent_gamma <= 0.0:
        raise ValueError("risk aversion must be positive")
    return mean(x) - agent_gamma * var(x)


@dataclass(frozen=True, eq=False)
class Agent:
    """Risk aversion coefficient plus a random endowment."""

    gamma: float
    endowment: Rv

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be a positive number, got {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class Market:
    """n >= 2 mean-variance agents sharing one probability space."""

    space: ProbSpace
    agents: tuple[Agent, ...]

    # derived, filled in __post_init__
    gammas: np.ndarray = field(init=False)

    def __post_init__(self):
        agents = tuple(self.agents)
        if len(agents) < 2:
            raise ValueError("a market needs at least two agents")
        for k, agent in enumerate(agents):
            if agent.endowment.space is not self.space and not np.array_equal(
                agent.endowment.space.probs, self.space.probs
            ):
                raise SpaceMismatchError(
                    f"endowment of agent {k} is not on the market's space"
                )
        object.__setattr__(self, "agents", agents)
        gammas = np.array([a.gamma for a in agents])
        gammas.flags.writeable = False
        object.__setattr__(self, "gammas", gammas)
        # for n >= 2, exactly, 0 < g < every gamma_i and sum (g/gamma_i)^2 < 1,
        # which keep the gamma_i^2 - g^2 and Nash denominators positive; in
        # floating point both fail when one gamma dwarfs another
        g = self.aggregate_gamma
        if not (0.0 < g < gammas.min() and 1.0 - np.sum((g / gammas) ** 2) > 0.0):
            raise ValueError(
                f"risk aversions {gammas.tolist()} are too disparate: their "
                f"harmonic aggregate {g!r} does not lie strictly below each of them"
            )

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def aggregate_gamma(self) -> float:
        return float(1.0 / np.sum(1.0 / self.gammas))

    def gamma_excluding(self, i):
        """Harmonic aggregate of all risk aversions but agent i's; i may be an array."""
        inv = 1.0 / self.gammas
        return 1.0 / (inv.sum() - inv[i])

    @cached_property
    def payoffs(self) -> np.ndarray:
        """The n x m endowment matrix, row i agent i's payoffs (read-only)."""
        endow = np.stack([a.endowment.payoffs for a in self.agents])
        endow.flags.writeable = False
        return endow

    @property
    def total_endowment(self) -> Rv:
        return Rv(self.space, self.payoffs.sum(axis=0))

    def endowment_excluding(self, i: int) -> Rv:
        return Rv(self.space, np.delete(self.payoffs, i, axis=0).sum(axis=0))

    def endowments(self) -> list[Rv]:
        return [a.endowment for a in self.agents]


@dataclass(frozen=True, eq=False)
class SecurityBasket:
    """A vector of k >= 1 tradeable securities with invertible covariance.

    Near-singularity is rejected here once, at construction, instead of at
    every pricing call.
    """

    securities: tuple[Rv, ...]

    mean_vector: np.ndarray = field(init=False)
    cov_matrix: np.ndarray = field(init=False)
    cov_inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        securities = tuple(self.securities)
        if len(securities) < 1:
            raise ValueError("basket needs at least one security")
        for s in securities[1:]:
            securities[0]._check_space(s)
        object.__setattr__(self, "securities", securities)
        p = self.space.probs
        mu = self.payoffs @ p
        V = cross_cov(p, self.payoffs[:, None], self.payoffs)
        svals = np.linalg.svd(V, compute_uv=False)
        if svals[-1] <= SV_RATIO_MIN * svals[0]:
            raise SingularCovarianceError(
                "covariance matrix of the security basket is singular"
            )
        for arr in (mu, V):
            arr.flags.writeable = False
        object.__setattr__(self, "mean_vector", mu)
        object.__setattr__(self, "cov_matrix", V)
        inv = np.linalg.inv(V)
        inv.flags.writeable = False
        object.__setattr__(self, "cov_inverse", inv)

    @property
    def k(self) -> int:
        return len(self.securities)

    @property
    def space(self) -> ProbSpace:
        return self.securities[0].space

    @cached_property
    def payoffs(self) -> np.ndarray:
        """The k x m payoff matrix, row j security j's payoffs (read-only)."""
        rows = np.stack([s.payoffs for s in self.securities])
        rows.flags.writeable = False
        return rows

    def portfolio(self, quantities) -> Rv:
        """Payoff of holding `quantities[j]` units of each security."""
        return Rv(self.space, np.asarray(quantities, dtype=float) @ self.payoffs)


def cov_vector(basket: SecurityBasket, x: Rv) -> np.ndarray:
    """Vector of covariances of each basket security with x."""
    basket.securities[0]._check_space(x)
    return cross_cov(basket.space.probs, basket.payoffs, x.payoffs)


def mv_utilities(market: Market, rows: np.ndarray) -> np.ndarray:
    """E[X_i] - gamma_i Var[X_i]: each agent's utility of holding payoff row X_i."""
    p = market.space.probs
    return rows @ p - market.gammas * cross_cov(p, rows, rows)


@dataclass(frozen=True, eq=False)
class DemandSchedule:
    """Linear mean-variance demand, identified by (gamma, covariance vector).

    Evaluates to ((E[C] - p) / (2 gamma) - c) . Var^{-1}[C]; affine in p.
    """

    gamma: float
    c: np.ndarray

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        c = np.asarray(self.c, dtype=float).copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    def quantities(self, basket: SecurityBasket, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return (
            (basket.mean_vector - p) / (2.0 * self.gamma) - self.c
        ) @ basket.cov_inverse


def demand(
    agent_gamma: float,
    endowment: Rv,
    basket: SecurityBasket,
    p,
) -> np.ndarray:
    """Quantity vector maximizing U(a.C + endowment) - a.p at price p.

    Closed form: ((E[C] - p) / (2 gamma) - Cov(C, endowment)) . Var^{-1}[C],
    the schedule of the endowment's covariance vector evaluated at p.
    """
    return DemandSchedule(agent_gamma, cov_vector(basket, endowment)).quantities(
        basket, p
    )
