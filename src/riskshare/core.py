"""Finite probability spaces, random variables and mean-variance markets.

Everything downstream (sharing rules, equilibrium prices, Nash games) is a
function of first and second moments only, so random variables are stored as
payoff vectors over a finite state space, with no arithmetic of their own, and
a market keeps its endowments as one n x m payoff matrix. A market owns its
moments: the means, the exactly centered endowments, their `variances` and
their `exposures` to a security basket, which owns its own. The engines read
only these and add cash (the means) last, so a cash shift of an endowment,
however large, moves nothing else. No engine builds the n x n covariance
matrix Var[E]: every engine works on the centered rows in O(nm) (the
percentage solve adds one m x m matrix), and `require_invertible` rejects
n >= m endowments by rank before any product is formed. Payoff rows are
centered by one rule, `centered` (the corrected two-pass, a riskless row
exactly 0): `Market`, its report profiles, `SecurityBasket`, `cross_cov`
and the oracle read it, each centering its input once. All objects are
immutable after construction.
A market also forms the risk-aversion `shares` s_i = gamma/gamma_i, their
`complements` 1 - s_i (each a sum, never a difference) and gamma itself.
`ProbSpace.rvs` builds many random variables from one validated read-only
matrix, each a view of its row; its inverse `ProbSpace.rows` is the one way
random variables become rows, naming the index of any on another space;
`Market.profile` takes a report profile (or a stack) as n `Rv`s or an array,
`Market.centered_profile` just one. The agents' demand schedules are their
gammas and the rows of an n x k covariance matrix, no object per agent: the
engines read the rows of `Market.exposures`, and a `DemandSchedule` is one
schedule, for callers that hold schedules as objects. A market is built from
agents or from arrays (`Market.from_arrays`, no object per agent); only
`Market.agents` builds `Agent`s from arrays (for `agent_pool`). A basket is
built from random variables or from arrays (`SecurityBasket.from_arrays`,
its securities views of the validated rows), and forms the inverse of its
covariance matrix on first read. Two spaces
agree as one object or by equal probabilities (`require_same_space`); a risk
aversion is a real number, not a bool or a string, positive and finite
(`_is_positive_real`, `_check_gamma`; `Market` applies it to every entry of a
list and only to the values of a real-dtype array), an agent index is an
integer in [0, n) (`_check_agent`), a count (of rounds, solves, states,
agents or a seed) an integer of at least its floor (`_check_count`), and a
demand schedule's c one entry per security of the basket (`_check_schedules`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerances used across the package.
PROB_SUM_TOL = 1e-12
# Relative eigenvalue floor below which a covariance matrix (a basket's
# Var[C], the endowments' Var[E]) counts as singular.
SV_RATIO_MIN = 1e-10
# The smallest normal float: a covariance matrix with a smaller eigenvalue
# counts as singular too, since its inverse can overflow.
_NORMAL_MIN = float(np.finfo(float).tiny)


class SpaceMismatchError(ValueError):
    """Random variables from different probability spaces were combined."""


class SingularCovarianceError(ValueError):
    """A covariance matrix required to be invertible is (near-)singular."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # a copy
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
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
        if (probs <= 0.0).any():
            raise ValueError("all state probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return self.probs.size

    def rv(self, payoffs) -> "Rv":
        return Rv(self, payoffs)

    def rvs(self, rows) -> list["Rv"]:
        """One random variable per payoff row.

        A 2-D input of width n_states is copied once into a read-only float
        matrix, checked for finiteness once, and each `Rv` holds a read-only
        view of its row. Any other input is built row by row, so it fails
        exactly as `Rv(space, row)` does.
        """
        matrix = self._matrix(rows)
        if matrix is None:
            return [Rv(self, row) for row in rows]
        return [Rv._trusted(self, row) for row in matrix]

    def _matrix(self, rows) -> np.ndarray | None:
        """rows as a read-only float matrix of width n_states, checked for
        finiteness once; None for any other input."""
        try:
            matrix = np.array(rows, dtype=float)
        except (TypeError, ValueError):  # ragged or non-numeric rows
            return None
        if matrix.ndim != 2 or matrix.shape[1] != self.n_states:
            return None
        if not np.isfinite(matrix).all():
            raise ValueError("payoffs contains non-finite entries")
        matrix.flags.writeable = False
        return matrix

    def rows(self, xs, what: str) -> np.ndarray:
        """The payoffs of xs as the rows of a new matrix, the inverse of `rvs`;
        xs[k] on another space raises SpaceMismatchError naming `what` k."""
        for k, x in enumerate(xs):
            if x.space is not self:  # the message is formatted only then
                require_same_space(self, x.space, f"{what} {k} is on another probability space")
        return np.array([x.payoffs for x in xs])


def require_same_space(space: ProbSpace, other: ProbSpace, message: str) -> None:
    """Raise SpaceMismatchError(message) unless `other` is `space` or has its probabilities."""
    # positive finite probabilities are equal exactly when their bytes are
    if other is not space and other.probs.tobytes() != space.probs.tobytes():
        raise SpaceMismatchError(message)


@dataclass(frozen=True, eq=False)
class Rv:
    """Random variable: a payoff vector over a finite probability space, with
    no arithmetic; its moments are read from `Market` and `cross_cov`."""

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

    @classmethod
    def _trusted(cls, space: ProbSpace, payoffs: np.ndarray) -> "Rv":
        """An Rv of an already validated, read-only payoff row, not copied."""
        rv = object.__new__(cls)
        object.__setattr__(rv, "space", space)
        object.__setattr__(rv, "payoffs", payoffs)
        return rv


def centered(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and centered payoff rows (state axis last), both read-only: the
    package's one centering rule.

    Corrected two-pass (Chan, Golub & LeVeque 1983; Higham 2002, 1.9): the
    second centering removes the first mean's rounding, eps times the cash.
    A row whose payoffs are all equal is its own mean and centers to exactly
    0, whatever fl(sum p) is: the second pass alone leaves a riskless row
    about cash (1 - sum p)^2. `experiments.correlated_pair_market` keeps its
    own x - p @ x for its basis rows, so the figure tables keep
    their bytes: this rule there moves 554 of their cells.
    """
    first = x @ p
    rows = x - first[..., None]
    correction = rows @ p
    rows -= correction[..., None]
    means = np.asarray(first + correction)
    constant = x[..., 0] == x[..., -1]  # O(n): only such rows can be riskless
    if constant.any():
        constant &= (x == x[..., :1]).all(axis=-1)
        means = np.where(constant, x[..., 0], means)
        rows[constant] = 0.0
    for arr in (means, rows):
        arr.flags.writeable = False
    return means, rows


def cross_cov(p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Covariances of payoff rows, each centered first by `centered`.

    Rows pair by broadcasting: equal shapes pair row i of x with row i of y,
    and a single row is paired with every row. Each product weights by p
    before it squares, (X p) Y, so no finite variance overflows in a square.
    """
    xc = centered(p, x)[1]
    return np.vecdot(xc * p, xc if y is x else centered(p, y)[1])


def require_invertible(p: np.ndarray, rows: np.ndarray, message: str) -> np.ndarray:
    """The k x k covariance matrix of k centered rows, required invertible.

    Raises SingularCovarianceError(message) by rank when k >= m, the number
    of states: centered rows span at most m - 1 dimensions, so no product is
    formed. Otherwise it raises unless every eigenvalue of the matrix exceeds
    SV_RATIO_MIN times the largest (a rounding-negative smallest eigenvalue
    counts as singular) and is a normal float (`_NORMAL_MIN`): a subnormal
    one, as a basket of payoffs near 1e-155 gives, has an inverse that can
    overflow.
    """
    if rows.shape[0] >= p.size:
        raise SingularCovarianceError(message)
    cov_matrix = (rows * p) @ rows.T
    eigenvalues = np.linalg.eigvalsh(cov_matrix)
    if eigenvalues[0] <= SV_RATIO_MIN * eigenvalues[-1] or eigenvalues[0] < _NORMAL_MIN:
        raise SingularCovarianceError(message)
    return cov_matrix


def _is_positive_real(value) -> bool:
    """The one number rule: a real number, not a bool (a str is no real), whose
    float, the value the engines compute with, is positive and finite (a Fraction
    below the float range is 0.0). A float, numpy's included, passes the type
    test at once."""
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return 0.0 < float(value) < math.inf  # NaN fails both
    except OverflowError:  # an int, or a Fraction, too large for a float
        return False


def _check_gamma(gamma) -> None:
    """The one risk-aversion rule, `_is_positive_real`."""
    if not _is_positive_real(gamma):
        raise ValueError(f"gamma must be a positive number, got {gamma!r}")


def _check_agent(i, n: int) -> None:
    """The one agent-index rule: an integer in [0, n), so -1 is no alias of n - 1."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise ValueError(f"agent index must be an integer in [0, {n}), got {i!r}")


def _is_count(value, low: int) -> bool:
    """The one count rule: an int or numpy integer, not a bool, of at least `low`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def _check_count(value, name: str, low: int) -> None:
    if not _is_count(value, low):
        raise ValueError(f"{name} must be an integer of at least {low}")


def _check_schedules(schedules, k: int) -> None:
    """The one schedule rule: each demand schedule's c has one entry per
    security of a k-security basket, so none is broadcast against it."""
    for j, schedule in enumerate(schedules):
        if np.shape(schedule.c) != (k,):
            raise ValueError(f"schedule {j} has c of shape {np.shape(schedule.c)}, "
                             f"not one entry per security of the basket ({k})")


def pricing(gamma, expectation, covariance):
    """The pricing functional E[X] - 2 gamma Cov(X, M), M the shared aggregate."""
    return expectation - 2.0 * gamma * covariance


@dataclass(frozen=True, eq=False)
class Agent:
    """Risk aversion coefficient plus a random endowment."""

    gamma: float
    endowment: Rv

    def __post_init__(self):
        _check_gamma(self.gamma)


@dataclass(frozen=True, eq=False, init=False)
class Market:
    """n >= 2 mean-variance agents sharing one probability space.

    Built from agents, `Market(space, agents)`, or from arrays,
    `Market.from_arrays(space, gammas, payoffs)`. Both run one validation of
    the arrays; a market built from arrays builds its `agents` on first read,
    and no engine reads `agents` or `endowments()`. Of positive finite risk
    aversions it rejects only those so far apart that a complement underflows.
    """

    space: ProbSpace
    # read-only arrays
    gammas: np.ndarray
    payoffs: np.ndarray  # n x m, row i agent i's payoffs
    means: np.ndarray  # E[E_i]
    centered: np.ndarray  # the rows E_i - E[E_i], exactly
    shares: np.ndarray  # s_i = gamma/gamma_i
    complements: np.ndarray  # 1 - s_i, summed from the others' 1/gamma_j
    aggregate_gamma: float  # gamma = 1 / sum_i 1/gamma_i

    def __init__(self, space: ProbSpace, agents):
        agents = tuple(agents)  # each gamma already checked by `Agent`
        self._set_arrays(space, np.array([a.gamma for a in agents], dtype=float),
                         space.rows([a.endowment for a in agents], "endowment of agent"))
        self.__dict__["agents"] = agents  # the cached value of `agents`

    @classmethod
    def from_arrays(cls, space: ProbSpace, gammas, payoffs) -> "Market":
        """A market of risk aversions `gammas` and an n x m payoff matrix."""
        market = object.__new__(cls)
        market._set_arrays(space, gammas, payoffs)
        return market

    def _set_arrays(self, space: ProbSpace, gammas, payoffs) -> None:
        """Validate read-only copies of the arrays and derive the moments.

        An array of a real dtype holds no bool or string, so only its values are
        tested, in one pass; each entry of other gammas (a list) meets `_check_gamma`.
        """
        if not (isinstance(gammas, np.ndarray) and gammas.dtype.kind in "fiu"):
            gammas = np.array(gammas, dtype=object)  # the entries as given
            if gammas.ndim == 1:
                for gamma in gammas:
                    _check_gamma(gamma)
        gammas = np.array(gammas, dtype=float)
        payoffs = np.array(payoffs, dtype=float)
        if gammas.ndim != 1 or gammas.size < 2:
            raise ValueError("a market needs at least two agents")
        if not (gammas.min() > 0.0 and gammas.max() < np.inf):  # a NaN fails both
            _check_gamma(float(gammas[~(gammas > 0.0) | ~(gammas < np.inf)][0]))
        if payoffs.shape != (gammas.size, space.n_states):
            raise SpaceMismatchError(
                f"payoffs of shape {payoffs.shape} are not one row per agent "
                f"and one column per state of the market's space")
        if not np.isfinite(payoffs).all():
            raise ValueError("payoffs contains non-finite entries")
        means, rows = centered(space.probs, payoffs)
        # total - 1/gamma_i >= total/2 but for the largest 1/gamma_k: sum its others
        inverse = 1.0 / gammas
        total, k = inverse.sum(), inverse.argmax()
        others = total - inverse
        others[k] = inverse[:k].sum() + inverse[k + 1:].sum()
        g = float(1.0 / total)
        shares, complements = g / gammas, others / total
        if not complements[k] > 0.0:  # also when total overflows
            raise ValueError(f"risk aversions {gammas.tolist()} are too disparate: the "
                             f"complement 1 - gamma/gamma_{k} underflows to 0")
        for arr in (gammas, payoffs, shares, complements):
            arr.flags.writeable = False
        for name, value in (("space", space), ("gammas", gammas), ("payoffs", payoffs),
                            ("means", means), ("centered", rows), ("shares", shares),
                            ("complements", complements), ("aggregate_gamma", g)):
            object.__setattr__(self, name, value)

    @cached_property
    def agents(self) -> tuple[Agent, ...]:
        rvs = self.space.rvs(self.payoffs)
        return tuple(Agent(float(g), e) for g, e in zip(self.gammas, rvs))

    @property
    def n(self) -> int:
        return self.gammas.size

    @cached_property
    def variances(self) -> np.ndarray:
        """Var[E_i], in O(nm), with no n x n covariance matrix.

        Each term is (E_i p) E_i, as in every covariance product here:
        squaring first would overflow for deviations near 1.3e154 whose
        variance is finite.
        """
        variances = (self.centered * self.space.probs * self.centered).sum(axis=1)
        variances.flags.writeable = False
        return variances

    def exposures(self, basket: "SecurityBasket") -> np.ndarray:
        """The n x k covariances Cov(E_i, C_j) of endowments and securities;
        every basket engine reads them, so a basket off the space raises here."""
        require_same_space(self.space, basket.space, "basket is not on the market's space")
        return (self.centered * self.space.probs) @ basket.centered.T

    def profile(self, reports) -> np.ndarray:
        """A full report profile: n `Rv`s, or an array (a stack) of trailing shape n x m."""
        if not isinstance(reports, np.ndarray):
            reports = self.space.rows(reports, "report")
        if reports.shape[-2:] != self.payoffs.shape:
            raise ValueError(f"reports of shape {reports.shape} are not a full profile")
        return reports

    def centered_profile(self, reports) -> np.ndarray:
        """One report profile, n `Rv`s or an n x m array (no stack), centered
        as `centered` is, so a cash shift of a report moves nothing else."""
        rows = self.profile(reports)
        if rows.ndim != 2:
            raise ValueError(f"reports of shape {rows.shape} are not a full profile")
        return centered(self.space.probs, rows)[1]

    def combine(self, linear) -> np.ndarray:
        """A linear map of endowment rows, applied to the centered rows, cash last."""
        return linear(self.centered) + linear(self.means[:, None])  # means as a column

    def endowments(self) -> list[Rv]:
        return [a.endowment for a in self.agents]


@dataclass(frozen=True, eq=False, init=False)
class SecurityBasket:
    """A vector of k >= 1 tradeable securities with invertible covariance.

    Built from random variables, `SecurityBasket(securities)`, or from
    arrays, `SecurityBasket.from_arrays(space, payoffs)`, whose securities
    are read-only views of the validated rows. Near-singularity is rejected
    here once, at construction, instead of at every pricing call; the
    inverse `cov_inverse` is formed on first read.
    """

    securities: tuple[Rv, ...]
    # read-only arrays
    payoffs: np.ndarray  # k x m, row j security j's payoffs
    mean_vector: np.ndarray
    centered: np.ndarray
    cov_matrix: np.ndarray

    def __init__(self, securities):
        securities = tuple(securities)
        if len(securities) < 1:
            raise ValueError("basket needs at least one security")
        payoffs = securities[0].space.rows(securities, "security")
        payoffs.flags.writeable = False
        self._set_arrays(securities, payoffs)

    @classmethod
    def from_arrays(cls, space: ProbSpace, payoffs) -> "SecurityBasket":
        """A basket of the k x m payoff matrix `payoffs`, validated once. Any
        other input goes through `ProbSpace.rvs`, so it fails as that route does."""
        matrix = space._matrix(payoffs)
        if matrix is None or not len(matrix):
            return cls(space.rvs(payoffs))
        basket = object.__new__(cls)
        basket._set_arrays(tuple(Rv._trusted(space, row) for row in matrix), matrix)
        return basket

    def _set_arrays(self, securities: tuple, payoffs: np.ndarray) -> None:
        """The moments of a validated read-only payoff matrix, required invertible."""
        p = securities[0].space.probs
        mu, rows = centered(p, payoffs)
        V = require_invertible(p, rows, "covariance matrix of the security basket is singular")
        V.flags.writeable = False
        for name, value in (("securities", securities), ("payoffs", payoffs),
                            ("mean_vector", mu), ("centered", rows), ("cov_matrix", V)):
            object.__setattr__(self, name, value)

    @cached_property
    def cov_inverse(self) -> np.ndarray:
        """Var^-1[C], formed on first read: only an allocation reads it."""
        inv = np.linalg.inv(self.cov_matrix)
        inv.flags.writeable = False
        return inv

    @property
    def k(self) -> int:
        return len(self.securities)

    @property
    def space(self) -> ProbSpace:
        return self.securities[0].space


def autarky_utilities(market: Market) -> np.ndarray:
    """E[E_i] - gamma_i Var[E_i]: each agent's utility of keeping their endowment."""
    return market.means - market.gammas * market.variances


@dataclass(frozen=True, eq=False)
class DemandSchedule:
    """Linear mean-variance demand, identified by (gamma, covariance vector).

    Evaluates to ((E[C] - p) / (2 gamma) - c) . Var^{-1}[C]; affine in p.
    A sum of schedules is the schedule of the harmonic aggregate of their
    gammas and the sum of their c.
    """

    gamma: float
    c: np.ndarray

    def __post_init__(self):
        _check_gamma(self.gamma)
        object.__setattr__(self, "c", _as_float_array(self.c, "c"))

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
    the schedule of the endowment's covariance vector evaluated at p. A
    basket on another space raises SpaceMismatchError.
    """
    require_same_space(endowment.space, basket.space, "basket is not on the endowment's space")
    exposure = cross_cov(basket.space.probs, basket.payoffs, endowment.payoffs)
    return DemandSchedule(agent_gamma, exposure).quantities(basket, p)
