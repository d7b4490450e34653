"""Textbook moments of random variables, for tests to compare against.

The package reads moments only from `Market` and `core.cross_cov`; these are
the definitions stated directly, one random variable at a time: E[x],
Var[x], Cov(x, y) and the mean-variance utility E[x] - gamma Var[x], the
homogeneous-market inefficiency in closed form, and a table's column.
"""

import numpy as np

from riskshare.core import Rv, _check_gamma, cross_cov, require_same_space


def mean(x: Rv) -> float:
    """Expectation under the state probabilities."""
    return float(x.space.probs @ x.payoffs)


def cov(x: Rv, y: Rv) -> float:
    """Covariance of two random variables; raises on a space mismatch."""
    require_same_space(x.space, y.space, "random variables live on different spaces")
    return float(cross_cov(x.space.probs, x.payoffs, y.payoffs))


def var(x: Rv) -> float:
    return cov(x, x)


def mv_utility(agent_gamma: float, x: Rv) -> float:
    """Mean-variance utility E[x] - gamma * Var[x]."""
    _check_gamma(agent_gamma)
    return mean(x) - float(agent_gamma) * var(x)


def homogeneous_inefficiency_closed_form(market) -> float:
    """(g/n^2)(sum Var[E_i] - Var[E]/n) for agents of one risk aversion g.

    Raises ValueError when the risk aversions are not all equal.
    """
    g, n = market.gammas[0], market.n
    if np.any(market.gammas != g):
        raise ValueError("the closed form needs equal risk aversions")
    total = market.centered.sum(axis=0)  # E - E[E]
    total_var = (total * market.space.probs) @ total
    return float(g * (market.variances.sum() - total_var / n)) / n**2


def column(table, name: str) -> np.ndarray:
    """The column `name` of an experiments `Table`, as floats."""
    j = table.columns.index(name)
    return np.array([row[j] for row in table.rows], dtype=float)
