import numpy as np
import pytest
from hypothesis import settings

from riskshare.core import (
    Agent, DemandSchedule, Market, ProbSpace, SecurityBasket, SingularCovarianceError,
)
from riskshare.nash import nash_price
from riskshare.oracle import clearing_utility

# property tests draw the same examples on every run, with no time limit
settings.register_profile("riskshare", derandomize=True, deadline=None)
settings.load_profile("riskshare")


def make_space(rng, m):
    return ProbSpace(rng.dirichlet(np.ones(m) * 5.0))


def make_market(rng, n=None, m=None, gamma_low=0.5, gamma_high=2.0,
                homogeneous=False):
    n = n if n is not None else int(rng.integers(2, 5))
    m = m if m is not None else int(rng.integers(2, 7))
    space = make_space(rng, m)
    if homogeneous:
        gamma = float(rng.uniform(gamma_low, gamma_high))
        gammas = [gamma] * n
    else:
        gammas = [float(rng.uniform(gamma_low, gamma_high)) for _ in range(n)]
    agents = tuple(
        Agent(g, space.rv(rng.normal(size=m))) for g in gammas
    )
    return Market(space, agents)


def make_basket(rng, space, k=1):
    for _ in range(50):
        try:
            return SecurityBasket(
                tuple(space.rv(rng.normal(size=space.n_states)) for _ in range(k))
            )
        except SingularCovarianceError:
            continue
    raise RuntimeError("could not draw a non-singular basket")


@pytest.fixture
def symmetric_market():
    """Two identical-risk-aversion agents with exactly opposite endowments."""
    space = ProbSpace([0.5, 0.5])
    return Market(
        space,
        (Agent(1.0, space.rv([1.0, -1.0])), Agent(1.0, space.rv([-1.0, 1.0]))),
    )


def nash_price_utilities(market, basket):
    """Each agent's utility at the price game's Nash equilibrium, by the oracle:
    the clearing value of the others' demand -allocation[i] against their Nash
    schedules, which clears at the Nash price."""
    nash = nash_price(market, basket)
    schedules = [DemandSchedule(g, c) for g, c in zip(market.gammas, nash.schedules)]
    return np.array([
        clearing_utility(market, i, basket, schedules[:i] + schedules[i + 1:],
                         -nash.allocation[i])
        for i in range(market.n)])
