"""The engines against the exact rational reference of `exact`.

Groups of markets on dyadic probabilities: in "disparate" one agent's
risk aversion is 10^3 to 10^15 times below the others', so its share
gamma/gamma_i lies that close to 1, and in "moderate" every risk aversion is
in 0.5-2; "scaled" is "disparate" with that agent's payoffs times 2^10 to
2^30, which only the single deviator's outputs and the Pareto gains are run
on. Every output must lie within TOL of its scale: a share, complement or
response coefficient of itself, a row of a report, contract or schedule
matrix of that row's largest exact entry, a vector of its largest exact
entry, a gain of itself, a best multiple of its unclamped value and a
utility level of the largest of itself, |E[E_i]| and gamma_i Var[E_i]. The
oracle's price search is held to the exact levels and prices too, at looser
bounds: it is a check of the engines, not one of them.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from riskshare import oracle
from riskshare.core import Market, ProbSpace, SecurityBasket
from riskshare.nash import nash_endowment, nash_percentage, nash_price
from riskshare.pareto import aggregate_gain, capm_equilibrium, mechanism_gains, sharing_weights
from riskshare.strategic import (
    _response_coefficients,
    best_demand_response,
    best_endowment_response,
    best_percentage_response,
    demand_response_report,
    endowment_response_report,
    percentage_response_report,
    truthful_schedules,
)

from conftest import nash_price_utilities
from exact import ExactMarket, dyadic_probs, relative_error

TOL = 1e-14
# the oracle's clearing utility, of the utility scale
ORACLE_TOL = 1e-12
# the price game's allocation rows and pressure, of their largest exact entries
PRICE_GAME_TOL = 1e-13
# large enough that the disparate agent is free in some percentage solves
KAPPA = 1e9
GROUPS = {"disparate": 1, "moderate": 2}  # the seed of each
SCALED = "scaled"  # the disparate markets, that agent's payoffs times 2^10 to 2^30


@functools.cache
def _markets(group: str) -> list:
    """40 markets (and a basket's payoffs) of n 2-4 agents and m 4-6 states."""
    rng = np.random.default_rng(GROUPS["disparate" if group == SCALED else group])
    markets = []
    for index in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(4, 7))
        space = ProbSpace(dyadic_probs(rng, m))
        gammas = rng.uniform(0.5, 2.0, n)
        if group != "moderate":
            agent = rng.integers(n)
            gammas[agent] *= 10.0 ** -rng.uniform(3.0, 15.0)
        payoffs = rng.normal(size=(n, m))
        if group == SCALED:
            payoffs[agent] *= 2.0 ** (10 + index % 21)
        market = Market.from_arrays(space, gammas, payoffs)
        markets.append((market, ExactMarket(market), rng.normal(size=(int(rng.integers(1, 3)), m))))
    return markets


def _each(got, want) -> float:
    """The largest error of the entries (or rows) of got, each of its own scale."""
    return max(relative_error(g, w) for g, w in zip(got, want))


def _utility_error(got, want, exact, i) -> float:
    """|got - want| over max(|want|, |E[E_i]|, gamma_i Var[E_i])."""
    return float(abs(Fraction(float(got)) - want) / max(abs(want), exact.autarky_scale(i)))


@pytest.fixture(params=GROUPS)
def markets(request):
    return _markets(request.param)


@pytest.fixture(params=[*GROUPS, SCALED])
def deviator_markets(request):
    return _markets(request.param)


def test_shares_and_complements(markets):
    for market, exact, _ in markets:
        assert _each(market.shares, exact.shares) <= TOL
        assert _each(market.complements, exact.complements) <= TOL
        assert relative_error(market.aggregate_gamma, exact.gamma) <= TOL


def test_nash_endowment(markets):
    for market, exact, _ in markets:
        out = nash_endowment(market)
        aggregate, reports, contracts, inefficiency = exact.nash_endowment()
        assert relative_error(out.aggregate, aggregate) <= TOL
        assert _each([b.payoffs for b in out.reported], reports) <= TOL
        assert _each(out.contracts, contracts) <= TOL
        assert relative_error(out.inefficiency, inefficiency) <= TOL
        assert _each(out.per_agent_gain, exact.mechanism_gains(reports)) <= TOL


def test_response_coefficients(markets):
    for market, exact, _ in markets:
        for got, want in zip(_response_coefficients(market), exact.response_coefficients()):
            assert _each(got, want) <= TOL


def test_percentage_on_active_set(markets):
    # at kappa = 1e12 the disparate agent's b reaches ~1e11, and each solve
    # loses about eps / (1 - s_k) of it: the solver refines while that helps
    for (market, exact, _), (kappa, tol) in itertools.product(
            markets, [(KAPPA, TOL), (1e12, 1e-10)]):
        out = nash_percentage(market, kappa=kappa)
        want = exact.percentage_on_active_set(out.b_star, out.kappa)
        # the active set is the exact equilibrium's: its clamped responses are itself
        assert [min(max(r, 0), kappa) for r in exact.percentage_responses(want)] == want
        assert relative_error(out.b_star, want) <= tol


def test_aggregate_gain_and_sharing_weights(markets):
    for market, exact, _ in markets:
        assert relative_error(aggregate_gain(market), exact.aggregate_gain()) <= TOL
        assert _each(sharing_weights(market).ravel(), sum(exact.sharing_weights(), [])) <= TOL


def test_price_schedules(markets):
    # the Nash price, E[C] - 2 gamma sum_i schedules_i, of the exact schedules,
    # their allocation and the pressure, what they hold back of the exposures;
    # the allocation solves against Var[C] and the pressure is a difference of
    # sums, so each holds to PRICE_GAME_TOL of its scale
    for market, exact, securities in markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        out, schedules = nash_price(market, basket), exact.price_schedules(securities)
        assert _each(out.schedules, schedules) <= TOL
        assert relative_error(out.price, exact.clearing_price(securities, schedules)) <= TOL
        assert _each(out.allocation, exact.allocation(securities, schedules)) <= PRICE_GAME_TOL
        held = [[e - b for e, b in zip(x, row)]
                for x, row in zip(exact.exposures(securities), schedules)]
        assert relative_error(out.pressure, exact.total(held)) <= PRICE_GAME_TOL


def test_single_deviator_responses(deviator_markets):
    for market, exact, securities in deviator_markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        for i in range(market.n):
            assert relative_error(best_endowment_response(market, i).payoffs,
                                  exact.best_report(i)) <= TOL
            projection = exact.best_percentage(i)
            got = Fraction(best_percentage_response(market, i))
            assert abs(got - max(projection, 0)) <= TOL * abs(projection)
            assert relative_error(best_demand_response(market, i, basket).c,
                                  exact.best_demand(i, securities)) <= TOL


def test_single_deviator_utility_before(deviator_markets):
    # the truthful utility each report compares with: the Pareto level for
    # the endowment and percentage reports, the CAPM level for the demand one
    for market, exact, securities in deviator_markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        pareto, capm = exact.optimal_utility_levels(), exact.capm_utility_levels(securities)
        for i in range(market.n):
            for report, want in ((endowment_response_report(market, i), pareto[i]),
                                 (percentage_response_report(market, i), pareto[i]),
                                 (demand_response_report(market, i, basket), capm[i])):
                assert _utility_error(report.utility_before, want, exact, i) <= TOL


def test_pareto_gains(deviator_markets):
    # the kernel gamma_i Var[C*_i] has no aggregate term to cancel, so each
    # gain holds to itself, also where one agent's payoffs dwarf the others'
    # (the scaled group) and next to a nearly risk-neutral agent
    for market, exact, _ in deviator_markets:
        assert _each(mechanism_gains(market, market.centered),
                     exact.mechanism_gains(exact.payoffs)) <= TOL


def test_demand_utility_after(deviator_markets):
    # the utility at the clearing price of the others' truthful schedules and
    # the best one: the basket mechanism forms no price to subtract from E[C]
    for market, exact, securities in deviator_markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        for i in range(market.n):
            rows = exact.exposures(securities)
            rows[i] = exact.best_demand(i, securities)
            want = exact.clearing_levels(securities, rows)[i]
            got = demand_response_report(market, i, basket).utility_after
            assert _utility_error(got, want, exact, i) <= TOL


def test_nash_price_utilities(markets):
    # the oracle's clearing value of the others' Nash demand, -allocation[i],
    # against their Nash schedules: agent i's utility at the Nash price
    for market, exact, securities in markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        got = nash_price_utilities(market, basket)
        want = exact.clearing_levels(securities, exact.price_schedules(securities))
        for i in range(market.n):
            assert _utility_error(got[i], want[i], exact, i) <= TOL


def _others(market, basket, i):
    """The truthful schedules of every agent but i, as objects."""
    schedules = truthful_schedules(market, basket)
    return schedules[:i] + schedules[i + 1:]


def test_oracle_clearing_levels(deviator_markets):
    # the oracle's clearing utility at its searched best and at the CAPM
    # allocation, and the engines' levels that it checks, against the exact
    # levels: the oracle searches the others' demand and never subtracts a
    # price from E[C], so it holds next to a nearly risk-neutral agent too
    for market, exact, securities in deviator_markets:
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        capm, levels = capm_equilibrium(market, basket), exact.capm_utility_levels(securities)
        for i in range(market.n):
            others = _others(market, basket, i)
            rows = exact.exposures(securities)
            rows[i] = exact.best_demand(i, securities)
            best = exact.clearing_levels(securities, rows)[i]
            searched = oracle._searched_demand(market, i, basket, others)
            for got, want in (
                    (oracle.clearing_utility(market, i, basket, others, searched), best),
                    (demand_response_report(market, i, basket).utility_after, best),
                    (oracle.clearing_utility(market, i, basket, others, -capm.allocation[i]),
                     levels[i]),
                    (capm.utility_levels[i], levels[i])):
                assert _utility_error(got, want, exact, i) <= ORACLE_TOL


@pytest.mark.parametrize("group, tol", [("disparate", 1e-13), ("moderate", 1e-13),
                                        (SCALED, 1e-6)])
def test_oracle_best_price(group, tol):
    # of max(|p_hat|, |E[C]|, |E[C] - p_hat|); on the scaled group the
    # objective's terms are up to 2^60 times the others' utility, and the
    # searched demand is located only to their rounding
    for market, exact, securities in _markets(group):
        basket = SecurityBasket(tuple(market.space.rvs(securities)))
        means = [exact.mean([Fraction(float(v)) for v in row]) for row in securities]
        for i in range(market.n):
            want = exact.best_price(i, securities)
            got = oracle.argmax_phi(market, i, basket, _others(market, basket, i))
            scale = max(max(abs(w), abs(e), abs(e - w)) for w, e in zip(want, means))
            assert max(abs(Fraction(float(g)) - w) for g, w in zip(got, want)) <= tol * scale
