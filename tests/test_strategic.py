import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.core import DemandSchedule, Market, ProbSpace
from riskshare.oracle import argmax_phi, clearing_utility
from riskshare.pareto import capm_equilibrium, optimal_sharing
from riskshare.strategic import (
    _response_coefficients,
    best_demand_response,
    best_endowment_response,
    best_percentage_response,
    best_price_response,
    demand_response_report,
    endowment_response_report,
    percentage_response_report,
    reported_utility,
    truthful_schedules,
)

from conftest import make_basket, make_market, make_space
from exact import dyadic_probs
from moments import mv_utility, var


def _clearing_value(m, i, basket, others, p):
    """The oracle's clearing utility of agent i at price p: at the others'
    summed demand there, schedule by schedule."""
    q = np.sum([s.quantities(basket, p) for s in others], axis=0)
    return clearing_utility(m, i, basket, others, q)


class TestReportedUtility:
    def test_truthful_recovers_optimal_level(self):
        # reporting the true endowment yields the unconstrained sharing level
        rng = np.random.default_rng(30)
        for _ in range(10):
            m = make_market(rng)
            sharing = optimal_sharing(m)
            for i, a in enumerate(m.agents):
                want = a.gamma * var(m.space.rv(sharing[i])) + mv_utility(
                    a.gamma, a.endowment
                )
                got = reported_utility(m, i, a.endowment)
                assert got == pytest.approx(want, abs=1e-10)

    def test_symmetric_half_report(self, symmetric_market):
        half = symmetric_market.space.rv(0.5 * symmetric_market.agents[0].endowment.payoffs)
        assert reported_utility(symmetric_market, 0, half) == pytest.approx(5.0 / 16.0)

    @given(st.floats(-3, 3), st.floats(-100, 100))
    @settings(max_examples=40)
    def test_cash_shift_invariance(self, scale, shift):
        rng = np.random.default_rng(31)
        m = make_market(rng, n=2, m=3)
        e = m.agents[0].endowment.payoffs
        b = m.space.rv(scale * e + shift)
        base = m.space.rv(scale * e)
        assert reported_utility(m, 0, b) == pytest.approx(
            reported_utility(m, 0, base), abs=1e-7
        )

    @pytest.mark.parametrize("shifted", ["b", "others"])
    def test_cash_shift_of_2_40_moves_nothing(self, shifted):
        # dyadic probabilities and payoffs that are multiples of 2^-10: a
        # shift by 2^40 keeps every payoff an exact float, and the corrected
        # two-pass centering removes it from b and from the others alike
        rng = np.random.default_rng(37)
        shift = 2.0**40
        for _ in range(200):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            market = Market.from_arrays(ProbSpace(dyadic_probs(rng, m)),
                                        rng.uniform(0.5, 2.0, n),
                                        rng.integers(-2**10, 2**10, size=(n, m)) / 2.0**10)
            i = int(rng.integers(n))
            b = rng.integers(-2**10, 2**10, size=m) / 2.0**10
            others = rng.integers(-2**10, 2**10, size=(n, m)) / 2.0**10
            want = reported_utility(market, i, market.space.rv(b), others=others)
            if shifted == "b":
                got = reported_utility(market, i, market.space.rv(b + shift), others=others)
            else:
                got = reported_utility(market, i, market.space.rv(b), others=others + shift)
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)


class TestBestEndowmentResponse:
    def test_symmetric_value(self, symmetric_market):
        b = best_endowment_response(symmetric_market, 0)
        assert np.allclose(b.payoffs, [1.0 / 3.0, -1.0 / 3.0])
        gain = reported_utility(symmetric_market, 0, b) - reported_utility(
            symmetric_market, 0, symmetric_market.agents[0].endowment
        )
        assert gain == pytest.approx(1.0 / 3.0)

    def test_beats_random_deviations(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            m = make_market(rng, m=4)
            i = int(rng.integers(m.n))
            best = best_endowment_response(m, i)
            top = reported_utility(m, i, best)
            for _ in range(200):
                b = m.space.rv(rng.normal(size=4))
                assert reported_utility(m, i, b) <= top + 1e-10

    def test_closed_form_components(self):
        rng = np.random.default_rng(33)
        m = make_market(rng, n=3, m=5)
        g = m.aggregate_gamma
        for i, a in enumerate(m.agents):
            b, e = best_endowment_response(m, i), a.endowment.payoffs
            want = (a.gamma / (a.gamma + g)) * e + (
                g**2 / (a.gamma**2 - g**2)
            ) * (m.payoffs.sum(axis=0) - e)
            diff = b.payoffs - want
            centered = diff - m.space.probs @ diff
            assert np.max(np.abs(centered)) < 1e-12

    def test_reads_the_endowments_in_place(self):
        # one n x m matrix is 4.8 MB at n = 10^5, m = 6: the others' rows are
        # the only copy, where a copy of the reports and a second one without
        # row i took two
        rng = np.random.default_rng(35)
        m = Market.from_arrays(make_space(rng, 6), rng.uniform(0.5, 2.0, 10**5),
                               rng.normal(size=(10**5, 6)))
        tracemalloc.start()
        try:
            best_endowment_response(m, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.centered.nbytes, peak

    def test_respects_given_reports(self):
        rng = np.random.default_rng(34)
        m = make_market(rng, n=3, m=5)
        others = [m.space.rv(0.5 * a.endowment.payoffs) for a in m.agents]
        b = best_endowment_response(m, 1, others=others)
        top = reported_utility(m, 1, b, others=others)
        for _ in range(100):
            trial = m.space.rv(rng.normal(size=5))
            assert reported_utility(m, 1, trial, others=others) <= top + 1e-10


class TestBestPercentageResponse:
    def test_uncorrelated_case(self):
        # orthogonal endowments decouple the response: gamma_i/(gamma_i+gamma)
        from riskshare.experiments import correlated_pair_market

        m = correlated_pair_market(1.3, 0.8, 1.0, 2.0, 0.0)
        g = m.aggregate_gamma
        for i, a in enumerate(m.agents):
            assert best_percentage_response(m, i) == pytest.approx(
                a.gamma / (a.gamma + g), abs=1e-12
            )

    def test_clamped_at_zero(self):
        from riskshare.experiments import correlated_pair_market

        # strongly negative correlation with a much riskier counterpart
        m = correlated_pair_market(1.0, 1.0, 1.0, 25.0, -0.9)
        assert best_percentage_response(m, 0) == 0.0

    def test_no_n_by_n_intermediate(self):
        # Cov(E_i, E_{-i}) is one O(m) product with the column total; the
        # n x n covariance matrix would be 128 MB at n = 4000
        rng = np.random.default_rng(36)
        m = make_market(rng, n=4000, m=6)
        tracemalloc.start()
        try:
            b = best_percentage_response(m, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        row = (m.centered[17] * m.space.probs) @ m.centered.T  # Cov(E_17, E_j)
        others = row.sum() - row[17]
        own, other = _response_coefficients(m)
        want = max(0.0, own[17] + other[17] * others / m.variances[17])
        assert b == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_best_among_scalar_reports(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            m = make_market(rng, m=4)
            i = int(rng.integers(m.n))
            b_star = best_percentage_response(m, i)
            e = m.agents[i].endowment.payoffs
            top = reported_utility(m, i, m.space.rv(b_star * e))
            for b in np.linspace(0.0, 3.0, 61):
                assert reported_utility(m, i, m.space.rv(float(b) * e)) <= top + 1e-10


class TestBestPriceResponse:
    def test_matches_search_against_untruthful_schedules(self):
        # the others misstate both their risk aversions and their exposures
        rng = np.random.default_rng(36)
        for k in (1, 2):
            for _ in range(4):
                m = make_market(rng, m=4)
                basket = make_basket(rng, m.space, k=k)
                i = int(rng.integers(m.n))
                others = [
                    DemandSchedule(
                        s.gamma * rng.uniform(0.5, 2.0),
                        s.c + rng.normal(scale=0.5, size=k),
                    )
                    for j, s in enumerate(truthful_schedules(m, basket))
                    if j != i
                ]
                assert np.allclose(
                    best_price_response(m, i, basket, others),
                    argmax_phi(m, i, basket, others),
                    atol=1e-6,
                )

    def test_needs_one_schedule_per_other_agent(self):
        # all n schedules, agent i's included, are one too many
        rng = np.random.default_rng(43)
        m = make_market(rng, n=3, m=4)
        basket = make_basket(rng, m.space)
        with pytest.raises(ValueError, match="need one schedule per other agent"):
            best_price_response(m, 0, basket, truthful_schedules(m, basket))

    def test_maximizes_clearing_utility(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            m = make_market(rng, m=4)
            basket = make_basket(rng, m.space, k=2)
            i = int(rng.integers(m.n))
            others = [
                s for j, s in enumerate(truthful_schedules(m, basket)) if j != i
            ]
            p_hat = best_price_response(m, i, basket, others)
            top = _clearing_value(m, i, basket, others, p_hat)
            for _ in range(100):
                p = p_hat + rng.normal(scale=0.2, size=2)
                assert _clearing_value(m, i, basket, others, p) <= top + 1e-10

    def test_preferred_price_beats_competitive(self):
        rng = np.random.default_rng(38)
        m = make_market(rng, m=4)
        basket = make_basket(rng, m.space, k=1)
        p_star = capm_equilibrium(m, basket).prices
        others = truthful_schedules(m, basket)[1:]
        p_hat = best_price_response(m, 0, basket, others)
        assert _clearing_value(m, 0, basket, others, p_hat) >= _clearing_value(
            m, 0, basket, others, p_star
        ) - 1e-12


class TestSchedules:
    def test_truthful_clearing_matches_capm(self):
        # the truthful schedules' demand sums to 0 at the CAPM prices
        rng = np.random.default_rng(39)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        p = capm_equilibrium(m, basket).prices
        demands = [s.quantities(basket, p) for s in truthful_schedules(m, basket)]
        assert np.allclose(np.sum(demands, axis=0), 0.0, atol=1e-10)

    def test_best_demand_clears_at_preferred_price(self):
        # swapping in the best schedule moves the clearing price to p_hat_i
        rng = np.random.default_rng(40)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        schedules = truthful_schedules(m, basket)
        i = 0
        p_hat = best_price_response(
            m, i, basket, [s for j, s in enumerate(schedules) if j != i]
        )
        schedules[i] = best_demand_response(m, i, basket)
        demands = [s.quantities(basket, p_hat) for s in schedules]
        assert np.allclose(np.sum(demands, axis=0), 0.0, atol=1e-10)


class TestResponseReports:
    def test_endowment_report_gain(self, symmetric_market):
        rep = endowment_response_report(symmetric_market, 0)
        assert rep.utility_after - rep.utility_before == pytest.approx(1.0 / 3.0)

    def test_percentage_never_loses(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = make_market(rng, m=4)
            rep = percentage_response_report(m, int(rng.integers(m.n)))
            assert rep.utility_after >= rep.utility_before - 1e-10

    def test_demand_report_gain(self):
        rng = np.random.default_rng(42)
        m = make_market(rng, m=4)
        basket = make_basket(rng, m.space, k=1)
        rep = demand_response_report(m, 0, basket)
        assert rep.utility_after >= rep.utility_before - 1e-12


class TestPooledSchedule:
    def test_report_matches_per_agent_sums(self):
        # the report as it was stated schedule by schedule: the clearing price
        # of all truthful schedules, the n - 1 others' demand summed one by
        # one and valued by the oracle's clearing utility, the best price
        # response and the best report's exposures
        rng = np.random.default_rng(45)
        for k in (1, 2):
            for _ in range(5):
                m = make_market(rng, n=int(rng.integers(2, 7)), m=5)
                basket = make_basket(rng, m.space, k=k)
                i = int(rng.integers(m.n))
                schedules = truthful_schedules(m, basket)
                others = [s for j, s in enumerate(schedules) if j != i]

                g = 1.0 / np.sum([1.0 / s.gamma for s in schedules])
                p_star = basket.mean_vector - 2.0 * g * np.sum([s.c for s in schedules], axis=0)
                p_hat = best_price_response(m, i, basket, others)
                exposures = m.exposures(basket)
                own, other = _response_coefficients(m)
                c = own[i] * exposures[i] + other[i] * (exposures.sum(axis=0) - exposures[i])
                rep = demand_response_report(m, i, basket)
                assert rep.response.gamma == m.gammas[i]
                before, after = (_clearing_value(m, i, basket, others, p)
                                 for p in (p_star, p_hat))
                for got, want in ((rep.response.c, c), (rep.utility_before, before),
                                  (rep.utility_after, after)):
                    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))

    def test_utility_before_is_the_capm_level_bit_for_bit(self):
        # the truthful utility is the CAPM engine's own level, also under cash
        # shifts and rescaled payoffs; `utility_after` is held to the exact
        # reference (test_exact.py) and to the per-agent sums above
        rng = np.random.default_rng(47)
        for trial in range(240):
            drawn = make_market(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(4, 9)))
            payoffs = drawn.payoffs.copy()
            if trial % 3 == 1:  # one endowment shifted by cash
                payoffs[rng.integers(drawn.n)] += 2.0 ** 40
            elif trial % 3 == 2:  # all payoffs scaled
                payoffs *= 10.0 ** rng.uniform(-6.0, 6.0)
            m = Market.from_arrays(drawn.space, drawn.gammas, payoffs)
            basket = make_basket(rng, m.space, k=int(rng.integers(1, 4)))
            i = int(rng.integers(m.n))
            rep = demand_response_report(m, i, basket)
            assert rep.utility_before == capm_equilibrium(m, basket).utility_levels[i], trial

    @pytest.mark.parametrize("n", [5, 2000])
    def test_report_evaluates_no_demand(self, n, monkeypatch):
        # both utilities are the basket mechanism's levels on exposure rows:
        # no schedule's demand is evaluated at any price, pooled or not
        rng = np.random.default_rng(46)
        m = make_market(rng, n=n, m=6)
        basket = make_basket(rng, m.space)
        calls = []
        quantities = DemandSchedule.quantities

        def counted(self, basket, p):
            calls.append(self)
            return quantities(self, basket, p)

        monkeypatch.setattr(DemandSchedule, "quantities", counted)
        demand_response_report(m, 0, basket)
        assert calls == []
