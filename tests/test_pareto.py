import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.core import (
    Market,
    ProbSpace,
    SecurityBasket,
    SingularCovarianceError,
    centered,
    demand,
    pricing,
)
from riskshare.pareto import (
    aggregate_gain,
    capm_equilibrium,
    constrained_loss,
    endowment_prices,
    mechanism_gains,
    optimal_sharing,
    optimal_utility_levels,
    pooling_gain,
    sharing_rule,
    sharing_weights,
)
from riskshare.nash import nash_endowment

from conftest import make_basket, make_market, make_space
from moments import cov, mean, mv_utility, var


class TestOptimalSharing:
    def test_symmetric_contracts(self, symmetric_market):
        sharing = optimal_sharing(symmetric_market)
        assert np.allclose(sharing[0], [-1.0, 1.0])
        assert np.allclose(sharing[1], [1.0, -1.0])
        assert aggregate_gain(symmetric_market) == pytest.approx(2.0)

    def test_weights(self):
        rng = np.random.default_rng(10)
        m = make_market(rng, n=3)
        w = sharing_weights(m)
        g = m.aggregate_gamma
        for i in range(3):
            assert w[i, i] == pytest.approx((g - m.gammas[i]) / m.gammas[i])
            for j in range(3):
                if j != i:
                    assert w[i, j] == pytest.approx(g / m.gammas[i])

    def test_contracts_sum_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = make_market(rng)
            sharing = optimal_sharing(m)
            total = sum(c for c in sharing)
            assert np.allclose(total, 0.0, atol=1e-10)

    def test_post_trade_position_proportional_to_total(self):
        # C*_i + E_i = (gamma / gamma_i) E for every agent
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = make_market(rng)
            sharing = optimal_sharing(m)
            g = m.aggregate_gamma
            for i, a in enumerate(m.agents):
                want = (g / a.gamma) * m.payoffs.sum(axis=0)
                got = sharing[i] + a.endowment.payoffs
                assert var(m.space.rv(got - want)) < 1e-18

    def test_aggregate_gain_formula_and_sign(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = make_market(rng)
            g = m.aggregate_gamma
            want = sum(a.gamma * var(a.endowment) for a in m.agents) - g * var(
                m.space.rv(m.payoffs.sum(axis=0))
            )
            assert aggregate_gain(m) == pytest.approx(want, abs=1e-10)
            assert aggregate_gain(m) >= -1e-12

    def test_no_trade_when_endowments_aligned(self):
        # gamma_i E_i pairwise equal up to constants means zero gain
        rng = np.random.default_rng(14)
        m0 = make_market(rng, n=3, m=4)
        base = m0.agents[0].endowment
        from riskshare.core import Agent, Market

        agents = tuple(
            Agent(g, m0.space.rv((1.0 / g) * base.payoffs)) for g in (0.7, 1.1, 1.9)
        )
        m = Market(m0.space, agents)
        assert aggregate_gain(m) == pytest.approx(0.0, abs=1e-12)

    def test_utility_levels(self):
        rng = np.random.default_rng(15)
        m = make_market(rng)
        sharing = optimal_sharing(m)
        levels = optimal_utility_levels(m)
        for i, a in enumerate(m.agents):
            direct = a.gamma * var(m.space.rv(sharing[i])) + mv_utility(
                a.gamma, a.endowment
            )
            assert levels[i] == pytest.approx(direct, abs=1e-12)
            assert levels[i] >= mv_utility(a.gamma, a.endowment) - 1e-12


class TestCapm:
    def test_market_clears(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            eq = capm_equilibrium(m, basket)
            total = sum(
                demand(a.gamma, a.endowment, basket, eq.prices) for a in m.agents
            )
            assert np.allclose(total, 0.0, atol=1e-9)

    def test_allocation_equals_demand(self):
        rng = np.random.default_rng(17)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        eq = capm_equilibrium(m, basket)
        for i, a in enumerate(m.agents):
            assert np.allclose(
                eq.allocation[i],
                demand(a.gamma, a.endowment, basket, eq.prices),
                atol=1e-9,
            )

    def test_gains_nonnegative(self):
        rng = np.random.default_rng(18)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        eq = capm_equilibrium(m, basket)
        assert np.all(eq.gains >= -1e-12)

    def test_no_n_by_n_intermediate(self):
        # an n x n float matrix is 128 MB at n = 4000; the per-agent arrays
        # the basket equilibrium and the utility levels need are under 1 MB
        rng = np.random.default_rng(24)
        m = make_market(rng, n=4000, m=6)
        basket = make_basket(rng, m.space, k=2)
        tracemalloc.start()
        try:
            capm_equilibrium(m, basket)
            optimal_utility_levels(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_price_depends_on_covariance_with_total(self):
        rng = np.random.default_rng(19)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        eq = capm_equilibrium(m, basket)
        g = m.aggregate_gamma
        for j, s in enumerate(basket.securities):
            want = mean(s) - 2.0 * g * cov(s, m.space.rv(m.payoffs.sum(axis=0)))
            assert eq.prices[j] == pytest.approx(want, abs=1e-12)


class TestEndowmentPrices:
    def test_singular_raises(self, symmetric_market):
        with pytest.raises(SingularCovarianceError):
            endowment_prices(symmetric_market)

    def test_singular_by_rank_without_n_by_n(self):
        # n >= m endowments are singular by rank; Var[E] would take 3.2 GB at
        # n = 2e4 (test_nash.py's TestNoNByN gates n = 4000)
        rng, n = np.random.default_rng(26), 20_000
        m = Market.from_arrays(make_space(rng, 6), rng.uniform(0.5, 2.0, n),
                               rng.normal(size=(n, 6)))
        tracemalloc.start()
        try:
            with pytest.raises(SingularCovarianceError, match=r"Var\[E\] is singular"):
                endowment_prices(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        assert "gram" not in vars(m)

    def test_matches_capm_on_endowment_basket(self):
        rng = np.random.default_rng(20)
        from riskshare.core import SecurityBasket

        m = make_market(rng, n=3, m=5)
        prices = endowment_prices(m)
        basket = SecurityBasket(tuple(m.endowments()))
        eq = capm_equilibrium(m, basket)
        assert np.allclose(prices, eq.prices, atol=1e-10)


class TestConstrainedLoss:
    def test_zero_when_contracts_spanned(self):
        rng = np.random.default_rng(21)
        from riskshare.core import SecurityBasket

        m = make_market(rng, n=3, m=5)
        basket = SecurityBasket(tuple(m.endowments()))
        losses, total = constrained_loss(m, basket)
        assert np.allclose(losses, 0.0, atol=1e-10)
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=1)
            losses, total = constrained_loss(m, basket)
            assert np.all(losses >= -1e-12)
            assert total == pytest.approx(losses.sum())

    def test_nonnegative_with_complete_basket(self):
        # m - 1 securities span every centered contract, so each loss is zero
        # up to rounding, and rounding must not make one negative
        rng = np.random.default_rng(25)
        for _ in range(40):
            n, m = int(rng.integers(2, 6)), int(rng.integers(3, 8))
            space = make_space(rng, m)
            market = Market.from_arrays(space, rng.integers(2, 9, n) / 4.0,
                                        rng.integers(-1024, 1025, (n, m)) / 1024.0)
            rows = rng.integers(-1024, 1025, (m - 1, m)) / 1024.0
            basket = SecurityBasket(tuple(space.rvs(rows)))
            losses, total = constrained_loss(market, basket)
            gains = mechanism_gains(market, market.centered)
            assert np.all(losses >= 0.0), losses
            assert np.all(losses <= 1e-9 * gains), (losses, gains)
            assert total == losses.sum()

    def test_reads_only_the_allocation(self):
        # a payoff of 1e160 overflows the utility levels and gains of the
        # whole equilibrium, which the loss does not read: it forms the
        # allocation alone, so no RuntimeWarning (an error under pytest) is
        # raised, and that allocation is the equilibrium's, bit for bit
        space = ProbSpace([0.3, 0.3, 0.4])
        market = Market.from_arrays(space, [1.0, 2.0],
                                    [[1e160, -1.0, 0.5], [-0.5, 1.5, -1.0]])
        basket = SecurityBasket(tuple(space.rvs([[1.0, 0.0, 0.0]])))
        losses, total = constrained_loss(market, basket)
        assert losses.tolist() == [0.0, 0.0] and total == 0.0
        rng = np.random.default_rng(26)
        for _ in range(10):
            market = make_market(rng, m=5)
            basket = make_basket(rng, market.space, k=2)
            residual = (sharing_rule(market)(market.centered)
                        - capm_equilibrium(market, basket).allocation @ basket.centered)
            want = market.gammas * np.vecdot(residual * market.space.probs, residual)
            assert constrained_loss(market, basket)[0].tobytes() == want.tobytes()


class TestReservationPrices:
    def test_zero_demand(self):
        # at E[C] - 2 gamma_i Cov(C, E_i), agent i's reservation prices, the
        # agent is indifferent between trading and not trading the basket
        rng = np.random.default_rng(23)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        for i, a in enumerate(m.agents):
            p0 = pricing(a.gamma, basket.mean_vector, m.exposures(basket)[i])
            assert np.allclose(
                demand(a.gamma, a.endowment, basket, p0), 0.0, atol=1e-10
            )


class TestWelfareIdentity:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=200)
    def test_gains_plus_unpooled_risk_is_aggregate_gain(self, seed, n, m):
        # contract prices net to zero across the pool, so for any reports R
        # the mechanism's gains and the gain left in pooling E - R add up to
        # the aggregate gain
        rng = np.random.default_rng(seed)
        market = make_market(rng, n=n, m=m)
        # in-span mixtures of the endowments plus rows off their span
        raw = rng.normal(size=(n, n)) @ market.centered + rng.normal(size=(n, m))
        reports = centered(market.space.probs, raw)[1]
        gains = mechanism_gains(market, reports)
        unpooled = pooling_gain(market, market.centered - reports)
        total = aggregate_gain(market)
        scale = np.abs(gains).sum() + abs(unpooled) + abs(total)
        assert abs(gains.sum() + unpooled - total) <= 1e-12 * (1.0 + scale)
        nash = nash_endowment(market)
        gap = nash.inefficiency - (total - nash.per_agent_gain.sum())
        assert abs(gap) <= 1e-12 * (1.0 + np.abs(nash.per_agent_gain).sum() + total)
