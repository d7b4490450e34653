import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.core import (
    Agent,
    Market,
    ProbSpace,
    SecurityBasket,
    cov,
    equal_up_to_constants,
    var,
)
from riskshare.experiments import AgentSequenceSpec, agent_pool, correlated_pair_market
from riskshare.nash import (
    ConvergenceError,
    excess_return_check,
    nash_aggregate_endowment,
    nash_endowment,
    nash_percentage,
    nash_price,
    nash_vs_pareto_utilities,
    percentage_best_response,
    percentage_game_gains,
    price_best_response_general,
    table1_report,
)
from riskshare.pareto import (
    aggregate_gain,
    capm_equilibrium,
    endowment_prices,
    optimal_sharing,
    optimal_utility_levels,
)
from riskshare.strategic import best_endowment_response, reported_utility

from conftest import make_basket, make_market


class TestNashEndowment:
    def test_symmetric_example(self, symmetric_market):
        out = nash_endowment(symmetric_market)
        assert np.allclose(out.reported[0].payoffs, [0.5, -0.5])
        assert np.allclose(out.contracts[0].payoffs, [-0.5, 0.5])
        assert out.inefficiency == pytest.approx(0.5)
        assert out.per_agent_gain[0] == pytest.approx(0.75)

    def test_fixed_point(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m = make_market(rng)
            out = nash_endowment(m)
            for i in range(m.n):
                br = best_endowment_response(m, i, others=out.reported)
                assert var(br - out.reported[i]) < 1e-14

    def test_no_profitable_deviation(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            m = make_market(rng, m=4)
            out = nash_endowment(m)
            for i in range(m.n):
                top = reported_utility(m, i, out.reported[i], others=out.reported)
                for _ in range(200):
                    b = m.space.rv(rng.normal(size=4))
                    assert (
                        reported_utility(m, i, b, others=out.reported) <= top + 1e-10
                    )

    def test_contracts_sum_to_constant(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            m = make_market(rng)
            out = nash_endowment(m)
            total = sum(c.payoffs for c in out.contracts)
            assert np.var(total) < 1e-18

    def test_inefficiency_nonnegative(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            m = make_market(rng)
            assert nash_endowment(m).inefficiency >= -1e-9

    def test_homogeneous_closed_forms(self):
        rng = np.random.default_rng(54)
        for n in (2, 3, 5):
            m = make_market(rng, n=n, m=5, homogeneous=True)
            out = nash_endowment(m)
            sharing = optimal_sharing(m)
            assert var(out.aggregate - m.total_endowment) < 1e-18
            for i, a in enumerate(m.agents):
                want = (1.0 / n**2) * m.endowment_excluding(i) + (
                    (n * (n - 1) + 1) / n**2
                ) * a.endowment
                assert var(out.reported[i] - want) < 1e-18
                assert var(
                    out.contracts[i] - ((n - 1) / n) * sharing.contracts[i]
                ) < 1e-18

    def test_aggregate_coincides_iff_homogeneous(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            homogeneous = bool(rng.integers(2))
            m = make_market(rng, homogeneous=homogeneous)
            gap = var(nash_aggregate_endowment(m) - m.total_endowment)
            spread = np.ptp(m.gammas)
            if homogeneous:
                assert gap < 1e-18
            elif spread > 1e-6:
                assert gap > 1e-18

    def test_aligned_endowments_zero_inefficiency(self):
        space = ProbSpace([0.25, 0.25, 0.5])
        base = space.rv([1.0, -2.0, 0.5])
        m = Market(
            space,
            tuple(Agent(g, (1.0 / g) * base) for g in (0.6, 1.0, 1.7)),
        )
        assert nash_endowment(m).inefficiency == pytest.approx(0.0, abs=1e-12)


class TestTable1:
    def test_rejects_other_sizes(self):
        rng = np.random.default_rng(56)
        m = make_market(rng, n=3)
        with pytest.raises(ValueError):
            table1_report(m)

    def test_symmetric_rows(self, symmetric_market):
        rows = {r.name: r for r in table1_report(symmetric_market)}
        assert rows["gain_of_utility"].pareto_engine == pytest.approx(1.0)
        assert rows["gain_of_utility"].nash_engine == pytest.approx(0.75)
        assert rows["inefficiency"].nash_engine == pytest.approx(0.5)

    def test_engine_matches_closed_forms(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            m = make_market(rng, n=2)
            for r in table1_report(m):
                if hasattr(r.nash_engine, "payoffs"):
                    assert equal_up_to_constants(
                        r.nash_engine, r.nash_closed, tol=1e-16
                    )
                    assert equal_up_to_constants(
                        r.pareto_engine, r.pareto_closed, tol=1e-16
                    )
                else:
                    assert r.nash_engine == pytest.approx(r.nash_closed, abs=1e-10)
                    assert r.pareto_engine == pytest.approx(
                        r.pareto_closed, abs=1e-10
                    )

    def test_equal_gammas_gain_ratio(self):
        rng = np.random.default_rng(58)
        m = make_market(rng, n=2, homogeneous=True)
        rows = {r.name: r for r in table1_report(m)}
        gain = rows["gain_of_utility"]
        assert gain.nash_engine == pytest.approx(0.75 * gain.pareto_engine)


class TestNashPercentage:
    def test_uncoupled_at_zero_correlation(self):
        m = correlated_pair_market(1.4, 0.7, 1.0, 3.0, 0.0)
        out = nash_percentage(m)
        g = m.aggregate_gamma
        for i, a in enumerate(m.agents):
            assert out.b_star[i] == pytest.approx(a.gamma / (a.gamma + g), abs=1e-10)

    def test_full_sharing_only_in_trivial_case(self):
        m = correlated_pair_market(1.0, 1.0, 2.0, 2.0, 1.0)
        out = nash_percentage(m)
        assert np.allclose(out.b_star, 1.0, atol=1e-9)

    def test_residual_at_fixed_point(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            rho = float(rng.uniform(-0.95, 0.95))
            m = correlated_pair_market(
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.5, 3.0)),
                rho,
            )
            out = nash_percentage(m)
            assert out.converged
            br = percentage_best_response(m, out.b_star, out.kappa)
            assert np.max(np.abs(out.b_star - br)) < 1e-10

    def test_non_convergence_reported(self):
        # agent 0 starts clamped at zero and is free after the first solve
        m = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        with pytest.raises(ConvergenceError):
            nash_percentage(m, max_iter=1)
        out = nash_percentage(m, max_iter=1, raise_on_failure=False)
        assert not out.converged

    def test_parameter_validation(self):
        m = correlated_pair_market(1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            nash_percentage(m, kappa=0.0)

    @pytest.mark.parametrize("states", [6, 50])
    def test_growing_market_prefixes(self, states):
        spec = AgentSequenceSpec(sizes=(100,), n_states=states, seed=1)
        space, agents = agent_pool(spec, homogeneous=False)
        p = space.probs
        for n in (5, 10, 20, 50, 100):
            out = nash_percentage(Market(space, tuple(agents[:n])))
            assert out.converged
            # the clamped best responses in plain numpy, from centered moments
            gammas = np.array([a.gamma for a in agents[:n]])
            endow = np.array([a.endowment.payoffs for a in agents[:n]])
            endow = endow - (endow @ p)[:, None]
            covariance = (endow * p) @ endow.T
            var_i = np.diag(covariance)
            g = 1.0 / np.sum(1.0 / gammas)
            others = covariance @ out.b_star - var_i * out.b_star
            raw = gammas / (gammas + g) + g**2 / (gammas**2 - g**2) * others / var_i
            residual = np.max(np.abs(out.b_star - np.clip(raw, 0.0, out.kappa)))
            assert residual <= 1e-12, n
            assert out.residual == pytest.approx(residual, abs=1e-14)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(3, 8),
        st.floats(-1e8, 1e8),
        st.floats(-3.0, 6.0),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_invariant_to_cash_shift_and_scale(self, seed, n, states, cash, k):
        rng = np.random.default_rng(seed)
        market = make_market(rng, n=n, m=states)
        space, agents = market.space, market.agents
        shifted = list(agents)
        shifted[0] = Agent(agents[0].gamma, agents[0].endowment + cash)
        scaled = [Agent(a.gamma, 10.0**k * a.endowment) for a in agents]
        want = nash_percentage(market).b_star
        for variant in (shifted, scaled):
            got = nash_percentage(Market(space, tuple(variant))).b_star
            assert np.all(np.abs(got - want) <= 1e-6 * (1.0 + np.abs(want)))

    def test_gains_relative_to_no_trade(self):
        m = correlated_pair_market(1.0, 1.0, 1.0, 4.0, -0.3)
        out = nash_percentage(m)
        gains = percentage_game_gains(m, out)
        assert np.all(gains >= -1e-10)


class TestNashPrice:
    def test_demands_clear(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            out = nash_price(m, basket)
            total = sum(s.quantities(basket, out.price) for s in out.schedules)
            assert np.allclose(total, 0.0, atol=1e-9)

    def test_allocation_is_cleared_demand(self):
        rng = np.random.default_rng(61)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        out = nash_price(m, basket)
        for i in range(m.n):
            assert np.allclose(
                out.allocation[i],
                out.schedules[i].quantities(basket, out.price),
                atol=1e-9,
            )

    def test_price_fixed_point(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            out = nash_price(m, basket)
            for i in range(m.n):
                others = [s for j, s in enumerate(out.schedules) if j != i]
                br = price_best_response_general(m, i, basket, others)
                assert np.allclose(br, out.price, atol=1e-9)

    def test_pressure_drives_price_gap(self):
        rng = np.random.default_rng(63)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        out = nash_price(m, basket)
        eq = capm_equilibrium(m, basket)
        g = m.aggregate_gamma
        assert np.allclose(out.price - eq.prices, 2.0 * g * out.pressure, atol=1e-12)

    def test_two_agent_pressure_closed_form(self):
        rng = np.random.default_rng(64)
        m = make_market(rng, n=2, m=5)
        basket = make_basket(rng, m.space, k=2)
        out = nash_price(m, basket)
        g1, g2 = m.gammas
        e1, e2 = m.endowments()
        diff = g1 * e1 - g2 * e2
        for j, s in enumerate(basket.securities):
            want = (g2 - g1) / (2.0 * g1 * g2) * cov(s, diff)
            assert out.pressure[j] == pytest.approx(want, abs=1e-10)

    def test_homogeneous_price_and_allocation(self):
        rng = np.random.default_rng(65)
        for n in (2, 3, 5):
            m = make_market(rng, n=n, m=5, homogeneous=True)
            basket = make_basket(rng, m.space, k=2)
            out = nash_price(m, basket)
            eq = capm_equilibrium(m, basket)
            assert np.allclose(out.price, eq.prices, atol=1e-12)
            for i in range(n):
                assert np.allclose(
                    out.allocation[i], ((n - 1) / n) * eq.allocation[i], atol=1e-12
                )


class TestUtilityComparison:
    def test_aggregate_decrease_identity(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            cmp = nash_vs_pareto_utilities(m, basket)
            assert cmp.aggregate_decrease == pytest.approx(
                cmp.aggregate_decrease_closed, abs=1e-9
            )

    def test_homogeneous_gain_factor(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 5):
            m = make_market(rng, n=n, m=5, homogeneous=True)
            basket = make_basket(rng, m.space, k=2)
            cmp = nash_vs_pareto_utilities(m, basket)
            from riskshare.core import mv_utility

            base = np.array([mv_utility(a.gamma, a.endowment) for a in m.agents])
            pareto_gain = cmp.pareto_utilities - base
            nash_gain = cmp.nash_utilities - base
            assert np.allclose(
                nash_gain, ((n**2 - 1) / n**2) * pareto_gain, atol=1e-10
            )

    def test_two_agent_unit_variance_closed_form(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            m = make_market(rng, n=2, m=5)
            c = m.space.rv(rng.normal(size=5))
            c = (1.0 / np.sqrt(var(c))) * c
            basket = SecurityBasket((c,))
            cmp = nash_vs_pareto_utilities(m, basket)
            assert cmp.agent1_nash_minus_pareto_closed == pytest.approx(
                cmp.nash_utilities[0] - cmp.pareto_utilities[0], abs=1e-10
            )

    def test_closed_form_absent_outside_configuration(self):
        rng = np.random.default_rng(69)
        m = make_market(rng, n=3, m=5)
        basket = make_basket(rng, m.space, k=2)
        assert nash_vs_pareto_utilities(m, basket).agent1_nash_minus_pareto_closed is None


class TestExcessReturn:
    @staticmethod
    def _in_span_market(rng, n=3, m=4):
        space = ProbSpace(rng.dirichlet(np.ones(m) * 5.0))
        c = space.rv(rng.normal(size=m))
        basket = SecurityBasket((c,))
        agents = tuple(
            Agent(
                float(rng.uniform(0.5, 2.0)),
                float(rng.normal()) * c + float(rng.normal()),
            )
            for _ in range(n)
        )
        return Market(space, agents), basket, c

    def test_market_portfolio_residual_zero(self):
        rng = np.random.default_rng(70)
        m, basket, c = self._in_span_market(rng)
        b_star = nash_aggregate_endowment(m)
        assert excess_return_check(m, basket, b_star) < 1e-12

    def test_random_in_span_payoffs(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            m, basket, c = self._in_span_market(rng)
            x = float(rng.normal()) * c + float(rng.normal())
            if abs(cov(x, nash_aggregate_endowment(m))) < 1e-12:
                continue
            assert excess_return_check(m, basket, x) < 1e-12

    def test_rejects_out_of_span(self):
        rng = np.random.default_rng(72)
        m, basket, c = self._in_span_market(rng, m=5)
        x = m.space.rv(rng.normal(size=5))
        with pytest.raises(ValueError):
            excess_return_check(m, basket, x)


class TestCashShift:
    """A cash shift of one endowment changes only the cash it carries."""

    SHIFT = 1e8

    @staticmethod
    def _outputs(market, basket, cash):
        p = market.space.probs

        def centered(rvs):
            return np.array([r.payoffs - p @ r.payoffs for r in rvs])

        sharing = optimal_sharing(market)
        capm = capm_equilibrium(market, basket)
        nash = nash_endowment(market)
        percentage = nash_percentage(market)
        price = nash_price(market, basket)
        return {
            "contracts": centered(sharing.contracts),
            "aggregate_gain": aggregate_gain(market),
            "endowment_prices": endowment_prices(market) - cash,
            "utility_levels": optimal_utility_levels(market) - cash,
            "capm_prices": capm.prices,
            "capm_allocation": capm.allocation,
            "capm_utility_levels": capm.utility_levels - cash,
            "capm_gains": capm.gains,
            "reported": centered(nash.reported),
            "aggregate": centered([nash.aggregate]),
            "nash_contracts": centered(nash.contracts),
            "inefficiency": nash.inefficiency,
            "nash_gain": nash.per_agent_gain,
            "b_star": percentage.b_star,
            "percentage_gain": percentage_game_gains(market, percentage),
            "price": price.price,
            "schedules": np.array([s.c for s in price.schedules]),
            "price_allocation": price.allocation,
            "pressure": price.pressure,
        }

    def test_readme_market_shifted_by_1e8(self):
        space = ProbSpace([0.3, 0.3, 0.4])
        e1, e2 = space.rv([1.0, -1.0, 0.5]), space.rv([-0.5, 1.5, -1.0])
        basket = SecurityBasket((space.rv([1.0, 0.0, -1.0]),))
        base = Market(space, (Agent(1.0, e1), Agent(2.0, e2)))
        shifted = Market(space, (Agent(1.0, e1 + self.SHIFT), Agent(2.0, e2)))
        want = self._outputs(base, basket, np.zeros(2))
        got = self._outputs(shifted, basket, np.array([self.SHIFT, 0.0]))
        for key in want:
            assert np.all(
                np.abs(got[key] - want[key]) <= 1e-6 * (1.0 + np.abs(want[key]))
            ), key
