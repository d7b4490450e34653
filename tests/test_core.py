from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import core, nash, oracle, pareto, strategic
from riskshare.core import (
    Agent,
    DemandSchedule,
    Market,
    ProbSpace,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
    SpaceMismatchError,
    cross_cov,
    demand,
    require_invertible,
)

from conftest import make_basket, make_market
from moments import mv_utility


payoff_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=6
)


def _space(m):
    return ProbSpace(np.full(m, 1.0 / m))


class TestProbSpace:
    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError):
            ProbSpace([0.5, 0.5, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbSpace([0.5, 0.6])


class TestRvs:
    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_matches_single_construction(self, scale):
        space = _space(7)
        rows = scale * np.random.default_rng(11).normal(size=(5, 7))
        batch = space.rvs(rows)
        assert len(batch) == 5
        for x, row in zip(batch, rows):
            assert x.space is space
            assert x.payoffs.tobytes() == Rv(space, row).payoffs.tobytes()

    def test_payoffs_read_only_and_copied(self):
        space = _space(3)
        rows = np.arange(6.0).reshape(2, 3)
        batch = space.rvs(rows)
        for x in batch:
            with pytest.raises(ValueError):
                x.payoffs[0] = 5.0
            with pytest.raises(ValueError):
                x.payoffs.flags.writeable = True
        rows[:] = -1.0
        assert [x.payoffs.tolist() for x in batch] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_non_finite_rejected(self):
        rows = np.ones((3, 4))
        rows[2, 1] = np.inf
        with pytest.raises(ValueError, match="^payoffs contains non-finite entries$"):
            _space(4).rvs(rows)

    @pytest.mark.parametrize("rows,bad", [
        (np.ones((2, 2)), 0),  # too narrow
        (np.ones((2, 4)), 0),  # too wide
        ([[1.0, 2.0, 3.0], [1.0, 2.0]], 1),  # ragged
        (np.ones((2, 3, 3)), 0),  # a row is not one-dimensional
    ])
    def test_wrong_shape_fails_as_rv(self, rows, bad):
        space = _space(3)
        with pytest.raises(ValueError) as single:
            Rv(space, rows[bad])
        with pytest.raises(type(single.value)) as batch:
            space.rvs(rows)
        assert str(batch.value) == str(single.value)


class TestRv:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Rv(_space(3), [1.0, 2.0])

    def test_payoffs_immutable(self):
        x = _space(2).rv([1.0, 2.0])
        with pytest.raises(ValueError):
            x.payoffs[0] = 5.0


class TestMoments:
    """`cross_cov`, the one moment kernel on payoff rows."""

    def test_against_numpy(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(5))
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert cross_cov(p, a, b) == pytest.approx(p @ (a * b) - (p @ a) * (p @ b))
        assert cross_cov(p, a, a) == pytest.approx(p @ (a * a) - (p @ a) ** 2)

    @given(payoff_lists, payoff_lists, st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_cov_bilinear(self, a, b, s, t):
        m = min(len(a), len(b))
        p = np.full(m, 1.0 / m)
        x, y = np.array(a[:m]), np.array(b[:m])
        lhs = cross_cov(p, s * x + t * y, y)
        rhs = s * cross_cov(p, x, y) + t * cross_cov(p, y, y)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_var_where_squares_overflow(self):
        # the centered payoff 1.98e154 squares past the float range; weighted
        # by its probability 0.01 first, it does not
        p = np.array([0.01, 0.33, 0.33, 0.33])
        x = np.array([2e154, 0.0, 0.0, 0.0])
        with np.errstate(over="raise"):
            variance = cross_cov(p, x, x)
            assert variance == pytest.approx(0.01 * 0.99 * 2e154 * 2e154, rel=1e-14)
            assert cross_cov(p, x, -x) == pytest.approx(-variance, rel=1e-15)


class TestMarket:
    def test_needs_two_agents(self):
        sp = _space(2)
        with pytest.raises(ValueError):
            Market(sp, (Agent(1.0, sp.rv([1, 2])),))

    def test_aggregate_gamma_below_min(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = make_market(rng)
            assert 0.0 < m.aggregate_gamma < m.gammas.min()
            assert 1.0 - np.sum((m.aggregate_gamma / m.gammas) ** 2) > 0.0
        sp = _space(2)
        m = Market(sp, tuple(Agent(g, sp.rv([1, 0])) for g in (1.0, 2.0, 4.0)))
        assert m.aggregate_gamma == pytest.approx(1.0 / (1 + 1 / 2 + 1 / 4))

    def test_rejects_nonpositive_gamma(self):
        sp = _space(2)
        with pytest.raises(ValueError):
            Agent(0.0, sp.rv([1, 2]))


class TestMarketFromArrays:
    # every second moment is a product of `centered`, so equal bits there
    # give equal covariances
    ARRAYS = ("gammas", "payoffs", "means", "centered", "variances")

    @pytest.mark.parametrize("n,m", [(2, 3), (5, 6), (40, 50)])
    def test_matches_market_of_agents(self, n, m):
        rng = np.random.default_rng(n + m)
        space = ProbSpace(rng.dirichlet(np.ones(m) * 5.0))
        gammas = rng.uniform(0.5, 2.0, n)
        payoffs = rng.normal(size=(n, m)) + 2.0**30
        of_agents = Market(space, tuple(
            Agent(float(g), space.rv(e)) for g, e in zip(gammas, payoffs)))
        of_arrays = Market.from_arrays(space, gammas, payoffs)
        assert of_arrays.n == of_agents.n == n
        assert of_arrays.aggregate_gamma == of_agents.aggregate_gamma
        for name in self.ARRAYS:
            want, got = getattr(of_agents, name), getattr(of_arrays, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        # the agents are derived on first read, equal to the ones given
        assert "agents" not in vars(of_arrays)
        assert len(of_arrays.agents) == n
        for got, want in zip(of_arrays.agents, of_agents.agents):
            assert type(got.gamma) is float and got.gamma == want.gamma
            assert got.endowment.space is space
            assert got.endowment.payoffs.tobytes() == want.endowment.payoffs.tobytes()
        assert of_arrays.agents is of_arrays.agents

    def test_copies_its_inputs(self):
        space = _space(3)
        gammas, payoffs = np.array([1.0, 2.0]), np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 1.0]])
        market = Market.from_arrays(space, gammas, payoffs)
        gammas[0], payoffs[0, 0] = 5.0, 9.0
        assert market.gammas[0] == 1.0 and market.payoffs[0, 0] == 1.0

    @pytest.mark.parametrize("gammas,match", [
        ([1.0], "at least two agents"),
        ([0.0, 1.0], "gamma must be a positive number, got 0.0"),
        ([-1.0, 1.0], "gamma must be a positive number, got -1.0"),
        ([1.0, float("inf")], "gamma must be a positive number, got inf"),
        ([1.0, float("nan")], "gamma must be a positive number, got nan"),
        ([1e-300, 1e300], "too disparate"),
    ])
    def test_same_errors_as_market_of_agents(self, gammas, match):
        space = _space(2)
        payoffs = np.array([[1.0, -1.0], [0.5, 2.0]])[:len(gammas)]
        with pytest.raises(ValueError, match=match):
            Market.from_arrays(space, gammas, payoffs)
        with pytest.raises(ValueError, match=match):
            Market(space, tuple(Agent(g, space.rv(e)) for g, e in zip(gammas, payoffs)))

    def test_shape_mismatch(self):
        space, other = _space(2), _space(3)
        with pytest.raises(SpaceMismatchError):
            Market.from_arrays(space, [1.0, 2.0], np.ones((2, 3)))
        with pytest.raises(SpaceMismatchError):
            Market(space, (Agent(1.0, space.rv([1.0, 0.0])),
                           Agent(2.0, other.rv([1.0, 0.0, 2.0]))))
        with pytest.raises(ValueError, match="one row per agent"):
            Market.from_arrays(space, [1.0, 2.0, 3.0], np.ones((2, 2)))

    def test_rejects_non_finite_payoffs(self):
        space = _space(2)
        with pytest.raises(ValueError, match="non-finite"):
            Market.from_arrays(space, [1.0, 2.0], [[1.0, float("nan")], [0.0, 1.0]])


class TestOneNumberRule:
    """A risk aversion is a real number, not a bool or a string, positive and
    finite, wherever one enters: one ValueError for every other value."""

    BAD = [pytest.param(True, id="true"), pytest.param(False, id="false"),
           pytest.param(np.True_, id="numpy-bool"), pytest.param("1", id="str"),
           pytest.param(None, id="none"), pytest.param([1.0], id="list"),
           pytest.param(1j, id="complex"),
           pytest.param(10**400, id="int-beyond-float"),  # a ValueError, not OverflowError
           pytest.param(Fraction(1, 10**400), id="fraction-below-float")]  # its float is 0.0
    MATCH = "gamma must be a positive number, got "

    @pytest.mark.parametrize("gamma", BAD)
    def test_agent(self, gamma):
        with pytest.raises(ValueError, match=self.MATCH):
            Agent(gamma, _space(2).rv([1.0, -1.0]))

    @pytest.mark.parametrize("gamma", BAD)
    def test_demand_schedule(self, gamma):
        with pytest.raises(ValueError, match=self.MATCH):
            DemandSchedule(gamma, [1.0])

    @pytest.mark.parametrize("gamma", BAD)
    def test_mv_utility(self, gamma):
        with pytest.raises(ValueError, match=self.MATCH):
            mv_utility(gamma, _space(2).rv([1.0, -1.0]))

    @pytest.mark.parametrize("gamma", BAD)
    def test_market_entry(self, gamma):
        payoffs = np.array([[1.0, -1.0], [0.5, 2.0]])
        for gammas in ([gamma, 2.0], (2.0, gamma)):
            with pytest.raises(ValueError, match=self.MATCH):
                Market.from_arrays(_space(2), gammas, payoffs)

    @pytest.mark.parametrize("gammas", [
        pytest.param(np.array([True, True]), id="bool-array"),
        pytest.param(np.array(["1", "2"]), id="str-array"),
        pytest.param(np.array([1.0, "2"], dtype=object), id="object-array"),
    ])
    def test_market_array_of_no_real_dtype(self, gammas):
        with pytest.raises(ValueError, match=self.MATCH):
            Market.from_arrays(_space(2), gammas, [[1.0, -1.0], [0.5, 2.0]])

    @pytest.mark.parametrize("gamma", [1, 2.5, np.float32(0.5), np.int64(3), Fraction(1, 3)])
    def test_real_numbers_accepted(self, gamma):
        space = _space(2)
        assert Agent(gamma, space.rv([1.0, -1.0])).gamma == gamma
        assert DemandSchedule(gamma, [1.0]).gamma == gamma
        market = Market.from_arrays(space, [gamma, 2.0], [[1.0, -1.0], [0.5, 2.0]])
        assert market.gammas.tolist() == [float(gamma), 2.0]
        # the functions compute with the float the rule checked, so a float32
        # computes in float64 and a Fraction makes no object array
        x, basket = space.rv([0.1, 0.7]), SecurityBasket((space.rv([1.0, 0.0]),))
        demand = oracle.argmax_demand(gamma, x, basket, [0.3])
        assert demand.tobytes() == oracle.argmax_demand(float(gamma), x, basket, [0.3]).tobytes()

    def test_real_dtype_array_checked_by_value_only(self, monkeypatch):
        # growing markets build each prefix from one array: its entries are
        # tested as one vector, with no call per entry, and only a list's
        # entries each go through the rule
        calls = []
        space = _space(2)
        agents = [Agent(g, space.rv([1.0, -1.0])) for g in (1.0, 2.0)]
        monkeypatch.setattr(core, "_check_gamma", calls.append)
        for gammas in (np.linspace(0.5, 2.0, 500), np.arange(1, 501), np.ones(500, np.float32)):
            Market.from_arrays(space, gammas, np.ones((500, 2)))
        Market(space, agents)  # each `Agent` checked its own gamma
        assert calls == []
        Market.from_arrays(space, [1.0, 2.0, 3.0], np.ones((3, 2)))
        assert calls == [1.0, 2.0, 3.0]


class TestMarketMoments:
    @pytest.mark.parametrize("scale", [1.0, 1e12])
    @pytest.mark.parametrize("n,m", [(3, 8), (4, 4), (6, 3)])
    def test_against_two_pass_reference(self, n, m, scale):
        # m <= n leaves the endowment covariance matrix rank-deficient
        rng = np.random.default_rng(10 * n + m)
        space = ProbSpace(rng.dirichlet(np.ones(m) * 5.0))
        endow = scale * rng.normal(size=(n, m))
        market = Market(space, tuple(
            Agent(float(g), space.rv(e)) for g, e in zip(rng.uniform(0.5, 2.0, n), endow)
        ))
        basket = SecurityBasket(tuple(space.rvs(scale * rng.normal(size=(2, m)))))
        # plain numpy: weighted means, centered once, weighted products
        rows = np.vstack([endow, basket.payoffs])
        ref = np.cov(rows, aweights=space.probs, bias=True)
        tol = 1e-12 * np.abs(ref).max()
        gram = (market.centered * space.probs) @ market.centered.T
        np.testing.assert_allclose(gram, ref[:n, :n], rtol=0, atol=tol)
        np.testing.assert_allclose(market.variances, np.diag(ref[:n, :n]), rtol=0, atol=tol)
        np.testing.assert_allclose(market.exposures(basket), ref[:n, n:], rtol=0, atol=tol)
        np.testing.assert_allclose(basket.cov_matrix, ref[n:, n:], rtol=0, atol=tol)
        np.testing.assert_allclose(market.means, endow @ space.probs, rtol=1e-12,
                                   atol=1e-12 * scale)
        # n >= m centered rows are singular by rank, before any product is
        # formed; below that the helper returns the same product
        assert np.linalg.matrix_rank(gram) == min(n, m - 1)
        if n >= m:
            with pytest.raises(SingularCovarianceError, match="rank"):
                require_invertible(space.probs, market.centered, "rank")
        else:
            got = require_invertible(space.probs, market.centered, "rank")
            assert got.tobytes() == gram.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_variances_are_the_gram_diagonal(self, scale):
        rng = np.random.default_rng(7)
        market = make_market(rng, n=5, m=4)
        market = Market(market.space, tuple(
            Agent(a.gamma, market.space.rv(a.endowment.payoffs * scale + 2.0**40))
            for a in market.agents))
        diagonal = np.diag((market.centered * market.space.probs) @ market.centered.T)
        np.testing.assert_allclose(market.variances, diagonal, rtol=1e-15, atol=0)
        assert not market.variances.flags.writeable

    def test_variances_where_squares_overflow(self):
        # a deviation of 1.5e154 squares past the float range; weighted by
        # its probability first, it does not
        space = ProbSpace(np.array([0.3, 0.3, 0.4]))
        market = Market(space, (Agent(1.0, space.rv([1.5e154, -1.5e154, 0.0])),
                                Agent(2.0, space.rv([-0.5, 1.5, -1.0]))))
        with np.errstate(over="raise"):
            assert market.variances[0] == pytest.approx(0.6 * 1.5e154 * 1.5e154, rel=1e-15)


class TestSecurityBasket:
    def test_rejects_collinear(self):
        sp = _space(3)
        c = sp.rv([1.0, 2.0, 0.0])
        with pytest.raises(SingularCovarianceError):
            SecurityBasket((c, sp.rv(2.0 * c.payoffs)))

    def test_rejects_constant_security(self):
        sp = _space(3)
        with pytest.raises(SingularCovarianceError):
            SecurityBasket((sp.rv(np.ones(3)),))

    def test_rejects_empty_basket(self):
        with pytest.raises(ValueError, match="basket needs at least one security"):
            SecurityBasket(())

    @pytest.mark.parametrize("k", [3, 4])
    def test_rejects_as_many_securities_as_states(self, k):
        # k centered rows on 3 states span at most 2 dimensions: singular by
        # rank, before any covariance is formed
        rng = np.random.default_rng(k)
        sp = _space(3)
        with pytest.raises(SingularCovarianceError):
            SecurityBasket(tuple(sp.rvs(rng.normal(size=(k, 3)))))

    def test_cov_inverse(self):
        rng = np.random.default_rng(4)
        sp = _space(5)
        basket = make_basket(rng, sp, k=3)
        assert np.allclose(basket.cov_matrix @ basket.cov_inverse, np.eye(3), atol=1e-10)


class TestSecurityBasketFromArrays:
    """`SecurityBasket.from_arrays` is the basket of the `Rv` route, from one matrix."""

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_matches_rv_route(self, scale):
        rng = np.random.default_rng(51)
        for _ in range(20):
            space = ProbSpace(rng.dirichlet(np.full(6, 5.0)))
            k = int(rng.integers(1, 5))
            rows = scale * (rng.normal(size=(k, 6)) + 1e3 * rng.normal(size=(k, 1)))
            arrays, rvs = SecurityBasket.from_arrays(space, rows), SecurityBasket(space.rvs(rows))
            for name in ("payoffs", "mean_vector", "centered", "cov_matrix", "cov_inverse"):
                assert getattr(arrays, name).tobytes() == getattr(rvs, name).tobytes(), name
            assert arrays.k == rvs.k and arrays.space is space

    def test_securities_view_the_read_only_rows(self):
        rows = np.random.default_rng(3).normal(size=(2, 4))
        basket = SecurityBasket.from_arrays(_space(4), rows)
        rows[:] = 0.0
        for j, x in enumerate(basket.securities):
            assert x.payoffs.base is basket.payoffs and x.payoffs is not basket.payoffs[j]
            assert x.payoffs.tobytes() == basket.payoffs[j].tobytes()
            with pytest.raises(ValueError):
                x.payoffs[0] = 1.0
        for arr in (basket.payoffs, basket.cov_matrix, basket.cov_inverse):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("rows", [
        [[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]],  # non-finite
        [[1.0, 0.0, -1.0, 2.0]],  # too wide
        [[1.0, 0.0]],  # too narrow
        [[1.0, 0.0, -1.0], [1.0, 2.0]],  # ragged
        [],  # k = 0
        np.empty((0, 3)),
    ])
    def test_fails_as_rv_route(self, rows):
        space = _space(3)
        with pytest.raises(ValueError) as route:
            SecurityBasket(space.rvs(rows))
        with pytest.raises(type(route.value)) as arrays:
            SecurityBasket.from_arrays(space, rows)
        assert str(arrays.value) == str(route.value)

    def test_singular_rejected_at_construction(self):
        with pytest.raises(SingularCovarianceError):
            SecurityBasket.from_arrays(_space(3), [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])

    def test_inverse_formed_on_first_read(self, monkeypatch):
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
        basket = SecurityBasket.from_arrays(_space(3), [[1.0, 0.0, -1.0]])
        assert inverses == []
        assert basket.cov_inverse is basket.cov_inverse
        assert len(inverses) == 1


class TestDemand:
    def test_zero_at_reservation_price(self):
        rng = np.random.default_rng(5)
        m = make_market(rng, n=2, m=5)
        basket = make_basket(rng, m.space, k=2)
        agent = m.agents[0]
        p0 = basket.mean_vector - 2.0 * agent.gamma * m.exposures(basket)[0]
        assert np.allclose(demand(agent.gamma, agent.endowment, basket, p0), 0.0,
                           atol=1e-10)

    def test_affine_in_price(self):
        rng = np.random.default_rng(6)
        m = make_market(rng, n=2, m=5)
        basket = make_basket(rng, m.space, k=2)
        agent = m.agents[0]
        p = basket.mean_vector
        d1, d2 = rng.normal(size=2), rng.normal(size=2)
        base = demand(agent.gamma, agent.endowment, basket, p)
        za = demand(agent.gamma, agent.endowment, basket, p + d1)
        zb = demand(agent.gamma, agent.endowment, basket, p + d2)
        zab = demand(agent.gamma, agent.endowment, basket, p + d1 + d2)
        assert np.allclose(zab - base, (za - base) + (zb - base), atol=1e-9)

    def test_first_order_condition(self):
        rng = np.random.default_rng(7)
        m = make_market(rng, n=2, m=4)
        basket = make_basket(rng, m.space, k=2)
        agent = m.agents[0]
        p = basket.mean_vector + rng.normal(scale=0.1, size=2)
        a = demand(agent.gamma, agent.endowment, basket, p)

        def objective(q):
            position = m.space.rv(q @ basket.payoffs + agent.endowment.payoffs)
            return mv_utility(agent.gamma, position) - q @ p

        best = objective(a)
        for _ in range(50):
            assert objective(a + rng.normal(scale=0.1, size=2)) <= best + 1e-12


class TestDemandSchedule:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a positive number"):
            DemandSchedule(gamma, [1.0])

    @pytest.mark.parametrize("c, match", [
        ([float("nan")], "c contains non-finite entries"),
        ([1.0, float("inf")], "c contains non-finite entries"),
        ([[1.0], [2.0]], "c must be one-dimensional"),
    ])
    def test_rejects_bad_c(self, c, match):
        with pytest.raises(ValueError, match=match):
            DemandSchedule(1.0, c)

    def test_c_copied_and_read_only(self):
        c = np.array([1.0, -2.0])
        schedule = DemandSchedule(1.5, c)
        c[0] = 7.0
        assert schedule.c.tolist() == [1.0, -2.0]
        assert not schedule.c.flags.writeable


class TestForeignSpace:
    """A basket or a report must live on the market's space: the same object,
    or a space of equal probabilities. Any other raises SpaceMismatchError,
    whether it has the market's number of states or not."""

    PROBS = [0.3, 0.3, 0.4]
    FOREIGN = [pytest.param([0.5, 0.25, 0.25], id="same-m"),
               pytest.param([0.25, 0.25, 0.25, 0.25], id="other-m")]

    # every entry point that reads a basket, as f(market, basket, others' schedules)
    BASKET_CALLS = {
        "demand": lambda m, b, s: demand(m.gammas[0], m.agents[0].endowment, b, [0.5]),
        "capm_equilibrium": lambda m, b, s: pareto.capm_equilibrium(m, b).prices,
        "constrained_loss": lambda m, b, s: pareto.constrained_loss(m, b)[0],
        "best_price_response": lambda m, b, s: strategic.best_price_response(m, 0, b, s),
        "clearing_utility": lambda m, b, s: oracle.clearing_utility(m, 0, b, s, np.array([0.1])),
        "argmax_phi": lambda m, b, s: oracle.argmax_phi(m, 0, b, s),
        "demand_response_report": lambda m, b, s: strategic.demand_response_report(
            m, 0, b).utility_after,
        "nash_price": lambda m, b, s: nash.nash_price(m, b).price,
    }
    # every entry point that takes report Rvs, as f(market, report on the tested space)
    REPORT_CALLS = {
        "reported_utility-b": lambda m, r: strategic.reported_utility(m, 0, r),
        "reported_utility-others": lambda m, r: strategic.reported_utility(
            m, 0, m.space.rv(m.centered[0]), others=[m.space.rv(m.centered[0]), r, r]),
        "best_endowment_response-others": lambda m, r: strategic.best_endowment_response(
            m, 0, others=[m.space.rv(m.centered[0]), m.space.rv(m.centered[1]), r]).payoffs,
        "deviation_gain": lambda m, r: oracle.deviation_gain(
            m, 0, [m.space.rv(m.payoffs[0]), r, m.space.rv(m.payoffs[2])]),
        "best_response_dynamics-init": lambda m, r: np.stack([
            x.payoffs for x in oracle.best_response_dynamics(
                m, init=[m.space.rv(m.payoffs[0]), m.space.rv(m.payoffs[1]), r],
                rounds=2).trajectory[-1]]),
        "argmax_reported_utility-basis": lambda m, r: oracle.argmax_reported_utility(
            m, 0, oracle.CoefficientSearchSpec((m.space.rv(m.payoffs[1]), r))).coefficients,
    }

    def _market(self):
        space = ProbSpace(np.array(self.PROBS))
        payoffs = [[1.0, -1.0, 0.5], [-0.5, 1.5, -1.0], [0.2, 0.1, -0.4]]
        market = Market.from_arrays(space, [1.0, 2.0, 1.5], payoffs)
        own = SecurityBasket((space.rv([1.0, 0.0, -1.0]),))
        return market, strategic.truthful_schedules(market, own)[1:]

    @pytest.mark.parametrize("probs", FOREIGN)
    @pytest.mark.parametrize("name", list(BASKET_CALLS))
    def test_foreign_basket_raises(self, name, probs):
        market, schedules = self._market()
        foreign = ProbSpace(np.array(probs))
        basket = SecurityBasket((foreign.rv(np.linspace(-1.0, 2.0, foreign.n_states)),))
        with pytest.raises(SpaceMismatchError, match="basket"):
            self.BASKET_CALLS[name](market, basket, schedules)

    @pytest.mark.parametrize("probs", FOREIGN)
    @pytest.mark.parametrize("name", list(REPORT_CALLS))
    def test_foreign_report_raises(self, name, probs):
        market, _ = self._market()
        foreign = ProbSpace(np.array(probs))
        with pytest.raises(SpaceMismatchError, match="report"):
            self.REPORT_CALLS[name](market, foreign.rv(np.linspace(-1.0, 2.0, foreign.n_states)))

    @pytest.mark.parametrize("name", list(BASKET_CALLS))
    def test_twin_space_basket_is_the_market_space(self, name):
        # a distinct ProbSpace of equal probabilities gives the same bits
        market, schedules = self._market()
        payoffs = [2.0, -1.0, 0.5]
        own = SecurityBasket((market.space.rv(payoffs),))
        twin = SecurityBasket((ProbSpace(np.array(self.PROBS)).rv(payoffs),))
        call = self.BASKET_CALLS[name]
        assert np.array_equal(call(market, twin, schedules), call(market, own, schedules))

    @pytest.mark.parametrize("name", list(REPORT_CALLS))
    def test_twin_space_report_is_the_market_space(self, name):
        market, _ = self._market()
        payoffs = [0.7, -0.2, 0.3]
        twin = ProbSpace(np.array(self.PROBS)).rv(payoffs)
        call = self.REPORT_CALLS[name]
        assert np.array_equal(call(market, twin), call(market, market.space.rv(payoffs)))

    def test_messages_name_the_index(self):
        space, foreign = ProbSpace(np.array(self.PROBS)), ProbSpace(np.array([0.5, 0.25, 0.25]))
        rows = [[1.0, -1.0, 0.5], [-0.5, 1.5, -1.0], [0.2, 0.1, -0.4]]
        agents = [Agent(g, on.rv(row))
                  for g, on, row in zip([1.0, 2.0, 1.5], [space, space, foreign], rows)]
        with pytest.raises(SpaceMismatchError, match="endowment of agent 2 "):
            Market(space, agents)
        with pytest.raises(SpaceMismatchError, match="security 1 "):
            SecurityBasket((space.rv(rows[0]), foreign.rv(rows[1])))


class TestReportProfileLength:
    """A report profile is one row per agent: a short or empty one, as `Rv`s
    or as an array, raises ValueError at every entry point that takes one."""

    SPACE = ProbSpace(np.array([0.3, 0.3, 0.4]))
    MARKET = Market.from_arrays(
        SPACE, [1.0, 2.0, 1.5], [[1.0, -1.0, 0.5], [-0.5, 1.5, -1.0], [0.2, 0.1, -0.4]])

    CALLS = {
        "reported_utility": lambda m, r: strategic.reported_utility(
            m, 0, m.space.rv(m.payoffs[0]), others=r),
        "best_endowment_response": lambda m, r: strategic.best_endowment_response(
            m, 0, others=r),
        "deviation_gain": lambda m, r: oracle.deviation_gain(m, 0, r),
        "best_response_dynamics": lambda m, r: oracle.best_response_dynamics(m, init=r),
    }
    PROFILES = {
        "two-rvs": lambda m: m.space.rvs(m.payoffs[:2]),
        "no-rvs": lambda m: [],
        "two-rows": lambda m: m.payoffs[:2],
        "no-rows": lambda m: m.payoffs[:0],
        "one-row": lambda m: m.payoffs[0],
    }

    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize("name", list(CALLS))
    def test_short_or_empty_profile_raises(self, name, profile):
        market = self.MARKET
        with pytest.raises(ValueError, match="not a full profile"):
            self.CALLS[name](market, self.PROFILES[profile](market))

    @pytest.mark.parametrize("name", ["reported_utility", "best_endowment_response",
                                      "best_response_dynamics"])
    def test_stack_of_profiles_raises(self, name):
        # the oracle's objectives take a stack of profiles; a single
        # deviator's `others` and the dynamics' `init` are one profile
        market = self.MARKET
        stack = np.stack([market.payoffs, market.payoffs])
        with pytest.raises(ValueError, match=r"\(2, 3, 3\) are not a full profile"):
            self.CALLS[name](market, stack)


class TestAgentIndex:
    """An agent index is an integer in [0, n) at every public entry point that
    takes one: -1 is no alias of agent n - 1."""

    MARKET = TestReportProfileLength.MARKET
    BASKET = SecurityBasket((MARKET.space.rv([1.0, 0.0, -1.0]),))
    SCHEDULES = strategic.truthful_schedules(MARKET, BASKET)[1:]

    CALLS = {
        "reported_utility": lambda m, b, s, i: strategic.reported_utility(
            m, i, m.space.rv(m.payoffs[0])),
        "best_endowment_response": lambda m, b, s, i: strategic.best_endowment_response(m, i),
        "best_percentage_response": lambda m, b, s, i: strategic.best_percentage_response(m, i),
        "best_price_response": lambda m, b, s, i: strategic.best_price_response(m, i, b, s),
        "best_demand_response": lambda m, b, s, i: strategic.best_demand_response(m, i, b),
        "endowment_response_report": lambda m, b, s, i: strategic.endowment_response_report(
            m, i),
        "percentage_response_report": lambda m, b, s, i: strategic.percentage_response_report(
            m, i),
        "demand_response_report": lambda m, b, s, i: strategic.demand_response_report(m, i, b),
        "deviation_gain": lambda m, b, s, i: oracle.deviation_gain(m, i, m.payoffs),
        "argmax_reported_utility": lambda m, b, s, i: oracle.argmax_reported_utility(
            m, i, oracle.CoefficientSearchSpec(tuple(m.endowments()))),
        "clearing_utility": lambda m, b, s, i: oracle.clearing_utility(
            m, i, b, s, np.zeros(b.k)),
        "argmax_phi": lambda m, b, s, i: oracle.argmax_phi(m, i, b, s),
    }

    @pytest.mark.parametrize("i", [pytest.param(-1, id="minus-one"), pytest.param(3, id="n"),
                                   pytest.param(1.0, id="float"), pytest.param(True, id="bool")])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_index_outside_range_raises(self, name, i):
        with pytest.raises(ValueError, match=rf"integer in \[0, 3\), got {i!r}$"):
            self.CALLS[name](self.MARKET, self.BASKET, self.SCHEDULES, i)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_numpy_integer_is_an_index(self, name):
        call = self.CALLS[name]
        args = (self.MARKET, self.BASKET, self.SCHEDULES)
        assert repr(call(*args, np.int64(0))) == repr(call(*args, 0))
