import ast
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.core import (
    Agent,
    DemandSchedule,
    Market,
    ProbSpace,
    SecurityBasket,
    SingularCovarianceError,
)
from riskshare import nash, pareto, strategic
from riskshare.experiments import AgentSequenceSpec, agent_pool, correlated_pair_market
from riskshare.nash import (
    ConvergenceError,
    nash_endowment,
    nash_percentage,
    nash_price,
    percentage_game_gains,
    table1_report,
)
from riskshare.pareto import (
    aggregate_gain,
    capm_equilibrium,
    endowment_prices,
    optimal_sharing,
    optimal_utility_levels,
)
from riskshare.strategic import (
    best_endowment_response,
    best_price_response,
    reported_utility,
)

from conftest import make_basket, make_market, nash_price_utilities
from exact import ExactMarket
from moments import cov, mv_utility, var
from test_exact import _markets as exact_markets


class TestNashEndowment:
    def test_symmetric_example(self, symmetric_market):
        out = nash_endowment(symmetric_market)
        assert np.allclose(out.reported[0].payoffs, [0.5, -0.5])
        assert np.allclose(out.contracts[0], [-0.5, 0.5])
        assert out.inefficiency == pytest.approx(0.5)
        assert out.per_agent_gain[0] == pytest.approx(0.75)

    def test_fixed_point(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m = make_market(rng)
            out = nash_endowment(m)
            for i in range(m.n):
                br = best_endowment_response(m, i, others=out.reported)
                assert var(m.space.rv(br.payoffs - out.reported[i].payoffs)) < 1e-14

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
            total = sum(c for c in out.contracts)
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
            total = m.payoffs.sum(axis=0)
            assert var(m.space.rv(out.aggregate - total)) < 1e-18
            for i, a in enumerate(m.agents):
                others = total - a.endowment.payoffs
                want = (1.0 / n**2) * others + (
                    (n * (n - 1) + 1) / n**2
                ) * a.endowment.payoffs
                assert var(m.space.rv(out.reported[i].payoffs - want)) < 1e-18
                assert var(
                    m.space.rv(out.contracts[i] - ((n - 1) / n) * sharing[i])
                ) < 1e-18

    def test_aggregate_coincides_iff_homogeneous(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            homogeneous = bool(rng.integers(2))
            m = make_market(rng, homogeneous=homogeneous)
            gap = var(m.space.rv(nash_endowment(m).aggregate - m.payoffs.sum(axis=0)))
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
            tuple(Agent(g, space.rv((1.0 / g) * base.payoffs)) for g in (0.6, 1.0, 1.7)),
        )
        assert nash_endowment(m).inefficiency == pytest.approx(0.0, abs=1e-12)

    def test_outcome_is_its_standalone_parts(self):
        # the outcome comes from one pass; each of its fields is bit for bit
        # what the standalone function gives, on markets shifted by cash too
        rng = np.random.default_rng(112)
        for t in range(200):
            m = make_market(rng, n=int(rng.integers(2, 8)), m=int(rng.integers(2, 9)))
            if t % 2:
                cash = rng.integers(-2**20, 2**20, size=m.n) * 2.0**20
                m = Market.from_arrays(m.space, m.gammas, m.payoffs + cash[:, None])
            out = nash_endowment(m)
            assert out.inefficiency == nash.nash_inefficiency(m)
            reported = nash._nash_reports(m, m.centered)[1]
            assert np.array_equal(out.per_agent_gain, pareto.mechanism_gains(m, reported))

    def test_gains_are_the_mechanism_gains(self):
        rng = np.random.default_rng(104)
        for _ in range(60):
            m = make_market(rng)
            reported = nash._nash_reports(m, m.centered)[1]
            assert (nash_endowment(m).per_agent_gain.tobytes()
                    == pareto.mechanism_gains(m, reported).tobytes())

    def test_one_rule_pass_on_the_reports(self, monkeypatch):
        # the contracts on the centered reports are also the gains'
        market = make_market(np.random.default_rng(104), n=4, m=6)
        reported = nash._nash_reports(market, market.centered)[1]
        passes = []
        sharing_rule = pareto.sharing_rule

        def recording(market):
            rule = sharing_rule(market)
            return lambda x: passes.append(np.array_equal(x, reported)) or rule(x)

        monkeypatch.setattr(pareto, "sharing_rule", recording)
        monkeypatch.setattr(nash, "sharing_rule", recording)
        nash_endowment(market)
        assert sum(passes) == 1


class TestTable1:
    def test_rejects_other_sizes(self):
        rng = np.random.default_rng(56)
        m = make_market(rng, n=3)
        with pytest.raises(ValueError):
            table1_report(m)

    def test_symmetric_rows(self, symmetric_market):
        rows = {r.row: r for r in table1_report(symmetric_market)}
        assert rows["gain_of_utility"].pareto_engine == pytest.approx(1.0)
        assert rows["gain_of_utility"].nash_engine == pytest.approx(0.75)
        assert rows["inefficiency"].nash_engine == pytest.approx(0.5)

    def test_engine_matches_closed_forms(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            m = make_market(rng, n=2)
            for r in table1_report(m):
                if np.ndim(r.nash_closed) == 1:  # payoff rows; the Nash report is an Rv
                    nash_engine, nash_closed, pareto_engine, pareto_closed = (
                        m.space.rv(getattr(cell, "payoffs", cell)) for cell in (
                            r.nash_engine, r.nash_closed, r.pareto_engine, r.pareto_closed))
                    # equal up to cash: Var[x - y] <= 1e-16 (Var[x] + Var[y])
                    for x, y in ((nash_engine, nash_closed), (pareto_engine, pareto_closed)):
                        assert var(m.space.rv(x.payoffs - y.payoffs)) <= 1e-16 * (var(x) + var(y))
                else:
                    assert r.nash_engine == pytest.approx(r.nash_closed, abs=1e-10)
                    assert r.pareto_engine == pytest.approx(
                        r.pareto_closed, abs=1e-10
                    )

    def test_equal_gammas_gain_ratio(self):
        rng = np.random.default_rng(58)
        m = make_market(rng, n=2, homogeneous=True)
        rows = {r.row: r for r in table1_report(m)}
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
            br = np.clip(strategic.percentage_responses(m)(out.b_star), 0.0, out.kappa)
            assert np.max(np.abs(out.b_star - br)) < 1e-10

    def test_non_convergence_reported(self):
        # agent 0 starts clamped at zero and is free after the first solve
        m = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        with pytest.raises(ConvergenceError):
            nash_percentage(m, max_iter=1)

    @staticmethod
    def _large_b_market():
        # agent 0's endowment is 2^-45 times the scale of agent 1's, so b*_0
        # is about 9.3e12, where one ulp of b (2^-9) exceeds 1e-10
        space = ProbSpace(np.array([0.25, 0.25, 0.5]))
        return Market(space, (Agent(1.0, space.rv(np.array([1.0, -1.0, 0.5]) * 2.0**-45)),
                              Agent(1.0, space.rv([1.0, -1.0, 0.75]))))

    def test_relative_acceptance_at_large_b(self):
        m = self._large_b_market()
        out = nash_percentage(m, kappa=1e15)
        assert 9e12 < out.b_star[0] < 1e13
        assert out.iterations == 1
        br = np.clip(strategic.percentage_responses(m)(out.b_star), 0.0, out.kappa)
        assert np.max(np.abs(out.b_star - br)) == out.residual
        assert out.residual <= 1e-10 * (1.0 + np.max(np.abs(out.b_star)))

    def test_non_convergence_names_its_cause(self, monkeypatch):
        with pytest.raises(ConvergenceError, match="max_iter") as cap:
            nash_percentage(correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8), max_iter=1)
        assert not cap.value.stable
        # a stable active set whose residual is too large is not a max_iter
        # failure; a negative tolerance rejects any residual, even 0
        monkeypatch.setattr(nash, "RESIDUAL_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="active set is stable") as cap:
            nash_percentage(self._large_b_market(), kappa=1e15)
        assert cap.value.stable
        assert "max_iter" not in str(cap.value)

    def test_parameter_validation(self):
        m = correlated_pair_market(1.0, 1.0, 1.0, 1.0, 0.0)
        for kappa in (0.0, float("nan"), float("inf"), True, "1", 10**400, Fraction(1, 10**400)):
            with pytest.raises(ValueError, match="kappa must be finite and positive"):
                nash_percentage(m, kappa=kappa)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, True, None, np.float64(3.0), "3"])
    def test_max_iter_must_be_a_count(self, max_iter):
        m = correlated_pair_market(1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            nash_percentage(m, max_iter=max_iter)

    @pytest.mark.parametrize("kappa", [10, np.int64(10), np.float32(10.0), Fraction(10)])
    def test_kappa_of_any_real_type(self, kappa):
        # every real number the rule admits is the float bound it equals
        m = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        got, want = nash_percentage(m, kappa=kappa), nash_percentage(m, kappa=10.0)
        assert got.b_star.tobytes() == want.b_star.tobytes()
        assert type(got.kappa) is float and got.kappa == 10.0

    def test_max_iter_of_numpy_integer(self):
        m = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        got = nash_percentage(m, max_iter=np.int64(10))
        want = nash_percentage(m, max_iter=10)
        assert got.b_star.tobytes() == want.b_star.tobytes()
        assert got.iterations == want.iterations

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

    @pytest.mark.parametrize("states", [6, 50])
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_large_markets_match_dense_residual(self, n, states):
        # the clamped best responses of test_growing_market_prefixes, in plain
        # numpy with the dense n x n covariance matrix, at sizes beyond it
        spec = AgentSequenceSpec(sizes=(n,), n_states=states, seed=1)
        space, agents = agent_pool(spec, homogeneous=False)
        out = nash_percentage(Market(space, tuple(agents)))
        p = space.probs
        gammas = np.array([a.gamma for a in agents])
        endow = np.array([a.endowment.payoffs for a in agents])
        endow = endow - (endow @ p)[:, None]
        covariance = (endow * p) @ endow.T
        var_i = np.diag(covariance)
        g = 1.0 / np.sum(1.0 / gammas)
        others = covariance @ out.b_star - var_i * out.b_star
        raw = gammas / (gammas + g) + g**2 / (gammas**2 - g**2) * others / var_i
        residual = np.max(np.abs(out.b_star - np.clip(raw, 0.0, out.kappa)))
        assert residual <= 1e-12
        assert out.residual == pytest.approx(residual, abs=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_dominant_risk_tolerance(self, seed):
        # gamma_0 = 1e-7 makes s_0 = gamma/gamma_0 within 1e-7 of 1, so
        # other_0 = s_0^2/(1 - s_0^2) is near 5e6 and b*_0 near kappa: the
        # response of agent 0 must not take b_0 E_0 back out of the total,
        # and the m x m matrix has an eigenvalue near 1 - s_0^2
        rng = np.random.default_rng(seed)
        space = ProbSpace(rng.dirichlet(np.ones(5) * 5.0))
        gammas = np.array([1e-7, *rng.uniform(0.5, 2.0, 2)])
        payoffs = rng.normal(size=(3, 5)) * np.exp(rng.uniform(-4.0, 4.0, 3))[:, None]
        market = Market.from_arrays(space, gammas, payoffs)
        out = nash_percentage(market, kappa=1e6)
        # the exact equilibrium on the solve's active set, whose clamped
        # responses are itself: a float reference would itself take
        # 1 - s_0^2 by subtraction and lose the digits under test
        exact = ExactMarket(market)
        want = exact.percentage_on_active_set(out.b_star, out.kappa)
        assert [min(max(r, 0), out.kappa) for r in exact.percentage_responses(want)] == want
        error = max(abs(Fraction(float(b)) - w) for b, w in zip(out.b_star, want))
        assert error <= 1e-14 * (1.0 + np.max(out.b_star)), float(error)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(3, 8),
        st.integers(0, 40),
        st.integers(-10, 20),
    )
    @settings(max_examples=100)
    def test_invariant_to_cash_shift_and_scale(self, seed, n, states, j, k):
        # dyadic payoffs (k/1024): a shift by 2^j and a scaling by 2^k are
        # exact, so any gap is the algorithm's
        rng = np.random.default_rng(seed)
        space = ProbSpace(rng.dirichlet(np.ones(states) * 5.0))
        gammas = rng.integers(1, 17, size=n) / 8.0
        payoffs = rng.integers(-2048, 2049, size=(n, states)) / 1024.0
        shifted = payoffs.copy()
        shifted[0] += 2.0**j

        def solve(rows):
            agents = tuple(Agent(g, space.rv(e)) for g, e in zip(gammas, rows))
            return nash_percentage(Market(space, agents)).b_star

        want = solve(payoffs)
        for variant in (shifted, 2.0**k * payoffs):
            got = solve(variant)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_gains_relative_to_no_trade(self):
        m = correlated_pair_market(1.0, 1.0, 1.0, 4.0, -0.3)
        out = nash_percentage(m)
        gains = percentage_game_gains(m, out)
        assert np.all(gains >= -1e-10)


def _response_loop(market, kappa):
    """`nash_percentage` with a freshly formed `percentage_responses(market)`
    at every step and the free agents' rows taken at every solve:
    (b_star, iterations, residual, refinement steps after the first)."""
    def respond(b):
        return strategic.percentage_responses(market)(b)

    share = market.shares
    rows = market.centered * np.sqrt(market.space.probs)
    scaled = (share**2 / strategic.endowment_variances(market))[:, None] * rows

    def solve(b, responses):
        gap = (market.complements * (1.0 + share) * (responses - b))[free]
        b[free] += gap + scaled[free] @ np.linalg.solve(inner, rows[free].T @ gap)

    def residual_of(b):
        return (float(np.max(np.abs(b - np.clip(respond(b), 0.0, kappa)))),
                nash.RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b)))))

    b, split, iterations, stable = np.ones(market.n), None, 0, False
    while not stable:
        new_split = np.digitize(respond(b), (0.0, kappa), right=True)
        stable = np.array_equal(new_split, split)
        if not stable:
            split, iterations, free = new_split, iterations + 1, new_split == 1
            b = np.where(split == 2, kappa, 0.0)
            inner = np.eye(rows.shape[1]) - rows[free].T @ scaled[free]
        solve(b, respond(b))
    (residual, tolerance), refinements = residual_of(b), 0
    while not residual <= tolerance:
        refined = b.copy()
        solve(refined, respond(refined))
        check = residual_of(refined)
        if not check[0] < residual:
            break
        b, (residual, tolerance), refinements = refined, check, refinements + 1
    return b, iterations, residual, refinements


def _clamped_markets():
    """(market, kappa) at the growing-market benchmark's sizes, n 5-100 and
    m 6 and 50: the pool's first endowment scaled up, so that the agents
    against it respond below 0 and those with it far above 1, and kappa a
    quantile of the solve at kappa = 1e9, so that some sit at kappa."""
    rng = np.random.default_rng(48)
    for m in (6, 50):
        space, agents = agent_pool(AgentSequenceSpec(sizes=(100,), n_states=m, seed=48), False)
        for n in (5, 10, 20, 50, 100):
            for _ in range(3):
                payoffs = np.array([a.endowment.payoffs for a in agents[:n]])
                payoffs[0] *= n * 10.0 ** rng.uniform(1.0, 3.0)
                market = Market.from_arrays(space, [a.gamma for a in agents[:n]], payoffs)
                loose = nash_percentage(market, kappa=1e9).b_star
                yield market, 1e9
                yield market, float(np.quantile(loose[loose > 0], rng.uniform(0.5, 0.9)))


class TestPercentageSolveIsTheResponseLoop:
    """The solve forms the response map once, and the free agents' rows once
    per split; a loop that forms both at every step gives the same bits."""

    @staticmethod
    def _same_bits(market, kappa):
        out = nash_percentage(market, kappa=kappa)
        b, iterations, residual, refinements = _response_loop(market, kappa)
        assert out.b_star.tobytes() == b.tobytes()
        assert out.iterations == iterations
        assert float(out.residual).hex() == residual.hex()
        return out, refinements

    def test_random_markets(self):
        rng = np.random.default_rng(104)
        for _ in range(60):
            self._same_bits(make_market(rng), 10.0)

    def test_clamped_markets_at_benchmark_sizes(self):
        at_zero = at_kappa = resolved = 0
        for market, kappa in _clamped_markets():
            out, _ = self._same_bits(market, kappa)
            at_zero += np.any(out.b_star == 0.0)
            at_kappa += np.any(out.b_star == kappa)
            resolved += out.iterations >= 2
        assert min(at_zero, at_kappa, resolved) >= 10, (at_zero, at_kappa, resolved)

    def test_disparate_markets_at_large_kappa(self):
        # kappa = 1e12 frees the disparate agent, whose b reaches ~1e11; 7 of
        # the 40 solves refine more than once
        refined = sum(self._same_bits(market, 1e12)[1] > 0
                      for market, _, _ in exact_markets("disparate"))
        assert refined == 7

    def test_one_response_map_per_solve(self, monkeypatch):
        formed = []
        coefficients = strategic._response_coefficients
        monkeypatch.setattr(strategic, "_response_coefficients",
                            lambda market: formed.append(market) or coefficients(market))
        market = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        assert nash_percentage(market).iterations == 2
        assert len(formed) == 1


def _schedule(m, out, i):
    """Agent i's equilibrium schedule: their gamma and row i of `schedules`."""
    return DemandSchedule(m.gammas[i], out.schedules[i])


class TestNashPrice:
    def test_demands_clear(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            out = nash_price(m, basket)
            total = sum(_schedule(m, out, i).quantities(basket, out.price) for i in range(m.n))
            assert np.allclose(total, 0.0, atol=1e-9)

    def test_one_clearing_rule(self):
        # the price and the allocation are pareto's basket clearing step on
        # the Nash schedules, the rule that clears truthful ones (test_exact holds
        # both to the exact values): nash states no price formula and no
        # Var^-1[C] product of its own
        tree = ast.parse(inspect.getsource(nash))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "pricing" not in names and "cov_inverse" not in attributes

    def test_schedules_view_one_read_only_matrix(self):
        rng = np.random.default_rng(64)
        m = make_market(rng, n=4, m=5)
        basket = make_basket(rng, m.space, k=2)
        out = nash_price(m, basket)
        rows = out.schedules
        assert rows.shape == (4, 2) and rows.dtype == float and not rows.flags.writeable
        # the reports' covariances Cov(C, B*_i), as computed, not a copy per agent
        np.testing.assert_array_equal(rows, nash._nash_reports(m, m.exposures(basket))[1])
        for i in range(m.n):
            s = _schedule(m, out, i)
            assert s.gamma == m.gammas[i]
            np.testing.assert_array_equal(s.c, rows[i])

    def test_allocation_is_cleared_demand(self):
        rng = np.random.default_rng(61)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)
        out = nash_price(m, basket)
        for i in range(m.n):
            assert np.allclose(
                out.allocation[i],
                _schedule(m, out, i).quantities(basket, out.price),
                atol=1e-9,
            )

    def test_price_fixed_point(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            out = nash_price(m, basket)
            for i in range(m.n):
                others = [_schedule(m, out, j) for j in range(m.n) if j != i]
                br = best_price_response(m, i, basket, others)
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
        diff = m.space.rv(g1 * e1.payoffs - g2 * e2.payoffs)
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
    """The price game's utilities, the oracle's clearing values at the Nash
    allocation, against the CAPM levels of the same basket."""

    def test_aggregate_decrease_identity(self):
        # the price terms net out across a cleared market, so the aggregate
        # decrease is sum_i gamma_i (Zhat_i - Z_i) . (Var[C] (Zhat_i + Z_i)
        # + 2 Cov(E_i, C)), Zhat the Nash and Z the CAPM allocation
        rng = np.random.default_rng(66)
        for _ in range(10):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=2)
            capm = capm_equilibrium(m, basket)
            decrease = float(np.sum(capm.utility_levels - nash_price_utilities(m, basket)))
            zh, z = nash_price(m, basket).allocation, capm.allocation
            closed = m.gammas @ np.sum(
                (zh - z) * ((zh + z) @ basket.cov_matrix + 2.0 * m.exposures(basket)), axis=1)
            assert decrease == pytest.approx(closed, abs=1e-9)

    def test_homogeneous_gain_factor(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 5):
            m = make_market(rng, n=n, m=5, homogeneous=True)
            basket = make_basket(rng, m.space, k=2)
            base = np.array([mv_utility(a.gamma, a.endowment) for a in m.agents])
            nash_gain = nash_price_utilities(m, basket) - base
            assert np.allclose(
                nash_gain, ((n**2 - 1) / n**2) * capm_equilibrium(m, basket).gains, atol=1e-10
            )

    def test_two_agent_unit_variance_closed_form(self):
        # with one security of unit variance, agent 1's Nash utility minus its
        # CAPM level is (gamma_2/2 - 3 gamma_1/4) Cov(C, C*_1)^2
        rng = np.random.default_rng(68)
        for _ in range(10):
            m = make_market(rng, n=2, m=5)
            c = m.space.rv(rng.normal(size=5))
            c = m.space.rv((1.0 / np.sqrt(var(c))) * c.payoffs)
            basket = SecurityBasket((c,))
            g1, g2 = m.gammas
            t = cov(c, m.space.rv(optimal_sharing(m)[0]))
            difference = (nash_price_utilities(m, basket)[0]
                          - capm_equilibrium(m, basket).utility_levels[0])
            assert (g2 / 2.0 - 0.75 * g1) * t**2 == pytest.approx(difference, abs=1e-10)


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
            "contracts": centered(market.space.rvs(sharing)),
            "aggregate_gain": aggregate_gain(market),
            "endowment_prices": endowment_prices(market) - cash,
            "utility_levels": optimal_utility_levels(market) - cash,
            "capm_prices": capm.prices,
            "capm_allocation": capm.allocation,
            "capm_utility_levels": capm.utility_levels - cash,
            "capm_gains": capm.gains,
            "reported": centered(nash.reported),
            "aggregate": centered([market.space.rv(nash.aggregate)]),
            "nash_contracts": centered(market.space.rvs(nash.contracts)),
            "inefficiency": nash.inefficiency,
            "nash_gain": nash.per_agent_gain,
            "b_star": percentage.b_star,
            "percentage_gain": percentage_game_gains(market, percentage),
            "price": price.price,
            "schedules": price.schedules,
            "price_allocation": price.allocation,
            "pressure": price.pressure,
        }

    def test_readme_market_shifted_by_1e8(self):
        space = ProbSpace([0.3, 0.3, 0.4])
        e1, e2 = space.rv([1.0, -1.0, 0.5]), space.rv([-0.5, 1.5, -1.0])
        basket = SecurityBasket((space.rv([1.0, 0.0, -1.0]),))
        base = Market(space, (Agent(1.0, e1), Agent(2.0, e2)))
        shifted = Market(space, (Agent(1.0, space.rv(e1.payoffs + self.SHIFT)), Agent(2.0, e2)))
        want = self._outputs(base, basket, np.zeros(2))
        got = self._outputs(shifted, basket, np.array([self.SHIFT, 0.0]))
        for key in want:
            assert np.all(
                np.abs(got[key] - want[key]) <= 1e-6 * (1.0 + np.abs(want[key]))
            ), key


def _other_schedules(market, basket):
    schedules = strategic.truthful_schedules(market, basket)
    return schedules[:17] + schedules[18:]


def _singular_endowment_prices(m, c):
    with pytest.raises(SingularCovarianceError):  # n >= m: singular by rank
        pareto.endowment_prices(m)


# Every public engine of pareto, strategic and nash, called on one market and
# one basket; agent 17 deviates where an agent is named. Left out are
# table1_report, for two agents only, and sharing_weights, the n x n weights
# that the pareto report prints.
ENGINES = {
    "endowment_prices": _singular_endowment_prices,
    "sharing_rule": lambda m, c: pareto.sharing_rule(m)(m.centered),
    "mechanism_gains": lambda m, c: pareto.mechanism_gains(m, m.centered),
    "pooling_gain": lambda m, c: pareto.pooling_gain(m, m.centered),
    "optimal_sharing": lambda m, c: pareto.optimal_sharing(m),
    "aggregate_gain": lambda m, c: pareto.aggregate_gain(m),
    "capm_equilibrium": lambda m, c: pareto.capm_equilibrium(m, c),
    "optimal_utility_levels": lambda m, c: pareto.optimal_utility_levels(m),
    "constrained_loss": lambda m, c: pareto.constrained_loss(m, c),
    "endowment_variances": lambda m, c: strategic.endowment_variances(m),
    "truthful_schedules": lambda m, c: strategic.truthful_schedules(m, c),
    "reported_utility": lambda m, c: strategic.reported_utility(
        m, 17, m.space.rv(m.payoffs[17])),
    "best_endowment_response": lambda m, c: strategic.best_endowment_response(m, 17),
    "best_percentage_response": lambda m, c: strategic.best_percentage_response(m, 17),
    "percentage_responses": lambda m, c: strategic.percentage_responses(m)(np.ones(m.n)),
    "best_price_response": lambda m, c: strategic.best_price_response(
        m, 17, c, _other_schedules(m, c)),
    "best_demand_response": lambda m, c: strategic.best_demand_response(m, 17, c),
    "endowment_response_report": lambda m, c: strategic.endowment_response_report(m, 17),
    "percentage_response_report": lambda m, c: strategic.percentage_response_report(m, 17),
    "demand_response_report": lambda m, c: strategic.demand_response_report(m, 17, c),
    "nash_endowment": lambda m, c: nash.nash_endowment(m),
    "nash_inefficiency": lambda m, c: nash.nash_inefficiency(m),
    "nash_percentage": lambda m, c: nash.nash_percentage(m),
    "percentage_game_gains": lambda m, c: nash.percentage_game_gains(
        m, nash.nash_percentage(m)),
    "nash_price": lambda m, c: nash.nash_price(m, c),
}
N_BY_N = {"table1_report", "sharing_weights"}


class TestNoNByN:
    def test_every_public_engine_listed(self):
        public = {
            name for module in (pareto, strategic, nash)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")
        }
        assert public == set(ENGINES) | N_BY_N

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_n_by_n_intermediate(self, engine):
        # an n x n float matrix is 128 MB at n = 4000; the engines work on the
        # n x m centered rows and per-agent vectors, never build Var[E], and
        # never build the per-agent objects of a market built from arrays
        rng = np.random.default_rng(25)
        drawn = make_market(rng, n=4000, m=6)
        m = Market.from_arrays(drawn.space, drawn.gammas, drawn.payoffs)
        basket = make_basket(rng, m.space, k=2)
        tracemalloc.start()
        try:
            ENGINES[engine](m, basket)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        assert "gram" not in vars(m)
        assert "agents" not in vars(m)
