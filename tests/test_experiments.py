import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from riskshare import nash, pareto
from riskshare.core import Agent, Market, ProbSpace, Rv, SecurityBasket
from riskshare.experiments import (
    ENDOWMENT_NORM,
    GAMMA_RANGE,
    AgentSequenceSpec,
    _draw_pool,
    agent_pool,
    correlated_pair_market,
    figure_data,
    inefficiency_decay,
    price_allocation_convergence,
)
from riskshare.nash import (
    nash_endowment,
    nash_inefficiency,
    nash_percentage,
    nash_price,
    percentage_game_gains,
)
from riskshare.pareto import capm_equilibrium, mechanism_gains

from moments import column, cov, homogeneous_inefficiency_closed_form, mean, var


class TestAgentSequenceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentSequenceSpec(sizes=(1, 2))

    @pytest.mark.parametrize("field, value", [
        ("n_states", 1), ("n_states", 0), ("n_states", 2.5), ("n_states", True),
        ("sizes", ()), ("sizes", (2, 5.5)), ("sizes", (2, True)), ("sizes", [2, 5]),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None), ("seed", "3"),
        ("n_states", np.float64(6.0)), ("sizes", (np.int64(1),)),
    ])
    def test_invalid_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            AgentSequenceSpec(**{field: value})

    @pytest.mark.parametrize("field, value, plain", [
        ("n_states", np.int64(6), 6), ("sizes", (np.int64(10), np.int32(2)), (2, 10)),
        ("seed", np.int64(3), 3),
    ])
    def test_numpy_integer_fields(self, field, value, plain):
        # the count rule of `rounds` and `max_iter`; held as ints, so the
        # tables are the same
        spec = AgentSequenceSpec(**{field: value})
        assert getattr(spec, field) == plain
        assert repr(spec) == repr(AgentSequenceSpec(**{field: plain}))
        assert (inefficiency_decay(spec).to_csv()
                == inefficiency_decay(AgentSequenceSpec(**{field: plain})).to_csv())

    def test_script_rejects_negative_seed(self, tmp_path):
        # argparse's usage and one error line, exit 2; no traceback, no output
        root = pathlib.Path(__file__).parents[1]
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_experiments.py"),
             str(tmp_path / "out"), "--seed", "-1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 2, done.stderr
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, done.stderr
        assert errors[0].endswith("error: seed must be an integer of at least 0")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_pool_respects_bounds(self):
        spec = AgentSequenceSpec(sizes=(2, 5, 10), seed=5)
        space, agents = agent_pool(spec, homogeneous=False)
        for a in agents:
            norm = np.sqrt(space.probs @ a.endowment.payoffs**2)
            assert norm <= ENDOWMENT_NORM * (1.0 + 1e-12)
            assert GAMMA_RANGE[0] <= a.gamma <= GAMMA_RANGE[1]

    @pytest.mark.parametrize("homogeneous", [False, True])
    # m spans the blocking of the row-wise dot kernel; one pool has 1000 agents
    @pytest.mark.parametrize(
        "m, count",
        [pytest.param(m, 30, id=str(m)) for m in (3, 6, 50, 2, 7, 16, 17, 33, 64, 65, 257)]
        + [pytest.param(6, 1000, id="6-1000")],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_pool_matches_per_agent_draws(self, seed, m, count, homogeneous):
        # agent k as defined one agent at a time: row k of the seed's normal
        # draws, rescaled to norm ENDOWMENT_NORM, and (heterogeneous) entry k
        # of the child stream's uniform draws
        spec = AgentSequenceSpec(sizes=(2, count), n_states=m, seed=seed)
        space, agents = agent_pool(spec, homogeneous)
        rows = np.random.default_rng(seed).normal(size=(count, m))
        child = np.random.SeedSequence(seed).spawn(1)[0]
        us = np.random.default_rng(child).uniform(*GAMMA_RANGE, size=count)
        for agent, x, u in zip(agents, rows, us, strict=True):
            e = Rv(space, (ENDOWMENT_NORM / float(np.sqrt(space.probs @ x**2))) * x)
            gamma = (float(np.sqrt(GAMMA_RANGE[0] * GAMMA_RANGE[1])) if homogeneous
                     else float(u))
            expected = Agent(gamma, e)
            assert agent.gamma == expected.gamma
            assert agent.endowment.payoffs.tobytes() == expected.endowment.payoffs.tobytes()

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("count", [3, 100, 1000])
    def test_pool_is_prefix_of_larger_pool(self, count, homogeneous):
        # each stream is read in order, so the first count agents of a pool
        # twice as large are the same bits
        _, small, small_payoffs = _draw_pool(AgentSequenceSpec(sizes=(2, count)), homogeneous)
        _, large, large_payoffs = _draw_pool(
            AgentSequenceSpec(sizes=(2, 2 * count)), homogeneous)
        assert small.tobytes() == large[:count].tobytes()
        assert small_payoffs.tobytes() == large_payoffs[:count].tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_pool_kinds_share_payoffs(self, seed):
        # the two pool kinds differ only in their risk aversions
        spec = AgentSequenceSpec(sizes=(2, 500), seed=seed)
        _, mixed, payoffs = _draw_pool(spec, homogeneous=False)
        _, equal, same_payoffs = _draw_pool(spec, homogeneous=True)
        assert payoffs.tobytes() == same_payoffs.tobytes()
        assert np.ptp(mixed) > 0.0 and np.ptp(equal) == 0.0

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_pool_draw_makes_constant_generator_calls(self, monkeypatch, homogeneous):
        # each stream is one call, whatever the pool's size: 1 for a
        # homogeneous pool, 2 for a heterogeneous one, not 2 per agent
        calls = []
        default_rng = np.random.default_rng

        class Recorder:
            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                method = getattr(self._generator, name)

                def record(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return record

        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args, **kwargs: Recorder(default_rng(*args, **kwargs)))
        _draw_pool(AgentSequenceSpec(sizes=(2, 10**4)), homogeneous)
        assert 1 <= len(calls) <= 2, calls[:10]

    def test_deterministic_under_seed(self):
        spec = AgentSequenceSpec(sizes=(2, 5), seed=9)
        t1 = inefficiency_decay(spec)
        t2 = inefficiency_decay(spec)
        assert t1.rows == t2.rows


class TestInefficiencyDecay:
    def test_homogeneous_matches_closed_form(self):
        spec = AgentSequenceSpec(sizes=(2, 5, 10, 20), seed=1)
        space, agents = agent_pool(spec, homogeneous=True)
        table = inefficiency_decay(spec, homogeneous=True)
        for (n, value) in table.rows:
            market = Market(space, tuple(agents[:n]))
            assert value == pytest.approx(
                homogeneous_inefficiency_closed_form(market), abs=1e-12
            )

    @pytest.mark.parametrize("g", [0.25, 3.0])
    def test_closed_form_scales_with_the_risk_aversion(self, g):
        # the inefficiency is proportional to the common risk aversion g; the
        # homogeneous pool's g is 1, where a missing factor does not show
        rng = np.random.default_rng(40)
        market = Market.from_arrays(ProbSpace(np.full(6, 1.0 / 6)), np.full(20, g),
                                    rng.normal(size=(20, 6)))
        assert homogeneous_inefficiency_closed_form(market) == pytest.approx(
            nash_inefficiency(market), rel=1e-12)

    def test_closed_form_needs_equal_risk_aversions(self):
        market = Market.from_arrays(ProbSpace(np.full(3, 1.0 / 3)), [1.0, 2.0],
                                    [[1.0, 0.0, -1.0], [0.5, -1.0, 0.5]])
        with pytest.raises(ValueError, match="equal risk aversions"):
            homogeneous_inefficiency_closed_form(market)

    def test_decreasing_trend(self):
        spec = AgentSequenceSpec(sizes=(2, 5, 10, 20, 50), seed=2)
        values = column(inefficiency_decay(spec), "inefficiency")
        assert np.all(np.diff(values) < 0.0)

    def test_csv_contains_verdict(self):
        spec = AgentSequenceSpec(sizes=(2, 5), seed=3)
        text = inefficiency_decay(spec).to_csv()
        assert "verdict" in text
        assert "n,inefficiency" in text


class TestPriceAllocationConvergence:
    def test_homogeneous_price_gap_zero(self):
        spec = AgentSequenceSpec(sizes=(2, 5, 10), seed=4)
        table = price_allocation_convergence(spec, homogeneous=True)
        assert np.allclose(column(table, "price_gap"), 0.0, atol=1e-12)

    def test_heterogeneous_gap_shrinks(self):
        spec = AgentSequenceSpec(sizes=(2, 10, 50), seed=5)
        gaps = column(price_allocation_convergence(spec), "price_gap")
        assert gaps[-1] < gaps[0]


class TestGrowingMarketsOnArrays:
    """The tables run on arrays; each row equals the one built from agents."""

    SIZES = (2, 5, 10, 20, 50, 100, 200, 500, 1000)

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("m", [6, 50])
    def test_rows_match_markets_of_agents(self, m, homogeneous):
        seed = 3
        spec = AgentSequenceSpec(sizes=self.SIZES, n_states=m, seed=seed)
        decay = inefficiency_decay(spec, homogeneous)
        convergence = price_allocation_convergence(spec, homogeneous=homogeneous)
        space, agents = agent_pool(spec, homogeneous)
        basket = SecurityBasket(
            (Rv(space, np.random.default_rng(seed + 1).normal(size=m)),))
        for n, decay_row, convergence_row in zip(self.SIZES, decay.rows, convergence.rows):
            market = Market(space, tuple(agents[:n]))
            capm, nash = capm_equilibrium(market, basket), nash_price(market, basket)
            want = (
                (n, nash_endowment(market).inefficiency),
                (n, float(np.linalg.norm(capm.prices - nash.price)),
                 float(np.linalg.norm(capm.allocation - nash.allocation, axis=1).max())),
            )
            for got, expected in zip((decay_row, convergence_row), want):
                assert got[0] == n
                assert [float(x).hex() for x in got[1:]] == \
                    [float(x).hex() for x in expected[1:]], n

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_decay_builds_no_per_agent_object(self, monkeypatch, homogeneous):
        built = []

        def counting(init):
            def wrapped(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return wrapped

        trusted = Rv._trusted.__func__
        monkeypatch.setattr(Agent, "__init__", counting(Agent.__init__))
        monkeypatch.setattr(Rv, "__init__", counting(Rv.__init__))
        monkeypatch.setattr(Rv, "_trusted", classmethod(
            lambda cls, *args: built.append("Rv._trusted") or trusted(cls, *args)))
        spec = AgentSequenceSpec(sizes=(10, 2000), seed=1)
        table = inefficiency_decay(spec, homogeneous)
        assert [row[0] for row in table.rows] == [10, 2000]
        # the homogeneous closed form reads the market's arrays only
        payoffs = np.random.default_rng(2).normal(size=(2000, 6))
        market = Market.from_arrays(ProbSpace(np.full(6, 1.0 / 6)), np.ones(2000), payoffs)
        homogeneous_inefficiency_closed_form(market)
        assert built == []
        agent_pool(AgentSequenceSpec(sizes=(3,)), homogeneous)  # the patches count
        assert len(built) == 6


class TestTablesFormWhatTheyRead:
    """The growing-market tables read a price, an allocation and the Nash
    inefficiency: they form no utility level, and no report cash."""

    def test_no_utility_level(self, monkeypatch):
        def refuse(market):
            raise AssertionError("a table formed utility levels")

        monkeypatch.setattr(pareto, "autarky_utilities", refuse)
        spec = AgentSequenceSpec(sizes=(2, 5, 10), seed=3)
        for table in (price_allocation_convergence(spec), inefficiency_decay(spec)):
            assert [row[0] for row in table.rows] == [2, 5, 10]

    def test_one_report_map_per_inefficiency(self, monkeypatch):
        # the centered reports only: the cash half of the endowment game is
        # a second map of the means, which no variance reads
        calls = []
        reports = nash._nash_reports
        monkeypatch.setattr(nash, "_nash_reports",
                            lambda market, x: calls.append(x.shape) or reports(market, x))
        _, agents = agent_pool(AgentSequenceSpec(sizes=(2, 20), seed=3), False)
        for n in (2, 5, 20):
            market = Market(agents[0].endowment.space, agents[:n])
            calls.clear()
            nash_inefficiency(market)
            assert calls == [(n, 6)]
        calls.clear()
        inefficiency_decay(AgentSequenceSpec(sizes=(2, 5, 20), seed=3))
        assert calls == [(2, 6), (5, 6), (20, 6)]


class TestCorrelatedPairMarket:
    def test_realizes_targets(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            v1 = float(rng.uniform(0.2, 5.0))
            v2 = float(rng.uniform(0.2, 5.0))
            rho = float(rng.uniform(-1.0, 1.0))
            m = correlated_pair_market(1.0, 1.0, v1, v2, rho)
            e1, e2 = m.endowments()
            assert mean(e1) == pytest.approx(0.0, abs=1e-12)
            assert mean(e2) == pytest.approx(0.0, abs=1e-12)
            assert var(e1) == pytest.approx(v1, abs=1e-12)
            assert var(e2) == pytest.approx(v2, abs=1e-12)
            assert cov(e1, e2) == pytest.approx(
                rho * np.sqrt(v1 * v2), abs=1e-12
            )
        # a target of another real type is the float it equals
        want = correlated_pair_market(1.0, 1.0, 1.0, 1.0, 0.5).payoffs
        got = correlated_pair_market(1.0, 1.0, Fraction(1), Fraction(1), 0.5).payoffs
        assert got.tobytes() == want.tobytes()
        # a float32 correlation too: 1 - rho^2 is not computed in float32
        rho = np.float32(1 / 3)
        want = correlated_pair_market(1.0, 1.0, 1.0, 1.0, float(rho)).payoffs
        got = correlated_pair_market(1.0, 1.0, 1.0, 1.0, rho).payoffs
        assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_pair_market(1.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            correlated_pair_market(1.0, 1.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("var1, var2", [
        (float("inf"), 1.0), (1.0, float("inf")), (float("nan"), 1.0), (1.0, float("nan")),
        (-1.0, 1.0), pytest.param(10**400, 1.0, id="int-beyond-float-1.0"),
        pytest.param(1.0, 10**400, id="1.0-int-beyond-float"),
    ])
    def test_variance_targets_finite_and_positive(self, var1, var2):
        with pytest.raises(ValueError, match="target variances must be finite and positive"):
            correlated_pair_market(1.0, 1.0, var1, var2, 0.5)


class TestFigureData:
    def test_invalid_id(self):
        with pytest.raises(ValueError):
            figure_data(5)

    def test_percentage_figure_shape(self):
        table = figure_data(1)
        assert table.columns == ("rho", "b1", "b2")
        assert len(table.rows) == 21

    @pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
    def test_rows_match_per_point_reconstruction(self, figure_id):
        # each grid point rebuilt on its own, float for float: equal risk
        # aversions and the percentages (figures 1, 2), or agent 1's
        # percentage-game and unconstrained gains over a gamma1 grid (3, 4)
        ratio = 10.0 if figure_id in (1, 3) else 0.1
        rows = []
        for rho in np.linspace(-1.0, 1.0, 21):
            if figure_id in (1, 2):
                market = correlated_pair_market(1.0, 1.0, 1.0, ratio, float(rho))
                b = nash_percentage(market).b_star
                rows.append((float(rho), float(b[0]), float(b[1])))
                continue
            for g1 in np.linspace(0.2, 3.0, 15):
                market = correlated_pair_market(float(g1), 1.0, 1.0, ratio, float(rho))
                nash_gain = float(percentage_game_gains(market, nash_percentage(market))[0])
                pareto_gain = float(mechanism_gains(market, market.centered)[0])
                rows.append((float(rho), float(g1), nash_gain, pareto_gain,
                             nash_gain - pareto_gain))
        table = figure_data(figure_id)
        assert table.metadata == {"variance_ratio": ratio}
        assert [[float(x).hex() for x in row] for row in table.rows] == \
            [[x.hex() for x in row] for row in rows]

    def test_gain_figure_shape(self):
        table = figure_data(3)
        assert table.columns == ("rho", "gamma1", "nash_gain", "pareto_gain",
                                 "difference")
        assert len(table.rows) == 315

    def test_equal_variance_full_correlation_is_trivial_case(self):
        # only here does the aggregate reported endowment equal the true one
        m = correlated_pair_market(1.0, 1.0, 2.0, 2.0, 1.0)
        out = nash_endowment(m)
        # percentage game: b=1 both, checked in the nash tests; here the
        # endowment-game aggregate also matches in the homogeneous case
        assert var(m.space.rv(out.aggregate - m.payoffs.sum(axis=0))) < 1e-18
