import ast
import pathlib

import numpy as np
import pytest

import riskshare.oracle as oracle_module
from riskshare.core import (
    Agent,
    Market,
    ProbSpace,
    cov,
    demand,
    mean,
    var,
)
from riskshare.nash import nash_endowment
from riskshare.oracle import (
    CoefficientSearchSpec,
    argmax_demand,
    argmax_phi,
    argmax_reported_utility,
    best_response_dynamics,
    clearing_utility,
    deviation_gain,
)
from riskshare.strategic import (
    best_endowment_response,
    best_price_response,
    reported_utility,
    truthful_schedules,
)

from conftest import make_basket, make_market


class TestStructuralIndependence:
    def test_no_engine_imports(self):
        tree = ast.parse(pathlib.Path(oracle_module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        assert "core" in imported
        assert not imported & {"pareto", "strategic", "nash", "experiments", "cli"}

    def test_gain_matches_mechanism_utility(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            m = make_market(rng, m=4)
            i = int(rng.integers(m.n))
            reports = [m.space.rv(rng.normal(size=4)) for _ in range(m.n)]
            gain = deviation_gain(m, i, reports)
            assert gain == pytest.approx(
                reported_utility(m, i, reports[i], others=reports), abs=1e-10
            )
            matrix = np.stack([r.payoffs for r in reports])
            assert deviation_gain(m, i, matrix) == pytest.approx(gain, abs=1e-12)


class TestSearchSpec:
    def test_validation(self):
        sp = ProbSpace([0.5, 0.5])
        e = sp.rv([1.0, -1.0])
        with pytest.raises(ValueError):
            CoefficientSearchSpec(basis=())
        with pytest.raises(ValueError):
            CoefficientSearchSpec(basis=(e,), bounds=((0.0, 0.0),))
        with pytest.raises(ValueError):
            CoefficientSearchSpec(basis=(e,), refinement_depth=0)
        with pytest.raises(ValueError):
            CoefficientSearchSpec(basis=(e,), bounds=((0.0, 1.0), (0.0, 1.0)))


class TestArgmaxReportedUtility:
    def test_independent_pair_coefficients(self):
        rng = np.random.default_rng(81)
        sp = ProbSpace(np.full(6, 1.0 / 6.0))
        m = Market(
            sp,
            (Agent(1.0, sp.rv(rng.normal(size=6))), Agent(1.0, sp.rv(rng.normal(size=6)))),
        )
        spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
        res = argmax_reported_utility(m, 0, spec)
        assert res.coefficients == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-6)
        assert not res.at_bound

    def test_matches_closed_form_on_random_markets(self):
        rng = np.random.default_rng(82)
        for _ in range(15):
            m = make_market(rng)
            i = int(rng.integers(m.n))
            spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
            res = argmax_reported_utility(m, i, spec)
            found = spec.combine(res.coefficients)
            assert var(found - best_endowment_response(m, i)) < 1e-12

    def test_truthful_limit_for_huge_risk_aversion(self):
        rng = np.random.default_rng(83)
        sp = ProbSpace(np.full(4, 0.25))
        m = Market(
            sp,
            (
                Agent(1e9, sp.rv(rng.normal(size=4))),
                Agent(1.0, sp.rv(rng.normal(size=4))),
            ),
        )
        spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
        res = argmax_reported_utility(m, 0, spec)
        assert res.coefficients == pytest.approx([1.0, 0.0], abs=1e-4)

    def test_orthogonal_direction_unused(self):
        rng = np.random.default_rng(84)
        sp = ProbSpace(np.full(6, 1.0 / 6.0))
        m = Market(
            sp,
            (Agent(0.9, sp.rv(rng.normal(size=6))), Agent(1.4, sp.rv(rng.normal(size=6)))),
        )
        # build a payoff cov-orthogonal to both endowments
        w = rng.normal(size=6)
        design = np.stack(
            [e.payoffs - mean(e) for e in m.endowments()]
        )
        gram = design @ np.diag(sp.probs) @ design.T
        coef = np.linalg.solve(gram, design @ (sp.probs * (w - sp.probs @ w)))
        w = w - coef @ design
        probe = sp.rv(w)
        for e in m.endowments():
            assert abs(cov(probe, e)) < 1e-12
        spec = CoefficientSearchSpec(basis=tuple(m.endowments()) + (probe,))
        res = argmax_reported_utility(m, 0, spec)
        assert abs(res.coefficients[-1]) < 1e-5
        assert var(spec.combine(res.coefficients) - best_endowment_response(m, 0)) < 1e-12

    def test_bound_hit_reported(self):
        sp = ProbSpace([0.5, 0.5])
        m = Market(
            sp,
            (Agent(1.0, sp.rv([1.0, -1.0])), Agent(1.0, sp.rv([-1.0, 1.0]))),
        )
        spec = CoefficientSearchSpec(
            basis=(m.agents[0].endowment,), bounds=((0.4, 10.0),)
        )
        res = argmax_reported_utility(m, 0, spec)
        assert res.at_bound
        assert res.coefficients[0] == pytest.approx(0.4, abs=1e-6)


class TestArgmaxDemand:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(85)
        done = 0
        while done < 10:
            m = make_market(rng, m=5)
            k = int(rng.integers(1, 3))
            basket = make_basket(rng, m.space, k=k)
            p = basket.mean_vector + rng.normal(scale=0.2, size=k)
            a = demand(m.agents[0].gamma, m.agents[0].endowment, basket, p)
            if np.abs(a).max() > 9.0:
                continue
            found = argmax_demand(m.agents[0].gamma, m.agents[0].endowment, basket, p)
            assert np.allclose(found, a, atol=1e-6)
            done += 1


class TestBestResponseDynamics:
    def test_symmetric_convergence(self, symmetric_market):
        result = best_response_dynamics(symmetric_market)
        assert result.converged
        assert result.rounds_run <= 200
        final = result.trajectory[-1]
        assert np.allclose(final[0].payoffs - final[0].payoffs.mean(),
                           [0.5, -0.5], atol=1e-10)
        assert np.allclose(final[1].payoffs - final[1].payoffs.mean(),
                           [-0.5, 0.5], atol=1e-10)

    def test_nash_profile_is_stationary(self):
        rng = np.random.default_rng(86)
        m = make_market(rng, n=3, m=5)
        out = nash_endowment(m)
        result = best_response_dynamics(m, init=out.reported, rounds=3)
        assert result.converged
        first_round = result.trajectory[1]
        for i in range(m.n):
            diff = (first_round[i] - out.reported[i]).payoffs
            centered = diff - m.space.probs @ diff
            assert np.max(np.abs(centered)) < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (4, 4)])
    def test_dependent_endowments_reach_closed_form(self, n, m):
        # n > m - 1: the centered endowments are linearly dependent
        rng = np.random.default_rng(90)
        for _ in range(10):
            market = make_market(rng, n=n, m=m)
            result = best_response_dynamics(market, rounds=20)
            assert result.converged
            out = nash_endowment(market)
            for got, want in zip(result.trajectory[-1], out.reported):
                diff = (got - want).payoffs
                assert np.max(np.abs(diff - market.space.probs @ diff)) < 1e-9

    def test_random_markets_reach_closed_form(self):
        rng = np.random.default_rng(87)
        for _ in range(10):
            m = make_market(rng, n=3)
            result = best_response_dynamics(m, rounds=500)
            assert result.converged
            out = nash_endowment(m)
            for i in range(m.n):
                assert var(result.trajectory[-1][i] - out.reported[i]) < 1e-16


class TestArgmaxPhi:
    def test_matches_best_price_response(self):
        rng = np.random.default_rng(88)
        for _ in range(8):
            m = make_market(rng, m=4)
            k = int(rng.integers(1, 3))
            basket = make_basket(rng, m.space, k=k)
            i = int(rng.integers(m.n))
            others = [
                s for j, s in enumerate(truthful_schedules(m, basket)) if j != i
            ]
            found = argmax_phi(m, i, basket, others)
            want = best_price_response(m, i, basket, others)
            assert np.allclose(found, want, atol=1e-6)

    def test_clearing_utility_definition(self):
        rng = np.random.default_rng(89)
        m = make_market(rng, m=4)
        basket = make_basket(rng, m.space, k=1)
        others = truthful_schedules(m, basket)[1:]
        p = basket.mean_vector
        from riskshare.strategic import price_objective

        assert clearing_utility(m, 0, basket, others, p) == pytest.approx(
            price_objective(m, 0, basket, others, p), abs=1e-12
        )
