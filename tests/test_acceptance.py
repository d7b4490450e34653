"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs on seeded inputs at its stated tolerance, so failures
reproduce exactly. Run with -s to see the per-criterion lines; under plain
pytest -v each criterion is one PASSED/FAILED row.
"""

import numpy as np
import pytest

from riskshare.core import (
    Agent,
    Market,
    ProbSpace,
    SecurityBasket,
    cov,
    demand,
    mv_utility,
    var,
)
from riskshare.experiments import (
    AgentSequenceSpec,
    agent_pool,
    correlated_pair_market,
    figure_data,
    homogeneous_inefficiency_closed_form,
    inefficiency_decay,
    price_allocation_convergence,
)
from riskshare.nash import (
    excess_return_check,
    nash_aggregate_endowment,
    nash_endowment,
    nash_percentage,
    nash_price,
    table1_report,
)
from riskshare.oracle import (
    CoefficientSearchSpec,
    argmax_demand,
    argmax_phi,
    argmax_reported_utility,
    best_response_dynamics,
)
from riskshare.pareto import capm_equilibrium, optimal_sharing
from riskshare.strategic import (
    best_endowment_response,
    best_price_response,
    reported_utility,
    truthful_schedules,
)

from conftest import make_basket, make_market


def _verdict(number: int, description: str) -> None:
    print(f"criterion {number:2d} PASS: {description}")


def test_criterion_01_single_deviator_gain_homogeneous():
    """Relative gain of the best endowment response is 1/(n^2-1)."""
    rng = np.random.default_rng(100)
    for n in (2, 3, 5, 10):
        m = make_market(rng, n=n, m=5, homogeneous=True)
        i = 0
        truthful = reported_utility(m, i, m.agents[i].endowment)
        base_gain = truthful - mv_utility(m.agents[i].gamma, m.agents[i].endowment)
        best = best_endowment_response(m, i)
        extra = reported_utility(m, i, best) - truthful
        assert extra / base_gain == pytest.approx(1.0 / (n**2 - 1), abs=1e-9)
    _verdict(1, "deviator gain 33.333% at n=2, 12.5% at n=3, 1/(n^2-1) generally")


def test_criterion_02_nash_contract_and_demand_scaling():
    """Homogeneous Nash contracts and demands are (n-1)/n of the optimum."""
    rng = np.random.default_rng(101)
    for n in (2, 3, 5, 10):
        m = make_market(rng, n=n, m=5, homogeneous=True)
        sharing = optimal_sharing(m)
        out = nash_endowment(m)
        for i in range(n):
            diff = out.contracts[i] - ((n - 1) / n) * sharing.contracts[i]
            centered = diff.payoffs - m.space.probs @ diff.payoffs
            assert np.max(np.abs(centered)) < 1e-12
        basket = make_basket(rng, m.space, k=2)
        eq = capm_equilibrium(m, basket)
        price_game = nash_price(m, basket)
        for i in range(n):
            z_hat = price_game.schedules[i].quantities(basket, price_game.price)
            z_star = demand(
                m.agents[i].gamma, m.agents[i].endowment, basket, eq.prices
            )
            assert np.allclose(z_hat, ((n - 1) / n) * z_star, atol=1e-12)
    _verdict(2, "contracts and demands scale by (n-1)/n for n in {2,3,5,10}")


def test_criterion_03_coincidence_iff_homogeneous():
    """Reported aggregate and prices coincide exactly when agents match."""
    rng = np.random.default_rng(102)
    for trial in range(200):
        homogeneous = trial % 2 == 0
        m = make_market(rng, m=4, homogeneous=homogeneous)
        if not homogeneous and np.ptp(m.gammas) < 1e-3:
            continue
        basket = make_basket(rng, m.space, k=1)
        gap = var(nash_aggregate_endowment(m) - m.total_endowment)
        price_gap = np.abs(
            nash_price(m, basket).price - capm_equilibrium(m, basket).prices
        ).max()
        detected = np.ptp(m.gammas) < 1e-9
        if detected:
            assert gap < 1e-18
            assert price_gap < 1e-12
        else:
            assert gap > 1e-18
    _verdict(3, "aggregate and price coincidence holds iff homogeneous, 200 markets")


def test_criterion_04_table1_regression():
    """Two-agent table closed forms agree with the engines at 1e-10."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        m = make_market(rng, n=2)
        for row in table1_report(m):
            if hasattr(row.nash_engine, "payoffs"):
                for engine, closed in (
                    (row.nash_engine, row.nash_closed),
                    (row.pareto_engine, row.pareto_closed),
                ):
                    diff = engine - closed
                    centered = diff.payoffs - m.space.probs @ diff.payoffs
                    assert np.max(np.abs(centered)) < 1e-10
            else:
                assert row.nash_engine == pytest.approx(row.nash_closed, abs=1e-10)
                assert row.pareto_engine == pytest.approx(
                    row.pareto_closed, abs=1e-10
                )
    # benefit threshold: the strategic game helps agent 1 exactly when
    # gamma_1 < (2/3) gamma_2
    space = ProbSpace([0.3, 0.3, 0.4])
    e1, e2 = space.rv([1.0, -1.0, 0.0]), space.rv([0.2, 0.7, -0.675])
    signs = []
    for g1 in np.linspace(0.4, 1.0, 61):
        m = Market(space, (Agent(float(g1), e1), Agent(1.0, e2)))
        rows = {r.name: r for r in table1_report(m)}
        delta = rows["gain_of_utility"].nash_engine - rows["gain_of_utility"].pareto_engine
        assert np.sign(delta) == np.sign(2.0 / 3.0 - g1)
        signs.append(np.sign(delta))
    assert signs[0] > 0 > signs[-1]
    _verdict(4, "table closed forms at 1e-10 over 100 markets; 2/3 threshold sweep")


def test_criterion_05_oracle_equivalence():
    """Closed forms match brute-force searches on 100 instances each."""
    rng = np.random.default_rng(104)
    for _ in range(100):
        m = make_market(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(2, 7)))
        i = int(rng.integers(m.n))
        spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
        res = argmax_reported_utility(m, i, spec)
        found = spec.combine(res.coefficients)
        diff = found - best_endowment_response(m, i)
        centered = diff.payoffs - m.space.probs @ diff.payoffs
        assert np.max(np.abs(centered)) < 1e-6

    done = 0
    while done < 100:
        m = make_market(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(3, 7)))
        k = int(rng.integers(1, min(3, m.space.n_states - 1) + 1))
        basket = make_basket(rng, m.space, k=k)
        p = basket.mean_vector + rng.normal(scale=0.2, size=k)
        a = demand(m.agents[0].gamma, m.agents[0].endowment, basket, p)
        if np.abs(a).max() > 9.0:
            continue
        assert np.allclose(
            argmax_demand(m.agents[0].gamma, m.agents[0].endowment, basket, p),
            a,
            atol=1e-6,
        )
        done += 1

    for _ in range(100):
        m = make_market(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(3, 7)))
        k = int(rng.integers(1, min(3, m.space.n_states - 1) + 1))
        basket = make_basket(rng, m.space, k=k)
        i = int(rng.integers(m.n))
        others = [s for j, s in enumerate(truthful_schedules(m, basket)) if j != i]
        assert np.allclose(
            argmax_phi(m, i, basket, others),
            best_price_response(m, i, basket, others),
            atol=1e-6,
        )

    for _ in range(100):
        m = make_market(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(2, 7)))
        result = best_response_dynamics(m, rounds=500)
        assert result.converged
        out = nash_endowment(m)
        for i in range(m.n):
            diff = result.trajectory[-1][i] - out.reported[i]
            centered = diff.payoffs - m.space.probs @ diff.payoffs
            assert np.max(np.abs(centered)) < 1e-6
    _verdict(5, "oracle equivalence on 100 randomized instances per operation")


def test_criterion_06_percentage_game_limits():
    """Proxy limits of the percentage equilibrium by the sign of rho."""
    kappa = 10.0
    # nearly risk-neutral agent 1
    for rho, want_b1 in ((0.5, kappa), (-0.5, 0.0), (0.0, 0.5)):
        m = correlated_pair_market(1e-6, 1.0, 1.0, 1.0, rho)
        out = nash_percentage(m, kappa=kappa)
        assert out.b_star[0] == pytest.approx(want_b1, abs=1e-3)
        assert out.b_star[1] == pytest.approx(1.0, abs=1e-3)
    # infinitely risk-averse agent 1
    for rho, want_b2 in ((0.5, kappa), (-0.5, 0.0)):
        m = correlated_pair_market(1e9, 1.0, 1.0, 1.0, rho)
        out = nash_percentage(m, kappa=kappa)
        assert out.b_star[0] == pytest.approx(1.0, abs=1e-3)
        assert out.b_star[1] == pytest.approx(want_b2, abs=1e-3)
    _verdict(6, "gamma proxy limits hit {0, 1/2, kappa} / {1} by sign of rho")


def test_criterion_07_capm_beta_identity():
    """Excess-return identity residual below 1e-12 across random markets."""
    rng = np.random.default_rng(105)
    for _ in range(20):
        m_states = int(rng.integers(3, 6))
        space = ProbSpace(rng.dirichlet(np.ones(m_states) * 5.0))
        k = int(rng.integers(1, 3))
        basket = None
        while basket is None:
            try:
                basket = SecurityBasket(
                    tuple(space.rv(rng.normal(size=m_states)) for _ in range(k))
                )
            except ValueError:
                basket = None
        agents = tuple(
            Agent(
                float(rng.uniform(0.5, 2.0)),
                sum(
                    (float(rng.normal()) * s for s in basket.securities),
                    space.constant(float(rng.normal())),
                ),
            )
            for _ in range(int(rng.integers(2, 5)))
        )
        market = Market(space, agents)
        aggregate = nash_aggregate_endowment(market)
        g = market.aggregate_gamma
        checked = 0
        while checked < 50:
            x = sum(
                (float(rng.normal()) * s for s in basket.securities),
                space.constant(float(rng.normal())),
            )
            price = (space.probs @ x.payoffs) - 2.0 * g * cov(x, aggregate)
            if abs(price) < 0.1:
                continue
            assert excess_return_check(market, basket, x) < 1e-12
            checked += 1
    _verdict(7, "beta identity residual < 1e-12, 50 payoffs x 20 markets")


def test_criterion_08_asymptotic_decay():
    """Inefficiency and the price gap vanish along growing markets."""
    spec = AgentSequenceSpec(seed=0)
    space, agents = agent_pool(spec, homogeneous=True)
    table = inefficiency_decay(spec, homogeneous=True)
    for n, value in table.rows:
        market = Market(space, tuple(agents[:n]))
        assert value == pytest.approx(
            homogeneous_inefficiency_closed_form(market), abs=1e-12
        )
    hetero = inefficiency_decay(spec)
    values = hetero.column("inefficiency")
    assert values[-1] < 1e-2
    assert np.all(np.diff(values) < 0.0)
    conv = price_allocation_convergence(spec)
    gaps = conv.column("price_gap")
    assert gaps[-1] < 1e-2
    assert np.all(np.diff(gaps) < 0.0)
    assert hetero.metadata["verdict"] == "pass"
    assert conv.metadata["verdict"] == "pass"
    _verdict(8, "homogeneous decay exact; heterogeneous below 1e-2 by n=200, "
                "monotone (thresholds recorded in output)")


def test_criterion_09_pareto_perturbation_suite():
    """No zero-sum reallocation improves aggregate utility at the optimum."""
    rng = np.random.default_rng(106)
    for _ in range(50):
        m = make_market(rng, m=4)
        sharing = optimal_sharing(m)
        positions = [
            a.endowment + c for a, c in zip(m.agents, sharing.contracts)
        ]
        best = sum(
            mv_utility(a.gamma, y) for a, y in zip(m.agents, positions)
        )
        for _ in range(200):
            moves = rng.normal(scale=0.5, size=(m.n, 4))
            moves -= moves.mean(axis=0)  # zero net supply
            perturbed = sum(
                mv_utility(a.gamma, y + m.space.rv(d))
                for a, y, d in zip(m.agents, positions, moves)
            )
            assert perturbed <= best + 1e-9
    _verdict(9, "no zero-sum perturbation improves the optimum, 200 x 50 markets")


def test_criterion_10_figure_reconstruction():
    """Figure grids satisfy the documented qualitative orderings."""
    rho = np.linspace(-1.0, 1.0, 21)
    fig1 = figure_data(1, rho_values=rho)
    fig2 = figure_data(2, rho_values=rho)
    # the safer agent's percentage rises with correlation everywhere; the
    # riskier agent's rises on the nonnegative half
    assert np.all(np.diff(fig1.column("b1")) >= -1e-10)
    assert np.all(np.diff(fig2.column("b2")) >= -1e-10)
    for col, fig in (("b2", fig1), ("b1", fig2)):
        half = fig.column(col)[rho >= 0.0]
        assert np.all(np.diff(half) >= -1e-10)
    # the riskier endowment is shared at a lower rate when correlation is
    # positive and a higher rate when it is negative
    b1_1, b2_1 = fig1.column("b1"), fig1.column("b2")
    assert np.all(b2_1[rho > 0.01] < b1_1[rho > 0.01] + 1e-10)
    assert np.all(b2_1[rho < -0.01] > b1_1[rho < -0.01] - 1e-10)

    gammas = np.linspace(0.2, 3.0, 15)
    fig3 = figure_data(3, rho_values=rho, gamma1_values=gammas)
    r3, g3, d3 = fig3.column("rho"), fig3.column("gamma1"), fig3.column("difference")
    # at rho = 0 the equilibrium decouples; recompute the gain independently
    for g1, grid_nash, grid_diff in zip(
        g3[r3 == 0.0], fig3.column("nash_gain")[r3 == 0.0], d3[r3 == 0.0]
    ):
        m = correlated_pair_market(float(g1), 1.0, 1.0, 10.0, 0.0)
        g = m.aggregate_gamma
        reports = [
            (a.gamma / (a.gamma + g)) * a.endowment for a in m.agents
        ]
        direct = reported_utility(m, 0, reports[0], others=reports) - mv_utility(
            m.agents[0].gamma, m.agents[0].endowment
        )
        assert grid_nash == pytest.approx(direct, abs=1e-9)
        assert grid_diff < 0.0
    # strategic play helps the less risk-averse agent under high correlation
    assert np.all(d3[(r3 > 0.99) & (g3 < 0.45)] > 0.0)
    assert np.all(d3[(r3 > 0.99) & (g3 > 2.55)] < 0.0)

    fig4 = figure_data(4, rho_values=rho, gamma1_values=gammas)
    r4, g4, d4 = fig4.column("rho"), fig4.column("gamma1"), fig4.column("difference")
    # holding the riskier endowment, a tolerant agent 1 prefers the strategic
    # outcome whenever correlation is nonpositive
    assert np.all(d4[(g4 < 0.25) & (r4 <= 0.0)] > 0.0)
    _verdict(10, "figure grids reproduce the qualitative percentage orderings")
