import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import riskshare.oracle as oracle_module
from riskshare.core import (
    Agent,
    DemandSchedule,
    Market,
    ProbSpace,
    Rv,
    SecurityBasket,
    SpaceMismatchError,
    cross_cov,
    demand,
)
from riskshare.experiments import correlated_pair_market
from riskshare.nash import nash_endowment, nash_percentage
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
from moments import cov, mean, var


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

    def test_own_moments(self):
        # the oracle computes its moments from payoff rows through cross_cov,
        # never from the market's cached matrices that the engines read, nor
        # from the risk-aversion shares and complements that the closed forms use
        tree = ast.parse(pathlib.Path(oracle_module.__file__).read_text())
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not attributes & {"gram", "exposures", "means", "centered", "variances",
                                 "cov_matrix", "cov_inverse", "shares", "complements"}
        assert "cross_cov" in names

    def test_imports_without_scipy(self):
        # numpy is the only runtime dependency
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "import riskshare, riskshare.oracle, riskshare.cli"
        )
        src = pathlib.Path(oracle_module.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

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


def _concave_quadratic(rng, k, flat=0):
    """-(x - top) A (x - top) / 2 on stacks of points, A positive
    semidefinite with `flat` zero eigenvalues, and the rotation whose last
    `flat` columns span A's null space."""
    axes, _ = np.linalg.qr(rng.normal(size=(k, k)))
    curvatures = rng.uniform(0.5, 3.0, size=k)
    curvatures[k - flat:] = 0.0
    hessian = (axes * curvatures) @ axes.T
    top = rng.normal(size=k)

    def f(x):
        d = x - top
        return -0.5 * np.vecdot(d @ hessian, d)

    return f, top, axes


def _counting(f):
    def counted(*args):
        counted.calls += 1
        return f(*args)

    counted.calls = 0
    return counted


def _mismatched_basket_market():
    """A market on (0.3, 0.3, 0.4), the basket (1, 0, -1) on (0.5, 0.25,
    0.25) and the same basket on the market's own space."""
    space, other = ProbSpace([0.3, 0.3, 0.4]), ProbSpace([0.5, 0.25, 0.25])
    market = Market(space, (Agent(1.0, space.rv([1.0, -1.0, 0.5])),
                            Agent(2.0, space.rv([-0.5, 1.5, -1.0]))))
    return (market, SecurityBasket((other.rv([1.0, 0.0, -1.0]),)),
            SecurityBasket((space.rv([1.0, 0.0, -1.0]),)))


class TestStencil:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_weights_give_exact_derivatives(self, k):
        # a quadratic's values on the stencil around 0, times the weights,
        # are its gradient and its row-major Hessian at 0
        rng = np.random.default_rng(120 + k)
        offsets, weights = oracle_module._stencil(k)
        assert offsets.shape == (1 + 2 * k + k * (k + 1) // 2, k)
        assert weights.shape == (offsets.shape[0], k + k * k)
        assert not offsets.flags.writeable and not weights.flags.writeable
        half = rng.normal(size=(k, k))
        hessian, gradient = half + half.T, rng.normal(size=k)
        values = 2.5 + offsets @ gradient + 0.5 * np.vecdot(offsets @ hessian, offsets)
        derivatives = values @ weights
        np.testing.assert_allclose(derivatives[:k], gradient, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(derivatives[k:].reshape(k, k), hessian,
                                   rtol=0.0, atol=1e-13)


class TestQuadraticArgmax:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_one_batched_call_lands_on_maximizer(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            f, top, _ = _concave_quadratic(rng, k)
            counted = _counting(f)
            found = oracle_module._quadratic_argmax(counted, rng.normal(size=k))
            assert counted.calls == 1
            np.testing.assert_allclose(found, top, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_flat_axis_left_at_center(self, k):
        rng = np.random.default_rng(110 + k)
        f, top, axes = _concave_quadratic(rng, k, flat=1)
        center = rng.normal(size=k)
        found = oracle_module._quadratic_argmax(f, center)
        flat = axes[:, -1]
        assert abs((found - center) @ flat) < 1e-9
        np.testing.assert_allclose(axes[:, :-1].T @ found, axes[:, :-1].T @ top,
                                   rtol=0.0, atol=1e-9)

    def test_convex_raises(self):
        rng = np.random.default_rng(117)
        f, _, _ = _concave_quadratic(rng, 3)
        with pytest.raises(ValueError, match="not concave"):
            oracle_module._quadratic_argmax(lambda x: -f(x), np.zeros(3))


class TestBatchedObjectives:
    def test_deviation_gain_stack_matches_profiles(self):
        rng = np.random.default_rng(118)
        for _ in range(5):
            m = make_market(rng)
            i = int(rng.integers(m.n))
            stack = rng.normal(size=(7, m.n, m.space.n_states))
            gains = deviation_gain(m, i, stack)
            assert gains.shape == (7,)
            for profile, gain in zip(stack, gains):
                single = deviation_gain(m, i, profile)
                assert type(single) is float
                assert single == pytest.approx(gain, rel=0.0, abs=1e-12)
            assert type(deviation_gain(m, i, m.endowments())) is float

    def test_clearing_utility_stack_matches_rows(self):
        rng = np.random.default_rng(119)
        for _ in range(5):
            m = make_market(rng, m=5)
            basket = make_basket(rng, m.space, k=int(rng.integers(1, 4)))
            i = int(rng.integers(m.n))
            others = [s for j, s in enumerate(truthful_schedules(m, basket)) if j != i]
            demands = rng.normal(scale=0.3, size=(6, basket.k))
            values = clearing_utility(m, i, basket, others, demands)
            assert values.shape == (6,)
            for q, value in zip(demands, values):
                single = clearing_utility(m, i, basket, others, q)
                assert type(single) is float
                assert single == pytest.approx(value, rel=0.0, abs=1e-12)

    def test_deviation_gain_reports_on_another_space_raise(self):
        market, foreign, _ = _mismatched_basket_market()
        reports = foreign.space.rvs(market.payoffs)
        with pytest.raises(SpaceMismatchError):
            deviation_gain(market, 0, reports)
        # the same payoffs on the market's space, as Rvs or as the matrix
        own = deviation_gain(market, 0, market.space.rvs(market.payoffs))
        assert own == deviation_gain(market, 0, market.payoffs)

    def test_clearing_utility_basket_on_another_space_raises(self):
        market, foreign, own = _mismatched_basket_market()
        others = truthful_schedules(market, own)[1:]
        with pytest.raises(SpaceMismatchError):
            clearing_utility(market, 0, foreign, others, np.zeros(1))
        assert np.isfinite(clearing_utility(market, 0, own, others, np.zeros(1)))

    def test_deviation_gain_index_array_is_the_per_agent_calls(self):
        # an index array names the agent of each stacked profile: the values
        # are the per-agent calls' values on the same stack, bit for bit
        rng = np.random.default_rng(121)
        for _ in range(30):
            m = make_market(rng, m=int(rng.integers(2, 8)))
            q = int(rng.integers(1, 40))
            stack = (rng.normal(size=(q, m.n, m.space.n_states))
                     + rng.uniform(-10.0, 10.0, size=(q, m.n, 1)))
            agents = rng.integers(m.n, size=q)
            gains = deviation_gain(m, agents, stack)
            assert gains.shape == (q,)
            for i in range(m.n):
                mine = agents == i
                assert gains[mine].tobytes() == deviation_gain(m, i, stack)[mine].tobytes()

    @pytest.mark.parametrize("agents", [
        pytest.param(np.array([0, 3, 1]), id="n"),
        pytest.param(np.array([0, -1, 1]), id="minus-one"),
        pytest.param(np.array([0.0, 1.0, 2.0]), id="float"),
        pytest.param(np.array([True, False, True]), id="bool"),
    ])
    def test_deviation_gain_index_array_is_checked(self, agents):
        market = make_market(np.random.default_rng(122), n=3, m=4)
        with pytest.raises(ValueError, match=r"agent index must be an integer in \[0, 3\)"):
            deviation_gain(market, agents, np.zeros((3, 3, 4)))

    def test_deviation_gain_index_array_needs_one_index_per_profile(self):
        market = make_market(np.random.default_rng(122), n=3, m=4)
        for agents, reports in ((np.zeros(3, int), np.zeros((4, 3, 4))),
                                (np.zeros(5, int), np.zeros((4, 3, 4))),
                                (np.zeros((4, 1), int), np.zeros((4, 3, 4))),
                                (np.zeros(1, int), market.payoffs)):
            with pytest.raises(ValueError, match="do not name one agent per profile"):
                deviation_gain(market, agents, reports)

    def test_deviation_gain_index_array_of_a_stack_of_stacks(self):
        # a 2 x 5 stack of profiles takes a 2 x 5 index array: its values are
        # the flat call's, bit for bit, and every entry is checked
        rng = np.random.default_rng(127)
        market = make_market(rng, n=3, m=4)
        stack = rng.normal(size=(2, 5, 3, 4)) + rng.uniform(-10.0, 10.0, size=(2, 5, 3, 1))
        agents = rng.integers(3, size=(2, 5))
        gains = deviation_gain(market, agents, stack)
        assert gains.shape == (2, 5)
        flat = deviation_gain(market, agents.ravel(), stack.reshape(10, 3, 4))
        assert gains.tobytes() == flat.tobytes()
        agents[1, 3] = 3
        with pytest.raises(ValueError, match=r"agent index must be an integer in \[0, 3\)"):
            deviation_gain(market, agents, stack)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSearchSpec(basis=())

    def test_basis_mixing_spaces_raises(self):
        space, other = ProbSpace([0.3, 0.3, 0.4]), ProbSpace([0.5, 0.25, 0.25])
        spec = CoefficientSearchSpec(basis=(space.rv([1.0, 0.0, -1.0]), other.rv([0.0, 1.0, 2.0])))
        with pytest.raises(SpaceMismatchError, match="report basis payoff 1 "):
            spec.combine([1.0, 1.0])


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
        assert res.coefficients == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)

    def test_matches_closed_form_on_random_markets(self):
        rng = np.random.default_rng(82)
        for _ in range(15):
            m = make_market(rng)
            i = int(rng.integers(m.n))
            spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
            res = argmax_reported_utility(m, i, spec)
            found = spec.combine(res.coefficients)
            diff = found.payoffs - best_endowment_response(m, i).payoffs
            assert var(m.space.rv(diff)) < 1e-12

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
        # gamma_0 / (gamma_0 + g) and g^2 / (gamma_0^2 - g^2) tend to 1 and 0;
        # at gamma_0 = 1e9 the first is still 1e-9 short of 1
        g = m.aggregate_gamma
        assert res.coefficients == pytest.approx(
            [1e9 / (1e9 + g), g**2 / (1e18 - g**2)], abs=1e-9
        )

    def test_single_point_value_is_gain_at_found_profile(self):
        # the returned value evaluates one profile, not a stack
        rng = np.random.default_rng(92)
        for _ in range(5):
            m = make_market(rng)
            i = int(rng.integers(m.n))
            spec = CoefficientSearchSpec(basis=tuple(m.endowments()))
            res = argmax_reported_utility(m, i, spec)
            profile = m.payoffs.copy()
            profile[i] = spec.combine(res.coefficients).payoffs
            assert type(res.value) is float
            assert res.value == deviation_gain(m, i, profile)

    def test_two_objective_calls(self, monkeypatch):
        # one for the whole stencil, one for the returned value, both through
        # the module's deviation_gain
        rng = np.random.default_rng(93)
        m = make_market(rng)
        counted = _counting(oracle_module.deviation_gain)
        monkeypatch.setattr(oracle_module, "deviation_gain", counted)
        argmax_reported_utility(m, 0, CoefficientSearchSpec(basis=tuple(m.endowments())))
        assert counted.calls == 2

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
        assert abs(res.coefficients[-1]) < 1e-9
        diff = spec.combine(res.coefficients).payoffs - best_endowment_response(m, 0).payoffs
        assert var(sp.rv(diff)) < 1e-12


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
            assert np.allclose(found, a, rtol=0.0, atol=1e-9)
            done += 1

    def test_basket_on_another_space_raises(self):
        market, foreign, own = _mismatched_basket_market()
        endowment = market.endowments()[0]
        with pytest.raises(SpaceMismatchError):
            argmax_demand(1.0, endowment, foreign, own.mean_vector)
        found = argmax_demand(1.0, endowment, own, own.mean_vector)
        np.testing.assert_allclose(
            found, demand(1.0, endowment, own, own.mean_vector), rtol=0.0, atol=1e-9
        )

    def test_convex_objective_raises(self):
        # with a negative gamma the demand objective is convex: no maximizer.
        # argmax_demand rejects that gamma first, so the search is given the
        # objective directly
        rng = np.random.default_rng(91)
        m = make_market(rng, m=5)
        basket = make_basket(rng, m.space, k=2)

        def objective(a):
            x = a @ basket.payoffs + m.payoffs[0]
            return oracle_module._mv_value(-1.0, m.space.probs, x) - a @ basket.mean_vector

        with pytest.raises(ValueError, match="not concave"):
            oracle_module._quadratic_argmax(objective, np.zeros(basket.k))

    @pytest.mark.parametrize("gamma", [
        0.0, -1.0, np.nan, np.inf, pytest.param(10**400, id="int-beyond-float")])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        market, _, basket = _mismatched_basket_market()
        with pytest.raises(ValueError, match="gamma must be a positive number"):
            argmax_demand(gamma, market.endowments()[0], basket, basket.mean_vector)


class TestBestResponseDynamics:
    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.3, 0.3, 0.4]])
    def test_riskless_market_addressed(self, probs):
        # every endowment constant: no span to search, so no log2(0)
        space = ProbSpace(probs)
        market = Market.from_arrays(space, [1.0, 2.0], [[1.0] * len(probs), [3.0] * len(probs)])
        with pytest.raises(ValueError, match="every endowment is riskless"):
            best_response_dynamics(market)

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
            diff = first_round[i].payoffs - out.reported[i].payoffs
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
                diff = got.payoffs - want.payoffs
                assert np.max(np.abs(diff - market.space.probs @ diff)) < 1e-9

    def test_pinned_rounds_and_profiles(self):
        # the markets of the benchmark's oracle check and fifteen more: the
        # round count is a fingerprint of the dynamics' arithmetic
        rng = np.random.default_rng(104)
        total = 0
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(2, 7)
            market = make_market(rng, n=n, m=m)
            result = best_response_dynamics(market)
            assert result.converged
            total += result.rounds_run
            assert len(result.trajectory) == result.rounds_run + 1
            p = market.space.probs
            for got, want in zip(result.trajectory[-1], nash_endowment(market).reported):
                diff = got.payoffs - want.payoffs
                assert np.max(np.abs(diff - p @ diff)) < 1e-11
        assert total == 733

    def test_contraction_fingerprint(self):
        # a round is one Gauss-Seidel sweep on (I - A) B = own E, with
        # A_ij = other_i = s_i^2 / (1 - s_i^2) off the diagonal, so the steps
        # shrink at the spectral radius rho of (I - L)^-1 U (Varga 1962). The
        # rounds to a step std of 1e-6 and the observed rate rest on that
        # contraction, not on the rounding floor under the 733 rounds above:
        # the nearest step std of these markets is 0.2% away from 1e-6
        rng = np.random.default_rng(104)
        total = 0
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(2, 7)
            market = make_market(rng, n=n, m=m)
            steps = best_response_dynamics(market).step_stds
            total += int(np.argmax(steps < 1e-6)) + 1
            # the geometric mean of the successive ratios above 1e-7
            above = steps[steps > 1e-7]
            rate = (above[-1] / above[0]) ** (1.0 / (len(above) - 1))
            share = market.aggregate_gamma / market.gammas
            sweep = np.repeat((share**2 / (1.0 - share**2))[:, None], n, axis=1)
            iteration = np.linalg.solve(np.eye(n) - np.tril(sweep, -1), np.triu(sweep, 1))
            rho = np.abs(np.linalg.eigvals(iteration)).max()
            assert abs(rate - rho) < 0.05
        assert total == 399

    def test_no_object_per_step(self, monkeypatch):
        # the dynamics run on arrays; reading the trajectory builds its Rvs,
        # n per profile, of the profiles' values
        built = []
        post, trusted = Rv.__post_init__, Rv._trusted
        monkeypatch.setattr(Rv, "__post_init__", lambda obj: built.append(1) or post(obj))
        monkeypatch.setattr(Rv, "_trusted", classmethod(
            lambda _, *args: built.append(1) or trusted(*args)))
        rng = np.random.default_rng(96)
        for _ in range(5):
            market = make_market(rng)
            built.clear()
            result = best_response_dynamics(market)
            assert not built
            profiles = result.profiles
            assert profiles.shape == (result.rounds_run + 1, *market.payoffs.shape)
            assert not profiles.flags.writeable and not result.step_stds.flags.writeable
            trajectory = result.trajectory
            assert len(built) == profiles.shape[0] * market.n
            assert result.trajectory is trajectory
            rows = np.array([market.space.rows(profile, "report") for profile in trajectory])
            assert rows.tobytes() == profiles.tobytes()
            p = market.space.probs
            for r, std in enumerate(result.step_stds):
                steps = profiles[r + 1] - profiles[r]
                assert std == np.sqrt(cross_cov(p, steps, steps).max())

    def test_curvature_is_the_same_at_every_profile(self):
        # an agent's gain is quadratic in all reports jointly, so the Hessian
        # the dynamics measure at the agent's first step is the Hessian at the
        # final profile too
        rng = np.random.default_rng(104)
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(2, 7)
            market = make_market(rng, n=n, m=m)
            result = best_response_dynamics(market)
            basis = oracle_module._span_basis(market)
            k = len(basis)
            offsets, weights = oracle_module._stencil(k)
            start, after, final = (market.space.rows(result.trajectory[r], "report")
                                   for r in (0, 1, -1))
            for i in range(market.n):
                # agent i's first step sees the others' round-1 reports before it
                first = np.concatenate([after[:i], start[i:]])
                first_hess, final_hess = (
                    (oracle_module._report_gain(market, i, profile, basis)(offsets)
                     @ weights)[k:]
                    for profile in (first, final))
                gap = np.abs(final_hess - first_hess).max()
                assert gap <= 1e-12 * np.abs(first_hess).max()

    def test_two_objective_calls_per_run(self, monkeypatch):
        # every agent's response is measured in one call before round 1, and
        # one call checks all agents around the final profile; the rounds
        # make no objective call, whatever their number
        rng = np.random.default_rng(94)
        counted = _counting(oracle_module.deviation_gain)
        monkeypatch.setattr(oracle_module, "deviation_gain", counted)
        for rounds in (0, 1, 200):
            for _ in range(5):
                market = make_market(rng)
                counted.calls = 0
                result = best_response_dynamics(market, rounds=rounds)
                assert result.converged or result.rounds_run == rounds
                assert counted.calls == 2

    def test_every_agents_stencil_in_one_call_then_one_check(self, monkeypatch):
        # the measuring call evaluates, for each of the n agents, the q
        # stencil points with the others' sum O = 0 and the 2k gradient
        # points with O = b_a for each of the k basis rows; the checking call
        # evaluates every agent's 2k gradient points around the final profile
        rng = np.random.default_rng(95)
        gain, stacks = oracle_module.deviation_gain, []

        def recording(market, i, reports):
            stacks.append(int(np.prod(reports.shape[:-2])))
            return gain(market, i, reports)

        monkeypatch.setattr(oracle_module, "deviation_gain", recording)
        for rounds in (0, 1, 200):
            for _ in range(5):
                market = make_market(rng)
                stacks.clear()
                result = best_response_dynamics(market, rounds=rounds)
                assert result.converged or result.rounds_run == rounds
                k = len(oracle_module._span_basis(market))
                q = 1 + 2 * k + k * (k + 1) // 2
                assert stacks == [market.n * (q + 2 * k * k), 2 * k * market.n]

    def test_measuring_call_is_the_per_agent_calls(self):
        # the one measuring call gives each agent's step map, response and
        # slopes bit for bit as a call of its own on its profiles would
        rng = np.random.default_rng(104)
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(2, 7)
            market = make_market(rng, n=n, m=m)
            basis = oracle_module._span_basis(market)
            for got, want in zip(oracle_module._affine_responses(market, basis),
                                 _per_agent_responses(market, basis)):
                assert got.tobytes() == want.tobytes()

    def test_blocks_are_the_round_by_round_loop(self):
        # the rounds run in blocks, each block's profiles formed and its steps
        # measured at once; the run is the loop of single rounds bit for bit,
        # from the truth on the pinned markets, and from starts far off that
        # need 17 to 40 rounds, cut before, at and after a block's end
        rng = np.random.default_rng(104)
        runs = [(make_market(rng, n=rng.integers(2, 5), m=rng.integers(2, 7)), None, 200)
                for _ in range(60)]
        rng = np.random.default_rng(126)
        for _ in range(8):
            market = make_market(rng)
            init = 10.0 ** rng.choice([12, 20, 24]) * rng.normal(size=market.payoffs.shape)
            runs += [(market, init, rounds) for rounds in (0, 1, 15, 16, 17, 33, 200)]
        longest = 0
        for market, init, rounds in runs:
            result = best_response_dynamics(market, init, rounds)
            profiles, step_stds, converged, residual = _round_by_round(market, init, rounds)
            assert result.profiles.tobytes() == profiles.tobytes()
            assert result.step_stds.tobytes() == step_stds.tobytes()
            assert result.converged == converged
            assert result.residual == residual
            longest = max(longest, result.rounds_run)
        assert longest > 33

    @pytest.mark.parametrize("rounds", [2.5, True, -3, np.float64(2.0), "3", None])
    def test_rounds_must_be_a_count(self, rounds):
        market = make_market(np.random.default_rng(128), n=3, m=4)
        with pytest.raises(ValueError, match="rounds must be an integer of at least 0"):
            best_response_dynamics(market, rounds=rounds)

    def test_rounds_of_numpy_integer(self):
        market = make_market(np.random.default_rng(128), n=3, m=4)
        for rounds in (0, 3):
            got = best_response_dynamics(market, rounds=np.int64(rounds))
            want = best_response_dynamics(market, rounds=rounds)
            assert got.profiles.tobytes() == want.profiles.tobytes()
            assert got.rounds_run == rounds and not got.converged

    def test_measured_response_is_the_direct_search(self):
        # the affine map (c_i + y J_i) @ basis, y the others' coefficients
        # Cov(O, basis) / Var[basis], is agent i's best response to any
        # profile: the others' reports carry cash and, where the span is
        # smaller than the centered payoffs' space, parts off the span
        rng = np.random.default_rng(97)
        off_span = 0
        for _ in range(40):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 8))
            market = make_market(rng, n=n, m=m)
            p = market.space.probs
            basis = oracle_module._span_basis(market)
            k = len(basis)
            off_span += k < m - 1
            _, responses, slopes = oracle_module._affine_responses(market, basis)
            profile = rng.normal(size=(n, m)) + rng.uniform(-10.0, 10.0, size=(n, 1))
            scale = np.abs(profile).max()
            for i in range(n):
                gain = oracle_module._report_gain(market, i, profile, basis)
                direct = oracle_module._quadratic_argmax(gain, np.zeros(k)) @ basis
                others = profile.sum(axis=0) - profile[i]
                coefficients = cross_cov(p, others, basis) / cross_cov(p, basis, basis)
                measured = (responses[i] + coefficients @ slopes[i]) @ basis
                assert np.abs(measured - direct).max() <= 1e-12 * scale
        assert off_span >= 10

    def test_residual_on_pinned_markets(self):
        rng = np.random.default_rng(104)
        for _ in range(60):
            n, m = rng.integers(2, 5), rng.integers(2, 7)
            market = make_market(rng, n=n, m=m)
            assert best_response_dynamics(market).residual <= 1e-11

    def test_residual_of_a_cut_run(self):
        # cut after one round, the run is not converged and the residual is the
        # largest std of the direct search's move from the final profile
        rng = np.random.default_rng(104)
        market = make_market(rng, n=rng.integers(2, 5), m=rng.integers(2, 7))
        assert best_response_dynamics(market).rounds_run > 1
        result = best_response_dynamics(market, rounds=1)
        assert not result.converged and result.residual >= 1e-6
        p = market.space.probs
        basis = oracle_module._span_basis(market)
        final = result.profiles[-1]
        moves = np.array([
            oracle_module._quadratic_argmax(
                oracle_module._report_gain(market, i, final, basis), np.zeros(len(basis)))
            @ basis - final[i]
            for i in range(market.n)])
        stds = np.sqrt(cross_cov(p, moves, moves))
        assert result.residual == pytest.approx(stds.max(), rel=1e-9)

    def test_random_markets_reach_closed_form(self):
        rng = np.random.default_rng(87)
        for _ in range(10):
            m = make_market(rng, n=3)
            result = best_response_dynamics(m, rounds=500)
            assert result.converged
            out = nash_endowment(m)
            for i in range(m.n):
                diff = result.trajectory[-1][i].payoffs - out.reported[i].payoffs
                assert var(m.space.rv(diff)) < 1e-16

    def test_folded_round_is_the_sweep(self):
        # one folded round, h + x G on the stacked coefficients, against the
        # per-agent Gauss-Seidel sweep it replaces: agents 0 ... n - 1 in turn
        # take their measured response to the others' payoff rows. The start
        # carries cash and, where the span is smaller than the centered
        # payoffs' space, parts off the span; both drop out of the
        # coefficients Cov(report, basis) / Var[basis]
        rng = np.random.default_rng(123)
        off_span = 0
        for _ in range(40):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 8))
            market = make_market(rng, n=n, m=m)
            p = market.space.probs
            basis = oracle_module._span_basis(market)
            k = len(basis)
            off_span += k < m - 1
            _, responses, slopes = oracle_module._affine_responses(market, basis)
            shift, sweep = oracle_module._folded_round(responses, slopes)
            unit = cross_cov(p, basis, basis)
            profile = rng.normal(size=(n, m)) + rng.uniform(-10.0, 10.0, size=(n, 1))
            swept = profile.copy()
            for i in range(n):
                others = swept.sum(axis=0) - swept[i]
                swept[i] = (responses[i] + cross_cov(p, others, basis) / unit @ slopes[i]) @ basis
            start = cross_cov(p, profile[:, None], basis) / unit
            folded = (shift + start.ravel() @ sweep).reshape(n, k) @ basis
            assert np.abs(folded - swept).max() <= 1e-13 * np.abs(swept).max()
        assert off_span >= 10

    def test_start_off_the_span_reaches_the_truths_reports(self):
        # a start with cash and parts off the span enters only through its
        # coefficients, so the run ends at the reports of a run from the truth
        rng = np.random.default_rng(124)
        off_span = 0
        for _ in range(30):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 8))
            market = make_market(rng, n=n, m=m)
            off_span += len(oracle_module._span_basis(market)) < m - 1
            init = rng.normal(size=(n, m)) + rng.uniform(-10.0, 10.0, size=(n, 1))
            truth, moved = best_response_dynamics(market), best_response_dynamics(market, init)
            assert truth.converged and moved.converged
            gap = moved.profiles[-1] - truth.profiles[-1]
            gap -= (gap @ market.space.probs)[:, None]
            assert np.abs(gap).max() <= 1e-11 * np.abs(truth.profiles[-1]).max()
        assert off_span >= 10


def _per_agent_responses(market, basis):
    """`oracle._affine_responses` with each agent measured in its own call."""
    n, k = market.n, len(basis)
    offsets, weights = oracle_module._stencil(k)
    trials = offsets @ basis
    gradient = slice(1, 2 * k + 1)
    q = len(trials)
    points = np.concatenate([trials, np.tile(trials[gradient], (k, 1))])
    others = np.concatenate([np.zeros_like(trials), np.repeat(basis, 2 * k, axis=0)])
    maps, responses, slopes = np.empty((n, 2 * k, k)), np.empty((n, k)), np.empty((n, k, k))
    for i in range(n):
        stack = np.zeros((len(points), *market.payoffs.shape))
        stack[:, i] = points
        stack[:, (i + 1) % n] = others
        values = deviation_gain(market, i, stack)
        axes, curvatures = oracle_module._concave_axes((values[:q] @ weights)[k:].reshape(k, k))
        maps[i] = weights[gradient, :k] @ (axes / -curvatures) @ axes.T
        responses[i] = values[gradient] @ maps[i]
        slopes[i] = values[q:].reshape(k, 2 * k) @ maps[i] - responses[i]
    return maps, responses, slopes


def _round_by_round(market, init, rounds):
    """`best_response_dynamics` one round at a time, each round's profile
    formed and its steps measured on their own: (profiles, step_stds,
    converged, residual)."""
    p = market.space.probs
    n, m = market.payoffs.shape
    basis = oracle_module._span_basis(market)
    k = len(basis)
    maps, responses, slopes = _per_agent_responses(market, basis)
    shift, sweep = oracle_module._folded_round(responses, slopes)
    basis_vars = cross_cov(p, basis, basis)
    reports = market.centered_profile(market.payoffs if init is None else init)
    coefficients = (reports @ (basis * p).T / basis_vars).ravel()
    profiles, step_vars = [reports], []
    tol = oracle_module._DYNAMICS_TOL**2 * basis_vars.max()
    converged = False
    for _ in range(rounds):
        coefficients = shift + coefficients @ sweep
        reports = coefficients.reshape(n, k) @ basis
        steps = reports - profiles[-1]
        profiles.append(reports)
        step_vars.append(cross_cov(p, steps, steps).max())
        if step_vars[-1] < tol:
            converged = True
            break
    stack = np.repeat(reports[None], n * 2 * k, axis=0)
    agents = np.arange(n)
    stack.reshape(n, 2 * k, n, m)[agents, :, agents] = np.concatenate([basis, -basis])
    values = deviation_gain(market, np.repeat(agents, 2 * k), stack)
    moves = (values.reshape(n, 1, 2 * k) @ maps)[:, 0] @ basis - reports
    residual = float(np.sqrt(cross_cov(p, moves, moves).max()))
    return np.array(profiles), np.sqrt(step_vars), converged, residual


def _dyadic_market(rng, c=1.0):
    """A market whose gammas and payoffs are dyadic rationals, drawn as the
    CLI's unit-scaling markets are, with payoffs times c and gammas over c."""
    n = int(rng.integers(2, 5))
    m = n + 1 + int(rng.integers(0, 3))
    space = ProbSpace(rng.dirichlet(np.ones(m) * 5.0))
    gammas = rng.integers(1, 33, size=n) / 16.0
    payoffs = rng.integers(-512, 513, size=(n, m)) / 64.0
    return Market(space, tuple(Agent(g / c, space.rv(e * c))
                               for g, e in zip(gammas, payoffs)))


class TestDynamicsUnitScaling:
    """Payoffs times 2^k and gammas times 2^-k scale the dynamics exactly."""

    @pytest.mark.parametrize("k", [-40, -20, 0, 10, 20, 30, 40])
    def test_profiles_scale_bit_for_bit(self, k):
        for seed in range(20):
            base = best_response_dynamics(_dyadic_market(np.random.default_rng([125, seed])))
            market = _dyadic_market(np.random.default_rng([125, seed]), 2.0**k)
            result = best_response_dynamics(market)
            assert result.converged
            assert (result.profiles / 2.0**k).tobytes() == base.profiles.tobytes()
            final = result.profiles[-1]
            gap = final - market.space.rows(nash_endowment(market).reported, "report")
            gap -= (gap @ market.space.probs)[:, None]
            assert np.abs(gap).max() <= 1e-9 * np.abs(final).max()


class TestSearchUnitScaling:
    """Payoffs and securities times 2^k and gammas times 2^-k scale the price
    and report searches exactly, as they do the dynamics."""

    @staticmethod
    def _drawn(seed, c=1.0):
        rng = np.random.default_rng([126, seed])
        market = _dyadic_market(rng, c)
        k = int(rng.integers(1, 3))
        securities = rng.integers(-512, 513, size=(k, market.space.n_states)) / 64.0
        return market, SecurityBasket(tuple(market.space.rvs(securities * c))), \
            int(rng.integers(market.n))

    @pytest.mark.parametrize("k", [-40, -20, 0, 10, 20, 30, 40])
    def test_argmax_phi(self, k):
        found = {}
        for c in (1.0, 2.0**k):
            for seed in range(20):
                market, basket, i = self._drawn(seed, c)
                others = [s for j, s in enumerate(truthful_schedules(market, basket)) if j != i]
                found[c, seed] = argmax_phi(market, i, basket, others)
                want = best_price_response(market, i, basket, others)
                assert np.abs(found[c, seed] - want).max() <= 1e-9 * np.abs(basket.payoffs).max()
        for seed in range(20):
            assert (found[2.0**k, seed] / 2.0**k).tobytes() == found[1.0, seed].tobytes()

    @pytest.mark.parametrize("k", [-40, -20, 0, 10, 20, 30, 40])
    def test_argmax_reported_utility(self, k):
        for seed in range(20):
            base_market, _, i = self._drawn(seed)
            market = self._drawn(seed, 2.0**k)[0]
            spec = CoefficientSearchSpec(basis=tuple(market.endowments()))
            found = argmax_reported_utility(market, i, spec).coefficients
            base_spec = CoefficientSearchSpec(basis=tuple(base_market.endowments()))
            base = argmax_reported_utility(base_market, i, base_spec).coefficients
            assert found.tobytes() == base.tobytes()
            want = best_endowment_response(market, i).payoffs
            gap = spec.combine(found).payoffs - want
            gap -= gap @ market.space.probs
            assert np.abs(gap).max() <= 1e-9 * np.abs(want).max()


class TestPercentageEquilibrium:
    def test_each_agent_best_responds_by_search(self):
        # the percentage game's equilibrium by its defining condition: against
        # the others' reports b*_j E_j, agent i's best multiple of E_i, found by
        # the oracle's search on deviation_gain and clamped to [0, kappa], is
        # nash_percentage's b*_i; the correlated pairs clamp some agents
        rng = np.random.default_rng(107)
        kappa = 10.0
        markets = [correlated_pair_market(
            float(10 ** rng.uniform(-3, 3)), 1.0, float(10 ** rng.uniform(-1, 1)),
            float(10 ** rng.uniform(-1, 1)), float(rng.uniform(-0.99, 0.99)))
            for _ in range(150)]
        markets += [make_market(rng) for _ in range(100)]
        b_stars = []
        for market in markets:
            b = nash_percentage(market, kappa=kappa).b_star
            profile = b[:, None] * market.payoffs
            for i in range(market.n):
                # a search over the one-row basis E_i
                gain = oracle_module._report_gain(market, i, profile, market.payoffs[i : i + 1])
                found = oracle_module._quadratic_argmax(gain, np.zeros(1))[0]
                assert np.clip(found, 0.0, kappa) == pytest.approx(b[i], rel=1e-9, abs=0.0)
            b_stars.extend(b)
        assert 0.0 in b_stars and kappa in b_stars


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
            assert np.allclose(found, want, rtol=0.0, atol=1e-9)

    def test_basket_on_another_space_raises(self):
        market, foreign, own = _mismatched_basket_market()
        others = truthful_schedules(market, own)[1:]
        with pytest.raises(SpaceMismatchError):
            argmax_phi(market, 0, foreign, others)
        np.testing.assert_allclose(
            argmax_phi(market, 0, own, others),
            best_price_response(market, 0, own, others), rtol=0.0, atol=1e-9,
        )

    def test_clearing_utility_definition(self):
        # at the others' demand q at a price p, agent i holds E_i - q.C and is
        # paid q.p: U(E_i - q.C) + q.p, with the price formed
        rng = np.random.default_rng(89)
        m = make_market(rng, m=4)
        basket = make_basket(rng, m.space, k=1)
        others = truthful_schedules(m, basket)[1:]
        for p in basket.mean_vector + rng.normal(scale=0.5, size=(5, 1)):
            q = np.sum([s.quantities(basket, p) for s in others], axis=0)
            position = m.space.rv(m.payoffs[0] - q @ basket.payoffs)
            want = mean(position) - m.gammas[0] * var(position) + q @ p
            assert clearing_utility(m, 0, basket, others, q) == pytest.approx(want, abs=1e-12)

    def test_riskless_endowments(self):
        # no endowment sets the search unit, so it steps in units of the
        # securities; the others' schedules still move the best price
        rng = np.random.default_rng(90)
        m = make_market(rng, m=4)
        m = Market.from_arrays(m.space, m.gammas, np.ones_like(m.payoffs))
        basket = make_basket(rng, m.space, k=2)
        others = [DemandSchedule(1.0, rng.normal(size=2)) for _ in range(m.n - 1)]
        np.testing.assert_allclose(argmax_phi(m, 0, basket, others),
                                   best_price_response(m, 0, basket, others),
                                   rtol=0.0, atol=1e-9)

    def test_far_apart_units(self):
        # max Var[E_i] / max Var[C_j] overflows; the unit's log does not
        rng = np.random.default_rng(91)
        drawn = make_market(rng, m=5)
        m = Market.from_arrays(drawn.space, drawn.gammas / 1e150, drawn.payoffs * 1e150)
        basket = SecurityBasket(tuple(m.space.rvs(rng.normal(size=(2, 5)) * 1e-10)))
        others = truthful_schedules(m, basket)[1:]
        want = best_price_response(m, 0, basket, others)
        found = argmax_phi(m, 0, basket, others)
        assert np.abs(found - want).max() <= 1e-12 * np.abs(want).max()

    def test_needs_another_schedule(self):
        market, _, own = _mismatched_basket_market()
        for search in (lambda: clearing_utility(market, 0, own, [], np.zeros(1)),
                       lambda: argmax_phi(market, 0, own, [])):
            with pytest.raises(ValueError, match="need the schedule of at least one other agent"):
                search()
