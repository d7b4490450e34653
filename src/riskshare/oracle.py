"""Brute-force verifiers for the closed-form engines.

Everything here recomputes optima by numeric search built directly on the
moment primitives, without importing any closed-form engine code. Every
objective is a mean-variance utility E[X] - gamma Var[X] of a payoff that is
affine in the searched report coefficients, basket position or clearing
price, so it is a concave quadratic in them. One derivative-free search,
`_quadratic_argmax`, serves all of them: central differences with unit steps
give the exact gradient and Hessian of a quadratic, and one Newton step lands
on the optimum. Its curvature half (`_concave_axes`) raises when the measured
curvature is not concave, so a wrong objective disagrees loudly instead of
returning a saddle point; the step moves along the axes it keeps. The search
evaluates its whole stencil of q = 1 + 2k + k(k+1)/2 points in one call, so
every objective takes a stack of points and returns one value per point, and
it takes the gradient and the Hessian from one product of those q values with
the stencil's fixed weight matrix. The objectives are evaluated on payoff
arrays: a report search evaluates a q x n x m stack of profiles, q copies of
the n x m profile with row i replaced by each trial report, in one
`deviation_gain` call, and every moment goes through `core.cross_cov`, a
deviation gain's two in one call.

Best responses live in the span of the basis payoffs (the objective strictly
worsens in any orthogonal direction), so searches run over span coefficients.
An orthogonal probe is kept in the tests rather than assumed here. The
best-response dynamics search over an orthonormal basis of the centered
endowments' span, so their Newton step stays well conditioned when the
endowments are linearly dependent. They measure each agent's best response
once per run, as an affine map of the others' summed report O: the gain
depends on the others only through O, since the aggregate is reshared, its
Hessian in the agent's own coefficients is the same at every profile, and
its gradient along a basis row b_a depends on O only through Cov(O, b_a),
so cash and off-span parts of O do not move the step. One objective call
per agent, on its stencil with O = 0 and its gradient points with O = b_a
for each row, checks the curvature and gives the map, which is exact for
every profile; the rounds apply the maps and make no objective call. One
more call per agent, on its gradient points around the final profile,
gives the run's residual, the largest move any agent would still make, so
the final profile is checked against the objective itself. The run builds
no object per step: its result holds the profiles as one array and each
round's largest step std, and builds the trajectory's `Rv`s when it is
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import (
    SV_RATIO_MIN, Market, ProbSpace, Rv, SecurityBasket, _check_agent, _check_gamma, centered,
    cross_cov, require_same_space,
)

# curvatures within this fraction of the largest are flat (rounding noise)
_CURVATURE_FLOOR = 1e-10
# the dynamics converge in a round whose report steps all have a smaller std
_DYNAMICS_TOL = 1e-12


def _value(values):
    """A float for one point, the array of values for a stack of points."""
    return float(values) if np.ndim(values) == 0 else values


def _mv_value(gamma: float, probs: np.ndarray, x: np.ndarray):
    """E[x] - gamma Var[x] of each payoff row (state axis last)."""
    return x @ probs - gamma * cross_cov(probs, x, x)


@cache
def _stencil(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-step stencil offsets in k dimensions and its derivative weights.

    The q = 1 + 2k + k(k+1)/2 offset rows are 0, +e_a, -e_a and e_a + e_b
    for the pairs a <= b. The q x (k + k^2) weights turn the stencil's values
    into the gradient (+-1/2 on the rows +-e_a) and the row-major k x k
    Hessian (1, -1, -1, 1 on the rows e_a + e_b, e_a, e_b, 0 for both
    entries (a, b) and (b, a); 1, -2, 1 on the diagonal). Read-only, built
    once per k.
    """
    unit = np.eye(k)
    a, b = np.triu_indices(k)
    offsets = np.concatenate([np.zeros((1, k)), unit, -unit, unit[a] + unit[b]])
    q = offsets.shape[0]
    grad = 0.5 * offsets
    grad[2 * k + 1 :] = 0.0
    hess = np.zeros((q, k, k))
    hess[0] = 1.0
    hess[1 : k + 1] = -(unit[:, :, None] + unit[:, None, :])
    pairs = np.arange(2 * k + 1, q)
    hess[pairs, a, b] = hess[pairs, b, a] = 1.0
    weights = np.concatenate([grad, hess.reshape(q, k * k)], axis=1)
    for arr in (offsets, weights):
        arr.flags.writeable = False
    return offsets, weights


def _concave_axes(hess) -> tuple[np.ndarray, np.ndarray]:
    """The curvature half of the Newton step: the axes it moves along.

    Axes of negative curvature (eigenvectors of the Hessian) are kept with
    their curvatures; flat axes (within a relative `_CURVATURE_FLOOR`, as a
    dependent basis gives) are dropped, so the step is the minimum-norm
    maximizer. A positive curvature beyond the floor raises ValueError.
    """
    curvatures, axes = np.linalg.eigh(hess)
    # eigh sorts ascending, so the largest magnitude is at one end
    floor = _CURVATURE_FLOOR * max(-curvatures[0], curvatures[-1])
    if curvatures[-1] > floor:
        raise ValueError(
            f"objective is not concave: curvature {curvatures[-1]:.3e} "
            f"exceeds the floor {floor:.3e}"
        )
    keep = curvatures < -floor
    return axes[:, keep], curvatures[keep]


def _quadratic_argmax(f, center) -> np.ndarray:
    """Maximizer of a concave quadratic f by one Newton step from `center`.

    Central differences with unit steps give the exact gradient and Hessian
    of a quadratic. f is called once, on the q x k stack of stencil points
    (`_stencil`), and returns their q values; one product with the stencil's
    weights gives both derivatives. The step runs along the axes that
    `_concave_axes` keeps, which raises ValueError for a curvature that is
    not concave.
    """
    center = np.asarray(center, dtype=float)
    k = center.size
    offsets, weights = _stencil(k)
    derivatives = f(center + offsets) @ weights
    axes, curvatures = _concave_axes(derivatives[k:].reshape(k, k))
    return center + axes @ ((derivatives[:k] @ axes) / -curvatures)


@dataclass(frozen=True, eq=False)
class CoefficientSearchSpec:
    """The basis payoffs a span-coefficient search runs over."""

    basis: tuple[Rv, ...]

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("search basis must be non-empty")
        object.__setattr__(self, "basis", basis)

    @cached_property
    def payoffs(self) -> np.ndarray:
        """The basis as a k x m payoff matrix; a basis that mixes spaces raises."""
        return self.basis[0].space.rows(self.basis, "report basis payoff")

    def combine(self, coefficients) -> Rv:
        """The payoff sum_j coefficients[j] basis[j]."""
        coefficients = np.asarray(coefficients, dtype=float)
        return Rv(self.basis[0].space, coefficients @ self.payoffs)


@dataclass(frozen=True, eq=False)
class SearchResult:
    coefficients: np.ndarray
    value: float


def deviation_gain(market: Market, i: int, reports):
    """Agent i's utility when the sharing mechanism runs on `reports`.

    `reports` is a list of n `Rv`, the equal n x m payoff matrix (a float is
    returned) or a q x n x m stack of profiles (q values), as `Market.profile`
    checks them. Composed from the mechanism's definition only: the aggregate
    A of reports is reshared, agent i receives the contract C = (gamma/gamma_i)
    A - report_i, and pays its market price E[C] - 2 gamma Cov(C, A). E[C]
    enters the utility and the price alike, so the gain is
    E[E_i] - gamma_i Var[E_i + C] + 2 gamma Cov(C, A), both moments from one
    `cross_cov` call on the stacked pairs.
    """
    _check_agent(i, market.n)
    reports = market.profile(reports)
    p = market.space.probs
    g = market.aggregate_gamma
    gi = market.gammas[i]
    own = market.payoffs[i]
    aggregate = reports.sum(axis=-2)
    contract = (g / gi) * aggregate - reports[..., i, :]
    held = own + contract
    spread, with_aggregate = cross_cov(
        p, np.array([held, contract]), np.array([held, aggregate]))
    return _value(own @ p - gi * spread + 2.0 * g * with_aggregate)


def _report_gain(market: Market, i: int, reports: np.ndarray, basis: np.ndarray):
    """Agent i's gain as a function of its report's coefficients on `basis`.

    A stack of q coefficient vectors gives q copies of the profile `reports`
    with row i replaced by each trial report, evaluated in one
    `deviation_gain` call; `reports` is not written.
    """

    def gain(coefficients):
        trial = coefficients @ basis
        if trial.ndim == 1:
            profiles = reports.copy()
        else:
            profiles = np.repeat(reports[None], len(trial), axis=0)
        profiles[..., i, :] = trial
        return deviation_gain(market, i, profiles)

    return gain


def argmax_reported_utility(
    market: Market, i: int, spec: CoefficientSearchSpec
) -> SearchResult:
    """Numerically best report of agent i, as coefficients on `spec.basis`
    (on the market's space), while every other agent reports truthfully."""
    _check_agent(i, market.n)
    basis = market.space.rows(spec.basis, "report basis payoff")
    gain = _report_gain(market, i, market.payoffs, basis)
    coefficients = _quadratic_argmax(gain, np.zeros(len(spec.basis)))
    return SearchResult(coefficients=coefficients, value=gain(coefficients))


def argmax_demand(
    agent_gamma: float,
    endowment: Rv,
    basket: SecurityBasket,
    p,
) -> np.ndarray:
    """Maximizer of U(a.C + endowment) - a.p over positions a."""
    _check_gamma(agent_gamma)
    require_same_space(endowment.space, basket.space, "basket is not on the endowment's space")
    p = np.asarray(p, dtype=float)
    probs = basket.space.probs

    def objective(a):
        x = a @ basket.payoffs + endowment.payoffs
        return _mv_value(agent_gamma, probs, x) - a @ p

    return _quadratic_argmax(objective, np.zeros(basket.k))


# ---------------------------------------------------------------------------
# Sequential negotiation dynamics


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """The report profiles of a dynamics run and the size of each round's step."""

    space: ProbSpace
    profiles: np.ndarray  # read-only (rounds_run + 1) x n x m, the start first
    step_stds: np.ndarray  # read-only, each round's largest report step std
    converged: bool
    residual: float  # the largest std of a best-response move from the final profile

    @property
    def rounds_run(self) -> int:
        return len(self.step_stds)

    @cached_property
    def trajectory(self) -> list[list[Rv]]:
        """The profiles as lists of n `Rv`s, built on first read."""
        return [self.space.rvs(profile) for profile in self.profiles]


def _span_basis(market: Market) -> np.ndarray:
    """Orthonormal basis (rows) of the centered endowments' span.

    Orthonormal under the probability inner product E[xy]: the rows are the
    right singular vectors of centered * sqrt(p) with a singular value above
    the relative floor SV_RATIO_MIN, divided back by sqrt(p). Dropping the
    others discards the directions along which dependent endowments cancel.
    """
    root = np.sqrt(market.space.probs)
    _, svals, vt = np.linalg.svd(
        centered(market.space.probs, market.payoffs) * root, full_matrices=False
    )
    keep = svals > SV_RATIO_MIN * svals[0]
    return vt[keep] / root


def _affine_responses(market: Market, basis: np.ndarray):
    """Each agent's step map and its best response as an affine map of the others.

    Agent i's gain depends on the others' reports only through their sum O,
    as the mechanism reshares the aggregate, and it is quadratic in its own
    coefficients and O jointly. So its Hessian in its own coefficients is the
    same at every profile, and its gradient along a row b_a of the centered,
    p-orthonormal `basis` is affine in Cov(O, b_a) alone: cash and off-span
    parts of O do not move it. One `deviation_gain` call per agent measures
    it all, on its full stencil with O = 0 and its 2k gradient points +-e_a
    with O = b_a for each row. The stencil gives the curvature
    (`_concave_axes`), folded with the gradient weights, the kept axes over
    their negated curvatures and the basis into the 2k x m step map from the
    values at the gradient points to the best report. The map gives the
    response c_i to O = 0 and its change J_i[a] per unit of Cov(O, b_a), so
    agent i's best response to any O is c_i + Cov(O, basis) J_i. Returns the
    lists of step maps, c_i and J_i (k x m).
    """
    k = len(basis)
    offsets, weights = _stencil(k)
    trials = offsets @ basis  # rows 1 to 2k, the gradient points, are +-basis
    gradient = slice(1, 2 * k + 1)
    q = len(trials)
    # agent i's trial reports and the others' sum, one row each per profile
    points = np.concatenate([trials, np.tile(trials[gradient], (k, 1))])
    others = np.concatenate([np.zeros_like(trials), np.repeat(basis, 2 * k, axis=0)])
    maps, responses, slopes = [], [], []
    for i in range(market.n):
        stack = np.zeros((len(points), *market.payoffs.shape))
        stack[:, i] = points
        stack[:, (i + 1) % market.n] = others
        values = deviation_gain(market, i, stack)
        axes, curvatures = _concave_axes((values[:q] @ weights)[k:].reshape(k, k))
        maps.append(weights[gradient, :k] @ (axes / -curvatures) @ axes.T @ basis)
        responses.append(values[gradient] @ maps[i])
        slopes.append(values[q:].reshape(k, 2 * k) @ maps[i] - responses[i])
    return maps, responses, slopes


def best_response_dynamics(
    market: Market,
    init=None,
    rounds: int = 200,
) -> DynamicsResult:
    """Round-robin best-response iteration on the reported endowments.

    From `init`, one profile (the truth by default), each agent in turn takes
    its exact best response on the span basis, the Newton step from the
    origin. Each agent's response is measured once, before round 1, as an
    affine map of the others' summed report O (`_affine_responses`); a round
    applies the maps in Gauss-Seidel order, so each agent sees the earlier
    agents' new reports. A round converges when no report moved by a
    standard deviation of `_DYNAMICS_TOL` or more. Convergence is an
    empirical observation, not a guarantee; a non-convergent run is returned
    as data with `converged` false. Each round's largest step std is kept in
    `step_stds`. After the last round each agent searches once more from the
    final profile, with one `deviation_gain` call on its 2k gradient points
    times its step map, and the largest std of the move any agent would
    still make is the `residual`: the final profile is checked against the
    objective itself, not against the measured maps.
    """
    p = market.space.probs
    basis = _span_basis(market)
    maps, responses, slopes = _affine_responses(market, basis)
    covs = (basis * p).T  # O @ covs is Cov(O, basis): the basis rows are centered
    reports = market.centered_profile(market.payoffs if init is None else init)
    profiles, step_vars = [reports], []
    converged = False
    for _ in range(rounds):
        reports = reports.copy()
        for i in range(market.n):
            others = reports.sum(axis=0) - reports[i]
            reports[i] = responses[i] + (others @ covs) @ slopes[i]
        # the basis rows are centered, so this removes rounding only
        reports = centered(p, reports)
        steps = reports - profiles[-1]
        profiles.append(reports)
        step_vars.append(cross_cov(p, steps, steps).max())
        if step_vars[-1] < _DYNAMICS_TOL**2:
            converged = True
            break
    points = np.concatenate([basis, -basis])  # the stencil's gradient points
    stack = np.repeat(reports[None], len(points), axis=0)
    moves = np.empty_like(reports)
    for i in range(market.n):
        stack[:, i] = points
        moves[i] = deviation_gain(market, i, stack) @ maps[i] - reports[i]
        stack[:, i] = reports[i]
    profiles, step_stds = np.array(profiles), np.sqrt(step_vars)
    for arr in (profiles, step_stds):
        arr.flags.writeable = False
    residual = float(np.sqrt(cross_cov(p, moves, moves).max()))
    return DynamicsResult(market.space, profiles, step_stds, converged, residual)


# ---------------------------------------------------------------------------
# Price-manipulation search


def clearing_utility(market: Market, i: int, basket: SecurityBasket, schedules, p):
    """Agent i's utility absorbing the others' demand at price p.

    `schedules` are the other agents' demand schedules, any objects exposing
    quantities(basket, p), affine in p. A price vector gives a float, a q x k
    stack of prices q values. A basket on another space raises
    SpaceMismatchError.
    """
    _check_agent(i, market.n)
    require_same_space(market.space, basket.space, "basket is not on the market's space")
    p = np.asarray(p, dtype=float)
    supplied = sum(s.quantities(basket, p) for s in schedules)
    position = market.payoffs[i] - supplied @ basket.payoffs
    utility = _mv_value(market.gammas[i], market.space.probs, position)
    return _value(utility + np.vecdot(supplied, p))


def argmax_phi(
    market: Market,
    i: int,
    basket: SecurityBasket,
    schedules,
) -> np.ndarray:
    """Maximizer of the clearing utility over prices, searched from the
    securities' means; a basket on another space raises in `clearing_utility`."""
    _check_agent(i, market.n)

    def objective(p):
        return clearing_utility(market, i, basket, schedules, p)

    return _quadratic_argmax(objective, basket.mean_vector)
