"""Brute-force verifiers for the closed-form engines.

Everything here recomputes optima by numeric search built directly on the
moment primitives, without importing any closed-form engine code. Every
objective is a mean-variance utility E[X] - gamma Var[X] of a payoff that is
affine in the searched report coefficients or basket position, or, in the
price search, of the position E_i - q.C that absorbs the others' summed
demand q, less q.(E[C] - p), where p, the price that clears q, is affine in
q: so it is a concave quadratic in them. The price search searches q and
forms p only when it returns it. One derivative-free search,
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
best-response dynamics search over a p-orthogonal basis of the centered
endowments' span, scaled to the market's payoff unit by a power of two, so
their Newton step stays well conditioned when the endowments are linearly
dependent, and a run takes the same steps and stops at the same round in
any unit. They measure each agent's best response once per run, as an
affine map of the others' summed report O: the gain depends on the others
only through O, since the aggregate is reshared, its Hessian in the agent's
own coefficients is the same at every profile, and its gradient along a
basis row b_a depends on O only through Cov(O, b_a), so cash and off-span
parts of O do not move the step. One objective call measures every
agent, on a stack of n (q + 2k^2) profiles that names the agent of each:
per agent its stencil with O = 0 and its gradient points with O = b_a for
each row, which check its curvature and give its map, exact for every
profile. A round, a Gauss-Seidel sweep of the maps, is then affine in the
agents' stacked span coefficients; it is folded once per run into one
affine map, and the rounds apply it in blocks of up to 16, each block's
profiles formed in one product with the basis and its steps measured in one
`cross_cov` call, and make no objective call. One more call, on every
agent's gradient points around the final profile, gives the run's
residual, the largest move any agent would still make, so the final
profile is checked against the objective itself: 2 calls per run. The run
builds no object per step: its result holds the profiles as one array and
each round's largest step std, and builds the trajectory's `Rv`s when it
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import (
    SV_RATIO_MIN, Market, ProbSpace, Rv, SecurityBasket, _check_agent, _check_count,
    _check_gamma, centered, cross_cov, require_same_space,
)

# curvatures within this fraction of the largest are flat (rounding noise)
_CURVATURE_FLOOR = 1e-10
# the dynamics converge in a round whose report steps all have a smaller std
_DYNAMICS_TOL = 1e-12
# the dynamics form and measure this many rounds at a time; a run from the
# truth takes 12.2 on average over the tests' 60 pinned markets
_BLOCK_ROUNDS = 16


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


def deviation_gain(market: Market, i, reports):
    """Agent i's utility when the sharing mechanism runs on `reports`.

    `reports` is a list of n `Rv`, the equal n x m payoff matrix (a float is
    returned) or a q x n x m stack of profiles (q values), as `Market.profile`
    checks them. `i` is one agent index, or an integer array of the stack's
    shape that names the agent of each profile (`_agent_rows`). Composed
    from the mechanism's definition only: the aggregate A of reports is
    reshared, agent i receives the contract C = (gamma/gamma_i) A - report_i,
    and pays its market price E[C] - 2 gamma Cov(C, A). E[C] enters the
    utility and the price alike, so the gain is
    E[E_i] - gamma_i Var[E_i + C] + 2 gamma Cov(C, A), both moments from one
    `cross_cov` call on the stacked pairs.
    """
    reports = market.profile(reports)
    rows = _agent_rows(i, market.n, reports.shape[:-2])
    p = market.space.probs
    g = market.aggregate_gamma
    gi = market.gammas[i]
    own = market.payoffs[i]
    aggregate = reports.sum(axis=-2)
    contract = (g / gi)[..., None] * aggregate - reports[rows]
    held = own + contract
    spread, with_aggregate = cross_cov(
        p, np.array([held, contract]), np.array([held, aggregate]))
    return _value(np.vecdot(own, p) - gi * spread + 2.0 * g * with_aggregate)


def _agent_rows(i, n: int, shape: tuple) -> tuple:
    """The index of each profile's report row i in a stack of `shape`.

    One index names the agent of every profile; an integer array of the
    stack's shape names one per profile. Every index must pass
    `_check_agent`, so bool, float and out-of-range entries raise ValueError.
    """
    if not (isinstance(i, np.ndarray) and i.ndim):
        _check_agent(i, n)
        return ..., i, slice(None)
    if i.shape != shape:
        raise ValueError(
            f"agent indices of shape {i.shape} do not name one agent per "
            f"profile of a stack of shape {shape}")
    for j in set(i.ravel().tolist()):
        _check_agent(j, n)
    return *np.indices(shape, sparse=True), i


def _report_gain(market: Market, i: int, reports: np.ndarray, basis: np.ndarray):
    """Agent i's gain as a function of its report's coefficients on `basis`.

    A stack of q coefficient vectors gives q copies of the profile `reports`
    with row i replaced by each trial report, evaluated in one
    `deviation_gain` call; `reports` is not written.
    """

    def gain(coefficients):
        trial = coefficients @ basis
        profiles = np.broadcast_to(reports, trial.shape[:-1] + reports.shape).copy()
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
    gamma, p = float(agent_gamma), np.asarray(p, dtype=float)
    probs = basket.space.probs

    def objective(a):
        x = a @ basket.payoffs + endowment.payoffs
        return _mv_value(gamma, probs, x) - a @ p

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
    """Basis (rows) of the centered endowments' span, in the market's unit.

    The rows are the right singular vectors of centered * sqrt(p) with a
    singular value above the relative floor SV_RATIO_MIN, divided back by
    sqrt(p), so they are orthogonal under the probability inner product
    E[xy]; dropping the others discards the directions along which dependent
    endowments cancel. Each is scaled to the std 2^round(log2 s_1), s_1 the
    largest singular value: a unit step in a coefficient is then a step of
    the market's own size, and as a power of two the scale changes no bit of
    the searches when the payoffs are scaled by one. A market whose every
    endowment is constant has no span, and raises ValueError.
    """
    root = np.sqrt(market.space.probs)
    _, svals, vt = np.linalg.svd(
        centered(market.space.probs, market.payoffs) * root, full_matrices=False
    )
    if not svals[0] > 0.0:
        raise ValueError("every endowment is riskless: the reports have no span to search")
    keep = svals > SV_RATIO_MIN * svals[0]
    return vt[keep] / root * 2.0 ** round(math.log2(svals[0]))


def _affine_responses(market: Market, basis: np.ndarray):
    """Each agent's step map and its best response as an affine map of the others.

    Agent i's gain depends on the others' reports only through their sum O,
    as the mechanism reshares the aggregate, and it is quadratic in its own
    coefficients and O jointly. So its Hessian in its own coefficients is the
    same at every profile, and its gradient along a row b_a of the centered,
    p-orthogonal `basis` is affine in O's coefficient Cov(O, b_a) / Var[b_a]
    alone: cash and off-span parts of O do not move it. One `deviation_gain`
    call measures every agent, on a stack of n (q + 2k^2) profiles with one
    agent index per profile: agent i's are its full stencil with O = 0
    and its 2k gradient points +-b_a with O = b_a for each row, so the call
    holds n times one agent's stack. Per agent, the stencil gives the
    curvature (`_concave_axes`), folded with the gradient weights and the
    kept axes over their negated curvatures into the 2k x k step map from the
    values at the gradient points to the best report's coefficients. The map
    gives the response c_i to O = 0 and its change J_i[a] per unit of O's
    coefficient a, so agent i's best response to others whose coefficients
    sum to y is (c_i + y J_i) @ basis. Returns the step maps (n x 2k x k),
    the c_i (n x k) and the J_i (n x k x k).
    """
    n, k = market.n, len(basis)
    offsets, weights = _stencil(k)
    trials = offsets @ basis  # rows 1 to 2k, the gradient points, are +-basis
    gradient = slice(1, 2 * k + 1)
    q = len(trials)
    # agent i's trial reports and the others' sum, one row each per profile
    points = np.concatenate([trials, np.tile(trials[gradient], (k, 1))])
    others = np.concatenate([np.zeros_like(trials), np.repeat(basis, 2 * k, axis=0)])
    # agent i's profiles are stack[i], with the others' sum in row i + 1
    agents = np.arange(n)
    stack = np.zeros((n, len(points), *market.payoffs.shape))
    stack[agents, :, agents] = points
    stack[agents, :, (agents + 1) % n] = others
    values = deviation_gain(
        market, np.repeat(agents, len(points)), stack.reshape(-1, *market.payoffs.shape)
    ).reshape(n, len(points))
    maps, responses, slopes = np.empty((n, 2 * k, k)), np.empty((n, k)), np.empty((n, k, k))
    for i in range(n):
        axes, curvatures = _concave_axes((values[i, :q] @ weights)[k:].reshape(k, k))
        maps[i] = weights[gradient, :k] @ (axes / -curvatures) @ axes.T
        responses[i] = values[i, gradient] @ maps[i]
        slopes[i] = values[i, q:].reshape(k, 2 * k) @ maps[i] - responses[i]
    return maps, responses, slopes


def _folded_round(responses: np.ndarray, slopes: np.ndarray):
    """A round of the dynamics as one affine map x -> h + x G.

    x is the profile's n x k coefficients, flattened. A round is one
    Gauss-Seidel sweep: each agent in turn takes c_i + (sum_(j != i) x_j) J_i,
    seeing the earlier agents' new coefficients. The sweep is affine in x, so
    one sweep over a stack of the zero state and the nk unit states gives h
    (the zero state's result) and G (row j: unit state j's result minus h).
    """
    n, k = responses.shape
    states = np.eye(n * k + 1, n * k, -1).reshape(-1, n, k)
    total = states.sum(axis=1)  # each state's coefficient sum, kept current
    for i in range(n):
        others = total - states[:, i]
        states[:, i] = responses[i] + others @ slopes[i]
        total = others + states[:, i]
    shift = states[0].ravel()
    return shift, states[1:].reshape(n * k, n * k) - shift


def best_response_dynamics(
    market: Market,
    init=None,
    rounds: int = 200,
) -> DynamicsResult:
    """Round-robin best-response iteration on the reported endowments.

    From `init`, one profile (the truth by default), each agent in turn takes
    its exact best response on the span basis (`_span_basis`), the Newton
    step from the origin, for at most `rounds` rounds, an integer of at
    least 0 (ValueError otherwise). Every agent's response is measured
    before round 1, in one objective call on n (q + 2k^2) profiles, as an
    affine map of the others' span coefficients (`_affine_responses`). A
    round applies the maps in Gauss-Seidel order, so each agent sees the
    earlier agents' new reports; it is folded into one affine map of the
    stacked coefficients (`_folded_round`). The rounds run in blocks of up
    to `_BLOCK_ROUNDS`: the map steps the coefficients round by round, one
    product with the basis gives the block's payoff profiles, one
    `cross_cov` call the std of each round's steps between those profiles,
    and the run stops at the block's first converged round. Round 1 reads
    `init` only through its coefficients, so its cash and its parts off the
    span drop out. A round converges when no report moved by a standard
    deviation of `_DYNAMICS_TOL` times the basis rows' std or more, a stop
    in the market's own unit. Convergence is an empirical observation, not
    a guarantee; a non-convergent run is returned as data with `converged`
    false. Each round's largest step std is kept in `step_stds`. After the
    last round one more objective call, on every agent's 2k gradient points
    around the final profile, gives through the step maps the move each
    agent would still make, and the largest std of those moves is the
    `residual`: the final profile is checked against the objective itself,
    not against the measured maps. A run makes 2 objective calls, whatever
    its round count.
    """
    _check_count(rounds, "rounds", 0)
    p = market.space.probs
    n, m = market.payoffs.shape
    basis = _span_basis(market)
    k = len(basis)
    maps, responses, slopes = _affine_responses(market, basis)
    shift, sweep = _folded_round(responses, slopes)
    basis_vars = cross_cov(p, basis, basis)
    reports = market.centered_profile(market.payoffs if init is None else init)
    # Cov(init, basis) / Var[basis]: reports and basis rows are centered
    coefficients = (reports @ (basis * p).T / basis_vars).ravel()
    profiles, step_vars = [reports[None]], [np.empty(0)]
    tol = _DYNAMICS_TOL**2 * basis_vars.max()
    converged = False
    left = rounds
    while left and not converged:
        stepped = np.empty((min(_BLOCK_ROUNDS, left), n * k))
        for r in range(len(stepped)):
            coefficients = shift + coefficients @ sweep
            stepped[r] = coefficients
        block = stepped.reshape(-1, n, k) @ basis
        # each round's steps from the profile before it, taken on the payoffs
        steps = block - np.concatenate([profiles[-1][-1:], block[:-1]])
        block_vars = cross_cov(p, steps, steps).max(axis=1)
        below = np.flatnonzero(block_vars < tol)
        converged = below.size > 0
        cut = below[0] + 1 if converged else len(block)
        profiles.append(block[:cut])
        step_vars.append(block_vars[:cut])
        left -= cut
    reports = profiles[-1][-1]
    # agent i's 2k gradient points +-basis in row i of the final profile
    stack = np.repeat(reports[None], n * 2 * k, axis=0)
    agents = np.arange(n)
    stack.reshape(n, 2 * k, n, m)[agents, :, agents] = np.concatenate([basis, -basis])
    values = deviation_gain(market, np.repeat(agents, 2 * k), stack)
    moves = (values.reshape(n, 1, 2 * k) @ maps)[:, 0] @ basis - reports
    profiles, step_stds = np.concatenate(profiles), np.sqrt(np.concatenate(step_vars))
    for arr in (profiles, step_stds):
        arr.flags.writeable = False
    residual = float(np.sqrt(cross_cov(p, moves, moves).max()))
    return DynamicsResult(market.space, profiles, step_stds, converged, residual)


# ---------------------------------------------------------------------------
# Price-manipulation search


def _clearing_excess(probs: np.ndarray, basket: SecurityBasket, schedules, supplied):
    """u = E[C] - p at the price where the others' schedules demand q in sum,
    given the payoff rows q.C: they pool to gamma_o = 1 / sum_j 1/gamma_j and
    c_o = sum_j c_j, so u = 2 gamma_o (Cov(C, q.C) + c_o), no price formed."""
    if not schedules:
        raise ValueError("need the schedule of at least one other agent")
    pooled = 1.0 / sum(1.0 / s.gamma for s in schedules)
    exposure = cross_cov(probs, basket.payoffs, supplied[..., None, :])
    return 2.0 * pooled * (exposure + sum(s.c for s in schedules))


def clearing_utility(market: Market, i: int, basket: SecurityBasket, schedules, q):
    """Agent i's utility when the others' summed demand is q, at the price
    that clears it (`_clearing_excess`).

    Agent i sells q.C for q.p, so its utility is
    E[E_i] - q.u - gamma_i Var[E_i - q.C], u = E[C] - p: every moment comes
    from `cross_cov` on payoff rows. `schedules` are the other agents' demand
    schedules, at least one, any objects exposing `gamma` and `c`. A k-vector
    q gives a float, a stack of them one value each. A basket on another
    space raises SpaceMismatchError.
    """
    _check_agent(i, market.n)
    require_same_space(market.space, basket.space, "basket is not on the market's space")
    probs = market.space.probs
    q = np.asarray(q, dtype=float)
    supplied = q @ basket.payoffs
    excess = _clearing_excess(probs, basket, schedules, supplied)
    position = market.payoffs[i] - supplied
    spread = cross_cov(probs, position, position)
    return _value(market.payoffs[i] @ probs - np.vecdot(q, excess) - market.gammas[i] * spread)


def _searched_demand(market: Market, i: int, basket: SecurityBasket, schedules) -> np.ndarray:
    """The others' summed demand at agent i's best clearing price, searched
    from 0 in steps of h = 2^round(log2(max_i Var[E_i] / max_j Var[C_j]) / 2),
    a quantity of the securities as risky as the largest endowment (1 when
    every endowment is riskless): a power of two, so the search changes no
    bit when the payoffs are scaled by one. The log is summed from the
    variances' binary exponents and mantissas, so no ratio overflows."""
    top, e = math.frexp(cross_cov(market.space.probs, market.payoffs, market.payoffs).max())
    bottom, f = math.frexp(cross_cov(basket.space.probs, basket.payoffs, basket.payoffs).max())
    unit = 2.0 ** round(0.5 * (e - f + math.log2(top / bottom))) if top else 1.0

    def objective(x):
        return clearing_utility(market, i, basket, schedules, unit * x)

    return unit * _quadratic_argmax(objective, np.zeros(basket.k))


def argmax_phi(
    market: Market,
    i: int,
    basket: SecurityBasket,
    schedules,
) -> np.ndarray:
    """Agent i's best clearing price against the others' schedules: E[C] - u
    at the searched demand (`_searched_demand`). A basket on another space
    raises in `clearing_utility`."""
    supplied = _searched_demand(market, i, basket, schedules) @ basket.payoffs
    return basket.mean_vector - _clearing_excess(market.space.probs, basket, schedules, supplied)
