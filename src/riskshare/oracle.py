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
arrays. The mechanism reads agent i's own report R_i and the others' sum O
and nothing else, so one private kernel, `_gain`, gives agent i's gain from
such pairs: a report search evaluates its q trial reports against one O, and
`deviation_gain` forms each profile's O as a prefix plus a suffix sum of the
others' rows (`_others`), never as A - R_i, which cancels when R_i
dominates. Each public call centers each of its inputs once with
`core.centered`, the package's one rule: the market's payoffs once per run
or search, a profile stack once in `deviation_gain`, a search basis once,
a basket once per demand search or `clearing_utility` call. The kernels
(`_gain`, the demand objective, `_clearing_excess`, the dynamics' step,
basis and residual variances) take their moments as p-weighted products of
rows that are already centered, (X p) Y, a gain's two in one product, and
center nothing. Two searches value through a public definition, which
centers its own inputs once: the report search values its best report with
`deviation_gain`, and the price search's one stencil call is
`clearing_utility`, so each search makes a fixed number of `centered` calls
whatever its stencil size.

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
parts of O do not move the step. One kernel call measures every
agent, on n (q + 2k^2) pairs of m-vectors that name the agent of each: per
agent its stencil with O = 0 and its gradient points with O = b_a for each
row, which check its curvature and give its map, exact for every profile.
All n curvatures come from one `eigh` on the stacked Hessians. A round, a
Gauss-Seidel sweep of the maps, is then affine in the agents' stacked span
coefficients; it is folded once per run into one affine map, and the rounds
apply it in blocks of up to 16, each block's profiles formed in one product
with the basis and its steps measured in one product, and make no
objective call. One more call, on every agent's gradient points with its own
O from the final profile, gives the run's residual, the largest move any
agent would still make, so the final profile is checked against the
objective itself: 2 calls per run, and no stack of whole profiles, so a run
holds O(nmk^2) values besides the folded round. The run builds no object per
step: its result holds the profiles as one array and each round's largest
step std, and builds the trajectory's `Rv`s when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import (
    SV_RATIO_MIN, Market, ProbSpace, Rv, SecurityBasket, _check_agent, _check_count,
    _check_gamma, _check_schedules, centered, cross_cov, require_same_space,
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

    `hess` is one k x k Hessian or a stack of them, all taken by one `eigh`.
    Axes of negative curvature (eigenvectors of the Hessian) keep their
    curvatures; flat axes (within a relative `_CURVATURE_FLOOR`, as a
    dependent basis gives) get the curvature -inf, so their column of
    `axes / -curvatures` is 0 and the step is the minimum-norm maximizer.
    A positive curvature beyond the floor raises ValueError.
    """
    curvatures, axes = np.linalg.eigh(hess)
    # eigh sorts ascending, so the largest magnitude is at one end
    top = curvatures[..., -1]
    floor = _CURVATURE_FLOOR * np.maximum(-curvatures[..., 0], top)
    convex = top > floor
    if convex.any():
        raise ValueError(
            f"objective is not concave: curvature {top[convex].flat[0]:.3e} "
            f"exceeds the floor {floor[convex].flat[0]:.3e}"
        )
    return axes, np.where(curvatures < -floor[..., None], curvatures, -np.inf)


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
    shape that names the agent of each profile (`_agent_rows`). The
    mechanism reads a profile only through agent i's report R_i and the
    others' sum O, so the stack is centered once, each profile's pair is
    formed, O by `_others`, and valued by the kernel `_gain`.
    """
    p = market.space.probs
    reports = centered(p, market.profile(reports))[1]
    rows = _agent_rows(i, market.n, reports.shape[:-2])
    return _gain(market, centered(p, market.payoffs), i, reports[rows], _others(reports)[rows])


def _gain(market: Market, truth, i, own, others):
    """Agent i's gain from its own report `own` and the others' sum `others`,
    both centered; `truth` is the market's means and centered payoff rows, as
    `core.centered` gives them.

    Composed from the mechanism's definition only: the aggregate
    A = own + others is reshared, agent i receives the contract
    C = (gamma/gamma_i) A - own, and pays its market price
    E[C] - 2 gamma Cov(C, A). E[C] enters the utility and the price alike,
    so the gain is E[E_i] - gamma_i Var[E_i + C] + 2 gamma Cov(C, A), both
    moments from one p-weighted product of the stacked centered rows. `i`,
    an index or an index array, broadcasts against the leading axes of `own`
    and `others` (m-vectors on the state axis, last); one pair gives a float.
    """
    p, g, gi = market.space.probs, market.aggregate_gamma, market.gammas[i]
    cash, endowments = truth
    aggregate = own + others
    contract = (g / gi)[..., None] * aggregate - own
    rows = np.empty((3, *contract.shape))
    rows[0], rows[1], rows[2] = endowments[i] + contract, contract, aggregate
    spread, with_aggregate = np.vecdot(rows[:2] * p, rows[::2])
    return _value(cash[i] - gi * spread + 2.0 * g * with_aggregate)


def _others(reports: np.ndarray) -> np.ndarray:
    """Each row's others' sum: row i of the result is the sum of the rows
    j != i of the n x m `reports` (or of each profile of a stack), a prefix
    sum plus a suffix sum in O(nm). It is never the total less row i, which
    loses O's digits when row i dominates."""
    sums = np.zeros(reports.shape)
    np.add.accumulate(reports[..., :-1, :], axis=-2, out=sums[..., 1:, :])
    sums[..., :-1, :] += np.add.accumulate(reports[..., :0:-1, :], axis=-2)[..., ::-1, :]
    return sums


def _agent_rows(i, n: int, shape: tuple) -> tuple:
    """The index of each profile's report row i in a stack of `shape`.

    One index names the agent of every profile; an integer array of the
    stack's shape names one per profile. Every index must pass
    `_check_agent`, so bool, float and out-of-range entries raise ValueError;
    an array is tested at once, and entry by entry only to raise.
    """
    if not (isinstance(i, np.ndarray) and i.ndim):
        _check_agent(i, n)
        return ..., i, slice(None)
    if i.shape != shape:
        raise ValueError(
            f"agent indices of shape {i.shape} do not name one agent per "
            f"profile of a stack of shape {shape}")
    if not np.issubdtype(i.dtype, np.integer) or ((i < 0) | (i >= n)).any():
        for j in i.ravel().tolist():
            _check_agent(j, n)
    return *np.indices(shape, sparse=True), i


def _report_gain(market: Market, truth, i: int, reports: np.ndarray, basis: np.ndarray):
    """Agent i's gain as a function of its report's coefficients on `basis`,
    the others reporting their rows of the profile `reports`; `truth` is as
    `_gain` takes it, and the basis rows and the profile are centered.

    A stack of q coefficient vectors gives q trial reports, valued against
    the others' one sum O (`_others`) in one `_gain` call.
    """
    others = _others(reports)[i]

    def gain(coefficients):
        return _gain(market, truth, i, coefficients @ basis, others)

    return gain


def argmax_reported_utility(
    market: Market, i: int, spec: CoefficientSearchSpec
) -> SearchResult:
    """Numerically best report of agent i, as coefficients on `spec.basis`
    (on the market's space), while every other agent reports truthfully.
    The search centers the market's payoffs and the basis once. Its value is
    `deviation_gain` on the truthful profile with row i replaced by the best
    report."""
    _check_agent(i, market.n)
    p, payoffs = market.space.probs, market.space.rows(spec.basis, "report basis payoff")
    truth = centered(p, market.payoffs)
    coefficients = _quadratic_argmax(_report_gain(
        market, truth, i, truth[1], centered(p, payoffs)[1]), np.zeros(len(payoffs)))
    profile = market.payoffs.copy()
    profile[i] = coefficients @ payoffs
    return SearchResult(coefficients=coefficients, value=deviation_gain(market, i, profile))


def argmax_demand(
    agent_gamma: float,
    endowment: Rv,
    basket: SecurityBasket,
    p,
) -> np.ndarray:
    """Maximizer of U(a.C + endowment) - a.p over positions a, the utility
    E[x] - gamma Var[x] of x = a.C + endowment, from the securities' and the
    endowment's rows centered once."""
    _check_gamma(agent_gamma)
    require_same_space(endowment.space, basket.space, "basket is not on the endowment's space")
    gamma, p = float(agent_gamma), np.asarray(p, dtype=float)
    probs = basket.space.probs
    means, rows = centered(probs, np.concatenate([basket.payoffs, endowment.payoffs[None]]))

    def objective(a):
        x = a @ rows[:-1] + rows[-1]
        return a @ (means[:-1] - p) + means[-1] - gamma * np.vecdot(x * probs, x)

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


def _span_basis(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Basis (rows) of the span of the centered endowment rows, in the market's unit.

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
    root = np.sqrt(p)
    _, svals, vt = np.linalg.svd(rows * root, full_matrices=False)
    if not svals[0] > 0.0:
        raise ValueError("every endowment is riskless: the reports have no span to search")
    keep = svals > SV_RATIO_MIN * svals[0]
    return vt[keep] / root * 2.0 ** round(math.log2(svals[0]))


def _affine_responses(market: Market, truth, basis: np.ndarray):
    """Each agent's step map and its best response as an affine map of the others.

    Agent i's gain depends on the others' reports only through their sum O,
    as the mechanism reshares the aggregate, and it is quadratic in its own
    coefficients and O jointly. So its Hessian in its own coefficients is the
    same at every profile, and its gradient along a row b_a of the centered,
    p-orthogonal `basis` is affine in O's coefficient Cov(O, b_a) / Var[b_a]
    alone: cash and off-span parts of O do not move it. One `_gain` call
    measures every agent, on n (q + 2k^2) pairs of the agent's report and O:
    agent i's are its full stencil with O = 0 and its 2k gradient points
    +-b_a with O = b_a for each row, the same pairs for every agent. The
    stencils give the n curvatures in one `_concave_axes` call, folded with
    the gradient weights and the kept axes over their negated curvatures
    into each agent's 2k x k step map from the values at the gradient points
    to the best report's coefficients, all agents' in stacked products. The map
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
    # the trial reports and the others' sums, one row each per pair
    points = np.concatenate([trials, *[trials[gradient]] * k])
    others = np.concatenate([np.zeros_like(trials), basis.repeat(2 * k, axis=0)])
    values = _gain(market, truth, np.arange(n)[:, None], points, others)
    # (n, 1, .) @ (., .): per agent a vector-matrix product, a lone agent's bits
    axes, curvatures = _concave_axes(
        (values[:, None, :q] @ weights)[:, 0, k:].reshape(n, k, k))
    maps = weights[gradient, :k] @ (axes / -curvatures[:, None]) @ axes.mT
    responses = (values[:, None, gradient] @ maps)[:, 0]
    slopes = values[:, q:].reshape(n, k, 2 * k) @ maps - responses[:, None]
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
    before round 1, in one objective call on n (q + 2k^2) pairs, as an
    affine map of the others' span coefficients (`_affine_responses`). A
    round applies the maps in Gauss-Seidel order, so each agent sees the
    earlier agents' new reports; it is folded into one affine map of the
    stacked coefficients (`_folded_round`). The rounds run in blocks of up
    to `_BLOCK_ROUNDS`: the map steps the coefficients round by round, one
    product with the basis gives the block's payoff profiles, one
    p-weighted product the std of each round's steps between those profiles,
    and the run stops at the block's first converged round. Round 1 reads
    `init` only through its coefficients, so its cash and its parts off the
    span drop out. A round converges when no report moved by a standard
    deviation of `_DYNAMICS_TOL` times the basis rows' std or more, a stop
    in the market's own unit. Convergence is an empirical observation, not
    a guarantee; a non-convergent run is returned as data with `converged`
    false. Each round's largest step std is kept in `step_stds`. After the
    last round one more objective call, on every agent's 2k gradient points
    against its others' sum in the final profile, gives through the step maps
    the move each agent would still make, and the largest std of those moves
    is the `residual`: the final profile is checked against the objective
    itself, not against the measured maps. A run makes 2 objective calls,
    whatever its round count.
    """
    _check_count(rounds, "rounds", 0)
    p = market.space.probs
    n = market.n
    truth = centered(p, market.payoffs)
    basis = _span_basis(p, truth[1])
    k = len(basis)
    maps, responses, slopes = _affine_responses(market, truth, basis)
    shift, sweep = _folded_round(responses, slopes)
    basis_vars = np.vecdot(basis * p, basis)
    reports = truth[1] if init is None else market.centered_profile(init)
    # Cov(init, basis) / Var[basis]: reports and basis rows are centered
    coefficients = (reports @ (basis * p).T / basis_vars).ravel()
    profiles, step_vars = [reports[None]], [np.empty(0)]
    tol = _DYNAMICS_TOL**2 * basis_vars.max()
    converged = False
    left = rounds
    while left and not converged:
        stepped = np.empty((min(_BLOCK_ROUNDS, left), n * k))
        for row in stepped:
            np.dot(coefficients, sweep, out=row)
            row += shift
            coefficients = row
        block = stepped.reshape(-1, n, k) @ basis
        # each round's steps from the profile before it, taken on the payoffs
        steps = block - np.concatenate([profiles[-1][-1:], block[:-1]])
        block_vars = np.vecdot(steps * p, steps).max(axis=1)
        below = block_vars < tol
        converged = bool(below.any())
        cut = below.argmax() + 1 if converged else len(block)
        profiles.append(block[:cut])
        step_vars.append(block_vars[:cut])
        left -= cut
    reports = profiles[-1][-1]
    # agent i's 2k gradient points +-basis, against its others' sum
    values = _gain(market, truth, np.arange(n)[:, None], np.concatenate([basis, -basis]),
                   _others(reports)[:, None])
    moves = (values[:, None] @ maps)[:, 0] @ basis - reports
    profiles, step_stds = np.concatenate(profiles), np.sqrt(np.concatenate(step_vars))
    for arr in (profiles, step_stds):
        arr.flags.writeable = False
    residual = float(np.sqrt(np.vecdot(moves * p, moves).max()))
    return DynamicsResult(market.space, profiles, step_stds, converged, residual)


# ---------------------------------------------------------------------------
# Price-manipulation search


def _clearing_excess(probs: np.ndarray, securities: np.ndarray, schedules, supplied):
    """u = E[C] - p at the price where the others' schedules demand q in sum,
    given the centered securities rows and the payoff rows q.C: they pool to
    gamma_o = 1 / sum_j 1/gamma_j and c_o = sum_j c_j, so
    u = 2 gamma_o (Cov(C, q.C) + c_o), no price formed. The schedules are
    any objects exposing `gamma` and `c`, at least one, each c one entry per
    security (`core._check_schedules`)."""
    if not schedules:
        raise ValueError("need the schedule of at least one other agent")
    _check_schedules(schedules, len(securities))
    pooled = 1.0 / sum(1.0 / s.gamma for s in schedules)
    exposure = np.vecdot(securities * probs, supplied[..., None, :])
    return 2.0 * pooled * (exposure + sum(s.c for s in schedules))


def clearing_utility(market: Market, i: int, basket: SecurityBasket, schedules, q):
    """Agent i's utility when the others' summed demand is q, at the price
    that clears it (`_clearing_excess`).

    Agent i sells q.C for q.p, so its utility is
    E[E_i] - q.u - gamma_i Var[E_i - q.C], u = E[C] - p: every moment comes
    from the securities' rows and agent i's, centered in one call.
    `schedules` are the other agents' demand schedules. A k-vector q gives a
    float, a stack of them one value each. A basket on another space raises
    SpaceMismatchError.
    """
    _check_agent(i, market.n)
    require_same_space(market.space, basket.space, "basket is not on the market's space")
    probs = market.space.probs
    means, rows = centered(probs, np.concatenate([basket.payoffs, market.payoffs[i : i + 1]]))
    q = np.asarray(q, dtype=float)
    supplied = q @ rows[:-1]
    excess = _clearing_excess(probs, rows[:-1], schedules, supplied)
    position = rows[-1] - supplied
    spread = np.vecdot(position * probs, position)
    return _value(means[-1] - np.vecdot(q, excess) - market.gammas[i] * spread)


def _searched_demand(market: Market, i: int, basket: SecurityBasket, schedules) -> np.ndarray:
    """The others' summed demand at agent i's best clearing price, searched
    from 0 in steps of h = 2^round(log2(max_i Var[E_i] / max_j Var[C_j]) / 2),
    a quantity of the securities as risky as the largest endowment (1 when
    every endowment is riskless): a power of two, so the search changes no
    bit when the payoffs are scaled by one. The log is summed from the
    variances' binary exponents and mantissas, so no ratio overflows. The
    search's one objective call is `clearing_utility` on its whole stencil."""
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
    demand = _searched_demand(market, i, basket, schedules)
    means, securities = centered(market.space.probs, basket.payoffs)
    return means - _clearing_excess(market.space.probs, securities, schedules, demand @ securities)
