"""Brute-force verifiers for the closed-form engines.

Everything here recomputes optima by generic numeric search built directly on
the moment primitives, without importing any closed-form engine code. The
searches stay brute force (line searches, grids, Nelder-Mead, finite
differences) because they exist to disagree loudly when a closed form is
wrong. Their objectives are evaluated on payoff arrays: a report profile is
one n x m matrix whose row i a search overwrites in place, and every moment
goes through `core.cross_cov`.

Best responses live in the span of the basis payoffs (the objective strictly
worsens in any orthogonal direction), so searches run over span coefficients.
An orthogonal probe is kept in the tests rather than assumed here. The
best-response dynamics search over an orthonormal basis of the centered
endowments' span, so their Newton step stays well conditioned when the
endowments are linearly dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

from .core import SV_RATIO_MIN, Market, Rv, SecurityBasket, centered, cross_cov

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _rows(reports) -> np.ndarray:
    """A report profile as an n x m payoff matrix (arrays pass through)."""
    if isinstance(reports, np.ndarray):
        return reports
    return np.stack([r.payoffs for r in reports])


def _mv_value(gamma: float, probs: np.ndarray, x: np.ndarray):
    """E[x] - gamma Var[x] of a payoff row."""
    return x @ probs - gamma * cross_cov(probs, x, x)


@dataclass(frozen=True, eq=False)
class CoefficientSearchSpec:
    """Search box and refinement control for span-coefficient optimization."""

    basis: tuple[Rv, ...]
    bounds: tuple[tuple[float, float], ...] = ()
    sweeps: int = 60
    tol: float = 1e-8
    grid_points: int = 17
    refinement_depth: int = 3

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("search basis must be non-empty")
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        if not bounds:
            bounds = tuple((-10.0, 10.0) for _ in basis)
        if len(bounds) != len(basis):
            raise ValueError("need one bound interval per basis element")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError("bounds must be finite non-empty intervals")
        if self.refinement_depth < 1:
            raise ValueError("refinement depth must be at least 1")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bounds", bounds)

    @cached_property
    def payoffs(self) -> np.ndarray:
        """The basis as a k x m payoff matrix."""
        return np.stack([b.payoffs for b in self.basis])

    def combine(self, coefficients) -> Rv:
        """The payoff sum_j coefficients[j] basis[j]."""
        coefficients = np.asarray(coefficients, dtype=float)
        return Rv(self.basis[0].space, coefficients @ self.payoffs)


@dataclass(frozen=True, eq=False)
class SearchResult:
    coefficients: np.ndarray
    value: float
    at_bound: bool


def deviation_gain(market: Market, i: int, reports) -> float:
    """Agent i's utility when the sharing mechanism runs on `reports`.

    `reports` is a list of n `Rv` or the equal n x m payoff matrix. Composed
    from the mechanism's definition only: the aggregate of reports is
    reshared, agent i receives (gamma/gamma_i) aggregate - report_i, and
    pays its market price E[.] - 2 gamma Cov(., aggregate).
    """
    reports = _rows(reports)
    p = market.space.probs
    g = market.aggregate_gamma
    gi = market.gammas[i]
    aggregate = reports.sum(axis=0)
    contract = (g / gi) * aggregate - reports[i]
    cash = contract @ p - 2.0 * g * cross_cov(p, contract, aggregate)
    return float(_mv_value(gi, p, market.payoffs[i] + contract) - cash)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _box_clip_range(x, d, bounds) -> float:
    """Largest t >= 0 keeping x + t d inside the box (capped at 50)."""
    t_max = 50.0
    for xj, dj, (lo, hi) in zip(x, d, bounds):
        if dj > 0.0:
            t_max = min(t_max, (hi - xj) / dj)
        elif dj < 0.0:
            t_max = min(t_max, (lo - xj) / dj)
    return max(t_max, 0.0)


def _line_max(objective, x, d, bounds, tol):
    """Golden-section maximize along x + t d, t confined to the box."""
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        return x
    t_lo = -_box_clip_range(x, -d, bounds)
    t_hi = _box_clip_range(x, d, bounds)
    if t_hi <= t_lo:
        return x
    t = _golden_max(lambda t: objective(x + t * d), t_lo, t_hi, tol / norm)
    return x + t * d


def _coordinate_ascent(
    objective, spec: CoefficientSearchSpec, start=None
) -> SearchResult:
    """Derivative-free ascent by golden-section line searches.

    Coordinate-descent cycles augmented with each cycle's displacement
    direction (Powell's conjugate-direction scheme); the extra directions
    remove the zigzagging plain coordinate descent exhibits on correlated
    quadratics and make it terminate in a handful of cycles there.
    """
    n = len(spec.bounds)
    if start is None:
        x = np.array([0.5 * (lo + hi) for lo, hi in spec.bounds])
    else:
        x = np.asarray(start, dtype=float).copy()
    directions = [np.eye(n)[j] for j in range(n)]
    for _ in range(spec.sweeps):
        x0 = x.copy()
        f_before = objective(x)
        best_gain, best_idx = -np.inf, 0
        for idx, d in enumerate(directions):
            f_at = objective(x)
            x = _line_max(objective, x, d, spec.bounds, spec.tol)
            gain = objective(x) - f_at
            if gain > best_gain:
                best_gain, best_idx = gain, idx
        displacement = x - x0
        cycle_gain = objective(x) - f_before
        if (
            float(np.max(np.abs(displacement))) < spec.tol
            or cycle_gain < 1e-15 * (1.0 + abs(f_before))
        ):
            break
        norm = float(np.linalg.norm(displacement))
        if norm > 0.0:
            x = _line_max(objective, x, displacement, spec.bounds, spec.tol)
            directions[best_idx] = displacement / norm
    at_bound = any(
        min(x[j] - lo, hi - x[j]) < 10.0 * spec.tol
        for j, (lo, hi) in enumerate(spec.bounds)
    )
    return SearchResult(coefficients=x, value=float(objective(x)), at_bound=at_bound)


def argmax_reported_utility(
    market: Market,
    i: int,
    spec: CoefficientSearchSpec,
    others=None,
) -> SearchResult:
    """Numerically best report of agent i, as coefficients on `spec.basis`.

    `others` is a full-length profile of the other agents' reports (slot i is
    ignored); by default everyone else reports truthfully.
    """
    reports = np.array(market.payoffs if others is None else _rows(others))
    basis = spec.payoffs

    def objective(coefficients):
        reports[i] = coefficients @ basis
        return deviation_gain(market, i, reports)

    return _coordinate_ascent(objective, spec)


def argmax_demand(
    agent_gamma: float,
    endowment: Rv,
    basket: SecurityBasket,
    p,
    spec: CoefficientSearchSpec | None = None,
) -> np.ndarray:
    """Grid-plus-refinement maximizer of U(a.C + endowment) - a.p over a."""
    p = np.asarray(p, dtype=float)
    if spec is None:
        spec = CoefficientSearchSpec(basis=basket.securities)
    probs = basket.space.probs

    def objective(a):
        x = a @ basket.payoffs + endowment.payoffs
        return float(_mv_value(agent_gamma, probs, x) - a @ p)

    # coarse grid passes per coordinate localize the basin; the line-search
    # ascent then refines from there over the full box
    x = np.array([0.5 * (lo + hi) for lo, hi in spec.bounds])
    for _ in range(spec.refinement_depth):
        for j, (lo, hi) in enumerate(spec.bounds):
            grid = np.linspace(lo, hi, spec.grid_points)
            vals = []
            for t in grid:
                y = x.copy()
                y[j] = t
                vals.append(objective(y))
            x[j] = grid[int(np.argmax(vals))]
    return _coordinate_ascent(objective, spec, start=x).coefficients


# ---------------------------------------------------------------------------
# Sequential negotiation dynamics


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    trajectory: list  # list of report profiles (lists of Rv)
    rounds_run: int
    converged: bool


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


def _quadratic_step(market: Market, i: int, reports: np.ndarray, basis) -> np.ndarray:
    """Exact single-agent best response via one Newton step on the gain.

    The gain is quadratic in the span coefficients, so a finite-difference
    gradient and Hessian are exact and one solve lands on the optimum. The
    step overwrites row i of `reports` with its trial points and returns the
    centered best report, leaving row i for the caller to set.
    """
    n = len(basis)
    unit = np.eye(n)

    def f(c):
        reports[i] = c @ basis
        return deviation_gain(market, i, reports)

    f0 = f(np.zeros(n))
    grad = np.empty(n)
    hess = np.empty((n, n))
    fe = np.empty(n)
    for a in range(n):
        fe[a] = f(unit[a])
        grad[a] = 0.5 * (fe[a] - f(-unit[a]))
    for a in range(n):
        for b in range(a, n):
            hess[a, b] = hess[b, a] = f(unit[a] + unit[b]) - fe[a] - fe[b] + f0
    # on an orthonormal basis the Hessian is a negative multiple of the
    # identity up to rounding, so a plain solve is well conditioned
    coef = np.linalg.solve(hess, -grad)
    return centered(market.space.probs, coef @ basis)


def best_response_dynamics(
    market: Market,
    init=None,
    rounds: int = 200,
    tol: float = 1e-12,
) -> DynamicsResult:
    """Round-robin best-response iteration on the reported endowments.

    Convergence is an empirical observation, not a guarantee; a
    non-convergent trajectory is returned as data with `converged` false.
    """
    p = market.space.probs
    reports = centered(p, market.payoffs if init is None else _rows(init))
    basis = _span_basis(market)
    trajectory = [market.space.rvs(reports)]
    converged = False
    rounds_run = rounds
    for r in range(1, rounds + 1):
        moved = 0.0
        for i in range(market.n):
            previous = reports[i].copy()
            best = _quadratic_step(market, i, reports, basis)
            step = best - previous
            moved = max(moved, float(cross_cov(p, step, step)))
            reports[i] = best
        trajectory.append(market.space.rvs(reports))
        if moved < tol**2:
            converged = True
            rounds_run = r
            break
    return DynamicsResult(
        trajectory=trajectory, rounds_run=rounds_run, converged=converged
    )


# ---------------------------------------------------------------------------
# Price-manipulation search


def clearing_utility(market: Market, i: int, basket: SecurityBasket, schedules, p):
    """Agent i's utility absorbing the others' demand at price p.

    `schedules` are the other agents' demand schedules, any objects exposing
    quantities(basket, p).
    """
    p = np.asarray(p, dtype=float)
    supplied = sum(s.quantities(basket, p) for s in schedules)
    position = market.payoffs[i] - supplied @ basket.payoffs
    utility = _mv_value(market.gammas[i], market.space.probs, position)
    return float(utility + supplied @ p)


def argmax_phi(
    market: Market,
    i: int,
    basket: SecurityBasket,
    schedules,
    starts: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Multistart Nelder-Mead maximizer of the clearing utility over prices."""
    rng = np.random.default_rng(seed)
    center = basket.mean_vector

    def negative(p):
        return -clearing_utility(market, i, basket, schedules, p)

    best_p, best_v = None, np.inf
    for s in range(starts):
        x0 = center if s == 0 else center + rng.normal(scale=1.0, size=basket.k)
        res = minimize(
            negative,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        if res.fun < best_v:
            best_v, best_p = res.fun, res.x
    return np.asarray(best_p)
