"""Exact rational evaluation of every output the risk-aversion shares feed,
of a single deviator's best report and of the utility levels at the clearing
price of any schedule rows, the truthful ones included.

Each function reads a market's float inputs (probabilities, risk aversions,
payoffs, a basket's payoffs) as exact `fractions.Fraction`s and evaluates the
closed forms in the textbook way, differences included, so the engines'
outputs can be measured against their values from the same inputs: what is
left is the engines' own rounding. The probabilities are scaled to sum to 1
exactly; dyadic ones (`dyadic_probs`) already do, and are read as they are.
"""

from fractions import Fraction

import numpy as np


def dyadic_probs(rng, m: int, bits: int = 12) -> np.ndarray:
    """m positive probabilities that are multiples of 2^-bits and sum to 1 exactly."""
    cuts = np.sort(rng.choice(np.arange(1, 2**bits), size=m - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [2**bits]])) / 2.0**bits


def _rows(array) -> list:
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(array)]


def relative_error(got, want) -> float:
    """max |got - want| over max |want|: the error in units of the output's scale."""
    want = np.atleast_1d(np.array(want, dtype=object))
    got = np.atleast_1d(np.asarray(got, dtype=float))
    error = max(abs(Fraction(float(g)) - w) for g, w in zip(got.ravel(), want.ravel()))
    return float(error / max(abs(w) for w in want.ravel()))


def _solve(matrix, rhs) -> list:
    """x with matrix x = rhs, by exact Gaussian elimination."""
    system = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(len(system)):  # exact, so any nonzero pivot will do
        pivot = next(r for r in range(col, len(system)) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(len(system)):
            if r != col and system[r][col] != 0:
                factor = system[r][col] / system[col][col]
                system[r] = [a - factor * c for a, c in zip(system[r], system[col])]
    return [row[-1] / row[k] for k, row in enumerate(system)]


class ExactMarket:
    """A market's closed forms in rational arithmetic."""

    def __init__(self, market):
        probs = [Fraction(float(q)) for q in market.space.probs]
        self.p = [q / sum(probs) for q in probs]
        self.gammas = [Fraction(float(g)) for g in market.gammas]
        self.payoffs = _rows(market.payoffs)
        self.gamma = 1 / sum(1 / g for g in self.gammas)
        self.shares = [self.gamma / g for g in self.gammas]
        self.complements = [1 - s for s in self.shares]

    def mean(self, x):
        return sum(q * v for q, v in zip(self.p, x))

    def cov(self, x, y):
        mx, my = self.mean(x), self.mean(y)
        return sum(q * (a - mx) * (b - my) for q, a, b in zip(self.p, x, y))

    def total(self, rows):
        return [sum(column) for column in zip(*rows)]

    def pooling_gain(self, rows):
        """sum_i gamma_i Var[X_i] - gamma Var[sum_i X_i]."""
        total = self.total(rows)
        return (sum(g * self.cov(x, x) for g, x in zip(self.gammas, rows))
                - self.gamma * self.cov(total, total))

    def aggregate_gain(self):
        return self.pooling_gain(self.payoffs)

    def sharing_weights(self):
        """W_ij = s_i - [i = j]."""
        n = len(self.gammas)
        return [[s - (i == j) for j in range(n)] for i, s in enumerate(self.shares)]

    def nash_reports(self, rows):
        """The Nash aggregate M = sum_i w_i x_i, w_i = (1 - s_i) / (1 - sum_j s_j^2),
        and the reports B*_i = (1 - s_i) x_i + s_i^2 M of rows x."""
        norm = 1 - sum(s * s for s in self.shares)
        weighted = [[c / norm * v for v in x] for c, x in zip(self.complements, rows)]
        aggregate = self.total(weighted)
        reports = [[c * v + s * s * a for v, a in zip(x, aggregate)]
                   for s, c, x in zip(self.shares, self.complements, rows)]
        return aggregate, reports

    def sharing_rule(self, rows):
        """The contracts (gamma/gamma_i) sum_j x_j - x_i for report rows x."""
        total = self.total(rows)
        return [[s * a - v for a, v in zip(total, x)] for s, x in zip(self.shares, rows)]

    def mechanism_gains(self, reports):
        """gain_i = 2 gamma Cov(A, c_i) - gamma_i (2 Cov(E_i, c_i) + Var[c_i]), A = sum_j R_j."""
        total = self.total(reports)
        return [2 * self.gamma * self.cov(total, c) - g * (2 * self.cov(x, c) + self.cov(c, c))
                for g, x, c in zip(self.gammas, self.payoffs, self.sharing_rule(reports))]

    def nash_endowment(self):
        """The endowment game's aggregate, reports, contracts and inefficiency."""
        aggregate, reports = self.nash_reports(self.payoffs)
        held = [[e - b for e, b in zip(x, row)] for x, row in zip(self.payoffs, reports)]
        return aggregate, reports, self.sharing_rule(reports), self.pooling_gain(held)

    def response_coefficients(self):
        """gamma_i/(gamma_i + gamma) and gamma^2/(gamma_i^2 - gamma^2)."""
        g = self.gamma
        return ([gi / (gi + g) for gi in self.gammas],
                [g * g / (gi * gi - g * g) for gi in self.gammas])

    def percentage_responses(self, b):
        """R_i(b) = own_i + other_i sum_{j != i} Cov(E_i, E_j) b_j / Var[E_i]."""
        own, other = self.response_coefficients()
        rows, b = self.payoffs, [Fraction(v) for v in b]
        return [o + t * sum(self.cov(x, y) * v for j, (y, v) in enumerate(zip(rows, b)) if j != i)
                / self.cov(x, x) for i, (o, t, x) in enumerate(zip(own, other, rows))]

    def percentage_on_active_set(self, b, kappa: float):
        """The percentage equilibrium on the active set of multiples b.

        Agents with b_i = 0 or b_i = kappa stay there, and b_i = R_i(b) is
        solved for the others (F) by exact Gaussian elimination: R is affine,
        so b_F - (R(b) - R(b with b_F = 0))_F = R(b with b_F = 0)_F.
        """
        kappa = Fraction(float(kappa))
        base = [Fraction(float(v)) if v in (0.0, kappa) else Fraction(0) for v in b]
        free = [i for i, v in enumerate(b) if v not in (0.0, kappa)]
        rhs = self.percentage_responses(base)
        shifted = {i: self.percentage_responses([v + (j == i) for j, v in enumerate(base)])
                   for i in free}  # R(base + e_i), R's column i added to rhs
        matrix = [[(k == i) - (shifted[i][k] - rhs[k]) for i in free] for k in free]
        for i, v in zip(free, _solve(matrix, [rhs[k] for k in free])):
            base[i] = v
        return base

    def price_schedules(self, basket_payoffs):
        """The price game's schedules: the Nash report map of the exposures Cov(E_i, C_j)."""
        return self.nash_reports(self.exposures(basket_payoffs))[1]

    def best_report(self, i: int):
        """B*_i = gamma_i/(gamma_i + gamma) E_i + gamma^2/(gamma_i^2 - gamma^2) sum_{j != i} E_j,
        centered."""
        own, other = self.response_coefficients()
        rest = self.total([x for j, x in enumerate(self.payoffs) if j != i])
        report = [own[i] * e + other[i] * r for e, r in zip(self.payoffs[i], rest)]
        mean = self.mean(report)
        return [v - mean for v in report]

    def best_percentage(self, i: int):
        """The projection Cov(E_i, B*_i) / Var[E_i] of the best report on E_i, unclamped."""
        x = self.payoffs[i]
        return self.cov(x, self.best_report(i)) / self.cov(x, x)

    def best_demand(self, i: int, basket_payoffs):
        """Cov(C_j, B*_i) for each security C_j: the best demand schedule's vector."""
        best = self.best_report(i)
        return [self.cov(c, best) for c in _rows(basket_payoffs)]

    def clearing_price(self, basket_payoffs, rows):
        """E[C] - 2 gamma sum_j rows_j: the price that clears schedule rows."""
        return [self.mean(c) - 2 * self.gamma * a
                for c, a in zip(_rows(basket_payoffs), self.total(rows))]

    def best_price(self, i: int, basket_payoffs):
        """p_hat_i: the clearing price of the truthful schedule rows with row i
        the best demand schedule's."""
        rows = self.exposures(basket_payoffs)
        rows[i] = self.best_demand(i, basket_payoffs)
        return self.clearing_price(basket_payoffs, rows)

    def autarky_scale(self, i: int):
        """max(|E[E_i]|, gamma_i Var[E_i]): the size of the terms of agent i's utility."""
        x = self.payoffs[i]
        return max(abs(self.mean(x)), self.gammas[i] * self.cov(x, x))

    def optimal_utility_levels(self):
        """E[E_i] - gamma_i Var[E_i] plus the Pareto gain, the mechanism's gain on the truth."""
        gains = self.mechanism_gains(self.payoffs)
        return [self.mean(x) - g * self.cov(x, x) + d
                for g, x, d in zip(self.gammas, self.payoffs, gains)]

    def variance(self, securities):
        """Var[C] of the securities' exact payoff rows."""
        return [[self.cov(c, d) for d in securities] for c in securities]

    def allocation(self, basket_payoffs, rows):
        """The mechanism's allocation of schedule rows: agent i buys c_i Var^-1[C] of
        the `sharing_rule` contract rows c."""
        variance = self.variance(_rows(basket_payoffs))
        return [_solve(variance, c) for c in self.sharing_rule(rows)]

    def clearing_levels(self, basket_payoffs, rows):
        """E[E_i] + z_i.(E[C] - p) - gamma_i Var[E_i + z_i.C] at the clearing price of
        schedule rows, p = E[C] - 2 gamma sum_j rows_j, agent i buying
        z_i = ((E[C] - p)/(2 gamma_i) - rows_i) Var^-1[C]."""
        securities = _rows(basket_payoffs)
        excess = [2 * self.gamma * a for a in self.total(rows)]  # E[C] - p
        variance = self.variance(securities)
        levels = []
        for g, x, row in zip(self.gammas, self.payoffs, rows):
            z = _solve(variance, [e / (2 * g) - r for e, r in zip(excess, row)])
            held = [v + sum(q * c[s] for q, c in zip(z, securities)) for s, v in enumerate(x)]
            levels.append(self.mean(x) + sum(q * e for q, e in zip(z, excess))
                          - g * self.cov(held, held))
        return levels

    def exposures(self, basket_payoffs):
        """Cov(E_i, C_j): the truthful schedule rows."""
        return [[self.cov(x, c) for c in _rows(basket_payoffs)] for x in self.payoffs]

    def capm_utility_levels(self, basket_payoffs):
        """The clearing levels of the truthful schedules, at the CAPM price
        p = E[C] - 2 gamma Cov(C, sum_j E_j)."""
        return self.clearing_levels(basket_payoffs, self.exposures(basket_payoffs))
