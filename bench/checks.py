"""Output checks for the benchmark, written independently of riskshare.

Every check here recomputes what it needs from the op's own inputs with
plain numpy and centered (two-pass) moments. It never calls riskshare, so a
defect in the package's moment code cannot hide itself. Each check returns a
list of failure strings; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

ORACLE_TOL = 1e-6
# Relative tolerance of a zero-sum or clearing residual, taken against the
# magnitude of the payoffs that were summed.
BALANCE_RTOL = 1e-9
# Agreement of a cash-shifted copy with its unshifted original.
SHIFT_TOL = 1e-6
PERCENTAGE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Moments and closed forms


def centered(p, x):
    """Rows of x minus their p-weighted means."""
    x = np.asarray(x, dtype=float)
    return x - (x @ p)[..., None]


def cov_matrix(p, rows):
    c = centered(p, rows)
    return (c * p) @ c.T


def rank(p, rows) -> int:
    """Rank of the centered payoff rows under the probability inner product."""
    return int(np.linalg.matrix_rank(centered(p, rows) * np.sqrt(p)))


def nash_endowment_closed(p, gammas, E):
    """Nash reports, aggregate and contracts of the endowment game."""
    inv = 1.0 / gammas
    g = 1.0 / inv.sum()
    agg = (E.sum(axis=0) - g * (inv @ E)) / (1.0 - np.sum((g * inv) ** 2))
    gmi = 1.0 / (inv.sum() - inv)
    B = (gammas / (gammas + gmi))[:, None] * E + (
        (gmi / (gammas + gmi)) ** 2
    )[:, None] * agg
    contracts = (g * inv)[:, None] * agg - B
    return g, agg, B, contracts


def nash_inefficiency(p, gammas, E) -> float:
    g, agg, B, _ = nash_endowment_closed(p, gammas, E)
    own = sum(gi * cov_matrix(p, [e - b])[0, 0] for gi, e, b in zip(gammas, E, B))
    return float(own - g * cov_matrix(p, [E.sum(axis=0) - agg])[0, 0])


def price_allocation_gaps(p, gammas, E, security) -> tuple[float, float]:
    """Competitive-vs-Nash price gap and largest allocation gap, one security."""
    g, agg, _, contracts = nash_endowment_closed(p, gammas, E)
    w = np.tile((g / gammas)[:, None], (1, len(gammas)))
    np.fill_diagonal(w, (g - gammas) / gammas)
    pareto_contracts = w @ E
    s = centered(p, security)
    var_s = float(p @ s**2)
    price_gap = abs(2.0 * g * float(p @ (s * centered(p, E.sum(axis=0) - agg))))
    diff = centered(p, pareto_contracts - contracts)
    alloc_gap = float(np.max(np.abs(diff @ (p * s)))) / var_s
    return price_gap, alloc_gap


def percentage_residual(p, gammas, E, b, kappa) -> float:
    """max |b - clamp(BR(b), 0, kappa)| of the percentage game."""
    b = np.asarray(b, dtype=float)
    C = cov_matrix(p, E)
    g = 1.0 / np.sum(1.0 / gammas)
    d = np.diag(C)
    rest = C @ b - b * d
    raw = gammas / (gammas + g) + g**2 / (gammas**2 - g**2) * rest / d
    return float(np.max(np.abs(b - np.clip(raw, 0.0, kappa))))


def close(got, want, tol) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))
    )


# ---------------------------------------------------------------------------
# CLI reports


def _reject_constant(name):
    raise ValueError(f"non-finite literal {name}")


def strict_json(text: str):
    """Parse a report, rejecting NaN, Infinity and overflowing numbers."""
    doc = json.loads(text, parse_constant=_reject_constant)
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise ValueError("number overflows to infinity")
    return doc


def expected_exit(case, command: str) -> int:
    """Exit code the CLI owes this input, from the input's own properties."""
    if case.malformed:
        return 2
    if case.S is not None and rank(case.p, case.S) < len(case.S):
        return 3
    if command == "pareto" and rank(case.p, case.E) < len(case.E):
        return 3
    return 0


def _balanced(total, parts_scale) -> bool:
    return float(np.max(np.abs(total))) <= BALANCE_RTOL * (1.0 + parts_scale)


def check_results(case, command: str, game: str, res: dict) -> list[str]:
    """Defining conditions of one successful CLI report."""
    fails = []
    scale = float(np.sum(np.max(np.abs(case.shifted_E()), axis=1)))
    if command == "pareto":
        if not _balanced(np.sum(res["contracts"], axis=0), scale):
            fails.append("pareto contracts do not sum to zero")
    elif command == "capm":
        if not _balanced(np.sum(res["allocation"], axis=0), scale):
            fails.append("capm allocation does not clear")
        if min(res["constrained_loss"]) < -BALANCE_RTOL * (1.0 + scale**2):
            fails.append("negative constrained loss")
    elif command == "best-response":
        before, after = res["utility_before"], res["utility_after"]
        if after < before - BALANCE_RTOL * (1.0 + abs(before) + abs(after)):
            fails.append(f"best {game} response loses utility")
    elif game == "endowment":
        if not _balanced(np.sum(res["contracts"], axis=0), scale):
            fails.append("nash contracts do not sum to zero")
    elif game == "percentage":
        resid = percentage_residual(
            case.p, case.gammas, case.shifted_E(), res["b_star"], res["kappa"]
        )
        if not res["converged"] or not resid <= PERCENTAGE_TOL:
            fails.append(f"percentage residual {resid:.3e}")
        elif case.base is None and res["iterations"] > case.max_iter // 2:
            # the market file's cap must sit well above what a solve needs
            fails.append(f"percentage solve took {res['iterations']} iterations "
                         f"of the cap {case.max_iter}")
    elif game == "price":
        if not _balanced(np.sum(res["allocation"], axis=0), scale):
            fails.append("nash price allocation does not clear")
    return fails


def _split(command: tuple) -> tuple[str, str]:
    """("nash", "--game", "price") -> ("nash", "price")."""
    return command[0], (command[2] if len(command) > 2 else "")


def check_cli(case, command: tuple, exit_code, stderr: str, report: str | None):
    """Exit code, strict JSON and defining conditions of one CLI op.

    Returns the failures and, for a valid report, its results block.
    """
    command, game = _split(command)
    want = expected_exit(case, command)
    if exit_code != want:
        return [f"exit {exit_code}, expected {want}"], None
    if exit_code != 0:
        if report is not None:
            return ["report written on failure"], None
        if not stderr.strip() or "Traceback" in stderr:
            return ["error exit without an addressed message"], None
        return [], None
    if report is None:
        return ["no report written"], None
    try:
        doc = strict_json(report)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"], None
    if doc.get("command") != command or "results" not in doc:
        return ["report lacks its command or results"], None
    try:
        return check_results(case, command, game, doc["results"]), doc["results"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed results: {exc!r}"], None


def shift_invariants(case, command: str, game: str, res: dict) -> list:
    """The report fields a cash shift of one endowment leaves unchanged.

    Fields that carry the shifted agent's own cash are reduced by the shift;
    random payoffs are compared centered.
    """
    p, s, c = case.p, case.shift_agent, case.shift
    own = np.zeros(len(case.gammas))
    if s is not None:
        own[s] = c
    if command == "pareto":
        return [res["weights"], centered(p, res["contracts"]),
                np.subtract(res["endowment_prices"], own),
                np.subtract(res["utility_levels"], own), res["aggregate_gain"]]
    if command == "capm":
        return [res["prices"], res["allocation"],
                np.subtract(res["utility_levels"], own), res["gains"],
                res["constrained_loss"], res["constrained_loss_total"]]
    if command == "best-response":
        response = res["response"]
        if game == "demand":
            response = [response["gamma"]] + list(response["c"])
        cash = own[res["agent"]]
        return [response, res["utility_before"] - cash, res["utility_after"] - cash]
    if game == "endowment":
        return [centered(p, res["reported"]), centered(p, res["aggregate"]),
                centered(p, res["contracts"]), res["inefficiency"],
                res["per_agent_gain"]]
    if game == "percentage":
        return [res["b_star"], res["per_agent_gain"]]
    return [res["price"], [sch["c"] for sch in res["schedules"]],
            res["allocation"], res["pressure"]]


def check_shift_pair(base_case, shifted_case, command: tuple, base_res, shifted_res):
    """Failures of a cash-shifted copy measured against its original."""
    if base_res is None or shifted_res is None:
        return []  # an exit-code mismatch is already counted on its own op
    command, game = _split(command)
    want = shift_invariants(base_case, command, game, base_res)
    got = shift_invariants(shifted_case, command, game, shifted_res)
    for k, (a, b) in enumerate(zip(got, want)):
        if not close(a, b, SHIFT_TOL):
            return [f"cash shift {shifted_case.shift:.3g} changed field {k}"]
    return []


# ---------------------------------------------------------------------------
# Oracle agreement


def centered_agree(p, found, closed, tol=ORACLE_TOL) -> bool:
    diff = centered(p, np.asarray(found) - np.asarray(closed))
    return bool(np.max(np.abs(diff)) < tol)


def allclose(found, closed, tol=ORACLE_TOL) -> bool:
    return bool(np.allclose(found, closed, atol=tol))


# ---------------------------------------------------------------------------
# Self-test


class _Case:
    """Two agents, three states, no securities."""

    malformed = False
    S = None
    shift_agent = None
    shift = 0.0
    p = np.full(3, 1.0 / 3.0)
    gammas = np.array([1.0, 2.0])
    E = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

    def shifted_E(self):
        return self.E


def self_test() -> list[str]:
    """Show that each kind of wrong output is counted as a failure.

    Returns the kinds the checker let through; empty means it is sound.
    """
    case = _Case()
    good = json.dumps({"command": "pareto",
                       "results": {"contracts": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]}})
    pareto = ("pareto",)
    missed = []
    if check_cli(case, pareto, 0, "", good)[0]:
        missed.append("a correct report is rejected")
    if not check_cli(case, pareto, 0, "", good.replace("-1.0", "NaN", 1))[0]:
        missed.append("NaN in a report")
    if not check_cli(case, pareto, 0, "", good.replace("0.0]]", "0.1]]"))[0]:
        missed.append("contracts that do not sum to zero")
    if not check_cli(case, pareto, 3, "numerical precondition violated", None)[0]:
        missed.append("a wrong exit code")
    if centered_agree(case.p, [0.0, 1e-3, 0.0], np.zeros(3)) or allclose([1.0], [1.001]):
        missed.append("a wrong oracle answer")
    if percentage_residual(case.p, case.gammas, case.E, [0.5, 0.5], 10.0) <= PERCENTAGE_TOL:
        missed.append("a percentage profile off equilibrium")
    return missed
