"""Command-line entry point: market-file ingestion and report emission.

Market files are JSON with a versioned schema; reports are JSON with a stable
field order, an echo of the ingested market (so a report can be re-run
bit-for-bit) and the tolerances in force. The only market-file parameters
are the percentage game's `kappa` and `max_iter` (a cap on its active-set
solves); `--seed` is read by the `experiment` command only, whose output
is CSV.

Exit codes: 0 success, 2 validation error, 3 numerical precondition
violation (including a result that overflows to NaN or infinity), 4
non-convergence of the percentage-game solve within `max_iter` solves.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import (
    ABS_TOL,
    Agent,
    Market,
    ProbSpace,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
)
from .experiments import AgentSequenceSpec, figure_data, inefficiency_decay, \
    price_allocation_convergence
from .nash import (
    ConvergenceError,
    nash_endowment,
    nash_percentage,
    nash_price,
    percentage_game_gains,
    table1_report,
)
from .pareto import (
    aggregate_gain,
    capm_equilibrium,
    constrained_loss,
    endowment_prices,
    optimal_sharing,
    optimal_utility_levels,
)
from .strategic import (
    demand_response_report,
    endowment_response_report,
    percentage_response_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4

SCHEMA_VERSION = 1

DEFAULT_PARAMETERS = {"kappa": 10.0, "max_iter": 10000}


class MarketFileError(ValueError):
    """Validation failure, carrying the offending field's address."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise MarketFileError(field, message)


def load_market_file(path: str) -> dict:
    """Parse and validate a market file into engine objects.

    Returns a dict with keys market, basket (or None), parameters, and the
    raw document for echoing.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MarketFileError("file", str(exc))
    except json.JSONDecodeError as exc:
        raise MarketFileError("file", f"not valid JSON: {exc}")
    return ingest_market_document(doc)


def ingest_market_document(doc) -> dict:
    _require(isinstance(doc, dict), "document", "must be a JSON object")
    _require(doc.get("schema") == SCHEMA_VERSION, "schema",
             f"unsupported schema version {doc.get('schema')!r}, expected {SCHEMA_VERSION}")

    probs = doc.get("probs")
    _require(isinstance(probs, list) and probs, "probs", "must be a non-empty array")
    try:
        space = ProbSpace(np.asarray(probs, dtype=float))
    except (TypeError, ValueError) as exc:
        raise MarketFileError("probs", str(exc))

    agents_doc = doc.get("agents")
    _require(isinstance(agents_doc, list) and len(agents_doc) >= 2,
             "agents", "must be an array of at least two agents")
    agents = []
    for idx, a in enumerate(agents_doc):
        where = f"agents[{idx}]"
        _require(isinstance(a, dict), where, "must be an object")
        _require("gamma" in a, f"{where}.gamma", "missing")
        _require("payoffs" in a, f"{where}.payoffs", "missing")
        try:
            gamma = float(a["gamma"])
        except (TypeError, ValueError):
            raise MarketFileError(f"{where}.gamma", "must be a number")
        _require(gamma > 0.0, f"{where}.gamma", "must be positive")
        try:
            endowment = Rv(space, np.asarray(a["payoffs"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise MarketFileError(f"{where}.payoffs", str(exc))
        agents.append(Agent(gamma, endowment))
    try:
        market = Market(space, tuple(agents))
    except ValueError as exc:
        raise MarketFileError("agents", str(exc))

    basket = None
    if doc.get("securities"):
        securities = []
        for idx, payoffs in enumerate(doc["securities"]):
            try:
                securities.append(Rv(space, np.asarray(payoffs, dtype=float)))
            except (TypeError, ValueError) as exc:
                raise MarketFileError(f"securities[{idx}]", str(exc))
        try:
            basket = SecurityBasket(tuple(securities))
        except SingularCovarianceError:
            raise
        except ValueError as exc:
            raise MarketFileError("securities", str(exc))

    parameters = dict(DEFAULT_PARAMETERS)
    params_doc = doc.get("parameters") or {}
    _require(isinstance(params_doc, dict), "parameters", "must be an object")
    for key, value in params_doc.items():
        _require(key in DEFAULT_PARAMETERS, f"parameters.{key}", "unknown parameter")
        try:
            parameters[key] = type(DEFAULT_PARAMETERS[key])(value)
        except (TypeError, ValueError):
            raise MarketFileError(f"parameters.{key}", "wrong type")

    echo = {
        "schema": SCHEMA_VERSION,
        "probs": [float(p) for p in space.probs],
        "agents": [
            {"gamma": a.gamma, "payoffs": [float(x) for x in a.endowment.payoffs]}
            for a in agents
        ],
        "securities": [
            [float(x) for x in s.payoffs] for s in (basket.securities if basket else [])
        ],
        "parameters": parameters,
    }
    return {"market": market, "basket": basket, "parameters": parameters, "echo": echo}


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(value):
    if isinstance(value, Rv):
        return [float(x) for x in value.payoffs]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()] if value.ndim > 1 else [
            float(v) for v in value
        ]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _report(command: str, loaded: dict, results: dict) -> str:
    body = {
        "command": command,
        "tolerances": {"abs_tol": ABS_TOL},
        "market": loaded["echo"],
        "results": _jsonable(results),
    }
    try:
        return json.dumps(body, indent=2, allow_nan=False)
    except ValueError:
        # the echoed market is finite by validation, so the overflow is in
        # the results; NaN and Infinity are not JSON
        raise FloatingPointError(
            "results: a result is not finite; the market's payoffs or risk "
            "aversions are too large for double precision"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Commands


def cmd_pareto(loaded: dict) -> dict:
    market = loaded["market"]
    sharing = optimal_sharing(market)
    return {
        "contracts": sharing.contracts,
        "weights": sharing.weights,
        "endowment_prices": endowment_prices(market),
        "utility_levels": optimal_utility_levels(market),
        "aggregate_gain": aggregate_gain(market),
    }


def cmd_capm(loaded: dict) -> dict:
    market, basket = loaded["market"], loaded["basket"]
    _require(basket is not None, "securities", "command capm needs securities")
    eq = capm_equilibrium(market, basket)
    losses, total_loss = constrained_loss(market, basket)
    return {
        "prices": eq.prices,
        "allocation": eq.allocation,
        "utility_levels": eq.utility_levels,
        "gains": eq.gains,
        "constrained_loss": losses,
        "constrained_loss_total": total_loss,
    }


def cmd_best_response(loaded: dict, agent: int, mode: str) -> dict:
    market, basket = loaded["market"], loaded["basket"]
    _require(0 <= agent < market.n, "agent", f"must be in [0, {market.n - 1}]")
    if mode == "endowment":
        report = endowment_response_report(market, agent)
    elif mode == "percentage":
        report = percentage_response_report(market, agent)
    elif mode == "demand":
        _require(basket is not None, "securities",
                 "demand best response needs securities")
        report = demand_response_report(market, agent, basket)
    else:
        raise MarketFileError("game", f"unknown best-response mode {mode!r}")
    response = report.response
    if mode == "demand":
        response = {"gamma": response.gamma, "c": response.c}
    return {
        "agent": agent,
        "mode": mode,
        "response": response,
        "utility_before": report.utility_before,
        "utility_after": report.utility_after,
    }


def cmd_nash(loaded: dict, game: str) -> dict:
    market, basket = loaded["market"], loaded["basket"]
    if game == "endowment":
        outcome = nash_endowment(market)
        results = {
            "reported": outcome.reported,
            "aggregate": outcome.aggregate,
            "contracts": outcome.contracts,
            "inefficiency": outcome.inefficiency,
            "per_agent_gain": outcome.per_agent_gain,
        }
        if market.n == 2:
            results["table1"] = [
                {
                    "row": r.name,
                    "pareto_engine": r.pareto_engine,
                    "pareto_closed": r.pareto_closed,
                    "nash_engine": r.nash_engine,
                    "nash_closed": r.nash_closed,
                }
                for r in table1_report(market)
            ]
        return results
    if game == "percentage":
        # the market-file parameters are the solver's keywords
        outcome = nash_percentage(market, **loaded["parameters"])
        return {
            "b_star": outcome.b_star,
            "kappa": outcome.kappa,
            "iterations": outcome.iterations,
            "converged": outcome.converged,
            "residual": outcome.residual,
            "per_agent_gain": percentage_game_gains(market, outcome),
        }
    if game == "price":
        _require(basket is not None, "securities", "price game needs securities")
        outcome = nash_price(market, basket)
        return {
            "price": outcome.price,
            "schedules": [{"gamma": s.gamma, "c": s.c} for s in outcome.schedules],
            "allocation": outcome.allocation,
            "pressure": outcome.pressure,
        }
    raise MarketFileError("game", f"unknown nash game {game!r}")


def cmd_experiment(experiment: str, seed: int) -> str:
    spec = AgentSequenceSpec(seed=seed)
    if experiment == "decay":
        return inefficiency_decay(spec).to_csv()
    if experiment == "decay-homogeneous":
        return inefficiency_decay(spec, homogeneous=True).to_csv()
    if experiment == "convergence":
        return price_allocation_convergence(spec).to_csv()
    if experiment in {"figure1", "figure2", "figure3", "figure4"}:
        return figure_data(int(experiment[-1])).to_csv()
    raise MarketFileError("experiment", f"unknown experiment {experiment!r}")


# ---------------------------------------------------------------------------
# Dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskshare",
        description="Pareto and Nash risk sharing among mean-variance agents",
    )
    parser.add_argument("command",
                        choices=["pareto", "capm", "best-response", "nash",
                                 "experiment"])
    parser.add_argument("--market", help="path to a JSON market file")
    parser.add_argument("--agent", type=int, default=0,
                        help="agent index for best-response")
    parser.add_argument("--game", default="endowment",
                        help="game or response mode: endowment, percentage, "
                             "demand or price")
    parser.add_argument("--experiment", default="decay",
                        help="experiment id: decay, decay-homogeneous, "
                             "convergence, figure1..figure4")
    parser.add_argument("--kappa", type=float, help="percentage-game upper bound")
    parser.add_argument("--seed", type=int, help="seed of the experiment command")
    parser.add_argument("--out", help="write the report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            seed = args.seed if args.seed is not None else 0
            _emit(cmd_experiment(args.experiment, seed), args.out)
            return EXIT_OK
        if not args.market:
            raise MarketFileError("market", "a --market file is required")
        loaded = load_market_file(args.market)
        if args.kappa is not None:
            loaded["parameters"]["kappa"] = args.kappa  # the echo shares this dict
        # an overflow is not printed as a numpy warning: _report turns a
        # non-finite result into exit 3
        with np.errstate(all="ignore"):
            if args.command == "pareto":
                results = cmd_pareto(loaded)
            elif args.command == "capm":
                results = cmd_capm(loaded)
            elif args.command == "best-response":
                results = cmd_best_response(loaded, args.agent, args.game)
            else:
                results = cmd_nash(loaded, args.game)
            report = _report(args.command, loaded, results)
        _emit(report, args.out)
        return EXIT_OK
    except MarketFileError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularCovarianceError, FloatingPointError) as exc:
        print(f"numerical precondition violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
