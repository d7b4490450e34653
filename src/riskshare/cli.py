"""Command-line entry point: market-file ingestion and report emission.

Market files are JSON whose `schema` is the integer 1; reports are JSON with a
stable field order and an echo of the ingested market, so a report can be
re-run bit-for-bit. A report's results are the engine's outcome type, field by
field in declaration order (the price game's schedule rows as `{"gamma", "c"}`
objects), plus the keys the type lacks; the echo holds the ingested
probabilities, risk aversions, payoff rows and securities as the validated
arrays themselves. One writer, `_dumps`, serializes both: it writes the bytes
of `json.dumps(body, indent=2, allow_nan=False, default=_encode)`, a float
array, and so a random variable, in one join over its entries'
`float.__repr__`; it tells json's own types apart by one chain of isinstance
tests (a bool before an int) and hands `_encode` only what json cannot write
itself: numpy scalars other than float64, arrays of other dtypes and
dataclasses. A market file has only the keys `schema`, `probs`, `agents`,
`securities` and `parameters`, an agent only `gamma` and `payoffs`: any other
is rejected by name once the schema is accepted. Every gamma, probability and
payoff is a finite JSON number, never a boolean or a string, and a rejected
one is addressed by its index; a gamma and `kappa` meet `core`'s number rule,
and `max_iter` its count rule, once. A market file is read and a report
written as bytes, with no text layer, and the file is decoded as UTF-8
whatever the locale. Ingestion validates each value where it reads it, in
file order, an array of floats in one pass in C, and an agents array of plain
objects (a float gamma and float payoffs, nothing else) in one pass over all
its gammas and payoffs; any other agents array is read agent by agent, so the
first failure is the one in file order. It builds the market once from a
float array of the validated risk aversions and the payoff rows with
`Market.from_arrays`, and the basket from the validated rows with
`SecurityBasket.from_arrays`: no object per agent is built, and the echo
serializes the market's own rows.
`securities` and `parameters` are optional; present, they must be an array
(empty: no basket) and an object (empty: the defaults). The only parameters
are the percentage game's `kappa` (a finite positive number) and `max_iter`
(an integer cap on its active-set solves, at least 1). `--seed`, a
non-negative integer, is read by the `experiment` command only, which looks
the id up in `experiments.EXPERIMENTS` and prints CSV. A report or table goes
to stdout, or to `--out`. `--profile` adds one stderr line of the wall time of
each stage that ran (ingest, solve, encode, write) and changes no output byte.

The eight market reports are one table, `REPORTS`: a command and its
`--game` (None for `pareto` and `capm`, which ignore `--game`, as `experiment`
does) map to the function that builds the report's results from the loaded
market file and the command line. The command list and the usage text's games
come from it, and scripts/report_digests.py runs its reports. `_results` looks
a report up and calls it; it is the one place where an engine's error becomes
a `Failure`, and the reports that read the basket share one check for it
(`_basket`).

The command line is one command and the options, in any order, read in one
pass (`_arguments`); -h or --help prints the usage on stdout and exits 0. A
`--game` that the command's reports do not name is a command-line error,
addressed to `game` and raised before the market file is read.

Exit codes: 0 success, 2 validation error (also a command line that is not
understood, addressed to its option, to `command` or to `game`, and an `--out`
that cannot be written), 3 numerical precondition violation, 4 non-convergence of the
percentage-game solve (addressed to `parameters.max_iter` when the solve
hit that limit, else to `agents`). A failure is one `Failure`,
raised where its field is known, which `main` prints as one stderr line
addressed to that field (`file` for a file that is not UTF-8 JSON). Ingestion
and the commands trap floating-point overflow, invalid operations and
division by zero: in the market that exits 2 addressed to `agents`, in the
basket 3 addressed to `securities`, and in a command, like a result that is
not finite, 3 addressed to `results`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import (
    Market,
    ProbSpace,
    Rv,
    SecurityBasket,
    SingularCovarianceError,
    _is_count,
    _is_positive_real,
)
from .experiments import EXPERIMENTS, AgentSequenceSpec
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
    sharing_weights,
)
from .strategic import (
    ConstantEndowmentError,
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

PREFIXES = {
    EXIT_VALIDATION: "validation error",
    EXIT_NUMERICAL: "numerical precondition violated",
    EXIT_NO_CONVERGENCE: "non-convergence",
}


class Failure(Exception):
    """A failed run: its exit code and a message addressed to the offending
    field. Not a ValueError, so that no `except ValueError` re-wraps it."""

    def __init__(self, field: str, message: object, code: int = EXIT_VALIDATION):
        self.field, self.message, self.code = field, message, code
        super().__init__(f"{field}: {message}")

    def within(self, parent: str) -> "Failure":
        """The same failure, its field read as a part of `parent`."""
        return Failure(parent + self.field, self.message, self.code)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise Failure(field, message)


def _finite(value) -> bool:
    """Whether `value` is a JSON number within the float range.

    JSON's true and false are not numbers here, NaN fails both comparisons,
    and a literal beyond the float range (1e400 parses as inf, a long integer
    stays an int) fails one.
    """
    top = sys.float_info.max
    return type(value) in (int, float) and -top <= value <= top


_FLOAT, _LIST = {float}, {list}


def _numbers(values, field: str) -> list:
    """A JSON array of finite numbers, as read; a bad entry is addressed by
    its index.

    An array of floats alone is checked in C, by `math.isfinite` over it.
    Any other goes entry by entry: an int is compared exactly (as a float it
    could round into the range), and true is not a number.
    """
    _require(isinstance(values, list), field, "must be an array of numbers")
    if not (set(map(type, values)) <= _FLOAT and all(map(math.isfinite, values))):
        for j, v in enumerate(values):
            if not _finite(v):
                raise Failure(f"{field}[{j}]", "must be a finite number")
    return values


def _payoffs(space: ProbSpace, values, field: str = "") -> list:
    """A payoff row of finite numbers, one per state of `space`."""
    row = _numbers(values, field)
    if len(row) != space.n_states:
        raise Failure(field, f"payoff length {len(row)} does not match space "
                             f"dimension {space.n_states}")
    return row


def _entries(items: list, field: str, read) -> list:
    """`read` of each entry of a JSON array, in order; a failure it raises is
    addressed inside `field[i]`, which is formatted only then."""
    out = []
    for idx, item in enumerate(items):
        try:
            out.append(read(item))
        except Failure as exc:
            raise exc.within(f"{field}[{idx}]") from None
    return out


def _known_keys(doc: dict, keys, field: str) -> None:
    """Reject the first key of `doc`, in file order, that is not in `keys`."""
    for key in doc:
        _require(key in keys, field + key, "unknown key")


_GAMMA_PAYOFFS = operator.itemgetter("gamma", "payoffs")


def _plain_agents(space: ProbSpace, docs: list) -> tuple[tuple, tuple] | None:
    """The gammas and payoff rows of an agents array whose every entry is an
    object of just a positive finite float gamma and m finite float payoffs,
    all checked at once, in C; None for any other array, which `_agent` reads
    entry by entry, so that a failure is addressed as it always was."""
    try:  # every entry of two keys, gamma and payoffs: only an object has them
        if set(map(len, docs)) != {2}:
            return None
        gammas, rows = zip(*map(_GAMMA_PAYOFFS, docs))
    except (TypeError, KeyError):
        return None
    if not (set(map(type, gammas)) == _FLOAT and all(map(math.isfinite, gammas))
            and min(gammas) > 0.0 and set(map(type, rows)) == _LIST
            and set(map(len, rows)) == {space.n_states}):
        return None
    entries = itertools.chain.from_iterable
    if not (set(map(type, entries(rows))) == _FLOAT and all(map(math.isfinite, entries(rows)))):
        return None
    return gammas, rows


def _agent(space: ProbSpace, doc) -> tuple[float, list]:
    """An agent object's gamma and payoff row, in that order."""
    _require(isinstance(doc, dict), "", "must be an object")
    _known_keys(doc, ("gamma", "payoffs"), ".")
    _require("gamma" in doc, ".gamma", "missing")
    _require("payoffs" in doc, ".payoffs", "missing")
    _require(_is_positive_real(doc["gamma"]), ".gamma", "must be a finite positive number")
    return float(doc["gamma"]), _payoffs(space, doc["payoffs"], ".payoffs")


# a file of unknown size (a pipe's is 0) is read in chunks of at least this
_CHUNK = 1 << 16


def _read(path: str) -> bytes:
    """The bytes of the file at `path`: a regular file in reads of its size
    plus one, the first of which reads it whole, anything else in chunks of
    `_CHUNK`. An error names the path, as `open`'s would."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size  # 0 for a pipe
        chunks, want = [], size + 1 if size else _CHUNK
        while chunk := os.read(fd, want):
            chunks.append(chunk)
    except IsADirectoryError as exc:  # open names the path; os.read does not
        exc.filename = path
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def _parse(data: bytes):
    """The JSON document of a file's bytes, decoded as UTF-8, each line end
    made a line feed as text mode makes it, so an error's position reads the
    same (strict JSON holds a carriage return only as whitespace)."""
    text = data.decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def load_market_file(path: str) -> dict:
    """Parse and validate a market file into engine objects.

    Returns a dict with keys market, basket (or None), parameters, and the
    echo of the ingested market.
    """
    try:
        doc = _parse(_read(path))
    except OSError as exc:
        raise Failure("file", exc) from None
    # malformed, not UTF-8, an integer beyond the digit limit, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise Failure("file", f"not valid JSON: {exc}") from None
    return ingest_market_document(doc)


def ingest_market_document(doc) -> dict:
    _require(isinstance(doc, dict), "document", "must be a JSON object")
    schema = doc.get("schema")
    _require(type(schema) is int and schema == SCHEMA_VERSION, "schema",
             f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")
    _known_keys(doc, ("schema", "probs", "agents", "securities", "parameters"), "")

    probs = _numbers(doc.get("probs"), "probs")
    _require(len(probs) > 0, "probs", "must be a non-empty array")
    try:
        space = ProbSpace(probs)
    except (ValueError, FloatingPointError) as exc:
        raise Failure("probs", exc) from None

    agents_doc = doc.get("agents")
    _require(isinstance(agents_doc, list) and len(agents_doc) >= 2,
             "agents", "must be an array of at least two agents")
    gammas, rows = _plain_agents(space, agents_doc) or zip(
        *_entries(agents_doc, "agents", functools.partial(_agent, space)))
    try:
        market = Market.from_arrays(space, np.array(gammas), rows)
    except (ValueError, FloatingPointError) as exc:
        raise Failure("agents", exc) from None

    basket = None
    securities_doc = doc.get("securities", [])
    _require(isinstance(securities_doc, list), "securities", "must be an array")
    if securities_doc:
        securities = _entries(securities_doc, "securities",
                              functools.partial(_payoffs, space))
        try:
            basket = SecurityBasket.from_arrays(space, securities)
        except (SingularCovarianceError, FloatingPointError) as exc:
            raise Failure("securities", exc, EXIT_NUMERICAL) from None

    parameters = dict(DEFAULT_PARAMETERS)
    params_doc = doc.get("parameters", {})
    _require(isinstance(params_doc, dict), "parameters", "must be an object")
    for key, value in params_doc.items():
        where = f"parameters.{key}"
        _require(key in DEFAULT_PARAMETERS, where, "unknown parameter")
        if key == "kappa":
            _require(_is_positive_real(value), where, "must be a finite positive number")
            value = float(value)
        else:
            _require(_is_count(value, 1), where, "must be an integer of at least 1")
        parameters[key] = value

    echo = {
        "schema": SCHEMA_VERSION,
        "probs": space.probs,
        "agents": [{"gamma": g, "payoffs": row} for g, row in zip(gammas, market.payoffs)],
        "securities": basket.payoffs if basket else [],
        "parameters": parameters,
    }
    return {"market": market, "basket": basket, "parameters": parameters, "echo": echo}


# ---------------------------------------------------------------------------
# Serialization


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields(outcome) -> dict:
    """An outcome dataclass's fields by name, in declaration order."""
    return {name: getattr(outcome, name) for name in _field_names(type(outcome))}


def _encode(value):
    """What json cannot serialize itself: random variables, arrays, numpy
    scalars and outcome dataclasses."""
    if isinstance(value, Rv):
        return value.payoffs.tolist()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()  # a numpy scalar's tolist is its item
    if is_dataclass(value):  # after Rv, itself a dataclass
        return _fields(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_F8 = np.dtype(float)


def _floats(text: str) -> str:
    """`float.__repr__` text of finite floats: only inf, -inf and nan hold an n."""
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _float_rows(rows: list, nl: str) -> str:
    """Lists of floats as the entries of a JSON list; `nl` is their level."""
    inner = nl + "  "
    return ("," + nl).join(["[" + inner + ("," + inner).join(map(float.__repr__, row))
                            + nl + "]" for row in rows])


def _dumps(value, nl: str = "\n") -> str:
    """`json.dumps(value, indent=2, allow_nan=False, default=_encode)`, byte
    for byte; `nl` is the newline and indent of the level `value` is at.

    json's own types, a subclass included, are told apart by isinstance (a bool,
    the one value of two of them, before an int). A 1-D or 2-D float64 array, and
    so an `Rv`'s payoffs, is written with one join over its entries'
    `float.__repr__`; anything else goes through `_encode`, as json's `default`
    would. A non-finite float raises ValueError. Every key in a report is a str,
    so keys are written as strings only (any other key raises TypeError).
    """
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + (
                     _floats(float.__repr__(item)) if type(item) is float
                     else _dumps(item, inner))
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, Rv):
        value = value.payoffs  # json writes an Rv as its payoffs, by `_encode`
    if isinstance(value, np.ndarray):
        if value.dtype is not _F8 or value.ndim not in (1, 2) or not value.size:
            return _dumps(_encode(value), nl)
        if value.ndim == 1:
            text = ("," + inner).join(map(float.__repr__, value.tolist()))
        else:
            text = _float_rows(value.tolist(), inner)
        return "[" + inner + _floats(text) + nl + "]"
    if isinstance(value, float):  # np.float64 included
        return _floats(float.__repr__(value))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(item, inner) for item in value]) + nl + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return "null" if value is None else _dumps(_encode(value), nl)


# for a floating-point error in a command or a non-finite value in a report,
# which is a result: the echoed market is finite by validation
RESULTS_NOT_FINITE = ("a result is not finite; the market's payoffs or "
                      "risk aversions are too large for double precision")


def _report(command: str, loaded: dict, results: dict) -> str:
    body = {"command": command, "market": loaded["echo"], "results": results}
    try:
        return _dumps(body)
    except ValueError:  # NaN and Infinity are not JSON
        raise Failure("results", RESULTS_NOT_FINITE, EXIT_NUMERICAL) from None


def _emit(text: str, out: str | None) -> None:
    # both sinks get the same bytes: the text, ending in exactly one newline
    text = text if text.endswith("\n") else text + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = memoryview(text.encode())
            while data:  # a write may be short
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise Failure("--out", exc) from None


# ---------------------------------------------------------------------------
# Commands


def _basket(loaded: dict, report: str) -> SecurityBasket:
    """The market file's basket, which the report `report` reads."""
    _require(loaded["basket"] is not None, "securities", f"command {report} needs securities")
    return loaded["basket"]


def cmd_pareto(loaded: dict, args: dict) -> dict:
    market = loaded["market"]
    # the prices test Var[E] before any contract is built
    prices, contracts = endowment_prices(market), optimal_sharing(market)
    return {
        "contracts": contracts,
        "weights": sharing_weights(market),
        "endowment_prices": prices,
        "utility_levels": optimal_utility_levels(market),
        "aggregate_gain": aggregate_gain(market),
    }


def cmd_capm(loaded: dict, args: dict) -> dict:
    market, basket = loaded["market"], _basket(loaded, "capm")
    losses, total_loss = constrained_loss(market, basket)
    return {
        **_fields(capm_equilibrium(market, basket)),
        "constrained_loss": losses,
        "constrained_loss_total": total_loss,
    }


def cmd_best_response(loaded: dict, args: dict, report, reads_basket: bool = False) -> dict:
    """The agent `--agent`'s best response by `report`, the engine of the
    mode `--game`, which takes the market, the agent and, if it reads one,
    the basket."""
    market, agent, mode = loaded["market"], args["--agent"], args["--game"]
    _require(0 <= agent < market.n, "agent", f"must be in [0, {market.n - 1}]")
    basket = [_basket(loaded, f"best-response --game {mode}")] if reads_basket else []
    return {"agent": agent, "mode": mode, **_fields(report(market, agent, *basket))}


def cmd_nash_endowment(loaded: dict, args: dict) -> dict:
    market = loaded["market"]
    results = _fields(nash_endowment(market))
    if market.n == 2:
        results["table1"] = table1_report(market)
    return results


def cmd_nash_percentage(loaded: dict, args: dict) -> dict:
    market = loaded["market"]
    outcome = nash_percentage(market, **loaded["parameters"])  # the file's are its keywords
    return {**_fields(outcome), "per_agent_gain": percentage_game_gains(market, outcome)}


def cmd_nash_price(loaded: dict, args: dict) -> dict:
    market = loaded["market"]
    results = _fields(nash_price(market, _basket(loaded, "nash --game price")))
    results["schedules"] = [{"gamma": g, "c": c}  # row i as agent i's schedule
                            for g, c in zip(market.gammas.tolist(), results["schedules"])]
    return results


# Each market report by its command and `--game`, None for a command of one
# report: the function of the loaded market file and the parsed command line
# that builds its results. The command line, the usage text, `_results` and
# scripts/report_digests.py read it.
REPORTS = {
    "pareto": {None: cmd_pareto},
    "capm": {None: cmd_capm},
    "best-response": {  # the engine is looked up by name when the report runs
        "endowment": lambda *run: cmd_best_response(*run, endowment_response_report),
        "percentage": lambda *run: cmd_best_response(*run, percentage_response_report),
        "demand": lambda *run: cmd_best_response(*run, demand_response_report, reads_basket=True),
    },
    "nash": {
        "endowment": cmd_nash_endowment,
        "percentage": cmd_nash_percentage,
        "price": cmd_nash_price,
    },
}


def _results(args: dict, loaded: dict) -> dict:
    """The results of the report `args` names in `REPORTS`; the one place
    where an engine's error becomes an addressed failure."""
    reports = REPORTS[args["command"]]
    report = reports[None] if None in reports else reports[args["--game"]]
    try:
        return report(loaded, args)
    except FloatingPointError:
        raise Failure("results", RESULTS_NOT_FINITE, EXIT_NUMERICAL) from None
    except ConstantEndowmentError as exc:  # the percentage game and response
        raise Failure(f"agents[{exc.agent}].payoffs", exc) from None
    except SingularCovarianceError as exc:  # Var[E], which pareto tests first
        raise Failure("agents", exc, EXIT_NUMERICAL) from None
    except ConvergenceError as exc:  # a stable active set: max_iter is not the cause
        field = "agents" if exc.stable else "parameters.max_iter"
        raise Failure(field, exc, EXIT_NO_CONVERGENCE) from None


def cmd_experiment(experiment: str, seed: int):
    """The experiment's table, whose `to_csv` is its output."""
    _require(experiment in EXPERIMENTS, "experiment",
             f"unknown experiment {experiment!r}")
    _require(_is_count(seed, 0), "--seed", "must be a non-negative integer")
    return EXPERIMENTS[experiment](AgentSequenceSpec(seed=seed))


# ---------------------------------------------------------------------------
# Dispatch


_COMMANDS = (*REPORTS, "experiment")

# each option's default and kind: a str or int value, or a bool flag, which
# takes none
_OPTIONS = {
    "--market": (None, str),
    "--agent": (0, int),
    "--game": ("endowment", str),
    "--experiment": ("decay", str),
    "--seed": (0, int),
    "--out": (None, str),
    "--profile": (False, bool),
}

_USAGE = """\
usage: riskshare [-h] {{{commands}}}
                 [--market PATH] [--agent I] [--game G] [--experiment ID]
                 [--seed N] [--out PATH] [--profile]

Pareto and Nash risk sharing among mean-variance agents

options:
  -h, --help       show this help message and exit
  --market PATH    path to a JSON market file
  --agent I        agent index for best-response
  --game G         game or response mode: {games}
  --experiment ID  experiment id: {experiments}
  --seed N         seed of the experiment command
  --out PATH       write the report to this path
  --profile        print the wall time of each stage to stderr
"""


def _is_option(token: str) -> bool:
    """Whether `token` starts with "-" and is neither "-" alone nor a negative
    number (a value, as in --seed -1): its second character, "" for "-"
    alone, is not in the digits and point."""
    return token[:1] == "-" and token[1:2] not in "0123456789."


def _arguments(argv) -> dict | None:
    """The command and each option's value in `argv`, keyed "command" and by
    the option's name; None when `argv` holds -h or --help anywhere.

    Options go before or after the command, as `--opt value` or
    `--opt=value`, and the last of a repeated option wins. A usage error is a
    `Failure` addressed to its option, to `command`, or to `game` for a
    `--game` that the command's reports in `REPORTS` do not name.
    """
    if "-h" in argv or "--help" in argv:
        return None
    args = {name: default for name, (default, _) in _OPTIONS.items()}
    command = None
    tokens = iter(argv)
    for token in tokens:
        if not _is_option(token):
            if command is not None:
                raise Failure("command", f"unexpected argument {token!r} after "
                                         f"the command {command!r}")
            if token not in _COMMANDS:
                raise Failure("command", f"unknown command {token!r}, expected "
                                         f"one of {', '.join(_COMMANDS)}")
            command = token
            continue
        name, eq, value = token.partition("=")
        if name not in _OPTIONS:
            raise Failure(name, "unknown option")
        kind = _OPTIONS[name][1]
        if kind is bool:
            _require(not eq, name, "takes no value")
            args[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            _require(value is not None and not _is_option(value), name, "expected a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise Failure(name, f"must be an integer, got {value!r}") from None
        args[name] = value
    _require(command is not None, "command",
             f"missing, expected one of {', '.join(_COMMANDS)}")
    game = args["--game"]
    if command in REPORTS and None not in REPORTS[command]:  # the others ignore --game
        _require(game in REPORTS[command], "game", f"unknown {command} game {game!r}")
    args["command"] = command
    return args


def main(argv=None) -> int:
    args = None
    try:
        args = _arguments(sys.argv[1:] if argv is None else argv)
        if args is None:
            games = dict.fromkeys(g for reports in REPORTS.values() for g in reports if g)
            sys.stdout.write(_USAGE.format(commands=",".join(_COMMANDS), games=", ".join(games),
                                           experiments=", ".join(EXPERIMENTS)))
            return EXIT_OK
        command = args["command"]
        stages = ("solve", "encode", "write") if command == "experiment" else (
            "ingest", "solve", "encode", "write")
        ends = [time.perf_counter()]  # the start, then the end of each stage run
        # an overflow, invalid operation or division by zero raises where it
        # happens instead of printing a numpy warning; underflow is harmless
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            if command == "experiment":
                table = cmd_experiment(args["--experiment"], args["--seed"])
                ends.append(time.perf_counter())
                text = table.to_csv()
            else:
                _require(bool(args["--market"]), "market", "a --market file is required")
                loaded = load_market_file(args["--market"])
                ends.append(time.perf_counter())
                results = _results(args, loaded)
                ends.append(time.perf_counter())
                text = _report(command, loaded, results)
            ends.append(time.perf_counter())
        _emit(text, args["--out"])
        ends.append(time.perf_counter())
        return EXIT_OK
    except Failure as exc:
        print(f"{PREFIXES[exc.code]}: {exc}", file=sys.stderr)
        return exc.code
    finally:
        if args and args["--profile"]:  # after a failure, the stages that completed
            print("profile: " + ", ".join(
                f"{stage} {(end - start) * 1e3:.3f} ms"
                for stage, start, end in zip(stages, ends, ends[1:])), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
