#!/usr/bin/env python3
"""Digest every CLI report on a fixed seeded grid of market files.

Usage: python scripts/report_digests.py

Writes 60 market files into a temporary directory and runs each of the 8
market reports of `riskshare.cli.REPORTS`, in the table's order, on each file
in-process, through `riskshare.cli.main`. Prints one line per run: the market,
the command, its exit code and the sha256 of its stdout and of its stderr.
Two builds that print the same lines write the same report bytes and the
same failure messages on this grid.

The grid draws n from 2 to 9 agents, m from 3 to 8 states and k from 1 to 3
securities (fewer than m) from one seed. Every third market scales its
payoffs by a power of ten from 1e-150 to 1e150, every tenth duplicates a
security (a singular basket: exit 3), and every tenth, offset by five, is
malformed in one of several ways (exit 2).
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np

from riskshare import cli

MARKETS = 60
SEED = 20240


def _malform(doc: dict, kind: int) -> dict:
    """One of six malformed variants of a valid market document."""
    if kind == 0:
        doc["agents"][0]["gamma"] = -1.0
    elif kind == 1:
        doc["agents"][-1]["payoffs"] = doc["agents"][-1]["payoffs"][:-1]
    elif kind == 2:
        doc["probs"] = [2.0 * q for q in doc["probs"]]
    elif kind == 3:
        doc["agents"] = doc["agents"][:1]
    elif kind == 4:
        doc["agents"][0]["payoffs"][0] = "1.0"
    else:
        doc["parameters"] = {"kappa": 0.0}
    return doc


def market_documents():
    """The grid's market documents, in order."""
    rng = np.random.default_rng(SEED)
    for index in range(MARKETS):
        n, m = int(rng.integers(2, 10)), int(rng.integers(3, 9))
        k = min(int(rng.integers(1, 4)), m - 1)
        scale = 10.0 ** rng.uniform(-150.0, 150.0) if index % 3 == 0 else 1.0
        probs = rng.dirichlet(np.ones(m))
        probs /= probs.sum()
        gammas = rng.uniform(0.5, 2.0, n)
        payoffs = rng.normal(size=(n, m)) * scale
        securities = rng.normal(size=(k, m)) * scale
        if index % 10 == 1:
            securities = np.vstack([securities, securities[:1]])
        doc = {
            "schema": 1,
            "probs": probs.tolist(),
            "agents": [{"gamma": float(g), "payoffs": row.tolist()}
                       for g, row in zip(gammas, payoffs)],
            "securities": securities.tolist(),
            "parameters": {"kappa": float(rng.uniform(1.0, 20.0))},
        }
        if index % 10 == 5:
            doc = _malform(doc, index // 10)
        yield doc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    commands = [[command] + (["--game", game] if game else [])
                for command, games in cli.REPORTS.items() for game in games]
    with tempfile.TemporaryDirectory() as tmp:
        for index, doc in enumerate(market_documents()):
            path = pathlib.Path(tmp) / f"market-{index:02d}.json"
            path.write_text(json.dumps(doc))
            for command in commands:
                argv = command + ["--market", str(path)]
                if command[0] == "best-response":
                    argv += ["--agent", str(index % len(doc["agents"]))]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                print(path.stem, " ".join(command), code,
                      _digest(out.getvalue()), _digest(err.getvalue()))


if __name__ == "__main__":
    main()
