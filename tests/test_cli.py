import collections
import contextlib
import enum
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskshare.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    Failure,
    _encode,
    ingest_market_document,
    load_market_file,
    main,
)
from riskshare import cli, core, nash, pareto, strategic
from riskshare.experiments import EXPERIMENTS, correlated_pair_market


def write_market(tmp_path, name="market.json", **overrides):
    doc = {
        "schema": 1,
        "probs": [0.3, 0.3, 0.4],
        "agents": [
            {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
        ],
        "securities": [[1.0, 0.0, -1.0]],
        "parameters": {},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


COMMANDS = (
    ["pareto"],
    ["capm"],
    ["nash", "--game", "endowment"],
    ["nash", "--game", "percentage"],
    ["nash", "--game", "price"],
    ["best-response", "--game", "endowment"],
    ["best-response", "--game", "percentage"],
    ["best-response", "--game", "demand"],
)


class TestValidation:
    def test_missing_market_flag(self, capsys):
        assert main(["pareto"]) == EXIT_VALIDATION
        assert "market" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        assert main(["pareto", "--market", "/no/such/file.json"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("kind", ["not-utf8", "long-integer", "deep-nesting"])
    def test_unreadable_file_addressed(self, tmp_path, kind):
        path = write_market(tmp_path)
        path.write_bytes({
            "not-utf8": b"\xff\xfe" + path.read_bytes(),
            "long-integer": b'{"schema": 1, "probs": [' + b"7" * 5000 + b"]}",
            "deep-nesting": b"[" * 10**5,
        }[kind])
        code, out, err = _run(["pareto", "--market", str(path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert ADDRESSED.fullmatch(err), err
        # without an integer digit limit the long literal parses, and the
        # number is rejected by its index
        fields = ("file", "probs[0]") if kind == "long-integer" else ("file",)
        assert err.split(": ")[1] in fields, err

    def test_bad_gamma_addressed(self, tmp_path, capsys):
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": -1.0, "payoffs": [1.0, 0.0, 0.0]},
                {"gamma": 1.0, "payoffs": [0.0, 1.0, 0.0]},
            ],
        )
        assert main(["pareto", "--market", str(path)]) == EXIT_VALIDATION
        assert "agents[0].gamma" in capsys.readouterr().err

    def test_bad_schema(self, tmp_path, capsys):
        path = write_market(tmp_path, schema=99)
        assert main(["pareto", "--market", str(path)]) == EXIT_VALIDATION
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["true", "1.0"])
    def test_schema_is_the_integer_one(self, tmp_path, raw):
        path = write_market(tmp_path, schema="RAW")
        path.write_text(path.read_text().replace('"RAW"', raw))
        code, out, err = _run(["pareto", "--market", str(path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error: schema: "), err

    @pytest.mark.parametrize("field,raw", [
        ("securities", "false"),
        ("securities", "0"),
        ("securities", '""'),
        ("securities", "{}"),
        ("securities", "null"),
        ("parameters", "0"),
        ("parameters", "[]"),
        ("parameters", "false"),
        ("parameters", "null"),
    ])
    def test_present_optional_field_is_typed(self, tmp_path, field, raw):
        # a falsy value is present, not absent
        path = write_market(tmp_path, **{field: "RAW"})
        path.write_text(path.read_text().replace('"RAW"', raw))
        code, out, err = _run(["pareto", "--market", str(path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"validation error: {field}: "), err

    @pytest.mark.parametrize("overrides,line", [
        ({"agents": [{"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
                     {"gamma": 2.0, "payoffs": [-0.5, 1.5]}]},
         "agents[1].payoffs: payoff length 2 does not match space dimension 3"),
        ({"securities": [[1.0, 0.0, -1.0, 2.0]]},
         "securities[0]: payoff length 4 does not match space dimension 3"),
    ], ids=["agents", "securities"])
    def test_payoff_length_addressed(self, tmp_path, overrides, line):
        path = write_market(tmp_path, **overrides)
        for command in (["pareto"], ["nash", "--game", "price"]):
            code, out, err = _run(command + ["--market", str(path)])
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err == f"validation error: {line}\n"

    @pytest.mark.parametrize("probs, line", [
        ([0.3, 0.3, 0.5], "probabilities sum to 1.1, not 1"),  # a float, not its numpy repr
        ([0.0, 0.6, 0.4], "all state probabilities must be strictly positive"),
    ], ids=["sum", "zero"])
    def test_rejected_probabilities_addressed(self, tmp_path, probs, line):
        code, out, err = _run(["pareto", "--market", str(write_market(tmp_path, probs=probs))])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: probs: {line}\n"

    @pytest.mark.parametrize("command, line", [
        ("best-response", "unknown best-response game 'bogus'"),
        ("nash", "unknown nash game 'bogus'"),
    ])
    def test_unknown_game_addressed(self, tmp_path, command, line):
        # a command-line error, raised before the market file is read: a
        # missing file is not reported
        for path in (write_market(tmp_path), tmp_path / "missing.json"):
            code, out, err = _run([command, "--game", "bogus", "--market", str(path)])
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err == f"validation error: game: {line}\n"

    @pytest.mark.parametrize("command", [["capm"], ["best-response", "--game", "demand"],
                                         ["nash", "--game", "price"]])
    def test_basket_reports_need_securities(self, tmp_path, command):
        # one message for every report that reads the basket; a best
        # response checks its agent first
        path = str(write_market(tmp_path, securities=[]))
        assert _run(command + ["--market", path]) == (
            EXIT_VALIDATION, "",
            f"validation error: securities: command {' '.join(command)} needs securities\n")
        if command[0] == "best-response":
            assert _run(command + ["--market", path, "--agent", "2"]) == (
                EXIT_VALIDATION, "", "validation error: agent: must be in [0, 1]\n")

    def test_empty_optional_fields_mean_none(self, tmp_path, capsys):
        path = write_market(tmp_path, securities=[], parameters={})
        assert main(["pareto", "--market", str(path)]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["market"]
        assert echo["securities"] == []
        assert echo["parameters"] == {"kappa": 10.0, "max_iter": 10000}

    @pytest.mark.parametrize("command", [["pareto"], ["experiment", "--experiment",
                                                      "figure1"]])
    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_addressed(self, tmp_path, command, target):
        argv = command + ["--out", str(tmp_path / target)]
        if command[0] == "pareto":
            argv += ["--market", str(write_market(tmp_path))]
        code, out, err = _run(argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error: --out: "), err
        assert err.count("\n") == 1

    def test_unknown_parameter(self, tmp_path, capsys):
        path = write_market(tmp_path, parameters={"bogus": 1})
        assert main(["pareto", "--market", str(path)]) == EXIT_VALIDATION
        assert "parameters.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, line", [
        # the percentage game would run at the default kappa
        ({"paramters": {"kappa": 0.1}}, "paramters: unknown key"),
        # the market would have no basket
        ({"securites": [[1.0, 0.0, -1.0]]}, "securites: unknown key"),
        ({"agents": [{"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5], "name": "a"},
                     {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]}]},
         "agents[0].name: unknown key"),
        # the key is named, not its missing correction
        ({"agents": [{"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
                     {"gama": 2.0, "payoffs": [-0.5, 1.5, -1.0]}]},
         "agents[1].gama: unknown key"),
        # a newer schema fails on its version, not on the keys it adds
        ({"schema": 2, "comment": "v2"}, "schema: unsupported schema version 2, expected 1"),
    ], ids=["parameters", "securities", "agent", "agent-misspelled", "newer-schema"])
    def test_unknown_key_addressed(self, tmp_path, overrides, line):
        path = write_market(tmp_path, **overrides)
        code, out, err = _run(["nash", "--game", "percentage", "--market", str(path)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: {line}\n"

    def test_removed_solver_knobs(self, tmp_path, capsys):
        for name in ("damping", "tol", "seed"):
            path = write_market(tmp_path, parameters={name: 1})
            assert main(["nash", "--market", str(path)]) == EXIT_VALIDATION
            assert f"parameters.{name}: unknown parameter" in capsys.readouterr().err
        assert main(["nash", "--damping", "0.5", "--market", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "validation error: --damping: unknown option\n")

    def test_parameter_values_validated(self, tmp_path, capsys):
        # raw JSON text: non-finite, out-of-range, fractional and non-number values
        bad = {
            "kappa": ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, '"nan"',
                      "-1", "0", "true", "null"],
            "max_iter": ["2.7", "true", "0", "-5", '"10"', "1e3", "null"],
        }
        for name, values in bad.items():
            for raw in values:
                path = write_market(tmp_path, parameters={name: "RAW"})
                path.write_text(path.read_text().replace('"RAW"', raw))
                for command in (["pareto"], ["nash", "--game", "percentage"]):
                    assert main(command + ["--market", str(path)]) == EXIT_VALIDATION
                    err = capsys.readouterr().err
                    assert err.startswith(f"validation error: parameters.{name}: "), raw
        path = write_market(tmp_path, parameters={"kappa": 2, "max_iter": 3})
        assert main(["nash", "--game", "percentage", "--market", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["market"]["parameters"] == {"kappa": 2.0, "max_iter": 3}

    @pytest.mark.parametrize("field,raw", [
        ("agents[0].gamma", '"1"'),
        ("agents[0].gamma", "true"),
        ("agents[0].gamma", "Infinity"),
        ("agents[0].gamma", "1e400"),
        pytest.param("agents[0].gamma", "1" + "0" * 400, id="agents[0].gamma-int-beyond-float"),
        ("agents[0].gamma", "NaN"),
        ("agents[0].gamma", "null"),
        ("probs[0]", '"0.3"'),
        ("probs[0]", "false"),
        ("agents[0].payoffs[0]", '"1"'),
        ("agents[0].payoffs[0]", "true"),
        ("agents[0].payoffs[0]", "-1e400"),
        ("agents[0].payoffs[0]", "[1.0]"),
        ("securities[0][0]", '"1"'),
        ("securities[0][0]", "true"),
        ("securities[0][0]", "Infinity"),
    ])
    def test_strict_numbers(self, tmp_path, capsys, field, raw):
        # raw JSON text in place of one number; each must exit 2 addressed
        doc = {
            "probs": ["RAW", 0.3, 0.4] if field == "probs[0]" else [0.3, 0.3, 0.4],
            "agents": [
                {"gamma": "RAW" if field.endswith("gamma") else 1.0,
                 "payoffs": ["RAW" if "payoffs" in field else 1.0, -1.0, 0.5]},
                {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
            ],
            "securities": [["RAW" if field.startswith("securities") else 1.0, 0.0, -1.0]],
        }
        path = write_market(tmp_path, **doc)
        path.write_text(path.read_text().replace('"RAW"', raw))
        for command in (["pareto"], ["capm"]):
            assert main(command + ["--market", str(path)]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {field}: "), err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["nash", "--game", "percentage"],
        ["best-response", "--game", "percentage", "--agent", "1"],
    ])
    def test_constant_endowment_addressed(self, tmp_path, capsys, command):
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
                {"gamma": 2.0, "payoffs": [0.25, 0.25, 0.25]},
            ],
        )
        assert main(command + ["--market", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: agents[1].payoffs: "), err
        assert "non-constant" in err

    @pytest.mark.parametrize("command", [
        ["nash", "--game", "percentage"],
        ["best-response", "--game", "percentage", "--agent", "0"],
    ])
    def test_riskless_cash_addressed_when_probabilities_miss_one(self, tmp_path, capsys,
                                                                command):
        # 5 states whose probabilities sum to 1 + 2^-52 in floating point: a
        # riskless agent of cash 6.62e29 still has no risk to scale
        path = write_market(
            tmp_path,
            probs=[0.03637607882021685, 0.29962885118462723, 0.3746409298516763,
                   0.08593558124337788, 0.20341855890010202],
            agents=[
                {"gamma": 1.0, "payoffs": [6.62e29] * 5},
                {"gamma": 2.0, "payoffs": np.random.default_rng(45).normal(size=5).tolist()},
            ],
            securities=[[1.0, 0.0, -1.0, 0.5, 0.0]],
        )
        assert main(command + ["--market", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation error: agents[0].payoffs: "), err
        assert "non-constant" in err

    def test_percentage_response_ignores_other_riskless_agents(self, tmp_path, capsys):
        # the single-deviator response checks only its own agent's variance
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
                {"gamma": 2.0, "payoffs": [0.25, 0.25, 0.25]},
            ],
        )
        command = ["best-response", "--game", "percentage", "--agent", "0"]
        assert main(command + ["--market", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["results"]["response"] >= 0.0

    def test_singular_basket_addressed(self, tmp_path, capsys):
        # a singular basket is rejected as the file is read, so also by the
        # reports that never read the basket (the benchmark runs pareto on three)
        path = write_market(tmp_path, securities=[[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]])
        for command in COMMANDS:
            assert main(command + ["--market", str(path)]) == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.startswith("numerical precondition violated: securities: ")

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_subnormal_basket_addressed(self, tmp_path, scale):
        # Var[C] of the security [s, 0, -s] is subnormal: its inverse would
        # overflow, so the basket is singular, for every report
        path = write_market(tmp_path, securities=[[scale, 0.0, -scale]])
        for command in COMMANDS:
            code, out, err = _run(list(command) + ["--market", str(path)])
            assert (code, out) == (EXIT_NUMERICAL, ""), command
            assert err.startswith("numerical precondition violated: securities: "), err

    def test_small_normal_basket_solved(self, tmp_path):
        # at s = 1e-150 Var[C] is a normal float, and every report succeeds
        path = write_market(tmp_path, securities=[[1e-150, 0.0, -1e-150]])
        for command in COMMANDS:
            code, out, err = _run(list(command) + ["--market", str(path)])
            assert (code, err) == (EXIT_OK, ""), command
            json.loads(out, parse_constant=_reject)

    def test_singular_endowments_addressed(self, tmp_path, capsys):
        # three endowments on three states span at most two centered directions
        path = write_market(tmp_path, agents=[
            {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
            {"gamma": 1.5, "payoffs": [0.0, 2.0, 0.25]},
        ])
        assert main(["pareto", "--market", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical precondition violated: agents: endowment "
                              "covariance matrix Var[E] is singular; "), err

    def test_capm_needs_securities(self, tmp_path, capsys):
        path = write_market(tmp_path, securities=[])
        assert main(["capm", "--market", str(path)]) == EXIT_VALIDATION

    def test_disparate_gammas_addressed(self, tmp_path, capsys):
        # the complement 1 - gamma/gamma_0 of (1e-300, 1e300) underflows to 0
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1e-300, "payoffs": [1.0, -1.0, 0.5]},
                {"gamma": 1e300, "payoffs": [-0.5, 1.5, -1.0]},
            ],
        )
        for command in ("pareto", "nash"):
            assert main([command, "--market", str(path)]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("validation error: agents: risk aversions")
            assert "1e-300" in err
            assert "Traceback" not in err


class TestCommands:
    def test_pareto_success(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["pareto", "--market", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "pareto"
        assert len(report["results"]["contracts"]) == 2
        assert report["results"]["aggregate_gain"] >= 0.0

    def test_pareto_collinear_endowments_exit_3(self, tmp_path, capsys):
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.0]},
                {"gamma": 1.0, "payoffs": [-1.0, 1.0, 0.0]},
            ],
        )
        assert main(["pareto", "--market", str(path)]) == EXIT_NUMERICAL
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4000, 20_000])
    def test_pareto_large_market_exits_before_n_by_n(self, tmp_path, capsys, n):
        # n >= m endowments are singular by rank: the command exits 3 before
        # it builds one n x n array (the weights or Var[E]), which would take
        # 128 MB at n = 4000 and 3.2 GB at n = 2e4. The load is left out of
        # the trace: at n = 2e4 its JSON objects alone take about 23 MB.
        rng = np.random.default_rng(28)
        agents = [{"gamma": float(g), "payoffs": row.tolist()}
                  for g, row in zip(rng.uniform(0.5, 2.0, n), rng.normal(size=(n, 6)))]
        path = write_market(tmp_path, probs=[1.0 / 6] * 6, agents=agents, securities=[])
        loaded = load_market_file(str(path))
        tracemalloc.start()
        try:
            with pytest.raises(Failure, match=r"^agents: endowment covariance matrix "
                                              r"Var\[E\] is singular; "):
                cli._results(cli._arguments(["pareto"]), loaded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        assert "gram" not in vars(loaded["market"])
        assert main(["pareto", "--market", str(path)]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("numerical precondition violated: agents: "), err

    def test_pareto_deviation_near_sqrt_of_float_max(self, tmp_path):
        # a deviation of 2e154 in a state of probability 0.01 squares past the
        # float range, but its p-weighted square, and every result, is finite
        scale = 1e153
        probs = np.array([0.01, 0.33, 0.33, 0.33])
        gammas = np.array([1.0, 2.0, 1.5])
        payoffs = scale * np.array([[20.0, 1.0, -2.0, 0.5],
                                    [-15.0, 2.0, 1.0, -1.0],
                                    [5.0, -1.0, 1.5, 2.0]])
        path = write_market(
            tmp_path, probs=probs.tolist(), securities=[],
            agents=[{"gamma": g, "payoffs": row.tolist()}
                    for g, row in zip(gammas.tolist(), payoffs)])
        code, out, err = _run(["pareto", "--market", str(path)])
        assert (code, err) == (EXIT_OK, "")
        rows = payoffs - (payoffs @ probs)[:, None]
        total = rows.sum(axis=0)
        want = (gammas @ ((rows * probs) * rows).sum(axis=1)
                - ((total * probs) * total).sum() / (1.0 / gammas).sum())
        got = json.loads(out)["results"]["aggregate_gain"]
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_overflowing_payoff_never_reports_nan(self, tmp_path, capsys):
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1.0, "payoffs": [1e200, -1.0, 0.5]},
                {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
            ],
        )

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        for command in (
            ["pareto"],
            ["capm"],
            ["nash", "--game", "endowment"],
            ["nash", "--game", "percentage"],
            ["nash", "--game", "price"],
            ["best-response", "--game", "endowment"],
            ["best-response", "--game", "percentage"],
            ["best-response", "--game", "demand"],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(command + ["--market", str(path)])
            out, err = capsys.readouterr()
            # the price game forms no utility, and its price, schedules,
            # allocation and pressure are finite here
            allowed = (EXIT_OK,) if command[-1] == "price" else (EXIT_OK, EXIT_NUMERICAL)
            assert code in allowed, command
            assert "Traceback" not in err
            assert not caught, command
            if code == EXIT_OK:
                json.loads(out, parse_constant=reject)
                assert err == ""
            else:
                assert err.startswith("numerical precondition violated: results:")
                assert err.count("\n") == 1, command

    def test_capm_success(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["capm", "--market", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["prices"]) == 1
        assert "constrained_loss" in report["results"]

    def test_best_response_modes(self, tmp_path, capsys):
        path = write_market(tmp_path)
        for mode in ("endowment", "percentage", "demand"):
            assert main(
                ["best-response", "--market", str(path), "--agent", "0",
                 "--game", mode]
            ) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["results"]["utility_after"] >= (
                report["results"]["utility_before"] - 1e-9
            )

    def test_best_response_agent_out_of_range(self, tmp_path):
        path = write_market(tmp_path)
        assert main(
            ["best-response", "--market", str(path), "--agent", "7"]
        ) == EXIT_VALIDATION

    def test_nash_endowment_includes_table(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["nash", "--market", str(path), "--game", "endowment"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert "table1" in report["results"]
        assert len(report["results"]["table1"]) == 5
        assert report["results"]["inefficiency"] >= -1e-9

    def test_nash_percentage(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["nash", "--market", str(path), "--game", "percentage"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["converged"] is True
        assert len(report["results"]["b_star"]) == 2

    def test_nash_percentage_non_convergence_exit_4(self, tmp_path):
        # agent 0 starts clamped at zero and is free after the first solve
        pair = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        path = write_market(
            tmp_path,
            probs=pair.space.probs.tolist(),
            agents=[
                {"gamma": a.gamma, "payoffs": a.endowment.payoffs.tolist()}
                for a in pair.agents
            ],
            parameters={"max_iter": 1},
        )
        assert main(
            ["nash", "--market", str(path), "--game", "percentage"]
        ) == EXIT_NO_CONVERGENCE

    def test_nash_percentage_stable_non_convergence_addressed_to_agents(
            self, tmp_path, monkeypatch):
        # b*_0 is about 9.3e12, accepted at a residual of one ulp of b; when
        # no residual is accepted, the stable active set is not blamed on
        # max_iter
        path = write_market(
            tmp_path,
            probs=[0.25, 0.25, 0.5],
            agents=[{"gamma": 1.0, "payoffs": [2.0**-45, -2.0**-45, 2.0**-46]},
                    {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.75]}],
            parameters={"kappa": 1e15},
        )
        argv = ["nash", "--game", "percentage", "--market", str(path)]
        code, out, err = _run(argv)
        assert code == EXIT_OK, err
        monkeypatch.setattr(nash, "RESIDUAL_TOL", -1.0)  # rejects any residual
        code, out, err = _run(argv)
        assert code == EXIT_NO_CONVERGENCE
        assert err.startswith("non-convergence: agents: "), err
        assert "max_iter" not in err

    def test_nash_price_includes_pressure(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["nash", "--market", str(path), "--game", "price"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["pressure"]) == 1
        assert len(report["results"]["schedules"]) == 2

    def test_report_schema(self, tmp_path, capsys):
        # the ordered keys of every report; results follow the engines'
        # outcome types field by field
        response = ["agent", "mode", "response", "utility_before", "utility_after"]
        expected = {
            ("pareto",): ["contracts", "weights", "endowment_prices",
                          "utility_levels", "aggregate_gain"],
            ("capm",): ["prices", "allocation", "utility_levels", "gains",
                        "constrained_loss", "constrained_loss_total"],
            ("best-response", "--game", "endowment"): response,
            ("best-response", "--game", "percentage"): response,
            ("best-response", "--game", "demand"): response,
            ("nash", "--game", "endowment"): ["reported", "aggregate", "contracts",
                                              "inefficiency", "per_agent_gain",
                                              "table1"],
            ("nash", "--game", "percentage"): ["b_star", "kappa", "iterations",
                                               "converged", "residual",
                                               "per_agent_gain"],
            ("nash", "--game", "price"): ["price", "schedules", "allocation",
                                          "pressure"],
        }
        path = write_market(tmp_path)
        for command, keys in expected.items():
            assert main(list(command) + ["--market", str(path)]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert list(report) == ["command", "market", "results"]
            results = report["results"]
            assert list(results) == keys, command
            if command[-1] == "demand":
                assert list(results["response"]) == ["gamma", "c"]
            if command[-1] == "price":
                assert [list(s) for s in results["schedules"]] == [["gamma", "c"]] * 2
        assert main(["nash", "--market", str(path)]) == EXIT_OK
        table = json.loads(capsys.readouterr().out)["results"]["table1"]
        assert [list(r) for r in table] == [
            ["row", "pareto_engine", "pareto_closed", "nash_engine", "nash_closed"]
        ] * 5
        assert [r["row"] for r in table] == [
            "aggregate_shared_endowment", "reported_endowment", "purchased_contract",
            "gain_of_utility", "inefficiency",
        ]

    def test_out_flag_writes_file(self, tmp_path):
        path = write_market(tmp_path)
        out = tmp_path / "report.json"
        assert main(["pareto", "--market", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["command"] == "pareto"

    @pytest.mark.parametrize("command", [["pareto"], ["experiment", "--experiment", "figure1"],
                                         *COMMANDS[1:]])
    def test_stdout_bytes_equal_out_bytes(self, tmp_path, capsysbinary, command):
        argv = command + ["--market", str(write_market(tmp_path))]
        out = tmp_path / "out.txt"
        assert main(argv) == EXIT_OK
        printed = capsysbinary.readouterr().out
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert printed == out.read_bytes()
        assert printed.endswith(b"\n") and not printed.endswith(b"\n\n")

    def test_usage_error_leaves_next_call_unchanged(self, tmp_path, capsys):
        path = write_market(tmp_path)
        argv = ["best-response", "--agent", "1", "--market", str(path)]
        assert main(argv) == EXIT_OK
        fresh = capsys.readouterr()
        assert main(["best-response", "--agent", "x", "--market", str(path)]) == EXIT_VALIDATION
        assert "--agent" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == fresh


class TestNoObjectPerAgent:
    # `Rv` and `DemandSchedule` constructions per command, the same at every n:
    # the basket's security, plus a best response's report; its truthful
    # utility is an engine's level, built from arrays. The demand response
    # builds only the best report's schedule: both its utilities are the
    # basket mechanism's levels on exposure rows, with no pooled schedule and
    # no price. pareto exits 3 on Var[E] before it builds a contract
    OBJECTS = {
        ("pareto",): 1,
        ("capm",): 1,
        ("nash", "--game", "percentage"): 1,
        ("best-response", "--game", "endowment"): 2,
        ("best-response", "--game", "percentage"): 2,
        ("best-response", "--game", "demand"): 2,
        ("nash", "--game", "price"): 1,
    }
    # ROADMAP item 6's remainder: this outcome still holds one object per
    # agent, which its report prints: the Nash reports, which the benchmark
    # reads as `Rv`s (`nash_endowment(...).reported`); it grows by exactly
    # those objects
    PER_AGENT = {
        ("nash", "--game", "endowment"): 1,
    }

    @staticmethod
    def _market_file(tmp_path, n):
        rng = np.random.default_rng(29)
        agents = [{"gamma": float(g), "payoffs": row.tolist()}
                  for g, row in zip(rng.uniform(0.5, 2.0, n), rng.normal(size=(n, 6)))]
        return write_market(tmp_path, name=f"market-{n}.json", probs=[1.0 / 6] * 6,
                            agents=agents, securities=[rng.normal(size=6).tolist()])

    @staticmethod
    def _count_built(monkeypatch) -> list:
        """A list that grows by one for each `Rv` and `DemandSchedule` built."""
        built = []
        for cls in (core.Rv, core.DemandSchedule):
            post = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda obj, post=post: built.append(1) or post(obj))
        trusted = core.Rv._trusted
        monkeypatch.setattr(core.Rv, "_trusted", classmethod(
            lambda _, *args: built.append(1) or trusted(*args)))
        return built

    def test_objects_per_command_do_not_grow_with_n(self, tmp_path, monkeypatch):
        built = self._count_built(monkeypatch)
        counts = {}
        for n in (10, 1000):
            path = self._market_file(tmp_path, n)
            for command in COMMANDS:
                built.clear()
                code = _run(list(command) + ["--market", str(path)])[0]
                assert code == (EXIT_NUMERICAL if command == ["pareto"] else EXIT_OK)
                counts[tuple(command), n] = len(built)
        assert set(self.OBJECTS) | set(self.PER_AGENT) == set(map(tuple, COMMANDS))
        for command, count in self.OBJECTS.items():
            assert (counts[command, 10], counts[command, 1000]) == (count, count), command
        for command, per_agent in self.PER_AGENT.items():
            assert counts[command, 1000] - counts[command, 10] == per_agent * 990, command

    def test_contract_matrices_build_no_object(self, monkeypatch):
        # the pareto report exits 3 on Var[E] at n >= m before it builds a
        # contract, so the engines are counted here: the Pareto and the Nash
        # contracts and the Nash aggregate are arrays, and only the n Nash
        # reports are built as `Rv`s
        rng = np.random.default_rng(29)
        market = core.Market.from_arrays(core.ProbSpace([1.0 / 6] * 6),
                                         rng.uniform(0.5, 2.0, 1000),
                                         rng.normal(size=(1000, 6)))
        built = self._count_built(monkeypatch)
        contracts = pareto.optimal_sharing(market)
        assert (len(built), contracts.shape, contracts.flags.writeable) == (0, (1000, 6), False)
        outcome = nash.nash_endowment(market)
        assert len(built) == len(outcome.reported) == 1000
        assert not (outcome.contracts.flags.writeable or outcome.aggregate.flags.writeable)

    def test_price_schedules_build_no_object(self, monkeypatch):
        # the price game's schedules are the n x k matrix of the reports'
        # covariances: agent i's schedule is (gamma_i, row i)
        rng = np.random.default_rng(29)
        space = core.ProbSpace([1.0 / 6] * 6)
        market = core.Market.from_arrays(space, rng.uniform(0.5, 2.0, 1000),
                                         rng.normal(size=(1000, 6)))
        basket = core.SecurityBasket((space.rv(rng.normal(size=6)),))
        built = self._count_built(monkeypatch)
        schedules = nash.nash_price(market, basket).schedules
        assert len(built) == 0
        assert (schedules.shape, schedules.dtype, schedules.flags.writeable) == (
            (1000, basket.k), np.dtype(float), False)

    def test_commands_build_no_agent(self, tmp_path, monkeypatch):
        # ingest builds the market from arrays, and no command reads its
        # per-agent objects: not one Agent is constructed in eight runs
        built = []
        post_init = core.Agent.__post_init__
        monkeypatch.setattr(core.Agent, "__post_init__",
                            lambda agent: built.append(1) or post_init(agent))
        loaded = []

        def ingest(doc, ingest=cli.ingest_market_document):
            loaded.append(ingest(doc))
            return loaded[-1]

        monkeypatch.setattr(cli, "ingest_market_document", ingest)
        path = self._market_file(tmp_path, 1000)
        codes = [_run(list(command) + ["--market", str(path)])[0] for command in COMMANDS]
        # 1000 endowments on 6 states are singular by rank, so pareto exits 3
        assert codes == [EXIT_NUMERICAL] + [EXIT_OK] * 7
        assert len(loaded) == len(COMMANDS)
        assert built == []
        assert not any("agents" in vars(entry["market"]) for entry in loaded)


def _flat(value, path=""):
    """Numeric leaves of a report by path; lists of objects are indexed."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _flat(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for j, v in enumerate(value):
            yield from _flat(v, f"{path}[{j}]")
    elif not isinstance(value, str):
        yield path, np.asarray(value, dtype=float)


def _cash(gammas, agent, c):
    """Cash each field carries when agent 0's endowment is shifted by c.

    Contracts keep the constants of their weights on the endowments; the
    Nash reports, contracts and aggregate are linear in the endowments.
    Every field not named here is cash-free.
    """
    g = 1.0 / np.sum(1.0 / gammas)
    share = g / gammas
    alpha = (1.0 - share) / (1.0 - share @ share)  # Nash aggregate weights
    first = np.eye(len(gammas))[0]
    reported = ((1.0 - share) * first + share**2 * alpha[0]) * c
    contracts = share * alpha[0] * c - reported
    own = c if agent == 0 else 0.0
    cash = {
        "pareto.contracts": (share - first)[:, None] * c,
        "pareto.endowment_prices": first * c,
        "pareto.utility_levels": first * c,
        "capm.utility_levels": first * c,
        "nash endowment.reported": reported[:, None],
        "nash endowment.aggregate": alpha[0] * c,
        "nash endowment.contracts": contracts[:, None],
    }
    for mode in ("endowment", "percentage", "demand"):
        cash[f"best-response {mode}.utility_before"] = own
        cash[f"best-response {mode}.utility_after"] = own
    if len(gammas) == 2:
        g1, g2 = gammas
        half = g1 / (g1 + g2)
        rows = [  # pareto engine and closed form, nash engine and closed form
            (c, c, alpha[0] * c, g1 / (2.0 * g) * c),
            (c, c, reported[0], (2.0 * g1 + g2) / (2.0 * (g1 + g2)) * c),
            ((share[0] - 1.0) * c, -half * c, contracts[0], -0.5 * half * c),
        ]
        for j, cells in enumerate(rows):
            for col, x in zip(("pareto_engine", "pareto_closed", "nash_engine",
                               "nash_closed"), cells):
                cash[f"nash endowment.table1[{j}].{col}"] = x
    return cash


class TestCashShift:
    """Shifting an endowment by cash moves only the fields that carry cash."""

    @staticmethod
    def _results(doc, agent):
        loaded = ingest_market_document(doc)
        results = {}
        for command in COMMANDS:  # keyed by the command and its game: "nash price"
            args = cli._arguments(command + ["--agent", str(agent)])
            results[" ".join(command[::2])] = cli._results(args, loaded)
        return dict(_flat(json.loads(json.dumps(results, default=_encode))))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(0, 3),
        st.integers(1, 2),
        st.integers(0, 40),
        st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_exact_shift_of_dyadic_market(self, seed, n, extra, k, j, agent):
        # dyadic payoffs (k/1024) and gammas: adding 2^j to agent 0's payoffs
        # is exact, so any gap is the algorithm's fault
        rng = np.random.default_rng(seed)
        m, agent = n + 1 + extra, agent % n
        gammas = rng.integers(1, 17, size=n) / 8.0
        payoffs = rng.integers(-2048, 2049, size=(n, m)) / 1024.0
        doc = {
            "schema": 1,
            "probs": rng.dirichlet(np.ones(m) * 5.0).tolist(),
            "agents": [{"gamma": g, "payoffs": e}
                       for g, e in zip(gammas.tolist(), payoffs.tolist())],
            "securities": (rng.integers(-2048, 2049, size=(k, m)) / 1024.0).tolist(),
        }
        base = self._results(doc, agent)
        c = 2.0**j
        doc["agents"][0]["payoffs"] = (payoffs[0] + c).tolist()
        shifted = self._results(doc, agent)
        cash = _cash(gammas, agent, c)
        assert list(shifted) == list(base)
        for path, x in base.items():
            y = shifted[path]
            if path in cash:
                gap, scale = np.abs(y - cash[path] - x), np.abs(y)
            else:
                gap, scale = np.abs(y - x), np.abs(x)
            assert np.all(gap <= 1e-12 * (1.0 + scale)), (path, np.max(gap))


# The power d of 2^k by which each report field scales when every payoff and
# security is multiplied by 2^k and every gamma by 2^-k, by the field's path
# without list indices: payoffs, prices and utilities scale once, gammas
# inversely, covariances with a security twice, and quantities, shares and
# percentages not at all.
UNIT_POWERS = {
    "market.schema": 0,
    "market.probs": 0,
    "market.agents.gamma": -1,
    "market.agents.payoffs": 1,
    "market.securities": 1,
    "market.parameters.kappa": 0,
    "market.parameters.max_iter": 0,
    **{f"pareto.{key}": d for key, d in (
        ("contracts", 1), ("weights", 0), ("endowment_prices", 1),
        ("utility_levels", 1), ("aggregate_gain", 1))},
    **{f"capm.{key}": d for key, d in (
        ("prices", 1), ("allocation", 0), ("utility_levels", 1), ("gains", 1),
        ("constrained_loss", 1), ("constrained_loss_total", 1))},
    **{f"best-response {mode}.{key}": d
       for mode in ("endowment", "percentage", "demand")
       for key, d in (("agent", 0), ("utility_before", 1), ("utility_after", 1))},
    "best-response endowment.response": 1,
    "best-response percentage.response": 0,
    "best-response demand.response.gamma": -1,
    "best-response demand.response.c": 2,
    **{f"nash endowment.{key}": d for key, d in (
        ("reported", 1), ("aggregate", 1), ("contracts", 1), ("inefficiency", 1),
        ("per_agent_gain", 1))},
    **{f"nash endowment.table1.{col}": 1 for col in (
        "pareto_engine", "pareto_closed", "nash_engine", "nash_closed")},
    **{f"nash percentage.{key}": d for key, d in (
        ("b_star", 0), ("kappa", 0), ("iterations", 0), ("converged", 0),
        ("residual", 0), ("per_agent_gain", 1))},
    **{f"nash price.{key}": d for key, d in (
        ("price", 1), ("schedules.gamma", -1), ("schedules.c", 2),
        ("allocation", 0), ("pressure", 2))},
}

# a market on which libm's pow once broke exact scaling at k = 7
POW_MARKET = {
    "schema": 1,
    "probs": [5 / 14, 3 / 14, 2 / 14, 1 / 14, 3 / 14],
    "agents": [
        {"gamma": 0.9375, "payoffs": [5.0625, 6.25, -1.640625, -1.765625, 4.546875]},
        {"gamma": 0.625, "payoffs": [-7.796875, -4.671875, 7.984375, -0.90625, 7.28125]},
    ],
    "securities": [[2.84375, -3.796875, -4.859375, 2.171875, 2.5]],
}


@st.composite
def dyadic_markets(draw):
    """Markets whose gammas, payoffs and securities are dyadic rationals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    m = n + 1 + draw(st.integers(0, 2))
    gammas = rng.integers(1, 33, size=n) / 16.0
    payoffs = rng.integers(-512, 513, size=(n, m)) / 64.0
    securities = rng.integers(-512, 513, size=(draw(st.integers(1, 2)), m)) / 64.0
    return {
        "schema": 1,
        "probs": rng.dirichlet(np.ones(m) * 5.0).tolist(),
        "agents": [{"gamma": g, "payoffs": e}
                   for g, e in zip(gammas.tolist(), payoffs.tolist())],
        "securities": securities.tolist(),
    }


class TestUnitScaling:
    """Payoffs times 2^k and gammas times 2^-k scale every field exactly."""

    @staticmethod
    def _reports(path, doc, agent):
        path.write_text(json.dumps(doc))
        reports = {}
        for command in COMMANDS:
            name = " ".join(c for c in command if c != "--game")
            code, out, _ = _run(list(command) + ["--agent", str(agent),
                                                 "--market", str(path)])
            reports[name] = code, json.loads(out) if code == EXIT_OK else None
        return reports

    @given(dyadic_markets(), st.integers(-30, 30), st.integers(0, 3))
    @example(POW_MARKET, 7, 0)
    @settings(max_examples=100)
    def test_exact_unit_scaling(self, tmp_path_factory, doc, k, agent):
        path = tmp_path_factory.getbasetemp() / "scaled.json"
        agent %= len(doc["agents"])
        base = self._reports(path, doc, agent)
        c = 2.0**k
        scaled_doc = {
            **doc,
            "agents": [{"gamma": a["gamma"] / c, "payoffs": [x * c for x in a["payoffs"]]}
                       for a in doc["agents"]],
            "securities": [[x * c for x in s] for s in doc["securities"]],
        }
        scaled = self._reports(path, scaled_doc, agent)
        for name, (code, report) in base.items():
            assert scaled[name][0] == code, name
            if code != EXIT_OK:
                continue
            fields = dict(_flat(scaled[name][1]))
            for where, x in _flat(report):
                key = re.sub(r"\[\d+\]", "", where).replace("results", name)
                want = x * 2.0 ** (UNIT_POWERS[key] * k)
                assert fields[where].tobytes() == want.tobytes(), (name, where, k)


# Result fields by their path without list indices: those with a state axis
# (the last; a table1 cell has one when it is a payoff row), those with agent
# axes (every axis of `pareto.weights`, the first of the others), and those
# computed through Var^{-1}[C], whose rounding grows with its condition number
STATE_AXIS = {"pareto.contracts", "nash endowment.reported", "nash endowment.aggregate",
              "nash endowment.contracts", "best-response endowment.response"}
AGENT_AXIS = {
    "pareto.contracts", "pareto.weights", "pareto.endowment_prices", "pareto.utility_levels",
    "capm.allocation", "capm.utility_levels", "capm.gains", "capm.constrained_loss",
    "nash endowment.reported", "nash endowment.contracts", "nash endowment.per_agent_gain",
    "nash percentage.b_star", "nash percentage.per_agent_gain", "nash price.allocation",
}
BASKET_INVERSE = {
    "capm.allocation", "capm.gains", "capm.utility_levels", "capm.constrained_loss",
    "capm.constrained_loss_total", "nash price.allocation",
    "best-response demand.utility_before", "best-response demand.utility_after",
}


class TestInvariance:
    """Splitting a state into two of half its probability with equal payoffs,
    or relabeling the agents, changes no result beyond rounding.

    A result of unit d (`UNIT_POWERS`) must agree within TOL times the scale
    of that unit in the report: the largest magnitude among its fields of
    unit d, the echoed market's included, and at least s^d, s the largest
    payoff. So a result computed by cancellation, as a constrained loss near
    zero or a price E[C] - 2 gamma Cov(C, M), is held to the scale of the
    terms it is computed from. A result computed through Var^{-1}[C] is held
    to that bound times cond(Var[C]). The echoed market is not compared.
    """

    TOL = 1e-14

    @classmethod
    def _assert_agree(cls, base, other, cond, expected):
        """Every command exits as in `base`, and each result of `other` agrees
        with `expected(key, path, value)`: the path and value of a base result
        where the relation puts them, or None for a result it does not map."""
        for name, (code, report) in base.items():
            assert other[name][0] == code, name
            if code != EXIT_OK:
                continue
            flat = {where: (re.sub(r"\[\d+\]", "", where).replace("results", name), x)
                    for where, x in _flat(report)}
            payoff = max(np.max(np.abs(x)) for key, x in flat.values()
                         if UNIT_POWERS[key] == 1 and key.startswith("market."))
            scale = collections.defaultdict(float)
            for key, x in flat.values():
                d = UNIT_POWERS[key]
                scale[d] = max(scale[d], payoff**d, np.max(np.abs(x), initial=0.0))
            got = dict(_flat(other[name][1]["results"]))
            results = {where.removeprefix("results."): entry for where, entry in flat.items()
                       if where.startswith("results.")}
            assert set(got) == set(results), name
            for path, (key, x) in results.items():
                mapped = expected(key, path, x)
                if mapped is None:
                    continue
                where, want = mapped
                bound = cls.TOL * scale[UNIT_POWERS[key]] * (cond if key in BASKET_INVERSE else 1.0)
                assert np.all(np.abs(got[where] - want) <= bound), (name, path, where)

    @staticmethod
    def _condition(doc):
        """cond(Var[C]) of the document's basket."""
        p, c = np.array(doc["probs"]), np.array(doc["securities"])
        c = c - (c @ p)[:, None]
        return np.linalg.cond((c * p) @ c.T)

    @given(dyadic_markets(), st.integers(0, 3), st.data())
    @settings(max_examples=100)
    def test_split_state(self, tmp_path_factory, doc, agent, data):
        path = tmp_path_factory.getbasetemp() / "split.json"
        agent %= len(doc["agents"])
        j = data.draw(st.integers(0, len(doc["probs"]) - 1))

        def split(row):
            return row[:j] + [row[j]] * 2 + row[j + 1:]

        split_doc = {
            **doc,
            "probs": split([q / 2.0 if k == j else q for k, q in enumerate(doc["probs"])]),
            "agents": [{"gamma": a["gamma"], "payoffs": split(a["payoffs"])}
                       for a in doc["agents"]],
            "securities": [split(c) for c in doc["securities"]],
        }
        repeats = np.where(np.arange(len(doc["probs"])) == j, 2, 1)

        def expected(key, path, x):
            state = key in STATE_AXIS or ("table1" in key and x.ndim == 1)
            return path, np.repeat(x, repeats, axis=-1) if state else x

        self._assert_agree(TestUnitScaling._reports(path, doc, agent),
                           TestUnitScaling._reports(path, split_doc, agent),
                           self._condition(doc), expected)

    @given(dyadic_markets(), st.integers(0, 3), st.data())
    @settings(max_examples=100)
    def test_relabel_agents(self, tmp_path_factory, doc, agent, data):
        path = tmp_path_factory.getbasetemp() / "relabeled.json"
        n = len(doc["agents"])
        agent %= n
        perm = np.array(data.draw(st.permutations(range(n))))  # new agent j is old perm[j]
        label = np.argsort(perm)  # old agent i is new label[i]
        relabeled = {**doc, "agents": [doc["agents"][i] for i in perm]}

        def expected(key, path, x):
            schedule = re.fullmatch(r"schedules\[([0-9]+)\](.*)", path)
            if schedule:
                return f"schedules[{label[int(schedule[1])]}]{schedule[2]}", x
            if key == "pareto.weights":
                return path, x[np.ix_(perm, perm)]
            if key in AGENT_AXIS:
                return path, x[perm]
            if key.endswith(".agent"):
                return path, label[int(x)]
            if "table1" in key and perm[0] != 0:  # agent 1's side of the table
                return None
            return path, x

        self._assert_agree(TestUnitScaling._reports(path, doc, agent),
                           TestUnitScaling._reports(path, relabeled, int(label[agent])),
                           self._condition(doc), expected)


class TestRoundTrip:
    @pytest.mark.parametrize("command,extra", [
        ("pareto", []),
        ("capm", []),
        ("nash", ["--game", "endowment"]),
        ("nash", ["--game", "percentage"]),
        ("nash", ["--game", "price"]),
    ])
    def test_echoed_market_reproduces_report(self, tmp_path, capsys, command, extra):
        path = write_market(tmp_path)
        assert main([command, "--market", str(path)] + extra) == EXIT_OK
        first = capsys.readouterr().out
        echo = json.loads(first)["market"]
        second_path = tmp_path / "echoed.json"
        second_path.write_text(json.dumps(echo))
        assert main([command, "--market", str(second_path)] + extra) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestExperimentCommand:
    def test_decay_csv(self, capsys):
        assert main(["experiment", "--experiment", "decay"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n,inefficiency" in out

    def test_homogeneous_decay_csv(self, capsys):
        assert main(["experiment", "--experiment", "decay-homogeneous"]) == EXIT_OK
        assert "verdict" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "--experiment", "nope"]) == EXIT_VALIDATION

    def test_seeded_determinism(self, capsys):
        assert main(["experiment", "--experiment", "decay", "--seed", "11"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["experiment", "--experiment", "decay", "--seed", "11"]) == EXIT_OK
        assert first == capsys.readouterr().out

    def test_negative_seed_addressed(self, capsys):
        assert main(["experiment", "--seed", "-1"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "validation error: --seed: must be a non-negative integer\n"


def test_commands_are_the_report_table():
    # COMMANDS drives the unit-scaling, per-command object and cash-shift
    # tests: it holds each report of the table once
    table = [[command] + (["--game", game] if game else [])
             for command, games in cli.REPORTS.items() for game in games]
    assert len(table) == len(COMMANDS) == 8
    assert sorted(map(tuple, COMMANDS)) == sorted(map(tuple, table))


# one stderr line, addressed to a field
ADDRESSED = re.compile(r"(validation error|numerical precondition violated|"
                       r"non-convergence): [\w.\[\]-]+: [^\n]*\n")


def _run(argv):
    """main's exit code, stdout and stderr, failing on any warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


class TestDisparateRiskAversions:
    """Risk aversions far apart are valid: every command solves them."""

    @pytest.mark.parametrize("gammas", [(1e-20, 1.0), (1.0, 1e17), (1.0, 2.0**60),
                                        (1.0, 1e200), (1e-150, 1e150)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_disparate_gammas_solved(self, tmp_path, gammas, command):
        # valid markets that a test of 1 - sum_i s_i^2 > 0 in floating point rejected
        path = write_market(tmp_path, agents=[
            {"gamma": gammas[0], "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": gammas[1], "payoffs": [-0.5, 1.5, -1.0]},
        ])
        code, out, err = _run(list(command) + ["--market", str(path)])
        assert (code, err) == (EXIT_OK, "")
        json.loads(out, parse_constant=_reject)

    @pytest.mark.parametrize("gammas", [(1.0, 1e200), (1e-150, 1e150)])
    def test_table1_closed_cells_match_engines(self, tmp_path, gammas):
        # the reported endowment's closed form overflowed in g2^2 / g1
        path = write_market(tmp_path, agents=[
            {"gamma": gammas[0], "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": gammas[1], "payoffs": [-0.5, 1.5, -1.0]},
        ])
        code, out, err = _run(["nash", "--game", "endowment", "--market", str(path)])
        assert (code, err) == (EXIT_OK, "")
        for row in json.loads(out, parse_constant=_reject)["results"]["table1"]:
            for side in ("pareto", "nash"):
                engine, closed = np.array(row[f"{side}_engine"]), np.array(row[f"{side}_closed"])
                assert np.abs(closed - engine).max() <= 1e-12 * np.abs(engine).max(), row


class TestFloatingPointAddressed:
    """An overflow ends in one addressed line, never in a numpy warning."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_overflowing_security(self, tmp_path, command):
        path = write_market(tmp_path, securities=[[1e200, 0.0, -1e200]])
        code, out, err = _run(list(command) + ["--market", str(path)])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical precondition violated: securities: "), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subnormal_gamma(self, tmp_path, command):
        path = write_market(tmp_path, agents=[
            {"gamma": 1e-320, "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
        ])
        code, out, err = _run(list(command) + ["--market", str(path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error: agents: "), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["pareto"], ["nash", "--game", "percentage"]])
    def test_overflowing_moments(self, tmp_path, command):
        # Var[E] overflows: pareto's eigenvalues used to fail to converge, and
        # the percentage solve to end with residual nan
        path = write_market(tmp_path, agents=[
            {"gamma": 1.0, "payoffs": [1e200, 0.0, 0.0]},
            {"gamma": 2.0, "payoffs": [0.0, 1e200, 0.0]},
            {"gamma": 1.5, "payoffs": [1.0, -1.0, 0.5]},
        ])
        code, out, err = _run(command + ["--market", str(path)])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical precondition violated: results: "), err
        assert err.count("\n") == 1

    def test_non_convergence_addressed(self, tmp_path):
        pair = correlated_pair_market(1.0, 1.0, 1.0, 10.0, -0.8)
        path = write_market(
            tmp_path,
            probs=pair.space.probs.tolist(),
            agents=[
                {"gamma": a.gamma, "payoffs": a.endowment.payoffs.tolist()}
                for a in pair.agents
            ],
            parameters={"max_iter": 1},
        )
        code, out, err = _run(["nash", "--game", "percentage", "--market", str(path)])
        assert code == EXIT_NO_CONVERGENCE
        assert err.startswith("non-convergence: parameters.max_iter: "), err
        assert err.count("\n") == 1


JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=2),
              st.sampled_from([float("nan"), float("inf"), -float("inf")])),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
        st.sampled_from(["gamma", "payoffs", "kappa", "x"]), inner, max_size=2),
    max_leaves=4,
)
# a positive number of magnitude 1e-300 to 1e300
MAGNITUDES = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                       st.floats(0.1, 9.9), st.integers(-300, 300))
_MISSING = object()


def _present(parts):
    """A dict's or a list's parts without those left out."""
    if isinstance(parts, dict):
        return {k: v for k, v in parts.items() if v is not _MISSING}
    return [x for x in parts if x is not _MISSING]


@st.composite
def market_documents(draw):
    """Market documents from a grammar: mostly well formed, with any part
    replaced by junk, nested, emptied or left out."""

    # the shape is drawn uniformly: hypothesis favours small integers, which
    # would break nearly every document at its first field
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def maybe(value):
        # a valid value, or (one time in thirty) junk, nesting or absence
        broken = rnd.randrange(90)
        if broken == 0:
            return draw(JUNK)
        if broken == 1:
            return [value]
        return _MISSING if broken == 2 else value

    def payoffs():
        # O(1) payoffs or payoffs of one magnitude from 1e-300 to 1e300
        scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-300, 300)))
        row = [x * scale for x in draw(st.lists(st.floats(-9.9, 9.9), min_size=m,
                                                max_size=m))]
        if draw(st.booleans()):  # an exact power-of-two cash shift
            row = [x + 2.0 ** draw(st.integers(0, 60)) for x in row]
        return maybe(row)

    n, m = rnd.choice([1, 2, 2, 2, 3, 3, 3, 4, 4]), rnd.choice([0, 1, 2, 3, 4, 5, 6, 7])
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    agents = []
    for _ in range(n):
        gamma = draw(MAGNITUDES) if rnd.random() < 0.2 else rnd.choice([0.5, 1.0, 2.0])
        agents.append(maybe(_present({"gamma": maybe(gamma), "payoffs": payoffs()})))
    parameters = {"kappa": maybe(draw(MAGNITUDES)),
                  "max_iter": maybe(draw(st.sampled_from([10000, 1, 2, 0])))}
    doc = {
        "schema": maybe(1),
        "probs": maybe([w / sum(weights) for w in weights]),
        "agents": maybe(_present(agents)),
        "securities": maybe(_present([payoffs() for _ in range(rnd.randrange(3))])),
        "parameters": maybe(_present(parameters)),
    }
    return _present(doc)


@given(market_documents(), st.integers(-1, 4))
@settings(max_examples=150)
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, doc, agent):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = list(command) + ["--agent", str(agent), "--market", str(path)]
        code, out, err = _run(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_NO_CONVERGENCE)
        if code == EXIT_OK:
            json.loads(out, parse_constant=_reject)
            assert err == ""
        else:
            assert out == ""
            assert ADDRESSED.fullmatch(err), (argv, err)


def _json_text(body):
    """The report text of `body` as json's own encoder writes it."""
    return json.dumps(body, indent=2, allow_nan=False, default=_encode)


def _check_reports_are_json(path, agent):
    """Every command's report on `path` is json.dumps of its body, byte for
    byte; a body json rejects as not finite exits 3 addressed to results."""
    bodies = []
    report = cli._report

    def recording(command, loaded, results):
        bodies.append({"command": command, "market": loaded["echo"], "results": results})
        return report(command, loaded, results)

    with mock.patch.object(cli, "_report", recording):
        for command in COMMANDS:
            bodies.clear()
            code, out, err = _run(list(command) + ["--agent", str(agent), "--market", str(path)])
            if not bodies:  # failed before the report
                continue
            try:
                want = _json_text(bodies[0]) + "\n"
            except ValueError:
                assert (code, out) == (EXIT_NUMERICAL, ""), command
                assert err.startswith("numerical precondition violated: results: "), err
                continue
            assert (code, err) == (EXIT_OK, ""), command
            assert out == want, command


class TestReportWriter:
    """`_dumps` writes the bytes of json.dumps(indent=2, allow_nan=False,
    default=_encode)."""

    @given(market_documents(), st.integers(-1, 4))
    @settings(max_examples=60)
    def test_fuzzed_documents_match_json(self, tmp_path_factory, doc, agent):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        path.write_text(json.dumps(doc))
        _check_reports_are_json(path, agent)

    @given(dyadic_markets(), st.integers(0, 3))
    @settings(max_examples=40)
    def test_dyadic_markets_match_json(self, tmp_path_factory, doc, agent):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        path.write_text(json.dumps(doc))
        _check_reports_are_json(path, agent % len(doc["agents"]))

    @pytest.mark.parametrize("value", [
        [], {}, (), np.array([]), np.zeros((0, 3)), np.zeros((2, 0)), np.array(1.5),
        -0.0, 5e-324, 1.7976931348623157e308, np.array([-0.0, 5e-324, -1.7976931348623157e308]),
        np.float64(0.1), np.int64(-3), np.bool_(True), np.float32(0.1),
        np.arange(4), np.array([[1, 2], [3, 4]]), np.array([True, False]),
        np.arange(6.0).reshape(2, 3), np.arange(8.0).reshape(2, 2, 2),
        np.arange(6.0).reshape(2, 3).T, np.arange(6.0)[::2],
        "naïve ☃ \U0001f600 \"quoted\" \\ \n\t ", ["é", {"é": 1}],
        {"a": [1, 2.5, None, True, False, "s", [], {}], "b": {"c": {"d": (1.0, [2.0])}}},
        [[[]]], [{}], 10**30, -(2**63),
        # subclasses take json's isinstance order
        enum.IntEnum("Small", "ONE")(1), type("Sub", (float,), {})(0.25),
        type("Text", (str,), {})("é"), collections.OrderedDict(b=1.0, a=[2.0]),
        collections.namedtuple("Pair", "x y")(1.0, [np.float64(2.0)]),
    ], ids=lambda value: re.sub(r"\s*\n\s*", " ", repr(value)))  # one line each
    def test_values_match_json(self, value):
        assert cli._dumps(value) == _json_text(value)

    def test_outcome_objects_match_json(self):
        space = core.ProbSpace([0.3, 0.3, 0.4])
        rvs = space.rvs([[1.0, -1.0, 0.5], [-0.5, 1.5, -1.0]])
        schedule = core.DemandSchedule(2.0, [0.25, -1.5])
        value = {"rv": rvs[0], "rvs": rvs, "nested": [[rvs[1]]],
                 "schedule": schedule, "schedules": [schedule] * 2,
                 "outcome": nash.nash_endowment(core.Market.from_arrays(
                     space, [1.0, 2.0], [r.payoffs for r in rvs]))}
        assert cli._dumps(value) == _json_text(value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["array", "scalar", "rv", "matrix", "float64"])
    def test_non_finite_raises(self, bad, where):
        space = core.ProbSpace([0.5, 0.5])
        value = {
            "array": np.array([1.0, bad]),
            "scalar": [0.5, bad],
            "rv": core.Rv._trusted(space, np.array([bad, 1.0])),
            "matrix": np.array([[1.0, 2.0], [3.0, bad]]),
            "float64": {"x": np.float64(bad)},
        }[where]
        with pytest.raises(ValueError):
            _json_text(value)
        with pytest.raises(ValueError):
            cli._dumps(value)

    @pytest.mark.parametrize("where", ["array", "scalar", "rv"])
    def test_non_finite_result_exits_3(self, tmp_path, monkeypatch, where):
        path = write_market(tmp_path)
        market = ingest_market_document(json.loads(path.read_text()))["market"]
        if where == "array":
            monkeypatch.setattr(cli, "optimal_utility_levels",
                                lambda market: np.array([1.0, np.inf]))
        elif where == "scalar":
            monkeypatch.setattr(cli, "aggregate_gain", lambda market: float("nan"))
        else:  # the endowment best response is an Rv
            response = core.Rv._trusted(market.space, np.array([1.0, -np.inf, 0.0]))
            monkeypatch.setattr(cli, "endowment_response_report", lambda market, agent:
                                strategic.ResponseReport(response, 0.0, 0.0))
        command = ["best-response", "--game", "endowment"] if where == "rv" else ["pareto"]
        code, out, err = _run(command + ["--market", str(path)])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"numerical precondition violated: results: {cli.RESULTS_NOT_FINITE}\n"


class TestIngestOrder:
    def test_first_failure_in_file_order(self, tmp_path):
        # a bad payoff of agent 0 comes before a bad gamma of agent 1
        path = write_market(tmp_path, agents=[
            {"gamma": 1.0, "payoffs": [1.0, float("nan"), 0.5]},
            {"gamma": -2.0, "payoffs": [-0.5, 1.5, -1.0]},
        ])
        code, out, err = _run(["pareto", "--market", str(path)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "validation error: agents[0].payoffs[1]: must be a finite number\n"

    def test_true_in_payoffs_addressed(self, tmp_path):
        path = write_market(tmp_path, agents=[
            {"gamma": 1.0, "payoffs": [1.0, -1.0, 0.5]},
            {"gamma": 2.0, "payoffs": [-0.5, True, -1.0]},
        ])
        code, out, err = _run(["pareto", "--market", str(path)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "validation error: agents[1].payoffs[1]: must be a finite number\n"

    def test_int_beyond_float_range_in_probs_addressed(self, tmp_path):
        # as a float it would round to the float maximum, which is finite
        path = write_market(tmp_path, probs=[0.3, int(sys.float_info.max) + 1, 0.4])
        code, out, err = _run(["pareto", "--market", str(path)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "validation error: probs[1]: must be a finite number\n"

    def test_gammas_checked_once(self, tmp_path, monkeypatch):
        # ingest checks each gamma as it reads it and hands the market one
        # float array, whose entries the market does not check again
        calls = []
        monkeypatch.setattr(core, "_check_gamma", calls.append)
        loaded = ingest_market_document(json.loads(write_market(tmp_path).read_text()))
        assert loaded["market"].gammas.tolist() == [1.0, 2.0]
        assert calls == []

    def test_int_payoffs_accepted(self, tmp_path):
        ints = write_market(tmp_path, "ints.json", agents=[
            {"gamma": 1.0, "payoffs": [1, -1, 2]},
            {"gamma": 2, "payoffs": [-3, 4, -1]},
        ], securities=[[1, 0, -1]])
        floats = write_market(tmp_path, "floats.json", agents=[
            {"gamma": 1.0, "payoffs": [1.0, -1.0, 2.0]},
            {"gamma": 2.0, "payoffs": [-3.0, 4.0, -1.0]},
        ], securities=[[1.0, 0.0, -1.0]])
        for command in COMMANDS:
            reports = [_run(list(command) + ["--market", str(path)]) for path in (ints, floats)]
            assert reports[0] == reports[1], command
            assert reports[0][0] == EXIT_OK, command


# each defect of agent 1 that sends an agents array through `_agent`, and the
# line it is addressed by; "OVER" is written as the literal 1e400
_P = [-0.5, 1.5, -1.0]
AGENT_DEFECTS = {
    "gamma-true": ({"gamma": True, "payoffs": _P}, "agents[1].gamma: must be a finite positive number"),
    "gamma-str": ({"gamma": "2.0", "payoffs": _P}, "agents[1].gamma: must be a finite positive number"),
    "gamma-zero": ({"gamma": 0.0, "payoffs": _P}, "agents[1].gamma: must be a finite positive number"),
    "gamma-negative": ({"gamma": -1.0, "payoffs": _P},
                       "agents[1].gamma: must be a finite positive number"),
    "gamma-1e400": ({"gamma": "OVER", "payoffs": _P},
                    "agents[1].gamma: must be a finite positive number"),
    "payoff-true": ({"gamma": 2.0, "payoffs": [-0.5, True, -1.0]},
                    "agents[1].payoffs[1]: must be a finite number"),
    "payoff-str": ({"gamma": 2.0, "payoffs": [-0.5, "1.5", -1.0]},
                   "agents[1].payoffs[1]: must be a finite number"),
    "payoff-null": ({"gamma": 2.0, "payoffs": [-0.5, None, -1.0]},
                    "agents[1].payoffs[1]: must be a finite number"),
    "payoff-list": ({"gamma": 2.0, "payoffs": [-0.5, [1.5], -1.0]},
                    "agents[1].payoffs[1]: must be a finite number"),
    "payoff-1e400": ({"gamma": 2.0, "payoffs": [-0.5, "OVER", -1.0]},
                     "agents[1].payoffs[1]: must be a finite number"),
    "row-short": ({"gamma": 2.0, "payoffs": [-0.5, 1.5]},
                  "agents[1].payoffs: payoff length 2 does not match space dimension 3"),
    "row-long": ({"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0, 0.0]},
                 "agents[1].payoffs: payoff length 4 does not match space dimension 3"),
    "extra-key": ({"gamma": 2.0, "payoffs": _P, "name": "b"}, "agents[1].name: unknown key"),
    "no-gamma": ({"payoffs": _P}, "agents[1].gamma: missing"),
    "no-payoffs": ({"gamma": 2.0}, "agents[1].payoffs: missing"),
    "not-an-object": ([2.0, _P], "agents[1]: must be an object"),
}


class TestAgentsAtOnce:
    """An agents array of plain float objects is checked in one pass; any
    other goes agent by agent, and fails as it always has."""

    @pytest.mark.parametrize("defect", AGENT_DEFECTS)
    def test_defect_fails_as_read_agent_by_agent(self, tmp_path, defect):
        agent, line = AGENT_DEFECTS[defect]
        doc = json.loads(write_market(tmp_path).read_text())
        doc["agents"][1] = agent
        path = tmp_path / "defect.json"
        path.write_text(json.dumps(doc).replace('"OVER"', "1e400"))
        assert _run(["pareto", "--market", str(path)]) == (
            EXIT_VALIDATION, "", f"validation error: {line}\n")

    def test_plain_agents_read_at_once(self, tmp_path, monkeypatch):
        read = []
        agent = cli._agent
        monkeypatch.setattr(cli, "_agent", lambda *args: read.append(args) or agent(*args))
        floats = load_market_file(str(write_market(tmp_path)))
        assert read == []
        # one int payoff sends the whole array agent by agent, to the same market
        ints = load_market_file(str(write_market(tmp_path, "ints.json", agents=[
            {"gamma": 1.0, "payoffs": [1, -1.0, 0.5]},
            {"gamma": 2.0, "payoffs": [-0.5, 1.5, -1.0]},
        ])))
        assert len(read) == 2
        assert cli._dumps(ints["echo"]) == cli._dumps(floats["echo"])


def _filled_pipe(data: bytes):
    """The read end of a pipe that a thread fills with `data`, and the thread."""
    read_end, write_end = os.pipe()

    def fill():
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=fill)
    writer.start()
    return read_end, writer


class TestByteIO:
    """Market files are read and reports written as bytes, with no text layer."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_crlf_file_is_the_lf_file(self, tmp_path, command):
        lf = tmp_path / "lf.json"
        lf.write_bytes(json.dumps(json.loads(write_market(tmp_path).read_text()),
                                  indent=2).encode())
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        reports = [_run(command + ["--market", str(path)]) for path in (lf, crlf)]
        assert reports[0][0] == EXIT_OK
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("ending", ["\r\n", "\r", "\n"])
    def test_syntax_error_position_counts_a_line_end_once(self, tmp_path, ending):
        # as a text-mode read reports it, every line end one "\n"
        text = json.dumps(json.loads(write_market(tmp_path).read_text()), indent=2)
        path = tmp_path / "cut.json"
        path.write_bytes(text[:200].replace("\n", ending).encode())
        assert _run(["pareto", "--market", str(path)]) == (
            EXIT_VALIDATION, "", "validation error: file: not valid JSON: Expecting property "
                                 "name enclosed in double quotes: line 19 column 1 (char 200)\n")

    @pytest.mark.parametrize("target,line", [
        (".", "[Errno 21] Is a directory"),
        ("missing.json", "[Errno 2] No such file or directory"),
        ("missing/market.json", "[Errno 2] No such file or directory"),
    ])
    def test_unreadable_path_named(self, tmp_path, target, line):
        path = str(tmp_path / target)
        assert _run(["pareto", "--market", path]) == (
            EXIT_VALIDATION, "", f"validation error: file: {line}: {path!r}\n")

    @pytest.mark.parametrize("n", [2, 2000])
    def test_pipe_is_the_file(self, tmp_path, monkeypatch, n):
        # 2000 agents write a file of more than 64 KiB
        rng = np.random.default_rng(n)
        path = write_market(tmp_path, agents=[
            {"gamma": float(g), "payoffs": row.tolist()}
            for g, row in zip(rng.uniform(0.5, 2.0, n), rng.normal(size=(n, 3)))])
        command = ["best-response", "--game", "endowment", "--market"]
        expected = _run(command + [str(path)])
        assert expected[0] == EXIT_OK
        sizes = []
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, size: sizes.append(size) or read(fd, size))
        read_end, writer = _filled_pipe(path.read_bytes())
        try:
            assert _run(command + [f"/dev/fd/{read_end}"]) == expected
        finally:
            os.close(read_end)  # a writer still blocked on a full pipe fails and ends
            writer.join(timeout=10)
        assert not writer.is_alive()
        # a pipe's size is 0: it is read in chunks of 64 KiB
        assert set(sizes) == {1 << 16}

    def test_regular_file_in_one_read(self, tmp_path, monkeypatch):
        path = write_market(tmp_path)
        sizes = []
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, size: sizes.append(size) or read(fd, size))
        load_market_file(str(path))
        assert sizes == [path.stat().st_size + 1] * 2

    @pytest.mark.parametrize("command", [COMMANDS[2], ["experiment", "--experiment", "figure1"]])
    def test_short_reads_and_writes(self, tmp_path, monkeypatch, command):
        argv = command + ["--market", str(write_market(tmp_path))]
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        whole = out.read_bytes()
        out.unlink()
        calls = collections.Counter()
        read, write = os.read, os.write

        def short_read(fd, size):
            calls["read"] += 1
            return read(fd, min(size, 100))

        def short_write(fd, data):
            calls["write"] += 1
            return write(fd, data[:100])

        monkeypatch.setattr(os, "read", short_read)
        monkeypatch.setattr(os, "write", short_write)
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == whole
        assert calls["write"] == -(-len(whole) // 100)
        if command[0] != "experiment":
            assert calls["read"] > 2


class TestBasketInverse:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_inverse_formed_by_the_reports_that_read_it(self, tmp_path, monkeypatch, command):
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
        assert _run(command + ["--market", str(write_market(tmp_path))])[0] == EXIT_OK
        reads = command in (["capm"], ["nash", "--game", "price"],
                            ["best-response", "--game", "demand"])
        assert len(inverses) == reads


# a command line that is not understood, and its addressed stderr line
USAGE_ERRORS = [
    (["paretto"], "command: unknown command 'paretto', expected one of pareto, capm, "
                  "best-response, nash, experiment"),
    ([], "command: missing, expected one of pareto, capm, best-response, nash, experiment"),
    (["--game", "price"], "command: missing, expected one of pareto, capm, best-response, "
                          "nash, experiment"),
    (["pareto", "capm"], "command: unexpected argument 'capm' after the command 'pareto'"),
    (["pareto", "--bogus"], "--bogus: unknown option"),
    (["--bogus=1", "pareto"], "--bogus: unknown option"),
    (["pareto", "--mark", "m.json"], "--mark: unknown option"),  # no abbreviation
    (["pareto", "-x"], "-x: unknown option"),
    (["pareto", "--market"], "--market: expected a value"),
    (["pareto", "--out", "--profile"], "--out: expected a value"),
    (["nash", "--agent", "x"], "--agent: must be an integer, got 'x'"),
    (["nash", "--agent=1.5"], "--agent: must be an integer, got '1.5'"),
    (["experiment", "--seed", "one"], "--seed: must be an integer, got 'one'"),
    (["pareto", "--profile=yes"], "--profile: takes no value"),
]


class TestCommandLine:
    @pytest.mark.parametrize("argv, line", USAGE_ERRORS,
                             ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS])
    def test_usage_error_is_one_addressed_line(self, argv, line):
        assert _run(argv) == (EXIT_VALIDATION, "", f"validation error: {line}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["pareto", "--help"],
                                      ["--bogus", "-h", "--agent", "x"]])
    def test_help_on_stdout(self, argv):
        code, out, err = _run(argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: riskshare [-h] "
                              "{pareto,capm,best-response,nash,experiment}\n")
        for name in ("--market", "--agent", "--game", "--experiment", "--seed", "--out",
                     "--profile", *EXPERIMENTS):
            assert name in out, name

    def test_option_forms_and_order(self, tmp_path):
        path = str(write_market(tmp_path))
        expected = _run(["best-response", "--agent", "1", "--game", "percentage",
                         "--market", path])
        assert expected[0] == EXIT_OK
        for argv in (["--agent=1", "--game=percentage", "--market=" + path, "best-response"],
                     ["--market", "/no/such/file.json", "--agent", "0", "best-response",
                      "--game", "demand", "--market", path, "--agent", "1",
                      "--game", "percentage"]):
            assert _run(argv) == expected, argv

    def test_negative_values_are_values(self, tmp_path):
        path = str(write_market(tmp_path))
        assert _run(["best-response", "--agent", "-1", "--market", path]) == (
            EXIT_VALIDATION, "", "validation error: agent: must be in [0, 1]\n")

    def test_import_leaves_argparse_unloaded(self):
        root = pathlib.Path(__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", "import sys, riskshare.cli; "
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.stdout == "[]\n"


class TestProfile:
    @pytest.mark.parametrize("command", [["pareto"], ["nash", "--game", "price"],
                                         ["experiment", "--experiment", "figure1"]])
    def test_stages_on_stderr_only(self, tmp_path, command):
        argv = command + ["--market", str(write_market(tmp_path))]
        plain = _run(argv)
        code, out, err = _run(argv + ["--profile"])
        assert plain[0] == code == EXIT_OK and plain[2] == ""
        assert out == plain[1]
        stages = "solve, encode, write" if command[0] == "experiment" else \
            "ingest, solve, encode, write"
        pattern = ", ".join(rf"{stage} \d+\.\d{{3}} ms" for stage in stages.split(", "))
        assert re.fullmatch(rf"profile: {pattern}\n", err), err
        report = tmp_path / "report.out"
        assert _run(argv + ["--profile", "--out", str(report)])[1] == ""
        assert report.read_text() == plain[1]

    def test_failure_then_completed_stages(self, tmp_path):
        path = write_market(tmp_path, securities=[])
        code, out, err = _run(["capm", "--market", str(path), "--profile"])
        assert (code, out) == (EXIT_VALIDATION, "")
        first, second = err.splitlines()
        assert first == "validation error: securities: command capm needs securities"
        assert re.fullmatch(r"profile: ingest \d+\.\d{3} ms", second), second


def test_report_digests_repeat():
    # every market command on the seeded grid of 60 market files of
    # scripts/report_digests.py (scaled, singular and malformed ones among
    # them): two separate processes must write the same exit codes and the
    # same report and stderr bytes
    root = pathlib.Path(__file__).parents[1]
    runs = [subprocess.run(
        [sys.executable, str(root / "scripts" / "report_digests.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    ).stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert len(lines) == 480
    # a report turned into a failure changes the exit classes, not the total
    assert collections.Counter(line.split()[-3] for line in lines) == {
        "0": 361, "2": 48, "3": 71}
    assert runs[1] == runs[0]
