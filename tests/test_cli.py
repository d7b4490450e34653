import json

import pytest

from riskshare.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


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


class TestValidation:
    def test_missing_market_flag(self, capsys):
        assert main(["pareto"]) == EXIT_VALIDATION
        assert "market" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        assert main(["pareto", "--market", "/no/such/file.json"]) == EXIT_VALIDATION

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

    def test_unknown_parameter(self, tmp_path, capsys):
        path = write_market(tmp_path, parameters={"bogus": 1})
        assert main(["pareto", "--market", str(path)]) == EXIT_VALIDATION
        assert "parameters.bogus" in capsys.readouterr().err

    def test_capm_needs_securities(self, tmp_path, capsys):
        path = write_market(tmp_path, securities=[])
        assert main(["capm", "--market", str(path)]) == EXIT_VALIDATION

    def test_disparate_gammas_addressed(self, tmp_path, capsys):
        # the harmonic aggregate of (1e-20, 1) rounds to 1e-20 itself
        path = write_market(
            tmp_path,
            agents=[
                {"gamma": 1e-20, "payoffs": [1.0, -1.0, 0.5]},
                {"gamma": 1.0, "payoffs": [-0.5, 1.5, -1.0]},
            ],
        )
        for command in ("pareto", "nash"):
            assert main([command, "--market", str(path)]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("validation error: agents: risk aversions")
            assert "1e-20" in err
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
        path = write_market(tmp_path, parameters={"max_iter": 1})
        assert main(
            ["nash", "--market", str(path), "--game", "percentage"]
        ) == EXIT_NO_CONVERGENCE

    def test_nash_price_includes_pressure(self, tmp_path, capsys):
        path = write_market(tmp_path)
        assert main(["nash", "--market", str(path), "--game", "price"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["pressure"]) == 1
        assert len(report["results"]["schedules"]) == 2

    def test_out_flag_writes_file(self, tmp_path):
        path = write_market(tmp_path)
        out = tmp_path / "report.json"
        assert main(["pareto", "--market", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["command"] == "pareto"


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
