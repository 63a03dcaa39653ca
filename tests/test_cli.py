"""CLI tests: subcommand behavior, output formats, exit codes, and the
bench -> calibrate round trip.

Most tests drive ``main(argv)`` in-process and read captured stdio; one
test runs the module as a subprocess to cover the entry-point wiring.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from streamring import cli, external, segproc, simulator
from streamring.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from streamring.latency import load_model
from tests.test_golden import SCENARIOS as GOLDEN_SCENARIOS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

def run_cli(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code if isinstance(exc.code, int) else 1


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def two_party_scenario(model: dict, segment_duration) -> dict:
    return {
        "participants": [
            {"id": "A", "language": "en"},
            {"id": "B", "language": "de"},
        ],
        "pool_capacity": 4,
        "latency_model": model,
        "segment_duration": segment_duration,
        "run_duration": 30.0,
        "events": [{"time": 0.0, "kind": "speaker-change", "participant": "A"}],
    }


#: Model JSON edits whose values are never coerced, and the message naming
#: the field; each starts from ``{"form": "affine", "params": {"a": 0.2,
#: "b": 0.5}}``.
UNCOERCED_MODELS = pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(params={"a": "0.2", "b": True}, valid_range="14",
                            cold_start_extra="0.5"),
         "valid_range must be an array, got '14'"),
        (lambda m: m["params"].update(a="0.2"), "params.a must be a number, got '0.2'"),
        (lambda m: m["params"].update(b=True), "params.b must be a number, got True"),
        (lambda m: m.update(valid_range=[1, "4"]),
         "valid_range[1] must be a number, got '4'"),
        (lambda m: m.update(cold_start_extra="0.5"),
         "cold_start_extra must be a number, got '0.5'"),
        (lambda m: m.update(form="table", params={"points": [[1, 0.5], [4, "2"]]}),
         "params.points[1][1] must be a number, got '2'"),
        (lambda m: m.update(form="table", params={"points": "14"}),
         "params.points must be an array, got '14'"),
        (lambda m: m.update(params=[0.2, 0.5]),
         "params must be an object, got [0.2, 0.5]"),
    ],
    ids=["four-fields", "a-str", "b-bool", "range-str-item", "cold-str",
         "point-str", "points-str", "params-list"],
)


def affine_model(edit) -> dict:
    model = {"form": "affine", "params": {"a": 0.2, "b": 0.5}}
    edit(model)
    return model


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run_cli(["sweep", "--n", "2:5", "--bogus"]) == EXIT_USAGE

    def test_zero_segment_is_usage_error(self, capsys):
        code = run_cli(
            ["bench", "--cmd", "true", "--stream-seconds", "5", "--segment", "0"]
        )
        assert code == EXIT_USAGE

    def test_bad_n_spec(self, capsys):
        assert run_cli(["sweep", "--n", "five"]) == EXIT_USAGE
        assert run_cli(["sweep", "--n", "9:2"]) == EXIT_USAGE

    def test_duplicate_grid(self, capsys):
        assert run_cli(["topt", "--model", "x.json", "--grid", "3,3"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--cmd", "true", "--stream-seconds", "abc", "--segment", "1"],
         "argument --stream-seconds: not a number: 'abc'"),
        (["topt", "--model", "x.json", "--grid", "1,x"],
         "argument --grid: bad grid: '1,x'"),
        (["sweep", "--n", ","], "argument --n: no meeting sizes given"),
    ], ids=["bench-stream-seconds", "topt-grid", "sweep-n"])
    def test_bad_value_is_named(self, argv, message, capsys):
        assert run_cli(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err


class TestParserReuse:
    def test_calls_in_sequence_match_calls_on_a_new_parser(
            self, model_files, tmp_path, monkeypatch, capsys):
        # ``main`` builds its parser once and reuses it; no call may leave
        # anything in it that a later call sees.
        scenario = str(SCENARIO_DIR / "handoff_3.json")
        sequence = [
            ["simulate", "--scenario", scenario, "--csv", "metrics.csv",
             "--quiet"],
            ["simulate", "--scenario", scenario],
            ["topt", "--model", model_files["A100"], "--grid", "2,1"],
            ["topt", "--model", model_files["A100"]],
            ["simulate", "--scenario", scenario, "--format", "xml"],
            ["simulate", "--scenario", scenario, "--format", "json",
             "--out", "report.json"],
        ]
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(None) or build())

        def run(workdir: Path, new_parser: bool):
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            results = []
            for argv in sequence:
                if new_parser:
                    cli._parser.cache_clear()
                code = run_cli(argv)
                results.append((code, *capsys.readouterr()))
            files = {p.name: p.read_bytes() for p in workdir.iterdir()}
            return results, files

        cli._parser.cache_clear()
        try:
            reused = run(tmp_path / "reused", new_parser=False)
            assert len(builds) == 1
            fresh = run(tmp_path / "fresh", new_parser=True)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1 + len(sequence)
        assert [code for code, _, _ in reused[0]] == [
            EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert sorted(reused[1]) == ["metrics.csv", "report.json"]
        assert reused == fresh

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestCalibrate:
    def test_bundled_a100_auto_is_affine(self, capsys):
        assert run_cli(["calibrate", "--label", "A100", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["form"] == "affine"
        assert payload["model"]["params"]["a"] == pytest.approx(1.66, abs=1e-9)
        assert payload["model"]["params"]["b"] == pytest.approx(0.21, abs=1e-9)
        assert payload["diagnostics"]["rmse"] < 1e-12
        assert len(payload["tau_table"]) == 5

    def test_bundled_t4_auto_prefers_log(self, capsys):
        assert run_cli(["calibrate", "--label", "T4", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["form"] == "log"
        assert payload["diagnostics"]["rmse"] < 0.1

    def test_model_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rtx.json"
        code = run_cli(
            ["calibrate", "--label", "RTX4060", "--out", str(out), "--quiet"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        model = load_model(out)
        assert model.form == "affine"
        assert model.a == pytest.approx(4.23, abs=1e-9)
        assert model.b == pytest.approx(0.29, abs=1e-9)

    def test_csv_format_is_tau_table(self, capsys):
        assert run_cli(["calibrate", "--label", "A100", "--format", "csv"]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["t_seconds", "p_seconds", "tau", "real_time"]
        assert len(rows) == 6
        assert [r[3] for r in rows[1:]] == ["0", "0", "1", "1", "1"]

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli(["calibrate", "--input", str(empty)]) == EXIT_VALIDATION
        assert "insufficient data" in capsys.readouterr().err

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "label,t_seconds,run,p_seconds\nA,1.0,0,1.87\nA,not-a-number,0,2.0\n"
        )
        assert run_cli(["calibrate", "--input", str(bad)]) == EXIT_VALIDATION
        assert "line 3" in capsys.readouterr().err

    def test_multi_label_needs_label_flag(self, capsys):
        assert run_cli(["calibrate"]) == EXIT_VALIDATION
        assert "--label" in capsys.readouterr().err

    def test_unknown_label(self, capsys):
        assert run_cli(["calibrate", "--label", "H200"]) == EXIT_VALIDATION
        assert "available" in capsys.readouterr().err


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for label in ("A100", "RTX4060", "T4"):
        path = root / f"{label.lower()}.json"
        assert (
            main(["calibrate", "--label", label, "--out", str(path), "--quiet"])
            == EXIT_OK
        )
        paths[label] = str(path)
    return paths


class TestTopt:
    def test_a100_grid(self, model_files, capsys):
        code = run_cli(
            ["topt", "--model", model_files["A100"], "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_opt_discrete"] == 3.0
        assert "t_opt_continuous" not in payload

    def test_rtx4060_grid(self, model_files, capsys):
        run_cli(["topt", "--model", model_files["RTX4060"], "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_opt_discrete"] == 8.0

    def test_t4_none_with_continuous(self, model_files, capsys):
        code = run_cli(
            ["topt", "--model", model_files["T4"], "--continuous",
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_opt_discrete"] is None
        assert payload["t_opt_continuous"] == pytest.approx(
            13.730605774568744, abs=1e-6
        )

    def test_human_output_prints_none(self, model_files, capsys):
        run_cli(["topt", "--model", model_files["T4"]])
        assert "T_opt (discrete): none" in capsys.readouterr().out

    def test_continuous_crossing_a100(self, model_files, capsys):
        run_cli(
            ["topt", "--model", model_files["A100"], "--continuous",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_opt_continuous"] == pytest.approx(
            2.1012658227848093, abs=1e-9
        )

    def test_custom_grid(self, model_files, capsys):
        run_cli(
            ["topt", "--model", model_files["A100"], "--grid", "2,4",
             "--format", "json"]
        )
        assert json.loads(capsys.readouterr().out)["t_opt_discrete"] == 4.0

    @UNCOERCED_MODELS
    def test_model_values_never_coerced(self, edit, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(affine_model(edit)))
        assert run_cli(["topt", "--model", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_invalid_model_file(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("not json at all")
        assert run_cli(["topt", "--model", str(bad)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "points, grid, crossing, warned",
        [
            # the solver's probes walk down from 600 s, far outside the
            # table, but the crossing lies inside it
            ([[1, 1.9], [2, 2.1], [3, 2.3], [5, 2.7], [8, 3.4]], "1,2,3,5,8",
             2.125, []),
            ([[1, 2], [2, 2.5]], "1,2", 3.0, ["outside measured range [1.0, 2.0]"]),
        ],
        ids=["inside", "outside"],
    )
    def test_table_crossing_warns_only_outside_the_table(
        self, points, grid, crossing, warned, tmp_path, capsys
    ):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"form": "table", "params": {"points": points}}))
        code = run_cli(["topt", "--model", str(path), "--grid", grid,
                        "--continuous", "--format", "json"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert json.loads(out)["t_opt_continuous"] == pytest.approx(crossing)
        lines = err.splitlines()
        assert len(lines) == len(warned)
        for line, text in zip(lines, warned):
            assert line.startswith("streamring: warning: t=")
            assert text in line


class TestSimulate:
    def test_bilingual_report(self, capsys):
        code = run_cli(
            ["simulate", "--scenario", str(SCENARIO_DIR / "bilingual_10.json"),
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregates"]["max_k"] == 1
        assert payload["aggregates"]["cost_ratio"] == pytest.approx(1 / 90)

    @pytest.mark.parametrize("unit_cost, message", [
        (1e306, "a meeting of 30 at unit cost 1e+306"),
        (1e305, "a meeting of 30 at unit cost 1e+305 over run_duration 30 s"),
    ], ids=["sample", "integral"])
    def test_cost_overflow_is_a_validation_error(self, tmp_path, unit_cost,
                                                 message, capsys):
        scenario = two_party_scenario({"fixture": "A100", "form": "affine"}, 3.0)
        scenario["participants"] = [
            {"id": f"p{i:02d}", "language": "en" if i % 2 else "de"}
            for i in range(30)
        ]
        scenario["events"][0]["participant"] = "p00"
        scenario["unit_cost"] = unit_cost
        path = tmp_path / "costly.json"
        path.write_text(json.dumps(scenario))
        code = run_cli(["simulate", "--scenario", str(path), "--format", "json"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"the naive cost of {message} overflows a float" in captured.err
        assert "Infinity" not in captured.out

    def test_event_at_negative_zero_reports_as_at_zero(self, tmp_path, capsys):
        def published(time: float) -> str:
            scenario = two_party_scenario({"fixture": "A100", "form": "affine"},
                                          3.0)
            scenario["events"][0]["time"] = time
            path = tmp_path / "at-zero.json"
            path.write_text(json.dumps(scenario))  # writes -0.0 as -0.0
            assert run_cli(["simulate", "--scenario", str(path),
                            "--format", "json"]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            # the digest hashes the input as given
            return "".join(line for line in captured.out.splitlines(True)
                           if '"scenario_digest"' not in line)

        assert published(-0.0) == published(0.0)

    def test_worst_case_k_is_n_minus_1(self, capsys):
        run_cli(
            ["simulate", "--scenario", str(SCENARIO_DIR / "worst_case_6.json"),
             "--format", "json"]
        )
        assert json.loads(capsys.readouterr().out)["aggregates"]["max_k"] == 5

    def test_metrics_csv_flag(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = run_cli(
            ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json"),
             "--csv", str(out), "--quiet"]
        )
        assert code == EXIT_OK
        rows = parse_csv(out.read_text())
        assert rows[0][0] == "time_s"
        assert len(rows) > 2

    def test_csv_flag_matches_csv_format(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json")]
        flag, out = tmp_path / "flag.csv", tmp_path / "out.csv"
        assert run_cli(argv + ["--csv", str(flag), "--quiet"]) == EXIT_OK
        assert run_cli(argv + ["--out", str(out), "--format", "csv"]) == EXIT_OK
        assert flag.read_bytes() == out.read_bytes()

    def test_csv_rows_built_only_when_asked(self, tmp_path, monkeypatch, capsys):
        built = []
        write_csv = cli._write_csv
        monkeypatch.setattr(
            cli, "_write_csv",
            lambda header, records, fh: built.append(1)
            or write_csv(header, records, fh),
        )
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json")]
        assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert run_cli(argv + ["--format", "json"]) == EXIT_OK
        assert run_cli(argv) == EXIT_OK
        assert built == []
        assert run_cli(argv + ["--format", "csv"]) == EXIT_OK
        assert run_cli(argv + ["--csv", str(tmp_path / "m.csv"), "--quiet"]) == EXIT_OK
        assert built == [1, 1]

    @pytest.mark.parametrize("to_file", [False, True])
    def test_csv_format_has_one_header(self, to_file, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json")]
        assert run_cli(argv + ["--format", "json"]) == EXIT_OK
        samples = json.loads(capsys.readouterr().out)["samples"]
        out = tmp_path / "metrics.csv"
        argv += ["--format", "csv"] + (["--out", str(out)] if to_file else [])
        assert run_cli(argv) == EXIT_OK
        text = out.read_text() if to_file else capsys.readouterr().out
        rows = parse_csv(text)
        assert sum(row[0] == "time_s" for row in rows) == 1
        assert rows[0][0] == "time_s"
        assert len(rows) == len(samples) + 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("event_time", float("nan"), "time outside [0, run_duration]"),
            ("run_duration", float("inf"), "run_duration must be finite"),
            ("run_duration", float("nan"), "run_duration must be finite"),
            ("segment_duration", float("inf"), "segment_duration must be finite"),
            ("unit_cost", float("inf"), "unit_cost must be finite"),
            ("a", float("nan"), "model parameters must be finite"),
            ("b", float("inf"), "model parameters must be finite"),
            ("cold_start_extra", float("nan"), "model parameters must be finite"),
        ],
    )
    def test_non_finite_numbers_rejected(
        self, field, value, message, tmp_path, capsys
    ):
        model = {"form": "affine", "params": {"a": 0.2, "b": 0.5}}
        scenario = two_party_scenario(model, 3.0)
        if field == "event_time":
            scenario["events"][0]["time"] = value
        elif field in ("a", "b"):
            model["params"][field] = value
        elif field == "cold_start_extra":
            model[field] = value
        else:
            scenario[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(scenario))  # writes NaN / Infinity literals
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "valid_range, message",
        [
            ([1.0, "x"], "malformed model"),
            ([1.0, float("nan")], "model parameters must be finite"),
            ([1.0, 1e-300], "valid_range must satisfy 0 < lo <= hi"),
            ([1.0, 2.0, 3.0], "valid_range must be a pair"),
        ],
    )
    def test_bad_valid_range_rejected(
        self, valid_range, message, tmp_path, capsys
    ):
        # never real-time viable, so "auto" would fall back to valid_range[1]
        model = {"form": "affine", "params": {"a": 0.5, "b": 1.2},
                 "valid_range": valid_range}
        path = tmp_path / "range.json"
        path.write_text(json.dumps(two_party_scenario(model, "auto")))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_never_viable_auto_falls_back_to_calibrated_range(
        self, tmp_path, capsys
    ):
        model = {"form": "affine", "params": {"a": 0.5, "b": 1.2},
                 "valid_range": [1.0, 6.0]}
        path = tmp_path / "lagging.json"
        path.write_text(json.dumps(two_party_scenario(model, "auto")))
        code = run_cli(["simulate", "--scenario", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolved_segment_duration"] == 6.0
        assert ("model never reaches real time; falling back to the largest "
                "calibrated duration, 6.0 s") in payload["warnings"]

    def test_never_viable_auto_without_range_is_rejected(self, tmp_path, capsys):
        model = {"form": "affine", "params": {"a": 0.5, "b": 1.2}}
        path = tmp_path / "lagging.json"
        path.write_text(json.dumps(two_party_scenario(model, "auto")))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert ("cannot auto-resolve segment duration: model never reaches "
                "real time") in capsys.readouterr().err

    def test_segment_count_bounded(self, tmp_path, capsys):
        model = {"form": "affine", "params": {"a": 0.2, "b": 0.5}}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(two_party_scenario(model, 1e-300)))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "segment limit" in capsys.readouterr().err

    @pytest.mark.parametrize("languages, budget, closing", [
        (["de"], 12, None), (["de"], 11, "de"),
        (["de", "fr"], 22, None), (["de", "fr"], 21, "fr"),
    ])
    def test_sample_rows_bounded(self, languages, budget, closing, tmp_path,
                                 monkeypatch, capsys):
        # each listener language's session makes 10 boundary rows, and the
        # run two state points
        scenario = two_party_scenario(
            {"form": "affine", "params": {"a": 0.2, "b": 0.5}}, 3.0)
        scenario["participants"][1:] = [
            {"id": f"L{i}", "language": lang} for i, lang in enumerate(languages)]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(scenario))
        monkeypatch.setattr(simulator, "MAX_SAMPLE_ROWS", budget)
        # the up-front estimate sees no listener language, so this checks
        # the hard stop alone
        monkeypatch.setattr(simulator, "required_languages",
                            lambda *args, **kwargs: set())
        code = run_cli(["simulate", "--scenario", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        if closing is None:
            assert code == EXIT_OK
            assert len(json.loads(out)["samples"]) == budget
            return
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == (
            f"streamring: error: the report would pass the limit of {budget} "
            "sample rows (simulator.MAX_SAMPLE_ROWS) when the "
            f"{closing} session closes at t=30 s\n")

    @pytest.mark.parametrize("pool, budget, rows", [
        (2, 22, None), (2, 21, 22), (1, 12, None), (1, 11, 12),
    ])
    def test_sample_rows_estimated_before_the_run(self, pool, budget, rows,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # min(pool, 2 listener languages) sessions of 10 boundary rows, and
        # two state points
        scenario = two_party_scenario(
            {"form": "affine", "params": {"a": 0.2, "b": 0.5}}, 3.0)
        scenario["participants"].append({"id": "C", "language": "fr"})
        scenario["pool_capacity"] = pool
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(scenario))
        monkeypatch.setattr(simulator, "MAX_SAMPLE_ROWS", budget)
        code = run_cli(["simulate", "--scenario", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        if rows is None:
            assert code == EXIT_OK
            assert len(json.loads(out)["samples"]) == budget
            return
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == (
            f"streamring: error: the report would hold about {rows} sample "
            f"rows ({pool} listener languages x 10 segments of 3 s, plus 2 "
            f"state rows), past the limit of {budget} "
            "(simulator.MAX_SAMPLE_ROWS)\n")

    def test_oversized_run_rejected_before_any_work(self, tmp_path,
                                                    monkeypatch, capsys):
        # eight listener languages at T = 1 s over 2e5 s: 1.6e6 boundary rows
        scenario = two_party_scenario(
            {"form": "affine", "params": {"a": 0.2, "b": 0.5}}, 1.0)
        scenario["participants"][1:] = [
            {"id": f"L{i}", "language": f"x{i}"} for i in range(8)]
        scenario["pool_capacity"] = 8
        scenario["run_duration"] = 2e5
        path = tmp_path / "long.json"
        path.write_text(json.dumps(scenario))

        def no_pass(*args, **kwargs):
            raise AssertionError("an orchestration pass ran")

        monkeypatch.setattr(simulator, "update_orchestration", no_pass)
        started = time.monotonic()
        code = run_cli(["simulate", "--scenario", str(path)])
        # under 10 ms on a shared two-core host
        assert time.monotonic() - started < 1.0
        assert code == EXIT_VALIDATION
        assert "about 1600002 sample rows (8 listener languages x 200000 " \
            "segments of 1 s" in capsys.readouterr().err

    def test_sample_row_budget_fits_one_longest_stream(self):
        # a two-person run at the segment limit: its boundaries, two states
        assert simulator.MAX_SAMPLE_ROWS >= segproc.MAX_SEGMENTS + 2

    def test_run_just_under_the_row_budget_keeps_to_its_memory(
            self, tmp_path, monkeypatch):
        # README's two-person case (T = 1 s, affine a = 0.1, b = 0.5) with
        # 19 997 boundary rows and two state rows, under a budget of 20 000,
        # from cli.main to the written report.  Measured peaks: 7.94 MB on
        # Python 3.11 under pytest (bound 9.25 MB); outside pytest, 8.11 MB
        # on 3.11, 10.16 MB on 3.10 (bound 11.05 MB), 8.34 MB on 3.12 and
        # 8.76 MB on 3.13.  The run, not the rendering, sets them.
        budget = 20_000
        per_row = 500 if sys.version_info < (3, 11) else 410  # README's figures
        scenario = two_party_scenario(
            {"form": "affine", "params": {"a": 0.1, "b": 0.5}}, 1.0)
        scenario["run_duration"] = float(budget - 3)
        path, out = tmp_path / "rows.json", tmp_path / "report.json"
        path.write_text(json.dumps(scenario))
        monkeypatch.setattr(simulator, "MAX_SAMPLE_ROWS", budget)
        tracemalloc.start()
        try:
            code = run_cli(["simulate", "--scenario", str(path), "--format",
                            "json", "--out", str(out), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        rows = len(json.loads(out.read_text())["samples"])
        assert rows == budget - 1
        assert peak < per_row * rows + 2**20, peak

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["simulate", "--scenario",
                str(SCENARIO_DIR / "worst_case_6.json"), "--format", "json"]
        assert run_cli(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run_cli(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("output, writer", [
        (["--format", "json", "--out", "report.json"], "dump_json"),
        (["--format", "csv"], "_write_csv"),
        (["--csv", "metrics.csv", "--quiet"], "_write_csv"),
    ], ids=["json-out", "csv-format", "csv-flag"])
    def test_scenario_is_freed_before_the_report_is_written(
            self, output, writer, tmp_path, monkeypatch, capsys):
        # only a weak reference to the scenario outlives its loading
        scenarios, held = [], []
        load, write = cli.load_scenario, getattr(cli, writer)

        def loading(path):
            scenario = load(path)
            scenarios.append(weakref.ref(scenario))
            return scenario

        def writing(*args):
            held.append(scenarios[0]() is not None)
            return write(*args)

        monkeypatch.setattr(cli, "load_scenario", loading)
        monkeypatch.setattr(cli, writer, writing)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json")]
        assert run_cli(argv + output) == EXIT_OK
        assert held == [False]

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 the caller's stack holds a call's arguments "
               "until it returns, so the run cannot free the scenario")
    def test_scenario_is_freed_before_the_first_pass(
            self, tmp_path, monkeypatch, capsys):
        # the run drops the scenario once it has read it, before its loop
        scenarios, held = [], []
        load, update = cli.load_scenario, simulator.update_orchestration

        def loading(path):
            scenario = load(path)
            scenarios.append(weakref.ref(scenario))
            return scenario

        def updating(*args, **kwargs):
            held.append(scenarios[0]() is not None)
            return update(*args, **kwargs)

        monkeypatch.setattr(cli, "load_scenario", loading)
        monkeypatch.setattr(simulator, "update_orchestration", updating)
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json"),
                "--format", "json", "--out", str(tmp_path / "report.json")]
        assert run_cli(argv) == EXIT_OK
        assert held and held[0] is False

    @pytest.mark.parametrize("output", [
        ["--quiet"], ["--quiet", "--out", "report.json"],
        ["--quiet", "--csv", "metrics.csv"]], ids=["bare", "out", "csv"])
    def test_quiet_makes_no_summary_line(
            self, output, tmp_path, monkeypatch, capsys):
        made = []
        summary = cli._summary

        def summarizing(*args):
            for line in summary(*args):
                made.append(line)
                yield line

        monkeypatch.setattr(cli, "_summary", summarizing)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scenario",
                str(GOLDEN_DIR / "churn_stalls_6.scenario.json")]
        assert run_cli(argv + output) == EXIT_OK
        assert made == []
        assert capsys.readouterr().out == ""

    def test_summary_prints_after_the_out_file_is_written(
            self, tmp_path, monkeypatch, capsys):
        # each line is made when it is printed, once the file is complete
        out = tmp_path / "report.json"
        golden = (GOLDEN_DIR / "churn_stalls_6.json").read_bytes()
        files = []
        summary = cli._summary

        def summarizing(*args):
            for line in summary(*args):
                files.append(out.read_bytes())
                yield line

        monkeypatch.setattr(cli, "_summary", summarizing)
        argv = ["simulate", "--scenario",
                str(GOLDEN_DIR / "churn_stalls_6.scenario.json"),
                "--format", "json", "--out", str(out)]
        assert run_cli(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        warnings = json.loads(golden)["warnings"]
        assert files and set(files) == {golden}
        assert len(lines) == len(files) + 1
        assert lines[-1] == f"wrote {out}"
        assert [line for line in lines if line.startswith("warning: ")] == [
            f"warning: {warning}" for warning in warnings]

    def test_summary_ends_with_the_metrics_csv_path(self, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        argv = ["simulate", "--scenario",
                str(GOLDEN_DIR / "churn_stalls_6.scenario.json"),
                "--csv", str(csv_path)]
        assert run_cli(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scenario: ")
        assert lines[-1] == f"metrics csv: {csv_path}"
        assert csv_path.read_bytes() == (
            GOLDEN_DIR / "churn_stalls_6.csv").read_bytes()

    def test_unknown_participant_event_listed(self, tmp_path, capsys):
        scenario = {
            "participants": [
                {"id": "A", "language": "en"},
                {"id": "B", "language": "de"},
            ],
            "pool_capacity": 4,
            "latency_model": {"fixture": "A100", "form": "affine"},
            "segment_duration": 3.0,
            "run_duration": 30.0,
            "events": [
                {"time": 0.0, "kind": "speaker-change", "participant": "Z"}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'Z'" in err and "speaker-change" in err

    def test_out_path_that_is_a_directory(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json"),
                "--out", str(tmp_path)]
        assert run_cli(argv) == EXIT_RUNTIME
        assert "Is a directory" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = run_cli(["simulate", "--scenario", "/no/such/scenario.json"])
        assert code == EXIT_VALIDATION
        assert "scenario.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s["events"][0].update(time="abc"),
             "events[0].time must be a number, got 'abc'"),
            (lambda s: s.update(pool_capacity="x"),
             "pool_capacity must be a number, got 'x'"),
            (lambda s: s.update(pool_capacity=float("inf")),
             "pool_capacity must be a number, got inf"),
            (lambda s: s.update(run_duration=10**400),
             "run_duration must be a number"),
            (lambda s: s["events"].append(
                {"time": 1.0, "kind": "join", "participant": "C", "language": 5}),
             "event language must be a string, got 5"),
            (lambda s: s.update(latency_model={"fixture": "A100",
                                               "cold_start_extra": "x"}),
             "cold_start_extra must be a number, got 'x'"),
            (lambda s: s.update(latency_model={"fixture": [1]}),
             "unknown fixture label [1]"),
            (lambda s: s.update(segment_duration=10**400),
             "segment_duration must be a number or 'auto'"),
            (lambda s: s.update(latency_model="x"),
             "latency_model must be an object, got 'x'"),
            (lambda s: s.update(pool_capacity=2.9),
             "pool_capacity must be an integer, got 2.9"),
            (lambda s: s.update(pool_capacity=True),
             "pool_capacity must be a number, got True"),
            (lambda s: s.update(run_duration=True),
             "run_duration must be a number, got True"),
            (lambda s: s["events"][0].update(time=False),
             "events[0].time must be a number, got False"),
            (lambda s: s.update(unit_cost=True),
             "unit_cost must be a number, got True"),
            (lambda s: s.update(segment_duration=True),
             "segment_duration must be a number or 'auto', got True"),
            (lambda s: s.update(segment_duration="3"),
             "segment_duration must be a number or 'auto', got '3'"),
            (lambda s: s.update(translate_same_language="false"),
             "translate_same_language must be true or false, got 'false'"),
            (lambda s: (s["participants"][0].update(id=7),
                        s["events"][0].update(participant=7)),
             "participants[0].id must be a string, got 7"),
            (lambda s: s["participants"][1].update(language=5),
             "participants[1].language must be a string, got 5"),
            (lambda s: s["participants"][1].pop("language"),
             "participants[1].language is missing"),
            (lambda s: s["participants"][1].pop("id"),
             "participants[1].id is missing"),
            (lambda s: s["events"].append({"kind": "leave", "participant": "B"}),
             "events[1].time is missing"),
            (lambda s: s.pop("pool_capacity"), "pool_capacity is missing"),
            (lambda s: s["latency_model"]["params"].pop("b"), "params.b is missing"),
            (lambda s: s.update(latency_model={
                "form": "table", "params": {"points": [[1, 0.5], {"t": 4, "p": 2}]}}),
             "params.points[1] must be an array of two numbers, got "
             "{'t': 4, 'p': 2}"),
            (lambda s: s["participants"].__setitem__(1, ["B", "de"]),
             "participants[1] must be an object, got ['B', 'de']"),
            (lambda s: s.update(participants="AB"),
             "participants must be an array, got 'AB'"),
            (lambda s: s.update(events={"time": 0.0}),
             "events must be an array, got {'time': 0.0}"),
            (lambda s: s["events"].append(3),
             "events[1] must be an object, got 3"),
            # the participants are read in bulk first: the missing language
            # must not hide the id before it
            (lambda s: s["participants"].__setitem__(1, {"id": 5}),
             "participants[1].id must be a string, got 5"),
            (lambda s: s["events"].append(
                {"time": 1.0, "kind": "leave", "participant": 7}),
             "events[1].participant must be a string, got 7"),
        ],
        ids=["time", "pool-str", "pool-inf", "run-huge-int", "language-int",
             "fixture-cold", "fixture-list", "segment-huge-int", "model-str",
             "pool-float", "pool-bool", "run-bool", "time-bool", "unit-bool",
             "segment-bool", "segment-str", "translate-str", "id-int",
             "participant-language-int", "participant-language-missing",
             "participant-id-missing", "event-time-missing", "pool-missing",
             "model-b-missing", "model-point-object",
             "participant-not-object", "participants-not-array",
             "events-not-array", "event-not-object", "id-int-language-missing",
             "event-participant-int"],
    )
    def test_malformed_values_rejected(self, edit, message, tmp_path, capsys):
        scenario = two_party_scenario(
            {"form": "affine", "params": {"a": 0.2, "b": 0.5}}, 3.0
        )
        edit(scenario)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("form", [None, "affine", "log", "table"])
    @pytest.mark.parametrize("cold, message", [
        (-5, "cold_start_extra must be non-negative"),
        (math.inf, "model parameters must be finite numbers"),
        (math.nan, "model parameters must be finite numbers"),
    ], ids=["negative", "infinite", "nan"])
    def test_a_bad_fixture_cold_start_is_named_for_every_form(
        self, form, cold, message, tmp_path, capsys
    ):
        # None is the default form, auto: both fits fail on the cold start
        model = {"fixture": "A100", "cold_start_extra": cold}
        if form is not None:
            model["form"] = form
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(two_party_scenario(model, 3.0)))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cold, code", [
        (4e6, EXIT_OK), (1e15, EXIT_VALIDATION), (1e17, EXIT_VALIDATION)])
    def test_a_cold_start_the_clock_cannot_resolve_is_rejected(
        self, cold, code, tmp_path, capsys
    ):
        # tau = 1.7, so B's stall grows by 0.7 s a segment; at 1e17 the
        # times are 16 s apart and the stall read 0.0
        model = {"form": "affine", "params": {"a": 0.5, "b": 1.2},
                 "cold_start_extra": cold}
        scenario = dict(two_party_scenario(model, 1.0), run_duration=10.0)
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(["simulate", "--scenario", str(path), "--format",
                        "json"]) == code
        captured = capsys.readouterr()
        if code == EXIT_OK:
            stall = json.loads(captured.out)["listener_stalls"]["B"]
            assert stall == pytest.approx(6.3, abs=1e-8)
        else:
            assert (f"the startup delay, {cold:g} s, is too large for 1 s "
                    "segments" in captured.err)

    def test_a_scenario_that_is_not_an_object_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert ("the scenario must be an object, got [1, 2]"
                in capsys.readouterr().err)

    @UNCOERCED_MODELS
    def test_inline_model_values_never_coerced(self, edit, message, tmp_path, capsys):
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(two_party_scenario(affine_model(edit), 3.0)))
        assert run_cli(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_extrapolation_warned_once_in_cli_format(self, tmp_path, capsys):
        # p(9) is evaluated by the viability check and by the scheduler
        model = {"form": "table", "params": {"points": [[1, 0.5], [4, 2.0]]}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(two_party_scenario(model, 9)))
        assert run_cli(["simulate", "--scenario", str(path), "--quiet"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "streamring: warning: t=9.0 outside measured range [1.0, 4.0]; "
            "extrapolating with clamped end-segment slope\n"
        )

    def test_allocation_failures_not_logged_to_stderr(self):
        # A fresh interpreter: in-process, pytest's log capture handler would
        # stand in for the logging configuration a real run lacks.
        scenario = GOLDEN_DIR / "churn_stalls_6.scenario.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from streamring.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "simulate", "--scenario", str(scenario)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "warning: allocation failed" in proc.stdout + proc.stderr
        assert "no free pipeline slot" not in proc.stderr


class TestSweep:
    def test_distinct_matches_closed_forms(self, capsys):
        code = run_cli(
            ["sweep", "--n", "2:10", "--assignment", "distinct",
             "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["n", "mean_k", "token_cost", "naive_cost", "cost_ratio"]
        for row in rows[1:]:
            n = int(row[0])
            assert float(row[2]) == n - 1
            assert float(row[3]) == n * (n - 1)

    def test_same_is_constant(self, capsys):
        run_cli(["sweep", "--n", "2,10,50", "--assignment", "same",
                 "--format", "csv"])
        rows = parse_csv(capsys.readouterr().out)
        assert [float(r[2]) for r in rows[1:]] == [1.0, 1.0, 1.0]

    def test_uniform_matches_expectation(self, capsys):
        run_cli(
            ["sweep", "--n", "50", "--langs", "4", "--assignment", "uniform",
             "--trials", "1000", "--seed", "42", "--format", "json"]
        )
        (row,) = json.loads(capsys.readouterr().out)
        expected = 3.0 * (1.0 - (3.0 / 4.0) ** 49)
        assert row["mean_k"] == pytest.approx(expected, abs=0.01)

    def test_seed_determinism(self, capsys):
        argv = ["sweep", "--n", "2:8", "--assignment", "uniform",
                "--trials", "64", "--seed", "7", "--format", "json"]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        assert capsys.readouterr().out == first

    def test_out_file_defaults_to_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.out"
        run_cli(["sweep", "--n", "2:4", "--assignment", "distinct",
                 "--out", str(out), "--quiet"])
        assert parse_csv(out.read_text())[0][0] == "n"

    @pytest.mark.parametrize("unit_cost", ["inf", "nan", "-inf"])
    def test_unit_cost_must_be_finite(self, unit_cost, capsys):
        code = run_cli(["sweep", "--n", "2:3", f"--unit-cost={unit_cost}",
                        "--format", "json"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "positive finite number" in captured.err
        assert "Infinity" not in captured.out and "NaN" not in captured.out

    @pytest.mark.parametrize("argv, code, message", [
        (["--n", "2:1000000000000"], EXIT_USAGE,
         "more than the limit of 10000 meeting sizes"),
        (["--n", "8", "--trials", "1000000000000"], EXIT_VALIDATION,
         "exceeds the limit of 10000000"),
    ])
    def test_oversized_request_fails_before_any_work(self, argv, code, message,
                                                     capsys):
        started = time.monotonic()
        assert run_cli(["sweep", *argv]) == code
        assert time.monotonic() - started < 1.0
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, n", [
        ("distinct", 10**400), ("same", 10**400), ("same", 10**200),
    ], ids=["distinct-1e400", "same-1e400", "same-1e200"])
    def test_cost_overflow_is_a_validation_error(self, assignment, n, capsys):
        code = run_cli(["sweep", "--n", str(n), "--assignment", assignment,
                        "--format", "json"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"meeting of {n} at unit cost 1 overflows" in captured.err
        assert "Infinity" not in captured.out

    def test_row_limit_counts_every_token(self):
        assert len(cli._n_range_arg("2:5001,2:5001")) == cli.MAX_SWEEP_ROWS
        with pytest.raises(argparse.ArgumentTypeError):
            cli._n_range_arg("2:5001,2:5001,7")

    def test_validation_failures(self, capsys):
        assert run_cli(["sweep", "--n", "1"]) == EXIT_VALIDATION
        assert run_cli(["sweep", "--n", "2", "--langs", "0"]) == EXIT_VALIDATION
        assert run_cli(["sweep", "--n", "2", "--trials", "0"]) == EXIT_VALIDATION


class TestBench:
    def test_constant_stub_rows(self, capsys):
        code = run_cli(
            ["bench", "--cmd", "sh -c 'sleep 0.02; cp {input} {output}'",
             "--stream-seconds", "3", "--segment", "1", "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["label", "t_seconds", "run", "p_seconds"]
        assert len(rows) == 4
        assert all(0.015 < float(r[3]) < 0.5 for r in rows[1:])

    def test_round_trip_into_calibrate(self, tmp_path, capsys, monkeypatch):
        # Segments of 1, 1 and 0.5 s, timed by scripted clock readings at
        # p = 0.1 + 0.5 d: a process's start-up jitter (0.1 s and more on a
        # loaded host) would swamp any gap a real stub can afford.
        readings = iter([0.0, 0.0, 0.6, 0.6, 1.2, 1.2, 1.55])
        monkeypatch.setattr(external, "_clock", lambda: next(readings))
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}", "--stream-seconds", "2.5",
             "--segment", "1", "--label", "mybox", "--out", str(out), "--quiet"]
        )
        assert code == EXIT_OK
        code = run_cli(["calibrate", "--input", str(out), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "mybox"
        assert payload["diagnostics"]["n_durations"] == 2
        assert next(readings, None) is None  # every reading was taken

    def test_failing_stub_partial_rows(self, capsys):
        cmd = ("sh -c 'grep -q \"segment 2\" {input} "
               "&& { echo boom >&2; exit 7; }; cp {input} {output}'")
        code = run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "4", "--segment", "1",
             "--format", "csv"]
        )
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        rows = parse_csv(captured.out)
        assert len(rows) == 3  # header + segments 0 and 1
        assert "boom" in captured.err

    def test_json_format_carries_report(self, capsys, monkeypatch):
        # two 1 s segments timed by scripted clock readings: the first takes
        # 0.5 s, the second 1.25 s, so it is 0.25 s late for the player
        readings = iter([0.0, 0.0, 0.5, 0.5, 1.75])
        monkeypatch.setattr(external, "_clock", lambda: next(readings))
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}", "--stream-seconds", "2",
             "--segment", "1", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["report"] == {
            "glass_latency": 1.5, "stall_count": 1, "stall_total": 0.25,
            "startup_delay": 0.5,
        }
        assert len(payload["measurements"]) == 2
        assert next(readings, None) is None  # every reading was taken

    @pytest.mark.parametrize("then, code", [
        ("exit 1", EXIT_RUNTIME), ("cp {input} {output}", EXIT_OK),
    ], ids=["failing", "succeeding"])
    def test_stderr_that_is_not_utf8(self, then, code, capsys):
        cmd = f"sh -c 'printf \"\\377\\376 bad\" >&2; {then}'"
        assert run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "1", "--segment", "1",
             "--format", "json"]
        ) == code
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        if code == EXIT_OK:
            assert payload["ok"] is True
            assert len(payload["measurements"]) == 1
            return
        assert payload["error"] == "\ufffd\ufffd bad"
        assert captured.err == (
            "streamring: error: segment 0 command failed: \ufffd\ufffd bad\n")

    def test_missing_executable_keeps_rows(self, capsys):
        code = run_cli(
            ["bench", "--cmd", "/no/such/bin {input}", "--stream-seconds", "2",
             "--segment", "1", "--format", "csv"]
        )
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert parse_csv(captured.out) == [["label", "t_seconds", "run", "p_seconds"]]
        assert "segment 0 command failed" in captured.err
        assert "No such file or directory" in captured.err

    def test_chunks_written_only_up_to_failure(self, tmp_path, capsys):
        work = tmp_path / "chunks"
        cmd = ("sh -c 'grep -q \"segment 2\" {input} "
               "&& exit 7; cp {input} {output}'")
        code = run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "5", "--segment", "1",
             "--workdir", str(work), "--quiet"]
        )
        assert code == EXIT_RUNTIME
        assert (work / "seg_00002").exists()
        assert not (work / "seg_00003").exists()

    def test_segment_timeout_is_a_failed_segment(self, capsys):
        # Segment 1's command sleeps 5 s, well past the 0.2 s limit.
        cmd = ("python3 -c 'import sys, time; "
               "time.sleep(5 if sys.argv[1].endswith(\"1\") else 0)' {input}")
        started = time.monotonic()
        code = run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "3", "--segment", "1",
             "--segment-timeout", "0.2", "--format", "csv"]
        )
        assert time.monotonic() - started < 2.5
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert len(parse_csv(captured.out)) == 2  # header + segment 0
        assert "segment 1 command failed: timed out after 0.2 s" in captured.err

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_segment_timeout_kills_forked_children(self, tmp_path, capsys):
        work = tmp_path / "chunks"
        cmd = "sh -c 'sleep 30 & echo $! > {output}; wait'"
        code = run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "1", "--segment", "1",
             "--segment-timeout", "0.5", "--workdir", str(work), "--quiet"]
        )
        assert code == EXIT_RUNTIME
        assert "timed out after 0.5 s" in capsys.readouterr().err
        child = int((work / "seg_00000.out").read_text())
        # the child was gone within 4 ms of bench returning in 30 runs on a
        # loaded two-core host
        deadline = time.monotonic() + 2.0
        try:
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(child)
        finally:
            if running(child):
                os.kill(child, signal.SIGKILL)

    def test_segment_that_succeeds_kills_its_background_children(self, tmp_path):
        work = tmp_path / "chunks"
        cmd = "sh -c 'sleep 30 >/dev/null 2>&1 & echo $! > {output}'"
        code = run_cli(
            ["bench", "--cmd", cmd, "--stream-seconds", "1", "--segment", "1",
             "--workdir", str(work), "--quiet"]
        )
        assert code == EXIT_OK
        child = int((work / "seg_00000.out").read_text())
        # the child was gone within 4 ms of bench returning in 30 runs on a
        # loaded two-core host
        deadline = time.monotonic() + 2.0
        try:
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(child)
        finally:
            if running(child):
                os.kill(child, signal.SIGKILL)

    @pytest.mark.parametrize("limit", ["0", "-1", "nan", "inf"])
    def test_segment_timeout_must_be_positive_and_finite(self, limit, capsys):
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}", "--stream-seconds", "1",
             "--segment", "1", f"--segment-timeout={limit}"]
        )
        assert code == EXIT_VALIDATION
        assert "segment timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("durations", [("nan", "1"), ("2", "nan"), ("inf", "1")])
    def test_durations_must_be_finite(self, durations, capsys):
        stream_seconds, segment = durations
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}",
             "--stream-seconds", stream_seconds, "--segment", segment]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "positive finite number" in err
        assert "segment limit" not in err

    def test_stdout_is_a_summary_by_default(self, capsys):
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}", "--stream-seconds", "2.5",
             "--segment", "1", "--label", "box"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "label: box" in out
        assert "segments measured: 3" in out
        assert "t_seconds" not in out

    def test_workdir_keeps_chunks(self, tmp_path, capsys):
        work = tmp_path / "chunks"
        code = run_cli(
            ["bench", "--cmd", "cp {input} {output}", "--stream-seconds", "2",
             "--segment", "1", "--workdir", str(work), "--quiet"]
        )
        assert code == EXIT_OK
        assert (work / "seg_00000").exists()
        assert (work / "seg_00001.out").exists()


class TestTableSchema:
    """A ``--format csv`` table is the ``--format json`` records, column by
    column, with bools as 0/1."""

    @pytest.mark.parametrize("command", ["topt", "sweep", "simulate", "bench"])
    def test_csv_rows_are_json_records(
        self, command, model_files, tmp_path, monkeypatch, capsys
    ):
        argv, records_of = {
            "topt": (["topt", "--model", model_files["T4"], "--grid", "2,8,20"],
                     lambda p: p["tau_table"]),
            "sweep": (["sweep", "--n", "2:6", "--trials", "5"], lambda p: p),
            "simulate": (
                ["simulate", "--scenario", str(SCENARIO_DIR / "handoff_3.json")],
                lambda p: p["samples"],
            ),
            "bench": (
                ["bench", "--cmd", "cp {input} {output}", "--stream-seconds",
                 "2.5", "--segment", "1", "--workdir", str(tmp_path)],
                lambda p: p["measurements"],
            ),
        }[command]
        # one measured bench run serves both renderings
        monkeypatch.setattr(external, "run_external",
                            functools.cache(external.run_external))
        assert run_cli(argv + ["--format", "json"]) == EXIT_OK
        records = records_of(json.loads(capsys.readouterr().out))
        assert run_cli(argv + ["--format", "csv"]) == EXIT_OK
        text = capsys.readouterr().out
        header, *rows = parse_csv(text)
        assert len(rows) == len(records) > 0
        for row, record in zip(rows, records):
            assert sorted(header) == sorted(record)
            expected = [record[key] for key in header]
            assert row == [str(int(v) if isinstance(v, bool) else v) for v in expected]
        # written a row at a time, on stdout, in --out and in simulate's
        # --csv, the bytes are those of the whole text built first
        whole = whole_csv(header, records)
        assert text == whole
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--format", "csv", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == whole.encode("utf-8")
        if command == "simulate":
            flag = tmp_path / "flag.csv"
            assert run_cli(argv + ["--csv", str(flag), "--quiet"]) == EXIT_OK
            assert flag.read_bytes() == whole.encode("utf-8")

    def test_writing_csv_takes_memory_that_does_not_grow_with_it(self, tmp_path):
        # Past the records themselves, the peak is 161 KiB at both sizes on
        # Python 3.11; building the whole text first peaked at 1.5 and
        # 5.6 MiB.
        for rows in (10**4, 4 * 10**4):
            records = [
                {"time_s": i * 0.27, "k": i % 6, "token_cost": float(i % 6),
                 "naive_cost": 132.0, "alloc_failures": 0, "stalls_cum": i / 7}
                for i in range(rows)]
            tracemalloc.start()
            try:
                with open(tmp_path / "out.csv", "w", encoding="utf-8") as fh:
                    cli._write_output("csv", records, simulator.METRICS_CSV_HEADER,
                                      records, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, (rows, peak)


def whole_csv(header, records) -> str:
    """CSV as it was rendered before it was written a row at a time: the
    whole text in one string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        row = [record[key] for key in header]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


#: Each subcommand's argv, without ``--format json``, from the calibrated
#: model files and a scratch directory.
JSON_COMMANDS = {
    "calibrate": lambda models, tmp: ["calibrate", "--label", "RTX4060"],
    "topt": lambda models, tmp: ["topt", "--model", models["T4"], "--continuous"],
    "sweep": lambda models, tmp: ["sweep", "--n", "2:6", "--trials", "5"],
    "bench": lambda models, tmp: [
        "bench", "--cmd", "cp {input} {output}", "--stream-seconds", "2.5",
        "--segment", "1", "--workdir", str(tmp)],
    **{f"simulate-{name}": (lambda models, tmp, path=path:
                            ["simulate", "--scenario", str(path)])
       for name, path in GOLDEN_SCENARIOS.items()},
}


class TestJsonBytes:
    @pytest.mark.parametrize("command", list(JSON_COMMANDS))
    def test_stdout_is_indent2_json(self, command, model_files, tmp_path, capsys):
        argv = JSON_COMMANDS[command](model_files, tmp_path) + ["--format", "json"]
        assert run_cli(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "flag", [["simulate", "--scenario"], ["topt", "--model"],
                 ["calibrate", "--input"]]
    )
    def test_non_utf8_file(self, flag, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("label,caf\xe9".encode("latin-1"))
        assert run_cli(flag + [str(path)]) == EXIT_VALIDATION
        assert "can't decode byte 0xe9" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["simulate", "--scenario"], ["topt", "--model"]])
    def test_deeply_nested_json(self, flag, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run_cli(flag + [str(path)]) == EXIT_VALIDATION
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("A,1e308,0,1\nA,1.5e308,0,2\n", "cannot fit the affine form"),
            ("A,1,0,1e308\nA,1,1,1.5e308\nA,2,0,3\n", "too large to average"),
            ("A," + "9" * 200_000 + ",0,1\n", "unreadable CSV"),
            ("", "insufficient data (no rows)"),
            (",1,0,1\n", "line 2: empty label"),
        ],
        ids=["durations", "latencies", "field-limit", "header-only", "blank-label"],
    )
    def test_measurements_out_of_range(self, rows, message, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("label,t_seconds,run,p_seconds\n" + rows)
        code = run_cli(["calibrate", "--input", str(path), "--form", "affine"])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err


def _write_model(params: dict, tmp: Path) -> list[str]:
    path = tmp / "model.json"
    path.write_text(json.dumps({"form": "affine", "params": params}))
    return ["--model", str(path)]


def _write_rows(rows: str, tmp: Path) -> list[str]:
    path = tmp / "m.csv"
    path.write_text("label,t_seconds,run,p_seconds\n" + rows)
    return ["--input", str(path)]


def _write_scenario(params: dict, segment: float, speakers: list[str],
                    tmp: Path) -> list[str]:
    scenario = two_party_scenario({"form": "affine", "params": params}, segment)
    scenario["participants"].append({"id": "C", "language": "fr"})
    scenario["run_duration"] = 20.0
    scenario["events"] = [
        {"time": 10.0 * i, "kind": "speaker-change", "participant": who}
        for i, who in enumerate(speakers)
    ]
    path = tmp / "scenario.json"
    path.write_text(json.dumps(scenario))
    return ["--scenario", str(path)]


#: Inputs whose results pass the float range, and the message naming the
#: duration or the model that overflowed.
OVERFLOWS = {
    "topt-tiny-grid": (
        lambda tmp: ["topt", *_write_model({"a": 0.2, "b": 0.5}, tmp),
                     "--grid", "1e-320"],
        "tau = p/t at t=9.99989e-321 s is not finite (p=0.2 s)"),
    "calibrate-tiny-duration": (
        lambda tmp: ["calibrate", *_write_rows("x,1e-320,0,1.0\nx,1,0,1\n", tmp)],
        "tau = p/t at t=9.99989e-321 s is not finite (p=1 s)"),
    "calibrate-huge-residuals": (
        lambda tmp: ["calibrate", "--form", "log", *_write_rows(
            "x,0.5,0,0.1\nx,2,0,1e308\nx,8,0,0.1\n", tmp)],
        "cannot fit the log form: its residuals are too large to square"),
    "topt-huge-model": (
        lambda tmp: ["topt", *_write_model({"a": 1e308, "b": 1e308}, tmp),
                     "--continuous"],
        "the affine model's p(t) at t=1 s is not finite"),
    "simulate-huge-model": (
        lambda tmp: ["simulate", *_write_scenario(
            {"a": 1e308, "b": 1e308}, 8.0, ["A"], tmp)],
        "the affine model's p(t) at t=8 s is not finite"),
    "simulate-finish-times": (
        lambda tmp: ["simulate", *_write_scenario(
            {"a": 3e307, "b": 0}, 1.0, ["A"], tmp)],
        "a 20 s stream in 1 s segments under the affine model finishes past "
        "the float range"),
    "simulate-stall-total": (
        lambda tmp: ["simulate", *_write_scenario(
            {"a": 1e307, "b": 0}, 1.0, ["A", "B"], tmp)],
        "the stalls of 1 s segments under the affine model sum past the "
        "float range"),
}


class TestNonFiniteResults:
    @pytest.mark.parametrize("grid", ["nan", "inf", "1,-inf", "2,nan"])
    def test_non_finite_grid_is_a_usage_error(self, grid, model_files, capsys):
        argv = ["topt", "--model", str(model_files["A100"]), "--grid", grid]
        assert run_cli(argv + ["--format", "json"]) == EXIT_USAGE
        assert "grid durations must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_overflow_is_a_validation_error(self, case, tmp_path, capsys):
        make_argv, message = OVERFLOWS[case]
        assert run_cli(make_argv(tmp_path) + ["--format", "json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"streamring: error: {message}\n" == captured.err
        assert captured.out == ""


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "streamring.cli", "calibrate",
             "--label", "A100", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"]["form"] == "affine"

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "streamring.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("calibrate", "topt", "simulate", "sweep", "bench"):
            assert name in proc.stdout

    # stdout block-buffered, as it is under a shell
    BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    # about 0.5 MB of output either way, far past a pipe's buffer
    LONG_SWEEP = ["sweep", "--n", "2:9000", "--assignment", "distinct"]

    @pytest.mark.parametrize("output", [["--format", "json"], []],
                             ids=["json", "summary"])
    def test_reader_that_leaves_early_ends_the_run_quietly(self, output):
        # as `streamring sweep --n 2:9000 ... | head -1`
        with subprocess.Popen(
            [sys.executable, "-m", "streamring.cli", *self.LONG_SWEEP, *output],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.BUFFERED,
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (EXIT_RUNTIME, b"")

    def test_reader_gone_before_the_first_write_leaves_fd_1_as_it_was(self):
        # Short output stays in the buffer until ``main`` flushes it.  Each
        # call ends quietly, fd 1 is still the pipe after both, and nothing
        # is left for the flush at exit.
        script = (
            "import os, stat, sys; from streamring.cli import main; "
            "argv = sys.argv[1:]; codes = [main(argv), main(argv)]; "
            "print(codes, stat.S_ISFIFO(os.fstat(1).st_mode), file=sys.stderr)"
        )
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script, "sweep", "--n", "2:3",
                 "--assignment", "distinct", "--format", "json"],
                stdout=write, stderr=subprocess.PIPE, env=self.BUFFERED,
                text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, f"[{EXIT_RUNTIME}, "
                                                     f"{EXIT_RUNTIME}] True\n")

    def test_reader_gone_at_the_flush_in_this_process(self, monkeypatch,
                                                      capsys):
        # the first flush finds the reader gone; fd 1 is this process's
        class Gone(io.StringIO):
            flushes = 0

            def flush(self):
                self.flushes += 1
                if self.flushes == 1:
                    raise BrokenPipeError(32, "Broken pipe")

        stdout = Gone()
        monkeypatch.setattr(sys, "stdout", stdout)
        inode = os.fstat(1).st_ino
        code = main(["sweep", "--n", "2:3", "--assignment", "distinct",
                     "--format", "json"])
        assert (code, stdout.flushes, os.fstat(1).st_ino) == (
            EXIT_RUNTIME, 2, inode)
        assert capsys.readouterr().err == ""


class TestImportBoundary:
    """A one-shot ``simulate`` imports only what it runs.  Each case is a
    fresh interpreter without ``site`` (``-S``), so that no ``.pth`` file of
    the environment imports a module first."""

    # what only calibration, ``bench`` or a CSV output needs
    ON_DEMAND = {"streamring.calibration", "streamring.external", "subprocess",
                 "tempfile", "shlex", "signal", "csv", "statistics"}
    SCRIPT = ("import json, sys; from streamring.cli import main; "
              "code = main(sys.argv[1:]); print(json.dumps(sorted(sys.modules))); "
              "sys.exit(code)")

    def simulate(self, scenario: Path, out: Path) -> set[str]:
        """The modules loaded by a fresh process that simulates ``scenario``
        into ``out``."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", self.SCRIPT, "simulate", "--scenario",
             str(scenario), "--format", "json", "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return set(json.loads(proc.stdout))

    @pytest.mark.parametrize("name", ["churn_stalls_6", "table_tail_4"])
    def test_inline_model_at_a_fixed_duration(self, name, tmp_path):
        out = tmp_path / "report.json"
        loaded = self.simulate(GOLDEN_SCENARIOS[name], out)
        assert "streamring.simulator" in loaded
        assert loaded & self.ON_DEMAND == set()
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()

    def test_fixture_model_loads_calibration(self, tmp_path):
        out = tmp_path / "report.json"
        loaded = self.simulate(GOLDEN_SCENARIOS["handoff_3"], out)
        assert "streamring.calibration" in loaded
        assert "streamring.external" not in loaded
        assert out.read_bytes() == (GOLDEN_DIR / "handoff_3.json").read_bytes()

    def test_auto_duration_loads_calibration(self, tmp_path, capsys):
        # no golden is "auto", so the in-process report stands in for one
        data = json.loads(GOLDEN_SCENARIOS["churn_stalls_6"].read_text())
        data["segment_duration"] = "auto"
        scenario = tmp_path / "auto.json"
        scenario.write_text(json.dumps(data))
        out, expected = tmp_path / "report.json", tmp_path / "expected.json"
        loaded = self.simulate(scenario, out)
        assert "streamring.calibration" in loaded
        assert run_cli(["simulate", "--scenario", str(scenario), "--format",
                        "json", "--out", str(expected), "--quiet"]) == EXIT_OK
        assert out.read_bytes() == expected.read_bytes()


class TestPackageNamespace:
    """``streamring`` exports calibration and the command runner lazily
    (PEP 562), each name the object of the module that defines it."""

    def test_every_exported_name_is_its_defining_module_s_object(self):
        import importlib

        import streamring

        for name in streamring.__all__:
            obj = getattr(streamring, name)
            assert obj.__module__.startswith("streamring."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_every_submodule_s_exported_names_resolve(self):
        import importlib
        import pkgutil

        import streamring

        names = [info.name for info in pkgutil.iter_modules(streamring.__path__)]
        assert {"core", "orchestrator", "simulator"} <= set(names)
        for module_name in names:
            module = importlib.import_module(f"streamring.{module_name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"streamring.{module_name}.{name}"

    def test_star_import_and_dir_list_every_name(self):
        import streamring

        namespace: dict = {}
        exec("from streamring import *", namespace)
        for name in streamring.__all__:
            assert namespace[name] is getattr(streamring, name)
        assert set(streamring.__all__) <= set(dir(streamring))

    def test_unknown_attribute_raises_naming_it(self):
        import streamring

        with pytest.raises(AttributeError, match="no_such_name"):
            streamring.no_such_name

    def test_moved_names_are_not_forwarded(self):
        from streamring import latency

        for name in ("fit", "fit_auto", "table_model", "MeasurementSet",
                     "ThroughputPoint", "t_opt_discrete", "t_opt_continuous",
                     "load_bundled_measurements", "read_measurement_csv"):
            assert not hasattr(latency, name), name
        for name in ("run_external", "ExternalRunResult", "_clock"):
            assert not hasattr(segproc, name), name
