"""Command-line behavior: outputs, exit codes, round-trips, determinism."""

import json
from pathlib import Path

import pytest

from frisolve import parse_instance_text, serialize_instance
from frisolve.cli import main
from frisolve.files import InstanceFormatError

from conftest import GOLDEN_JSON


@pytest.fixture()
def golden_file(tmp_path) -> str:
    path = tmp_path / "demo.json"
    path.write_text(GOLDEN_JSON, encoding="utf-8")
    return str(path)


@pytest.fixture()
def infeasible_file(tmp_path) -> str:
    path = tmp_path / "bad.json"
    path.write_text('{"A": [[0.3, 0.6]], "b": [0.7]}', encoding="utf-8")
    return str(path)


class TestCheck:
    def test_feasible_lists_index_sets(self, golden_file, capsys):
        assert main(["check", golden_file]) == 0
        out = capsys.readouterr().out
        assert "J(1) = {1}" in out
        assert "J(2) = {2, 3}" in out
        assert "J(4) = {4, 5}" in out
        assert "feasible: yes" in out

    def test_infeasible_exits_2_and_names_the_row(self, infeasible_file, capsys):
        assert main(["check", infeasible_file]) == 2
        out = capsys.readouterr().out
        assert "row(s) 1" in out

    def test_out_of_range_entry_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "oor.json"
        path.write_text('{"A": [[0.5]], "b": [1.2]}', encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "b[1] out of [0,1]" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["check", "/nonexistent/nope.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json_names_the_problem(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"A": [[0.5]], "b": ', encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestSolve:
    def test_text_report_rounds_to_4_decimals(self, golden_file, capsys):
        assert main(["solve", golden_file]) == 0
        out = capsys.readouterr().out
        assert "f* = 2.4434" in out
        assert "f = 2.4717" in out
        assert "x* = [0.9751, 0.0000, 0.9892, 0.0000, 0.7755, 0.0000, 0.0000]" in out
        assert "e = [1, 3, 3, 5, 3]" in out
        assert "|E| = 4" in out

    def test_structured_report_fields(self, golden_file, capsys):
        assert main(["solve", golden_file, "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["feasible"] is True
        assert data["J"] == [[1], [2, 3], [3], [4, 5], [3]]
        assert data["E_size"] == 4
        assert len(data["minimal_solutions"]) == 2
        assert data["optimizer"]["selector"] == [1, 3, 3, 5, 3]
        assert data["optimizer"]["point"] == [0.9751, 0.0, 0.9892, 0.0, 0.7755, 0.0, 0.0]
        assert data["optimal_value"] == pytest.approx(2.4434, abs=5e-4)
        assert data["display_precision"] == 4
        assert "timings" not in data
        assert len(data["cells"]) == 2

    def test_text_and_structured_values_agree_after_rounding(self, golden_file, capsys):
        main(["solve", golden_file, "--format", "structured"])
        data = json.loads(capsys.readouterr().out)
        main(["solve", golden_file])
        text = capsys.readouterr().out
        assert f"f* = {data['optimal_value']:.4f}" in text

    def test_no_prune_keeps_the_optimum(self, golden_file, capsys):
        assert main(["solve", golden_file, "--no-prune", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["minimal_solutions"] == []
        assert data["optimal_value"] == pytest.approx(2.4434, abs=5e-4)

    def test_max_objective_value_pinned_by_the_oracle(self, golden_file, capsys):
        assert main(["solve", golden_file, "--objective", "max", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimal_value"] == 0.9892

    def test_infeasible_solve_exits_2(self, infeasible_file, capsys):
        assert main(["solve", infeasible_file, "--format", "structured"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["feasible"] is False
        assert data["empty_rows"] == [1]
        assert data["optimizer"] is None

    def test_cap_exceeded_exits_3(self, golden_file, capsys):
        assert main(["solve", golden_file, "--cap", "2"]) == 3
        assert "exceeding the cap" in capsys.readouterr().err

    def test_env_cap_applies_when_no_flag(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("FRI_CAP", "2")
        assert main(["solve", golden_file]) == 3
        capsys.readouterr()
        assert main(["solve", golden_file, "--cap", "10"]) == 0

    def test_bad_env_cap_is_an_input_error(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("FRI_CAP", "many")
        assert main(["solve", golden_file]) == 1
        assert "FRI_CAP" in capsys.readouterr().err

    def test_timings_flag_adds_the_field(self, golden_file, capsys):
        main(["solve", golden_file, "--format", "structured", "--timings"])
        data = json.loads(capsys.readouterr().out)
        assert "timings" in data and "total" in data["timings"]

    def test_text_report_is_reproducible_and_timings_add_a_line(self, golden_file, capsys):
        runs = []
        for _ in range(2):
            assert main(["solve", golden_file]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert "timings:" not in runs[0]
        assert main(["solve", golden_file, "--timings"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert timed[-1].startswith("timings: ")
        assert timed[:-1] == runs[0].splitlines()


class TestEnumerate:
    def test_golden_listing(self, golden_file, capsys):
        assert main(["enumerate", golden_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0] == (
            "e = [1, 2, 3, 4, 3]  "
            "x(e) = [0.9751, 0.9398, 0.9892, 0.9172, 0.0000, 0.0000, 0.0000]"
        )
        assert lines[-1] == "|E| = 4"

    def test_infeasible_exits_2(self, infeasible_file, capsys):
        assert main(["enumerate", infeasible_file]) == 2


class TestVerify:
    def test_golden_agreement(self, golden_file, capsys):
        assert main(["verify", golden_file]) == 0
        out = capsys.readouterr().out
        assert "minimal set: agree" in out
        assert "optimal value: agree" in out

    def test_infeasible_agreement(self, infeasible_file, capsys):
        assert main(["verify", infeasible_file]) == 0
        assert "verdict: agree" in capsys.readouterr().out

    def test_grid_limit_exits_3(self, golden_file, capsys):
        assert main(["verify", golden_file, "--limit", "5"]) == 3
        assert "exceeding the limit" in capsys.readouterr().err

    def test_search_cap_applies(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("FRI_CAP", "2")
        assert main(["verify", golden_file]) == 3
        assert "exceeding the cap" in capsys.readouterr().err

    def test_epsilon_agreement(self, tmp_path, capsys):
        path = tmp_path / "eps.json"
        path.write_text('{"A": [[0.9, 0.5]], "b": [0.6], "epsilon": 0.1}', encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert "minimal set: agree" in capsys.readouterr().out


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "4", "3", "--seed", "11", "-o", str(a)]) == 0
        assert main(["generate", "4", "3", "--seed", "11", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_feasible_output_passes_check(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        main(["generate", "5", "5", "--seed", "3", "-o", str(path)])
        assert main(["check", str(path)]) == 0

    def test_infeasible_output_fails_check(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        main(["generate", "5", "5", "--seed", "3", "--infeasible", "-o", str(path)])
        assert main(["check", str(path)]) == 2

    def test_bad_dimensions_are_an_input_error(self, capsys):
        assert main(["generate", "0", "3", "--seed", "1"]) == 1

    def test_stdout_when_no_output_path(self, capsys):
        assert main(["generate", "2", "2", "--seed", "9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["A"]) == 2


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        inst, name = parse_instance_text(GOLDEN_JSON)
        text = serialize_instance(inst, name)
        inst2, name2 = parse_instance_text(text)
        assert inst2 == inst
        assert name2 == name

    def test_generated_instances_round_trip(self, tmp_path, capsys):
        for seed in range(12):
            main(["generate", "3", "4", "--seed", str(seed)])
            text = capsys.readouterr().out
            inst, name = parse_instance_text(text)
            assert parse_instance_text(serialize_instance(inst, name)) == (inst, name)

    def test_unknown_member_rejected(self):
        with pytest.raises(InstanceFormatError, match="unknown member"):
            parse_instance_text('{"A": [[0.5]], "b": [0.2], "eps": 0.1}')

    def test_boolean_grade_rejected(self):
        with pytest.raises(InstanceFormatError, match="not a number"):
            parse_instance_text('{"A": [[true]], "b": [0.2]}')

    def test_decimal_literals_parse_exactly(self):
        from fractions import Fraction

        inst, _ = parse_instance_text('{"A": [[0.9463]], "b": [0.9463]}')
        assert inst.A[0][0] == Fraction(9463, 10000)


class TestUsage:
    def test_usage_error_exits_1(self, capsys):
        assert main(["solve"]) == 1
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_docs_sample_matches_the_golden_instance(self, golden, capsys):
        sample = Path(__file__).resolve().parents[1] / "docs" / "sample_instance.json"
        inst, name = parse_instance_text(sample.read_text(encoding="utf-8"))
        assert inst == golden
        assert main(["solve", str(sample)]) == 0
