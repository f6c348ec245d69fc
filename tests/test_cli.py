"""Command-line behavior: outputs, exit codes, round-trips, determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from frisolve import cli, generate_instance, parse_instance_text, serialize_instance
from frisolve.cli import main
from frisolve.feasibility import IndexSets, compute_index_sets
from frisolve.files import InstanceFormatError, load_instance
from frisolve.oracle import LatticeGrid
from frisolve.solver import Candidate, enumerate_candidates

from conftest import GOLDEN_JSON

EXPECTED = Path(__file__).resolve().parent / "expected"
INSTANCES = Path(__file__).resolve().parent / "instances"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SAMPLE = ROOT / "docs" / "sample_instance.json"


def run_alone(argv: list[str]) -> tuple[int, str, str]:
    """One CLI call in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "frisolve.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


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

    def test_far_out_of_range_entry_gets_a_short_message(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text('{"A": [[0.5, 1e400]], "b": [0.2]}', encoding="utf-8")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "A[1][2] out of [0,1]: 1E+400" in err
        assert len(err.split("out of [0,1]: ", 1)[1].rstrip("\n")) <= 40

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["check", "/nonexistent/nope.json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "frisolve: error: cannot read /nonexistent/nope.json: no such file\n"

    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_missing_file_is_named_as_given(self, tmp_path, capsys, command):
        # Path() would print this as <tmp>/missing/y.json; a parse error
        # names the path as given, so a read error does too.
        path = f"{tmp_path}/./missing//y.json"
        assert main([command, path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frisolve: error: cannot read {path}: no such file\n"

    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_directory_path_is_an_input_error(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frisolve: error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_non_utf8_file_is_an_input_error_naming_the_path(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"A": [[0.5]], "b": [0.2]}'.encode("utf-16-le"))
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"frisolve: error: {path}: not UTF-8 text: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

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

    def test_no_prune_max_tie_reports_the_minimal_point(self, tmp_path, capsys):
        path = tmp_path / "tie.json"
        path.write_text('{"A": [[0.2, 0.5], [0.5, 0.5]], "b": [0.5, 0.5]}', encoding="utf-8")
        argv = ["solve", str(path), "--objective", "max", "--format", "structured"]
        assert main(argv + ["--no-prune"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimizer"]["point"] == [0.0, 1.0]
        assert data["optimizer"]["selector"] == [2, 2]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["optimizer"] == data["optimizer"]

    def test_no_prune_cap_counts_search_nodes(self, golden_file, capsys):
        assert main(["solve", golden_file, "--no-prune", "--cap", "2"]) == 3
        assert "search reached 3 nodes, exceeding the cap of 2" in capsys.readouterr().err
        assert main(["solve", golden_file, "--no-prune", "--cap", "4"]) == 0

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


@pytest.mark.parametrize("name", ["random_7x7_seed4.json", "epsilon.json"])
@pytest.mark.parametrize(
    "argv",
    [["solve"], ["solve", "--no-prune"], ["solve", "--format", "structured"], ["enumerate"]],
    ids=["text", "text-no-prune", "structured", "enumerate"],
)
def test_commands_build_no_fraction_and_no_candidate_after_load(capsys, monkeypatch, argv, name):
    # Every command writes its answer from the integers the search or the
    # product holds, so after the instance is read none builds a Fraction
    # or a Candidate. The library's Candidates, built afterwards, show
    # that the counters see the builds.
    built = {"Fraction": 0, "Candidate": 0}
    new, init = Fraction.__new__, Candidate.__init__
    loaded = []

    def counted_new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        built["Candidate"] += 1
        init(self, *args, **kwargs)

    def load(path):
        loaded.append(load_instance(path))
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        monkeypatch.setattr(Candidate, "__init__", counted_init)
        return loaded[-1]

    monkeypatch.setattr("frisolve.cli.load_instance", load)
    command, *flags = argv
    assert main([command, str(INSTANCES / name), *flags]) == 0
    assert capsys.readouterr().out
    assert built == {"Fraction": 0, "Candidate": 0}
    ((inst, _),) = loaded
    next(enumerate_candidates(inst))
    assert built["Fraction"] > 0 and built["Candidate"] > 0


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

    def test_grid_limit_is_checked_before_the_solve(self, golden_file, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("solve ran before the grid limit was checked")

        monkeypatch.setattr("frisolve.cli.solve", fail)
        assert main(["verify", golden_file, "--limit", "1"]) == 3
        assert "exceeding the limit of 1" in capsys.readouterr().err

    def test_search_cap_applies(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("FRI_CAP", "2")
        assert main(["verify", golden_file]) == 3
        assert "exceeding the cap" in capsys.readouterr().err

    def test_bad_env_cap_fails_before_the_oracle_and_the_header(
        self, golden_file, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("the oracle ran before FRI_CAP was read")

        monkeypatch.setattr("frisolve.cli._scaled_brute_force", fail)
        monkeypatch.setenv("FRI_CAP", "abc")
        assert main(["verify", golden_file, "--limit", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "frisolve: error: FRI_CAP must be an integer, got 'abc'\n"

    def test_epsilon_agreement(self, tmp_path, capsys):
        path = tmp_path / "eps.json"
        path.write_text('{"A": [[0.9, 0.5]], "b": [0.6], "epsilon": 0.1}', encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert "minimal set: agree" in capsys.readouterr().out

    def test_oracle_without_feasible_points_disagrees(self, golden_file, capsys, monkeypatch):
        # A grid holding only the bottom point has no feasible point, while
        # the solver finds the system feasible.
        def bottom_only(inst):
            return LatticeGrid(columns=((0,),) * inst.n)

        monkeypatch.setattr("frisolve.oracle.build_grid", bottom_only)
        assert main(["verify", golden_file]) == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[-3:] == [
            "solver: 2 minimal solution(s), optimal value 2.443406680817312",
            "oracle: no feasible grid points",
            "verdict: DISAGREE",
        ]
        assert err == ""

    def test_solver_infeasible_while_the_oracle_finds_points_disagrees(self, capsys, monkeypatch):
        # A feasibility mistake in the solver: with J(1) emptied it calls
        # the system infeasible, while the oracle, which reads no index
        # set, still finds the minimal points.
        def without_row_1(inst):
            idx = compute_index_sets(inst)
            return IndexSets(sets=((),) + idx.sets[1:], vacuous=idx.vacuous)

        monkeypatch.setattr("frisolve.solver.compute_index_sets", without_row_1)
        assert main(["verify", str(INSTANCES / "random_7x7_seed4.json")]) == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[-3:] == [
            "solver: infeasible (row(s) 1)",
            "oracle: found 15 minimal point(s)",
            "verdict: DISAGREE",
        ]
        assert err == ""


class TestHeader:
    """The instance line of text check, solve and verify output."""

    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_a_name_cannot_forge_a_line(self, tmp_path, capsys, command):
        # Printed raw, this name would add a second verdict line.
        path = tmp_path / "forged.json"
        doc = json.loads(GOLDEN_JSON)
        doc["name"] = "x\nverdict: agree"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == 'instance: "x\\nverdict: agree" (m=5, n=7)'
        assert sum(line.startswith("verdict:") for line in lines) == (command == "verify")

    @pytest.mark.parametrize(
        "name, shown",
        [
            ("café \"quoted\" ∞", "café \"quoted\" ∞"),
            ("two words", "two words"),
            ("", ""),
            ("tab\there", '"tab\\there"'),
            ("bidi\u202e", '"bidi\\u202e"'),
            ("café\r", '"caf\\u00e9\\r"'),
        ],
        ids=["printable", "space", "empty", "tab", "format-char", "carriage-return"],
    )
    def test_only_unprintable_names_are_escaped(self, tmp_path, capsys, name, shown):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": name, "A": [[0.9]], "b": [0.5]}), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"instance: {shown} (m=1, n=1)"


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

    @pytest.mark.parametrize("density", ["nan", "inf", "-inf", "0"])
    def test_density_must_be_finite_and_positive(self, capsys, density):
        assert main(["generate", "3", "3", "--seed", "1", f"--density={density}"]) == 1
        assert "density must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((True, 3), {"seed": 1}, "m must be an integer, got True"),
            ((2.5, 3), {"seed": 1}, "m must be an integer, got 2.5"),
            ((3, "4"), {"seed": 1}, "n must be an integer, got '4'"),
            ((3, False), {"seed": 1}, "n must be an integer, got False"),
            ((3, 3), {"seed": None}, "seed must be an integer, got None"),
            ((3, 3), {"seed": 1.0}, "seed must be an integer, got 1.0"),
            ((3, 3), {"seed": True}, "seed must be an integer, got True"),
            ((3, 3), {"seed": 1, "density": True}, "density must be a finite number > 0, got True"),
            ((3, 3), {"seed": 1, "density": "2"}, "density must be a finite number > 0, got '2'"),
            (
                (3, 3),
                {"seed": 1, "density": Decimal(2)},
                "density must be a finite number > 0, got Decimal('2')",
            ),
            ((0, 3), {"seed": 1}, "dimensions must be >= 1, got m=0, n=3"),
        ],
        ids=["m-bool", "m-float", "n-str", "n-bool", "seed-none", "seed-float", "seed-bool",
             "density-bool", "density-str", "density-decimal", "m-zero"],
    )
    def test_library_arguments_the_cli_never_sends_are_rejected(self, args, kwargs, message):
        # The CLI parses m, n and --seed as int and --density as float;
        # the library must not turn anything else into an instance.
        with pytest.raises(ValueError) as got:
            generate_instance(*args, **kwargs)
        assert str(got.value) == message

    def test_unwritable_output_is_reported_as_a_write(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["generate", "2", "2", "--seed", "1", "-o", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frisolve: error: cannot write {target}: No such file or directory\n"

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
        inst, _ = parse_instance_text('{"A": [[0.9463]], "b": [0.9463]}')
        assert inst.A[0][0] == Fraction(9463, 10000)


class TestParseBounds:
    @pytest.mark.parametrize(
        "literal",
        ["1e-401", "1e-20000", "0." + "1" * 60, "1" * 60, "1e" + "9" * 5000],
        ids=["1e-401", "1e-20000", "60-digit-decimal", "60-digit-integer", "5000-digit-exponent"],
    )
    def test_literal_beyond_the_bounds_names_the_member(self, tmp_path, capsys, literal):
        path = tmp_path / "big.json"
        path.write_text('{"A": [[0.5, %s]], "b": [0.2]}' % literal, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "A[1][2] is out of the parse bounds" in err
        assert len(err) < 300

    def test_bound_applies_to_every_numeric_member(self):
        with pytest.raises(InstanceFormatError, match="b\\[1\\] is out of the parse bounds"):
            parse_instance_text('{"A": [[0.5]], "b": [%s]}' % ("9" * 5001))
        with pytest.raises(InstanceFormatError, match="epsilon is out of the parse bounds"):
            parse_instance_text('{"A": [[0.5]], "b": [0.2], "epsilon": 1e-500}')
        with pytest.raises(InstanceFormatError, match="name must be a string"):
            parse_instance_text('{"A": [[0.5]], "b": [0.2], "name": %s}' % ("1" * 60))

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"A": [[0.5]], "b": [0.2], "name": 0.5}', "name must be a string: Fraction(1, 2)"),
            (
                '{"A": [[0.5]], "b": [0.2], "name": 1e999999999}',
                "name must be a string: 1e999999999",
            ),
            ('{"A": [[[1e999999999]]], "b": [0.2]}', "A[1][1] is not a number: [1e999999999]"),
        ],
        ids=["decimal-name", "huge-exponent-name", "huge-exponent-in-a-list"],
    )
    def test_literals_outside_grade_slots_are_worded_as_read(self, document, message):
        with pytest.raises(InstanceFormatError) as raised:
            parse_instance_text(document)
        assert str(raised.value) == message

    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_deeply_nested_document_is_an_input_error(self, tmp_path, capsys, command):
        # The JSON decoder recurses once per array level; a document deeper
        # than the recursion limit must fail as input, not crash.
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"A": %s%s, "b": [0.5]}' % ("[" * depth, "]" * depth), encoding="utf-8")
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frisolve: error: {path}: nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "literal", ["5e-324", "1e-400", "2.2250738585072014e-308", "0.1", "1E+0", "0.0001234567890123456"]
    )
    def test_float_reprs_stay_accepted(self, literal):
        inst, _ = parse_instance_text('{"A": [[%s]], "b": [0]}' % literal)
        assert inst.A[0][0] == Fraction(literal)


NAMED_JSON = (
    '{"name": "caf\\u00e9 \\"quoted\\" \u221e", '
    '"A": [[0.9, 0.5], [0.4, 0.8]], "b": [0.6, 0.7], "epsilon": 0.01}'
)


class TestPinnedOutput:
    """Exact output bytes. A difference here is a change of the output
    format, which every consumer of the reports sees."""

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ([], "solve_golden.json"),
            (["--no-prune"], "solve_golden_no_prune.json"),
            (["--objective", "max"], "solve_golden_max.json"),
        ],
        ids=["plain", "no-prune", "max"],
    )
    def test_golden_structured_report(self, golden_file, capsys, extra, expected):
        assert main(["solve", golden_file, "--format", "structured", *extra]) == 0
        assert capsys.readouterr().out == (EXPECTED / expected).read_text(encoding="utf-8")

    def test_infeasible_structured_report(self, infeasible_file, capsys):
        assert main(["solve", infeasible_file, "--format", "structured"]) == 2
        want = (EXPECTED / "solve_infeasible.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    def test_name_with_a_quote_and_non_ascii(self, tmp_path, capsys):
        path = tmp_path / "named.json"
        path.write_text(NAMED_JSON, encoding="utf-8")
        assert main(["solve", str(path), "--format", "structured"]) == 0
        want = (EXPECTED / "solve_named.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "instance, expected",
        [
            # Mixed denominators, a vacuous row, a column admissible with
            # threshold exactly 1, and 20 minimal points.
            ("epsilon.json", "solve_epsilon.json"),
            # 15 minimal points on a 7x7 generated instance.
            ("random_7x7_seed4.json", "solve_7x7_seed4.json"),
        ],
        ids=["epsilon", "7x7"],
    )
    def test_many_minimal_points(self, capsys, instance, expected):
        assert main(["solve", str(INSTANCES / instance), "--format", "structured"]) == 0
        assert capsys.readouterr().out == (EXPECTED / expected).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "instance, objective, expected",
        [
            (SAMPLE, "lse", "verify_sample_lse.txt"),
            (SAMPLE, "max", "verify_sample_max.txt"),
            (SAMPLE, "sum", "verify_sample_sum.txt"),
            (INSTANCES / "epsilon.json", "lse", "verify_epsilon.txt"),
        ],
        ids=["sample-lse", "sample-max", "sample-sum", "epsilon"],
    )
    def test_verify_report(self, capsys, instance, objective, expected):
        # The 7x7 report is pinned in test_oracle, by the test that runs it.
        assert main(["verify", str(instance), "--objective", objective]) == 0
        assert capsys.readouterr().out == (EXPECTED / expected).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ([SAMPLE], "solve_golden.txt"),
            ([SAMPLE, "--no-prune"], "solve_golden_no_prune.txt"),
            # 20 minimal points, so "cells: 20".
            ([INSTANCES / "epsilon.json"], "solve_epsilon.txt"),
            # The optimizer's selector has "-" at the vacuous row 3.
            ([INSTANCES / "epsilon.json", "--no-prune"], "solve_epsilon_no_prune.txt"),
        ],
        ids=["sample", "sample-no-prune", "epsilon", "epsilon-no-prune"],
    )
    def test_text_report(self, capsys, argv, expected):
        assert main(["solve", *map(str, argv)]) == 0
        out, err = capsys.readouterr()
        assert out == (EXPECTED / expected).read_text(encoding="utf-8")
        assert err == ""

    @pytest.mark.parametrize(
        "instance, expected",
        [
            (SAMPLE, "enumerate_sample.txt"),
            # 108 candidates, each with "-" at the vacuous row 3.
            (INSTANCES / "epsilon.json", "enumerate_epsilon.txt"),
        ],
        ids=["sample", "epsilon"],
    )
    def test_enumerate_listing(self, capsys, instance, expected):
        assert main(["enumerate", str(instance)]) == 0
        out, err = capsys.readouterr()
        assert out == (EXPECTED / expected).read_text(encoding="utf-8")
        assert err == ""

    @pytest.mark.parametrize(
        "instance, expected",
        [
            (SAMPLE, "check_sample.txt"),
            # A vacuous row, marked, and mixed denominators.
            (INSTANCES / "epsilon.json", "check_epsilon.txt"),
        ],
        ids=["sample", "epsilon"],
    )
    def test_feasible_check_report(self, capsys, instance, expected):
        assert main(["check", str(instance)]) == 0
        out, err = capsys.readouterr()
        assert out == (EXPECTED / expected).read_text(encoding="utf-8")
        assert err == ""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["solve"], 2, "solve_infeasible_rows.txt"),
            (["solve", "--format", "structured", "--no-prune"], 2, "solve_infeasible_rows_no_prune.json"),
            (["check"], 2, "check_infeasible_rows.txt"),
            (["verify"], 0, "verify_infeasible_rows.txt"),
        ],
        ids=["solve", "solve-structured-no-prune", "check", "verify"],
    )
    def test_infeasible_rows_report(self, capsys, argv, code, expected):
        # Rows 1 and 3 of infeasible.json are unreachable; every report
        # names both.
        command, *flags = argv
        assert main([command, str(INSTANCES / "infeasible.json"), *flags]) == code
        out, err = capsys.readouterr()
        assert out == (EXPECTED / expected).read_text(encoding="utf-8")
        assert err == ""

    def test_readme_example_is_the_pinned_text_report(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        _, _, example = readme.partition("$ frisolve solve docs/sample_instance.json\n")
        block = example.partition("```")[0]
        want = (EXPECTED / "solve_golden.txt").read_text(encoding="utf-8")
        assert block.splitlines() == want.splitlines()

    def test_generated_instance(self, capsys):
        cases = [
            (["3", "4", "--seed", "5"], "generate_3_4_seed5.json"),
            # The gcd reduction leaves D = 5000.
            (["2", "2", "--seed", "30"], "generate_2_2_seed30.json"),
            # Infeasible mode at a density other than 1: the bad row's draw
            # and its threshold draw.
            (
                ["6", "5", "--seed", "8", "--infeasible", "--density", "0.7"],
                "generate_6_5_seed8_infeasible.json",
            ),
        ]
        for argv, expected in cases:
            assert main(["generate", *argv]) == 0
            want = (EXPECTED / expected).read_text(encoding="utf-8")
            assert capsys.readouterr().out == want


class TestParserReuse:
    """main builds its parser once per process; no call may leave state
    behind for the next."""

    def test_parser_is_built_on_the_first_call_only(self):
        code = (
            "import frisolve.cli as cli\n"
            "info = cli._build_parser.cache_info\n"
            "print(info().misses)\n"
            "cli.main(['generate', '2', '2', '--seed', '1'])\n"
            "cli.main(['generate', '2', '2', '--seed', '2'])\n"
            "print(info().misses, info().hits)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1 1")

    def test_calls_print_what_they_print_alone(self, golden_file, capsys):
        first = ["solve", golden_file, "--no-prune", "--cap", "2", "--timings"]
        second = ["solve", golden_file]
        for argv in (first, second):
            rc = main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == run_alone(argv)

    def test_usage_error_then_a_valid_call(self, golden_file, capsys):
        assert main(["solve", golden_file, "--objective", "nope"]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert main(["solve", golden_file, "--format", "structured"]) == 0
        want = (EXPECTED / "solve_golden.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    def test_env_cap_set_after_the_first_call_applies(self, golden_file, capsys, monkeypatch):
        assert main(["solve", golden_file]) == 0
        monkeypatch.setenv("FRI_CAP", "2")
        assert main(["solve", golden_file]) == 3
        assert "exceeding the cap of 2" in capsys.readouterr().err


class TestUsage:
    # Each argv, with PATH for an instance file. A command word first goes
    # straight to its subparser; every outcome must be the full parse's.
    DISPATCH_ARGVS = [
        [],
        ["-h"],
        ["--version"],
        ["frobnicate", "PATH"],
        ["so", "PATH"],
        ["solve"],
        ["solve", "-h"],
        ["solve", "PATH", "-h"],
        ["solve", "PATH", "--bogus"],
        ["solve", "PATH", "extra", "more"],
        ["solve", "PATH", "--form", "structured"],
        ["solve", "PATH", "--format=structured", "--cap=0"],
        ["solve", "PATH", "--objective", "nope"],
        ["solve", "PATH", "--version"],
        ["solve", "PATH", "--ver"],
        ["check", "PATH", "--", "x"],
        ["solve", "--", "PATH", "--cap", "5"],
        ["verify"],
        ["generate", "2", "3"],
        ["solve", "PATH", "--no-prune", "--objective", "sum"],
        ["check", "PATH"],
        ["verify", "PATH"],
        ["generate", "2", "3", "--seed", "4"],
    ]

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_dispatch_matches_the_full_parse(self, golden_file, capsys, monkeypatch, argv):
        argv = [golden_file if word == "PATH" else word for word in argv]
        rc = main(argv)
        dispatched = (rc, *capsys.readouterr())
        # The reference runs the top-level parse_args on every argv, then
        # args.func, with main's exit codes.
        monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser()[0].parse_args(argv))
        rc = main(argv)
        assert dispatched == (rc, *capsys.readouterr())

    def test_usage_error_exits_1(self, capsys):
        assert main(["solve"]) == 1
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--cap", "0"],
            ["solve", "--no-prune", "--cap", "-3"],
            ["enumerate", "--cap", "0"],
            ["enumerate", "--cap", "-3"],
            ["verify", "--limit", "0"],
            ["verify", "--limit", "many"],
        ],
    )
    def test_cap_and_limit_below_one_are_usage_errors(self, golden_file, capsys, argv):
        assert main([argv[0], golden_file, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {argv[-2]}: must be" in err

    def test_docs_sample_matches_the_golden_instance(self, golden, capsys):
        sample = Path(__file__).resolve().parents[1] / "docs" / "sample_instance.json"
        inst, name = parse_instance_text(sample.read_text(encoding="utf-8"))
        assert inst == golden
        assert main(["solve", str(sample)]) == 0
