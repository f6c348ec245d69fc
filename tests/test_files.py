"""The file boundary: the instance and report writers against the
dict-then-encoder references, the text report and the enumerate listing
against their Candidate-based references, the pinned large reports, and
the parse failure messages, whose labels are built only for a value that
fails."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import (
    OBJECTIVES,
    Instance,
    compute_index_sets,
    generate_instance,
    solve,
    solve_unpruned,
)
from frisolve.cli import main
from frisolve.files import (
    InstanceFormatError,
    load_instance,
    parse_instance_text,
    render_report_json,
    serialize_instance,
)

from conftest import (
    reference_enumerate_listing,
    reference_instance_json,
    reference_report_json,
    reference_text_report,
)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "tests" / "instances"

SOLVERS = {"solve": solve, "solve_unpruned": solve_unpruned}
# Besides the built-in objectives, two whose values the encoder writes
# itself: an infinity and an int.
WRITER_OBJECTIVES = {
    **OBJECTIVES,
    "inf": lambda x: math.inf,
    "int": lambda x: sum(1 for v in x if v),
}
NAMES = [
    None, "", "plain", 'say "hi"', "back\\slash", "caf\u00e9 \u221e", "tab\there",
    "x\nverdict: agree", "\x00\x1f\x7f", "\u2028\u202e", "\U0001f600",
]
TIMINGS = {"index_sets": 1.25e-05, "candidates": 0.5, "total": 3.0}


@st.composite
def writer_cases(draw):
    """An instance small enough to solve at once, with every report
    option the writer takes."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    denominator = draw(st.sampled_from([10, 10_000, 7]))
    grades = st.integers(0, denominator).map(lambda k: Fraction(k, denominator))
    A = [[draw(grades) for _ in range(n)] for _ in range(m)]
    b = [draw(grades) for _ in range(m)]
    epsilon = draw(st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 7)]))
    name = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=8)))
    return (
        Instance(A=tuple(map(tuple, A)), b=tuple(b), epsilon=epsilon),
        draw(st.sampled_from(sorted(SOLVERS))),
        draw(st.sampled_from(sorted(WRITER_OBJECTIVES))),
        name,
        draw(st.sampled_from([None, {}, TIMINGS])),
    )


class TestReportWriter:
    """render_report_json writes the bytes that the reference dict,
    rendered by the generic encoder, gives."""

    @given(case=writer_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference(self, case):
        inst, solver, objective, name, timings = case
        report = SOLVERS[solver](inst, WRITER_OBJECTIVES[objective])
        if timings is not None:
            report = dataclasses.replace(report, timing=dict(timings))
        include = timings is not None
        assert render_report_json(report, name, include) == reference_report_json(
            report, name, include
        )

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize(
        "path",
        [ROOT / "docs" / "sample_instance.json", *sorted(INSTANCES.glob("*.json"))],
        ids=lambda p: p.stem,
    )
    def test_instance_files_equal_the_reference(self, path, objective, solver):
        inst, name = load_instance(path)
        report = SOLVERS[solver](inst, OBJECTIVES[objective])
        assert render_report_json(report, name) == reference_report_json(report, name)

    def test_infeasible_report(self):
        report = solve(Instance(A=(("0.3", "0.6"), ("0.9", "0.1")), b=("0.7", "0.95")))
        assert not report.index_sets.feasible
        text = render_report_json(report, "none")
        assert text == reference_report_json(report, "none")
        assert json.loads(text)["empty_rows"] == [1, 2]

    def test_nan_objective_value(self):
        report = solve(Instance(A=(("0.9",),), b=("0.5",)), lambda x: math.nan)
        text = render_report_json(report)
        assert text == reference_report_json(report)
        assert '"optimal_value": NaN' in text


@st.composite
def text_cases(draw):
    """An instance with epsilon > 0, each row vacuous (b_i <= epsilon) or
    not as drawn, infeasible rows included; a name that may need escaping
    in the header; and a built-in objective."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    denominator = draw(st.sampled_from([10, 10_000, 7]))
    epsilon = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 7), Fraction(3, 10)]))
    grades = st.integers(0, denominator).map(lambda k: Fraction(k, denominator))
    vacuous = st.integers(0, int(epsilon * denominator)).map(lambda k: Fraction(k, denominator))
    A = [[draw(grades) for _ in range(n)] for _ in range(m)]
    b = [draw(vacuous if draw(st.booleans()) else grades) for _ in range(m)]
    name = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=8)))
    inst = Instance(A=tuple(map(tuple, A)), b=tuple(b), epsilon=epsilon)
    return inst, name, draw(st.sampled_from(sorted(OBJECTIVES)))


def run_on(inst: Instance, name, argv: list[str]) -> tuple[int, str]:
    """main(argv) on an instance given as loaded: (exit code, stdout)."""
    out = io.StringIO()
    with mock.patch("frisolve.cli.load_instance", return_value=(inst, name)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "instance.json", *argv[1:]])
    return code, out.getvalue()


class TestTextWriters:
    """The text solve report and the enumerate listing, written from the
    integers, give the bytes the Candidate-based references give."""

    @given(case=text_cases(), solver=st.sampled_from(sorted(SOLVERS)))
    @settings(max_examples=300, deadline=None)
    def test_text_report_equals_the_reference(self, case, solver):
        inst, name, objective = case
        flags = ["--no-prune"] if solver == "solve_unpruned" else []
        code, out = run_on(inst, name, ["solve", "--objective", objective, *flags])
        report = SOLVERS[solver](inst, OBJECTIVES[objective])
        assert code == (0 if report.index_sets.feasible else 2)
        assert out == reference_text_report(report, name, inst)

    @given(case=text_cases())
    @settings(max_examples=300, deadline=None)
    def test_enumerate_listing_equals_the_reference(self, case):
        inst, name, _ = case
        code, out = run_on(inst, name, ["enumerate"])
        if compute_index_sets(inst).feasible:
            assert (code, out) == (0, reference_enumerate_listing(inst))
        else:
            assert (code, out) == (2, "")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize(
        "path",
        [ROOT / "docs" / "sample_instance.json", *sorted(INSTANCES.glob("*.json"))],
        ids=lambda p: p.stem,
    )
    def test_instance_files_equal_the_reference(self, path, solver):
        inst, name = load_instance(path)
        flags = ["--no-prune"] if solver == "solve_unpruned" else []
        _, out = run_on(inst, name, ["solve", *flags])
        assert out == reference_text_report(SOLVERS[solver](inst), name, inst)
        if compute_index_sets(inst).feasible:
            assert run_on(inst, name, ["enumerate"])[1] == reference_enumerate_listing(inst)


@given(case=text_cases(), solver=st.sampled_from(sorted(SOLVERS)))
@settings(max_examples=300, deadline=None)
def test_reported_coordinates_are_those_of_the_reported_points(case, solver):
    # The one set the writers and the Fractions read holds each coordinate
    # of the minimal points and the optimizer, scaled by D, and no other.
    inst, _, objective = case
    report = SOLVERS[solver](inst, OBJECTIVES[objective])
    points = [c.point for c in report.minimal_solutions]
    if report.optimizer is not None:
        points.append(report.optimizer.point)
    assert report._reported == {v * inst._D for point in points for v in point}
    assert set(report._fractions) == report._reported


@st.composite
def named_instances(draw):
    """Any shape from 1x1 to 12x12, with or without epsilon, and a name
    that may need escaping."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    denominator = draw(st.sampled_from([10, 10_000, 7, 3]))
    grades = st.integers(0, denominator).map(lambda k: Fraction(k, denominator))
    A = tuple(tuple(draw(grades) for _ in range(n)) for _ in range(m))
    b = tuple(draw(grades) for _ in range(m))
    epsilon = draw(st.sampled_from([Fraction(0), Fraction(1, 7)]))
    name = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=8)))
    return Instance(A=A, b=b, epsilon=epsilon), name


@given(case=named_instances())
@settings(max_examples=300, deadline=None)
def test_serialize_instance_equals_the_reference(case):
    inst, name = case
    text = serialize_instance(inst, name)
    assert text == reference_instance_json(inst, name)
    assert parse_instance_text(text)[1] == name


# sha256 of `solve --format structured` on `generate 40 25 --seed 9
# --density 3`: 1,668 minimal points, recorded before the one-pass writer
# and the same under Python 3.10, 3.11 and 3.12.
LARGE_SHA256 = "d8ba7c1056e33bf5597f2f61dbd2a2a89e1bfa9989348d06fa2c258e652ff260"


@pytest.mark.pinned
def test_large_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "large.json"
    assert main(["generate", "40", "25", "--seed", "9", "--density", "3", "-o", str(path)]) == 0
    assert main(["solve", str(path), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE_SHA256
    inst, name = load_instance(path)
    report = solve(inst)
    assert len(report.minimal_solutions) == 1668
    assert reference_report_json(report, name) == out


# sha256 of `solve --format structured` on `generate 40 20 --seed 9
# --density 2`: 6,705 minimal points, recorded while solve still built a
# Candidate per minimal point and the writer wrote from its Fractions.
LARGER_SHA256 = "50c272e5ba3764d31b0ffe91818db3112394fd6a2353082a4ac2f0c0503b6d5d"


@pytest.mark.pinned
def test_larger_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "larger.json"
    assert main(["generate", "40", "20", "--seed", "9", "--density", "2", "-o", str(path)]) == 0
    assert main(["solve", str(path), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGER_SHA256
    assert out.count('"selector"') == 6705 + 1  # the minimal points and the optimizer


# sha256 of `solve --format structured --no-prune` on `generate 100 40
# --seed 2 --density 2`, recorded while the bound search still built a
# Fraction point per node: the bound search at ladder scale. max is left
# out, as it runs into the default cap there.
NO_PRUNE_SHA256 = {
    "lse": "aab15b1ae002f0acded6ebb3ea9a43e634621454673f76f25b20acf1f4b13b1f",
    "sum": "3f7c9b529a1cbd3d2598d9133787ce22e328c4196d2afdff38115e53062a1ed2",
}


@pytest.mark.pinned
@pytest.mark.parametrize("objective", sorted(NO_PRUNE_SHA256))
def test_bound_search_report_is_pinned(tmp_path, capsys, objective):
    path = tmp_path / "ladder.json"
    assert main(["generate", "100", "40", "--seed", "2", "--density", "2", "-o", str(path)]) == 0
    argv = ["solve", str(path), "--format", "structured", "--no-prune", "--objective", objective]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NO_PRUNE_SHA256[objective]


# sha256 of the text reports, recorded while the text writers still built
# a Candidate per reported point and formatted its Fractions: text `solve`
# on the two generated instances above, and `enumerate` on
# random_7x7_seed4.json, which lists 17,280 candidates. Each is the same
# under PYTHONHASHSEED 1 and 2.
TEXT_SHA256 = {
    "solve-40x25": "134e78a4a2705d466199c927a62ea263de949abd17e55cc52e15dbc22c37af88",
    "solve-40x20": "8af144033ebb8a905b2af94c599575d581912a99dcaf26ec821261facf4035c7",
}
ENUMERATE_7X7_SHA256 = "7180b79c1cb6f0353a01257b241771ef85852149ef694318a12ba4e3b11919dc"


@pytest.mark.pinned
@pytest.mark.parametrize(
    "case, generate",
    [("solve-40x25", ["40", "25", "--seed", "9", "--density", "3"]),
     ("solve-40x20", ["40", "20", "--seed", "9", "--density", "2"])],
    ids=["40x25", "40x20"],
)
def test_text_report_is_pinned(tmp_path, capsys, case, generate):
    path = tmp_path / "text.json"
    assert main(["generate", *generate, "-o", str(path)]) == 0
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_SHA256[case]


@pytest.mark.pinned
def test_enumerate_listing_is_pinned(capsys):
    assert main(["enumerate", str(INSTANCES / "random_7x7_seed4.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 17_281
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENUMERATE_7X7_SHA256


# sha256 of `generate 400 100 --seed 1 --density 2`, the largest rung of
# the instance ladder, recorded while the generator drew each grade with
# randrange and built the instance through the file reader's scaling.
LADDER_TOP_SHA256 = "b9f72b19e06688f7119c4eda7c322cf8328b715124b9c3ffe4dd85dad99d226a"


def test_largest_generated_instance_is_pinned(capsys):
    assert main(["generate", "400", "100", "--seed", "1", "--density", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LADDER_TOP_SHA256


BOUNDS = "is out of the parse bounds (at most 50 digits and a decimal exponent within +-400)"
LONG = "1" * 51  # one digit past the bound


def _document(slot: str, literal: str) -> str:
    """A 3x3 instance with literal in A[2][3], b[2] or epsilon: away from
    the first row and column, so a label that names the wrong index shows."""
    A = [["0.5"] * 3 for _ in range(3)]
    b = ["0.25"] * 3
    epsilon = "0"
    if slot == "A[2][3]":
        A[1][2] = literal
    elif slot == "b[2]":
        b[1] = literal
    else:
        epsilon = literal
    rows = ", ".join("[" + ", ".join(row) + "]" for row in A)
    return f'{{"A": [{rows}], "b": [{", ".join(b)}], "epsilon": {epsilon}}}'


class TestParseFailures:
    """Every message is the one printed before labels became lazy."""

    @pytest.mark.parametrize("slot", ["A[2][3]", "b[2]"])
    @pytest.mark.parametrize(
        "literal, message",
        [
            ("1.5", "out of [0,1]: 1.5"),
            ("-0.5", "out of [0,1]: -0.5"),
            ("true", "is not a number: True"),
            ('"x"', "is not a number: 'x'"),
            ("null", "is not a number: None"),
            (LONG, f"{BOUNDS}: {LONG[:37]}..."),
            ("1e401", f"{BOUNDS}: 1e401"),
        ],
        ids=["above", "below", "true", "string", "null", "long", "exponent"],
    )
    def test_grade_slot(self, slot, literal, message):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance_text(_document(slot, literal))
        assert str(info.value) == f"{slot} {message}"

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("-0.5", "epsilon must be >= 0, got Fraction(-1, 2)"),
            ("true", "epsilon is not a number: True"),
            ('"x"', "epsilon is not a number: 'x'"),
            ("null", "epsilon is not a number: None"),
            (LONG, f"epsilon {BOUNDS}: {LONG[:37]}..."),
        ],
        ids=["negative", "true", "string", "null", "long"],
    )
    def test_epsilon(self, literal, message):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance_text(_document("epsilon", literal))
        assert str(info.value) == message

    def test_epsilon_above_one_is_accepted(self):
        inst, _ = parse_instance_text(_document("epsilon", "1.5"))
        assert inst.epsilon == Fraction(3, 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('\ufeff{"A": [[1]], "b": [1]}',
             "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            ('{"A": [[1]], "b": [1]', "not valid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)"),
            ('{"A": [[1]], "b": [1]} x', "not valid JSON: Extra data: line 1 column 24 (char 23)"),
            ("", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["bom", "unterminated", "extra", "empty"],
    )
    def test_invalid_json(self, text, message):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "top level must be an object with members A and b"),
            ('{"b": [1]}', "missing required member A"),
            ('{"A": [[1]]}', "missing required member b"),
            ('{"A": [], "b": [1]}', "A must be a non-empty array of rows"),
            ('{"A": 3, "b": [1]}', "A must be a non-empty array of rows"),
            ('{"A": [[1], []], "b": [1, 1]}', "A[2] must be a non-empty array of numbers"),
            ('{"A": [[1], 1], "b": [1, 1]}', "A[2] must be a non-empty array of numbers"),
            ('{"A": [[1]], "b": []}', "b must be a non-empty array of numbers"),
            ('{"A": [[1]], "b": 1}', "b must be a non-empty array of numbers"),
        ],
        ids=["array", "no-A", "no-b", "no-rows", "A-number", "empty-row", "row-number",
             "empty-b", "b-number"],
    )
    def test_shape(self, text, message):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "member, again",
        [("A", "[[1]]"), ("b", "[0.1]"), ("epsilon", "0.5"), ("name", '"second"')],
        ids=["A", "b", "epsilon", "name"],
    )
    def test_repeated_member(self, tmp_path, capsys, member, again):
        # json keeps a repeated name's last value: the second b would make
        # this infeasible system (0.5 < 0.9) read as feasible.
        text = (
            '{"A": [[0.5]], "b": [0.9], "epsilon": 0, "name": "first", '
            f'"{member}": {again}}}'
        )
        with pytest.raises(InstanceFormatError) as info:
            parse_instance_text(text)
        assert str(info.value) == f"duplicate member {member}"
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr() == ("", f"frisolve: error: {path}: duplicate member {member}\n")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_give_the_same_json_error(self, tmp_path, end):
        # The reader turns CRLF and CR into LF, as text-mode reading does,
        # so a JSON error names the same line, column and offset.
        path = tmp_path / "bad.json"
        path.write_bytes(end.join(["{", '  "A": [[0.5]],', '  "b": [0.2]]', "}", ""]).encode())
        with pytest.raises(InstanceFormatError) as info:
            load_instance(path)
        assert str(info.value) == (
            f"{path}: not valid JSON: Expecting ',' delimiter: line 3 column 13 (char 30)"
        )

    @pytest.mark.parametrize("slot", ["A[2][3]", "b[2]"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (Fraction(3, 2), "out of [0,1]: 1.5"),
            (-0.5, "out of [0,1]: -0.5"),
            ("x", "is not a number: 'x'"),
            (None, "is not a number: None"),
            (LONG, "out of [0,1]: 1.11111111111111E+50"),
            (math.nan, "is not finite: nan"),
            (math.inf, "is not finite: inf"),
        ],
        ids=["above", "below", "string", "none", "long", "nan", "inf"],
    )
    def test_library_grade_slot(self, slot, value, message):
        A = [[Fraction(1, 2)] * 3 for _ in range(3)]
        b = [Fraction(1, 4)] * 3
        if slot == "A[2][3]":
            A[1][2] = value
        else:
            b[1] = value
        with pytest.raises(ValueError) as info:
            Instance(A=A, b=b)
        assert str(info.value) == f"{slot} {message}"

    @pytest.mark.parametrize(
        "value, message",
        [
            (-0.5, "epsilon must be >= 0, got -0.5"),
            ("x", "epsilon is not a number: 'x'"),
            (None, "epsilon is not a number: None"),
            (math.nan, "epsilon is not finite: nan"),
        ],
        ids=["negative", "string", "none", "nan"],
    )
    def test_library_epsilon(self, value, message):
        with pytest.raises(ValueError) as info:
            Instance(A=((Fraction(1, 2),),), b=(Fraction(1, 4),), epsilon=value)
        assert str(info.value) == message

    def test_library_grades_convert_as_before(self):
        # ints, decimal strings and floats convert; Fractions in range are
        # kept as they are. A bool is not a number, as in the reader.
        half = Fraction(1, 2)
        inst = Instance(A=((1, 0, "0.25"), (half, 0.75, Fraction(1, 3))), b=(1, half))
        assert inst.A == ((1, 0, Fraction(1, 4)), (half, Fraction(3, 4), Fraction(1, 3)))
        assert all(type(v) is Fraction for row in inst.A for v in row)
        assert inst.A[1][0] is half and inst.b[1] is half
        with pytest.raises(ValueError) as info:
            Instance(A=((True, 0.5),), b=(0.5,))
        assert str(info.value) == "A[1][1] is not a number: True"


class TestInstanceType:
    """What Instance keeps now that it holds its grades as integers over
    their least common denominator."""

    REPR = "Instance(A=((Fraction(1, 2),),), b=(Fraction(1, 4),), epsilon=Fraction(0, 1))"

    def test_read_and_built_instances_are_equal(self):
        read = parse_instance_text('{"A": [[0.50]], "b": [0.250]}')[0]
        built = Instance(A=((Fraction(1, 2),),), b=(Fraction(1, 4),))
        assert read == built
        assert hash(read) == hash(built)

    def test_replace_on_a_generated_instance(self):
        inst, _ = generate_instance(4, 5, seed=11)
        assert "A" not in vars(inst)  # the generator builds no Fraction per grade
        replaced = dataclasses.replace(inst, epsilon=Fraction(1, 100))
        from_fractions = Instance(A=inst.A, b=inst.b, epsilon=Fraction(1, 100))
        assert replaced == from_fractions and hash(replaced) == hash(from_fractions)
        assert replaced.epsilon == Fraction(1, 100) and replaced.A == inst.A
        assert dataclasses.replace(inst) == inst

    @pytest.mark.parametrize(
        "member, epsilon",
        [("", Fraction(0)), (', "epsilon": 0.05', Fraction(1, 20)), (', "epsilon": 1', Fraction(1))],
        ids=["absent", "float", "int"],
    )
    def test_read_instance_epsilon(self, member, epsilon):
        inst, _ = parse_instance_text('{"A": [[0.5]], "b": [0.25]%s}' % member)
        assert type(inst.epsilon) is Fraction and inst.epsilon == epsilon
        assert inst == Instance(A=((Fraction(1, 2),),), b=(Fraction(1, 4),), epsilon=epsilon)

    def test_repr(self):
        assert repr(parse_instance_text('{"A": [[0.50]], "b": [0.250]}')[0]) == self.REPR
        assert repr(Instance(A=(("0.5",),), b=(0.25,))) == self.REPR
