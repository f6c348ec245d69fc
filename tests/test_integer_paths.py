"""Integer stand-ins for Fraction arithmetic: literal parsing, the
instance reader's integer form, the grade range test, index sets,
scaled thresholds and float conversion all give exactly what the Fraction
definitions give."""

import itertools
import json
import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frisolve import Instance, as_grade, as_point, compute_index_sets, generate_instance
from frisolve.files import (
    MAX_DIGITS,
    MAX_EXPONENT,
    InstanceFormatError,
    _parse_float,
    _parse_int,
    grade_number,
    parse_instance_text,
    serialize_instance,
)
from frisolve.objective import coordinate_sum, log_sum_exp, max_coordinate
from frisolve.solver import _options

from conftest import (
    coordinate_threshold,
    reference_fraction,
    reference_generate,
    reference_grade,
    reference_instance,
    reference_parse,
)

digits = st.text("0123456789", min_size=1, max_size=MAX_DIGITS)


@st.composite
def float_literals(draw) -> str:
    """JSON number literals with a fraction part, an exponent or both,
    within the parse bounds: at most MAX_DIGITS mantissa digits."""
    sign = draw(st.sampled_from(["", "-"]))
    whole = draw(st.one_of(st.just("0"), digits.map(lambda d: "1" + d[: MAX_DIGITS - 2])))
    room = MAX_DIGITS - len(whole)
    exponent = draw(
        st.one_of(
            st.just(""),
            st.builds(
                lambda e, s, v, pad: f"{e}{s}{'0' * pad}{v}",
                st.sampled_from("eE"),
                st.sampled_from(["", "+", "-"]),
                st.integers(0, MAX_EXPONENT),
                st.integers(0, 3),
            ),
        )
    )
    if room < 1 or (exponent and draw(st.booleans())):
        return sign + whole + exponent
    fraction = draw(st.text("0123456789", min_size=1, max_size=room))
    trailing = draw(st.integers(0, room - len(fraction)))
    return f"{sign}{whole}.{fraction}{'0' * trailing}{exponent}"


class TestParseFloat:
    @given(literal=float_literals())
    @settings(max_examples=400)
    def test_equals_the_fraction_of_the_literal(self, literal):
        p, q = value = _parse_float(literal)
        assert type(p) is int and type(q) is int and q > 0
        assert Fraction(p, q) == Fraction(literal)
        assert json.loads(literal, parse_float=_parse_float, parse_int=_parse_int) == value

    @pytest.mark.parametrize(
        "literal",
        [
            "-0.0", "0.0", "-0.000", "0.5000", "0.0001", "-1.0", "1.0",
            "0." + "0" * (MAX_DIGITS - 2) + "1",
            "-0." + "9" * (MAX_DIGITS - 1),
            "1" * (MAX_DIGITS - 1) + ".5",
            "1.5e0", "-0.0E-0", "2.50e+3", "0.001e" + str(MAX_EXPONENT),
        ],
    )
    def test_edge_literals(self, literal):
        assert Fraction(*_parse_float(literal)) == Fraction(literal)


@st.composite
def grade_literals(draw, top: int = 1) -> str:
    """A JSON number literal for a rational in [0, top]: an integer
    literal, a decimal with 1 to 12 digits and maybe trailing zeros, or a
    literal with an exponent, its mantissa with or without a point."""
    k = draw(st.integers(0, 12))
    p = draw(st.integers(0, top * 10**k))
    whole, fraction = divmod(p, 10**k)
    form = draw(st.sampled_from(["int", "plain", "exponent", "point exponent"]))
    if form == "int" and fraction == 0:
        return str(whole)
    if form == "exponent":
        return f"{p}{draw(st.sampled_from('eE'))}-{k}"
    if form == "point exponent":
        r = draw(st.integers(1, 3))
        head, tail = divmod(p, 10**r)
        return f"{head}.{tail:0{r}d}e{r - k:+d}"
    digits = f"{fraction:0{k}d}" if k else "0"
    return f"{whole}.{digits}{'0' * draw(st.integers(0, 3))}"


@st.composite
def documents(draw) -> tuple[list[list[str]], list[str], Optional[str]]:
    """The literals of an instance document: A, b, and epsilon (None for
    no member), which may exceed 1."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    A = [[draw(grade_literals()) for _ in range(n)] for _ in range(m)]
    b = [draw(grade_literals()) for _ in range(m)]
    return A, b, draw(st.one_of(st.none(), grade_literals(top=3)))


def document_text(
    A: list[list[str]], b: list[str], epsilon: Optional[str], name: str = '"x"'
) -> str:
    members = [
        f'"name": {name}',
        '"A": [' + ", ".join("[" + ", ".join(row) + "]" for row in A) + "]",
        '"b": [' + ", ".join(b) + "]",
    ]
    if epsilon is not None:
        members.append(f'"epsilon": {epsilon}')
    return "{" + ", ".join(members) + "}"


OUT_OF_RANGE = ["-0.5", "1.0001", "2", "-1", "11e-1", "-1e-3", "1.5E0", "-0.0001e1"]
NEGATIVE = ["-1", "-1.0", "-1e0", "-0.5", "-25E-2", "-3"]
NOT_NUMBERS = ["true", "false", "null", '"0.5"', "[0.5]", "{}", '{"x": [1e-1, 0.25]}']
NOT_STRINGS = ["true", "3", "0.5", "[0.5]", '{"x": [1e-1, 0.25]}']


@st.composite
def defective_documents(draw) -> str:
    """A document with one defect: a grade or threshold out of [0, 1], a
    row of another width, a b of another length, a negative epsilon, a
    slot that holds no number, or a name that is no string."""
    A, b, epsilon = draw(documents())
    defect = draw(
        st.sampled_from(["grade", "threshold", "width", "length", "epsilon", "type", "name"])
    )
    if defect == "name":
        return document_text(A, b, epsilon, draw(st.sampled_from(NOT_STRINGS)))
    if defect == "grade":
        row = draw(st.sampled_from(A))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(OUT_OF_RANGE))
    elif defect == "threshold":
        b[draw(st.integers(0, len(b) - 1))] = draw(st.sampled_from(OUT_OF_RANGE))
    elif defect == "width":
        A.insert(draw(st.integers(1, len(A))), A[0] + [draw(grade_literals())])
    elif defect == "length":
        if len(b) > 1 and draw(st.booleans()):
            b.pop()
        else:
            b.append(draw(grade_literals()))
    elif defect == "epsilon":
        epsilon = draw(st.sampled_from(NEGATIVE))
    else:
        slots = [(row, j) for row in A for j in range(len(row))] + [(b, i) for i in range(len(b))]
        values, k = draw(st.sampled_from(slots))
        values[k] = draw(st.sampled_from(NOT_NUMBERS))
    return document_text(A, b, epsilon)


class TestReader:
    """The reader's integers against the Fraction reference in conftest:
    json.loads with Fraction hooks, then the Fraction checks of
    Instance(...)."""

    @given(doc=documents())
    @settings(max_examples=300)
    def test_integer_form_denotes_the_reference_instance(self, doc):
        text = document_text(*doc)
        inst, _ = parse_instance_text(text)
        values = [inst._D, inst._eps, *inst._b, *itertools.chain(*inst._A)]
        assert all(type(v) is int for v in values)  # no Fraction, no bool
        assert "A" not in vars(inst) and "b" not in vars(inst)  # no view built yet
        reference, _ = reference_parse(text)
        d = inst._D
        assert tuple(tuple(Fraction(a, d) for a in row) for row in inst._A) == reference.A
        assert tuple(Fraction(v, d) for v in inst._b) == reference.b
        assert Fraction(inst._eps, d) == inst.epsilon == reference.epsilon
        assert inst == reference and hash(inst) == hash(reference)
        assert (inst.A, inst.b) == (reference.A, reference.b)

    def test_a_deeply_nested_slot_is_worded_to_the_bottom(self):
        depth = 700
        text = '{"A": [[%s]], "b": [0]}' % ("[" * depth + "0.5" + "]" * depth)
        with pytest.raises(InstanceFormatError) as got:
            parse_instance_text(text)
        nested = "[" * depth + "Fraction(1, 2)" + "]" * depth
        assert str(got.value) == "A[1][1] is not a number: " + nested

    @given(text=defective_documents())
    @settings(max_examples=300)
    def test_a_defect_gets_the_reference_message(self, text):
        with pytest.raises(ValueError) as want:
            reference_parse(text)
        with pytest.raises(InstanceFormatError) as got:
            parse_instance_text(text)
        assert str(got.value) == str(want.value)


@st.composite
def grade_likes(draw, top: int = 1):
    """A value in [0, top] as one of the GradeLike types: a Fraction, an
    int, a decimal or ratio string, or a float. A bool is no grade
    (GRADE_NOT_NUMBERS)."""
    q = draw(st.sampled_from([1, 3, 4, 10, 10_000]))
    value = Fraction(draw(st.integers(0, top * q)), q)
    form = draw(st.sampled_from(["fraction", "int", "str", "float"]))
    if form == "int" and value.denominator == 1 and value <= 1:
        return int(value)
    if form == "str":
        return draw(st.sampled_from([str(value), f"{float(value)!r}"]))
    if form == "float":
        return float(value)
    return value


GRADE_OUT_OF_RANGE = [-1, 2, "1.5", "-1/3", 1.0000001, -0.25, Fraction(3, 2), Fraction(-1, 10**9)]
GRADE_NOT_NUMBERS = [
    None, "x", "", math.nan, math.inf, -math.inf, [0.5], "nan", "1/0", object, True, False,
]
NEGATIVE_EPSILONS = [-1, -0.5, "-1/3", Fraction(-1, 7), "-0.0001"]


@st.composite
def defective_library_inputs(draw):
    """A, b and epsilon for Instance(...) in mixed GradeLike types, with
    one defect: a grade or threshold out of [0, 1] or not a number, a row
    of another width, an empty row, a b of another length, or an epsilon
    that is negative or not a number."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    A = [[draw(grade_likes()) for _ in range(n)] for _ in range(m)]
    b = [draw(grade_likes()) for _ in range(m)]
    epsilon = draw(grade_likes(top=2))
    defect = draw(
        st.sampled_from(["grade", "threshold", "width", "empty", "length", "epsilon", "type"])
    )
    bad = draw(st.sampled_from(GRADE_OUT_OF_RANGE))
    if defect == "grade":
        row = draw(st.sampled_from(A))
        row[draw(st.integers(0, n - 1))] = bad
    elif defect == "threshold":
        b[draw(st.integers(0, m - 1))] = bad
    elif defect == "width":
        A.insert(draw(st.integers(1, m)), A[0] + [draw(grade_likes())])
        b.append(draw(grade_likes()))
    elif defect == "empty":
        A[draw(st.integers(0, m - 1))] = []
    elif defect == "length":
        if m > 1 and draw(st.booleans()):
            b.pop()
        else:
            b.append(draw(grade_likes()))
    elif defect == "epsilon":
        epsilon = draw(st.sampled_from(NEGATIVE_EPSILONS + GRADE_NOT_NUMBERS))
    else:
        slots = [(row, j) for row in A for j in range(n)] + [(b, i) for i in range(m)]
        values, k = draw(st.sampled_from(slots))
        values[k] = draw(st.sampled_from(GRADE_NOT_NUMBERS))
    return A, b, epsilon


class TestLibraryInstance:
    """Instance(...) validates through the integer checks the reader uses;
    the Fraction checks in conftest are the reference."""

    @given(data=st.data())
    @settings(max_examples=200)
    def test_mixed_input_denotes_the_reference_instance(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        A = [[data.draw(grade_likes()) for _ in range(n)] for _ in range(m)]
        b = [data.draw(grade_likes()) for _ in range(m)]
        epsilon = data.draw(grade_likes(top=2))
        inst = Instance(A=A, b=b, epsilon=epsilon)
        want_A, want_b, want_epsilon = reference_instance(A, b, epsilon)
        assert (inst.A, inst.b, inst.epsilon) == (want_A, want_b, want_epsilon)
        reference = Instance(A=want_A, b=want_b, epsilon=want_epsilon)
        assert inst == reference and hash(inst) == hash(reference)

    @given(inputs=defective_library_inputs())
    @settings(max_examples=400)
    def test_a_defect_gets_the_reference_message(self, inputs):
        A, b, epsilon = inputs
        with pytest.raises(ValueError) as want:
            reference_instance(A, b, epsilon)
        with pytest.raises(ValueError) as got:
            Instance(A=A, b=b, epsilon=epsilon)
        assert str(got.value) == str(want.value)


class TestLibraryPoint:
    """as_point converts each coordinate of every GradeLike type, and
    names a bad one by its position, as the Fraction reference does."""

    @given(values=st.lists(grade_likes(), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_coordinates_denote_the_reference_point(self, values):
        point = as_point(values, n=len(values))
        assert point == tuple([reference_fraction(v, "x") for v in values])
        assert all(type(x) is Fraction for x in point)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_a_bad_coordinate_gets_the_reference_message(self, data):
        values = data.draw(st.lists(grade_likes(), min_size=1, max_size=6))
        k = data.draw(st.integers(0, len(values) - 1))
        values[k] = data.draw(st.sampled_from(GRADE_OUT_OF_RANGE + GRADE_NOT_NUMBERS))
        with pytest.raises(ValueError) as want:
            reference_grade(values[k], f"x[{k + 1}]")
        with pytest.raises(ValueError) as got:
            as_point(values)
        assert str(got.value) == str(want.value)


@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64),
    feasible=st.booleans(),
    density=st.floats(0.05, 20),
)
@settings(max_examples=300)
# Seed 722's first tick is the top one, GRID, which comes up once in 10,001
# ticks; in infeasible mode its row is the one clamped to GRID - 1.
@example(m=3, n=3, seed=722, feasible=True, density=1.0)
@example(m=3, n=3, seed=722, feasible=False, density=1.0)
def test_generator_equals_the_reference(m, n, seed, feasible, density):
    """The tick loop draws what randrange draws, and the integer builder
    holds what Instance(...) holds for the Fractions tick/10000."""
    inst, name = generate_instance(m, n, seed, feasible, density)
    want, want_name = reference_generate(m, n, seed, feasible, density)
    assert name == want_name
    assert (inst._D, inst._A, inst._b, inst._eps) == (want._D, want._A, want._b, want._eps)
    assert serialize_instance(inst, name) == serialize_instance(want, want_name)


class TestGradeRange:
    @pytest.mark.parametrize(
        "value",
        [0, 1, "1.0", "-0.0", Fraction(1), 1 - Fraction(1, 10**49), Fraction(1, 10**49)],
    )
    def test_edges_inside(self, value):
        assert as_grade(value) == Fraction(value)

    @pytest.mark.parametrize(
        "value", [-1, 2, "1.0000001", 1 + Fraction(1, 10**49), -Fraction(1, 10**49)]
    )
    def test_edges_outside(self, value):
        with pytest.raises(ValueError, match=r"out of \[0,1\]"):
            as_grade(value)

    @pytest.mark.parametrize(
        "literal, inside",
        [
            ("1." + "0" * 48 + "1", False),
            ("0." + "9" * 49, True),
            ("-0.0", True),
            ("-0." + "0" * 48 + "1", False),
            ("1.0", True),
            ("1", True),
            ("0", True),
        ],
    )
    def test_edges_through_the_parser(self, literal, inside):
        text = '{"A": [[%s]], "b": [0]}' % literal
        if inside:
            assert parse_instance_text(text)[0].A[0][0] == Fraction(literal)
        else:
            with pytest.raises(InstanceFormatError, match=r"A\[1\]\[1\] out of \[0,1\]"):
                parse_instance_text(text)


# Grades on mixed grids, so that thresholds carry several denominators.
mixed_grades = st.sampled_from([10, 16, 100, 250, 10_000]).flatmap(
    lambda q: st.integers(0, q).map(lambda k: Fraction(k, q))
)


MIXED_EPSILONS = (Fraction(0), Fraction(1, 100), Fraction(1, 8), Fraction(1, 3))


@st.composite
def mixed_instances(draw, epsilons=MIXED_EPSILONS) -> Instance:
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    A = tuple(tuple(draw(mixed_grades) for _ in range(n)) for _ in range(m))
    b = tuple(draw(mixed_grades) for _ in range(m))
    epsilon = draw(st.sampled_from(epsilons))
    return Instance(A=A, b=b, epsilon=epsilon)


@given(inst=mixed_instances())
@settings(max_examples=200)
def test_index_sets_match_the_fraction_definition(inst):
    idx = compute_index_sets(inst)
    for i, (row, bi) in enumerate(zip(inst.A, inst.b)):
        need = bi - inst.epsilon
        assert idx.sets[i] == tuple(j for j, a in enumerate(row) if a >= need)
        assert idx.vacuous[i] == (need <= 0)


@given(inst=mixed_instances())
@settings(max_examples=200)
def test_scaled_thresholds_match_the_fraction_values(inst):
    idx = compute_index_sets(inst)
    scale = inst._D
    options = _options(inst, idx)
    assert list(options) == list(idx.constraining_rows)
    for i, row in options.items():
        assert [j for j, _ in row] == list(idx.sets[i])
        for j, t in row:
            assert type(t) is int
            threshold = 1 + (inst.b[i] - inst.epsilon) - inst.A[i][j]
            assert Fraction(t, scale) == threshold == coordinate_threshold(inst, i, j)
            assert t / scale == float(coordinate_threshold(inst, i, j))


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**30)


@given(point=st.lists(st.one_of(mixed_grades, unit_fractions), min_size=1, max_size=6))
def test_float_conversions_match_float(point):
    assert [grade_number(v) for v in point] == [float(v) for v in point]
    floats = [float(v) for v in point]
    assert log_sum_exp(point) == log_sum_exp(floats)
    assert max_coordinate(point) == max_coordinate(floats)
    assert coordinate_sum(point) == coordinate_sum(floats)
    with_ints = [int(v) if v.denominator == 1 else v for v in point]
    assert log_sum_exp(with_ints) == log_sum_exp(point)
