"""Integer stand-ins for Fraction arithmetic: literal parsing, the grade
range test, index sets, threshold ranks and float conversion all give
exactly what the Fraction definitions give."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import Instance, as_grade, compute_index_sets
from frisolve.core import coordinate_threshold
from frisolve.files import (
    MAX_DIGITS,
    MAX_EXPONENT,
    InstanceFormatError,
    _parse_float,
    _parse_int,
    grade_number,
    parse_instance_text,
)
from frisolve.objective import coordinate_sum, log_sum_exp, max_coordinate
from frisolve.solver import _ranked_options

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
        value = _parse_float(literal)
        assert type(value) is Fraction
        assert value == Fraction(literal)
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
        assert _parse_float(literal) == Fraction(literal)


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
def test_threshold_ranks_match_the_fraction_order(inst):
    idx = compute_index_sets(inst)
    scale, scaled, options = _ranked_options(inst, idx)
    assert all(type(t) is int for t in scaled)
    values = [Fraction(t, scale) for t in scaled]
    thresholds = {
        (i, j): 1 + (inst.b[i] - inst.epsilon) - inst.A[i][j]
        for i in idx.constraining_rows
        for j in idx.sets[i]
    }
    assert values == sorted(set(thresholds.values()) | {Fraction(0)})
    for i, row in options.items():
        assert [j for j, _ in row] == list(idx.sets[i])
        for j, r in row:
            assert values[r] == thresholds[i, j] == coordinate_threshold(inst, i, j)
            assert scaled[r] / scale == float(coordinate_threshold(inst, i, j))


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
