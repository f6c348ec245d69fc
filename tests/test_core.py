"""Domain types and composition: golden values, validation, monotonicity."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import (
    Instance,
    as_grade,
    as_point,
    compose,
    is_member,
    log_sum_exp,
    ones,
    zeros,
)

from conftest import GOLDEN_COMPOSE_ONES, F, fpoint

grades = st.integers(0, 10_000).map(lambda k: Fraction(k, 10_000))


def small_instances(max_m=4, max_n=4):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(grades, min_size=n, max_size=n), min_size=m, max_size=m
                ),
                st.lists(grades, min_size=m, max_size=m),
            )
        )
    ).map(lambda ab: Instance(A=tuple(map(tuple, ab[0])), b=tuple(ab[1])))


class TestCompose:
    def test_golden_composition_at_top(self, golden):
        got = compose(golden, ones(7))
        assert got == GOLDEN_COMPOSE_ONES
        for g, want in zip(got, GOLDEN_COMPOSE_ONES):
            assert abs(float(g) - float(want)) <= 1e-12

    def test_identity_grade_passes_coordinate_through(self):
        inst = Instance(A=(("1.0",),), b=("0.0",))
        assert compose(inst, fpoint("0.4")) == (F("0.4"),)

    def test_golden_optimizer_satisfies_every_row(self, golden):
        x = fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0")
        assert all(c >= bi for c, bi in zip(compose(golden, x), golden.b))

    def test_dimension_mismatch_rejected(self, golden):
        with pytest.raises(ValueError):
            compose(golden, ones(6))

    @given(inst=small_instances(), data=st.data())
    @settings(max_examples=60)
    def test_monotone_in_the_point(self, inst, data):
        n = inst.n
        x = data.draw(st.lists(grades, min_size=n, max_size=n))
        bump = data.draw(st.lists(grades, min_size=n, max_size=n))
        y = [min(xi + d, Fraction(1)) for xi, d in zip(x, bump)]
        cx, cy = compose(inst, x), compose(inst, y)
        assert all(a <= b for a, b in zip(cx, cy))


class TestIsMember:
    def test_golden_top_is_member(self, golden):
        assert is_member(golden, ones(7))

    def test_golden_bottom_is_not(self, golden):
        assert not is_member(golden, zeros(7))

    def test_zero_thresholds_admit_everything(self):
        inst = Instance(A=(("0.2", "0.9"), ("0.5", "0.1")), b=(0, 0))
        assert is_member(inst, zeros(2))
        assert is_member(inst, fpoint("0.37", "0.001"))

    @given(inst=small_instances(), data=st.data())
    @settings(max_examples=60)
    def test_membership_upward_closed(self, inst, data):
        n = inst.n
        x = data.draw(st.lists(grades, min_size=n, max_size=n))
        bump = data.draw(st.lists(grades, min_size=n, max_size=n))
        y = [min(xi + d, Fraction(1)) for xi, d in zip(x, bump)]
        if is_member(inst, x):
            assert is_member(inst, y)


class TestValidation:
    def test_grade_range_enforced(self):
        with pytest.raises(ValueError, match="out of"):
            as_grade("1.2")
        with pytest.raises(ValueError, match="out of"):
            as_grade(-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_grade(float("nan"))
        with pytest.raises(ValueError):
            as_grade(float("inf"))

    def test_point_length_check(self):
        with pytest.raises(ValueError, match="coordinates"):
            as_point(["0.1", "0.2"], n=3)

    def test_instance_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError, match=r"A\[1\]\[2\]"):
            Instance(A=(("0.5", "1.5"),), b=("0.2",))
        with pytest.raises(ValueError, match=r"b\[1\]"):
            Instance(A=(("0.5", "0.5"),), b=("-0.2",))

    def test_instance_rejects_ragged_matrix(self):
        with pytest.raises(ValueError, match="columns"):
            Instance(A=(("0.5", "0.5"), ("0.5",)), b=("0.2", "0.2"))

    def test_instance_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            Instance(A=(("0.5",),), b=("0.2",), epsilon="-0.01")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: as_point([]), "x must have at least one coordinate"),
            (lambda: ones(0), "dimension must be an integer >= 1, got 0"),
            (lambda: zeros(0), "dimension must be an integer >= 1, got 0"),
            # A dimension is a count: a bool or a non-integer is no dimension.
            (lambda: ones(True), "dimension must be an integer >= 1, got True"),
            (lambda: ones(2.5), "dimension must be an integer >= 1, got 2.5"),
            (lambda: zeros("3"), "dimension must be an integer >= 1, got '3'"),
            (lambda: Instance(A=(), b=()), "A must have at least one row"),
            # Not empty, but the same exact-message check: a coordinate
            # that is not a number is named by its position.
            (lambda: as_point(["0.5", "abc"]), "x[2] is not a number: 'abc'"),
            (lambda: log_sum_exp([0.5, True]), "x[2] is not a number: True"),
        ],
        ids=[
            "point", "ones", "zeros", "ones-bool", "ones-float", "zeros-str", "instance",
            "point-not-a-number", "objective-not-a-number",
        ],
    )
    def test_empty_is_rejected(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_decimal_strings_parse_exactly(self):
        assert as_grade("0.9463") == Fraction(9463, 10_000)
