"""Admissible sets, the feasibility verdict they carry, and the maximum
solution."""

from hypothesis import given, settings

from frisolve import (
    Instance,
    compose,
    compute_index_sets,
    is_member,
    ones,
)

from conftest import GOLDEN_J
from test_core import small_instances


def test_golden_index_sets(golden):
    idx = compute_index_sets(golden)
    assert idx.sets == GOLDEN_J
    assert idx.vacuous == (False,) * 5
    assert idx.constraining_rows == (0, 1, 2, 3, 4)


def test_zero_threshold_row_is_vacuous_with_full_set():
    inst = Instance(A=(("0.3", "0.8"),), b=(0,))
    idx = compute_index_sets(inst)
    assert idx.sets == ((0, 1),)
    assert idx.vacuous == (True,)
    assert idx.feasible


def test_unreachable_threshold_gives_empty_set():
    inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
    idx = compute_index_sets(inst)
    assert idx.sets == ((),)
    assert not idx.feasible
    assert idx.empty_rows == (0,)


def test_golden_verdict(golden):
    idx = compute_index_sets(golden)
    assert idx.feasible
    assert idx.empty_rows == ()
    assert is_member(golden, ones(7))


def test_infeasible_verdict_lists_every_bad_row():
    inst = Instance(
        A=(("0.3", "0.6"), ("0.9", "0.9"), ("0.1", "0.2")),
        b=("0.7", "0.5", "0.9"),
    )
    idx = compute_index_sets(inst)
    assert not idx.feasible
    assert idx.empty_rows == (0, 2)
    assert not is_member(inst, ones(2))


def test_epsilon_widens_the_threshold_test():
    inst = Instance(A=(("0.65",),), b=("0.7",), epsilon="0.1")
    assert compute_index_sets(inst).sets == ((0,),)


@given(inst=small_instances())
@settings(max_examples=80)
def test_consistency_equals_top_point_membership(inst):
    # Two independent routes to the same verdict: every admissible set
    # non-empty, and the all-ones point satisfying every row.
    idx = compute_index_sets(inst)
    assert all(idx.sets) == is_member(inst, ones(inst.n))


@given(inst=small_instances())
@settings(max_examples=40)
def test_maximum_solution_present_exactly_when_feasible(inst):
    # ones(n) is a solution exactly when the system is feasible, and the
    # empty rows are exactly the rows the all-ones point leaves unmet.
    idx = compute_index_sets(inst)
    top = ones(inst.n)
    unmet = tuple(
        i for i, (g, b) in enumerate(zip(compose(inst, top), inst.b)) if g < b - inst.epsilon
    )
    assert idx.empty_rows == unmet
    assert idx.feasible == (not unmet) == is_member(inst, top)
