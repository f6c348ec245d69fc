"""End-to-end resolution: golden report, search against the product
enumeration, path equivalence, ties, the cap, and epsilon > 0."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import (
    DEFAULT_CAP,
    OBJECTIVES,
    Candidate,
    CapExceededError,
    Instance,
    compute_index_sets,
    enumerate_candidates,
    generate_instance,
    is_member,
    log_sum_exp,
    max_coordinate,
    solve,
    solve_unpruned,
    zeros,
)
from frisolve.core import coordinate_threshold
from frisolve.files import render_report_json
from frisolve.oracle import is_minimal_point
from frisolve.structure import search_leaves

from conftest import (
    GOLDEN_MINIMAL,
    GOLDEN_OPT_VALUE,
    GOLDEN_OPTIMIZER_POINT,
    GOLDEN_OPTIMIZER_SELECTOR,
    GOLDEN_OTHER_VALUE,
    prune_to_minimal,
    random_instances,
    selector_key,
)
from test_core import small_instances


def with_epsilon(epsilons):
    """small_instances with an epsilon drawn from ``epsilons``; a drawn
    epsilon at or above some b_i makes that row vacuous."""
    return st.tuples(small_instances(max_m=5), epsilons).map(
        lambda ie: Instance(A=ie[0].A, b=ie[0].b, epsilon=ie[1])
    )


positive_epsilons = st.integers(1, 3000).map(lambda k: Fraction(k, 10_000))


def test_golden_full_report(golden):
    report = solve(golden)
    assert report.index_sets.feasible
    assert report.selector_count == 4
    assert report.candidates_enumerated == 2  # leaves of the covered-row search
    assert {c.point for c in report.minimal_solutions} == GOLDEN_MINIMAL
    assert report.optimizer.point == GOLDEN_OPTIMIZER_POINT
    assert report.optimizer.selector == GOLDEN_OPTIMIZER_SELECTOR
    assert report.optimal_value == pytest.approx(GOLDEN_OPT_VALUE, abs=5e-4)
    other = next(
        c for c in report.minimal_solutions if c.point != report.optimizer.point
    )
    assert log_sum_exp(other.point) == pytest.approx(GOLDEN_OTHER_VALUE, abs=5e-4)
    assert len(json.loads(render_report_json(report))["cells"]) == 2
    assert report.optimal_value == log_sum_exp(report.optimizer.point)
    assert is_member(golden, report.optimizer.point)


def test_infeasible_report_has_no_optimizer():
    inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
    report = solve(inst)
    assert not report.index_sets.feasible
    assert report.index_sets.empty_rows == (0,)
    assert report.optimizer is None
    assert report.optimal_value is None
    assert report.minimal_solutions == ()
    assert report.selector_count is None


def test_all_zero_thresholds_optimize_to_the_bottom():
    inst = Instance(A=(("0.4", "0.9", "0.2"),), b=(0,))
    report = solve(inst)
    assert report.optimizer.point == zeros(3)
    assert report.optimal_value == pytest.approx(math.log(3), abs=1e-12)
    assert report.selector_count == 1


def test_unpruned_matches_solve_on_golden(golden):
    full = solve(golden)
    fast = solve_unpruned(golden)
    assert fast.optimal_value == full.optimal_value
    assert fast.optimizer.point == full.optimizer.point
    assert fast.minimal_solutions == ()
    assert json.loads(render_report_json(fast))["cells"] == []


def test_unpruned_matches_solve_on_random_instances():
    for inst, name in random_instances(25, base_seed=7100):
        full = solve(inst)
        fast = solve_unpruned(inst)
        assert fast.optimal_value == full.optimal_value, name
        assert fast.optimizer.point == full.optimizer.point, name


@given(
    inst=with_epsilon(st.one_of(st.just(Fraction(0)), positive_epsilons)),
    name=st.sampled_from(sorted(OBJECTIVES)),
)
@settings(max_examples=200, deadline=None)
def test_unpruned_search_matches_solve_for_every_objective(inst, name):
    objective = OBJECTIVES[name]
    full = solve(inst, objective)
    fast = solve_unpruned(inst, objective)
    assert fast.index_sets == full.index_sets
    assert fast.selector_count == full.selector_count
    if not full.index_sets.feasible:
        assert fast.optimizer is None and fast.optimal_value is None
        return
    assert fast.optimizer == full.optimizer
    assert fast.optimal_value == full.optimal_value
    assert 1 <= fast.candidates_enumerated <= full.candidates_enumerated


def test_unpruned_max_tie_reports_the_minimal_point():
    # x = (1, 1) from e = [2, 1] and x = (0, 1) from e = [2, 2] tie under
    # max; only the second is minimal, and solve reports it
    inst = Instance(A=(("0.2", "0.5"), ("0.5", "0.5")), b=("0.5", "0.5"))
    for runner in (solve, solve_unpruned):
        report = runner(inst, max_coordinate)
        assert report.optimizer.point == (0, 1)
        assert report.optimizer.selector == (1, 1)
        assert report.optimal_value == 1.0


def test_unpruned_search_solves_a_large_product_under_a_small_cap():
    inst, _ = generate_instance(8, 8, seed=1, density=2.0)
    fast = solve_unpruned(inst, cap=1000)
    assert fast.selector_count == 1_806_336
    full = solve(inst)
    assert fast.optimizer == full.optimizer
    assert fast.optimal_value == full.optimal_value
    assert fast.candidates_enumerated < full.candidates_enumerated  # the bound cut


def test_unpruned_bound_cuts_and_reuses_leaf_values(golden):
    calls = []

    def counting(x):
        calls.append(x)
        return log_sum_exp(x)

    report = solve_unpruned(golden, objective=counting)
    # one evaluation per node: the root and the 4 column assignments; the
    # 2 leaves reuse their node's value
    assert len(calls) == 5
    assert report.candidates_enumerated == 2
    assert calls[-1] == report.optimizer.point


def test_objective_ties_break_to_the_smallest_selector():
    # Two identical columns: the two minimal points are permutations of
    # each other, so their objective values tie bitwise.
    inst = Instance(A=(("0.8", "0.8"),), b=("0.6",))
    report = solve(inst)
    assert len(report.minimal_solutions) == 2
    values = {log_sum_exp(c.point) for c in report.minimal_solutions}
    assert len(values) == 1
    assert report.optimizer.selector == (0,)


def test_cap_propagates_with_the_exact_count(golden):
    # solve's search tries 4 column assignments on the golden system; the
    # cap stops it at the first node beyond the cap
    with pytest.raises(CapExceededError) as err:
        solve(golden, cap=2)
    assert err.value.count == 3
    assert solve(golden, cap=4).candidates_enumerated == 2
    # solve_unpruned walks the same search, with the same node count
    with pytest.raises(CapExceededError) as err:
        solve_unpruned(golden, cap=2)
    assert err.value.count == 3
    assert "search reached 3 nodes" in str(err.value)


def test_generic_objective_lower_bounds_sampled_points(golden):
    # swap in the max objective; its optimum must still sit below the
    # objective at the golden feasible points we know
    report = solve(golden, objective=max_coordinate)
    assert report.optimal_value == pytest.approx(0.9892, abs=1e-12)
    for cand_point in GOLDEN_MINIMAL:
        assert report.optimal_value <= max_coordinate(cand_point)


def test_options_validation(golden):
    for cap in (0, None):
        with pytest.raises(ValueError):
            solve(golden, cap=cap)
        with pytest.raises(ValueError):
            solve_unpruned(golden, cap=cap)
        with pytest.raises(ValueError):
            enumerate_candidates(golden, cap=cap)


def test_timing_stages_recorded(golden):
    report = solve(golden)
    assert {"index_sets", "candidates", "prune", "select", "total"} <= set(report.timing)
    assert all(v >= 0 for v in report.timing.values())


@given(inst=with_epsilon(st.one_of(st.just(Fraction(0)), positive_epsilons)))
@settings(max_examples=150, deadline=None)
def test_search_matches_pruned_product_enumeration(inst):
    report = solve(inst)
    if not report.index_sets.feasible:
        assert not compute_index_sets(inst).feasible
        return
    reference = prune_to_minimal(enumerate_candidates(inst))
    assert report.minimal_solutions == tuple(reference)
    want = min(reference, key=lambda c: (log_sum_exp(c.point), selector_key(c.selector)))
    assert report.optimizer == want
    assert report.optimal_value == log_sum_exp(want.point)


def test_large_answer_matches_the_pairwise_reference():
    # 350 minimal points among 2,117 distinct leaves (2,228 reached): the
    # row test must keep exactly the leaves no other leaf lies below.
    inst, _ = generate_instance(14, 10, seed=7, density=6)
    idx = compute_index_sets(inst)
    report = solve(inst)
    found = search_leaves(inst, idx, DEFAULT_CAP)
    leaves = []
    for leaf in found.points:
        point = tuple(found.values[r] for r in leaf)
        columns = tuple(
            None if idx.vacuous[i]
            else next(j for j in idx.sets[i] if coordinate_threshold(inst, i, j) <= point[j])
            for i in range(inst.m)
        )
        leaves.append(Candidate(selector=columns, point=point))
    assert len(report.minimal_solutions) == 350
    assert report.minimal_solutions == tuple(prune_to_minimal(leaves))
    assert all(is_minimal_point(inst, c.point) for c in report.minimal_solutions)


@given(inst=with_epsilon(positive_epsilons))
@settings(max_examples=150, deadline=None)
def test_minimal_points_are_exactly_minimal_with_epsilon(inst):
    # Written from the membership inequality a_ij + x_j - 1 >= b_i - eps
    # alone: x is minimal iff it is a member and every nonzero x_j is the
    # only column meeting some row, and meets it with equality, so that
    # lowering x_j breaks that row.
    report = solve(inst)
    for cand in report.minimal_solutions:
        x = cand.point
        assert is_member(inst, x)
        tight = set()
        for row, bi in zip(inst.A, inst.b):
            threshold = bi - inst.epsilon
            if threshold <= 0:
                continue
            meeting = [j for j, (a, xj) in enumerate(zip(row, x)) if a + xj - 1 >= threshold]
            if len(meeting) == 1 and row[meeting[0]] + x[meeting[0]] - 1 == threshold:
                tight.add(meeting[0])
        assert all(j in tight for j, xj in enumerate(x) if xj != 0), x


def test_epsilon_lowers_the_minimal_point_by_epsilon():
    # a + x - 1 >= 0.6 - 0.1 holds from x = 0.6 on, not from 1 + 0.6 - 0.9
    inst = Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")
    report = solve(inst)
    assert [c.point for c in report.minimal_solutions] == [(Fraction("0.6"),)]
    assert report.optimizer.point == (Fraction("0.6"),)
    assert is_member(inst, (Fraction("0.6"),))
    assert not is_member(inst, (Fraction("0.5999"),))


def test_deep_chain_solves_without_recursion():
    # Every row has one admissible column and a higher threshold than the
    # row before, so no row is covered and the branch depth is m.
    m = 1500
    inst = Instance(
        A=tuple((1 - Fraction(i, 4 * m), 0) for i in range(1, m + 1)),
        b=(Fraction(3, 4),) * m,
    )
    report = solve(inst)
    assert report.selector_count == 1
    assert [c.point for c in report.minimal_solutions] == [(Fraction(1), Fraction(0))]


def test_objective_evaluated_once_per_minimal_point(golden):
    calls = []

    def counting(x):
        calls.append(x)
        return log_sum_exp(x)

    report = solve(golden, objective=counting)
    assert sorted(calls) == sorted(c.point for c in report.minimal_solutions)
    assert report.minimal_values == tuple(log_sum_exp(c.point) for c in report.minimal_solutions)
