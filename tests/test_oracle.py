"""The brute-force referee: grid soundness and agreement with the solver."""

import math
from fractions import Fraction

import pytest

from frisolve import (
    GridTooLargeError,
    Instance,
    InfeasibleSystemError,
    brute_force_minimal,
    brute_force_optimum,
    build_grid,
    enumerate_candidates,
    max_coordinate,
    solve,
    zeros,
)

from conftest import GOLDEN_MINIMAL, HAND_2X2, HAND_2X2_MINIMAL, random_instances


def test_every_candidate_lies_on_the_grid(golden):
    grid = build_grid(golden)
    for cand in enumerate_candidates(golden):
        for j, v in enumerate(cand.point):
            assert v in grid.coords[j]


def test_golden_minimal_set(golden):
    assert set(brute_force_minimal(golden)) == GOLDEN_MINIMAL


def test_hand_2x2_minimal_set():
    assert set(brute_force_minimal(HAND_2X2)) == HAND_2X2_MINIMAL


def test_golden_optimum(golden):
    point, value = brute_force_optimum(golden)
    assert value == pytest.approx(2.4434, abs=5e-4)
    report = solve(golden)
    assert value == report.optimal_value
    assert point == report.optimizer.point


def test_golden_max_objective_optimum(golden):
    point, value = brute_force_optimum(golden, max_coordinate)
    assert value == pytest.approx(0.9892, abs=1e-12)
    assert value == solve(golden, objective=max_coordinate).optimal_value


def test_infeasible_system_has_no_minimal_points():
    inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
    assert brute_force_minimal(inst) == []
    with pytest.raises(InfeasibleSystemError):
        brute_force_optimum(inst)


def test_zero_thresholds_optimize_to_the_bottom():
    inst = Instance(A=(("0.4", "0.9"), ("0.2", "0.3")), b=(0, 0))
    point, value = brute_force_optimum(inst)
    assert point == zeros(2)
    assert value == pytest.approx(math.log(2), abs=1e-12)
    assert brute_force_minimal(inst) == [zeros(2)]


def test_epsilon_grid_holds_the_true_minimum():
    inst = Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")
    assert Fraction("0.6") in build_grid(inst).coords[0]
    assert brute_force_minimal(inst) == [(Fraction("0.6"),)]
    assert [c.point for c in solve(inst).minimal_solutions] == brute_force_minimal(inst)


def test_grid_limit_is_enforced(golden):
    total = build_grid(golden).total_points
    with pytest.raises(GridTooLargeError) as err:
        brute_force_minimal(golden, limit=total - 1)
    assert err.value.total_points == total
    assert brute_force_minimal(golden, limit=total)  # boundary inclusive


def test_agreement_with_solver_on_random_instances():
    for inst, name in random_instances(12, base_seed=3030):
        report = solve(inst)
        oracle_minimal = brute_force_minimal(inst)
        assert sorted(c.point for c in report.minimal_solutions) == oracle_minimal, name
        _, oracle_value = brute_force_optimum(inst)
        assert oracle_value == report.optimal_value, name
