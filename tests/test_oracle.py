"""The brute-force referee: grid soundness and agreement with the solver."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from frisolve import (
    GridTooLargeError,
    Instance,
    InfeasibleSystemError,
    brute_force_minimal,
    brute_force_optimum,
    build_grid,
    enumerate_candidates,
    is_member,
    load_instance,
    max_coordinate,
    solve,
    zeros,
)

from frisolve.cli import main
from frisolve.oracle import _feasible_indices, is_minimal_point

from conftest import GOLDEN_CANDIDATES, GOLDEN_MINIMAL, HAND_2X2, HAND_2X2_MINIMAL, random_instances
from test_integer_paths import mixed_instances

INSTANCES = Path(__file__).resolve().parent / "instances"


def pairwise_minimal(inst):
    """The reference: every feasible grid point, by core.is_member, that no
    other feasible grid point sits weakly below."""
    members = [p for p in itertools.product(*build_grid(inst).coords) if is_member(inst, p)]
    return sorted(
        p for p in members
        if not any(q != p and all(qj <= pj for qj, pj in zip(q, p)) for q in members)
    )


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


def test_minimality_predicate_on_the_golden_candidates(golden):
    for point in GOLDEN_CANDIDATES.values():
        assert is_minimal_point(golden, point) == (point in GOLDEN_MINIMAL)


def test_minimality_predicate_rejects_slack_and_non_members():
    inst = Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")
    assert is_minimal_point(inst, (Fraction("0.6"),))
    assert not is_minimal_point(inst, (Fraction("0.7"),))  # slack above the threshold
    assert not is_minimal_point(inst, (Fraction("0.5"),))  # not a member
    assert not is_member(inst, (Fraction("0.5"),))


def test_minimality_predicate_agrees_with_the_oracle_on_random_instances():
    for inst, name in random_instances(12, base_seed=4040):
        minimal = set(brute_force_minimal(inst))
        for cand in enumerate_candidates(inst):
            assert is_minimal_point(inst, cand.point) == (cand.point in minimal), name


def test_verify_catches_a_threshold_mistake_shared_with_the_grid(tmp_path, capsys, monkeypatch):
    # The threshold without epsilon moves the solver's point and the grid
    # alike, to 0.7, so the two sets still agree; the row inequality does
    # not hold with equality there.
    def old_threshold(inst, i, j):
        return 1 + inst.b[i] - inst.A[i][j]

    monkeypatch.setattr("frisolve.structure.coordinate_threshold", old_threshold)
    monkeypatch.setattr("frisolve.oracle.coordinate_threshold", old_threshold)
    path = tmp_path / "eps.json"
    path.write_text('{"A": [[0.9]], "b": [0.6], "epsilon": 0.1}', encoding="utf-8")
    assert main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "not minimal by the row inequalities: x = [0.7000]" in out
    assert "minimal set: DISAGREE" in out
    assert brute_force_minimal(Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")) == [
        (Fraction("0.7"),)
    ]


@given(inst=mixed_instances(epsilons=(Fraction(0), Fraction(1, 100), Fraction(1, 7))))
@settings(max_examples=150, deadline=None)
def test_minimal_set_matches_the_pairwise_scan(inst):
    assert brute_force_minimal(inst) == pairwise_minimal(inst)


@pytest.mark.parametrize("sevenths", [False, True])
def test_integer_membership_matches_is_member(golden, sevenths):
    inst = golden
    if sevenths:
        base, _ = load_instance(str(INSTANCES / "epsilon.json"))
        inst = Instance(A=base.A, b=base.b, epsilon=Fraction(1, 7))
    grid = build_grid(inst)
    expected = [
        idx
        for idx in itertools.product(*(range(len(c)) for c in grid.coords))
        if is_member(inst, tuple(c[k] for c, k in zip(grid.coords, idx)))
    ]
    assert expected  # both instances have feasible grid points
    assert _feasible_indices(inst, grid) == expected


def test_verify_on_a_grid_of_400_thousand_points(capsys):
    assert main(["verify", str(INSTANCES / "random_7x7_seed4.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle: 15 minimal point(s)" in out
    assert "verdict: agree" in out
