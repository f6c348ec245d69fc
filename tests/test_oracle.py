"""The brute-force referee: grid soundness and agreement with the solver."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from frisolve import (
    GridTooLargeError,
    Instance,
    brute_force,
    compute_index_sets,
    coordinate_sum,
    enumerate_candidates,
    is_member,
    load_instance,
    log_sum_exp,
    max_coordinate,
    solve,
    zeros,
)

from frisolve.cli import main
from frisolve.oracle import _feasible_indices, build_grid, is_minimal_point

from conftest import (
    GOLDEN_CANDIDATES,
    GOLDEN_MINIMAL,
    HAND_2X2,
    HAND_2X2_MINIMAL,
    fraction_is_minimal_point,
    grid_coords,
    pairwise_minimal,
    random_instances,
    reference_grid,
)
from test_integer_paths import mixed_instances

INSTANCES = Path(__file__).resolve().parent / "instances"
EXPECTED = Path(__file__).resolve().parent / "expected"
OBJECTIVES = [log_sum_exp, max_coordinate, coordinate_sum]
SEVENTHS = (Fraction(0), Fraction(1, 100), Fraction(1, 7))


def test_every_candidate_lies_on_the_grid(golden):
    coords = grid_coords(build_grid(golden))
    for cand in enumerate_candidates(golden):
        for j, v in enumerate(cand.point):
            assert v in coords[j]


def test_golden_minimal_set(golden):
    minimal, _ = brute_force(golden)
    assert set(minimal) == GOLDEN_MINIMAL


def test_hand_2x2_minimal_set():
    minimal, _ = brute_force(HAND_2X2)
    assert set(minimal) == HAND_2X2_MINIMAL


def test_golden_optimum(golden):
    _, (point, value) = brute_force(golden)
    assert value == pytest.approx(2.4434, abs=5e-4)
    report = solve(golden)
    assert value == report.optimal_value
    assert point == report.optimizer.point


def test_golden_max_objective_optimum(golden):
    _, (point, value) = brute_force(golden, max_coordinate)
    assert value == pytest.approx(0.9892, abs=1e-12)
    assert value == solve(golden, objective=max_coordinate).optimal_value


def test_infeasible_system_has_no_minimal_points():
    inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
    assert brute_force(inst) == ([], None)


def test_zero_thresholds_optimize_to_the_bottom():
    inst = Instance(A=(("0.4", "0.9"), ("0.2", "0.3")), b=(0, 0))
    minimal, (point, value) = brute_force(inst)
    assert point == zeros(2)
    assert value == pytest.approx(math.log(2), abs=1e-12)
    assert minimal == [zeros(2)]


def test_epsilon_grid_holds_the_true_minimum():
    inst = Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")
    assert Fraction("0.6") in grid_coords(build_grid(inst))[0]
    minimal, _ = brute_force(inst)
    assert minimal == [(Fraction("0.6"),)]
    assert [c.point for c in solve(inst).minimal_solutions] == minimal


def test_grid_limit_is_enforced(golden):
    total = build_grid(golden).total_points
    with pytest.raises(GridTooLargeError) as err:
        brute_force(golden, limit=total - 1)
    assert err.value.total_points == total
    assert brute_force(golden, limit=total)[0]  # boundary inclusive


def test_agreement_with_solver_on_random_instances():
    for inst, name in random_instances(12, base_seed=3030):
        report = solve(inst)
        oracle_minimal, (_, oracle_value) = brute_force(inst)
        assert sorted(c.point for c in report.minimal_solutions) == oracle_minimal, name
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
        minimal = set(brute_force(inst)[0])
        for cand in enumerate_candidates(inst):
            assert is_minimal_point(inst, cand.point) == (cand.point in minimal), name


def test_verify_catches_a_threshold_mistake_shared_with_the_grid(tmp_path, capsys, monkeypatch):
    # The scaled threshold without epsilon moves the solver's point to 0.7.
    # The oracle places its grid by its own formula, so it still finds 0.6,
    # and the row inequality does not hold with equality at 0.7.
    def scaled_without_epsilon(inst, i, columns, scale):
        return [int(scale * (1 + inst.b[i] - inst.A[i][j])) for j in columns]

    monkeypatch.setattr("frisolve.structure._scaled_thresholds", scaled_without_epsilon)
    path = tmp_path / "eps.json"
    path.write_text('{"A": [[0.9]], "b": [0.6], "epsilon": 0.1}', encoding="utf-8")
    assert main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "not minimal by the row inequalities: x = [0.7000]" in out
    assert "minimal set: DISAGREE" in out
    minimal, _ = brute_force(Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1"))
    assert minimal == [(Fraction("0.6"),)]


@given(inst=mixed_instances(epsilons=SEVENTHS))
@settings(max_examples=150, deadline=None)
def test_minimal_set_matches_the_pairwise_scan(inst):
    # One pass answers both: the pairwise minimal set, and the least
    # (objective, point) over every grid point core.is_member accepts.
    members = [p for p in itertools.product(*reference_grid(inst)) if is_member(inst, p)]
    for objective in OBJECTIVES:
        minimal, optimum = brute_force(inst, objective)
        assert minimal == pairwise_minimal(inst)
        if members:
            value, point = min((objective(p), p) for p in members)
            assert optimum == (point, value)
        else:
            assert optimum is None


@given(inst=mixed_instances(epsilons=SEVENTHS))
@settings(max_examples=150, deadline=None)
def test_integer_grid_matches_the_threshold_formula(inst):
    grid = build_grid(inst)
    reference = reference_grid(inst)
    assert grid_coords(grid) == reference
    values = itertools.chain((inst.epsilon,), inst.b, *inst.A)
    assert grid.scale == math.lcm(*(v.denominator for v in values))
    assert grid.columns == tuple(tuple(v * grid.scale for v in c) for c in reference)
    assert all(type(k) is int for column in grid.columns for k in column)


@given(inst=mixed_instances(epsilons=SEVENTHS))
@settings(max_examples=150, deadline=None)
def test_integer_minimality_matches_the_fraction_definition(inst):
    assume(compute_index_sets(inst).feasible)
    seventh = Fraction(1, 7)
    for cand in enumerate_candidates(inst):
        x = cand.point
        shifted = [x, tuple(v + seventh for v in x), tuple(v - seventh for v in x)]
        for j in range(inst.n):
            for step in (seventh, -seventh):
                shifted.append(x[:j] + (x[j] + step,) + x[j + 1:])
        for point in shifted:
            assert is_minimal_point(inst, point) == fraction_is_minimal_point(inst, point)


@pytest.mark.parametrize("sevenths", [False, True])
def test_integer_membership_matches_is_member(golden, sevenths):
    inst = golden
    if sevenths:
        base, _ = load_instance(str(INSTANCES / "epsilon.json"))
        inst = Instance(A=base.A, b=base.b, epsilon=Fraction(1, 7))
    grid = build_grid(inst)
    coords = grid_coords(grid)
    expected = [
        idx
        for idx in itertools.product(*(range(len(c)) for c in coords))
        if is_member(inst, tuple(c[k] for c, k in zip(coords, idx)))
    ]
    assert expected  # both instances have feasible grid points
    assert _feasible_indices(inst, grid) == expected


def test_verify_on_a_grid_of_400_thousand_points(capsys):
    assert main(["verify", str(INSTANCES / "random_7x7_seed4.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle: 15 minimal point(s)" in out
    assert "verdict: agree" in out
    assert out == (EXPECTED / "verify_7x7_seed4.txt").read_text(encoding="utf-8")
