"""The brute-force referee: grid soundness and agreement with the solver."""

import dataclasses
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

from frisolve import oracle
from frisolve.cli import main
from frisolve.objective import _scaled_table
from frisolve.oracle import _feasible_members, _strides, build_grid, is_minimal_point
from frisolve.solver import Candidate, _options as scaled_options

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
    threshold_grid,
)
from test_integer_paths import mixed_instances

INSTANCES = Path(__file__).resolve().parent / "instances"
EXPECTED = Path(__file__).resolve().parent / "expected"
OBJECTIVES = [log_sum_exp, max_coordinate, coordinate_sum]
SEVENTHS = (Fraction(0), Fraction(1, 100), Fraction(1, 7))


def test_every_candidate_lies_on_the_grid(golden):
    coords = grid_coords(golden, build_grid(golden))
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
    assert Fraction("0.6") in grid_coords(inst, build_grid(inst))[0]
    minimal, _ = brute_force(inst)
    assert minimal == [(Fraction("0.6"),)]
    assert [c.point for c in solve(inst).minimal_solutions] == minimal


# x_j = 1 is minimal where a_ij = b_i - epsilon, the top value of column j.
# One step above it in column j would, without a spare digit per column,
# carry into column j - 1 and land on the member with the next x_(j-1) and
# x_j = 0, which is minimal too.
@pytest.mark.parametrize(
    "inst",
    [
        Instance(A=(("0.9", "0.6"),), b=("0.6",)),
        Instance(A=(("0.9", "0.6", "0.8"), ("0.5", "0.7", "0.7")), b=("0.6", "0.7")),
        Instance(A=(("0.8", "0.6"),), b=("0.7",), epsilon="0.1"),
    ],
)
def test_a_step_above_a_columns_top_value_lands_on_no_member(inst):
    minimal, _ = brute_force(inst)
    assert minimal == pairwise_minimal(inst)
    assert any(1 in x for x in minimal)


@pytest.mark.parametrize("source", ["golden", "hand", "epsilon"])
def test_a_constant_objective_picks_the_coordinatewise_smallest_member(golden, source):
    inst = {
        "golden": golden,
        "hand": HAND_2X2,
        "epsilon": Instance(A=(("0.9", "0.6"), ("0.5", "0.8")), b=("0.6", "0.7"), epsilon="0.1"),
    }[source]
    members = [p for p in itertools.product(*threshold_grid(inst)) if is_member(inst, p)]
    seen = []

    def constant(x):
        seen.append(x)
        return 0.0

    _, optimum = brute_force(inst, constant)
    # The least member of the grid with 1 in every column is on the oracle's grid.
    wider = next(p for p in itertools.product(*reference_grid(inst)) if is_member(inst, p))
    assert optimum == (wider, 0.0)
    # Any other objective receives every feasible point of the oracle's
    # grid exactly, in coordinate order.
    assert seen == members


def test_grid_limit_is_enforced(golden):
    total = build_grid(golden).total_points
    with pytest.raises(GridTooLargeError) as err:
        brute_force(golden, limit=total - 1)
    assert err.value.total_points == total
    assert brute_force(golden, limit=total)[0]  # boundary inclusive


@pytest.mark.parametrize("limit", [True, 0, 1.5, -3, None, "10"])
def test_limit_that_is_not_a_positive_integer_is_rejected(golden, limit, monkeypatch):
    # Rejected before the grid is built, in the words solve uses for its cap;
    # bool is an int subclass, but True is no limit of 1.
    def unreachable(inst):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(oracle, "build_grid", unreachable)
    with pytest.raises(ValueError) as err:
        brute_force(golden, limit=limit)
    assert str(err.value) == f"limit must be an integer >= 1, got {limit!r}"
    with pytest.raises(ValueError) as cap_err:
        solve(golden, cap=limit)
    assert str(cap_err.value) == f"cap must be an integer >= 1, got {limit!r}"


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


# Unchecked, (0.7,) would pass as minimal, meeting the row alone and with
# equality, and the third coordinate of (0, 1, 1) would index past the row.
@pytest.mark.parametrize("x", [(Fraction("0.7"),), (Fraction(0), Fraction(1), Fraction(1))])
def test_minimality_predicate_rejects_a_point_of_the_wrong_length(x):
    inst = Instance(A=(("0.9", "0.6"),), b=("0.6",))
    with pytest.raises(ValueError, match=f"^x has {len(x)} coordinates, expected 2$"):
        is_minimal_point(inst, x)


def test_minimality_predicate_agrees_with_the_oracle_on_random_instances():
    for inst, name in random_instances(12, base_seed=4040):
        minimal = set(brute_force(inst)[0])
        for cand in enumerate_candidates(inst):
            assert is_minimal_point(inst, cand.point) == (cand.point in minimal), name


def test_verify_catches_a_threshold_mistake_shared_with_the_grid(tmp_path, capsys, monkeypatch):
    # The scaled threshold without epsilon moves the solver's point to 0.7.
    # The oracle places its grid by its own formula, so it still finds 0.6,
    # and the row inequality does not hold with equality at 0.7.
    def options_without_epsilon(inst, idx):
        return scaled_options(dataclasses.replace(inst, epsilon=0), idx)

    monkeypatch.setattr("frisolve.solver._options", options_without_epsilon)
    path = tmp_path / "eps.json"
    path.write_text('{"A": [[0.9]], "b": [0.6], "epsilon": 0.1}', encoding="utf-8")
    assert main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "not minimal by the row inequalities: x = [0.7000]" in out
    assert "minimal set: DISAGREE" in out
    minimal, _ = brute_force(Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1"))
    assert minimal == [(Fraction("0.6"),)]


@pytest.mark.pinned
def test_verify_catches_a_row_test_mistake(capsys, monkeypatch):
    # A row test that keys every leaf keeps non-minimal leaves. The oracle
    # takes its minimal points from the grid's order and checks each
    # reported point by the row inequality, so it sees the extra points.
    def key_every_leaf(leaf, options):
        return tuple(next(c for c, t in row if leaf[c] >= t) for row in options.values())

    monkeypatch.setattr("frisolve.solver._minimal_key", key_every_leaf)
    assert main(["verify", str(INSTANCES / "random_7x7_seed4.json")]) == 4
    out = capsys.readouterr().out
    assert "not minimal by the row inequalities" in out
    assert "minimal set: DISAGREE" in out
    # The whole report, the points printed from the solver's integers,
    # byte for byte.
    assert out == (EXPECTED / "verify_7x7_seed4_row_test_mistake.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["random_7x7_seed4.json", "epsilon.json", "infeasible.json"])
def test_verify_builds_no_fraction_view_of_the_instance(capsys, monkeypatch, name):
    # The oracle and the solver both read the instance's integers, so the
    # Fractions A and b of a file-read instance are never built.
    loaded = []

    def load(path):
        inst, instance_name = load_instance(path)
        loaded.append(inst)
        return inst, instance_name

    monkeypatch.setattr("frisolve.cli.load_instance", load)
    assert main(["verify", str(INSTANCES / name)]) == 0
    (inst,) = loaded
    assert "A" not in vars(inst) and "b" not in vars(inst)


@pytest.mark.parametrize("name", ["random_7x7_seed4.json", "epsilon.json"])
def test_verify_builds_no_fraction_and_no_candidate_after_load(capsys, monkeypatch, name):
    # The oracle answers in integers over D and verify reads the report's
    # integers, so from the grid to the verdict neither side builds a
    # Fraction or a Candidate. Reading the report's Candidates then builds
    # both, which shows that the counters see the builds.
    built = {"Fraction": 0, "Candidate": 0}
    new, init = Fraction.__new__, Candidate.__init__
    reports = []

    def counted_new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        built["Candidate"] += 1
        init(self, *args, **kwargs)

    def load(path):
        loaded = load_instance(path)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        monkeypatch.setattr(Candidate, "__init__", counted_init)
        return loaded

    def kept_solve(*args):
        reports.append(solve(*args))
        return reports[-1]

    monkeypatch.setattr("frisolve.cli.load_instance", load)
    monkeypatch.setattr("frisolve.cli.solve", kept_solve)
    assert main(["verify", str(INSTANCES / name)]) == 0
    assert "verdict: agree" in capsys.readouterr().out
    assert built == {"Fraction": 0, "Candidate": 0}
    (report,) = reports
    assert report.minimal_solutions
    assert built["Fraction"] > 0 and built["Candidate"] > 0


# x_1 = 7/10 meets the row with equality, alone. The float 0.7 lies just
# below 7/10 and meets no row.
@pytest.mark.parametrize(
    "x, minimal", [((0.7, 0), False), (("0.7", "0"), True), ((1, 0.0), False)]
)
def test_minimality_predicate_reads_any_grade(x, minimal):
    # Each coordinate goes through as_point, the one grade rule: a float is
    # its exact binary value, a string its printed value.
    inst = Instance(A=(("0.9", "0.6"),), b=("0.6",))
    assert is_minimal_point(inst, x) is minimal
    assert is_minimal_point(inst, tuple(Fraction(v) for v in x)) is minimal


@pytest.mark.parametrize(
    "x, message",
    [
        ((True, 0), "x[1] is not a number: True"),
        ((), "x must have at least one coordinate"),
        (("1.5", 0), "x[1] out of [0,1]: 1.5"),
        ((0, -1), "x[2] out of [0,1]: -1"),
    ],
)
def test_minimality_predicate_rejects_what_as_point_rejects(x, message):
    inst = Instance(A=(("0.9", "0.6"),), b=("0.6",))
    with pytest.raises(ValueError) as err:
        is_minimal_point(inst, x)
    assert str(err.value) == message


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
    reference = threshold_grid(inst)
    assert grid_coords(inst, grid) == reference
    values = itertools.chain((inst.epsilon,), inst.b, *inst.A)
    assert inst._D == math.lcm(*(v.denominator for v in values))
    assert grid.columns == tuple(tuple(v * inst._D for v in c) for c in reference)
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
            if all(0 <= v <= 1 for v in point):
                assert is_minimal_point(inst, point) == fraction_is_minimal_point(inst, point)
            else:
                # A shift out of the unit cube is no point, by as_point's rule.
                with pytest.raises(ValueError, match=r"^x\[\d+\] out of \[0,1\]: "):
                    is_minimal_point(inst, point)


def decode(grid, code):
    """The index tuple of a grid point's code: one digit per column, of
    radix one more than the column's number of values, the first column
    most significant."""
    idx = []
    for column in reversed(grid.columns):
        code, k = divmod(code, len(column) + 1)
        idx.append(k)
    assert code == 0
    return tuple(reversed(idx))


@pytest.mark.parametrize("sevenths", [False, True])
def test_integer_membership_matches_is_member(golden, sevenths):
    inst = golden
    if sevenths:
        base, _ = load_instance(str(INSTANCES / "epsilon.json"))
        inst = Instance(A=base.A, b=base.b, epsilon=Fraction(1, 7))
    grid = build_grid(inst)
    coords = grid_coords(inst, grid)
    expected = [
        idx
        for idx in itertools.product(*(range(len(c)) for c in coords))
        if is_member(inst, tuple(c[k] for c, k in zip(coords, idx)))
    ]
    assert expected  # both instances have feasible grid points
    table, _ = _scaled_table(log_sum_exp, inst._D, {v for column in grid.columns for v in column})
    codes, floats = _feasible_members(inst, grid, _strides(grid), table)
    assert [decode(grid, code) for code in codes] == expected
    assert floats == [tuple(float(c[k]) for c, k in zip(coords, idx)) for idx in expected]


@pytest.mark.pinned
def test_verify_on_a_grid_of_115_thousand_points(capsys):
    assert main(["verify", str(INSTANCES / "random_7x7_seed4.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle: 15 minimal point(s)" in out
    assert "verdict: agree" in out
    assert out == (EXPECTED / "verify_7x7_seed4.txt").read_text(encoding="utf-8")


# The 7x7 grid holds 0 and the thresholds per column: 115,200 points. With
# 1 in every column as well it would hold 396,900.
@pytest.mark.pinned
def test_verify_admits_the_7x7_grid_under_a_limit_of_200_thousand(capsys):
    argv = ["verify", str(INSTANCES / "random_7x7_seed4.json"), "--limit", "200000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (EXPECTED / "verify_7x7_seed4.txt").read_text(encoding="utf-8")


@pytest.mark.pinned
def test_verify_refuses_the_7x7_grid_over_a_limit_of_100_thousand(capsys):
    argv = ["verify", str(INSTANCES / "random_7x7_seed4.json"), "--limit", "100000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "instance: random-7x7-seed4-feasible (m=7, n=7)\n"
    assert captured.err == (
        "frisolve: error: lattice grid has 115200 points, exceeding the limit of 100000\n"
    )
