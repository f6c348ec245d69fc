"""Candidates, selectors, pruning, and the box decomposition."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import (
    DEFAULT_CAP,
    OBJECTIVES,
    CapExceededError,
    Instance,
    InfeasibleSystemError,
    compute_index_sets,
    enumerate_candidates,
    is_member,
    log_sum_exp,
    ones,
    selector_count,
    solve,
)
from frisolve.files import grade_number, render_report_json
from frisolve.objective import _scaled_table
from frisolve.solver import _coordinates, _minimal_key, _options, _walk

from conftest import (
    GOLDEN_CANDIDATES,
    GOLDEN_MINIMAL,
    HAND_2X2,
    HAND_2X2_CANDIDATES,
    HAND_2X2_MINIMAL,
    F,
    fpoint,
    prune_to_minimal,
    random_instances,
    reference_minimal_key,
    selector_key,
    walk_leaves,
)
from test_core import small_instances
from test_solver import positive_epsilons, with_epsilon


def single_row_points(row, b, epsilon=0):
    """The candidates of the one-row system (row, b): with one constraining
    row, each is the row's minimal point through one admissible column,
    its threshold there and 0 elsewhere."""
    inst = Instance(A=(tuple(row),), b=(b,), epsilon=epsilon)
    return [c.point for c in enumerate_candidates(inst)]


class TestRowMinimal:
    """The minimal point of a single row, through each admissible column."""

    def test_golden_first_row(self, golden):
        # 1 + 0.7898 - 0.8147 through column 1, the row's only admissible one
        assert single_row_points(golden.A[0], golden.b[0]) == [
            fpoint("0.9751", "0", "0", "0", "0", "0", "0")
        ]

    def test_golden_fourth_row_fifth_column(self, golden):
        # 1 + 0.7094 - 0.9339 through column 5 (and 1 + 0.7094 - 0.7922
        # through column 4)
        fourth, fifth = single_row_points(golden.A[3], golden.b[3])
        assert fourth == fpoint("0", "0", "0", "0.9172", "0", "0", "0")
        assert fifth[4] == F("0.7755")
        assert sum(fifth) == fifth[4]

    def test_grade_equal_to_threshold_needs_a_full_coordinate(self):
        assert single_row_points(("0.6", "0.2"), "0.6") == [fpoint("1", "0")]

    def test_epsilon_enters_the_threshold(self):
        # t = 1 + (0.6 - 0.1) - 0.9; the coordinate 0.7 would carry slack
        assert single_row_points(("0.9",), "0.6", "0.1") == [fpoint("0.6")]


class TestCandidates:
    def test_golden_candidates_with_selectors(self, golden):
        got = {c.selector: c.point for c in enumerate_candidates(golden)}
        assert got == GOLDEN_CANDIDATES

    def test_golden_enumeration_is_lexicographic(self, golden):
        keys = [selector_key(c.selector) for c in enumerate_candidates(golden)]
        assert keys == sorted(keys)
        assert len(keys) == selector_count(compute_index_sets(golden)) == 4

    def test_hand_2x2_candidates(self):
        got = {c.selector: c.point for c in enumerate_candidates(HAND_2X2)}
        assert got == HAND_2X2_CANDIDATES

    def test_single_row_candidate_is_the_row_minimal_point(self):
        # t = 1 + 0.5 - 0.9 through column 1, 1 + 0.5 - 0.7 through column 2
        assert single_row_points(("0.9", "0.7"), "0.5") == [
            fpoint("0.6", "0"),
            fpoint("0", "0.8"),
        ]

    def test_all_vacuous_rows_give_the_single_zero_candidate(self):
        inst = Instance(A=(("0.4", "0.9"),), b=(0,))
        cands = list(enumerate_candidates(inst))
        assert len(cands) == 1
        assert cands[0].point == fpoint("0", "0")
        assert cands[0].selector == (None,)

    def test_infeasible_system_raises(self):
        inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
        with pytest.raises(InfeasibleSystemError):
            list(enumerate_candidates(inst))

    def test_cap_reports_the_exact_product(self, golden):
        with pytest.raises(CapExceededError) as err:
            enumerate_candidates(golden, cap=3)
        assert err.value.count == 4
        assert err.value.cap == 3

    def test_cap_boundary_is_inclusive(self, golden):
        assert len(list(enumerate_candidates(golden, cap=4))) == 4

    @given(inst=small_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_candidate_is_feasible(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        for cand in enumerate_candidates(inst, cap=2000):
            assert is_member(inst, cand.point)


class TestSearch:
    def test_golden_leaves_and_nodes(self, golden):
        # rows 1, 3 and 5 have one column each, row 5 and row 2 are then
        # covered at x_3, and row 4 branches: 4 nodes, 2 leaves
        report = solve(golden, cap=4)
        assert report.candidates_enumerated == len(set(walk_leaves(golden))) == 2
        minimal = report.minimal_solutions
        assert len(minimal) == 2
        assert {c.point for c in minimal} == GOLDEN_MINIMAL
        for cand in minimal:
            assert GOLDEN_CANDIDATES[cand.selector] == cand.point
        with pytest.raises(CapExceededError) as err:
            solve(golden, cap=3)
        assert err.value.count == 4
        assert err.value.cap == 3
        assert "exceeding the cap of 3" in str(err.value)

    def test_all_vacuous_rows_give_the_zero_leaf(self):
        inst = Instance(A=(("0.4", "0.9"),), b=(0,))
        report = solve(inst)
        assert report.candidates_enumerated == 1
        assert walk_leaves(inst) == [fpoint("0", "0")]
        [cand] = report.minimal_solutions
        assert cand.point == fpoint("0", "0")
        assert cand.selector == (None,)

    def test_covered_row_is_not_branched(self):
        # Rows 1 and 2 force [0.8, 0.7]; both columns of row 3 already meet
        # it there, so the search has one leaf, where the product has two.
        # Its canonical selector takes the smaller column for row 3.
        inst = Instance(
            A=(("0.8", "0.1"), ("0.2", "0.8"), ("0.8", "0.9")),
            b=("0.6", "0.5", "0.4"),
        )
        report = solve(inst)
        assert report.candidates_enumerated == 1
        minimal = report.minimal_solutions
        assert [c.point for c in minimal] == [fpoint("0.8", "0.7")]
        assert minimal[0].selector == (0, 1, 0)

    @given(inst=small_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_leaf_is_feasible(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        leaves = walk_leaves(inst)
        assert len(set(leaves)) <= len(leaves) == solve(inst).candidates_enumerated
        for leaf in leaves:
            assert is_member(inst, leaf)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @given(inst=with_epsilon(st.one_of(st.just(Fraction(0)), positive_epsilons)))
    @settings(max_examples=100, deadline=None)
    def test_bound_walk_yields_leaf_values_that_never_increase(self, name, inst):
        # A leaf is yielded only at or below the least value reached so
        # far, so solve_unpruned never meets a leaf worse than its best
        # minimal one and needs no skip by value before the row test.
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        options = _options(inst, idx)
        bound = _scaled_table(OBJECTIVES[name], inst._D, _coordinates(options))
        values = [value for _, value in _walk(inst.n, options, DEFAULT_CAP, bound)]
        assert values == sorted(values, reverse=True)

    @given(inst=with_epsilon(st.one_of(st.just(Fraction(0)), positive_epsilons)))
    @settings(max_examples=150, deadline=None)
    def test_row_test_matches_the_list_based_reference(self, inst):
        # The row scan that stops at a row's second meeting column, and the
        # column check that stops at the first column tight for no row,
        # give the key and the verdict of the scan that lists every column.
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        options = _options(inst, idx)
        for leaf, _ in dict.fromkeys(_walk(inst.n, options, DEFAULT_CAP)):
            assert _minimal_key(leaf, options) == reference_minimal_key(leaf, options)


class TestPruning:
    def test_golden_minimal_set(self, golden):
        assert {c.point for c in solve(golden).minimal_solutions} == GOLDEN_MINIMAL
        minimal = prune_to_minimal(enumerate_candidates(golden))
        assert {c.point for c in minimal} == GOLDEN_MINIMAL

    def test_hand_2x2_minimal_set(self):
        assert {c.point for c in solve(HAND_2X2).minimal_solutions} == HAND_2X2_MINIMAL
        minimal = prune_to_minimal(enumerate_candidates(HAND_2X2))
        assert {c.point for c in minimal} == HAND_2X2_MINIMAL

    def test_singleton_unchanged(self, golden):
        cands = list(enumerate_candidates(golden))
        assert [c.point for c in prune_to_minimal(cands[:1])] == [cands[0].point]

    def test_duplicate_points_collapse_to_smallest_selector(self):
        # Rows 1 and 2 force [0.8, 0.7]; row 3's two admissible columns
        # contribute 0.6 or 0.5, absorbed either way: equal points.
        inst = Instance(
            A=(("0.8", "0.1"), ("0.2", "0.8"), ("0.8", "0.9")),
            b=("0.6", "0.5", "0.4"),
        )
        cands = list(enumerate_candidates(inst))
        assert len(cands) == 2
        assert cands[0].point == cands[1].point == fpoint("0.8", "0.7")
        minimal = prune_to_minimal(cands)
        assert len(minimal) == 1
        assert minimal[0].selector == (0, 1, 0)

    @given(inst=small_instances())
    @settings(max_examples=50, deadline=None)
    def test_every_removed_candidate_is_dominated_by_a_survivor(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        cands = list(enumerate_candidates(inst, cap=2000))
        survivors = prune_to_minimal(cands)
        spoints = [c.point for c in survivors]
        for cand in cands:
            if cand.point in spoints:
                continue
            assert any(
                all(sj <= cj for sj, cj in zip(s, cand.point)) for s in spoints
            )

    @given(inst=with_epsilon(st.one_of(st.just(Fraction(0)), positive_epsilons)))
    @settings(max_examples=100, deadline=None)
    def test_search_prune_keeps_exactly_the_undominated_leaves(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        leaves = walk_leaves(inst)
        report = solve(inst)
        minimal = report.minimal_solutions
        # Each minimal point is a leaf, and solve rated each on its own
        # leaf's scaled coordinates.
        assert {c.point for c in minimal} <= set(leaves)
        assert report.minimal_values == tuple(log_sum_exp(c.point) for c in minimal)

        def below(p, q):
            return p != q and all(pj <= qj for pj, qj in zip(p, q))

        assert [c.point for c in minimal] == [
            c.point for c in sorted(minimal, key=lambda c: selector_key(c.selector))
        ]
        assert len({c.point for c in minimal}) == len(minimal)
        assert {c.point for c in minimal} == {
            q for q in leaves if not any(below(p, q) for p in leaves)
        }

    def test_pruning_output_order_is_deterministic(self, golden):
        cands = list(enumerate_candidates(golden))
        shuffled = cands[:]
        random.Random(5).shuffle(shuffled)
        assert prune_to_minimal(cands) == prune_to_minimal(shuffled)


class TestCellDecomposition:
    """The cells are the boxes [x, ones] over the minimal solutions x; the
    structured report renders one per minimal solution, in order."""

    def test_golden_cells(self, golden):
        report = solve(golden)
        assert {c.point for c in report.minimal_solutions} == GOLDEN_MINIMAL
        cells = json.loads(render_report_json(report))["cells"]
        assert len(cells) == 2
        assert [cell["lower"] for cell in cells] == [
            [grade_number(v) for v in c.point] for c in report.minimal_solutions
        ]
        assert all(cell["upper"] == [grade_number(v) for v in ones(7)] for cell in cells)

    def test_cells_cover_exactly_the_feasible_set(self):
        # Points inside some box must be members; points below every box
        # bottom must not be.
        rng = random.Random(99)
        for inst, _ in random_instances(6, base_seed=4200):
            report = solve(inst)
            lows = [c.point for c in report.minimal_solutions]
            cells = json.loads(render_report_json(report))["cells"]
            assert [cell["lower"] for cell in cells] == [
                [grade_number(v) for v in lo] for lo in lows
            ]
            for _ in range(40):
                x = tuple(Fraction(rng.randrange(0, 10001), 10000) for _ in range(inst.n))
                in_some_cell = any(
                    all(lj <= xj for lj, xj in zip(lo, x)) for lo in lows
                )
                assert in_some_cell == is_member(inst, x)
