"""Candidates, selectors, pruning, and the box decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from frisolve import (
    CapExceededError,
    Instance,
    InfeasibleSystemError,
    Selector,
    candidate_from_selector,
    cell_decomposition,
    compute_index_sets,
    enumerate_candidates,
    is_member,
    ones,
    prune_to_minimal,
    row_minimal,
    search_candidates,
    selector_count,
)

from conftest import (
    GOLDEN_CANDIDATES,
    GOLDEN_MINIMAL,
    HAND_2X2,
    HAND_2X2_CANDIDATES,
    HAND_2X2_MINIMAL,
    F,
    fpoint,
    random_instances,
)
from test_core import small_instances


class TestRowMinimal:
    def test_golden_first_row(self, golden):
        # 1 + 0.7898 - 0.8147 through column 1
        p = row_minimal(golden, 0, 0)
        assert p == fpoint("0.9751", "0", "0", "0", "0", "0", "0")

    def test_golden_fourth_row_fifth_column(self, golden):
        # 1 + 0.7094 - 0.9339 through column 5
        p = row_minimal(golden, 3, 4)
        assert p[4] == F("0.7755")
        assert sum(p) == p[4]

    def test_grade_equal_to_threshold_needs_a_full_coordinate(self):
        inst = Instance(A=(("0.6", "0.2"),), b=("0.6",))
        assert row_minimal(inst, 0, 0)[0] == 1

    def test_inadmissible_column_rejected(self, golden):
        with pytest.raises(ValueError, match="not admissible"):
            row_minimal(golden, 0, 1)

    def test_epsilon_enters_the_threshold(self):
        # t = 1 + (0.6 - 0.1) - 0.9; the coordinate 0.7 would carry slack
        inst = Instance(A=(("0.9",),), b=("0.6",), epsilon="0.1")
        assert row_minimal(inst, 0, 0) == fpoint("0.6")

    def test_vacuous_row_rejected(self):
        inst = Instance(A=(("0.5",),), b=(0,))
        with pytest.raises(ValueError, match="vacuous"):
            row_minimal(inst, 0, 0)


class TestCandidates:
    def test_golden_candidates_with_selectors(self, golden):
        idx = compute_index_sets(golden)
        got = {
            tuple(c.selector.columns): c.point
            for c in enumerate_candidates(golden, idx)
        }
        assert got == GOLDEN_CANDIDATES

    def test_golden_enumeration_is_lexicographic(self, golden):
        keys = [c.selector.key for c in enumerate_candidates(golden)]
        assert keys == sorted(keys)
        assert len(keys) == selector_count(compute_index_sets(golden)) == 4

    def test_candidate_from_selector_matches_stream(self, golden):
        idx = compute_index_sets(golden)
        for cand in enumerate_candidates(golden, idx):
            rebuilt = candidate_from_selector(golden, idx, cand.selector)
            assert rebuilt.point == cand.point

    def test_invalid_selectors_rejected(self, golden):
        idx = compute_index_sets(golden)
        with pytest.raises(ValueError, match="not admissible"):
            candidate_from_selector(golden, idx, Selector(columns=(1, 1, 2, 3, 2)))
        with pytest.raises(ValueError, match="entries"):
            candidate_from_selector(golden, idx, Selector(columns=(0, 1, 2)))

    def test_hand_2x2_candidates(self):
        got = {
            tuple(c.selector.columns): c.point
            for c in enumerate_candidates(HAND_2X2)
        }
        assert got == HAND_2X2_CANDIDATES

    def test_single_row_candidate_is_the_row_minimal_point(self):
        inst = Instance(A=(("0.9", "0.7"),), b=("0.5",))
        idx = compute_index_sets(inst)
        cands = list(enumerate_candidates(inst, idx))
        assert [c.point for c in cands] == [
            row_minimal(inst, 0, 0),
            row_minimal(inst, 0, 1),
        ]

    def test_all_vacuous_rows_give_the_single_zero_candidate(self):
        inst = Instance(A=(("0.4", "0.9"),), b=(0,))
        cands = list(enumerate_candidates(inst))
        assert len(cands) == 1
        assert cands[0].point == fpoint("0", "0")
        assert cands[0].selector.columns == (None,)

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
        for cand in enumerate_candidates(inst, idx, cap=2000):
            assert is_member(inst, cand.point)


class TestSearch:
    def test_golden_leaves_and_nodes(self, golden):
        # rows 1, 3 and 5 have one column each, row 5 and row 2 are then
        # covered at x_3, and row 4 branches: 4 nodes, 2 leaves
        cands, leaves = search_candidates(golden, cap=4)
        assert leaves == 2
        assert {c.point for c in cands} == GOLDEN_MINIMAL
        for cand in cands:
            assert GOLDEN_CANDIDATES[cand.selector.columns] == cand.point
        with pytest.raises(CapExceededError) as err:
            search_candidates(golden, cap=3)
        assert err.value.count == 4
        assert err.value.cap == 3
        assert "exceeding the cap of 3" in str(err.value)

    def test_all_vacuous_rows_give_the_zero_leaf(self):
        inst = Instance(A=(("0.4", "0.9"),), b=(0,))
        cands, leaves = search_candidates(inst)
        assert leaves == 1
        assert cands[0].point == fpoint("0", "0")
        assert cands[0].selector.columns == (None,)

    def test_infeasible_system_raises(self):
        inst = Instance(A=(("0.3", "0.6"),), b=("0.7",))
        with pytest.raises(InfeasibleSystemError):
            search_candidates(inst)

    def test_covered_row_is_not_branched(self):
        # Rows 1 and 2 force [0.8, 0.7]; both columns of row 3 already meet
        # it there, so the search has one leaf, where the product has two.
        # Its canonical selector takes the smaller column for row 3.
        inst = Instance(
            A=(("0.8", "0.1"), ("0.2", "0.8"), ("0.8", "0.9")),
            b=("0.6", "0.5", "0.4"),
        )
        cands, leaves = search_candidates(inst)
        assert leaves == 1
        assert [c.point for c in cands] == [fpoint("0.8", "0.7")]
        assert cands[0].selector.columns == (0, 1, 0)

    @given(inst=small_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_leaf_is_feasible(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        cands, leaves = search_candidates(inst, idx)
        assert len(cands) <= leaves
        for cand in cands:
            assert is_member(inst, cand.point)


class TestPruning:
    def test_golden_minimal_set(self, golden):
        minimal = prune_to_minimal(enumerate_candidates(golden))
        assert {c.point for c in minimal} == GOLDEN_MINIMAL
        assert all(c.is_minimal for c in minimal)

    def test_hand_2x2_minimal_set(self):
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
        assert minimal[0].selector.columns == (0, 1, 0)

    @given(inst=small_instances())
    @settings(max_examples=50, deadline=None)
    def test_every_removed_candidate_is_dominated_by_a_survivor(self, inst):
        idx = compute_index_sets(inst)
        if not idx.feasible:
            return
        cands = list(enumerate_candidates(inst, idx, cap=2000))
        survivors = prune_to_minimal(cands)
        spoints = [c.point for c in survivors]
        for cand in cands:
            if cand.point in spoints:
                continue
            assert any(
                all(sj <= cj for sj, cj in zip(s, cand.point)) for s in spoints
            )

    def test_pruning_output_order_is_deterministic(self, golden):
        cands = list(enumerate_candidates(golden))
        shuffled = cands[:]
        random.Random(5).shuffle(shuffled)
        assert prune_to_minimal(cands) == prune_to_minimal(shuffled)


class TestCellDecomposition:
    def test_golden_cells(self, golden):
        minimal = prune_to_minimal(enumerate_candidates(golden))
        cells = cell_decomposition(minimal)
        assert len(cells) == 2
        assert all(hi == ones(7) for _, hi in cells)
        assert {lo for lo, _ in cells} == GOLDEN_MINIMAL

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            cell_decomposition([])

    def test_cells_cover_exactly_the_feasible_set(self):
        # Points inside some box must be members; points below every box
        # bottom must not be.
        rng = random.Random(99)
        for inst, _ in random_instances(6, base_seed=4200):
            minimal = prune_to_minimal(enumerate_candidates(inst))
            cells = cell_decomposition(minimal)
            lows = [lo for lo, _ in cells]
            for _ in range(40):
                x = tuple(Fraction(rng.randrange(0, 10001), 10000) for _ in range(inst.n))
                in_some_cell = any(
                    all(lj <= xj for lj, xj in zip(lo, x)) for lo in lows
                )
                assert in_some_cell == is_member(inst, x)
