"""End-to-end resolution: feasibility gate, covered-row search, pruning,
and objective comparison.

Both entry points gate on the index sets: the system is feasible iff
every J(i) is non-empty (IndexSets.feasible), and an infeasible system
gets a report that carries only its index sets.

Why a finite scan gives the global optimum over an uncountable region: the
feasible set is a finite union of boxes [x(e), ones], the objective is
monotone nondecreasing, so on each box the objective's minimum sits at the
bottom corner x(e), and the global minimum is the best bottom corner, a
minimal solution.

solve finds the minimal solutions by the covered-row search
(structure.search_leaves), keeps the leaves that pass the row test on
their integer ranks (structure.prune_leaves): each nonzero x_j is the only
column meeting some row, at its threshold. Every leaf is feasible and
every minimal solution is a leaf, so these are exactly the minimal
solutions; solve minimizes the objective over them, evaluating a built-in
objective on one float per threshold rank and any other on the exact
points (structure._ranked_objective). solve_unpruned walks
the same search with the objective as a lower bound
(structure.search_optimum) and applies the same row test to its leaves:
subtrees that cannot beat the best leaf so far are cut, no minimal set is
built, and the optimizer it returns is solve's for every monotone
objective. The cap bounds the search nodes of either.

Neither builds the box decomposition: the cells [x, ones] are a view of
the minimal set, derived from minimal_solutions where the report is
written (files.render_report_json).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import Instance
from .feasibility import IndexSets, compute_index_sets
from .objective import Objective, log_sum_exp
from .structure import (
    DEFAULT_CAP,
    Candidate,
    _check_cap,
    _ranked_objective,
    prune_leaves,
    search_leaves,
    search_optimum,
    selector_count,
)


@dataclass(frozen=True)
class SolveReport:
    """Everything the resolution produced.

    index_sets carries the feasibility verdict: index_sets.feasible, and
    index_sets.empty_rows naming the rows with an empty J(i). For an
    infeasible system nothing else is populated: selector_count is None
    and optimizer/optimal_value stay None. Otherwise selector_count is
    |E|; candidates_enumerated counts the search leaves reached,
    duplicates included (for solve_unpruned, those the bound did not cut).
    minimal_values holds the objective value of each minimal solution, in
    the same order. solve_unpruned leaves minimal_solutions and
    minimal_values empty even when an optimizer is found, since it never
    builds the minimal set. The report holds no
    cells: files.render_report_json derives one box [x, ones] per
    minimal solution x as it writes the report.
    """

    index_sets: IndexSets
    selector_count: int | None
    candidates_enumerated: int
    minimal_solutions: tuple[Candidate, ...]
    minimal_values: tuple[float, ...]
    optimizer: Candidate | None
    optimal_value: float | None
    timing: dict[str, float] = field(default_factory=dict)


def _infeasible_report(idx: IndexSets, t0: float) -> SolveReport:
    return SolveReport(
        index_sets=idx,
        selector_count=None,
        candidates_enumerated=0,
        minimal_solutions=(),
        minimal_values=(),
        optimizer=None,
        optimal_value=None,
        timing={"total": time.perf_counter() - t0},
    )


def solve(
    inst: Instance,
    objective: Objective = log_sum_exp,
    cap: int = DEFAULT_CAP,
) -> SolveReport:
    """Full resolution: decide feasibility, search the candidates that can
    be minimal, keep those that pass the row test (the exact
    minimal-solution set), and minimize the objective over it.

    The returned optimizer is the global minimum of the objective over the
    entire feasible region, provided the objective is monotone
    nondecreasing under the componentwise order. Ties between minimal
    solutions break toward the smaller objective value, then the
    lexicographically smallest selector. The objective is evaluated once
    per minimal solution.

    ``cap`` bounds the search nodes; past it the search raises
    CapExceededError. A cap that is not an integer of at least 1 raises
    ValueError.
    """
    _check_cap(cap)
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    t_idx = time.perf_counter()
    if not idx.feasible:
        return _infeasible_report(idx, t0)

    found = search_leaves(inst, idx, cap)
    t_search = time.perf_counter()
    pruned = prune_leaves(found)
    minimal = tuple(c for _, c in pruned)
    t_prune = time.perf_counter()
    rated = _ranked_objective(objective, found.scale, found.thresholds)
    values = tuple(rated(leaf) for leaf, _ in pruned)
    # minimal is in canonical selector order, and distinct minimal points
    # have distinct canonical selectors, so the first least value is the
    # least (value, selector key).
    value = min(values)
    optimizer = minimal[values.index(value)]
    t_end = time.perf_counter()

    return SolveReport(
        index_sets=idx,
        selector_count=selector_count(idx),
        candidates_enumerated=found.reached,
        minimal_solutions=minimal,
        minimal_values=values,
        optimizer=optimizer,
        optimal_value=value,
        timing={
            "index_sets": t_idx - t0,
            "candidates": t_search - t_idx,
            "prune": t_prune - t_search,
            "select": t_end - t_prune,
            "total": t_end - t0,
        },
    )


def solve_unpruned(
    inst: Instance,
    objective: Objective = log_sum_exp,
    cap: int = DEFAULT_CAP,
) -> SolveReport:
    """Resolution without the minimal-solution set: a bound-pruned
    covered-row search for the optimizer alone.

    The objective is evaluated once per search node, on the partial
    point; a subtree whose value is strictly greater than the best leaf
    value so far is cut. The optimizer, its selector and optimal_value
    equal solve's for every monotone objective; the report just carries
    no minimal-solution set. ``cap`` is solve's.
    """
    _check_cap(cap)
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    t_idx = time.perf_counter()
    if not idx.feasible:
        return _infeasible_report(idx, t0)

    optimizer, value, leaves = search_optimum(inst, objective, idx, cap)
    t_end = time.perf_counter()

    return SolveReport(
        index_sets=idx,
        selector_count=selector_count(idx),
        candidates_enumerated=leaves,
        minimal_solutions=(),
        minimal_values=(),
        optimizer=optimizer,
        optimal_value=value,
        timing={
            "index_sets": t_idx - t0,
            "candidates": t_end - t_idx,
            "total": t_end - t0,
        },
    )
