"""End-to-end resolution: feasibility gate, covered-row search, pruning,
and objective comparison.

Why a finite scan gives the global optimum over an uncountable region: the
feasible set is a finite union of boxes [x(e), ones], the objective is
monotone nondecreasing, so on each box the objective's minimum sits at the
bottom corner x(e), and the global minimum is the best bottom corner. The
minimal solutions are a subset of the candidates containing all best
corners, which is why solve_unpruned may skip the pruning pass entirely
without changing the optimal value.

solve finds the minimal solutions by the covered-row search
(structure.search_candidates), whose work follows its search tree;
solve_unpruned streams every candidate of the selector product E, as the
paper's algorithm does. The cap bounds what each one walks: search nodes
for solve, |E| for solve_unpruned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .core import Instance, Point
from .feasibility import (
    FeasibilityVerdict,
    IndexSets,
    check_feasibility,
    compute_index_sets,
)
from .objective import Objective, log_sum_exp
from .structure import (
    DEFAULT_CAP,
    Candidate,
    cell_decomposition,
    enumerate_candidates,
    prune_to_minimal,
    search_candidates,
    selector_count,
)


@dataclass(frozen=True)
class SolverOptions:
    """Resolution knobs.

    cap bounds the work of one resolution (None disables the bound): the
    search nodes of solve, one per column assignment tried, and the
    selector count |E| of solve_unpruned.
    """

    cap: int | None = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.cap is not None and self.cap < 1:
            raise ValueError(f"cap must be >= 1 or None, got {self.cap}")


@dataclass(frozen=True)
class SolveReport:
    """Everything the resolution produced.

    For an infeasible system only verdict and index_sets are populated;
    selector_count is None and optimizer/optimal_value stay None.
    selector_count is |E| either way; candidates_enumerated counts the
    search leaves for solve and the selectors for solve_unpruned.
    minimal_values holds the objective value of each minimal solution, in
    the same order. solve_unpruned leaves minimal_solutions,
    minimal_values and cells empty even when an optimizer is found, since
    it never classifies candidates.
    """

    verdict: FeasibilityVerdict
    index_sets: IndexSets
    selector_count: int | None
    candidates_enumerated: int
    minimal_solutions: tuple[Candidate, ...]
    minimal_values: tuple[float, ...]
    optimizer: Candidate | None
    optimal_value: float | None
    cells: tuple[tuple[Point, Point], ...]
    timing: dict[str, float] = field(default_factory=dict)


def _infeasible_report(verdict: FeasibilityVerdict, idx: IndexSets, t0: float) -> SolveReport:
    return SolveReport(
        verdict=verdict,
        index_sets=idx,
        selector_count=None,
        candidates_enumerated=0,
        minimal_solutions=(),
        minimal_values=(),
        optimizer=None,
        optimal_value=None,
        cells=(),
        timing={"total": time.perf_counter() - t0},
    )


def _best_candidate(valued: Iterable[tuple[Candidate, float]]) -> tuple[Candidate, float]:
    """Streaming minimum of (candidate, value) pairs under the total order
    (value, selector); the selector tie-break makes the result independent
    of visit order."""
    best = None
    best_key = None
    for cand, value in valued:
        key = (value, cand.selector.key)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    if best is None:
        raise ValueError("no candidates to minimize over")
    return best, best_key[0]


def solve(
    inst: Instance,
    objective: Objective = log_sum_exp,
    options: SolverOptions | None = None,
) -> SolveReport:
    """Full resolution: decide feasibility, search the candidates that can
    be minimal, prune them to the exact minimal-solution set, and minimize
    the objective over it.

    The returned optimizer is the global minimum of the objective over the
    entire feasible region, provided the objective is monotone
    nondecreasing under the componentwise order. Ties between minimal
    solutions break toward the smaller objective value, then the
    lexicographically smallest selector. The objective is evaluated once
    per minimal solution.
    """
    options = options or SolverOptions()
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    verdict = check_feasibility(inst, idx)
    t_idx = time.perf_counter()
    if not verdict.feasible:
        return _infeasible_report(verdict, idx, t0)

    candidates, leaves = search_candidates(inst, idx, cap=options.cap)
    t_search = time.perf_counter()
    minimal = tuple(prune_to_minimal(candidates))
    t_prune = time.perf_counter()
    values = tuple(objective(c.point) for c in minimal)
    optimizer, value = _best_candidate(zip(minimal, values))
    cells = tuple(cell_decomposition(list(minimal)))
    t_end = time.perf_counter()

    return SolveReport(
        verdict=verdict,
        index_sets=idx,
        selector_count=selector_count(idx),
        candidates_enumerated=leaves,
        minimal_solutions=minimal,
        minimal_values=values,
        optimizer=optimizer,
        optimal_value=value,
        cells=cells,
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
    options: SolverOptions | None = None,
) -> SolveReport:
    """Resolution without the pruning pass: a single streaming minimum
    over every candidate of the selector product.

    Every candidate is feasible and every minimal solution is a candidate,
    so the optimal value is identical to solve's; the report just carries
    no minimal-solution set or cells.
    """
    options = options or SolverOptions()
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    verdict = check_feasibility(inst, idx)
    t_idx = time.perf_counter()
    if not verdict.feasible:
        return _infeasible_report(verdict, idx, t0)

    count = selector_count(idx)
    optimizer, value = _best_candidate(
        (cand, objective(cand.point))
        for cand in enumerate_candidates(inst, idx, cap=options.cap)
    )
    t_end = time.perf_counter()

    return SolveReport(
        verdict=verdict,
        index_sets=idx,
        selector_count=count,
        candidates_enumerated=count,
        minimal_solutions=(),
        minimal_values=(),
        optimizer=optimizer,
        optimal_value=value,
        cells=(),
        timing={
            "index_sets": t_idx - t0,
            "candidates": t_end - t_idx,
            "total": t_end - t0,
        },
    )
