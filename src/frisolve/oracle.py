"""Brute-force cross-check for the solver, deliberately independent of the
enumeration and pruning code it verifies.

Any minimal solution's nonzero coordinates have the form
t_ij = 1 + (b_i - epsilon) - a_ij with column j admissible for row i:
below that value the row constraint that forced the coordinate fails, and
a minimal point never carries slack. So the finite grid built from those
values (plus 0 and 1 per column) contains every minimal solution, and
exhaustive search over it is exact, not approximate. A uniform
discretization would miss the exact points and report false mismatches.

Everything here rechecks membership through core.is_member and uses its
own plain quadratic dominance scan; it shares no path with solver or
structure, which is the point. The one formula it shares with them is the
threshold t_ij itself (core.coordinate_threshold), which only places the
grid. A mistake there would move the grid and the solver's points alike,
so is_minimal_point checks a reported point without it, from the
membership inequality alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, ZERO, Instance, Point, coordinate_threshold, is_member
from .feasibility import InfeasibleSystemError
from .objective import Objective, log_sum_exp

DEFAULT_LIMIT = 10**6


class GridTooLargeError(RuntimeError):
    """The coordinate lattice has more points than the caller allowed.

    The oracle refuses to sample; a partial sweep could not certify
    anything.
    """

    def __init__(self, total_points: int, limit: int):
        self.total_points = total_points
        self.limit = limit
        super().__init__(
            f"lattice grid has {total_points} points, exceeding the limit of {limit}"
        )


@dataclass(frozen=True)
class LatticeGrid:
    """Per-column sorted coordinate sets whose cartesian product contains
    every candidate and every minimal solution."""

    coords: tuple[tuple[Fraction, ...], ...]

    @property
    def total_points(self) -> int:
        return math.prod(len(c) for c in self.coords)

    def points(self):
        return itertools.product(*self.coords)


def build_grid(inst: Instance) -> LatticeGrid:
    """Collect {0, 1} plus every admissible threshold t_ij per column."""
    eps = inst.epsilon
    columns: list[set[Fraction]] = [{ZERO, ONE} for _ in range(inst.n)]
    for i, (row, bi) in enumerate(zip(inst.A, inst.b)):
        if bi - eps <= ZERO:
            continue
        for j, a in enumerate(row):
            if a >= bi - eps:
                columns[j].add(coordinate_threshold(inst, i, j))
    return LatticeGrid(coords=tuple(tuple(sorted(c)) for c in columns))


def is_minimal_point(inst: Instance, x: Point) -> bool:
    """Whether x is a minimal solution, decided from the row inequality
    ``a_ij + x_j - 1 >= b_i - epsilon`` alone.

    Every constraining row must be met, and each nonzero x_j must be the
    sole column meeting some constraining row, meeting it with equality:
    then lowering x_j by any amount breaks that row, and by upward closure
    no other member lies below x.
    """
    # A zero coordinate meets no constraining row: a_ij - 1 <= 0 < b_i - epsilon.
    nonzero = [j for j, xj in enumerate(x) if xj != ZERO]
    tight = set()
    for row, bi in zip(inst.A, inst.b):
        threshold = bi - inst.epsilon
        if threshold <= ZERO:
            continue
        meeting = [j for j in nonzero if row[j] + x[j] - ONE >= threshold]
        if not meeting:
            return False
        if len(meeting) == 1 and row[meeting[0]] + x[meeting[0]] - ONE == threshold:
            tight.add(meeting[0])
    return tight.issuperset(nonzero)


def _feasible_grid_points(inst: Instance, limit: int) -> list[Point]:
    grid = build_grid(inst)
    total = grid.total_points
    if total > limit:
        raise GridTooLargeError(total, limit)
    return [p for p in grid.points() if is_member(inst, p)]


def brute_force_minimal(inst: Instance, limit: int = DEFAULT_LIMIT) -> list[Point]:
    """The exact minimal-solution set, by exhaustion: every feasible grid
    point that no other feasible grid point sits weakly below.

    Returns an empty list for an infeasible system. Sorted by coordinates
    for stable comparison against solver output.
    """
    members = _feasible_grid_points(inst, limit)
    minimal = []
    for p in members:
        dominated = False
        for q in members:
            if q is p:
                continue
            if q != p and all(qj <= pj for qj, pj in zip(q, p)):
                dominated = True
                break
        if not dominated:
            minimal.append(p)
    minimal.sort()
    return minimal


def brute_force_optimum(
    inst: Instance,
    objective: Objective = log_sum_exp,
    limit: int = DEFAULT_LIMIT,
) -> tuple[Point, float]:
    """Minimize the objective over every feasible grid point.

    For a monotone objective this is the global minimum over the whole
    feasible region, found without any structural shortcut. Ties break
    toward the coordinatewise smallest point.
    """
    members = _feasible_grid_points(inst, limit)
    if not members:
        rows = [i for i, (row, bi) in enumerate(zip(inst.A, inst.b))
                if all(a < bi - inst.epsilon for a in row)]
        raise InfeasibleSystemError(rows)
    best = min(members, key=lambda p: (objective(p), p))
    return best, objective(best)
