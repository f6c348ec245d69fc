"""Brute-force cross-check for the solver, deliberately independent of the
enumeration and pruning code it verifies.

Any minimal solution's nonzero coordinates have the form
t_ij = 1 + (b_i - epsilon) - a_ij with column j admissible for row i:
below that value the row constraint that forced the coordinate fails, and
a minimal point never carries slack. So the finite grid built from those
values (plus 0 and 1 per column) contains every minimal solution, and
exhaustive search over it is exact, not approximate. A uniform
discretization would miss the exact points and report false mismatches.

Membership is tested on integers from the row inequality itself,
``a_ij + x_j - 1 >= b_i - epsilon``: every grid value, a_ij, b_i and
epsilon is scaled by the oracle's own common denominator D (the lcm of
all their denominators, the grid's included), and the test reads
``a_ij + x_j - D >= b_i - epsilon`` on exact integers.

Minimality uses the grid's order. Index tuples over the sorted grid
columns are enumerated in lexicographic order, which is coordinate order,
and the feasible ones kept in a set. A feasible point p is minimal on the
grid (no other feasible grid point lies weakly below it) exactly when
lowering any one coordinate to the previous value of its column makes it
infeasible. If a feasible q != p lies below p, pick j with q_j < p_j:
lowering p_j by one grid step leaves a point still above q, feasible by
upward closure. Conversely, a feasible lowered point is itself a feasible
grid point below p. That is n set lookups per feasible point, so both
searches cost time linear in the number of grid points.

None of this shares a path with solver or structure, which is the point.
The one formula it shares with them is the threshold t_ij itself
(core.coordinate_threshold), which only places the grid. A mistake there
would move the grid and the solver's points alike, so is_minimal_point
checks a reported point without it, from the membership inequality alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, ZERO, Instance, Point, coordinate_threshold
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


def _row_masks(inst: Instance, grid: LatticeGrid) -> tuple[list[list[int]], int]:
    """For each column j and each grid value x in it, the bit set of the
    constraining rows i that ``a_ij + x - 1 >= b_i - epsilon`` meets; and the
    bit set of all constraining rows.

    The test runs on integers: every grid value, a_ij, b_i and epsilon is
    scaled by D, the lcm of all their denominators, so each becomes an
    integer and the inequality reads ``a_ij + x - D >= b_i - epsilon``.
    """
    values = itertools.chain((inst.epsilon,), inst.b, *inst.A, *grid.coords)
    scale = math.lcm(*(v.denominator for v in values))

    def scaled(v: Fraction) -> int:
        return v.numerator * (scale // v.denominator)

    eps = scaled(inst.epsilon)
    rows = [
        ([scaled(a) - scale for a in row], scaled(bi) - eps)
        for row, bi in zip(inst.A, inst.b)
    ]
    rows = [(row, need) for row, need in rows if need > 0]
    masks = [
        [
            sum(1 << i for i, (row, need) in enumerate(rows) if row[j] + x >= need)
            for x in map(scaled, column)
        ]
        for j, column in enumerate(grid.coords)
    ]
    return masks, (1 << len(rows)) - 1


def _feasible_indices(inst: Instance, grid: LatticeGrid) -> list[tuple[int, ...]]:
    """Index tuples of the feasible grid points, in lexicographic order,
    which is coordinate order: every column of the grid is sorted.

    A point is feasible when the rows its coordinates meet cover every
    constraining row.
    """
    masks, full = _row_masks(inst, grid)
    return [
        idx
        for idx in itertools.product(*(range(len(c)) for c in grid.coords))
        if functools.reduce(operator.or_, map(list.__getitem__, masks, idx), 0) == full
    ]


def _feasible_grid(inst: Instance, limit: int) -> tuple[LatticeGrid, list[tuple[int, ...]]]:
    grid = build_grid(inst)
    total = grid.total_points
    if total > limit:
        raise GridTooLargeError(total, limit)
    return grid, _feasible_indices(inst, grid)


def _at(grid: LatticeGrid, idx: tuple[int, ...]) -> Point:
    return tuple(map(tuple.__getitem__, grid.coords, idx))


def _lowered(idx: tuple[int, ...]):
    """Each index tuple one grid step below idx in one coordinate."""
    for j, k in enumerate(idx):
        if k:
            yield idx[:j] + (k - 1,) + idx[j + 1:]


def brute_force_minimal(inst: Instance, limit: int = DEFAULT_LIMIT) -> list[Point]:
    """The exact minimal-solution set, by exhaustion: every feasible grid
    point that no other feasible grid point sits weakly below.

    A feasible point is such a point exactly when lowering any one
    coordinate to the previous value of its grid column makes it
    infeasible (see the module docstring), so each point costs n set
    lookups. Returns an empty list for an infeasible system. Sorted by
    coordinates for stable comparison against solver output.
    """
    grid, members = _feasible_grid(inst, limit)
    feasible = set(members)
    return [
        _at(grid, idx) for idx in members if not any(q in feasible for q in _lowered(idx))
    ]


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
    grid, members = _feasible_grid(inst, limit)
    if not members:
        rows = [i for i, (row, bi) in enumerate(zip(inst.A, inst.b))
                if all(a < bi - inst.epsilon for a in row)]
        raise InfeasibleSystemError(rows)
    points = (_at(grid, idx) for idx in members)
    value, best = min((objective(p), p) for p in points)
    return best, value
