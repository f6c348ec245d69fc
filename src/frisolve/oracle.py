"""Brute-force cross-check for the solver, deliberately independent of the
enumeration and pruning code it verifies, and of the solver's formulas.

Everything runs on the integers the instance holds: its least common
denominator D (``inst._D``) and every grade and epsilon times D. Row i
constrains when ``need_i = D*b_i - D*epsilon > 0``; column j meets it at
x_j when ``D*a_ij + D*x_j - D >= need_i``, the row inequality
``a_ij + x_j - 1 >= b_i - epsilon`` scaled by D. Column j is admissible
for the row when ``D*a_ij >= need_i``, and then the least such D*x_j is
``D + need_i - D*a_ij``.

Any minimal solution's nonzero coordinates take one of those values: below
it the row constraint that forced the coordinate fails, and a minimal point
never carries slack. So the finite grid built from them (plus 0 and D per
column) contains every minimal solution, and exhaustive search over it is
exact, not approximate. A uniform discretization would miss the exact
points and report false mismatches.

Minimality uses the grid's order. Index tuples over the sorted grid
columns are enumerated in lexicographic order, which is coordinate order,
and the feasible ones kept in a set. A feasible point p is minimal on the
grid (no other feasible grid point lies weakly below it) exactly when
lowering any one coordinate to the previous value of its column makes it
infeasible. If a feasible q != p lies below p, pick j with q_j < p_j:
lowering p_j by one grid step leaves a point still above q, feasible by
upward closure. Conversely, a feasible lowered point is itself a feasible
grid point below p. That is n set lookups per feasible point.

One pass serves both answers: brute_force builds the grid once, takes the
feasible points once, and returns the minimal points and the optimum over
every feasible point, in time linear in the number of grid points. A
built-in objective is evaluated by its float kernel on per-column floats
computed once per grid, ``k / D`` for each grid value k: integer true
division is correctly rounded, as ``float()`` of ``Fraction(k, D)`` is,
so each value has the bits the objective gives on the exact point. The
grid holds only integers: only the minimal points and the optimizer are
built as Fraction points, and any other objective receives every feasible
point exactly.

The oracle reads the same integers as the solver, but shares none of its
formulas, which is the point: a mistake in the solver's threshold t_ij
moves the solver's points but not the grid. is_minimal_point checks a
reported point from the row inequality alone, so a point off the grid is
judged too.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Point
from .objective import Objective, _float_kernel, log_sum_exp

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
    every candidate and every minimal solution, as integers over the
    common denominator D of the instance it was built for (``inst._D``):
    ``columns[j][k]`` stands for the coordinate ``columns[j][k] / D``. A
    grid point becomes Fractions only where it is handed out (``_at``).
    """

    columns: tuple[tuple[int, ...], ...]

    @property
    def total_points(self) -> int:
        return math.prod(map(len, self.columns))


def _constraining_rows(inst: Instance) -> list[tuple[tuple[int, ...], int]]:
    """Each row with ``need_i = D*b_i - D*epsilon > 0``, as its entries
    ``D*a_ij`` and need_i, in row order."""
    eps = inst._eps
    rows = ((row, bi - eps) for row, bi in zip(inst._A, inst._b))
    return [(row, need) for row, need in rows if need > 0]


def build_grid(inst: Instance) -> LatticeGrid:
    """Collect {0, D} plus every admissible ``D + need_i - D*a_ij`` per
    column."""
    d = inst._D
    values: list[set[int]] = [{0, d} for _ in range(inst.n)]
    for row, need in _constraining_rows(inst):
        for j, a in enumerate(row):
            if a >= need:
                values[j].add(d + need - a)
    return LatticeGrid(columns=tuple(tuple(sorted(c)) for c in values))


def is_minimal_point(inst: Instance, x: Point) -> bool:
    """Whether x is a minimal solution, decided from the row inequality
    ``a_ij + x_j - 1 >= b_i - epsilon`` alone.

    Every constraining row must be met, and each nonzero x_j must be the
    sole column meeting some constraining row, meeting it with equality:
    then lowering x_j by any amount breaks that row, and by upward closure
    no other member lies below x. The test runs on integers over the lcm
    of D and the denominators of x, since a wrong point need not lie on
    the grid; the instance's integers are multiplied up by ``scale // D``.
    """
    d = inst._D
    scale = math.lcm(d, *(v.denominator for v in x))
    up = scale // d
    point = [v.numerator * (scale // v.denominator) for v in x]
    # A zero coordinate meets no constraining row: a_ij - 1 <= 0 < b_i - epsilon.
    nonzero = [j for j, xj in enumerate(point) if xj]
    tight = set()
    for row, need in _constraining_rows(inst):
        reach = (need + d) * up
        meeting = [j for j in nonzero if row[j] * up + point[j] >= reach]
        if not meeting:
            return False
        if len(meeting) == 1 and row[meeting[0]] * up + point[meeting[0]] == reach:
            tight.add(meeting[0])
    return tight.issuperset(nonzero)


def _row_masks(inst: Instance, grid: LatticeGrid) -> tuple[list[list[int]], int]:
    """For each column j and each grid value in it, the bit set of the
    constraining rows that the value meets; and the bit set of all
    constraining rows.

    Value x meets row i when ``D*a_ij + x - D >= need_i``, that is from
    ``t = D + need_i - D*a_ij`` up. The column is sorted, so each row
    enters the mask at the first value of at least t, and every value's
    mask is the union of the entries up to it.
    """
    d = inst._D
    rows = _constraining_rows(inst)
    masks = []
    for j, column in enumerate(grid.columns):
        entering = [0] * (len(column) + 1)
        for i, (row, need) in enumerate(rows):
            entering[bisect.bisect_left(column, d + need - row[j])] |= 1 << i
        masks.append(list(itertools.accumulate(entering[:-1], operator.or_)))
    return masks, (1 << len(rows)) - 1


def _feasible_indices(inst: Instance, grid: LatticeGrid) -> list[tuple[int, ...]]:
    """Index tuples of the feasible grid points, in lexicographic order,
    which is coordinate order: every column of the grid is sorted.

    A point is feasible when the rows its coordinates meet cover every
    constraining row. The tuples grow one column at a time, and a prefix
    is dropped as soon as the rows it meets, with every row the remaining
    columns meet anywhere, fall short of all rows.
    """
    masks, full = _row_masks(inst, grid)
    rest = [0] * (len(masks) + 1)
    for j in reversed(range(len(masks))):
        rest[j] = rest[j + 1] | functools.reduce(operator.or_, masks[j], 0)
    prefixes = [((), 0)]
    for column, later in zip(masks, rest[1:]):
        prefixes = [
            (idx + (k,), met | mask)
            for idx, met in prefixes
            for k, mask in enumerate(column)
            if met | mask | later == full
        ]
    return [idx for idx, _ in prefixes]


def _at(grid: LatticeGrid, d: int, idx: tuple[int, ...]) -> Point:
    """The exact grid point at an index tuple, on the denominator d."""
    return tuple([Fraction(column[k], d) for column, k in zip(grid.columns, idx)])


def _lowered(idx: tuple[int, ...]):
    """Each index tuple one grid step below idx in one coordinate."""
    for j, k in enumerate(idx):
        if k:
            yield idx[:j] + (k - 1,) + idx[j + 1:]


def brute_force(
    inst: Instance,
    objective: Objective = log_sum_exp,
    limit: int = DEFAULT_LIMIT,
) -> tuple[list[Point], tuple[Point, float] | None]:
    """The exact minimal-solution set and the optimum, by one exhaustive
    pass over the grid.

    The minimal points are the feasible grid points that no other feasible
    grid point sits weakly below: those where lowering any one coordinate
    to the previous value of its grid column leaves the feasible set (see
    the module docstring). They come sorted by coordinates, for stable
    comparison against solver output. The optimum is ``(optimizer, value)``
    over every feasible grid point, found without any structural shortcut;
    for a monotone objective it is the global minimum over the feasible
    region. Ties break toward the coordinatewise smallest point. It is None
    when no grid point is feasible, and then the minimal set is empty.
    """
    d = inst._D
    grid = build_grid(inst)
    total = grid.total_points
    if total > limit:
        raise GridTooLargeError(total, limit)
    members = _feasible_indices(inst, grid)
    if not members:
        return [], None
    feasible = set(members)
    minimal = [
        _at(grid, d, idx) for idx in members if not any(q in feasible for q in _lowered(idx))
    ]
    kernel = _float_kernel(objective)
    if kernel is None:
        values = (objective(_at(grid, d, idx)) for idx in members)
    else:
        floats = tuple(tuple(k / d for k in column) for column in grid.columns)
        values = (kernel(list(map(tuple.__getitem__, floats, idx))) for idx in members)
    # Members are in coordinate order, so the first of equal values is the
    # coordinatewise smallest point.
    value, best = min(zip(values, itertools.count()))
    return minimal, (_at(grid, d, members[best]), value)
