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
never carries slack. So the finite grid built from them, plus 0 per column,
contains every minimal solution; D is in a column only where it is one of
them (``D*a_ij == need_i``). Exhaustive search over the grid is exact, not
approximate. Lower each coordinate of any feasible point to the largest
value of its column at most that coordinate: a column meets each row from
that row's value up, so the lowered point meets the same rows, and it is a
feasible grid point weakly below the first. Hence a point minimal on the
grid is minimal, a feasible system has a feasible grid point, and under a
monotone objective the optimum over the grid is the optimum over the
feasible region. A uniform discretization would miss the exact points and
report false mismatches.

Minimality uses the grid's order. A feasible point p is minimal on the
grid (no other feasible grid point lies weakly below it) exactly when
lowering any one coordinate to the previous value of its column makes it
infeasible. If a feasible q != p lies below p, pick j with q_j < p_j:
lowering p_j by one grid step leaves a point still above q, feasible by
upward closure. Conversely, a feasible lowered point is itself a feasible
grid point below p.

The search names each grid point by a mixed-radix code: one digit per
column, the index of the point's value in the sorted column, the first
column most significant, so codes order as coordinates do. Column j's
radix is one more than its number of values, and its stride is the
product of the radices after it. One grid step up in column j adds
stride_j to a code, and the spare digit means that a step above the
column's top value never carries into the next column, so it lands on no
grid point. The minimal codes are the feasible codes less, for each
column j, every feasible code plus stride_j: one set pass per column.

One pass serves both answers: ``_scaled_brute_force`` builds the grid
once, takes the feasible points once, and returns the minimal points and
the optimum over every feasible point, in time linear in the number of
grid points. Each feasible point carries from the search its code and, per column, the
entry the objective reads for its value k, from one table over the grid
values built by ``objective._scaled_table``: a built-in carries its float
kernel and reads the float k / D, with the bits it gives on the exact
point; any other objective, a wrapper around a built-in included,
receives every feasible point exactly, as Fractions k / D, in coordinate
order. Only the minimal points and the optimizer are decoded from their
codes, to tuples of integers over D: that is what verify compares with
the solver's points, which are integers over the same D. brute_force
hands them out as Fraction points, one Fraction t / D per distinct
coordinate t.

The oracle reads the same integers as the solver, but shares none of its
formulas, which is the point: a mistake in the solver's threshold t_ij
moves the solver's points but not the grid. ``_is_minimal_scaled`` checks
a reported point from the row inequality alone, on integers, so a point
off the grid is judged too: verify gives it the solver's integers over D,
and is_minimal_point a Fraction point scaled to integers.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import GradeLike, Instance, Point, _check_count, as_point
from .objective import Objective, _scaled_table, log_sum_exp

DEFAULT_LIMIT = 10**6


class GridTooLargeError(RuntimeError):
    """The coordinate lattice has more points than the caller allowed.

    ``total_points`` counts the grid the oracle searches: per column, 0
    and the column's thresholds. The oracle refuses to sample; a partial
    sweep could not certify anything.
    """

    def __init__(self, total_points: int, limit: int):
        self.total_points = total_points
        self.limit = limit
        super().__init__(
            f"lattice grid has {total_points} points, exceeding the limit of {limit}"
        )


@dataclass(frozen=True)
class LatticeGrid:
    """Per-column sorted coordinate sets, each 0 and the column's
    thresholds, whose cartesian product contains every candidate and every
    minimal solution, as integers over the common denominator D of the
    instance it was built for (``inst._D``): ``columns[j][k]`` stands for
    the coordinate ``columns[j][k] / D``.
    Only brute_force turns grid points into Fractions, as it hands them
    out.
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
    """Collect {0} plus every admissible ``D + need_i - D*a_ij`` per
    column; D is among them only where ``D*a_ij == need_i``."""
    d = inst._D
    values: list[set[int]] = [{0} for _ in range(inst.n)]
    for row, need in _constraining_rows(inst):
        for j, a in enumerate(row):
            if a >= need:
                values[j].add(d + need - a)
    return LatticeGrid(columns=tuple(tuple(sorted(c)) for c in values))


def is_minimal_point(inst: Instance, x: Iterable[GradeLike]) -> bool:
    """Whether x is a minimal solution, decided from the row inequality
    ``a_ij + x_j - 1 >= b_i - epsilon`` alone (``_is_minimal_scaled``).

    x goes through ``as_point``, the one rule for a point given to the
    library: a coordinate that is not a grade in [0, 1], an empty point,
    or a point whose length is not the instance's column count raises
    ValueError. The test runs on integers over the lcm of D and the
    denominators of x, since a wrong point need not lie on the grid.
    """
    point = as_point(x, n=inst.n)
    d = inst._D
    scale = math.lcm(d, *(v.denominator for v in point))
    return _is_minimal_scaled(
        inst, [v.numerator * (scale // v.denominator) for v in point], scale // d
    )


def _is_minimal_scaled(inst: Instance, point: Sequence[int], up: int = 1) -> bool:
    """Whether the point whose coordinates are ``point[j] / (D * up)`` is
    a minimal solution; the instance's integers are multiplied up by up.

    Every constraining row must be met, and each nonzero x_j must be the
    sole column meeting some constraining row, meeting it with equality:
    then lowering x_j by any amount breaks that row, and by upward closure
    no other member lies below x.
    """
    d = inst._D
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


def _strides(grid: LatticeGrid) -> list[int]:
    """The weight of each column's digit in a grid point's mixed-radix
    code. A column's radix is one more than its number of values, so one
    step above its top value never carries into the next column. The first
    column is the most significant, so codes order as index tuples do,
    which is coordinate order: every column of the grid is sorted."""
    strides = [1]
    for column in reversed(grid.columns[1:]):
        strides.append(strides[-1] * (len(column) + 1))
    return strides[::-1]


def _feasible_members(
    inst: Instance, grid: LatticeGrid, strides: list[int], table: dict[int, object]
) -> tuple[list[int], list[tuple]]:
    """The feasible grid points in coordinate order, as their codes and as
    the tuples of their per-column entries ``table[k]``, k each grid value.

    A point is feasible when the rows its coordinates meet cover every
    constraining row. Points grow one column at a time, each prefix
    carrying its code, its entries and the rows it meets; a prefix is
    dropped as soon as the rows it meets, with every row the remaining
    columns meet anywhere, fall short of all rows.
    """
    masks, full = _row_masks(inst, grid)
    rest = [0] * (len(masks) + 1)
    for j in reversed(range(len(masks))):
        rest[j] = rest[j + 1] | masks[j][-1]  # the masks accumulate: the last is their union
    prefixes = [(0, (), 0)]
    for column, column_masks, stride, later in zip(grid.columns, masks, strides, rest[1:]):
        steps = [
            (k * stride, (table[v],), mask) for k, (v, mask) in enumerate(zip(column, column_masks))
        ]
        prefixes = [
            (code + offset, entries + value, met | mask)
            for code, entries, met in prefixes
            for offset, value, mask in steps
            if met | mask | later == full
        ]
    return [code for code, _, _ in prefixes], [entries for _, entries, _ in prefixes]


def _at(grid: LatticeGrid, strides: list[int], code: int) -> tuple[int, ...]:
    """The grid point at a code, as its integers over D."""
    return tuple([
        column[code // stride % (len(column) + 1)]
        for column, stride in zip(grid.columns, strides)
    ])


def brute_force(
    inst: Instance,
    objective: Objective = log_sum_exp,
    limit: int = DEFAULT_LIMIT,
) -> tuple[list[Point], tuple[Point, float] | None]:
    """The exact minimal-solution set and the optimum, by one exhaustive
    pass over the grid (``_scaled_brute_force``).

    The minimal points are the feasible grid points that no other feasible
    grid point sits weakly below: those where lowering any one coordinate
    to the previous value of its grid column leaves the feasible set. They
    come sorted by coordinates, for stable comparison against solver
    output. The optimum is ``(optimizer, value)`` over every feasible grid
    point, found without any structural shortcut; for a monotone objective
    it is the global minimum over the feasible region. Any other objective
    is valued only on the grid's feasible points, whose coordinates are 0
    or thresholds. Ties break toward the coordinatewise smallest point. It
    is None when no grid point is feasible, and then the minimal set is
    empty. The pass answers in integers over D, and each distinct
    coordinate t of its points becomes one Fraction t / D here.

    A grid of more than ``limit`` points, counted on that grid, raises
    GridTooLargeError before the search; a limit that is not an integer of
    at least 1 raises ValueError, as solve's cap does.
    """
    minimal, optimum = _scaled_brute_force(inst, objective, limit)
    if optimum is None:
        return [], None
    d = inst._D
    optimizer, value = optimum
    fraction = {t: Fraction(t, d) for t in {*optimizer}.union(*minimal)}.__getitem__
    return [tuple(map(fraction, p)) for p in minimal], (tuple(map(fraction, optimizer)), value)


def _scaled_brute_force(
    inst: Instance, objective: Objective, limit: int
) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], float] | None]:
    """brute_force's answer with every point as its integers over D.

    The minimal points are found by one set pass per column over the
    feasible points' codes (see the module docstring); the objective is
    valued on every feasible grid point.
    """
    _check_count(limit, "limit")
    d = inst._D
    grid = build_grid(inst)
    total = grid.total_points
    if total > limit:
        raise GridTooLargeError(total, limit)
    strides = _strides(grid)
    table, rate = _scaled_table(objective, d, {v for column in grid.columns for v in column})
    codes, entries = _feasible_members(inst, grid, strides, table)
    if not codes:
        return [], None
    # Members are in coordinate order, so the first of equal values is the
    # coordinatewise smallest point.
    value, best = min(zip(map(rate, entries), itertools.count()))
    # Dropping the entries before the code set is built lowers the peak
    # memory of a large grid.
    del entries
    # A member one grid step above another in some column is not minimal:
    # remove code + stride_j for every member and column. The spare digit
    # keeps a step above a column's top value off every member.
    minimal = set(codes)
    for stride in strides:
        minimal.difference_update(map(stride.__add__, codes))
    optimizer = _at(grid, strides, codes[best])
    return [_at(grid, strides, code) for code in sorted(minimal)], (optimizer, value)
