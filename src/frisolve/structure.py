"""Candidate minimal solutions, the covered-row search, and the box
decomposition of the feasible set.

For a constraining row i and an admissible column j, the least value of
x_j at which column j alone satisfies row i is the threshold
``t_ij = 1 + (b_i - epsilon) - a_ij`` (``core.coordinate_threshold``). A
selector picks one admissible column per constraining row; the
componentwise maximum of the picked single-row points is the candidate
x(e), feasible by construction. Every minimal solution is a candidate, and
the feasible region is the union of boxes [x(e), ones].

``enumerate_candidates`` streams x(e) for every selector e of the product
E of the admissible sets, as the paper's algorithm does; |E| grows
exponentially with the number of rows. ``search_candidates`` reaches every
minimal solution by a depth-first search over the rows instead: a row the
partial point already satisfies is skipped rather than branched on, so the
work is bounded by that search tree rather than by |E|. Dominance pruning
of either set gives the exact minimal-solution set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .core import ZERO, Instance, Point, coordinate_threshold, ones
from .feasibility import IndexSets, InfeasibleSystemError, compute_index_sets

DEFAULT_CAP = 10**6


class CapExceededError(RuntimeError):
    """A run would exceed the configured work cap.

    ``count`` is how far the work got: for the product enumeration, the
    exact size of the selector set, computed before any candidate is
    built; for the covered-row search, the node count at which it stopped
    (one more than the cap). The caller can raise the cap or give up.
    """

    def __init__(self, count: int, cap: int, progress: str | None = None):
        self.count = count
        self.cap = cap
        progress = progress or f"enumeration needs {count} candidates"
        super().__init__(f"{progress}, exceeding the cap of {cap}; raise the cap to proceed")


@dataclass(frozen=True)
class Selector:
    """One column choice per row: columns[i] is the picked column (0-based)
    for constraining row i, and None for vacuous rows."""

    columns: tuple[Optional[int], ...]

    @property
    def key(self) -> tuple[int, ...]:
        """Ordering key: the chosen columns of constraining rows only.

        Vacuous positions are identical across all selectors of an
        instance, so dropping them preserves lexicographic order.
        """
        return tuple(c for c in self.columns if c is not None)


@dataclass(frozen=True)
class Candidate:
    """A candidate minimal solution x(e) with its originating selector.

    The selector builds the point for every enumerated candidate and every
    minimal one. A search leaf that pruning drops carries its canonical
    selector, which may build a point below it. is_minimal is None until
    pruning classifies the candidate.
    """

    selector: Selector
    point: Point
    is_minimal: Optional[bool] = None


def row_minimal(inst: Instance, i: int, j0: int) -> Point:
    """The minimal point satisfying row i through column j0 alone:
    coordinate j0 equals ``t_ij0 = 1 + (b_i - epsilon) - a_ij0``, all
    others 0.

    Requires j0 admissible (a_ij0 >= b_i - epsilon, else the coordinate
    would exceed 1) and the row constraining (b_i > epsilon; a vacuous row
    needs no contribution at all and the minimality argument breaks).
    """
    if not 0 <= i < inst.m:
        raise ValueError(f"row index {i} out of range for m={inst.m}")
    if not 0 <= j0 < inst.n:
        raise ValueError(f"column index {j0} out of range for n={inst.n}")
    bi = inst.b[i]
    eps = inst.epsilon
    if bi - eps <= ZERO:
        raise ValueError(f"row {i + 1} is vacuous (b <= epsilon); it has no minimal point")
    if inst.A[i][j0] < bi - eps:
        raise ValueError(
            f"column {j0 + 1} is not admissible for row {i + 1}: "
            f"a[{i + 1}][{j0 + 1}] < b[{i + 1}]"
        )
    coords = [ZERO] * inst.n
    coords[j0] = coordinate_threshold(inst, i, j0)
    return tuple(coords)


def selector_count(idx: IndexSets) -> int:
    """Exact size of the selector set: the product of |J(i)| over
    constraining rows (1 when every row is vacuous)."""
    return math.prod(len(idx.sets[i]) for i in idx.constraining_rows)


def _coordinate_table(inst: Instance, idx: IndexSets) -> dict[tuple[int, int], Fraction]:
    """The threshold t_ij for every (constraining row, admissible column)
    pair."""
    return {
        (i, j): coordinate_threshold(inst, i, j)
        for i in idx.constraining_rows
        for j in idx.sets[i]
    }


def _build_point(
    n: int,
    rows: tuple[int, ...],
    choice: tuple[int, ...],
    table: dict[tuple[int, int], Fraction],
) -> Point:
    coords = [ZERO] * n
    for i, j in zip(rows, choice):
        v = table[(i, j)]
        if v > coords[j]:
            coords[j] = v
    return tuple(coords)


def _selector_from_choice(m: int, rows: tuple[int, ...], choice: tuple[int, ...]) -> Selector:
    columns: list[Optional[int]] = [None] * m
    for i, j in zip(rows, choice):
        columns[i] = j
    return Selector(columns=tuple(columns))


def candidate_from_selector(inst: Instance, idx: IndexSets, e: Selector) -> Candidate:
    """Build the candidate x(e) for one selector: the componentwise maximum
    of row_minimal(i, e(i)) over constraining rows (the zero point when
    every row is vacuous)."""
    if len(e.columns) != idx.m:
        raise ValueError(f"selector has {len(e.columns)} entries, expected {idx.m}")
    rows = idx.constraining_rows
    for i, c in enumerate(e.columns):
        if idx.vacuous[i]:
            if c is not None:
                raise ValueError(f"selector assigns a column to vacuous row {i + 1}")
        elif c is None:
            raise ValueError(f"selector misses constraining row {i + 1}")
        elif c not in idx.sets[i]:
            raise ValueError(f"selector column {c + 1} is not admissible for row {i + 1}")
    table = _coordinate_table(inst, idx)
    choice = tuple(e.columns[i] for i in rows)
    return Candidate(selector=e, point=_build_point(inst.n, rows, choice, table))


def enumerate_candidates(
    inst: Instance,
    idx: IndexSets | None = None,
    cap: int | None = DEFAULT_CAP,
) -> Iterator[Candidate]:
    """Stream every candidate x(e) in lexicographic selector order.

    The total count, the product of the |J(i)|, is computed up front:
    an infeasible system or a product beyond ``cap`` raises immediately,
    before any candidate is built. Pass cap=None to disable the cap.
    """
    if idx is None:
        idx = compute_index_sets(inst)
    if not idx.feasible:
        raise InfeasibleSystemError(list(idx.empty_rows))
    count = selector_count(idx)
    if cap is not None and count > cap:
        raise CapExceededError(count, cap)
    rows = idx.constraining_rows
    table = _coordinate_table(inst, idx)
    n, m = inst.n, inst.m

    def stream() -> Iterator[Candidate]:
        for choice in itertools.product(*(idx.sets[i] for i in rows)):
            yield Candidate(
                selector=_selector_from_choice(m, rows, choice),
                point=_build_point(n, rows, choice, table),
            )

    return stream()


def search_candidates(
    inst: Instance,
    idx: IndexSets | None = None,
    cap: int | None = DEFAULT_CAP,
) -> tuple[list[Candidate], int]:
    """Covered-row search: a set of feasible candidates that contains
    every minimal solution, found without walking the selector product.

    The constraining rows are walked depth-first, fewest admissible
    columns first, from the zero point. A row whose threshold t_ij is
    already reached at x_j for some admissible j is skipped; otherwise the
    search branches on each admissible j, raising x_j to t_ij. Every leaf
    is feasible, since each row was met when passed and coordinates only
    rise. Every minimal solution x* is a leaf: following, at each branched
    row, a column with t_ij <= x*_j keeps the partial point below x*, and a
    feasible point below x* equals x*.

    Returns the distinct leaves, in the order first reached, each with its
    canonical selector (per constraining row, the smallest admissible j
    with t_ij <= x_j), and the number of leaves reached, duplicates
    included. For a minimal point the canonical selector builds it and is
    the lexicographically smallest selector that does: any selector e with
    x(e) = x* picks, per row, a column with t_ij <= x*_j, and the canonical
    columns give a feasible point below x*.

    ``cap`` bounds the search nodes, one per column assignment tried; the
    search raises CapExceededError when it would try one more. The
    branching depth can reach the row count, so the walk keeps an explicit
    stack rather than recursing. Pass cap=None to disable the cap.
    """
    if idx is None:
        idx = compute_index_sets(inst)
    if not idx.feasible:
        raise InfeasibleSystemError(list(idx.empty_rows))
    table = _coordinate_table(inst, idx)
    # A coordinate only ever holds 0 or one of its column's thresholds, so
    # the walk compares integer ranks of the thresholds: the same order,
    # exactly, without rational arithmetic.
    values = sorted(set(table.values()) | {ZERO})
    rank = {v: r for r, v in enumerate(values)}
    options = {
        i: tuple((j, rank[table[i, j]]) for j in idx.sets[i])
        for i in idx.constraining_rows
    }
    order = sorted(options.values(), key=len)
    depth = len(order)

    x = [0] * inst.n
    distinct: dict[tuple[int, ...], None] = {}
    leaves = nodes = 0
    # Entries (k, j, v): set x[j] = v, then walk on from row position k.
    # k = -1 only restores x[j] after a branch's subtree; j = -1 is the root.
    stack = [(0, -1, 0)]
    while stack:
        k, j, v = stack.pop()
        if j >= 0:
            x[j] = v
            if k < 0:
                continue
            nodes += 1
            if cap is not None and nodes > cap:
                raise CapExceededError(nodes, cap, f"search reached {nodes} nodes")
        while k < depth and any(x[c] >= t for c, t in order[k]):
            k += 1
        if k == depth:
            distinct[tuple(x)] = None
            leaves += 1
            continue
        for c, t in reversed(order[k]):
            stack.append((-1, c, x[c]))
            stack.append((k + 1, c, t))

    candidates = []
    for leaf in distinct:
        columns: list[Optional[int]] = [None] * inst.m
        for i, row in options.items():
            columns[i] = next(c for c, t in row if t <= leaf[c])
        candidates.append(
            Candidate(
                selector=Selector(columns=tuple(columns)),
                point=tuple(values[r] for r in leaf),
            )
        )
    return candidates, leaves


def prune_to_minimal(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Filter candidates down to the dominance-minimal points.

    A candidate is dropped iff some other candidate's point is <= it
    componentwise and differs somewhere; exact duplicates collapse to the
    one with the lexicographically smallest selector. Comparisons are
    exact: coordinates are exact rationals, so ties are genuine ties.

    Survivors come back in selector order with is_minimal set. When the
    input holds only feasible points and every minimal solution among
    them, as the full candidate set and the covered-row search's leaves
    do, the survivors are exactly the minimal solutions of the system.
    """
    by_point: dict[Point, Candidate] = {}
    for cand in candidates:
        kept = by_point.get(cand.point)
        if kept is None or cand.selector.key < kept.selector.key:
            by_point[cand.point] = cand

    # Replacing every coordinate by its rank among all coordinate values
    # keeps each comparison's outcome and compares small ints instead of
    # rationals. A dominator has a strictly smaller rank sum, so after
    # sorting by it only earlier survivors can dominate: one pass suffices.
    rank = {v: r for r, v in enumerate(sorted({v for p in by_point for v in p}))}
    ordered = sorted(
        ((tuple(rank[v] for v in p), cand) for p, cand in by_point.items()),
        key=lambda rc: (sum(rc[0]), rc[0]),
    )
    kept_ranks: list[tuple[int, ...]] = []
    survivors: list[Candidate] = []
    for ranks, cand in ordered:
        if not any(all(s <= c for s, c in zip(kept, ranks)) for kept in kept_ranks):
            kept_ranks.append(ranks)
            survivors.append(cand)
    survivors.sort(key=lambda c: c.selector.key)
    return [replace(c, is_minimal=True) for c in survivors]


def cell_decomposition(minimal: list[Candidate]) -> list[tuple[Point, Point]]:
    """One closed box [x(e), ones] per minimal candidate; their union is
    the whole feasible region."""
    if not minimal:
        raise ValueError("cell decomposition needs at least one candidate")
    n = len(minimal[0].point)
    top = ones(n)
    return [(c.point, top) for c in minimal]
