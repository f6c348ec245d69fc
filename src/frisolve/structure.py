"""Candidate minimal solutions and the covered-row search.

For a constraining row i and an admissible column j, the least value of
x_j at which column j alone satisfies row i is the threshold
``t_ij = 1 + (b_i - epsilon) - a_ij`` (``core.coordinate_threshold``). A
selector picks one admissible column per constraining row; the
componentwise maximum of the picked single-row points is the candidate
x(e), feasible by construction. Every minimal solution is a candidate, and
the feasible region is the union of the boxes [x, ones] over the minimal
solutions x; the report writer renders those boxes as its cells
(``files.render_report_json``), so nothing here builds them.

``enumerate_candidates`` streams x(e) for every selector e of the product
E of the admissible sets, as the paper's algorithm does; |E| grows
exponentially with the number of rows. ``search_leaves`` reaches every
minimal solution by a depth-first search over the rows instead: a row the
partial point already satisfies is skipped rather than branched on, so the
work is bounded by that search tree rather than by |E|. Every leaf is
feasible and every minimal solution is a leaf, so ``prune_leaves`` keeps
exactly the leaves that pass the row test: each nonzero x_j is the only
column meeting some row, and meets it at the threshold, so that lowering
x_j breaks that row. The test looks at one leaf at a time, never at pairs.
``search_optimum`` walks the same tree with a lower bound: a monotone
objective evaluated on a partial point bounds every leaf below it, so
subtrees that cannot beat the best leaf so far are cut, and only the
optimizer is returned; it applies the same row test to its leaves.

The searches and the row test run on integers that stand in for the
thresholds. Every t_ij is computed as the integer D * t_ij over one common
denominator D of epsilon, the constraining b_i and the admissible a_ij
(``_scaled_thresholds``), and one sort ranks them: rank order is the
rational order, so every comparison has the rational outcome, and no
Fraction is built per pair. Rank r stands for thresholds[r] / D. Its
Fraction is built once per rank where minimal points are handed back
(``search_leaves``); ``search_optimum`` builds Fractions only for its
optimizer's coordinates. Its float is the integer true division
thresholds[r] / D, correctly rounded as ``float()`` of the Fraction is:
a built-in objective runs its float kernel on those per-rank floats
(``_ranked_objective``), with the bits it gives on the exact point, and
any other objective receives exact points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .core import Instance, Point
from .feasibility import IndexSets, InfeasibleSystemError, compute_index_sets
from .objective import _float_kernel

DEFAULT_CAP = 10**6


class CapExceededError(RuntimeError):
    """A run would exceed the configured work cap.

    ``count`` is how far the work got: for the product enumeration, the
    exact size of the selector set, computed before any candidate is
    built; for the covered-row search, the node count at which it stopped
    (one more than the cap). The caller can raise the cap or give up.
    """

    def __init__(self, count: int, cap: int, progress: str):
        self.count = count
        self.cap = cap
        super().__init__(f"{progress}, exceeding the cap of {cap}; raise the cap to proceed")


def _check_cap(cap: int) -> None:
    """Reject a work cap that is not an integer of at least 1."""
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class Candidate:
    """A candidate minimal solution x(e) with its originating selector,
    which builds the point: selector[i] is the column (0-based) picked for
    row i, and None for a vacuous row."""

    selector: tuple[Optional[int], ...]
    point: Point


def selector_count(idx: IndexSets) -> int:
    """Exact size of the selector set: the product of |J(i)| over
    constraining rows (1 when every row is vacuous)."""
    return math.prod(len(idx.sets[i]) for i in idx.constraining_rows)


def _candidate(m: int, rows: Iterable[int], key: Iterable[int], point: Point) -> Candidate:
    """point with the selector that picks key[k] for rows[k], None elsewhere."""
    columns: list[Optional[int]] = [None] * m
    for i, c in zip(rows, key):
        columns[i] = c
    return Candidate(selector=tuple(columns), point=point)


def enumerate_candidates(inst: Instance, cap: int = DEFAULT_CAP) -> Iterator[Candidate]:
    """Stream every candidate x(e) in lexicographic selector order.

    The total count, the product of the |J(i)|, is computed up front:
    a cap that is not an integer of at least 1 raises ValueError, and an
    infeasible system or a product beyond ``cap`` raises immediately,
    before any candidate is built.
    """
    _check_cap(cap)
    idx = compute_index_sets(inst)
    if not idx.feasible:
        raise InfeasibleSystemError(list(idx.empty_rows))
    count = selector_count(idx)
    if count > cap:
        raise CapExceededError(count, cap, f"enumeration needs {count} candidates")
    rows = idx.constraining_rows
    scale, thresholds, options = _ranked_options(inst, idx)
    values = _fractions(scale, thresholds)
    n, m = inst.n, inst.m

    def stream() -> Iterator[Candidate]:
        for choice in itertools.product(*options.values()):
            x = [0] * n
            for j, r in choice:
                if r > x[j]:
                    x[j] = r
            yield _candidate(m, rows, [j for j, _ in choice], tuple(values[r] for r in x))

    return stream()


# Per constraining row, its admissible columns with the rank of t_ij.
_Options = dict[int, tuple[tuple[int, int], ...]]


def _scaled_thresholds(inst: Instance, i: int, columns: tuple[int, ...], scale: int) -> list[int]:
    """D * t_ij for each j in columns, as ``D + (D*b_i - D*epsilon) - D*a_ij``;
    D is scale, a common denominator of epsilon, b_i and every a_ij."""
    b, eps, row = inst.b[i], inst.epsilon, inst.A[i]
    top = scale + b.numerator * (scale // b.denominator) - eps.numerator * (scale // eps.denominator)
    return [top - row[j].numerator * (scale // row[j].denominator) for j in columns]


def _ranked_options(inst: Instance, idx: IndexSets) -> tuple[int, list[int], _Options]:
    """The thresholds as integer ranks, for the covered-row walk.

    A coordinate only ever holds 0 or one of its column's thresholds, so
    the walk compares integer ranks of the thresholds: the same order,
    exactly, without rational arithmetic. Returns the common denominator
    D, the distinct thresholds scaled by D in ascending order (rank r
    stands for thresholds[r] / D, and rank 0, thresholds[0] = 0, for 0),
    and the ranked options of the constraining rows, in row order.

    D is the lcm of the denominators of epsilon, the constraining b_i and
    the admissible a_ij, so every D * t_ij is an integer, and distinct
    thresholds give distinct integers in the same order.
    """
    rows, sets, A = idx.constraining_rows, idx.sets, inst.A
    scale = math.lcm(
        inst.epsilon.denominator,
        *(inst.b[i].denominator for i in rows),
        *(A[i][j].denominator for i in rows for j in sets[i]),
    )
    scaled = {i: _scaled_thresholds(inst, i, sets[i], scale) for i in rows}
    thresholds = sorted(set().union(*scaled.values()) | {0})
    rank = {t: r for r, t in enumerate(thresholds)}
    options = {i: tuple(zip(sets[i], map(rank.__getitem__, scaled[i]))) for i in rows}
    return scale, thresholds, options


def _fractions(scale: int, thresholds: list[int]) -> list[Fraction]:
    """Each rank's exact value, thresholds[r] / scale."""
    return [Fraction(t, scale) for t in thresholds]


def _ranked_objective(
    objective: Callable[[Point], float], scale: int, thresholds: list[int]
) -> Callable[[Iterable[int]], float]:
    """objective on a point given by its ranks.

    A built-in objective runs its float kernel on one float per rank,
    thresholds[r] / scale: integer true division is correctly rounded, as
    ``float()`` of the rank's Fraction is, so the value has the bits the
    objective gives on the exact point. Any other objective receives the
    exact point.
    """
    kernel = _float_kernel(objective)
    if kernel is None:
        values = _fractions(scale, thresholds)
        return lambda x: objective(tuple([values[r] for r in x]))
    floats = [t / scale for t in thresholds]
    return lambda x: kernel([floats[r] for r in x])


def _walk(
    n: int,
    options: _Options,
    cap: int,
    bound: Callable[[tuple[int, ...]], float] | None = None,
) -> Iterator[tuple[tuple[int, ...], float | None]]:
    """The covered-row walk over ranked options; yields (leaf, value).

    Rows are taken fewest admissible columns first, from the zero point. A
    row some column already meets is skipped; otherwise the walk branches
    on each admissible column, raising it to its threshold. ``cap`` bounds
    the nodes, one per column assignment tried. The branching depth can
    reach the row count, so the walk keeps an explicit stack rather than
    recursing. Each stack entry carries its node's point as a tuple of
    ranks, so a branch needs no undoing, and a leaf is the tuple itself.

    With ``bound``, each node (the root included) is valued once by
    ``bound(x)`` on its partial point, and its subtree is cut iff that
    value is strictly greater than the incumbent, the least value of a
    leaf reached so far. A leaf's value is its node's value. Without a
    bound, every value is None.
    """
    order = sorted(options.values(), key=len)
    depth = len(order)
    incumbent = math.inf
    nodes = -1  # every pop is a node but the root's
    # Entries (k, x): walk on from row position k with the point x.
    stack = [(0, (0,) * n)]
    while stack:
        k, x = stack.pop()
        nodes += 1
        if nodes > cap:
            raise CapExceededError(nodes, cap, f"search reached {nodes} nodes")
        value = None
        if bound is not None:
            value = bound(x)
            if value > incumbent:
                continue
        # Skip the rows some column already meets (a for/else loop here is
        # measurably faster than any() over a generator).
        while k < depth:
            for c, t in order[k]:
                if x[c] >= t:
                    break
            else:
                break
            k += 1
        if k == depth:
            if value is not None and value < incumbent:
                incumbent = value
            yield x, value
            continue
        for c, t in reversed(order[k]):
            stack.append((k + 1, x[:c] + (t,) + x[c + 1:]))


def _minimal_key(leaf: tuple[int, ...], options: _Options) -> tuple[int, ...] | None:
    """The canonical selector key of a feasible ranked point if it is
    minimal, None otherwise; one scan of the rows decides both.

    The key holds, per constraining row, the smallest admissible j with
    t_ij <= x_j: each row's options are in ascending column order, so it
    is the first column that meets the row. The point is minimal iff each
    nonzero x_j is the sole column meeting some row, and meets it at the
    threshold, so that lowering x_j breaks that row. Lowering one
    coordinate at a time is enough: the feasible set is upward closed, so
    a feasible point below x would leave x feasible with one coordinate
    lowered to it."""
    key = []
    tight = set()
    for row in options.values():
        met = [(c, t) for c, t in row if leaf[c] >= t]
        c, t = met[0]
        key.append(c)
        if len(met) == 1 and leaf[c] == t:
            tight.add(c)
    if all(c in tight for c, r in enumerate(leaf) if r):
        return tuple(key)
    return None


@dataclass(frozen=True)
class SearchLeaves:
    """The leaves of a covered-row search, as integer ranks.

    A coordinate of rank r stands for thresholds[r] / scale (rank 0 for
    0), whose Fraction is values[r]; options holds, per constraining row
    in row order, its admissible columns with the ranks of their
    thresholds. points are the distinct leaves in the order first
    reached; reached counts the leaves, duplicates included.
    """

    m: int
    scale: int
    thresholds: list[int]
    values: list[Fraction]
    options: _Options
    points: list[tuple[int, ...]]
    reached: int


def search_leaves(inst: Instance, idx: IndexSets, cap: int) -> SearchLeaves:
    """Covered-row search: a set of feasible points that contains every
    minimal solution, found without walking the selector product.

    The constraining rows are walked depth-first, fewest admissible
    columns first, from the zero point. A row whose threshold t_ij is
    already reached at x_j for some admissible j is skipped; otherwise the
    search branches on each admissible j, raising x_j to t_ij. Every leaf
    is feasible, since each row was met when passed and coordinates only
    rise. Every minimal solution x* is a leaf: following, at each branched
    row, a column with t_ij <= x*_j keeps the partial point below x*, and a
    feasible point below x* equals x*.

    ``idx`` is the index sets of the feasible instance. ``cap`` bounds
    the search nodes, one per column assignment tried; the search raises
    CapExceededError when it would try one more.
    """
    scale, thresholds, options = _ranked_options(inst, idx)
    distinct: dict[tuple[int, ...], None] = {}
    reached = 0
    for leaf, _ in _walk(inst.n, options, cap):
        distinct[leaf] = None
        reached += 1
    return SearchLeaves(
        inst.m, scale, thresholds, _fractions(scale, thresholds), options, list(distinct), reached
    )


def prune_leaves(found: SearchLeaves) -> list[tuple[tuple[int, ...], Candidate]]:
    """The minimal solutions among a search's leaves, which are exactly the
    minimal solutions of the system, each as its ranked leaf and its
    candidate.

    Every leaf is feasible, and the feasible set is upward closed, so a
    leaf is minimal iff it passes the row test (``_minimal_key``);
    every minimal solution is a leaf, and the leaves are distinct, so each
    comes out once. Only those leaves become candidates, in selector order.

    Each carries its canonical selector: per constraining row, the
    smallest admissible j with t_ij <= x_j. For a minimal point that
    selector builds it and is the lexicographically smallest selector that
    does: any selector e with x(e) = x* picks, per row, a column with
    t_ij <= x*_j, and the canonical columns give a feasible point below
    x*, hence x* itself.
    """
    keyed = []
    for leaf in found.points:
        key = _minimal_key(leaf, found.options)
        if key is not None:
            keyed.append((key, leaf))
    keyed.sort()
    values = found.values
    return [
        (leaf, _candidate(found.m, found.options, key, tuple([values[r] for r in leaf])))
        for key, leaf in keyed
    ]


def search_optimum(
    inst: Instance,
    objective: Callable[[Point], float],
    idx: IndexSets,
    cap: int,
) -> tuple[Candidate, float, int]:
    """Bound-pruned covered-row search for the minimum of a monotone
    objective, without building or pruning the minimal-solution set.

    The walk is search_leaves', with ``objective`` evaluated once per
    node on the partial point (``_ranked_objective``: a built-in
    objective on the per-rank floats, any other on the exact point). For
    a nondecreasing objective that value is a lower bound on every leaf
    below the node, so a subtree whose bound is strictly greater than the
    least leaf value so far cannot hold a better point and is cut. The
    cut is strict, so every minimal solution of optimal value is still
    reached.

    Every leaf is feasible and can lower the incumbent value, but only a
    minimal leaf can be returned: among those, the least (value, canonical
    selector key), which is the optimizer solve reports after pruning.
    Fractions are built only for the optimizer's coordinates.

    Returns the optimizer with its canonical selector, its value, and the
    number of leaves reached. ``idx`` and ``cap`` are search_leaves'.
    """
    scale, thresholds, options = _ranked_options(inst, idx)
    bound = _ranked_objective(objective, scale, thresholds)
    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    leaves = 0
    for leaf, value in _walk(inst.n, options, cap, bound):
        leaves += 1
        if best is not None and value > best[0]:
            continue
        key = _minimal_key(leaf, options)
        if key is None:
            continue
        if best is None or (value, key) < best[:2]:
            best = (value, key, leaf)
    value, key, leaf = best
    point = tuple([Fraction(thresholds[r], scale) for r in leaf])
    return _candidate(inst.m, options, key, point), value, leaves
