"""End-to-end resolution: feasibility gate, covered-row walk, row test,
and objective comparison.

For a constraining row i and an admissible column j, the least value of
x_j at which column j alone satisfies row i is the threshold
``t_ij = 1 + (b_i - epsilon) - a_ij``, solved from the row test
``a_ij + x_j - 1 >= b_i - epsilon``. A selector picks one admissible
column per constraining row; the componentwise maximum of the picked
single-row points is the candidate x(e), feasible by construction. Every
minimal solution is a candidate, and the feasible region is the union of
the boxes [x, ones] over the minimal solutions x. That is why a finite
scan gives the global optimum over an uncountable region: on each box a
monotone nondecreasing objective is least at the bottom corner, so the
global minimum is the best minimal solution. The report writer renders
the boxes as its cells (``files.render_report_json``), so nothing here
builds them.

``enumerate_candidates`` streams x(e) for every selector e of the product
E of the admissible sets, as the paper's algorithm does; |E| grows
exponentially with the number of rows. It wraps ``_product``, which
checks the cap and feasibility up front and yields each x(e) as its
selector key and scaled coordinates, as the enumerate command writes
them. ``solve`` and ``solve_unpruned`` walk the rows depth-first instead
(``_walk``): a row the partial point already satisfies is skipped rather
than branched on, so the work is bounded by that search tree rather than
by |E|. Every leaf is feasible and every minimal solution is a leaf, so
``solve`` keeps exactly the leaves that pass the row test
(``_minimal_key``): each nonzero x_j is the only column meeting some row,
and meets it at the threshold, so that lowering x_j breaks that row. The
test looks at one leaf at a time, never at pairs.
``solve_unpruned`` walks the same tree with the objective as a lower
bound: a monotone objective evaluated on a partial point bounds every leaf
below it, so subtrees that cannot beat the best leaf so far are cut, no
minimal set is built, and the optimizer is solve's. The cap bounds the
search nodes of either. Both gate on the index sets first: the system is
feasible iff every J(i) is non-empty, and an infeasible system gets a
report that carries only its index sets. A report stores each fact once:
|E| is read from the index sets (``SolveReport.selector_count``), and the
outcome fields default to an infeasible system's, so each path passes
only what its outcome has.

The walk, the row test and the objective run on the thresholds scaled
to integers. The search starts from the integers the instance holds (one
common denominator D, every grade times D), which the file reader builds
without a Fraction per grade. Every t_ij is then the integer
``D * t_ij = D + need_i - D*a_ij``, with ``need_i = D*b_i - D*epsilon``
(``_options``), and a point's coordinates are those integers, 0
included: D > 0, so every comparison has the rational outcome, and no
Fraction is built per grade or per pair. The exact value of a scaled
coordinate t is t / D. How the objective reads it is decided in
``objective._scaled_table``, once per call over every coordinate a
point can hold, 0 and every threshold (``_coordinates``): a built-in
carries its float kernel and reads the float t / D, with the bits it
gives on the exact point, and any other objective, a wrapper around a
built-in included, receives exact points.

The answer stays in those integers: ``solve`` and ``solve_unpruned``
return each reported point as its canonical key and its scaled
coordinates, and build no Fraction and no Candidate for it. The report's
``minimal_solutions`` and ``optimizer`` build their Candidates on first
read (``SolveReport``), with one Fraction per distinct coordinate of the
reported points (``SolveReport._reported``), for library callers: every
command writes the report from its integers and reads neither. One
builder, ``_candidates``, turns keyed points into Candidates for the
report and for ``enumerate_candidates``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .core import Instance, Point, _check_count
from .feasibility import IndexSets, InfeasibleSystemError, compute_index_sets
from .objective import Objective, _scaled_table, log_sum_exp

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


# A point as the search holds it: the column picked per constraining row
# (a selector key) and its scaled coordinates.
_Keyed = tuple[tuple[int, ...], tuple[int, ...]]
# A product point as _product yields it: its key and coordinates as lists,
# which its readers only iterate.
_Listed = tuple[list[int], list[int]]


def _candidates(
    idx: IndexSets, keyed: Iterable[_Keyed | _Listed], fractions: dict[int, Fraction]
) -> Iterator[Candidate]:
    """The Candidate of each keyed point: its selector picks key[k] for the
    k-th constraining row of idx and None for every vacuous row, and its
    point holds fractions[t] for each scaled coordinate t."""
    vacuous = idx.vacuous
    for key, point in keyed:
        picks = iter(key)
        selector = tuple([None if v else next(picks) for v in vacuous])
        yield Candidate(selector=selector, point=tuple([fractions[t] for t in point]))


def _product(inst: Instance, cap: int) -> tuple[IndexSets, set[int], Iterator[_Listed]]:
    """The selector product of a feasible system, checked before any point
    is built: its index sets, every scaled coordinate a point can hold
    (``_coordinates``), and the keyed point x(e) of every selector e, in
    lexicographic key order. A cap that is not an integer of at least 1
    raises ValueError, and an infeasible system or a product beyond
    ``cap`` raises at the call."""
    _check_count(cap, "cap")
    idx = compute_index_sets(inst)
    if not idx.feasible:
        raise InfeasibleSystemError(list(idx.empty_rows))
    count = selector_count(idx)
    if count > cap:
        raise CapExceededError(count, cap, f"enumeration needs {count} candidates")
    options = _options(inst, idx)
    n = inst.n

    def keyed() -> Iterator[_Listed]:
        for choice in itertools.product(*options.values()):
            x = [0] * n
            for j, t in choice:
                if t > x[j]:
                    x[j] = t
            yield [j for j, _ in choice], x

    return idx, _coordinates(options), keyed()


def enumerate_candidates(inst: Instance, cap: int = DEFAULT_CAP) -> Iterator[Candidate]:
    """Stream every candidate x(e) in lexicographic selector order.

    The total count, the product of the |J(i)|, is computed up front:
    a cap that is not an integer of at least 1 raises ValueError, and an
    infeasible system or a product beyond ``cap`` raises immediately,
    before any candidate is built.
    """
    idx, coordinates, keyed = _product(inst, cap)
    return _candidates(idx, keyed, {t: Fraction(t, inst._D) for t in coordinates})


# Per constraining row, its admissible columns with the integer D * t_ij.
_Options = dict[int, tuple[tuple[int, int], ...]]


def _options(inst: Instance, idx: IndexSets) -> _Options:
    """The options of the constraining rows, in row order: per row, its
    admissible columns in ascending order, each with its threshold scaled
    by the common denominator D of the instance. D * t_ij is
    ``D + need_i - D*a_ij``, an integer, and D > 0, so the scaled
    thresholds compare as the thresholds do."""
    A, b, base = inst._A, inst._b, inst._D - inst._eps
    sets = idx.sets
    options = {}
    for i in idx.constraining_rows:
        top, row = base + b[i], A[i]
        options[i] = tuple([(j, top - row[j]) for j in sets[i]])
    return options


def _coordinates(options: _Options) -> set[int]:
    """Every value a coordinate of a search leaf or a product candidate
    can hold: 0 and each scaled threshold."""
    return {0, *[t for row in options.values() for _, t in row]}


def _walk(
    n: int,
    options: _Options,
    cap: int,
    bound: tuple[dict[int, object], Callable[[tuple], float]] | None = None,
) -> Iterator[tuple[tuple[int, ...], float | None]]:
    """The covered-row walk over the options; yields (leaf, value).

    Rows are taken fewest admissible columns first, from the zero point. A
    row some column already meets is skipped; otherwise the walk branches
    on each admissible column, raising it to its threshold. ``cap`` bounds
    the nodes, one per column assignment tried. The branching depth can
    reach the row count, so the walk keeps an explicit stack rather than
    recursing. Each stack entry carries its node's point as a tuple of
    scaled coordinates, so a branch needs no undoing, and a leaf is the
    tuple itself.

    One path serves both modes. Each entry also carries its point's
    objective values v, so a child looks up the one coordinate it raises;
    without a bound v is None, and so is every value. With ``bound``, each
    node (the root included) is valued once on its partial point, and its
    subtree is cut iff that value is strictly greater than the incumbent,
    the least value of a leaf reached so far. A leaf's value is its
    node's value.
    """
    order = sorted(options.values(), key=len)
    depth = len(order)
    incumbent = math.inf
    nodes = -1  # every pop is a node but the root's
    values, rate = bound or (None, None)
    # Entries (k, x, v): walk on from row position k with the point x, whose
    # objective values are v (None without a bound; n >= 1, so a tuple of
    # values is never empty, hence true).
    stack = [(0, (0,) * n, bound and (values[0],) * n)]
    while stack:
        k, x, v = stack.pop()
        nodes += 1
        if nodes > cap:
            raise CapExceededError(nodes, cap, f"search reached {nodes} nodes")
        value = v and rate(v)
        if v and value > incumbent:
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
            if v and value < incumbent:
                incumbent = value
            yield x, value
            continue
        for c, t in reversed(order[k]):
            stack.append((k + 1, x[:c] + (t,) + x[c + 1:], v and v[:c] + (values[t],) + v[c + 1:]))


def _minimal_key(leaf: tuple[int, ...], options: _Options) -> tuple[int, ...] | None:
    """The canonical selector key of a feasible scaled point if it is
    minimal, None otherwise; one scan of the rows decides both.

    The key holds, per constraining row, the smallest admissible j with
    t_ij <= x_j: each row's options are in ascending column order, so it
    is the first column that meets the row. The point is minimal iff each
    nonzero x_j is the sole column meeting some row, and meets it at the
    threshold, so that lowering x_j breaks that row. Lowering one
    coordinate at a time is enough: the feasible set is upward closed, so
    a feasible point below x would leave x feasible with one coordinate
    lowered to it. A row's scan stops at its second meeting column, which
    makes the row tight for none; the last check stops at the first
    nonzero column that is tight for no row."""
    key = []
    tight = set()
    for row in options.values():
        first = -1
        for c, t in row:
            if leaf[c] >= t:
                if first >= 0:
                    break
                first, at = c, t
        else:
            if leaf[first] == at:
                tight.add(first)
        key.append(first)
    for c, v in enumerate(leaf):
        if v and c not in tight:
            return None
    return tuple(key)


@dataclass(frozen=True)
class SolveReport:
    """Everything the resolution produced.

    index_sets carries the feasibility verdict: index_sets.feasible, and
    index_sets.empty_rows naming the rows with an empty J(i). It also
    gives selector_count, which is read from it, not stored: |E| for a
    feasible system and None otherwise. The outcome fields default to
    what an infeasible system has, no leaves, no minimal values and no
    optimal value, so each solve path passes only what its outcome holds.
    candidates_enumerated counts the search leaves reached, duplicates
    included (for solve_unpruned, those the bound did not cut).
    minimal_values holds the objective value of each minimal solution, in
    the same order. solve_unpruned leaves minimal_solutions and
    minimal_values empty even when an optimizer is found, since it never
    builds the minimal set. The report holds no cells:
    files.render_report_json derives one box [x, ones] per minimal
    solution x as it writes the report.

    The answer is held as the search left it: ``_D`` is the instance's
    common denominator, ``_minimal`` holds each minimal point as its
    canonical key and its scaled coordinates, in key order, and
    ``_optimizer`` holds the optimizer's. A key picks one column per
    constraining row of index_sets. ``_reported``, built on first read,
    is the set of every distinct scaled coordinate t of these points: the
    one statement of which coordinates a report shows. minimal_solutions
    and optimizer build their Candidates from the keyed points on first
    read and keep them, with one Fraction t / D per t of ``_reported``,
    shared by both. The commands write the report from the integers, one
    text per t of ``_reported`` (``files._report_writers``), and build
    neither.
    """

    index_sets: IndexSets
    candidates_enumerated: int = 0
    minimal_values: tuple[float, ...] = ()
    optimal_value: float | None = None
    timing: dict[str, float] = field(default_factory=dict)
    _D: int = field(default=1, repr=False)
    _minimal: tuple[_Keyed, ...] = field(default=(), repr=False)
    _optimizer: _Keyed | None = field(default=None, repr=False)

    @property
    def selector_count(self) -> int | None:
        """|E|, the product of the |J(i)|, or None for an infeasible
        system."""
        return selector_count(self.index_sets) if self.index_sets.feasible else None

    # functools.cached_property keeps a built value in the instance dict,
    # which a frozen dataclass leaves writable.
    @cached_property
    def _reported(self) -> frozenset[int]:
        """Every distinct scaled coordinate of the reported points: the
        minimal points and the optimizer. solve's optimizer is one of
        _minimal; solve_unpruned's is the only point it keeps."""
        keyed = self._minimal if self._optimizer is None else (*self._minimal, self._optimizer)
        return frozenset().union(*[point for _, point in keyed])

    @cached_property
    def _fractions(self) -> dict[int, Fraction]:
        """One Fraction t / D per coordinate t of ``_reported``, shared by
        the Candidates."""
        return {t: Fraction(t, self._D) for t in self._reported}

    @cached_property
    def minimal_solutions(self) -> tuple[Candidate, ...]:
        """The exact minimal solutions, each with its canonical selector,
        in selector order."""
        return tuple(_candidates(self.index_sets, self._minimal, self._fractions))

    @cached_property
    def optimizer(self) -> Candidate | None:
        """The minimal solution of least (objective value, selector), or
        None for an infeasible system."""
        keyed = [] if self._optimizer is None else [self._optimizer]
        return next(_candidates(self.index_sets, keyed, self._fractions), None)


def solve(
    inst: Instance,
    objective: Objective = log_sum_exp,
    cap: int = DEFAULT_CAP,
) -> SolveReport:
    """Full resolution: decide feasibility, walk the covered-row search,
    keep the leaves that pass the row test (the exact minimal-solution
    set), and minimize the objective over them.

    Every leaf of the walk is feasible, since each row was met when passed
    and coordinates only rise. Every minimal solution x* is a leaf:
    following, at each branched row, a column with t_ij <= x*_j keeps the
    partial point below x*, and a feasible point below x* equals x*. The
    feasible set is upward closed, so a leaf is minimal iff it passes the
    row test (``_minimal_key``), and each distinct leaf is tested once.

    Each minimal solution carries its canonical selector: per constraining
    row, the smallest admissible j with t_ij <= x_j. That selector builds
    the point and is the lexicographically smallest selector that does:
    any selector e with x(e) = x* picks, per row, a column with
    t_ij <= x*_j, and the canonical columns give a feasible point below
    x*, hence x* itself. minimal_solutions come in selector order.

    The returned optimizer is the global minimum of the objective over the
    entire feasible region, provided the objective is monotone
    nondecreasing under the componentwise order. Ties between minimal
    solutions break toward the smaller objective value, then the
    lexicographically smallest selector. The objective is evaluated once
    per minimal solution.

    The report keeps the minimal set as keys and scaled points; its
    Candidates are built when first read (``SolveReport``).

    ``cap`` bounds the search nodes; past it the search raises
    CapExceededError. A cap that is not an integer of at least 1 raises
    ValueError.
    """
    _check_count(cap, "cap")
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    t_idx = time.perf_counter()
    if not idx.feasible:
        return SolveReport(idx, timing={"total": time.perf_counter() - t0})

    options = _options(inst, idx)
    d = inst._D
    # Each distinct leaf once, in the order first reached, and the count
    # of leaves reached; the dict is dropped after the row test.
    leaves = {}
    reached = 0
    for leaf, _ in _walk(inst.n, options, cap):
        reached += 1
        leaves[leaf] = None
    t_search = time.perf_counter()
    keyed = []
    for leaf in leaves:
        key = _minimal_key(leaf, options)
        if key is not None:
            keyed.append((key, leaf))
    del leaves
    keyed.sort()
    t_prune = time.perf_counter()
    point_values, rate = _scaled_table(objective, d, _coordinates(options))
    values = tuple([rate(tuple([point_values[t] for t in leaf])) for _, leaf in keyed])
    # keyed is in canonical selector order, and distinct minimal points
    # have distinct canonical selectors, so the first least value is the
    # least (value, selector key).
    value = min(values)
    t_end = time.perf_counter()

    return SolveReport(
        index_sets=idx,
        candidates_enumerated=reached,
        minimal_values=values,
        optimal_value=value,
        timing={
            "index_sets": t_idx - t0,
            "candidates": t_search - t_idx,
            "prune": t_prune - t_search,
            "select": t_end - t_prune,
            "total": t_end - t0,
        },
        _D=d,
        _minimal=tuple(keyed),
        _optimizer=keyed[values.index(value)],
    )


def solve_unpruned(
    inst: Instance,
    objective: Objective = log_sum_exp,
    cap: int = DEFAULT_CAP,
) -> SolveReport:
    """Resolution without the minimal-solution set: a bound-pruned
    covered-row walk for the optimizer alone.

    The walk is solve's, with the objective evaluated once per search
    node on the partial point (``objective._scaled_table``). For a
    nondecreasing objective that value is a lower bound on every leaf
    below the node, so a subtree whose value is strictly greater than the
    least leaf value so far is cut. The cut is strict, so every minimal
    solution of optimal value is still reached.

    Every leaf is feasible and can lower that incumbent, but only a leaf
    that passes solve's row test can be returned: among those, the least
    (value, canonical selector key), which is solve's optimizer with its
    selector and value. No leaf is worse than the best minimal leaf before
    it, so none is skipped by value ahead of the row test: the walk yields
    a leaf only when its value is at or below the incumbent, and the
    incumbent is the least value of all leaves reached before, minimal or
    not.

    candidates_enumerated counts the leaves reached; the report carries no
    minimal-solution set. ``cap`` is solve's. The bound is sound only for
    a monotone nondecreasing objective: under any other, it can cut every
    leaf that passes the row test, and then ValueError is raised.
    """
    _check_count(cap, "cap")
    t0 = time.perf_counter()
    idx = compute_index_sets(inst)
    t_idx = time.perf_counter()
    if not idx.feasible:
        return SolveReport(idx, timing={"total": time.perf_counter() - t0})

    options = _options(inst, idx)
    d = inst._D
    bound = _scaled_table(objective, d, _coordinates(options))
    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    leaves = 0
    for leaf, value in _walk(inst.n, options, cap, bound):
        leaves += 1
        key = _minimal_key(leaf, options)
        if key is not None and (best is None or (value, key) < best[:2]):
            best = (value, key, leaf)
    if best is None:
        raise ValueError(
            "the bound cut every minimal leaf, which only an objective that is"
            " not monotone nondecreasing can cause"
        )
    value, key, leaf = best
    t_end = time.perf_counter()

    return SolveReport(
        index_sets=idx,
        candidates_enumerated=leaves,
        optimal_value=value,
        timing={
            "index_sets": t_idx - t0,
            "candidates": t_end - t_idx,
            "total": t_end - t0,
        },
        _D=d,
        _optimizer=(key, leaf),
    )
