"""Shared fixtures: the golden 5x7 instance with its hand-checked values,
random-instance streams and the generator's reference, every leaf of the
covered-row walk, the list-based reference of the row test, the
product-then-dominance reference, the oracle's Fraction references, the
Fraction references of Instance's checks and of the instance reader, the
generic JSON writer with the instance and report references it renders,
the Candidate-based references of the text report and the enumerate
listing, and the acceptance-criteria summary hook."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import le
from typing import Any, Iterable, Optional

import pytest

from frisolve import (
    DEFAULT_CAP,
    Candidate,
    Instance,
    Point,
    SolveReport,
    compute_index_sets,
    enumerate_candidates,
    generate_instance,
    is_member,
)
from frisolve.core import _short_decimal
from frisolve.oracle import LatticeGrid
from frisolve.solver import _Options, _options, _walk

# The worked 5x7 system. Every expected value below was recomputed by hand
# or by an independent brute-force script before the solver existed.
GOLDEN_JSON = """\
{
  "name": "demo-5x7",
  "A": [
    [0.8147, 0.0975, 0.1576, 0.1418, 0.6557, 0.7577, 0.7060],
    [0.2784, 0.9058, 0.9705, 0.4217, 0.0357, 0.7431, 0.0318],
    [0.1270, 0.5468, 0.9571, 0.9157, 0.8491, 0.3922, 0.2769],
    [0.5134, 0.3575, 0.4853, 0.7922, 0.9339, 0.6554, 0.0461],
    [0.6323, 0.4648, 0.8002, 0.6594, 0.6787, 0.1711, 0.0971]
  ],
  "b": [0.7898, 0.8456, 0.9463, 0.7094, 0.7547]
}
"""


def F(s: str) -> Fraction:
    return Fraction(s)


def fpoint(*coords: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


GOLDEN_COMPOSE_ONES = fpoint("0.8147", "0.9705", "0.9571", "0.9339", "0.8002")

# 0-based column sets per row
GOLDEN_J = ((0,), (1, 2), (2,), (3, 4), (2,))

# 0-based selector -> candidate point, in enumeration (lexicographic) order
GOLDEN_CANDIDATES = {
    (0, 1, 2, 3, 2): fpoint("0.9751", "0.9398", "0.9892", "0.9172", "0", "0", "0"),
    (0, 1, 2, 4, 2): fpoint("0.9751", "0.9398", "0.9892", "0", "0.7755", "0", "0"),
    (0, 2, 2, 3, 2): fpoint("0.9751", "0", "0.9892", "0.9172", "0", "0", "0"),
    (0, 2, 2, 4, 2): fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0"),
}

GOLDEN_MINIMAL = {
    fpoint("0.9751", "0", "0.9892", "0.9172", "0", "0", "0"),
    fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0"),
}

GOLDEN_OPTIMIZER_SELECTOR = (0, 2, 2, 4, 2)
GOLDEN_OPTIMIZER_POINT = fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0")
GOLDEN_OPT_VALUE = 2.4434       # 4-decimal, tolerance 5e-4
GOLDEN_OTHER_VALUE = 2.4717     # f at the other minimal solution

# Small instance checked entirely by hand: J(1) = J(2) = {1, 2},
# four candidates, three of them minimal.
HAND_2X2 = Instance(
    A=(("0.9", "0.8"), ("0.7", "0.95")),
    b=("0.6", "0.5"),
)
HAND_2X2_CANDIDATES = {
    (0, 0): fpoint("0.8", "0"),
    (0, 1): fpoint("0.7", "0.55"),
    (1, 0): fpoint("0.8", "0.8"),
    (1, 1): fpoint("0", "0.8"),
}
HAND_2X2_MINIMAL = {
    fpoint("0.8", "0"),
    fpoint("0.7", "0.55"),
    fpoint("0", "0.8"),
}


@pytest.fixture(scope="session")
def golden() -> Instance:
    from frisolve import parse_instance_text

    inst, name = parse_instance_text(GOLDEN_JSON)
    assert name == "demo-5x7"
    return inst


def random_instances(count: int, base_seed: int, density: float = 1.0, feasible: bool = True):
    """Deterministic stream of generated instances with m, n in 2..5."""
    out = []
    for k in range(count):
        m = 2 + k % 4
        n = 2 + (k * 7) % 4
        inst, name = generate_instance(
            m, n, seed=base_seed + k, feasible=feasible, density=density
        )
        out.append((inst, name))
    return out


def reference_generate(
    m: int, n: int, seed: int, feasible: bool = True, density: float = 1.0
) -> tuple[Instance, str]:
    """generate_instance written out as it was first built: randrange for
    every tick, and Instance(...) from the Fractions tick/10000."""
    rng = random.Random(seed)
    A = [[rng.randrange(10001) for _ in range(n)] for _ in range(m)]
    bad_row = rng.randrange(m) if not feasible else None
    if bad_row is not None:
        A[bad_row] = [min(a, 9999) for a in A[bad_row]]
    b = []
    for i in range(m):
        amax = max(A[i])
        if i == bad_row:
            b.append(amax + 1 + rng.randrange(10000 - amax))
        else:
            u = rng.random() ** density
            b.append(min(int(u * (amax / 10000) * 10000), amax))
    grades = [[Fraction(a, 10000) for a in row] for row in A]
    mode = "feasible" if feasible else "infeasible"
    name = f"random-{m}x{n}-seed{seed}-{mode}"
    return Instance(A=grades, b=[Fraction(t, 10000) for t in b]), name


def selector_key(selector: tuple[Optional[int], ...]) -> tuple[int, ...]:
    """A selector's ordering key: the chosen columns of constraining rows
    only. Vacuous positions are the same in every selector of an instance,
    so dropping them keeps the lexicographic order."""
    return tuple(c for c in selector if c is not None)


def walk_leaves(inst: Instance) -> list[Point]:
    """Every leaf the covered-row walk of a feasible instance reaches, as
    an exact point, duplicates included, in the order reached."""
    options = _options(inst, compute_index_sets(inst))
    return [
        tuple(Fraction(t, inst._D) for t in leaf)
        for leaf, _ in _walk(inst.n, options, DEFAULT_CAP)
    ]


def reference_minimal_key(leaf: tuple[int, ...], options: _Options) -> tuple[int, ...] | None:
    """solver._minimal_key by its definition: per row, the list of every
    column that meets it; the first is the row's key entry, and a lone
    column that meets the row at its threshold is tight. The point is
    minimal iff every nonzero coordinate is tight for some row."""
    key = []
    tight = set()
    for row in options.values():
        met = [(c, t) for c, t in row if leaf[c] >= t]
        c, t = met[0]
        key.append(c)
        if len(met) == 1 and leaf[c] == t:
            tight.add(c)
    if all(c in tight for c, v in enumerate(leaf) if v):
        return tuple(key)
    return None


def _undominated(points: Iterable[tuple]) -> list[tuple]:
    """The points of a set of distinct tuples that no other point lies
    below componentwise.

    A point below another and distinct from it comes first in lexicographic
    order, so after sorting only earlier survivors can dominate: one pass
    suffices.
    """
    kept: list[tuple] = []
    for p in sorted(points):
        if not any(all(map(le, k, p)) for k in kept):
            kept.append(p)
    return kept


def prune_to_minimal(candidates: Iterable[Candidate]) -> list[Candidate]:
    """The paper's reference pruning: filter candidates down to the
    dominance-minimal points, by pairwise comparison.

    A candidate is dropped iff some other candidate's point is <= it
    componentwise and differs somewhere; exact duplicates collapse to the
    one with the lexicographically smallest selector. Comparisons are
    exact: each coordinate is replaced by its rank among all coordinate
    values, which keeps every comparison's outcome.

    Survivors come back in selector order. When the input holds only
    feasible points and every minimal solution among them, as the full
    candidate set and the covered-row search's leaves do, the survivors
    are exactly the minimal solutions of the system.
    """
    by_point: dict[Point, Candidate] = {}
    for cand in candidates:
        kept = by_point.get(cand.point)
        if kept is None or selector_key(cand.selector) < selector_key(kept.selector):
            by_point[cand.point] = cand
    rank = {v: r for r, v in enumerate(sorted({v for p in by_point for v in p}))}
    by_ranks = {tuple(rank[v] for v in p): cand for p, cand in by_point.items()}
    survivors = [by_ranks[ranks] for ranks in _undominated(by_ranks)]
    survivors.sort(key=lambda c: selector_key(c.selector))
    return survivors


def coordinate_threshold(inst: Instance, i: int, j: int) -> Fraction:
    """The least ``x_j`` at which column j alone satisfies row i, on
    Fractions: ``t_ij = 1 + (b_i - epsilon) - a_ij``, solved from the row
    test ``a_ij + x_j - 1 >= b_i - epsilon``.

    It lies in (0, 1] exactly when row i constrains (``b_i > epsilon``) and
    column j is admissible for it (``a_ij >= b_i - epsilon``). The sum is
    taken over the product of the three denominators and reduced once, by
    the one Fraction it builds.
    """
    b, eps, a = inst.b[i], inst.epsilon, inst.A[i][j]
    bd, ed, ad = b.denominator, eps.denominator, a.denominator
    d = bd * ed * ad
    return Fraction(d + b.numerator * ed * ad - eps.numerator * bd * ad - a.numerator * bd * ed, d)


def reference_grid(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """The oracle's grid columns on Fractions: per column, 0 and 1 plus
    the threshold coordinate_threshold gives for every constraining row
    the column is admissible for, sorted."""
    columns = [{Fraction(0), Fraction(1)} for _ in range(inst.n)]
    for i, (row, bi) in enumerate(zip(inst.A, inst.b)):
        need = bi - inst.epsilon
        if need > 0:
            for j, a in enumerate(row):
                if a >= need:
                    columns[j].add(coordinate_threshold(inst, i, j))
    return tuple(tuple(sorted(c)) for c in columns)


def grid_coords(inst: Instance, grid: LatticeGrid) -> tuple[tuple[Fraction, ...], ...]:
    """The grid's columns as Fractions: each integer value over the
    instance's common denominator."""
    return tuple(tuple(Fraction(k, inst._D) for k in column) for column in grid.columns)


def pairwise_minimal(inst: Instance) -> list[Point]:
    """Every point of the reference grid that core.is_member accepts and
    that no other such point sits weakly below, sorted."""
    members = [p for p in itertools.product(*reference_grid(inst)) if is_member(inst, p)]
    return sorted(
        p for p in members
        if not any(q != p and all(qj <= pj for qj, pj in zip(q, p)) for q in members)
    )


def fraction_is_minimal_point(inst: Instance, x: Point) -> bool:
    """The Fraction definition of oracle.is_minimal_point: every
    constraining row is met, and each nonzero x_j is the sole column
    meeting some constraining row, with equality."""
    nonzero = [j for j, xj in enumerate(x) if xj != 0]
    tight = set()
    for row, bi in zip(inst.A, inst.b):
        threshold = bi - inst.epsilon
        if threshold <= 0:
            continue
        meeting = [j for j in nonzero if row[j] + x[j] - 1 >= threshold]
        if not meeting:
            return False
        if len(meeting) == 1 and row[meeting[0]] + x[meeting[0]] - 1 == threshold:
            tight.add(meeting[0])
    return tight.issuperset(nonzero)


def reference_fraction(value: Any, label: str) -> Fraction:
    """value as an exact rational, or the ValueError Instance(...) words
    for a value that is not one. A bool is not a number, as in the file
    reader."""
    if isinstance(value, bool):
        raise ValueError(f"{label} is not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{label} is not finite: {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label} is not a number: {value!r}") from exc


def reference_grade(value: Any, label: str) -> Fraction:
    """value as an exact rational in [0, 1], tested on its Fraction, or the
    ValueError the library words for a value that is not one."""
    grade = reference_fraction(value, label)
    if not 0 <= grade <= 1:
        raise ValueError(f"{label} out of [0,1]: {_short_decimal(grade)}")
    return grade


def reference_instance(
    A: Iterable[Iterable[Any]], b: Iterable[Any], epsilon: Any = 0
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...], Fraction]:
    """Instance(...)'s checks on Fractions, in the order they ran before
    the instance held integers: per row, each entry converted and tested
    against [0, 1] on its Fraction, then the row's emptiness and width;
    then b likewise, its length, and epsilon, converted and at least 0.
    Returns A, b and epsilon as Fractions, or raises ValueError with the
    message Instance(...) must give for an input with one defect."""

    def grades(values: Iterable[Any], label) -> tuple[Fraction, ...]:
        return tuple([reference_grade(v, label(k)) for k, v in enumerate(values)])

    rows = tuple(A)
    if not rows:
        raise ValueError("A must have at least one row")
    matrix = []
    for i, row in enumerate(rows):
        entries = grades(row, lambda j: f"A[{i + 1}][{j + 1}]")
        if not entries:
            raise ValueError(f"A[{i + 1}] must have at least one column")
        if matrix and len(entries) != len(matrix[0]):
            raise ValueError(f"A[{i + 1}] has {len(entries)} columns, expected {len(matrix[0])}")
        matrix.append(entries)
    thresholds = grades(b, lambda i: f"b[{i + 1}]")
    if len(thresholds) != len(matrix):
        raise ValueError(f"b has {len(thresholds)} entries, expected {len(matrix)}")
    eps = reference_fraction(epsilon, "epsilon")
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    return tuple(matrix), thresholds, eps


def reference_parse(text: str) -> tuple[Instance, Optional[str]]:
    """The instance reader on Fractions, for documents of the right shape
    (A a non-empty array of non-empty arrays, b a non-empty array) whose
    literals lie within the parse bounds: json.loads with a Fraction per
    float literal and an int per integer literal, the reader's test that
    each grade slot holds a number and the name is a string, then
    reference_instance, whose checks word every range and shape error.
    Raises ValueError with the message the reader must give."""
    data = json.loads(text, parse_float=Fraction)

    def numbers(values: list, label) -> list:
        for k, v in enumerate(values):
            if type(v) not in (int, Fraction):
                raise ValueError(f"{label(k)} is not a number: {v!r}")
        return values

    A = [numbers(row, lambda j, i=i: f"A[{i + 1}][{j + 1}]") for i, row in enumerate(data["A"])]
    b = numbers(data["b"], lambda i: f"b[{i + 1}]")
    epsilon = numbers([data.get("epsilon", 0)], lambda _: "epsilon")[0]
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"name must be a string: {name!r}")
    A, b, epsilon = reference_instance(A, b, epsilon)
    return Instance(A=A, b=b, epsilon=epsilon), name


# What json.dumps(value) calls with its default arguments.
_encode = json.JSONEncoder().encode


def compact_json(value: Any) -> str:
    """json.dumps with leaf arrays kept on one line, so points and matrix
    rows read as vectors; everything else is indented by two spaces. The
    generic writer that files.serialize_instance and
    files.render_report_json each write one fixed shape of, byte for byte.

    Keys go through encode_basestring_ascii, the encoder json.dumps uses
    for a str, so they come out as it writes them.
    """
    def render(value: Any, pad: str) -> str:
        if isinstance(value, list):
            if not value:
                return "[]"
            if not any(map(isinstance, value, repeat((dict, list)))):
                # The default encoder already writes one line with ", ".
                return _encode(value)
            inner = pad + "  "
            items = [inner + render(v, inner) for v in value]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = pad + "  "
            items = [
                f"{inner}{encode_basestring_ascii(k)}: {render(v, inner)}"
                for k, v in value.items()
            ]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        return _encode(value)

    return render(value, "")


def reference_instance_json(inst: Instance, name: Optional[str] = None) -> str:
    """An instance's file form as a dict rendered by the generic writer:
    the reference for files.serialize_instance."""
    doc: dict[str, Any] = {}
    if name is not None:
        doc["name"] = name
    doc["A"] = [[float(a) for a in row] for row in inst.A]
    doc["b"] = [float(v) for v in inst.b]
    if inst.epsilon != 0:
        doc["epsilon"] = float(inst.epsilon)
    return compact_json(doc) + "\n"


def build_report_data(
    report: SolveReport,
    name: Optional[str] = None,
    include_timings: bool = False,
) -> dict[str, Any]:
    """The structured-output document as a dict, built field by field
    from the report: the reference that files.render_report_json writes
    in one pass. Key order is fixed; one cell [x, ones] per minimal
    solution x."""
    data: dict[str, Any] = {}
    if name is not None:
        data["name"] = name
    data["feasible"] = report.index_sets.feasible
    if not report.index_sets.feasible:
        data["empty_rows"] = [i + 1 for i in report.index_sets.empty_rows]
    data["J"] = [[j + 1 for j in s] for s in report.index_sets.sets]
    data["vacuous_rows"] = [i + 1 for i, v in enumerate(report.index_sets.vacuous) if v]
    data["E_size"] = report.selector_count
    data["candidates_enumerated"] = report.candidates_enumerated

    def entry(cand: Candidate, value: Any) -> dict[str, Any]:
        return {
            "selector": [c + 1 if c is not None else None for c in cand.selector],
            "point": [float(v) for v in cand.point],
            "objective_value": value,
        }

    minimal = report.minimal_solutions
    data["minimal_solutions"] = [entry(c, v) for c, v in zip(minimal, report.minimal_values)]
    optimizer = report.optimizer
    data["optimizer"] = entry(optimizer, report.optimal_value) if optimizer else None
    data["optimal_value"] = report.optimal_value
    data["cells"] = [
        {"lower": [float(v) for v in c.point], "upper": [1.0] * len(c.point)}
        for c in minimal
    ]
    data["display_precision"] = 4
    if include_timings:
        data["timings"] = dict(report.timing)
    return data


def reference_report_json(
    report: SolveReport,
    name: Optional[str] = None,
    include_timings: bool = False,
) -> str:
    """build_report_data rendered by the generic writer."""
    return compact_json(build_report_data(report, name, include_timings)) + "\n"


def _text_point(point: Point) -> str:
    return "[" + ", ".join(f"{float(v):.4f}" for v in point) + "]"


def _text_selector(selector: tuple[Optional[int], ...]) -> str:
    return "[" + ", ".join("-" if c is None else str(c + 1) for c in selector) + "]"


def reference_text_report(report: SolveReport, name: Optional[str], inst: Instance) -> str:
    """The text solve report as it was written from the report's
    Candidates, each coordinate the float of its Fraction to 4 decimals and
    "-" at each vacuous row of a selector: the reference for the text
    report, which writes from the report's integers."""
    if name is None:
        shown = "(unnamed)"
    else:
        shown = name if name.isprintable() else json.dumps(name)
    idx = report.index_sets
    lines = [f"instance: {shown} (m={inst.m}, n={inst.n})"]
    if not idx.feasible:
        rows = ", ".join(str(i + 1) for i in idx.empty_rows)
        lines.append(f"feasible: no (no admissible columns for row(s) {rows})")
        return "\n".join(lines) + "\n"
    for i, s in enumerate(idx.sets):
        mark = "  (vacuous)" if idx.vacuous[i] else ""
        lines.append(f"J({i + 1}) = {{{', '.join(str(j + 1) for j in s)}}}{mark}")
    lines.append(f"|E| = {report.selector_count}")
    minimal = report.minimal_solutions
    if minimal:
        lines.append(f"minimal solutions: {len(minimal)}")
        for cand, value in zip(minimal, report.minimal_values):
            lines.append(
                f"  e = {_text_selector(cand.selector)}  "
                f"x(e) = {_text_point(cand.point)}  f = {value:.4f}"
            )
    else:
        lines.append("minimal solutions: not computed (pruning skipped)")
    lines.append(f"optimizer: e = {_text_selector(report.optimizer.selector)}")
    lines.append(f"x* = {_text_point(report.optimizer.point)}")
    lines.append(f"f* = {report.optimal_value:.4f}")
    if minimal:
        lines.append(f"cells: {len(minimal)}")
    return "\n".join(lines) + "\n"


def reference_enumerate_listing(inst: Instance, cap: int = DEFAULT_CAP) -> str:
    """The enumerate listing as it was written from enumerate_candidates'
    Candidates, one line per candidate and the count last."""
    lines = [
        f"e = {_text_selector(c.selector)}  x(e) = {_text_point(c.point)}"
        for c in enumerate_candidates(inst, cap)
    ]
    lines.append(f"|E| = {len(lines)}")
    return "\n".join(lines) + "\n"


# --- acceptance summary -----------------------------------------------------
# One line per criterion at the end of the run, independent of -q/-v.

CRITERIA_DESCRIPTIONS = {
    1: "golden composition at the top point and feasibility verdict",
    2: "golden admissible sets and selector count",
    3: "golden candidate vectors",
    4: "golden minimal-solution set",
    5: "golden optimizer and objective values",
    6: "solver equals brute-force oracle on 50 random instances",
    7: "optimal value lower-bounds 10^4 sampled feasible points per instance",
    8: "structural invariants (membership, closure, sandwich, path equality)",
    9: "byte-identical structured reports; pruned and unpruned optimum agree",
}

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        if report.skipped:
            _acceptance_results[num] = "SKIP"
        else:
            _acceptance_results[num] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown crash counts as failure
        _acceptance_results[num] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA_DESCRIPTIONS):
        outcome = _acceptance_results.get(num, "NOT RUN")
        desc = CRITERIA_DESCRIPTIONS[num]
        terminalreporter.write_line(f"criterion {num}: {outcome} - {desc}")
