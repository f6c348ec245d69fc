"""Instance files and structured reports.

An instance file is a single JSON document: required members "A" (array of
m arrays of n numbers) and "b" (array of m numbers), optional "epsilon"
(number, default 0) and "name" (string). Grades are parsed with an exact
decimal hook, so a literal like 0.9463 becomes the rational 9463/10000
rather than the nearest binary float; solver arithmetic then reproduces
pencil-and-paper results exactly.

On output, grades are emitted as their float value, whose shortest repr
round-trips to the same rational for any grade with at most 15 significant
decimal digits (every file-parsed or generated grade qualifies). Structured
reports are JSON with a fixed key order and no volatile fields by default,
so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .core import Instance, Point
from .solver import SolveReport
from .structure import Selector

_ALLOWED_KEYS = {"A", "b", "epsilon", "name"}


class InstanceFormatError(ValueError):
    """A file failed to parse as an instance; the message names the
    offending member."""


def _require_number(value: Any, label: str) -> Fraction | int:
    # bool is an int subclass, but true/false in a grade slot is a mistake
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InstanceFormatError(f"{label} is not a number: {value!r}")
    return value


def parse_instance_text(text: str) -> tuple[Instance, Optional[str]]:
    """Parse an instance document; returns the instance and its optional
    name. Raises InstanceFormatError with the offending field named."""
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object with members A and b")
    unknown = sorted(set(data) - _ALLOWED_KEYS)
    if unknown:
        raise InstanceFormatError(
            f"unknown member(s) {', '.join(unknown)}; allowed: A, b, epsilon, name"
        )
    for key in ("A", "b"):
        if key not in data:
            raise InstanceFormatError(f"missing required member {key}")

    rows = data["A"]
    if not isinstance(rows, list) or not rows:
        raise InstanceFormatError("A must be a non-empty array of rows")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise InstanceFormatError(f"A[{i + 1}] must be a non-empty array of numbers")
        matrix.append(tuple(_require_number(v, f"A[{i + 1}][{j + 1}]") for j, v in enumerate(row)))

    b = data["b"]
    if not isinstance(b, list) or not b:
        raise InstanceFormatError("b must be a non-empty array of numbers")
    thresholds = tuple(_require_number(v, f"b[{i + 1}]") for i, v in enumerate(b))

    epsilon = _require_number(data.get("epsilon", 0), "epsilon")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"name must be a string: {name!r}")

    try:
        inst = Instance(A=tuple(matrix), b=thresholds, epsilon=epsilon)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return inst, name


def load_instance(path: str | Path) -> tuple[Instance, Optional[str]]:
    """Read and parse an instance file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_instance_text(text)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def grade_number(value: Fraction) -> float:
    """Boundary conversion for output; see the module docstring for when
    this round-trips exactly."""
    return float(value)


def _numbers(point: Point) -> list[float]:
    return [grade_number(v) for v in point]


def _compact_json(value: Any, indent: int = 0) -> str:
    """json.dumps with leaf arrays kept on one line, so points and matrix
    rows read as vectors. Output is a pure function of the data."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {_compact_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list)) for v in value):
            return "[" + ", ".join(json.dumps(v) for v in value) + "]"
        items = [f"{pad}  {_compact_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def serialize_instance(inst: Instance, name: Optional[str] = None) -> str:
    """Render an instance back to its file form; parsing the result yields
    an equal instance for decimal-valued grades."""
    doc: dict[str, Any] = {}
    if name is not None:
        doc["name"] = name
    doc["A"] = [[grade_number(a) for a in row] for row in inst.A]
    doc["b"] = [grade_number(v) for v in inst.b]
    if inst.epsilon != 0:
        doc["epsilon"] = grade_number(inst.epsilon)
    return _compact_json(doc) + "\n"


def _selector_list(sel: Selector) -> list[Optional[int]]:
    return [c + 1 if c is not None else None for c in sel.columns]


def _candidate_entry(cand, value: float) -> dict[str, Any]:
    return {
        "selector": _selector_list(cand.selector),
        "point": _numbers(cand.point),
        "objective_value": value,
    }


def build_report_data(
    report: SolveReport,
    name: Optional[str] = None,
    include_timings: bool = False,
) -> dict[str, Any]:
    """Flatten a solve report into the structured-output document.

    Objective values are the ones the solver computed. Key order is fixed
    and timings are excluded unless asked for: wall clock is the one field
    that would break run-to-run byte identity.
    """
    data: dict[str, Any] = {}
    if name is not None:
        data["name"] = name
    data["feasible"] = report.verdict.feasible
    if not report.verdict.feasible:
        data["empty_rows"] = [i + 1 for i in report.verdict.empty_rows]
    data["J"] = [[j + 1 for j in s] for s in report.index_sets.sets]
    data["vacuous_rows"] = [i + 1 for i, v in enumerate(report.index_sets.vacuous) if v]
    data["E_size"] = report.selector_count
    data["candidates_enumerated"] = report.candidates_enumerated
    data["minimal_solutions"] = [
        _candidate_entry(c, v) for c, v in zip(report.minimal_solutions, report.minimal_values)
    ]
    data["optimizer"] = (
        _candidate_entry(report.optimizer, report.optimal_value) if report.optimizer else None
    )
    data["optimal_value"] = report.optimal_value
    data["cells"] = [
        {"lower": _numbers(lo), "upper": _numbers(hi)} for lo, hi in report.cells
    ]
    data["display_precision"] = 4
    if include_timings:
        data["timings"] = dict(report.timing)
    return data


def render_report_json(data: dict[str, Any]) -> str:
    return _compact_json(data) + "\n"
