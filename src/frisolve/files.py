"""Instance files and structured reports.

An instance file is a single JSON document: required members "A" (array of
m arrays of n numbers) and "b" (array of m numbers), optional "epsilon"
(number, default 0) and "name" (string). Grades are parsed with an exact
decimal hook, so a literal like 0.9463 becomes the rational 9463/10000
rather than the nearest binary float; solver arithmetic then reproduces
pencil-and-paper results exactly. A literal without an exponent is built
from integers, the digits over a power of ten, which is the same rational
Fraction(literal) finds by its regex. A numeric literal may carry at most
50 mantissa digits and a decimal exponent within +-400, so that parsing
stays cheap; every float repr fits. A longer literal is rejected with the
member that holds it named.

On output, grades are emitted as their float value, whose shortest repr
round-trips to the same rational for any grade with at most 15 significant
decimal digits (every file-parsed or generated grade qualifies). The
conversion is the true division of numerator by denominator, the same
correctly rounded float that float() of the Fraction gives. Structured
reports are JSON with a fixed key order and no volatile fields by default,
so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_key
from pathlib import Path
from typing import Any, Optional

from .core import Instance, Point
from .solver import SolveReport
from .structure import Selector

_ALLOWED_KEYS = {"A", "b", "epsilon", "name"}
# What json.dumps(value) calls with its default arguments.
_encode = json.JSONEncoder().encode
MAX_DIGITS = 50
MAX_EXPONENT = 400


class InstanceFormatError(ValueError):
    """A file failed to parse as an instance; the message names the
    offending member."""


class _OutOfBounds:
    """A numeric literal beyond the parse bounds, kept as its text until
    the member that holds it is known."""

    def __init__(self, literal: str):
        self.literal = literal

    def __repr__(self) -> str:
        return self.literal if len(self.literal) <= 40 else self.literal[:37] + "..."


def _within_bounds(literal: str) -> bool:
    if len(literal) <= MAX_DIGITS and "e" not in literal and "E" not in literal:
        return True
    mantissa, _, exponent = literal.replace("E", "e").partition("e")
    if len(mantissa) - mantissa.startswith("-") - ("." in mantissa) > MAX_DIGITS:
        return False
    exponent = exponent.lstrip("+-").lstrip("0")
    return len(exponent) <= len(str(MAX_EXPONENT)) and int(exponent or 0) <= MAX_EXPONENT


def _parse_float(literal: str) -> Fraction | _OutOfBounds:
    if len(literal) <= MAX_DIGITS and "e" not in literal and "E" not in literal:
        # A JSON float literal without an exponent is [-]digits.digits:
        # exactly the integer of its digits over 10 to the fraction length.
        whole, _, fraction = literal.partition(".")
        return Fraction(int(whole + fraction), 10 ** len(fraction))
    return Fraction(literal) if _within_bounds(literal) else _OutOfBounds(literal)


def _parse_int(literal: str) -> int | _OutOfBounds:
    return int(literal) if _within_bounds(literal) else _OutOfBounds(literal)


def _require_number(value: Any, label: str) -> Fraction | int:
    if isinstance(value, _OutOfBounds):
        raise InstanceFormatError(
            f"{label} is out of the parse bounds (at most {MAX_DIGITS} digits and a "
            f"decimal exponent within +-{MAX_EXPONENT}): {value!r}"
        )
    # bool is an int subclass, but true/false in a grade slot is a mistake
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InstanceFormatError(f"{label} is not a number: {value!r}")
    return value


def parse_instance_text(text: str) -> tuple[Instance, Optional[str]]:
    """Parse an instance document; returns the instance and its optional
    name. Raises InstanceFormatError with the offending field named."""
    try:
        data = json.loads(text, parse_float=_parse_float, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError("nested too deeply to parse") from exc
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
    this round-trips exactly. The true division of numerator by
    denominator is what float(value) computes, without its pure-Python
    call."""
    return value.numerator / value.denominator


def _compact_json(value: Any) -> str:
    """json.dumps with leaf arrays kept on one line, so points and matrix
    rows read as vectors. Output is a pure function of the data.

    Keys go through encode_basestring_ascii, the encoder json.dumps uses
    for a str, so they come out as it writes them. A leaf array that the
    document holds more than once (one list object in several places) is
    rendered once.
    """
    leaves: dict[int, str] = {}

    def render(value: Any, pad: str) -> str:
        if isinstance(value, list):
            text = leaves.get(id(value))
            if text is not None:
                return text
            if not value:
                return "[]"
            if not any(map(isinstance, value, repeat((dict, list)))):
                # The default encoder already writes one line with ", ".
                text = leaves[id(value)] = _encode(value)
                return text
            inner = pad + "  "
            items = [inner + render(v, inner) for v in value]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = pad + "  "
            items = [f"{inner}{_encode_key(k)}: {render(v, inner)}" for k, v in value.items()]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        return _encode(value)

    return render(value, "")


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


def _candidate_entry(cand, value: float, point: list[float]) -> dict[str, Any]:
    return {
        "selector": _selector_list(cand.selector),
        "point": point,
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
    that would break run-to-run byte identity. The cells are derived
    here: the feasible region is the union of the boxes [x, ones] over the
    minimal solutions x, one cell each. Each point is converted once: a
    minimal point's list is shared by its entry, the optimizer's and its
    cell's lower corner, and one all-ones list serves every upper corner.
    """
    converted: dict[int, list[float]] = {}  # id of a point in report -> its list

    def numbers(point: Point) -> list[float]:
        listed = converted.get(id(point))
        if listed is None:
            listed = converted[id(point)] = [grade_number(v) for v in point]
        return listed

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
    minimal = report.minimal_solutions
    data["minimal_solutions"] = [
        _candidate_entry(c, v, numbers(c.point))
        for c, v in zip(minimal, report.minimal_values)
    ]
    optimizer = report.optimizer
    data["optimizer"] = (
        _candidate_entry(optimizer, report.optimal_value, numbers(optimizer.point))
        if optimizer
        else None
    )
    data["optimal_value"] = report.optimal_value
    upper = [1.0] * len(minimal[0].point) if minimal else []
    data["cells"] = [{"lower": numbers(c.point), "upper": upper} for c in minimal]
    data["display_precision"] = 4
    if include_timings:
        data["timings"] = dict(report.timing)
    return data


def render_report_json(data: dict[str, Any]) -> str:
    return _compact_json(data) + "\n"
