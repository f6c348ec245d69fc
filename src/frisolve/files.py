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

Each value is validated once. The parser checks only that a grade slot
holds a number within the bounds; Instance then checks the range, and
keeps a parsed Fraction in [0, 1] as it is rather than converting it
again. The label that names a value in an error ("A[2][3]", "b[1]") is
built only for the value that fails, so a valid file builds none.

On output, grades are emitted as their float value, whose shortest repr
round-trips to the same rational for any grade with at most 15 significant
decimal digits (every file-parsed or generated grade qualifies). The
conversion is the true division of numerator by denominator, the same
correctly rounded float that float() of the Fraction gives. Structured
reports are JSON with a fixed key order and no volatile fields by default,
so identical inputs produce byte-identical reports. serialize_instance
and render_report_json write their fixed shapes in one pass, with the same
array and grade-array texts, leaf arrays on one line.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_key
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from .core import Instance, Point
from .solver import SolveReport
from .structure import Candidate

_ALLOWED_KEYS = {"A", "b", "epsilon", "name"}
# The types the parse hooks return for a number within the bounds.
_NUMBER_TYPES = frozenset((int, Fraction))
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


def _number_error(value: Any, label: str) -> InstanceFormatError:
    if isinstance(value, _OutOfBounds):
        return InstanceFormatError(
            f"{label} is out of the parse bounds (at most {MAX_DIGITS} digits and a "
            f"decimal exponent within +-{MAX_EXPONENT}): {value!r}"
        )
    return InstanceFormatError(f"{label} is not a number: {value!r}")


def _numbers(values: list, label: Callable[[int], str]) -> tuple:
    """The parsed values as a tuple, when each is an int or a Fraction.
    Otherwise raises for the first that is not, named by label(k); the
    label is built only then. bool is an int subclass, but true/false in
    a grade slot is a mistake, so its exact type is tested."""
    if _NUMBER_TYPES.issuperset(map(type, values)):
        return tuple(values)
    k = next(k for k, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
    raise _number_error(values[k], label(k))


# What json.loads(text, parse_float=..., parse_int=...) would build anew on
# every call.
_DECODER = json.JSONDecoder(parse_float=_parse_float, parse_int=_parse_int)


def parse_instance_text(text: str) -> tuple[Instance, Optional[str]]:
    """Parse an instance document; returns the instance and its optional
    name. Raises InstanceFormatError with the offending field named."""
    try:
        if text.startswith("\ufeff"):
            # json.loads's own check, with its message.
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
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
        matrix.append(_numbers(row, lambda j: f"A[{i + 1}][{j + 1}]"))

    b = data["b"]
    if not isinstance(b, list) or not b:
        raise InstanceFormatError("b must be a non-empty array of numbers")
    thresholds = _numbers(b, lambda i: f"b[{i + 1}]")

    epsilon = data.get("epsilon", 0)
    if type(epsilon) not in _NUMBER_TYPES:
        raise _number_error(epsilon, "epsilon")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"name must be a string: {name!r}")

    try:
        inst = Instance(A=tuple(matrix), b=thresholds, epsilon=epsilon)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return inst, name


def load_instance(path: str | Path) -> tuple[Instance, Optional[str]]:
    """Read and parse an instance file; a file that cannot be read, or
    whose bytes are not UTF-8, fails to parse."""
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise InstanceFormatError(f"cannot read {file}: {reason}") from exc
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


def _number(value: Any) -> str:
    """A value as json.dumps writes it: a finite float by its repr, and
    anything else (NaN, an infinity, None, an int) through the encoder."""
    return repr(value) if type(value) is float and isfinite(value) else _encode(value)


def _one_based(indices: Iterable[int]) -> str:
    return "[" + ", ".join([str(i + 1) for i in indices]) + "]"


def _selector_text(selector: tuple[Optional[int], ...]) -> str:
    return "[" + ", ".join(["null" if c is None else str(c + 1) for c in selector]) + "]"


def _array(items: list[str], pad: str) -> str:
    """An array of rendered items, one a line, for a member indented by pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _grades(values: Iterable[Fraction]) -> str:
    """A grade array on one line, each grade as its float (grade_number,
    inline) by its repr, which is how json.dumps writes a finite float."""
    return "[" + ", ".join([repr(v.numerator / v.denominator) for v in values]) + "]"


def serialize_instance(inst: Instance, name: Optional[str] = None) -> str:
    """Render an instance back to its file form; parsing the result yields
    an equal instance for decimal-valued grades."""
    members = []
    if name is not None:
        members.append('"name": ' + _encode_key(name))
    members.append('"A": ' + _array([_grades(row) for row in inst.A], "  "))
    members.append('"b": ' + _grades(inst.b))
    if inst.epsilon != 0:
        members.append('"epsilon": ' + repr(grade_number(inst.epsilon)))
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def _entry(cand: Candidate, point: str, value: Any, pad: str) -> str:
    inner = "\n" + pad + "  "
    return (
        "{" + inner + '"selector": ' + _selector_text(cand.selector) + ","
        + inner + '"point": ' + point + ","
        + inner + '"objective_value": ' + _number(value) + "\n" + pad + "}"
    )


def render_report_json(
    report: SolveReport,
    name: Optional[str] = None,
    include_timings: bool = False,
) -> str:
    """The structured-output document of a solve report, written in one
    pass: leaf arrays on one line, everything else indented by two spaces.

    Objective values are the ones the solver computed. Key order is fixed
    and timings are excluded unless asked for: wall clock is the one field
    that would break run-to-run byte identity. The cells are derived
    here: the feasible region is the union of the boxes [x, ones] over the
    minimal solutions x, one cell each. Each point's text is built once:
    a minimal point's text serves its entry, the optimizer's and its
    cell's lower corner, and one all-ones text serves every upper corner.
    """
    texts: dict[int, str] = {}  # id of a point in report -> its text

    def point_text(point: Point) -> str:
        text = texts.get(id(point))
        if text is None:
            text = texts[id(point)] = _grades(point)
        return text

    idx = report.index_sets
    members = []
    if name is not None:
        members.append('"name": ' + _encode_key(name))
    members.append('"feasible": ' + ("true" if idx.feasible else "false"))
    if not idx.feasible:
        members.append('"empty_rows": ' + _one_based(idx.empty_rows))
    members.append('"J": ' + _array([_one_based(s) for s in idx.sets], "  "))
    members.append(
        '"vacuous_rows": ' + _one_based([i for i, v in enumerate(idx.vacuous) if v])
    )
    members.append('"E_size": ' + _encode(report.selector_count))
    members.append('"candidates_enumerated": ' + str(report.candidates_enumerated))
    minimal = report.minimal_solutions
    members.append('"minimal_solutions": ' + _array(
        [_entry(c, point_text(c.point), v, "    ") for c, v in zip(minimal, report.minimal_values)],
        "  ",
    ))
    optimizer = report.optimizer
    members.append('"optimizer": ' + (
        _entry(optimizer, point_text(optimizer.point), report.optimal_value, "  ")
        if optimizer is not None
        else "null"
    ))
    members.append('"optimal_value": ' + _number(report.optimal_value))
    cells = []
    if minimal:
        upper = "[" + ", ".join(["1.0"] * len(minimal[0].point)) + "]"
        tail = ',\n      "upper": ' + upper + "\n    }"
        cells = ['{\n      "lower": ' + point_text(c.point) + tail for c in minimal]
    members.append('"cells": ' + _array(cells, "  "))
    members.append('"display_precision": 4')
    if include_timings:
        timings = [f"    {_encode_key(k)}: {_number(v)}" for k, v in report.timing.items()]
        members.append('"timings": ' + ("{\n" + ",\n".join(timings) + "\n  }" if timings else "{}"))
    return "{\n  " + ",\n  ".join(members) + "\n}\n"
