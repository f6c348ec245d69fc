"""Instance files, structured reports, and the text of every reported
answer.

An instance file is a single JSON document: required members "A" (array of
m arrays of n numbers) and "b" (array of m numbers), optional "epsilon"
(number, default 0) and "name" (string). No object in the document may
name a member twice: json would keep the last value alone, so the file is
refused instead. Grades are read exactly, as integers: a literal like
0.9463 becomes the pair (9463, 10000), the integers of the rational
9463/10000 rather than the nearest binary float, so that solver
arithmetic reproduces pencil-and-paper results exactly. A literal
without an exponent is the integer of its digits over a power of ten,
which is the rational Fraction(literal) finds by its regex; a literal
with an exponent becomes the pair of that Fraction, reduced; an integer
literal stays an int. A numeric literal may carry at most 50 mantissa
digits and a decimal exponent within +-400, so that parsing stays cheap;
every float repr fits. A longer literal is rejected with the member that
holds it named.

Each value is validated once. The parser checks the document's shape and
that each grade slot holds a number within the bounds; core._scale then
checks ranges and lengths on integers (in core._from_integers), with the
order and messages of Instance(...), which validates through the same
function, and builds the Instance: every grade scaled by its least common
denominator D, with no Fraction per grade; one is built only to word an
error, and the Instance builds its Fraction views of A and b only when
they are read. The label that names a value in an error ("A[2][3]",
"b[1]") is built only for the value that fails, so a valid file builds
none.

On output, grades are emitted as their float value, whose shortest repr
round-trips to the same rational for any grade with at most 15 significant
decimal digits (every file-parsed or generated grade qualifies). The
conversion is the true division of numerator by denominator, the same
correctly rounded float that float() of the Fraction gives. Structured
reports are JSON with a fixed key order and no volatile fields by default,
so identical inputs produce byte-identical reports. serialize_instance
and render_report_json write their fixed shapes in one pass, leaf arrays
on one line. Both write a grade from the integers the instance or the
report holds, as the true division of the scaled value by D: no Fraction
is read, and a report's Candidates are never built.

How a reported point and its selector become text is decided here once,
for every command (``_writers``): the structured report, the text solve
report, the enumerate listing and verify's lines all write a point from
its scaled coordinates and a selector from its key, so that none of them
builds a Fraction or a Candidate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_key
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import Instance, _Pair, _scale
from .solver import SolveReport

_ALLOWED_KEYS = {"A", "b", "epsilon", "name"}
# The types the parse hooks return for a number within the bounds: an int,
# or a float literal's (numerator, denominator) pair. JSON arrays decode
# to lists, so a tuple can only come from the float hook.
_NUMBER_TYPES = frozenset((int, tuple))
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


def _parse_float(literal: str) -> _Pair | _OutOfBounds:
    whole, _, fraction = literal.partition(".")
    plain = fraction.isdigit()  # [-]digits.digits, with no exponent
    if not (plain and len(literal) <= MAX_DIGITS or _within_bounds(literal)):
        return _OutOfBounds(literal)
    if plain:
        return int(whole + fraction), 10 ** len(fraction)
    value = Fraction(literal)
    return value.numerator, value.denominator


def _parse_int(literal: str) -> int | _OutOfBounds:
    return int(literal) if _within_bounds(literal) else _OutOfBounds(literal)


def _worded(value: Any) -> Any:
    """A parsed value as an error message shows it: each pair the float
    hook made, in any array or object, as the Fraction it stands for.
    Arrays and objects are rewritten in place, with a stack rather than
    recursion: they may nest as deep as the decoder allows, and repr
    still reaches the bottom."""
    top = [value]
    stack = [top]
    while stack:
        container = stack.pop()
        for k in range(len(container)) if type(container) is list else list(container):
            v = container[k]
            if type(v) is tuple:
                container[k] = Fraction(*v)
            elif type(v) is list or type(v) is dict:
                stack.append(v)
    return top[0]


def _number_error(value: Any, label: str) -> InstanceFormatError:
    if isinstance(value, _OutOfBounds):
        return InstanceFormatError(
            f"{label} is out of the parse bounds (at most {MAX_DIGITS} digits and a "
            f"decimal exponent within +-{MAX_EXPONENT}): {value!r}"
        )
    return InstanceFormatError(f"{label} is not a number: {_worded(value)!r}")


def _pairs(values: list, label: Callable[[int], str]) -> list[_Pair]:
    """The parsed values as pairs (an int v as (v, 1)), when each is an
    int or a pair. Otherwise raises for the first that is not, named by
    label(k); the label is built only then. bool is an int subclass, but
    true/false in a grade slot is a mistake, so its exact type is
    tested."""
    if _NUMBER_TYPES.issuperset(map(type, values)):
        return [(v, 1) if type(v) is int else v for v in values]
    k = next(k for k, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
    raise _number_error(values[k], label(k))


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict, when no name in it repeats. json keeps a
    repeated name's last value, which would silently drop the others."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        name = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InstanceFormatError(f"duplicate member {name}")
    return obj


# What json.loads(text, parse_float=..., parse_int=..., object_pairs_hook=...)
# would build anew on every call.
_DECODER = json.JSONDecoder(
    parse_float=_parse_float, parse_int=_parse_int, object_pairs_hook=_object
)


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
        matrix.append(_pairs(row, lambda j: f"A[{i + 1}][{j + 1}]"))

    b = data["b"]
    if not isinstance(b, list) or not b:
        raise InstanceFormatError("b must be a non-empty array of numbers")
    thresholds = _pairs(b, lambda i: f"b[{i + 1}]")

    epsilon = data.get("epsilon", 0)
    if type(epsilon) not in _NUMBER_TYPES:
        raise _number_error(epsilon, "epsilon")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"name must be a string: {_worded(name)!r}")

    # An error words a negative epsilon as parsed: an int, or the Fraction
    # of the float hook's pair.
    shown = Fraction(*epsilon) if type(epsilon) is tuple else epsilon
    try:
        return _scale(matrix, thresholds, Fraction(shown), shown), name
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path: str | Path) -> tuple[Instance, Optional[str]]:
    """Read and parse an instance file; a file that cannot be read, or
    whose bytes are not UTF-8, fails to parse. Every message names the
    path as given. The bytes are decoded once, and CRLF and CR line ends
    become LF, as text-mode reading makes them, so that the offsets in a
    JSON error are the same."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise InstanceFormatError(f"cannot read {path}: {reason}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse_instance_text(text)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _number(value: Any) -> str:
    """A value as json.dumps writes it: a finite float by its repr, and
    anything else (NaN, an infinity, None, an int) through the encoder."""
    return repr(value) if type(value) is float and isfinite(value) else _encode(value)


def _one_based(indices: Iterable[int]) -> str:
    return "[" + ", ".join([str(i + 1) for i in indices]) + "]"


def _array(items: list[str]) -> str:
    """An array of rendered items, one a line, for a top-level member
    (indented by two spaces). The brackets go on the first and last items,
    which changes the list, so that the text is a single join and never
    copied whole."""
    if not items:
        return "[]"
    items[0] = "[\n    " + items[0]
    items[-1] += "\n  ]"
    return ",\n    ".join(items)


def serialize_instance(inst: Instance, name: Optional[str] = None) -> str:
    """Render an instance back to its file form; parsing the result yields
    an equal instance for decimal-valued grades. Each grade's float is the
    true division D*a / D of the instance's integers, the same correctly
    rounded float as its Fraction's, so no Fraction is read; epsilon is
    written the same way, from D*epsilon."""
    d = inst._D

    def grades(values: tuple[int, ...]) -> str:
        return "[" + ", ".join([repr(v / d) for v in values]) + "]"

    members = []
    if name is not None:
        members.append('"name": ' + _encode_key(name))
    members.append('"A": ' + _array([grades(row) for row in inst._A]))
    members.append('"b": ' + grades(inst._b))
    if inst._eps:
        members.append('"epsilon": ' + repr(inst._eps / d))
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def _writers(
    d: int, n: int, coordinates: Iterable[int], vacuous: Sequence[bool], structured: bool
) -> tuple[Callable[[Sequence[int]], str], Callable[[Sequence[int]], str]]:
    """How every command writes a reported point and its selector: the
    text of a point from its n scaled coordinates, and of a selector from
    its key.

    A coordinate t is the float t / D, the correctly rounded value float()
    of the Fraction t / D gives, written by repr in the structured report
    and to 4 decimals in text, once per distinct t of ``coordinates``. A
    key picks one column per constraining row, each row i with
    ``vacuous[i]`` false; its text puts the 1-based columns into a
    template that holds "null" (structured) or "-" (text) at each vacuous
    row.
    """
    number, blank = (repr, "null") if structured else ("{:.4f}".format, "-")
    texts = {t: number(t / d) for t in coordinates}.__getitem__
    columns = [str(j + 1) for j in range(n)].__getitem__
    template = "[" + ", ".join([blank if v else "%s" for v in vacuous]) + "]"

    def point_text(point: Sequence[int]) -> str:
        return "[" + ", ".join(map(texts, point)) + "]"

    def selector_text(key: Sequence[int]) -> str:
        return template % tuple(map(columns, key))

    return point_text, selector_text


def _report_writers(report: SolveReport, structured: bool) -> tuple[Callable, Callable]:
    """_writers over a feasible report's reported coordinates,
    ``SolveReport._reported``."""
    n = len(report._optimizer[1])
    return _writers(report._D, n, report._reported, report.index_sets.vacuous, structured)


def _answer(report: SolveReport) -> list[str]:
    """The members minimal_solutions, optimizer, optimal_value and cells,
    written from the integers the report holds (``_report_writers``), so
    that no Fraction or Candidate is built.

    Each minimal-solution entry, and the optimizer's, is one f-string of
    its selector, point and objective value texts. A minimal point's text
    serves its entry and its cell's lower corner, and one all-ones text
    serves every upper corner. Each member is
    returned as its only copy, and the point texts are freed on return,
    so the document is joined from the members alone.
    """
    least = _number(report.optimal_value)
    optimal = '"optimal_value": ' + least
    optimizer = report._optimizer
    if optimizer is None:
        return ['"minimal_solutions": []', '"optimizer": null', optimal, '"cells": []']
    point_text, selector_text = _report_writers(report, structured=True)
    points = [point_text(point) for _, point in report._minimal]
    entries = '"minimal_solutions": ' + _array([
        f'{{\n      "selector": {selector_text(key)},\n      "point": {text},'
        f'\n      "objective_value": {_number(value)}\n    }}'
        for (key, _), text, value in zip(report._minimal, points, report.minimal_values)
    ])
    key, point = optimizer
    best = (
        f'"optimizer": {{\n    "selector": {selector_text(key)},\n    "point": {point_text(point)},'
        f'\n    "objective_value": {least}\n  }}'
    )
    tail = ',\n      "upper": [' + ", ".join(["1.0"] * len(point)) + "]\n    }"
    cells = '"cells": ' + _array(['{\n      "lower": ' + text + tail for text in points])
    return [entries, best, optimal, cells]


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
    minimal solutions x, one cell each. The answer is written from the
    report's integers (``_answer``): no Fraction or Candidate is built.
    """
    idx = report.index_sets
    members = []
    if name is not None:
        members.append('"name": ' + _encode_key(name))
    members.append('"feasible": ' + ("true" if idx.feasible else "false"))
    if not idx.feasible:
        members.append('"empty_rows": ' + _one_based(idx.empty_rows))
    members.append('"J": ' + _array([_one_based(s) for s in idx.sets]))
    members.append(
        '"vacuous_rows": ' + _one_based([i for i, v in enumerate(idx.vacuous) if v])
    )
    members.append('"E_size": ' + _encode(report.selector_count))
    members.append('"candidates_enumerated": ' + str(report.candidates_enumerated))
    members += _answer(report)
    members.append('"display_precision": 4')
    if include_timings:
        timings = [f"    {_encode_key(k)}: {_number(v)}" for k, v in report.timing.items()]
        members.append('"timings": ' + ("{\n" + ",\n".join(timings) + "\n  }" if timings else "{}"))
    # The braces go on the first and last members, both short, as in
    # _array.
    members[0] = "{\n  " + members[0]
    members[-1] += "\n}\n"
    return ",\n  ".join(members)
