"""Domain model: membership-graded matrices, points, and the max-Lukasiewicz
composition.

All grades are stored as exact rationals (`fractions.Fraction`). The solver's
correctness hinges on exact comparisons: a candidate point built from the
expression ``1 + b - a`` must satisfy ``a + x - 1 >= b`` *identically*, and
dominance ties between candidates must be genuine ties. Binary floats break
both (the identity fails by one ulp about half the time), rationals never do.
Floats convert losslessly on input; decimal strings keep their printed value.

Everything in this module is immutable after construction and safe to share
across threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

GradeLike = Union[int, float, str, Fraction]
Point = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_FRACTION = frozenset((Fraction,))


def _to_fraction(value: GradeLike, label: Callable[[], str]) -> Fraction:
    """value as an exact rational; label() names it in the error for a
    value that is not one, and is called only then."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{label()} is not finite: {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label()} is not a number: {value!r}") from exc


def _short_decimal(value: Fraction) -> str:
    """value in decimal to 15 significant digits, in at most 40 characters:
    the exact rational of a literal such as 1e400 has hundreds of digits."""
    d = Context(prec=15).divide(Decimal(value.numerator), value.denominator).normalize()
    return f"{d:f}" if -20 < d.adjusted() < 20 else str(d)


def _to_grade(value: GradeLike, label: Callable[[], str]) -> Fraction:
    grade = _to_fraction(value, label)
    if not 0 <= grade.numerator <= grade.denominator:
        raise ValueError(f"{label()} out of [0,1]: {_short_decimal(grade)}")
    return grade


def as_grade(value: GradeLike, label: str = "value") -> Fraction:
    """Convert one membership grade to an exact rational in [0, 1].

    Out-of-range and non-finite input is rejected rather than clamped;
    clamping would silently mask bad data files. The range test compares
    integers: a Fraction's denominator is positive, so ``0 <= p/q <= 1``
    holds exactly when ``0 <= p <= q``.
    """
    return _to_grade(value, lambda: label)


def _grades(values: Iterable[GradeLike], label: Callable[[int], str]) -> tuple[Fraction, ...]:
    """The values converted as as_grade converts them; label(k) names
    value k in the error for a bad one, and is built only then. Values
    that are already Fractions in [0, 1], as a parsed file's are, are
    kept as they are."""
    grades = tuple(values)
    if _FRACTION.issuperset(map(type, grades)) and all(
        0 <= g.numerator <= g.denominator for g in grades
    ):
        return grades
    return tuple(_to_grade(v, lambda: label(k)) for k, v in enumerate(grades))


def as_point(values: Iterable[GradeLike], n: int | None = None, label: str = "x") -> Point:
    """Convert a coordinate sequence to an exact point in the unit cube."""
    point = _grades(values, lambda k: f"{label}[{k + 1}]")
    if not point:
        raise ValueError(f"{label} must have at least one coordinate")
    if n is not None and len(point) != n:
        raise ValueError(f"{label} has {len(point)} coordinates, expected {n}")
    return point


def ones(n: int) -> Point:
    """The all-ones point, the top of the unit cube."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (ONE,) * n


def zeros(n: int) -> Point:
    """The all-zeros point, the bottom of the unit cube."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (ZERO,) * n


@dataclass(frozen=True)
class Instance:
    """One inequality system: grade matrix ``A`` (m rows, n columns), row
    thresholds ``b`` (length m), and a comparison tolerance ``epsilon``.

    ``epsilon`` defaults to 0 (exact comparison, the intended mode for exact
    data); a positive value widens every ``>=`` threshold test for noisy
    inputs. Entries outside [0, 1] are rejected on construction.
    """

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    epsilon: Fraction = ZERO

    def __post_init__(self) -> None:
        rows = tuple(self.A)
        if not rows:
            raise ValueError("A must have at least one row")
        matrix = []
        width = None
        for i, row in enumerate(rows):
            entries = _grades(row, lambda j: f"A[{i + 1}][{j + 1}]")
            if not entries:
                raise ValueError(f"A[{i + 1}] must have at least one column")
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError(f"A[{i + 1}] has {len(entries)} columns, expected {width}")
            matrix.append(entries)
        thresholds = _grades(self.b, lambda i: f"b[{i + 1}]")
        if len(thresholds) != len(matrix):
            raise ValueError(f"b has {len(thresholds)} entries, expected {len(matrix)}")
        eps = _to_fraction(self.epsilon, lambda: "epsilon")
        if eps.numerator < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")
        object.__setattr__(self, "A", tuple(matrix))
        object.__setattr__(self, "b", thresholds)
        object.__setattr__(self, "epsilon", eps)

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])


def luk_tnorm(a: GradeLike, x: GradeLike) -> Fraction:
    """The Lukasiewicz t-norm ``max(a + x - 1, 0)``.

    Monotone in both arguments, commutative, with identity 1 and
    annihilator-like behaviour at 0 (``a < 1`` forces the result to 0).
    """
    a = as_grade(a, "a")
    x = as_grade(x, "x")
    s = a + x - ONE
    return s if s > ZERO else ZERO


def compose_row(row: Sequence[GradeLike], x: Iterable[GradeLike]) -> Fraction:
    """Compose one grade row with a point: ``max_j max(a_j + x_j - 1, 0)``."""
    point = as_point(x, label="x")
    if len(row) != len(point):
        raise ValueError(f"row has {len(row)} entries, point has {len(point)}")
    best = ZERO
    for a, xj in zip(row, point):
        t = _to_fraction(a, lambda: "a") + xj - ONE
        if t > best:
            best = t
    return best


def compose(inst: Instance, x: Iterable[GradeLike]) -> tuple[Fraction, ...]:
    """Row-wise max-Lukasiewicz composition of the instance matrix with ``x``."""
    point = as_point(x, n=inst.n)
    out = []
    for row in inst.A:
        best = ZERO
        for a, xj in zip(row, point):
            t = a + xj - ONE
            if t > best:
                best = t
        out.append(best)
    return tuple(out)


def coordinate_threshold(inst: Instance, i: int, j: int) -> Fraction:
    """The least ``x_j`` at which column j alone satisfies row i:
    ``t_ij = 1 + (b_i - epsilon) - a_ij``, solved from the row test
    ``a_ij + x_j - 1 >= b_i - epsilon``.

    It lies in (0, 1] exactly when row i constrains (``b_i > epsilon``) and
    column j is admissible for it (``a_ij >= b_i - epsilon``). The sum is
    taken over the product of the three denominators and reduced once, by
    the one Fraction it builds.
    """
    b, eps, a = inst.b[i], inst.epsilon, inst.A[i][j]
    bd, ed, ad = b.denominator, eps.denominator, a.denominator
    d = bd * ed * ad
    return Fraction(d + b.numerator * ed * ad - eps.numerator * bd * ad - a.numerator * bd * ed, d)


def is_member(inst: Instance, x: Iterable[GradeLike]) -> bool:
    """Whether ``x`` satisfies every row inequality, i.e. lies in the
    feasible region.

    Membership is upward closed: raising any coordinate of a member keeps it
    a member, because the composition is monotone in ``x``.
    """
    point = as_point(x, n=inst.n)
    eps = inst.epsilon
    for row, bi in zip(inst.A, inst.b):
        threshold = bi - eps
        if threshold <= ZERO:
            continue
        satisfied = False
        for a, xj in zip(row, point):
            if a + xj - ONE >= threshold:
                satisfied = True
                break
        if not satisfied:
            return False
    return True
