"""Domain model: membership-graded matrices, points, and the max-Lukasiewicz
composition.

All grades are exact rationals (`fractions.Fraction`). The solver's
correctness hinges on exact comparisons: a candidate point built from the
expression ``1 + b - a`` must satisfy ``a + x - 1 >= b`` *identically*, and
the row test's equality ``x_j == t_ij``, which decides minimality, must be
a genuine equality. Binary floats break both (the identity fails by one
ulp about half the time), rationals never do.
Floats convert losslessly on input; decimal strings keep their printed value.
``as_grade`` is the one rule for a grade given to the library, and
``as_point`` applies it to each coordinate. ``is_member`` checks the
system's inequality ``A o x >= b - epsilon`` on the composition that
``compose`` computes.

The search itself needs only comparisons and differences of grades, so
an ``Instance`` also holds its grades as integers: one least common
denominator D and every grade times D. One function builds every such
instance, with Instance's checks and messages (``_from_integers``): the
file reader reaches it through ``_scale``, which puts its rationals over
their lcm, and the generator gives it its ticks over 10000 directly. No
Fraction is built per grade; the Fractions ``A`` and ``b`` of such an
instance are views (``functools.cached_property``), built only when read
and kept.

Everything in this module is immutable after construction and safe to share
across threads (threads that build an instance's Fraction views at once
get equal views); the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Union

GradeLike = Union[int, float, str, Fraction]
Point = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _to_fraction(value: GradeLike, label: Callable[[], str]) -> Fraction:
    """value as an exact rational; label() names it in the error for a
    value that is not one, and is called only then. bool is an int
    subclass, but True is no grade, so it is not a number here, as in the
    file reader."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{label()} is not finite: {value!r}")
    try:
        if isinstance(value, bool):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label()} is not a number: {value!r}") from exc


def _check_count(value: int, name: str) -> None:
    """Reject a count, such as a work cap or a grid limit, that is not an
    integer of at least 1; name names it in the ValueError. bool is an int
    subclass, but True is no count of 1, so it is rejected too."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _short_decimal(value: Fraction) -> str:
    """value in decimal to 15 significant digits, in at most 40 characters:
    the exact rational of a literal such as 1e400 has hundreds of digits."""
    d = Context(prec=15).divide(Decimal(value.numerator), value.denominator).normalize()
    return f"{d:f}" if -20 < d.adjusted() < 20 else str(d)


def _out_of_range(label: str, grade: Fraction) -> ValueError:
    return ValueError(f"{label} out of [0,1]: {_short_decimal(grade)}")


def as_grade(value: GradeLike, label: str = "value") -> Fraction:
    """Convert one membership grade to an exact rational in [0, 1]; label
    names it in the error for a value that is not one.

    Out-of-range and non-finite input is rejected rather than clamped;
    clamping would silently mask bad data files. The range test compares
    integers: a Fraction's denominator is positive, so ``0 <= p/q <= 1``
    holds exactly when ``0 <= p <= q``.
    """
    grade = _to_fraction(value, lambda: label)
    if not 0 <= grade.numerator <= grade.denominator:
        raise _out_of_range(label, grade)
    return grade


def _fractions(values: Iterable[GradeLike], label: Callable[[int], str]) -> tuple[Fraction, ...]:
    """The values as exact rationals, with no range test; label(k) names
    value k in the error for one that is not a number."""
    return tuple([_to_fraction(v, lambda: label(k)) for k, v in enumerate(values)])


def as_point(values: Iterable[GradeLike], n: int | None = None) -> Point:
    """Convert a coordinate sequence to an exact point in the unit cube:
    each coordinate through as_grade, labelled ``x[k]`` from k = 1; then
    the point must be non-empty and, when n is given, of length n."""
    point = tuple([as_grade(v, f"x[{k + 1}]") for k, v in enumerate(values)])
    if not point:
        raise ValueError("x must have at least one coordinate")
    if n is not None and len(point) != n:
        raise ValueError(f"x has {len(point)} coordinates, expected {n}")
    return point


def ones(n: int) -> Point:
    """The all-ones point, the top of the unit cube."""
    _check_count(n, "dimension")
    return (ONE,) * n


def zeros(n: int) -> Point:
    """The all-zeros point, the bottom of the unit cube."""
    _check_count(n, "dimension")
    return (ZERO,) * n


_Pair = tuple[int, int]  # a rational p/q as its integers, q > 0
_denominator = itemgetter(1)


@dataclass(frozen=True)
class Instance:
    """One inequality system: grade matrix ``A`` (m rows, n columns), row
    thresholds ``b`` (length m), and a comparison tolerance ``epsilon``.

    ``epsilon`` defaults to 0 (exact comparison, the intended mode for exact
    data); a positive value widens every ``>=`` threshold test for noisy
    inputs. Entries outside [0, 1] are rejected on construction.

    The instance also holds its grades in integers: ``_D`` is the least
    common denominator of every grade and epsilon, and ``_A``, ``_b`` and
    ``_eps`` hold D * a_ij, D * b_i and D * epsilon. D > 0, so every
    comparison and difference of grades is the same one of these
    integers: the index sets and the thresholds
    ``D * t_ij = D + (D*b_i - D*eps) - D*a_ij`` need no Fraction.
    Equality and hash read only the integers, which D being the least
    common denominator makes the same for equal instances. ``A`` and
    ``b`` are the Fractions given, converted; for an instance built from
    integers (``_from_integers``, as the file reader and the generator
    build one) they are cached-property views of ``_A`` and ``_b`` over
    ``_D``, built on first read and kept.
    """

    A: tuple[tuple[Fraction, ...], ...] = field(compare=False)
    b: tuple[Fraction, ...] = field(compare=False)
    epsilon: Fraction = field(default=ZERO, compare=False)
    _D: int = field(init=False, repr=False)
    _A: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _b: tuple[int, ...] = field(init=False, repr=False)
    _eps: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = tuple(self.A)
        if not rows:
            raise ValueError("A must have at least one row")
        matrix = []
        for i, row in enumerate(rows):
            entries = _fractions(row, lambda j: f"A[{i + 1}][{j + 1}]")
            if not entries:
                raise ValueError(f"A[{i + 1}] must have at least one column")
            matrix.append(entries)
        thresholds = _fractions(self.b, lambda i: f"b[{i + 1}]")
        eps = _to_fraction(self.epsilon, lambda: "epsilon")
        object.__setattr__(self, "A", tuple(matrix))
        object.__setattr__(self, "b", thresholds)
        pairs = [[(g.numerator, g.denominator) for g in row] for row in matrix]
        _scale(pairs, [(g.numerator, g.denominator) for g in thresholds], eps, self.epsilon, self)

    @property
    def m(self) -> int:
        return len(self._A)

    @property
    def n(self) -> int:
        return len(self._A[0])


def _A_view(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """A of an instance built from integers: a_ij = _A[i][j] / _D."""
    d = inst._D
    return tuple([tuple([Fraction(a, d) for a in row]) for row in inst._A])


def _b_view(inst: Instance) -> tuple[Fraction, ...]:
    """b of an instance built from integers: b_i = _b[i] / _D."""
    d = inst._D
    return tuple([Fraction(v, d) for v in inst._b])


# The views are built on first read and kept in the instance dict, where
# an instance built from Fractions holds A and b from __init__: a
# cached_property never shadows the instance dict. They are set after the
# class, because in its body dataclass would take them for the fields'
# defaults.
Instance.A, Instance.b = cached_property(_A_view), cached_property(_b_view)
Instance.A.__set_name__(Instance, "A")
Instance.b.__set_name__(Instance, "b")


def _scale(
    rows: list[list[_Pair]],
    b: list[_Pair],
    epsilon: Fraction,
    shown: object,
    inst: Instance | None = None,
) -> Instance:
    """inst, or a new Instance, holding these grades, given as pairs, in
    integers; a new Instance builds A and b on first read.

    Every pair p/q becomes D * p/q over the lcm D of the denominators, and
    _from_integers checks and reduces them, as it does for the generator's
    ticks.
    """
    ep, eq = epsilon.numerator, epsilon.denominator
    denominators = {eq, *map(_denominator, b)}
    for row in rows:
        denominators.update(map(_denominator, row))
    d = math.lcm(*denominators)
    factor = {q: d // q for q in denominators}
    A = [tuple([p * factor[q] for p, q in row]) for row in rows]
    thresholds = tuple([p * factor[q] for p, q in b])
    return _from_integers(d, A, thresholds, ep * factor[eq], epsilon, shown, inst)


def _from_integers(
    d: int,
    A: list[tuple[int, ...]],
    b: tuple[int, ...],
    eps: int,
    epsilon: Fraction,
    shown: object,
    inst: Instance | None = None,
) -> Instance:
    """inst, or a new Instance, holding the grades a/d, b_i/d and eps/d,
    d > 0, with epsilon the Fraction eps/d; the one builder of every
    instance held in integers, for _scale and for the generator.

    A must be non-empty, and so must each row. The checks are in this
    order: each row in range and as wide as the first, b in range and one
    entry a row, eps at least 0 (worded with ``shown``, epsilon as given).
    A Fraction is built only to word an error. The range test runs on the
    integers: 0 <= v/d <= 1 holds exactly when 0 <= v <= d. d is then
    divided by its gcd with every value, which leaves the least common
    denominator of the reduced rationals. That gcd is taken over d,
    epsilon and b first, then row by row, and stops once it reaches 1.
    """

    def check_range(values: tuple[int, ...], label: Callable[[int], str]) -> None:
        if values and (min(values) < 0 or max(values) > d):
            k = next(k for k, v in enumerate(values) if not 0 <= v <= d)
            raise _out_of_range(label(k), Fraction(values[k], d))

    width = len(A[0])
    for i, row in enumerate(A):
        check_range(row, lambda j: f"A[{i + 1}][{j + 1}]")
        if len(row) != width:
            raise ValueError(f"A[{i + 1}] has {len(row)} columns, expected {width}")
    check_range(b, lambda i: f"b[{i + 1}]")
    if len(b) != len(A):
        raise ValueError(f"b has {len(b)} entries, expected {len(A)}")
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {shown!r}")
    g = math.gcd(d, eps, *b)
    for row in A:
        if g == 1:
            break
        g = math.gcd(g, *row)
    if g > 1:
        d, eps, b = d // g, eps // g, tuple([v // g for v in b])
        A = [tuple([a // g for a in row]) for row in A]
    if inst is None:
        inst = object.__new__(Instance)
    # object.__setattr__ keeps the attributes inline: an update of
    # vars(inst) would give every instance a dict of its own, about 160
    # bytes more on a small instance.
    attributes = (("epsilon", epsilon), ("_D", d), ("_A", tuple(A)), ("_b", b), ("_eps", eps))
    for name, value in attributes:
        object.__setattr__(inst, name, value)
    return inst


def compose(inst: Instance, x: Iterable[GradeLike]) -> tuple[Fraction, ...]:
    """Row-wise max-Lukasiewicz composition of the instance matrix with
    ``x``: ``(A o x)_i = max_j max(0, a_ij + x_j - 1)``."""
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


def is_member(inst: Instance, x: Iterable[GradeLike]) -> bool:
    """Whether ``x`` lies in the feasible region: every row i satisfies
    ``(A o x)_i >= b_i - epsilon``, with ``A o x`` the composition
    ``compose`` computes. A row with ``b_i - epsilon <= 0`` holds for every
    x, because the composition is never negative.

    Membership is upward closed: raising any coordinate of a member keeps it
    a member, because the composition is monotone in ``x``.
    """
    eps = inst.epsilon
    return all(c >= bi - eps for c, bi in zip(compose(inst, x), inst.b))
