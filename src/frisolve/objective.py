"""Objective functions for the solver, log-sum-exp first among them.

The solver minimizes an objective over a finite candidate set and its
optimality argument needs exactly one property of that objective: it must
be nondecreasing under the componentwise order (x <= y coordinatewise
implies f(x) <= f(y)). Any such function may be plugged in; violating the
contract voids the global-optimality guarantee. Nothing checks the
contract itself: the one runtime error it can cause is solve_unpruned's
ValueError when its bound has cut every minimal leaf.
log_sum_exp is the shipped default; max_coordinate and coordinate_sum are
simple monotone alternatives used to exercise the generic path.

Objectives take exact rational points but return binary floats: the report
boundary is where exact lattice arithmetic ends. Each built-in objective
carries its float kernel as ``kernel`` and is that kernel applied to the
coordinates' floats (``kernel(_floats(x))``). This module alone decides
how an objective reads the points the solver and the oracle hold as
integer coordinates t over a common denominator D: ``_scaled_table``
gives a built-in one float t / D per value and its kernel, and gives any
other objective, a wrapper around a built-in included, one Fraction
t / D per value and the objective itself, so that it receives exact
points. The float of an exact value is correctly rounded however it is
computed, so a kernel on those floats has the bits the built-in gives on
the exact point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import GradeLike, _to_fraction

Objective = Callable[[Sequence[GradeLike]], float]


def _floats(x: Sequence[GradeLike]) -> list[float]:
    """Each coordinate as the float of its exact value. A Fraction or int
    converts by the true division of numerator by denominator, which is
    what float() of its Fraction computes; anything else goes through
    _to_fraction, which names a rejected coordinate."""
    return [
        v.numerator / v.denominator if type(v) is Fraction or type(v) is int
        else float(_to_fraction(v, lambda: f"x[{k + 1}]"))
        for k, v in enumerate(x)
    ]


class _BuiltIn:
    """A built-in objective: its float kernel, ``kernel``, applied to the
    floats of an exact point. Used as a decorator on the kernel, whose
    name and docstring it takes. ``pickle`` and ``copy`` give back the
    same object: ``__reduce__`` returns its name, the module global it is
    bound to."""

    def __init__(self, kernel: Callable[[Sequence[float]], float]):
        self.kernel = kernel
        self.__name__ = kernel.__name__
        self.__doc__ = kernel.__doc__

    def __call__(self, x: Sequence[GradeLike]) -> float:
        return self.kernel(_floats(x))

    def __reduce__(self) -> str:
        return self.__name__


@_BuiltIn
def log_sum_exp(values: Sequence[float]) -> float:
    """log(exp(x_1) + ... + exp(x_n)), evaluated in max-shifted form
    M + log(sum_j exp(x_j - M)) with M = max_j x_j.

    Coordinates in [0,1] cannot overflow either way, but the shifted form
    costs nothing and keeps the function safe for reuse on wider inputs.
    The exponential terms are accumulated with math.fsum, so the result is
    identical under any permutation of coordinates.
    """
    if not values:
        raise ValueError("log_sum_exp of an empty vector")
    shift = max(values)
    return shift + math.log(math.fsum([math.exp(v - shift) for v in values]))


@_BuiltIn
def max_coordinate(values: Sequence[float]) -> float:
    """The largest coordinate; the function log-sum-exp smooths."""
    if not values:
        raise ValueError("max_coordinate of an empty vector")
    return max(values)


@_BuiltIn
def coordinate_sum(values: Sequence[float]) -> float:
    """The plain coordinate sum, the other easy monotone objective."""
    if not values:
        raise ValueError("coordinate_sum of an empty vector")
    return math.fsum(values)


OBJECTIVES: dict[str, Objective] = {
    "lse": log_sum_exp,
    "max": max_coordinate,
    "sum": coordinate_sum,
}


def _scaled_table(
    objective: Objective, d: int, values: Iterable[int]
) -> tuple[dict[int, object], Callable[[tuple], float]]:
    """``(table, rate)`` for points held as scaled coordinates: each value
    t stands for the coordinate t / d, table[t] is what the objective reads
    for it, and rate, on the tuple of a point's table entries, is the
    objective's value at the point.

    A built-in reads floats: its kernel on t / d, integer true division,
    correctly rounded as ``float()`` of the Fraction is, so the value has
    the bits the built-in gives on the exact point. Any other objective,
    a wrapper around a built-in included, receives the exact point, one
    Fraction t / d per value.
    """
    if isinstance(objective, _BuiltIn):
        return {t: t / d for t in values}, objective.kernel
    return {t: Fraction(t, d) for t in values}, objective
