"""Objective functions for the solver, log-sum-exp first among them.

The solver minimizes an objective over a finite candidate set and its
optimality argument needs exactly one property of that objective: it must
be nondecreasing under the componentwise order (x <= y coordinatewise
implies f(x) <= f(y)). Any such function may be plugged in; violating the
contract voids the global-optimality guarantee without any runtime error.
log_sum_exp is the shipped default; max_coordinate and coordinate_sum are
simple monotone alternatives used to exercise the generic path.

Objectives take exact rational points but return binary floats: the report
boundary is where exact lattice arithmetic ends. Each built-in objective is
its private float kernel applied to the coordinates' floats
(``kernel(_floats(x))``). Callers that hold the float of each value a
coordinate can take (the solver's scaled thresholds, each converted once
per call; the oracle's grid columns) look the kernel up with
``_float_kernel`` and call it on those floats directly: the float of an
exact value is correctly rounded however it is computed, so the result
has the same bits as the public function on the exact point. Any other
objective receives exact points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

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


def _log_sum_exp(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("log_sum_exp of an empty vector")
    shift = max(values)
    return shift + math.log(math.fsum([math.exp(v - shift) for v in values]))


def _max_coordinate(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("max_coordinate of an empty vector")
    return max(values)


def _coordinate_sum(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("coordinate_sum of an empty vector")
    return math.fsum(values)


def log_sum_exp(x: Sequence[GradeLike]) -> float:
    """log(exp(x_1) + ... + exp(x_n)), evaluated in max-shifted form
    M + log(sum_j exp(x_j - M)) with M = max_j x_j.

    Coordinates in [0,1] cannot overflow either way, but the shifted form
    costs nothing and keeps the function safe for reuse on wider inputs.
    The exponential terms are accumulated with math.fsum, so the result is
    identical under any permutation of coordinates.
    """
    return _log_sum_exp(_floats(x))


def max_coordinate(x: Sequence[GradeLike]) -> float:
    """The largest coordinate; the function log-sum-exp smooths."""
    return _max_coordinate(_floats(x))


def coordinate_sum(x: Sequence[GradeLike]) -> float:
    """The plain coordinate sum, the other easy monotone objective."""
    return _coordinate_sum(_floats(x))


OBJECTIVES: dict[str, Objective] = {
    "lse": log_sum_exp,
    "max": max_coordinate,
    "sum": coordinate_sum,
}

_KERNELS = (
    (log_sum_exp, _log_sum_exp),
    (max_coordinate, _max_coordinate),
    (coordinate_sum, _coordinate_sum),
)


def _float_kernel(objective: Objective) -> Callable[[Sequence[float]], float] | None:
    """The float kernel of a built-in objective, None for any other.
    Matched by identity, so a wrapped built-in counts as another
    objective."""
    return next((kernel for f, kernel in _KERNELS if f is objective), None)
