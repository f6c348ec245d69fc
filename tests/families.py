"""Known-answer families: hypergraphs whose minimal transversals are known
in closed form at any size, written as FRI instances.

Each hyperedge becomes a row with ``a_ij = b_i = 1/2`` on the edge and
``a_ij = 0`` off it. Every threshold ``1 + b_i - a_ij`` is then 1, no
column off an edge is admissible, and the minimal solutions are exactly
the 0/1 indicator vectors of the minimal transversals. The weighted
variant gives column j a weight w_j in [1/2, 1] by ``a_ij = 1 + b_i - w_j``
on the edge, so that ``t_ij = w_j``, and the minimal solutions are the
weighted indicators (w_j on the transversal, 0 off it).

- ``M_k``, the matching: k disjoint pairs {2i, 2i+1} over n = 2k columns.
  Its 2^k minimal transversals pick one column of each pair.
- ``DM_k``, the dual matching: the 2^k transversals of ``M_k`` as rows.
  Its k minimal transversals are the pairs.

The optima of the built-in objectives have closed forms, where a
coordinate at 0 adds exp(0) = 1 to the log-sum-exp:

- ``M_k``: each pair contributes on its own. Under lse and sum the
  optimal points take the lighter column of each pair, with value
  ``log(k + sum_i exp(min pair_i))`` and ``sum_i min pair_i``; under max the
  value is ``V = max_i min pair_i``, attained by every minimal point whose
  columns all weigh at most V.
- ``DM_k``: the optimal points are the pairs of least value:
  ``log(n - 2 + exp(w_a) + exp(w_b))``, ``w_a + w_b`` or ``max(w_a, w_b)``.

Weights are distinct 4-decimal numbers drawn from a seed, or all 1. Two
pairs of distinct weights never tie exactly under lse; near-ties, where
floats cannot order two values, are left out (they need an exact order).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from frisolve import Instance

HALF = Fraction(1, 2)
ZERO = Fraction(0)


@dataclass(frozen=True)
class Family:
    """An instance with its closed-form answer. A minimal point is held as
    its support, the set of its nonzero columns: the point is w_j on the
    support and 0 off it. ``optima`` maps each objective name to the
    optimal value and a test of whether a support is optimal."""

    inst: Instance
    w: list[Fraction]
    minimal: frozenset[frozenset[int]]
    optima: dict

    def support(self, x) -> frozenset[int]:
        """The support of a point that is w_j on it and 0 off it; any other
        point fails an assertion."""
        support = frozenset(j for j, v in enumerate(x) if v)
        assert len(x) == len(self.w) and all(x[j] == self.w[j] for j in support), x
        return support


def weights(k: int, seed: int | None) -> list[Fraction]:
    """2k column weights: all 1 for seed None, else distinct 4-decimal
    weights in [1/2, 1] drawn from the seed."""
    if seed is None:
        return [Fraction(1)] * (2 * k)
    return [Fraction(t, 10000) for t in random.Random(seed).sample(range(5000, 10001), 2 * k)]


def _pairs(k: int) -> list[tuple[int, int]]:
    return [(2 * i, 2 * i + 1) for i in range(k)]


def _instance(edges, w) -> Instance:
    A = [[1 + HALF - w[j] if j in edge else ZERO for j in range(len(w))] for edge in edges]
    return Instance(A=A, b=[HALF] * len(edges))


def matching(k: int, seed: int | None = None) -> Family:
    """``M_k`` and its closed-form answer."""
    w = weights(k, seed)
    pairs = _pairs(k)
    lightest = [min(w[a], w[b]) for a, b in pairs]
    top = max(lightest)
    light = {j for pair, low in zip(pairs, lightest) for j in pair if w[j] == low}
    capped = {j for j in range(2 * k) if w[j] <= top}
    return Family(
        inst=_instance(pairs, w),
        w=w,
        minimal=frozenset(map(frozenset, itertools.product(*pairs))),
        optima={
            "lse": (math.log(math.fsum([k] + [math.exp(v) for v in lightest])), light.issuperset),
            "sum": (float(sum(lightest)), light.issuperset),
            "max": (float(top), capped.issuperset),
        },
    )


def dual_matching(k: int, seed: int | None = None) -> Family:
    """``DM_k`` and its closed-form answer."""
    w = weights(k, seed)
    pairs = _pairs(k)
    n = 2 * k
    values = {
        "lse": {p: math.log(math.fsum([n - 2, math.exp(w[p[0]]), math.exp(w[p[1]])])) for p in pairs},
        "sum": {p: w[p[0]] + w[p[1]] for p in pairs},
        "max": {p: max(w[p[0]], w[p[1]]) for p in pairs},
    }
    optima = {}
    for name, by_pair in values.items():
        low = min(by_pair.values())
        # Exact for the rational values; for lse, within 1e-12 relative.
        best = {
            frozenset(p) for p, v in by_pair.items()
            if v == low or (name == "lse" and v - low <= 1e-12 * low)
        }
        optima[name] = (float(low), best.__contains__)
    return Family(
        inst=_instance(list(itertools.product(*pairs)), w),
        w=w,
        minimal=frozenset(map(frozenset, pairs)),
        optima=optima,
    )
