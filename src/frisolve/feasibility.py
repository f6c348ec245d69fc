"""Feasibility test and admissible index sets.

A row inequality ``max_j max(a_ij + x_j - 1, 0) >= b_i - epsilon`` is
satisfiable iff some column grade reaches the threshold at ``x_j = 1``,
i.e. iff ``a_ij >= b_i - epsilon`` for some j. Collecting those columns
per row gives the index sets J(i) that drive candidate enumeration. The
system is feasible iff every J(i) is non-empty (``IndexSets.feasible``;
``IndexSets.empty_rows`` names the rows whose J(i) is empty), and then
``ones(n)`` is the maximum solution: the feasible set is upward closed, so
the all-ones point is a member and dominates every other.

The tests run on the integers the instance holds: with every grade
scaled by its common denominator D, ``a_ij >= b_i - epsilon`` is
``D*a_ij >= D*b_i - D*epsilon``, the same comparison of integers, with no
Fraction per grade.

Indices are 0-based throughout the library; human-facing output (reports,
error messages) converts to 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance


class InfeasibleSystemError(ValueError):
    """Raised by operations that require a feasible system.

    ``empty_rows`` lists the 0-based rows whose threshold is unreachable
    even at the all-ones point.
    """

    def __init__(self, empty_rows: list[int]):
        self.empty_rows = list(empty_rows)
        noun = "row" if len(self.empty_rows) == 1 else "rows"
        listed = ", ".join(str(i + 1) for i in self.empty_rows)
        super().__init__(f"system is infeasible: {noun} {listed} cannot reach the threshold")


@dataclass(frozen=True)
class IndexSets:
    """Per-row admissible columns and the vacuous-row mask.

    sets[i] holds every column j with ``a_ij >= b_i - epsilon``, sorted
    ascending. vacuous[i] is true iff ``b_i <= epsilon``: such a row is
    satisfied by every point of the cube and contributes no choice during
    enumeration. feasible and empty_rows are the feasibility verdict.
    """

    sets: tuple[tuple[int, ...], ...]
    vacuous: tuple[bool, ...]

    @property
    def empty_rows(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sets) if not s)

    @property
    def feasible(self) -> bool:
        return all(self.sets)

    @property
    def constraining_rows(self) -> tuple[int, ...]:
        """Rows that actually constrain the system: the non-vacuous ones."""
        return tuple(i for i, v in enumerate(self.vacuous) if not v)


def compute_index_sets(inst: Instance) -> IndexSets:
    """Build J(i) = {j : a_ij >= b_i - epsilon} for every row, plus the
    vacuous mask (b_i <= epsilon). On the instance's integers: with
    need_i = D*b_i - D*epsilon, J(i) holds the j with D*a_ij >= need_i,
    and row i is vacuous iff need_i <= 0."""
    eps = inst._eps
    sets = []
    vacuous = []
    for row, bi in zip(inst._A, inst._b):
        need = bi - eps
        sets.append(tuple([j for j, a in enumerate(row) if a >= need]))
        vacuous.append(need <= 0)
    return IndexSets(sets=tuple(sets), vacuous=tuple(vacuous))
