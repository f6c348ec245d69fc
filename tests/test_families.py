"""The solver and the oracle against the closed-form answers of the
matching and dual matching families (families.py), unweighted and with
seeded weights."""

import math

import pytest

from frisolve import OBJECTIVES, brute_force, solve, solve_unpruned

from families import dual_matching, matching

# Unweighted, and with weights drawn from the seed.
SEEDS = [None, 20260]

CASES = [(matching, k) for k in (1, 2, 3, 4, 5, 6, 8, 10, 12)] + [
    (dual_matching, k) for k in range(1, 7)
]


def _case_id(case):
    build, k = case
    return f"{'M' if build is matching else 'DM'}_{k}"


def _assert_optimum(family, name, point, value):
    expected_value, is_optimal = family.optima[name]
    support = family.support(point)
    assert support in family.minimal and is_optimal(support)
    assert math.isclose(value, expected_value, rel_tol=1e-12, abs_tol=0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_solve_matches_the_closed_form(case, seed):
    build, k = case
    family = build(k, seed)
    for name, objective in OBJECTIVES.items():
        report = solve(family.inst, objective)
        # The minimal set does not depend on the objective: check it once.
        if name == "lse":
            supports = [family.support(c.point) for c in report.minimal_solutions]
            assert len(supports) == len(family.minimal) and set(supports) == family.minimal
        _assert_optimum(family, name, report.optimizer.point, report.optimal_value)
        unpruned = solve_unpruned(family.inst, objective)
        _assert_optimum(family, name, unpruned.optimizer.point, unpruned.optimal_value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", [(b, k) for b, k in CASES if k <= 5], ids=_case_id)
def test_oracle_matches_the_closed_form(case, seed):
    build, k = case
    family = build(k, seed)
    for name, objective in OBJECTIVES.items():
        minimal, (optimizer, value) = brute_force(family.inst, objective)
        supports = [family.support(x) for x in minimal]
        assert len(supports) == len(family.minimal) and set(supports) == family.minimal
        _assert_optimum(family, name, optimizer, value)
