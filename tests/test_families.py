"""The solver and the oracle against the closed-form answers of the
matching and dual matching families (families.py), unweighted and with
seeded weights."""

import math

import pytest

from frisolve import OBJECTIVES, CapExceededError, brute_force, solve, solve_unpruned

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


# solve_unpruned's nodes and leaves on DM_6, per seed and objective. The
# cut is strict, so leaves that tie the incumbent are all reached and
# row-tested: unweighted, every minimal point ties at 1 under max, and
# the bound search reaches all 9,786 leaves of solve's walk.
DM_6_WORK = {
    (None, "lse"): (222, 6),
    (None, "max"): (11_742, 9_786),
    (None, "sum"): (222, 6),
    (20260, "lse"): (102, 2),
    (20260, "max"): (582, 280),
    (20260, "sum"): (102, 2),
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("seed", SEEDS)
def test_unpruned_tie_cost_on_dm_6(seed, name):
    # The cost of ties to the bound search, as exact counts: a cut that
    # also takes tied subtrees shows here as fewer nodes and leaves.
    nodes, leaves = DM_6_WORK[seed, name]
    family = dual_matching(6, seed)
    objective = OBJECTIVES[name]
    with pytest.raises(CapExceededError) as err:
        solve_unpruned(family.inst, objective, cap=nodes - 1)
    assert err.value.count == nodes
    report = solve_unpruned(family.inst, objective, cap=nodes)
    assert report.candidates_enumerated == leaves
    assert report.optimizer == solve(family.inst, objective).optimizer
    _assert_optimum(family, name, report.optimizer.point, report.optimal_value)


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
