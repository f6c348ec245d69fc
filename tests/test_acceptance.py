"""Acceptance gate: one test per shipped claim, at the stated tolerances.

The summary hook in conftest prints one PASS/FAIL line per criterion at the
end of the run. Random streams are fully seeded; reruns are bit-identical.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from frisolve import (
    brute_force,
    compose,
    compute_index_sets,
    enumerate_candidates,
    is_member,
    log_sum_exp,
    ones,
    selector_count,
    solve,
    solve_unpruned,
)
from frisolve.cli import main

from conftest import (
    GOLDEN_CANDIDATES,
    GOLDEN_COMPOSE_ONES,
    GOLDEN_JSON,
    GOLDEN_MINIMAL,
    GOLDEN_OPT_VALUE,
    GOLDEN_OPTIMIZER_POINT,
    GOLDEN_OTHER_VALUE,
    prune_to_minimal,
    random_instances,
)


def test_criterion_1_feasibility(golden):
    got = compose(golden, ones(7))
    assert len(got) == 5
    for g, want in zip(got, GOLDEN_COMPOSE_ONES):
        assert abs(float(g) - float(want)) <= 1e-12
    assert got == GOLDEN_COMPOSE_ONES  # inputs are exact decimals
    idx = compute_index_sets(golden)
    assert idx.feasible
    assert idx.empty_rows == ()
    assert is_member(golden, ones(7))


def test_criterion_2_index_sets(golden):
    idx = compute_index_sets(golden)
    assert idx.sets == ((0,), (1, 2), (2,), (3, 4), (2,))
    assert selector_count(idx) == 4


def test_criterion_3_candidates(golden):
    cands = list(enumerate_candidates(golden))
    assert len(cands) == 4
    got = {c.point for c in cands}
    assert got == set(GOLDEN_CANDIDATES.values())
    for cand in cands:
        want = GOLDEN_CANDIDATES[cand.selector]
        for g, w in zip(cand.point, want):
            assert abs(float(g) - float(w)) <= 1e-12


def test_criterion_4_minimal_set(golden):
    minimal = prune_to_minimal(enumerate_candidates(golden))
    assert {c.point for c in minimal} == GOLDEN_MINIMAL
    assert {c.point for c in solve(golden).minimal_solutions} == GOLDEN_MINIMAL


def test_criterion_5_optimum(golden):
    report = solve(golden)
    assert report.optimizer.point == GOLDEN_OPTIMIZER_POINT
    assert report.optimal_value == pytest.approx(GOLDEN_OPT_VALUE, abs=5e-4)
    other = next(
        c.point for c in report.minimal_solutions if c.point != GOLDEN_OPTIMIZER_POINT
    )
    assert log_sum_exp(other) == pytest.approx(GOLDEN_OTHER_VALUE, abs=5e-4)


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for inst, name in random_instances(50, base_seed=1001):
        report = solve(inst)
        solver_minimal = sorted(c.point for c in report.minimal_solutions)
        oracle_minimal, oracle_optimum = brute_force(inst)
        assert solver_minimal == oracle_minimal, name
        assert oracle_optimum is not None, name
        assert report.optimal_value == oracle_optimum[1], name
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


def _sample_feasible_points(inst, want, rng, band=1e-9):
    """Rejection-sample exactly feasible points under the uniform law.

    The float composition margin decides clear cases (float error is below
    1e-15, far inside the band); points inside the band get an exact
    rational membership check. Accepted coordinates are exact binary
    floats, so feasibility holds exactly, not just numerically.
    """
    A = np.array([[float(a) for a in row] for row in inst.A])
    b = np.array([float(v) for v in inst.b])
    got = []
    while len(got) < want:
        batch = rng.random((8192, inst.n))
        comp = np.maximum((A[None, :, :] + batch[:, None, :] - 1.0).max(axis=2), 0.0)
        margin = (comp - b[None, :]).min(axis=1)
        for x in batch[margin >= band]:
            got.append(x)
            if len(got) == want:
                return got
        for x in batch[np.abs(margin) < band]:
            if is_member(inst, tuple(Fraction(v) for v in x)):
                got.append(x)
                if len(got) == want:
                    return got
    return got


def _lse_rows(points: np.ndarray) -> np.ndarray:
    shift = points.max(axis=1, keepdims=True)
    return (shift + np.log(np.exp(points - shift).sum(axis=1, keepdims=True))).ravel()


def test_criterion_7_sampled_global_optimality():
    rng = np.random.default_rng(20_260_814)
    for k, (inst, name) in enumerate(random_instances(20, base_seed=9001, density=3.0)):
        report = solve_unpruned(inst)
        points = np.array(_sample_feasible_points(inst, 10_000, rng))
        values = _lse_rows(points)
        flagged = np.flatnonzero(values < report.optimal_value)
        # a vectorized near-miss is only a violation if the exact
        # evaluation agrees
        violations = [
            i for i in flagged
            if log_sum_exp(tuple(Fraction(v) for v in points[i])) < report.optimal_value
        ]
        assert violations == [], (name, violations[:5])


def test_criterion_8_structural_invariants():
    instances = random_instances(30, base_seed=5500, density=2.0)

    # every enumerated candidate is feasible, with exact comparisons
    for inst, name in instances:
        for cand in enumerate_candidates(inst):
            assert is_member(inst, cand.point), name

    # upward closure on 10^4 dominating pairs built from feasible samples
    rng = np.random.default_rng(642)
    pairs_done = 0
    for inst, name in instances:
        base = _sample_feasible_points(inst, 340, rng)
        for x in base:
            up = x + (1.0 - x) * rng.random(inst.n)
            xf = tuple(Fraction(v) for v in x)
            uf = tuple(Fraction(v) for v in up)
            assert all(a <= b for a, b in zip(xf, uf))
            assert is_member(inst, xf)
            assert is_member(inst, uf), name
            pairs_done += 1
    assert pairs_done >= 10_000

    # log-sum-exp sandwich on 10^4 uniform samples
    xs = rng.random((10_000, 6))
    vals = _lse_rows(xs)
    tol = 1e-12
    assert np.all(xs.max(axis=1) - tol <= vals)
    assert np.all(vals <= xs.max(axis=1) + math.log(6) + tol)
    spot = [tuple(map(Fraction, row)) for row in xs[:50]]
    for row, v in zip(spot, vals[:50]):
        assert log_sum_exp(row) == pytest.approx(v, abs=1e-12)

    # pruned and unpruned paths agree exactly on every fuzzed instance
    for inst, name in instances:
        assert solve(inst).optimal_value == solve_unpruned(inst).optimal_value, name


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    files = {}
    demo = tmp_path / "demo.json"
    demo.write_text(GOLDEN_JSON, encoding="utf-8")
    files["demo"] = str(demo)
    gen = tmp_path / "gen.json"
    assert main(["generate", "5", "5", "--seed", "77", "--density", "2.0", "-o", str(gen)]) == 0
    capsys.readouterr()
    files["generated"] = str(gen)

    for label, path in files.items():
        runs = []
        for argv in (
            ["solve", path, "--format", "structured"],
            ["solve", path, "--format", "structured"],
            ["solve", path, "--format", "structured", "--no-prune"],
        ):
            assert main(argv) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], label
        # the unpruned report drops the minimal set but must agree on the
        # optimum, bit for bit
        pruned = json.loads(runs[0])
        unpruned = json.loads(runs[2])
        assert unpruned["optimal_value"] == pruned["optimal_value"], label
        assert unpruned["optimizer"]["point"] == pruned["optimizer"]["point"], label
