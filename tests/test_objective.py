"""log-sum-exp and the monotone-objective contract."""

import copy
import functools
import inspect
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisolve import (
    OBJECTIVES,
    brute_force,
    coordinate_sum,
    log_sum_exp,
    max_coordinate,
    solve,
    solve_unpruned,
    zeros,
)
from frisolve.objective import _BuiltIn

from conftest import GOLDEN_OPT_VALUE, GOLDEN_OTHER_VALUE, fpoint
from test_integer_paths import mixed_instances

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


def monotone_on_pairs(f, pairs) -> bool:
    """Spot-check the increasing-objective contract on given (x, y) pairs
    with x <= y componentwise: every pair must satisfy f(x) <= f(y).

    A sampling aid, not a proof; the solver never verifies the contract at
    runtime.
    """
    return all(f(x) <= f(y) for x, y in pairs)


def test_golden_values():
    low = fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0")
    high = fpoint("0.9751", "0", "0.9892", "0.9172", "0", "0", "0")
    assert log_sum_exp(low) == pytest.approx(GOLDEN_OPT_VALUE, abs=5e-4)
    assert log_sum_exp(high) == pytest.approx(GOLDEN_OTHER_VALUE, abs=5e-4)


def test_zero_vector_gives_log_n():
    for n in (1, 2, 7, 30):
        assert log_sum_exp(zeros(n)) == pytest.approx(math.log(n), abs=1e-12)


def test_empty_vector_rejected():
    for f in OBJECTIVES.values():
        with pytest.raises(ValueError):
            f(())


@given(x=st.lists(unit_floats, min_size=1, max_size=10))
def test_sandwich_bounds(x):
    v = log_sum_exp(x)
    assert max(x) - 1e-12 <= v <= max(x) + math.log(len(x)) + 1e-12


@given(x=st.lists(unit_floats, min_size=1, max_size=10))
def test_shift_agrees_with_naive_evaluation(x):
    naive = math.log(sum(math.exp(v) for v in x))
    assert abs(log_sum_exp(x) - naive) <= 1e-12


@given(x=st.lists(unit_floats, min_size=1, max_size=10), seed=st.integers(0, 2**16))
def test_permutation_invariance_is_bitwise(x, seed):
    shuffled = x[:]
    random.Random(seed).shuffle(shuffled)
    assert log_sum_exp(x) == log_sum_exp(shuffled)


@given(
    x=st.lists(unit_floats, min_size=1, max_size=8),
    data=st.data(),
)
@settings(max_examples=60)
def test_strictly_increasing_in_each_coordinate(x, data):
    # the bump must be large enough for a float evaluation to resolve;
    # sub-ulp increases legitimately leave the result bitwise unchanged
    j = data.draw(st.integers(0, len(x) - 1))
    if x[j] > 1.0 - 1e-6:
        return
    y = x[:]
    y[j] = data.draw(st.floats(x[j] + 1e-6, 1.0, allow_nan=False))
    assert log_sum_exp(y) > log_sum_exp(x)


def test_shipped_objectives_satisfy_the_monotone_contract():
    rng = random.Random(31)
    pairs = []
    for _ in range(300):
        n = rng.randrange(1, 7)
        x = [Fraction(rng.randrange(10001), 10000) for _ in range(n)]
        y = [xi + (1 - xi) * Fraction(rng.randrange(10001), 10000) for xi in x]
        pairs.append((tuple(x), tuple(y)))
    for f in (log_sum_exp, max_coordinate, coordinate_sum):
        assert monotone_on_pairs(f, pairs)


def test_contract_violation_is_detectable():
    # the helper must actually discriminate, not rubber-stamp
    def decreasing(x):
        return -float(sum(x))

    assert not monotone_on_pairs(decreasing, [((0.1, 0.1), (0.5, 0.5))])


def test_registry_names():
    assert set(OBJECTIVES) == {"lse", "max", "sum"}
    assert OBJECTIVES["lse"] is log_sum_exp


# The docstrings of the built-ins when they were plain functions.
FUNCTION_DOCSTRINGS = {
    "lse": """log(exp(x_1) + ... + exp(x_n)), evaluated in max-shifted form
    M + log(sum_j exp(x_j - M)) with M = max_j x_j.

    Coordinates in [0,1] cannot overflow either way, but the shifted form
    costs nothing and keeps the function safe for reuse on wider inputs.
    The exponential terms are accumulated with math.fsum, so the result is
    identical under any permutation of coordinates.
    """,
    "max": """The largest coordinate; the function log-sum-exp smooths.""",
    "sum": """The plain coordinate sum, the other easy monotone objective.""",
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_built_ins_keep_their_function_behaviour(name):
    # A built-in carries its float kernel, but pickles, copies and documents
    # itself as the plain function it replaced did.
    f = OBJECTIVES[name]
    assert f is {"lse": log_sum_exp, "max": max_coordinate, "sum": coordinate_sum}[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    # Since 3.13 the compiler strips a docstring's common indentation, so
    # both sides are compared as inspect.cleandoc gives them.
    assert inspect.cleandoc(f.__doc__) == inspect.cleandoc(FUNCTION_DOCSTRINGS[name])


def _bits(value):
    return None if value is None else value.hex()


def _outcome(report):
    optimizer = report.optimizer
    return (
        None if optimizer is None else (optimizer.selector, optimizer.point),
        _bits(report.optimal_value),
        report.minimal_solutions,
        [_bits(v) for v in report.minimal_values],
        report.candidates_enumerated,
    )


def _oracle_outcome(answer):
    minimal, optimum = answer
    return minimal, None if optimum is None else (optimum[0], _bits(optimum[1]))


@given(inst=mixed_instances())
@settings(max_examples=150, deadline=None)
def test_float_kernels_match_the_exact_point_path(inst):
    # A built-in objective runs its float kernel on per-threshold (solver) or
    # per-column (oracle) floats. Any other objective receives exact points:
    # a plain function around a built-in, and a functools.wraps wrapper,
    # which copies the built-in's kernel attribute but must still run its
    # own body, once per evaluation. Every path must give the same bits.
    for f in OBJECTIVES.values():
        assert isinstance(f, _BuiltIn)
        seen = {"plain": [], "wraps": []}

        def exact(x, f=f):
            seen["plain"].append(x)
            return f(x)

        @functools.wraps(f)
        def wrapped(x, f=f):
            seen["wraps"].append(x)
            return f(x)

        assert wrapped.kernel is f.kernel and not isinstance(wrapped, _BuiltIn)
        for run, outcome in (
            (solve, _outcome),
            (solve_unpruned, _outcome),
            (brute_force, _oracle_outcome),
        ):
            seen["plain"].clear()
            seen["wraps"].clear()
            expected = outcome(run(inst, f))
            assert outcome(run(inst, exact)) == expected
            assert outcome(run(inst, wrapped)) == expected
            # The same exact points, in the same order, as the plain function.
            assert seen["wraps"] == seen["plain"]
            assert all(type(v) is Fraction for x in seen["wraps"] for v in x)
            if run is solve:
                assert len(seen["wraps"]) == len(expected[3])
