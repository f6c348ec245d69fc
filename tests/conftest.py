"""Shared fixtures: the golden 5x7 instance with its hand-checked values,
random-instance streams, and the acceptance-criteria summary hook."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from frisolve import Instance, generate_instance

# The worked 5x7 system. Every expected value below was recomputed by hand
# or by an independent brute-force script before the solver existed.
GOLDEN_JSON = """\
{
  "name": "demo-5x7",
  "A": [
    [0.8147, 0.0975, 0.1576, 0.1418, 0.6557, 0.7577, 0.7060],
    [0.2784, 0.9058, 0.9705, 0.4217, 0.0357, 0.7431, 0.0318],
    [0.1270, 0.5468, 0.9571, 0.9157, 0.8491, 0.3922, 0.2769],
    [0.5134, 0.3575, 0.4853, 0.7922, 0.9339, 0.6554, 0.0461],
    [0.6323, 0.4648, 0.8002, 0.6594, 0.6787, 0.1711, 0.0971]
  ],
  "b": [0.7898, 0.8456, 0.9463, 0.7094, 0.7547]
}
"""


def F(s: str) -> Fraction:
    return Fraction(s)


def fpoint(*coords: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


GOLDEN_COMPOSE_ONES = fpoint("0.8147", "0.9705", "0.9571", "0.9339", "0.8002")

# 0-based column sets per row
GOLDEN_J = ((0,), (1, 2), (2,), (3, 4), (2,))

# 0-based selector -> candidate point, in enumeration (lexicographic) order
GOLDEN_CANDIDATES = {
    (0, 1, 2, 3, 2): fpoint("0.9751", "0.9398", "0.9892", "0.9172", "0", "0", "0"),
    (0, 1, 2, 4, 2): fpoint("0.9751", "0.9398", "0.9892", "0", "0.7755", "0", "0"),
    (0, 2, 2, 3, 2): fpoint("0.9751", "0", "0.9892", "0.9172", "0", "0", "0"),
    (0, 2, 2, 4, 2): fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0"),
}

GOLDEN_MINIMAL = {
    fpoint("0.9751", "0", "0.9892", "0.9172", "0", "0", "0"),
    fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0"),
}

GOLDEN_OPTIMIZER_SELECTOR = (0, 2, 2, 4, 2)
GOLDEN_OPTIMIZER_POINT = fpoint("0.9751", "0", "0.9892", "0", "0.7755", "0", "0")
GOLDEN_OPT_VALUE = 2.4434       # 4-decimal, tolerance 5e-4
GOLDEN_OTHER_VALUE = 2.4717     # f at the other minimal solution

# Small instance checked entirely by hand: J(1) = J(2) = {1, 2},
# four candidates, three of them minimal.
HAND_2X2 = Instance(
    A=(("0.9", "0.8"), ("0.7", "0.95")),
    b=("0.6", "0.5"),
)
HAND_2X2_CANDIDATES = {
    (0, 0): fpoint("0.8", "0"),
    (0, 1): fpoint("0.7", "0.55"),
    (1, 0): fpoint("0.8", "0.8"),
    (1, 1): fpoint("0", "0.8"),
}
HAND_2X2_MINIMAL = {
    fpoint("0.8", "0"),
    fpoint("0.7", "0.55"),
    fpoint("0", "0.8"),
}


@pytest.fixture(scope="session")
def golden() -> Instance:
    from frisolve import parse_instance_text

    inst, name = parse_instance_text(GOLDEN_JSON)
    assert name == "demo-5x7"
    return inst


def random_instances(count: int, base_seed: int, density: float = 1.0, feasible: bool = True):
    """Deterministic stream of generated instances with m, n in 2..5."""
    out = []
    for k in range(count):
        m = 2 + k % 4
        n = 2 + (k * 7) % 4
        inst, name = generate_instance(
            m, n, seed=base_seed + k, feasible=feasible, density=density
        )
        out.append((inst, name))
    return out


# --- acceptance summary -----------------------------------------------------
# One line per criterion at the end of the run, independent of -q/-v.

CRITERIA_DESCRIPTIONS = {
    1: "golden composition at the top point and feasibility verdict",
    2: "golden admissible sets and selector count",
    3: "golden candidate vectors",
    4: "golden minimal-solution set",
    5: "golden optimizer and objective values",
    6: "solver equals brute-force oracle on 50 random instances",
    7: "optimal value lower-bounds 10^4 sampled feasible points per instance",
    8: "structural invariants (membership, closure, sandwich, path equality)",
    9: "byte-identical structured reports; pruned and unpruned optimum agree",
}

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        if report.skipped:
            _acceptance_results[num] = "SKIP"
        else:
            _acceptance_results[num] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown crash counts as failure
        _acceptance_results[num] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA_DESCRIPTIONS):
        outcome = _acceptance_results.get(num, "NOT RUN")
        desc = CRITERIA_DESCRIPTIONS[num]
        terminalreporter.write_line(f"criterion {num}: {outcome} - {desc}")
