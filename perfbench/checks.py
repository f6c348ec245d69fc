"""Exact output checks, independent of the solver's own code.

Everything here works on the instance as the program saw it: the file text
parsed with ``parse_float=Fraction``, so every grade is the exact decimal
written in the file. Reports are read back the same way. Nothing imports
frisolve; the formulas below are written from the problem statement:

    x is a member   iff  every row i with t_i = b_i - epsilon > 0 has a
                         column j with a_ij + x_j - 1 >= t_i;
    x is minimal    iff  it is a member and every nonzero x_j has a row i
                         with a_ij + x_j - 1 == t_i that no other column
                         satisfies (lowering x_j then breaks row i).

A check returns a list of problems, each a (kind, message) pair. The kind
``not-minimal`` on an instance with epsilon > 0 is the known defect of the
solver's threshold formula (ROADMAP item 2); the run counts it as a failed
call but keeps it apart from unexpected failures.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

NOT_MINIMAL = "not-minimal"


class InstanceData:
    """A, b and epsilon of one instance file, as exact rationals."""

    def __init__(self, A, b, epsilon=0):
        self.A = [[Fraction(a) for a in row] for row in A]
        self.b = [Fraction(v) for v in b]
        self.epsilon = Fraction(epsilon)
        self.n = len(self.A[0])
        self.thresholds = [bi - self.epsilon for bi in self.b]

    @classmethod
    def from_text(cls, text: str) -> "InstanceData":
        doc = json.loads(text, parse_float=Fraction)
        return cls(doc["A"], doc["b"], doc.get("epsilon", 0))

    def admissible(self, i: int) -> list[int]:
        return [j for j, a in enumerate(self.A[i]) if a >= self.thresholds[i]]

    def constraining_rows(self) -> list[int]:
        return [i for i, t in enumerate(self.thresholds) if t > 0]

    def empty_rows(self) -> list[int]:
        """1-based rows no column can satisfy, even at x = ones."""
        return [i + 1 for i in range(len(self.b)) if not self.admissible(i)]

    def selector_count(self) -> int:
        return math.prod(len(self.admissible(i)) for i in self.constraining_rows())

    def candidate_points(self) -> int:
        """Distinct points x(e) over all selectors e, where x_j(e) is the
        largest 1 + t_i - a_ij over the rows i that e sends to column j:
        the points the solver's dominance pass sorts and compares."""
        rows = self.constraining_rows()
        lowest = {(i, j): min(Fraction(1), 1 + self.thresholds[i] - self.A[i][j])
                  for i in rows for j in self.admissible(i)}
        # the same points with every coordinate replaced by its rank, to
        # compare small ints rather than fractions
        rank = {v: r for r, v in enumerate(sorted(set(lowest.values())), start=1)}
        lowest = {ij: rank[v] for ij, v in lowest.items()}
        points = set()
        for choice in itertools.product(*(self.admissible(i) for i in rows)):
            x = [0] * self.n
            for i, j in zip(rows, choice):
                if lowest[i, j] > x[j]:
                    x[j] = lowest[i, j]
            points.add(tuple(x))
        return len(points)

    def grid(self) -> list[list[Fraction]]:
        """Per-column values {0, 1, 1 + t_i - a_ij} of the lattice that a
        brute-force search over minimal points visits."""
        columns = [{Fraction(0), Fraction(1)} for _ in range(self.n)]
        for i in self.constraining_rows():
            for j in self.admissible(i):
                columns[j].add(1 + self.thresholds[i] - self.A[i][j])
        return [sorted(c) for c in columns]

    def grid_points(self) -> int:
        """Points of that lattice: the oracle builds and tests every one."""
        return math.prod(len(values) for values in self.grid())

    def satisfiers(self, i: int, x) -> list[int]:
        return [j for j, (a, xj) in enumerate(zip(self.A[i], x)) if a + xj - 1 >= self.thresholds[i]]

    def is_member(self, x) -> bool:
        return all(self.satisfiers(i, x) for i in self.constraining_rows())

    def is_minimal(self, x) -> bool:
        if not self.is_member(x):
            return False
        tight_sole = set()
        for i in self.constraining_rows():
            sat = self.satisfiers(i, x)
            if len(sat) == 1:
                j = sat[0]
                if self.A[i][j] + x[j] - 1 == self.thresholds[i]:
                    tight_sole.add(j)
        return all(j in tight_sole for j, xj in enumerate(x) if xj != 0)


def log_sum_exp(x) -> float:
    values = [float(v) for v in x]
    shift = max(values)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in values))


def digest(points) -> str:
    """Digest of a set of exact points, independent of report order."""
    text = ";".join(",".join(str(v) for v in p) for p in sorted(points))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _point(inst: InstanceData, raw, label: str, problems: list):
    if not isinstance(raw, list) or len(raw) != inst.n:
        problems.append(("format", f"{label} is not a point of length {inst.n}"))
        return None
    point = tuple(Fraction(v) for v in raw)
    if not inst.is_member(point):
        problems.append(("not-member", f"{label} is not feasible"))
    elif not inst.is_minimal(point):
        problems.append((NOT_MINIMAL, f"{label} is not a minimal solution"))
    return point


def _check_value(entry, point, label: str, problems: list) -> None:
    value = entry.get("objective_value")
    if value is None or not math.isclose(float(value), log_sum_exp(point), rel_tol=1e-12):
        problems.append(("objective", f"{label} objective_value {value} is not lse(point)"))


def check_solve(inst: InstanceData, feasible: bool, rc, out: str, pruned: bool):
    """Check one `solve --format structured` call.

    Returns (problems, summary); summary holds the optimal value, the
    minimal count and the minimal-set digest for comparison against
    reference values, or None when the instance is infeasible.
    """
    problems: list = []
    if rc != (0 if feasible else 2):
        return [("exit", f"exit code {rc!r}, expected {0 if feasible else 2}")], None
    try:
        data = json.loads(out, parse_float=Fraction)
    except ValueError as exc:
        return [("format", f"report is not JSON: {exc}")], None
    if not feasible:
        if data.get("feasible") is not False or data.get("empty_rows") != inst.empty_rows():
            problems.append(("verdict", f"expected infeasible with empty rows {inst.empty_rows()}"))
        return problems, None
    if data.get("feasible") is not True:
        return [("verdict", "feasible instance reported infeasible")], None

    points = []
    for k, entry in enumerate(data.get("minimal_solutions", [])):
        point = _point(inst, entry.get("point"), f"minimal point {k + 1}", problems)
        if point is not None:
            _check_value(entry, point, f"minimal point {k + 1}", problems)
            points.append(point)
    if len(set(points)) != len(points):
        problems.append(("duplicate", "minimal set lists a point twice"))
    if pruned and not points:
        problems.append(("format", "no minimal solutions reported"))

    optimizer = data.get("optimizer")
    if not isinstance(optimizer, dict):
        return problems + [("format", "no optimizer reported")], None
    opt_point = _point(inst, optimizer.get("point"), "optimizer", problems)
    if opt_point is None:
        return problems, None
    _check_value(optimizer, opt_point, "optimizer", problems)
    value = data.get("optimal_value")
    if value is None or value != optimizer.get("objective_value"):
        problems.append(("optimum", f"optimal_value {value} differs from the optimizer's value"))
    elif pruned:
        if opt_point not in points:
            problems.append(("optimum", "optimizer is not in the minimal set"))
        values = [e.get("objective_value") for e in data["minimal_solutions"]]
        if any(v is not None and v < value for v in values):
            problems.append(("optimum", "a minimal point has a lower objective than the optimum"))
    summary = {
        "optimal_value": float(value).hex() if value is not None else None,
        "minimal_count": len(points) if pruned else None,
        "digest": digest(points) if pruned else None,
    }
    return problems, summary


_SOLVER_LINE = re.compile(r"solver: (\d+) minimal solution\(s\), optimal value (\S+)$")


def check_verify(inst: InstanceData, feasible: bool, rc, out: str):
    """Check one `verify` call; same return shape as check_solve."""
    if rc != 0:
        return [("exit", f"exit code {rc!r}, expected 0")], None
    lines = out.splitlines()
    if not lines or lines[-1] != "verdict: agree":
        return [("verdict", "verify did not report agreement")], None
    if not feasible:
        rows = ", ".join(str(i) for i in inst.empty_rows())
        if f"solver: infeasible (row(s) {rows})" not in lines:
            return [("verdict", f"expected the solver to name empty rows {rows}")], None
        return [], None
    match = next((m for m in map(_SOLVER_LINE.match, lines) if m), None)
    if match is None:
        return [("format", "no solver summary line")], None
    count, value = int(match.group(1)), float(match.group(2))
    summary = {"optimal_value": value.hex(), "minimal_count": count, "digest": None}
    return [], summary


def compare_reference(summary, ref) -> list:
    """Problems where a summary departs from its stored reference; fields
    the summary lacks (None) are not compared."""
    if summary is None:
        return [("reference", "no result to compare with the reference")]
    return [
        ("reference", f"{key} {summary[key]} differs from reference {ref[key]}")
        for key in ("optimal_value", "minimal_count", "digest")
        if summary[key] is not None and summary[key] != ref[key]
    ]
