"""Command-line front end.

Subcommands: check (feasibility and admissible sets), solve (full
resolution), enumerate (list every candidate), verify (cross-check solver
against the brute-force oracle), generate (seeded random instances).

Exit codes: 0 success, 1 input error, 2 infeasible, 3 work cap or oracle
grid limit exceeded, 4 solver/oracle disagreement. The work cap (default
10^6) bounds search nodes for solve and solve --no-prune, which take it
from --cap or FRI_CAP, and for verify, which reads FRI_CAP only; for
enumerate (--cap or FRI_CAP) it bounds the selector count |E|. verify checks
the grid limit before it solves, so an instance over both limits is refused
for its grid. Reports go to stdout, diagnostics to stderr. All row/column
indices in output are 1-based; text mode rounds values to 4 decimals,
structured mode emits full precision. Both formats are byte-identical from
run to run unless --timings adds wall-clock stage times.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import __version__
from .core import Instance, Point
from .feasibility import InfeasibleSystemError, compute_index_sets
from .files import (
    InstanceFormatError,
    grade_number,
    load_instance,
    render_report_json,
    serialize_instance,
)
from .generate import generate_instance
from .objective import OBJECTIVES
from .oracle import (
    DEFAULT_LIMIT,
    GridTooLargeError,
    brute_force,
    is_minimal_point,
)
from .solver import SolveReport, solve, solve_unpruned
from .structure import DEFAULT_CAP, CapExceededError, enumerate_candidates


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which this tool reserves for
    infeasible systems; remap to the input-error code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> None:
    print(f"frisolve: error: {message}", file=sys.stderr)


def _positive_int(raw: str) -> int:
    """argparse type of --cap and --limit: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_cap() -> int:
    raw = os.environ.get("FRI_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise InstanceFormatError(f"FRI_CAP {exc}")


def _fmt_value(v: float) -> str:
    return f"{v:.4f}"


def _fmt_point(p: Point) -> str:
    return "[" + ", ".join(f"{grade_number(v):.4f}" for v in p) + "]"


def _fmt_selector(selector: tuple[Optional[int], ...]) -> str:
    return "[" + ", ".join("-" if c is None else str(c + 1) for c in selector) + "]"


def _print_index_sets(idx) -> None:
    for i, s in enumerate(idx.sets):
        member_list = "{" + ", ".join(str(j + 1) for j in s) + "}"
        mark = "  (vacuous)" if idx.vacuous[i] else ""
        print(f"J({i + 1}) = {member_list}{mark}")


def _print_infeasible(idx) -> None:
    rows = ", ".join(str(i + 1) for i in idx.empty_rows)
    print(f"feasible: no (no admissible columns for row(s) {rows})")


def _print_header(name: Optional[str], inst: Instance) -> None:
    """The instance line. A name with a character that print would not
    show as itself (a newline, a control or format character) is written
    JSON-escaped, so that it can neither split the line nor forge one."""
    if name is None:
        shown = "(unnamed)"
    else:
        shown = name if name.isprintable() else json.dumps(name)
    print(f"instance: {shown} (m={inst.m}, n={inst.n})")


def cmd_check(args: argparse.Namespace) -> int:
    inst, name = load_instance(args.path)
    idx = compute_index_sets(inst)
    _print_header(name, inst)
    _print_index_sets(idx)
    if idx.feasible:
        print("feasible: yes (the all-ones point is the maximum solution)")
        return 0
    _print_infeasible(idx)
    return 2


def _print_text_report(
    report: SolveReport, name: Optional[str], inst: Instance, timings: bool
) -> None:
    _print_header(name, inst)
    if not report.index_sets.feasible:
        _print_infeasible(report.index_sets)
        return
    _print_index_sets(report.index_sets)
    print(f"|E| = {report.selector_count}")
    if report.minimal_solutions:
        print(f"minimal solutions: {len(report.minimal_solutions)}")
        for cand, value in zip(report.minimal_solutions, report.minimal_values):
            print(
                f"  e = {_fmt_selector(cand.selector)}  "
                f"x(e) = {_fmt_point(cand.point)}  f = {_fmt_value(value)}"
            )
    else:
        print("minimal solutions: not computed (pruning skipped)")
    print(f"optimizer: e = {_fmt_selector(report.optimizer.selector)}")
    print(f"x* = {_fmt_point(report.optimizer.point)}")
    print(f"f* = {_fmt_value(report.optimal_value)}")
    if report.minimal_solutions:
        print(f"cells: {len(report.minimal_solutions)}")
    if timings:
        stages = ", ".join(f"{k} {v:.3f}s" for k, v in report.timing.items())
        print(f"timings: {stages}")


def cmd_solve(args: argparse.Namespace) -> int:
    inst, name = load_instance(args.path)
    objective = OBJECTIVES[args.objective]
    cap = args.cap if args.cap is not None else _default_cap()
    runner = solve_unpruned if args.no_prune else solve
    report = runner(inst, objective, cap)
    if args.format == "structured":
        sys.stdout.write(render_report_json(report, name, include_timings=args.timings))
    else:
        _print_text_report(report, name, inst, args.timings)
    return 0 if report.index_sets.feasible else 2


def cmd_enumerate(args: argparse.Namespace) -> int:
    inst, name = load_instance(args.path)
    cap = args.cap if args.cap is not None else _default_cap()
    count = 0
    for cand in enumerate_candidates(inst, cap=cap):
        print(f"e = {_fmt_selector(cand.selector)}  x(e) = {_fmt_point(cand.point)}")
        count += 1
    print(f"|E| = {count}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst, name = load_instance(args.path)
    _print_header(name, inst)
    objective = OBJECTIVES[args.objective]
    oracle_minimal, oracle_optimum = brute_force(inst, objective, limit=args.limit)
    report = solve(inst, objective, _default_cap())

    if not report.index_sets.feasible:
        rows = ", ".join(str(i + 1) for i in report.index_sets.empty_rows)
        print(f"solver: infeasible (row(s) {rows})")
        if oracle_minimal:
            print(f"oracle: found {len(oracle_minimal)} minimal point(s)")
            print("verdict: DISAGREE")
            return 4
        print("oracle: no feasible grid points")
        print("verdict: agree")
        return 0

    print(
        f"solver: {len(report.minimal_solutions)} minimal solution(s), "
        f"optimal value {report.optimal_value!r}"
    )
    if oracle_optimum is None:
        print("oracle: no feasible grid points")
        print("verdict: DISAGREE")
        return 4
    _, oracle_value = oracle_optimum
    solver_points = sorted(c.point for c in report.minimal_solutions)
    not_minimal = [p for p in solver_points if not is_minimal_point(inst, p)]
    minimal_agree = solver_points == oracle_minimal and not not_minimal
    value_agree = report.optimal_value == oracle_value

    print(
        f"oracle: {len(oracle_minimal)} minimal point(s), "
        f"optimal value {oracle_value!r}"
    )
    for point in not_minimal:
        print(f"not minimal by the row inequalities: x = {_fmt_point(point)}")
    print(f"minimal set: {'agree' if minimal_agree else 'DISAGREE'}")
    print(f"optimal value: {'agree' if value_agree else 'DISAGREE'}")
    if minimal_agree and value_agree:
        print("verdict: agree")
        return 0
    print("verdict: DISAGREE")
    return 4


def cmd_generate(args: argparse.Namespace) -> int:
    inst, name = generate_instance(
        args.m, args.n, seed=args.seed, feasible=not args.infeasible, density=args.density
    )
    text = serialize_instance(inst, name)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {args.output}: {exc.strerror}")
            return 1
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    It holds no per-call state: parse_args returns a fresh namespace, the
    cap default (FRI_CAP) is read in the cmd_* functions, and usage errors
    print to the sys.stderr of the moment.
    """
    parser = _Parser(
        prog="frisolve",
        description=(
            "Feasibility, minimal solutions, and exact monotone-objective "
            "optimization for systems max_j max(a_ij + x_j - 1, 0) >= b_i "
            "over the unit cube."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide feasibility and print the admissible sets")
    p_check.add_argument("path", help="instance file")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="full resolution: minimal solutions and the optimum")
    p_solve.add_argument("path", help="instance file")
    p_solve.add_argument(
        "--objective", choices=sorted(OBJECTIVES), default="lse",
        help="objective to minimize (default: lse, log-sum-exp)",
    )
    p_solve.add_argument(
        "--no-prune", action="store_true",
        help="bound-pruned search for the optimum alone; same optimizer, "
        "no minimal-solution set in the report",
    )
    p_solve.add_argument(
        "--cap", type=_positive_int, default=None,
        help="search-node cap (default 10^6 or FRI_CAP)",
    )
    p_solve.add_argument("--format", choices=["text", "structured"], default="text")
    p_solve.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings in the report (breaks byte identity across runs)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_enum = sub.add_parser("enumerate", help="list every candidate x(e) with its selector")
    p_enum.add_argument("path", help="instance file")
    p_enum.add_argument(
        "--cap", type=_positive_int, default=None,
        help="selector cap (default 10^6 or FRI_CAP)",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="cross-check the solver against brute-force search")
    p_verify.add_argument("path", help="instance file")
    p_verify.add_argument(
        "--limit", type=_positive_int, default=DEFAULT_LIMIT, help="grid-point limit"
    )
    p_verify.add_argument("--objective", choices=sorted(OBJECTIVES), default="lse")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a seeded random instance file")
    p_gen.add_argument("m", type=int, help="rows")
    p_gen.add_argument("n", type=int, help="columns")
    p_gen.add_argument("--seed", type=int, required=True, help="RNG seed (same seed, same file)")
    p_gen.add_argument("--infeasible", action="store_true", help="force an unreachable threshold")
    p_gen.add_argument(
        "--density", type=float, default=1.0,
        help="threshold shaping; larger values enlarge the admissible sets",
    )
    p_gen.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleSystemError as exc:
        _fail(str(exc))
        return 2
    except (CapExceededError, GridTooLargeError) as exc:
        _fail(str(exc))
        return 3
    except (OSError, ValueError) as exc:
        _fail(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
