"""Command-line front end.

Subcommands: check (feasibility and admissible sets), solve (full
resolution), enumerate (list every candidate), verify (cross-check solver
against the brute-force oracle), generate (seeded random instances).

Exit codes: 0 success, 1 input error, 2 infeasible, 3 work cap or oracle
grid limit exceeded, 4 solver/oracle disagreement. A cmd_* function
returns only its result, 0, 2 or 4; main alone turns a failure into its
code: 1 for a usage error (argparse's own exit 2, since 2 here means
infeasible), an unreadable or malformed input or an unwritable output, 2
for InfeasibleSystemError, 3 for a cap or grid limit. The work cap (default
10^6) bounds search nodes for solve and solve --no-prune, which take it
from --cap or FRI_CAP, and for verify, which reads FRI_CAP only; for
enumerate (--cap or FRI_CAP) it bounds the selector count |E|. verify checks
the grid limit before it solves, so an instance over both limits is refused
for its grid; a malformed FRI_CAP it refuses before either, and before it
prints anything. Reports go to stdout, diagnostics to stderr. All row/column
indices in output are 1-based; text mode rounds values to 4 decimals,
structured mode emits full precision. Both formats are byte-identical from
run to run unless --timings adds wall-clock stage times. Every command
writes its answer from the integers the search or the product holds,
through the point and selector writers of files._writers; none builds a
Fraction or a Candidate after the instance is read.

An argv whose first word names a command is parsed by that command's
subparser alone, so argparse reads each argument once; any other argv
(-h, --version, no or an unknown command) goes through the top-level
parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .core import Instance
from .feasibility import InfeasibleSystemError, compute_index_sets
from .files import (
    _report_writers,
    _writers,
    load_instance,
    render_report_json,
    serialize_instance,
)
from .generate import generate_instance
from .objective import OBJECTIVES
from .oracle import (
    DEFAULT_LIMIT,
    GridTooLargeError,
    _is_minimal_scaled,
    _scaled_brute_force,
)
from .solver import (
    DEFAULT_CAP,
    CapExceededError,
    SolveReport,
    _product,
    solve,
    solve_unpruned,
)


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
        raise ValueError(f"FRI_CAP {exc}")


def _print_index_sets(idx) -> None:
    for i, s in enumerate(idx.sets):
        member_list = "{" + ", ".join(str(j + 1) for j in s) + "}"
        mark = "  (vacuous)" if idx.vacuous[i] else ""
        print(f"J({i + 1}) = {member_list}{mark}")


def _print_infeasible(idx) -> None:
    rows = ", ".join(str(i + 1) for i in idx.empty_rows)
    print(f"feasible: no (no admissible columns for row(s) {rows})")


def _print_header(name: Optional[str], inst: Instance) -> None:
    """The instance line, with the shape of the instance. A name with a
    character that print would not show as itself (a newline, a control
    or format character) is written JSON-escaped, so that it can neither
    split the line nor forge one."""
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
    if report.index_sets.feasible:
        _print_index_sets(report.index_sets)
        point_text, selector_text = _report_writers(report, structured=False)
        minimal = report._minimal
        print(f"|E| = {report.selector_count}")
        if minimal:
            print(f"minimal solutions: {len(minimal)}")
            for (key, point), value in zip(minimal, report.minimal_values):
                print(f"  e = {selector_text(key)}  x(e) = {point_text(point)}  f = {value:.4f}")
        else:
            print("minimal solutions: not computed (pruning skipped)")
        key, point = report._optimizer
        print(f"optimizer: e = {selector_text(key)}\nx* = {point_text(point)}")
        print(f"f* = {report.optimal_value:.4f}")
        if minimal:
            print(f"cells: {len(minimal)}")
    else:
        _print_infeasible(report.index_sets)
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
    inst, _ = load_instance(args.path)
    cap = args.cap if args.cap is not None else _default_cap()
    idx, coordinates, keyed = _product(inst, cap)
    point_text, selector_text = _writers(inst._D, inst.n, coordinates, idx.vacuous, structured=False)
    # The product holds at least one selector: every J(i) is non-empty.
    for count, (key, point) in enumerate(keyed, 1):
        print(f"e = {selector_text(key)}  x(e) = {point_text(point)}")
    print(f"|E| = {count}")
    return 0


def _verdict(agree: bool) -> int:
    """Print verify's verdict; its exit code, 0 or 4."""
    print(f"verdict: {'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 4


def cmd_verify(args: argparse.Namespace) -> int:
    inst, name = load_instance(args.path)
    cap = _default_cap()
    _print_header(name, inst)
    objective = OBJECTIVES[args.objective]
    # The oracle reads the instance's integers, with formulas of its own,
    # and answers in integers over inst._D, as the solver does: the two
    # point sets are compared, ordered and checked on those integers.
    oracle_minimal, oracle_optimum = _scaled_brute_force(inst, objective, args.limit)
    report = solve(inst, objective, cap)

    if not report.index_sets.feasible:
        rows = ", ".join(str(i + 1) for i in report.index_sets.empty_rows)
        print(f"solver: infeasible (row(s) {rows})")
        if oracle_minimal:
            print(f"oracle: found {len(oracle_minimal)} minimal point(s)")
        else:
            print("oracle: no feasible grid points")
        return _verdict(not oracle_minimal)

    print(
        f"solver: {len(report._minimal)} minimal solution(s), "
        f"optimal value {report.optimal_value!r}"
    )
    if oracle_optimum is None:
        print("oracle: no feasible grid points")
        return _verdict(False)
    _, oracle_value = oracle_optimum
    solver_points = sorted(point for _, point in report._minimal)
    not_minimal = [p for p in solver_points if not _is_minimal_scaled(inst, p)]
    minimal_agree = solver_points == oracle_minimal and not not_minimal
    value_agree = report.optimal_value == oracle_value

    print(
        f"oracle: {len(oracle_minimal)} minimal point(s), "
        f"optimal value {oracle_value!r}"
    )
    if not_minimal:
        point_text, _ = _report_writers(report, structured=False)
        for point in not_minimal:
            print(f"not minimal by the row inequalities: x = {point_text(point)}")
    print(f"minimal set: {'agree' if minimal_agree else 'DISAGREE'}")
    print(f"optimal value: {'agree' if value_agree else 'DISAGREE'}")
    return _verdict(minimal_agree and value_agree)


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
            raise OSError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subparsers by command name, built on
    the first call and reused after it.

    They hold no per-call state: parse_args returns a fresh namespace, the
    cap default (FRI_CAP) is read in the cmd_* functions, and usage errors
    print to the sys.stderr of the moment.
    """
    parser = argparse.ArgumentParser(
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

    return parser, sub.choices


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """parse_args of the top-level parser, with a command's arguments
    parsed by its subparser alone. The top-level parser hands a command
    every word after it, and reports the words its subparser leaves over
    as unrecognized; so does this."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is this tool's infeasible.
        return 1 if exc.code else 0
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
