"""Check the JSON result lines of a benchmark smoke run.

    python3 perfbench/run.py ... | python3 .github/check_bench_smoke.py ROWS
        [--max-absent-hooks N] [--grid-points]

Echoes its input, then exits 1 unless it read exactly ROWS result lines
(the JSON object each workload prints last), each with "correct" true and
"failed" 0. run.py exits 0 even when an output check fails, and "correct"
alone would forgive the failures run.py files as known defects, so both
are read. --max-absent-hooks N also requires the traced metric
trace.absent_hooks to be at most N; --grid-points requires
oracle.grid_points to be above 0.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("rows", type=int)
    parser.add_argument("--max-absent-hooks", type=int)
    parser.add_argument("--grid-points", action="store_true")
    args = parser.parse_args()
    rows = []
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.startswith('{"correct"'):
            rows.append(json.loads(line))
    conditions = ['"correct" true and "failed" 0']
    if args.max_absent_hooks is not None:
        conditions.append(f"at most {args.max_absent_hooks} absent hooks")
    if args.grid_points:
        conditions.append("oracle grid points above 0")

    def passes(row):
        metrics = row.get("metrics", {})
        return (
            row["correct"] is True
            and row["failed"] == 0
            and (args.max_absent_hooks is None
                 or metrics["trace.absent_hooks"]["value"] <= args.max_absent_hooks)
            and (not args.grid_points or metrics["oracle.grid_points"]["value"] > 0)
        )

    bad = [row for row in rows if not passes(row)]
    print(f"{len(rows)} of {args.rows} workloads, {len(bad)} failing: {', '.join(conditions)}")
    return 1 if len(rows) != args.rows or bad else 0


if __name__ == "__main__":
    sys.exit(main())
