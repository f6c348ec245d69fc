"""One-shot record of the ROADMAP instance ladder, not a timed workload.

    python3 perfbench/ladder.py [--out perfbench/ladder.json]

Each rung is generated with ``generate_instance(m, n, seed, density)`` and
solved by ``frisolve solve --format structured --timings`` in a process of
its own, under the default candidate cap (FRI_CAP is removed from the
environment). The record gives, per rung: solved or refused, |E| (counted
here from A and b), the minimal count, the optimal value, wall time, the
solver's stage timings and the process's peak RSS. Solved reports pass the
same exact checks as the benchmark's (checks.py).

The ladder stays out of the timed workloads: a refusal is cheaper than a
solve, so a change that lets a rung solve would read as a slowdown, and the
largest solved rung takes over a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNGS = ((8, 6, 2, 2.0), (8, 8, 1, 2.0), (9, 8, 4, 3.0), (14, 10, 7, 6.0), (20, 12, 11, 3.0))


def run_rung(m: int, n: int, seed: int, density: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from frisolve import cli
    from frisolve.files import serialize_instance
    from frisolve.generate import generate_instance

    inst, name = generate_instance(m, n, seed=seed, density=density)
    text = serialize_instance(inst, name)
    path = ROOT / ".perfbench-out" / f"ladder-{m}x{n}-s{seed}-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    data = checks.InstanceData.from_text(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = cli.main(["solve", str(path), "--format", "structured", "--timings"])
            elapsed = perf_counter() - start
    finally:
        path.unlink()
    record = {
        "rung": f"{m}x{n} s{seed} d{density:g}",
        "selectors": data.selector_count(),
        "exit": rc,
        "seconds": elapsed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rc == 3:
        record["status"] = "refused"
        record["message"] = err.getvalue().strip()
        return record
    problems, _ = checks.check_solve(data, True, rc, out.getvalue(), True)
    report = json.loads(out.getvalue())
    record.update(
        status="solved",
        minimal_count=len(report["minimal_solutions"]),
        optimal_value=report["optimal_value"],
        timings=report["timings"],
        check_problems=[message for _, message in problems],
    )
    return record


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description="Record the instance ladder.")
    parser.add_argument("--out", default=str(HERE / "ladder.json"))
    parser.add_argument("--rung", nargs=4, metavar=("M", "N", "SEED", "DENSITY"))
    args = parser.parse_args()
    if args.rung:
        m, n, seed, density = args.rung
        print(json.dumps(run_rung(int(m), int(n), int(seed), float(density))))
        return 0

    env = {k: v for k, v in os.environ.items() if k != "FRI_CAP"}
    rungs = []
    for m, n, seed, density in RUNGS:
        cmd = [sys.executable, __file__, "--rung", str(m), str(n), str(seed), str(density)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=1800)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        rungs.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(rungs[-1]))
    record = {
        "hardware": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "rungs": rungs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
