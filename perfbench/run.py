"""Benchmark of frisolve command-line runs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; frisolve is imported from the
checkout's src/ directory. Each operation is one in-process call of
``frisolve.cli.main(argv)`` on an instance file generated from --seed, made
by a single closed-loop client in one thread: the next call starts when
the previous one has returned. End-to-end times are scaled to a reference
speed by a calibration run just before and just after each call (see
scaled()).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced passes and passes with every layer hooked (see
spans.py), and reports per-layer self times and counts per pass of the
pool, plus the tracing overhead. Every output is checked (checks.py). The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--workload all runs every workload in its own child process and prints a
summary table. --write-reference records the reference values for the
default seed in reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import pools
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
WARM_UP_S = 1.0
# What calibrate() takes on a 2-core Xeon VM when the host is quiet; times
# scaled to it read as seconds on that machine at that speed.
CALIBRATION_REF_S = 1e-3

# workload -> (pool, argv after the instance path). optimum-only shares the
# wide pool so that the same selector products meet the streaming path.
WORKLOADS = {
    "many-small": ("small", ["solve", "{path}", "--format", "structured"]),
    "wide-selector": ("wide", ["solve", "{path}", "--format", "structured"]),
    "optimum-only": ("wide", ["solve", "{path}", "--format", "structured", "--no-prune"]),
    "verify-small": ("verify", ["verify", "{path}"]),
}

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)
# per-layer metric -> (unit, span or count name, kind)
PER_LAYER = {
    "cli.self_s": ("s/pass", "cli", "self"),
    "files.load_s": ("s/pass", "files.load", "self"),
    "files.report_s": ("s/pass", "files.report", "self"),
    "feasibility.s": ("s/pass", "feasibility", "self"),
    "structure.candidates_s": ("s/pass", "structure.candidates", "self"),
    "structure.candidates": ("count/pass", "structure.candidates", "count"),
    "structure.prune_s": ("s/pass", "structure.prune", "self"),
    "objective.calls": ("count/pass", "objective", "count"),
    "objective.s": ("s/pass", "objective", "self"),
    "solver.self_s": ("s/pass", "solver", "self"),
    "oracle.minimal_s": ("s/pass", "oracle.minimal", "self"),
    "oracle.optimum_s": ("s/pass", "oracle.optimum", "self"),
    "oracle.grid_points": ("count/pass", "oracle.grid_points", "count"),
    "core.is_member_calls": ("count/pass", "core.is_member_calls", "count"),
}


def calibrate() -> float:
    """Time a fixed piece of interpreter work of the kind the program does
    (exact fractions, tuples, a dict, a keyed sort) that uses no frisolve
    code, so that no change to the program changes it."""
    start = perf_counter()
    seen = {}
    for k in range(40):
        point = tuple(Fraction(k * j % 11, 7) + Fraction(1, 3) for j in range(6))
        seen[point] = k
    sorted(seen, key=lambda p: (sum(p), p))
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two calibrations, scaled to the reference speed.

    On a shared host, load from other tenants slows all code down by up to
    2x, in spells that last from a second to minutes; neither the median
    nor the fastest of many calls escapes a spell that outlasts the run.
    The calibrations just before and just after a call slow down with it,
    so their mean gives the speed of the machine at that moment."""
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


class Setup:
    """The imported CLI and the pool files of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, repeats: int):
        self.workload, self.seed = workload, seed
        pool_name, self.argv = WORKLOADS[workload]
        src = ROOT / "src"
        if not (src / "frisolve" / "cli.py").is_file():
            raise SystemExit(f"perfbench: no frisolve sources under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        self.times, self.raw_times = [], []
        for _ in range(repeats):
            before = calibrate()
            # Each repeat imports frisolve afresh; the first also pays for
            # the standard-library modules it pulls in. Only the program's
            # work is timed: the import, generate_instance calls, and
            # serializing and writing the pool, not the sampling around them.
            for name in [m for m in sys.modules if m == "frisolve" or m.startswith("frisolve.")]:
                del sys.modules[name]
            start = perf_counter()
            self.cli = importlib.import_module("frisolve.cli")
            generate = importlib.import_module("frisolve.generate")
            files = importlib.import_module("frisolve.files")
            spent = perf_counter() - start
            generating = [0.0]

            def generate_instance(*args, **kwargs):
                begin = perf_counter()
                try:
                    return generate.generate_instance(*args, **kwargs)
                finally:
                    generating[0] += perf_counter() - begin

            pool = pools.draw_pool(pool_name, seed, generate_instance)
            start = perf_counter()
            texts = pools.write_pool(pool, files.serialize_instance, workdir)
            spent += generating[0] + perf_counter() - start
            self.raw_times.append(spent)
            self.times.append(scaled(spent, before, calibrate()))
        self.jobs = pools.jobs(pool, texts, workdir)

    def argv_for(self, job) -> list[str]:
        return [a.format(path=job.path) for a in self.argv]


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed run
            rc = f"raised {exc!r}"
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue()


class Passes(NamedTuple):
    """Per job the duration of each of its calls, as measured and scaled
    to the reference speed, and the number of whole passes."""

    raw: list[list[float]]
    scaled: list[list[float]]
    whole: int


class Runner:
    """Closed-loop passes over the pool, with every output kept for checking."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.first: dict[int, tuple] = {}  # job id -> (rc, stdout) of its first call
        self.calls: dict[int, int] = {}
        self.mismatched: dict[int, int] = {}  # job id -> calls that printed something else

    @property
    def attempted(self) -> int:
        """Instances called; each one's calls are checked together."""
        return len(self.first)

    def passes(self, seconds: float, tracer: Tracer | None = None) -> Passes:
        """Run passes until the time is up, finishing at least one; the pass
        running at the deadline stops there. Every call is preceded and
        followed by a calibration. With a tracer, every call is traced and
        the tracer's pass number goes up after each whole pass."""
        jobs = self.setup.jobs
        deadline = perf_counter() + seconds
        raw, scaled_times = [[] for _ in jobs], [[] for _ in jobs]
        whole, before = 0, calibrate()
        while not whole or perf_counter() < deadline:
            for job in jobs:
                if whole and perf_counter() >= deadline:
                    return Passes(raw, scaled_times, whole)
                if tracer is not None:
                    tracer.instance = (tracer.passes, job.id)
                    sid = tracer.open("cli")
                dt, rc, out = call(self.setup.cli.main, self.setup.argv_for(job))
                if tracer is not None:
                    tracer.close(sid)
                after = calibrate()
                raw[job.id].append(dt)
                scaled_times[job.id].append(scaled(dt, before, after))
                before = after
                self.record(job, rc, out)
            whole += 1
            if tracer is not None:
                tracer.passes += 1
        return Passes(raw, scaled_times, whole)

    def record(self, job, rc, out) -> None:
        self.calls[job.id] = self.calls.get(job.id, 0) + 1
        if job.id not in self.first:
            self.first[job.id] = (rc, out)
        elif self.first[job.id] != (rc, out):
            self.mismatched[job.id] = self.mismatched.get(job.id, 0) + 1

    def check(self, workload: str, seed: int) -> tuple[int, int, list[str]]:
        """Check the first output of every job called; returns (failed
        instances, failed instances outside the known defect, problem
        lines). An instance fails if its output fails a check or a later
        call printed something else."""
        refs = load_reference(workload, seed)
        failed = unexpected = 0
        lines, known_ids = [], []
        for job in self.setup.jobs:
            if job.id not in self.first:
                continue
            rc, out = self.first[job.id]
            try:
                if workload == "verify-small":
                    problems, summary = checks.check_verify(job.data, job.feasible, rc, out)
                else:
                    pruned = workload != "optimum-only"
                    problems, summary = checks.check_solve(job.data, job.feasible, rc, out, pruned)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                problems, summary = [("format", f"report has an unexpected shape: {exc!r}")], None
            ref = refs.get(str(job.id))
            if ref is not None and not problems:
                problems = checks.compare_reference(summary, ref)
            if not problems and job.id in self.mismatched:
                problems = [("nondeterministic", f"{self.mismatched[job.id]} later call(s) "
                             "printed other output than the first")]
            if problems:
                failed += 1
                if job.epsilon and all(kind == checks.NOT_MINIMAL for kind, _ in problems):
                    known_ids.append(job.id)
                else:
                    unexpected += 1
                    more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
                    lines.append(f"UNEXPECTED: instance {job.id}: "
                                 + "; ".join(m for _, m in problems[:3]) + more)
        if len(lines) > 10:
            lines[10:] = [f"UNEXPECTED: ... and {len(lines) - 10} more instance(s)"]
        if known_ids:
            lines.append(
                f"known defect (ROADMAP item 2): {len(known_ids)} epsilon > 0 instance(s) "
                f"report points that are not minimal, e.g. instance {known_ids[0]}"
            )
        return failed, unexpected, lines


def load_reference(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    pool_name = WORKLOADS[workload][0]
    return json.loads(REFERENCE.read_text())["pools"].get(pool_name, {})


def medians(per_job) -> list[float]:
    return [statistics.median(times) for times in per_job]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: Setup, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Every time metric is over each instance's median scaled call time,
    so that each instance counts once however many calls it got."""
    passes = runner.passes(seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    typical = medians(passes.scaled)
    values = {
        "instances_per_s": len(setup.jobs) / sum(typical),
        "latency_p50_ms": percentile(typical, 50) * 1e3,
        "latency_p90_ms": percentile(typical, 90) * 1e3,
        "peak_rss_mib": rss_mib,
        "setup_s": statistics.median(setup.times),
    }
    measured = sum(medians(passes.raw))
    notes = [
        f"{sum(map(len, passes.raw))} calls in {passes.whole} whole pass(es) of {len(setup.jobs)} "
        f"instances; every instance called {min(map(len, passes.raw))} time(s) or more",
        f"times scaled to the reference speed; unscaled, the instances' median calls add up "
        f"to {measured:.4f} s, {measured * values['instances_per_s'] / len(setup.jobs):.3f}x scaled",
        f"setup_s is the median of {len(setup.times)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup.times)
        + " (unscaled " + ", ".join(f"{t:.4f}" for t in setup.raw_times) + ")",
    ]
    return values, notes


def per_layer(setup: Setup, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Alternate one untraced and one traced pass until the time is up, so
    that both see the same drift in machine speed."""
    tracer = Tracer()
    untraced, traced = [[] for _ in setup.jobs], [[] for _ in setup.jobs]
    traced_call_s = 0.0
    deadline = perf_counter() + seconds
    while not traced[0] or perf_counter() < deadline:
        for times, dt in zip(untraced, runner.passes(0).scaled):
            times += dt
        tracer.install()
        try:
            one = runner.passes(0, tracer)
        finally:
            tracer.uninstall()
        for times, dt, raw in zip(traced, one.scaled, one.raw):
            times += dt
            traced_call_s += sum(raw)
    passes = tracer.passes
    self_s = tracer.self_times()
    counts = tracer.span_counts()
    values = {}
    for metric, (_, name, kind) in PER_LAYER.items():
        values[metric] = (self_s if kind == "self" else counts).get(name, 0) / passes
    built = counts.get("structure.candidates", 0)
    values["structure.prune_yield"] = counts.get("structure.prune", 0) / built if built else 0.0
    traced_s, untraced_s = sum(medians(traced)), sum(medians(untraced))
    values["trace.overhead"] = traced_s / untraced_s - 1
    values["trace.accounted"] = sum(self_s.values()) / traced_call_s
    values["trace.absent_hooks"] = len(tracer.absent)

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{setup.workload}-seed{setup.seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    notes = [
        f"{passes} traced pass(es), {len(untraced[0])} untraced; spans in {spans_file.relative_to(ROOT)}",
        f"median scaled calls add up to {traced_s:.4f} s traced, {untraced_s:.4f} s untraced: "
        f"overhead {values['trace.overhead']:+.1%}",
        f"layer self times add up to {values['trace.accounted']:.2%} of the traced call time",
    ]
    if tracer.absent:
        notes.append("absent hooks: " + ", ".join(sorted(tracer.absent)))
    return values, notes


UNITS = dict(END_TO_END) | {k: u for k, (u, _, _) in PER_LAYER.items()} | {
    "structure.prune_yield": "ratio",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
    "trace.absent_hooks": "count",
}


def run_workload(args) -> int:
    workdir = OUT_DIR / f"pool-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, workdir, SETUP_REPEATS if not args.trace else 1)
        runner = Runner(setup)
        # untimed calls to finish lazy initialisation, then keep the
        # harness's own objects out of the collector's way
        warm_until = perf_counter() + WARM_UP_S
        for job in setup.jobs:
            call(setup.cli.main, setup.argv_for(job))
            calibrate()
            if perf_counter() >= warm_until:
                break
        gc.collect()
        gc.freeze()
        measure = per_layer if args.trace else end_to_end
        values, notes = measure(setup, runner, args.seconds)
        failed, unexpected, problems = runner.check(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:24s} {value:14.6g} {UNITS[name]}")
    for note in notes:
        print(f"  ({note})")
    print(f"  failed_frac {failed / runner.attempted:.4f} ({failed} of {runner.attempted} instances, "
          f"{sum(runner.calls.values())} calls)")
    for line in problems:
        print(f"  {line}")
    result = {
        "correct": unexpected == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    status, rows = 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        rows[workload] = json.loads(proc.stdout.splitlines()[-1])
    if rows:
        names = list(next(iter(rows.values()))["metrics"])
        print(f"{'metric':26s}" + "".join(f"{w:>16s}" for w in rows))
        for name in names:
            print(f"{name + ' (' + UNITS[name] + ')':26s}"
                  + "".join(f"{r['metrics'][name]['value']:16.6g}" for r in rows.values()))
        print(f"{'failed/attempted':26s}"
              + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>16s}" for r in rows.values()))
    return status


def write_reference() -> int:
    """Record optimal value, minimal count and minimal-set digest of every
    feasible epsilon = 0 instance of each pool at the default seed."""
    references = {}
    for workload in ("many-small", "wide-selector", "verify-small"):
        pool_name = WORKLOADS[workload][0]
        workdir = OUT_DIR / f"reference-{pool_name}-{os.getpid()}"
        try:
            setup = Setup(workload, DEFAULT_SEED, workdir, 1)
            refs = {}
            for job in setup.jobs:
                if not job.feasible or job.epsilon:
                    continue
                _, rc, out = call(setup.cli.main, ["solve", job.path, "--format", "structured"])
                problems, summary = checks.check_solve(job.data, True, rc, out, True)
                if problems:
                    raise SystemExit(f"perfbench: {pool_name} instance {job.id}: {problems}")
                refs[str(job.id)] = summary
            references[pool_name] = refs
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    # one instance a line, so that a changed value shows as a one-line diff
    pools_text = ",\n".join(
        f'  "{name}": {{\n' + ",\n".join(f'   "{k}": {json.dumps(v)}' for k, v in refs.items()) + "\n  }"
        for name, refs in references.items()
    )
    REFERENCE.write_text(f'{{\n "seed": {DEFAULT_SEED},\n "pools": {{\n{pools_text}\n }}\n}}\n')
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
