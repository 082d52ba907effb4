"""Layered benchmark for rootflow.

    python3 perfbench/run.py --workload basin|precision|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; rootflow is imported from ``src/``.  The
workloads are described in ``workloads.py`` and in ``BENCHMARK.json``.

A run builds the workload's inputs from the seed, then replays one round
twice under counting wrappers (``layers.py``): the two passes must give
identical evaluator and iteration counts, and their outputs are checked
against the workload's invariants.  Then it repeats the round,
uninstrumented, until ``--seconds`` have passed and enough operations have
run for the tail percentile to have ten samples beyond it; every round's
outputs must hash to the counted pass's digest.  Last it times ``setup_s``:
several fresh interpreters each time their own set-up (importing rootflow,
building the inputs, warming up), and the median is reported.  Interpreter
start-up is not part of it; the cli workload's traced run reports that as
``cli.interp_ms``.

Times are scaled to a reference speed (see ``speed.py``); the unscaled
values are in the ``record:`` line.  A cli command's time is its process's
wall time, less the two speed samples the process takes of itself.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced rounds with traced rounds, whose spans give the
per-layer metrics and whose extra wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``record:`` line with the environment, the exact
counts and the output digest.  An operation fails when it raises, breaks an
output invariant, or (cli) prints a traceback or leaves the README's exit
codes; ``correct`` is false when outputs break an invariant, differ between
rounds, or the counts do not repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

from speed import Speed, now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
INTERP_RUNS = 7
# A fresh interpreter times its own set-up (importing rootflow, building the
# inputs, warming up) between two speed samples and prints it scaled.
SETUP_CODE = """import sys
sys.path[:0] = sys.argv[1:3]
from speed import Speed, now
speed = Speed()
speed.sample()
t0 = now()
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]))
t1 = now()
speed.sample()
print(speed.scaled(t0, t1))
"""
CLI_COMMANDS = ("solve", "bench", "order", "sweep-mu", "sweep-h", "basin")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def child_ms(argv, env=None) -> float:
    t0 = now()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return (now() - t0) / 1e6


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


class Bench:
    def __init__(self, workloads, layers, name: str, seed: int, workdir: str):
        self.workloads = workloads
        self.layers = layers
        self.name = name
        self.seed = seed
        self.wl = workloads.setup(name, seed, workdir)
        self.ops = self.wl.ops
        self.units = sum(self.wl.units(op) for op in self.ops)
        self.violations: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, str] = {}
        self.op_digests: list[str | None] = []

    def setup_s(self) -> float:
        """Median set-up time over fresh interpreters, in seconds."""
        argv = [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), self.name, str(self.seed)]
        runs = [float(subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True,
                                     timeout=120).stdout) for _ in range(SETUP_RUNS)]
        return statistics.median(runs) / 1e9

    def round(self, execute, problems, before=None, after=None):
        """One pass over the operations; returns (digest, results).

        ``before(i)`` runs ahead of operation i and ``after(i, start, ns,
        result)`` once it has finished, both outside its timing.
        """
        chunks, results = [], []
        for i, op in enumerate(self.ops):
            if before is not None:
                before(i)
            result = error = None
            t0 = now()
            try:
                result = execute(op, problems)
            except Exception as exc:  # an exception escaping a public call is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            dt = now() - t0
            if after is not None:
                after(i, t0, dt, result)
            reason = error if result is None else self.wl.failure(op, result)
            reason = reason or self.violations.get(i)
            self.attempted += 1
            if reason:
                self.failed += 1
                self.failures.setdefault(i, reason)
            if result is not None:
                chunks.append(self.wl.render(op, result))
            results.append(result)
        return self.workloads.digest(chunks), results

    def instrumented(self, timed: bool):
        """One round under the layer wrappers.

        Returns the Layers, the evaluations each operation made, the ns the
        operations took and the output digest.
        """
        lay = self.layers.Layers(timed, self.wl.last_point_check)
        problems = lay.problems(self.wl.problems)
        evaluations = []

        def before(i):
            lay.op = i
            evaluations.append(lay.evaluations())

        durations = array("q")
        with lay.installed(problems):
            digest, results = self.round(self.wl.execute_in_process, problems, before,
                                         lambda i, t0, ns, result: durations.append(ns))
        total = lay.evaluations()
        evaluations = [b - a for a, b in zip(evaluations, evaluations[1:] + [total])]
        for i, (op, result) in enumerate(zip(self.ops, results)):
            lay.op = i
            for message in ([] if result is None else self.wl.violations(op, result)):
                lay.violation(message)
        for i, message in lay.violations.items():
            self.violations.setdefault(i, message)
            self.failures.setdefault(i, message)
        self.op_digests = [None if r is None else self.workloads.digest([self.wl.render(op, r)])
                           for op, r in zip(self.ops, results)]
        return lay, evaluations, sum(durations), digest


def run_untraced(bench: Bench, seconds: float):
    first, evaluations, _, digest = bench.instrumented(timed=False)
    second, evaluations2, _, digest2 = bench.instrumented(timed=False)
    counts = first.round_counts()
    repeat = counts == second.round_counts() and evaluations == evaluations2 and digest == digest2
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The counted passes found the failures; the timed rounds count them.
    bench.attempted = bench.failed = 0

    n = len(bench.ops)
    min_ops = math.ceil(10 / (1.0 - bench.wl.tail))
    speed = Speed()
    starts, durations, child_times, digests = array("q"), array("q"), [], {digest}

    def after(i, t0, ns, result):
        starts.append(t0)
        durations.append(ns)
        if bench.wl.child_processes:
            child_times.append(bench.wl.timing(result, ns))

    # Child processes sample their own speed; this process's samples would
    # only compete with them.
    with contextlib.nullcontext() if bench.wl.child_processes else speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(durations) < min_ops:
            d, _ = bench.round(bench.wl.execute, bench.wl.problems, None, after)
            digests.add(d)
    if bench.wl.child_processes:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    per_eval = [i for i, op in enumerate(bench.ops) if bench.wl.per_eval(op)]
    per_eval_evaluations = sum(evaluations[i] for i in per_eval)

    def summary(times):
        # Each operation's median over the rounds, summed: a round at typical speed.
        typical = [statistics.median(times[i::n]) for i in range(n)]
        return {
            "ops_per_s": (bench.units / (sum(typical) / 1e9), "1/s"),
            "ns_per_eval": (sum(typical[i] for i in per_eval) / per_eval_evaluations, "ns"),
            "op_ms_p50": (percentile(times, 0.5) / 1e6, "ms"),
            "op_ms_tail": (percentile(times, bench.wl.tail) / 1e6, "ms"),
        }

    if bench.wl.child_processes:
        durations = [ns for ns, _ in child_times]
        scaled = [ns for _, ns in child_times]
    else:
        scaled = [speed.scaled(t0, t0 + ns) for t0, ns in zip(starts, durations)]
        durations = [speed.unsampled(t0, t0 + ns) for t0, ns in zip(starts, durations)]
    metrics = {"setup_s": (bench.setup_s(), "s"), **summary(scaled),
               "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    raw = {k: v for k, (v, _) in summary(durations).items()}
    correct = repeat and len(digests) == 1 and not bench.violations
    info = {"rounds": len(durations) // n, "samples": len(durations),
            "evaluations_per_round": sum(evaluations), "counts_per_round": counts,
            "counts_repeat": repeat, "digest": digest, "digests_agree": len(digests) == 1,
            "op_digests": bench.op_digests, "tail_percentile": bench.wl.tail, "unscaled": raw}
    if speed.ns:
        info["reference_ns"] = {"median": statistics.median(speed.ns), "min": min(speed.ns),
                                "max": max(speed.ns), "samples": len(speed.ns)}
    return correct, metrics, info


def run_traced(bench: Bench, seconds: float):
    counted, _, _, digest = bench.instrumented(timed=False)
    counts = counted.round_counts()
    bench.attempted = bench.failed = 0
    untraced, traced, layer_rounds, digests = [], [], [], {digest}
    repeat = True
    per_command: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        durations = array("q")
        d, _ = bench.round(bench.wl.execute_in_process, bench.wl.problems, None,
                           lambda i, t0, ns, result: durations.append(ns))
        untraced.append(sum(durations))
        digests.add(d)
        by_command = dict.fromkeys(CLI_COMMANDS, 0)
        if bench.name == "cli":
            for op, ns in zip(bench.ops, durations):
                by_command[op.argv[0]] += ns
        for c in CLI_COMMANDS:
            per_command[c].append(by_command[c] / 1e6)
        lay, _, spent, d = bench.instrumented(timed=True)
        traced.append(spent)
        digests.add(d)
        repeat = repeat and lay.round_counts() == counts
        layer_rounds.append(lay.layer_metrics())

    metrics = {name: (value, _unit(name)) for name, value in counts.items()}
    for name in layer_rounds[0]:
        metrics[name] = (statistics.median(r[name] for r in layer_rounds), _unit(name))
    interp = import_ms = 0.0
    if bench.name == "cli":
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        bare, imported = [], []
        for _ in range(INTERP_RUNS):
            bare.append(child_ms([sys.executable, "-c", "pass"], env))
            imported.append(child_ms([sys.executable, "-c", "import rootflow.cli"], env))
        interp = statistics.median(bare)
        import_ms = statistics.median(imported) - interp
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    for c in CLI_COMMANDS:
        metrics[f"cli.main_ms.{c}"] = (statistics.median(per_command[c]), "ms")
    untraced_ms = statistics.median(untraced) / 1e6
    traced_ms = statistics.median(traced) / 1e6
    metrics["trace.untraced_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "frac")
    metrics["fail_frac"] = (bench.failed / bench.attempted, "frac")
    correct = repeat and len(digests) == 1 and not bench.violations
    info = {"rounds": len(traced), "counts_per_round": counts, "counts_repeat": repeat,
            "digest": digest, "digests_agree": len(digests) == 1}
    return correct, metrics, info


def _unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith(("_share", "_frac")):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# What each end-to-end metric is called on each workload: (name, factor, unit).
WORKLOAD_NAMES = {
    "basin": {"ops_per_s": ("cells_per_s", 1, "cells/s"),
              "op_ms_p50": ("grid_ms_p50", 1, "ms"), "op_ms_tail": ("grid_ms_p70", 1, "ms")},
    "precision": {"ops_per_s": ("solves_per_s", 1, "solves/s"),
                  "op_ms_p50": ("solve_us_p50", 1e3, "us"), "op_ms_tail": ("solve_us_p99", 1e3, "us")},
    "cli": {"ops_per_s": ("commands_per_s", 1, "commands/s"), "ns_per_eval": ("bench_ns_per_eval", 1, "ns"),
            "op_ms_p50": ("cli_ms_p50", 1, "ms"), "op_ms_tail": ("cli_ms_p90", 1, "ms")},
}


def report(args, bench: Bench, correct: bool, metrics: dict, info: dict) -> None:
    wl = bench.wl
    print(f"rootflow benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"round: {len(bench.ops)} operations, {bench.units} {wl.unit}; "
          f"{info['rounds']} rounds measured")
    if args.trace == 0:
        print(f"latency samples: {info['samples']} {wl.unit if wl.unit != 'cells' else 'grids'}, "
              f"tail percentile p{round(info['tail_percentile'] * 100)}")
    aliases = WORKLOAD_NAMES[args.workload] if args.trace == 0 else {}
    for name, (value, unit) in metrics.items():
        alias = ""
        if name in aliases:
            other, factor, other_unit = aliases[name]
            alias = f"   = {other} {value * factor:.6g} {other_unit}"
        print(f"  {name:<42} {value:>16.6g} {unit}{alias}")
    if args.trace == 0:
        print(f"  {'fail_frac':<42} {bench.failed / bench.attempted:>16.6g} failed/attempted")
    for i, reason in sorted(bench.failures.items()):
        print(f"failed operation {i}: {reason}")
    print(f"counts repeat: {info['counts_repeat']}; outputs agree across rounds: "
          f"{info['digests_agree']}; correct: {correct}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **info,
              "failures": {str(i): r for i, r in sorted(bench.failures.items())}}
    print("record: " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("basin", "precision", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "rootflow" / "__init__.py").is_file():
        print(f"perfbench: no rootflow sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import layers
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        bench = Bench(workloads, layers, args.workload, args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        correct, metrics, info = run(bench, args.seconds)
    report(args, bench, correct, metrics, info)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
