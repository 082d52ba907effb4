"""The three workloads: inputs drawn from a seed, one operation at a time.

Each workload is a fixed *round* of operations built from the seed; the
benchmark repeats the round, so every round does identical work and the
counted pass can replay it exactly.

- ``basin``: the paper's wider-basin experiment.  log, exp and trig crossed
  with newton, zheng and secant_dyn; each grid is a 40-row mu axis over
  [0, 3] (one row for newton, which ignores mu) by 201 seeded x0 draws,
  mapped, then rendered as CSV and as grid text.  One operation is one grid.
- ``precision``: a closed loop of one caller who waits for each solve at
  epsilon 1e-13 near the root, over the built-in problems and three user
  problems, all six schemes and both bootstraps.  Converged traces go to
  ``estimate_order`` and secant_dyn draws also to
  ``verify_quadratic_convergence``.  One operation is one solve.
- ``cli``: the README commands as child processes, one at a time, with
  seeded arguments and outputs in a temporary directory, plus the trig basin
  command at the default ``--x0-count``.  One operation is one command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

import rootflow.analysis as analysis
import rootflow.cli as cli
import rootflow.harness as harness
import rootflow.solvers as solvers
from rootflow.problems import ProblemSpec, builtin_problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BASIN_PROBLEMS = ("log", "exp", "trig")
BASIN_SCHEMES = ("newton", "zheng", "secant_dyn")
MU_ROWS = 40
MU_MAX = 3.0
X0_DRAWS = 201

PRECISION_EPSILON = 1e-13
PRECISION_DRAWS = 30  # per (problem, scheme, bootstrap)
PRECISION_MU_MAX = 1.5

# The console script's entry point, between two speed samples the child
# takes of itself; it writes what they took to the file in PERFBENCH_SPEED.
CLI_ENTRY = """import os, sys
sys.path.append(os.environ["PERFBENCH_DIR"])
from speed import Speed
speed = Speed()
speed.sample()
try:
    from rootflow.cli import main
    code = main()
finally:
    speed.sample()
    with open(os.environ["PERFBENCH_SPEED"], "w") as fh:
        fh.write(f"{sum(speed.took)} {sum(speed.ns)}")
sys.exit(code)
"""
CLI_TIMEOUT_S = 120
CLI_EXIT_CODES = (0, 1, 2)
BENCH_PATTERN = {
    ("log", "newton"): "divergence", ("log", "zheng"): "converged",
    ("log", "secant_dyn"): "converged",
    ("exp", "newton"): "divergence", ("exp", "zheng"): "divergence",
    ("exp", "secant_dyn"): "converged",
    ("trig", "newton"): "divergence", ("trig", "zheng"): "divergence",
    ("trig", "secant_dyn"): "converged",
}
CONVERGED_REASONS = ("step_below_epsilon", "residual_below_epsilon")


def user_problems() -> dict[str, ProblemSpec]:
    """The tests' fixtures x^2 - 1, x + x^4 and e^x - 1, defined here."""
    wide = (-1e9, 1e9)
    return {p.name: p for p in (
        ProblemSpec(name="sq", f=lambda x: x * x - 1.0, df=lambda x: 2.0 * x,
                    domain=wide, known_root=1.0, default_x0=1.5),
        ProblemSpec(name="quart", f=lambda x: x + x ** 4, df=lambda x: 1.0 + 4.0 * x ** 3,
                    domain=wide, known_root=0.0, default_x0=0.3),
        ProblemSpec(name="expm1p", f=lambda x: math.exp(x) - 1.0, df=math.exp,
                    domain=(-500.0, 500.0), known_root=0.0, default_x0=0.1),
    )}


def stratified(rng: random.Random, a: float, b: float, n: int) -> tuple[float, ...]:
    """n uniform draws over [a, b], one in each of n equal strata, ascending."""
    return tuple(min(b, a + (b - a) * (j + rng.random()) / n) for j in range(n))


def csv_violations(text: str, max_iters: int) -> list[str]:
    """Check rendered CSV rows: header, verdict/reason coupling, iteration budget."""
    lines = text.split("\n")
    if lines[0] != harness.CSV_HEADER or lines[-1] != "":
        return ["CSV header or final newline missing"]
    bad = []
    for line in lines[1:-1]:
        cols = line.split(",")
        if len(cols) != 10:
            bad.append(f"CSV row with {len(cols)} columns")
            continue
        verdict, reason, iters, final = cols[5], cols[6], cols[7], cols[8]
        converged = verdict == "converged"
        if verdict not in ("converged", "divergence") or converged != (reason in CONVERGED_REASONS):
            bad.append(f"CSV verdict {verdict!r} with reason {reason!r}")
        elif converged and not (iters.isdigit() and int(iters) <= max_iters and final):
            bad.append(f"CSV converged row with iterations {iters!r}")
        elif not converged and (iters or final):
            bad.append("CSV divergent row carries an iteration count or root")
    return bad


class Workload:
    """A round of operations built from a seed; subclasses fill in the rest.

    ``execute(op, problems)`` runs one operation the way a user does;
    ``execute_in_process`` runs it in this process, for the instrumented
    passes.  ``units(op)`` is how much work an operation counts for in
    ``ops_per_s``, ``per_eval(op)`` whether it counts in ``ns_per_eval``.
    ``failure`` names a broken contract of a finished operation,
    ``violations`` lists its broken output invariants, and ``render`` gives
    the bytes its digest covers.
    """

    name: str
    unit: str
    tail: float  # the op_ms_tail percentile
    child_processes = False
    last_point_check = False  # final_x must equal the last trace point
    problems: dict[str, ProblemSpec]
    ops: list

    def execute_in_process(self, op, problems):
        return self.execute(op, problems)

    def units(self, op) -> int:
        return 1

    def per_eval(self, op) -> bool:
        return True

    def failure(self, op, result) -> str | None:
        return None

    def violations(self, op, result) -> list[str]:
        return []

    def warm_up(self) -> None:
        pass


@dataclass(frozen=True)
class Grid:
    problem: str
    scheme: str
    mu_axis: tuple[float, ...]
    x0_axis: tuple[float, ...]


class Basin(Workload):
    name = "basin"
    unit = "cells"
    # A round's nine grids take nine distinct times.  p70 falls inside the
    # seventh-slowest grid's samples, so one stray sample cannot move it to
    # a neighbouring grid, and 34 grids (four rounds) put ten beyond it.
    tail = 0.70

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.problems = builtin_problems()
        mu_axis = tuple(MU_MAX * i / (MU_ROWS - 1) for i in range(MU_ROWS))
        self.ops = []
        for pname in BASIN_PROBLEMS:
            a, b = self.problems[pname].domain
            for scheme in BASIN_SCHEMES:
                mus = (0.0,) if scheme == "newton" else mu_axis
                self.ops.append(Grid(pname, scheme, mus, stratified(rng, a, b, X0_DRAWS)))
        self.max_iters = solvers.SolverConfig().max_iters

    def units(self, op: Grid) -> int:
        return len(op.mu_axis) * len(op.x0_axis)

    def execute(self, op: Grid, problems: dict):
        grid = harness.map_basin(problems[op.problem], op.scheme, op.mu_axis, op.x0_axis)
        return harness.basin_to_csv(grid), harness.basin_to_grid_text(grid)

    def render(self, op, result) -> bytes:
        csv, text = result
        return csv.encode() + text.encode()

    def violations(self, op: Grid, result) -> list[str]:
        csv, text = result
        bad = csv_violations(csv, self.max_iters)
        rows = text.split("\n")[1:-1]
        cells = [line.split(",") for line in csv.split("\n")[1:-1]]
        if len(rows) != len(op.mu_axis) or len(cells) != self.units(op):
            return bad + ["grid text or CSV has the wrong shape"]
        for i, row in enumerate(rows):
            codes = row.split(": ", 1)[1].split(" ")
            for j, code in enumerate(codes):
                c = cells[i * len(op.x0_axis) + j]
                want = f"C{c[7]}" if c[5] == "converged" else "D"
                if code != want:
                    bad.append(f"grid code {code!r} disagrees with CSV {want!r}")
                    break
        return bad

    def warm_up(self) -> None:
        for op in self.ops:
            harness.map_basin(self.problems[op.problem], op.scheme, op.mu_axis[:1], op.x0_axis[:3])


@dataclass(frozen=True)
class Solve:
    problem: str
    cfg: solvers.SolverConfig
    x0: float


class Precision(Workload):
    name = "precision"
    unit = "solves"
    tail = 0.99
    last_point_check = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.problems = {**builtin_problems(), **user_problems()}
        self.ops = []
        for pname, p in self.problems.items():
            root = p.known_root
            width = 0.1 * max(1.0, abs(root))
            for scheme in solvers.SCHEMES:
                for bootstrap in solvers.BOOTSTRAPS:
                    for _ in range(PRECISION_DRAWS):
                        cfg = solvers.SolverConfig(
                            scheme=scheme, mu=PRECISION_MU_MAX * rng.random(),
                            h=0.5 + 0.5 * rng.random() if scheme == "euler_flow" else 1.0,
                            epsilon=PRECISION_EPSILON, bootstrap=bootstrap)
                        self.ops.append(Solve(pname, cfg, root + width * (2.0 * rng.random() - 1.0)))

    def execute(self, op: Solve, problems: dict):
        p = problems[op.problem]
        out = solvers.run(p, op.cfg, op.x0)
        est = report = None
        if out.converged:
            try:
                est = analysis.estimate_order(out.trace)
            except analysis.InsufficientData:
                pass
        if op.cfg.scheme == "secant_dyn":
            report = analysis.verify_quadratic_convergence(p, op.cfg.mu, op.x0, op.cfg)
        return out, est, report

    def render(self, op, result) -> bytes:
        out, est, report = result
        order = "-" if est is None else repr(est.final_order)
        text = f"{out.verdict}|{out.reason}|{out.iterations}|{out.final_x!r}|{order}\n"
        if report is not None:
            text += report.to_text() + "\n"
        return text.encode()

    def warm_up(self) -> None:
        for op in self.ops[::PRECISION_DRAWS]:
            self.execute(op, self.problems)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    files: tuple[str, ...]


@dataclass(frozen=True)
class Finished:
    code: int
    stdout: str
    stderr: str
    files: tuple[bytes, ...]
    ns: int = 0  # a child process's wall time, less its speed samples
    scaled_ns: float = 0.0


class Cli(Workload):
    """The README commands; outputs go to files in ``workdir``."""

    name = "cli"
    unit = "commands"
    child_processes = True
    tail = 0.90

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        self.problems = builtin_problems()
        schemes = sorted(cli.CLI_SCHEMES)
        self.ops = []

        def add(*argv, grid=False):
            i = len(self.ops)
            files = [os.path.join(self.workdir, f"op{i}.out")]
            argv = [*argv, "--output", files[0]]
            if grid:
                files.append(os.path.join(self.workdir, f"op{i}.grid"))
                argv += ["--grid-output", files[1]]
            self.ops.append(Command(tuple(argv), tuple(files)))

        def problem():
            return rng.choice(BASIN_PROBLEMS)

        def inside(pname):
            a, b = self.problems[pname].domain
            return f"{a + (b - a) * (0.01 + 0.98 * rng.random()):.6g}"

        def mus(n):
            return ",".join(f"{MU_MAX * rng.random():.4g}" for _ in range(n))

        pname = problem()
        add("solve", "--problem", pname, "--scheme", rng.choice(schemes),
            "--mu", mus(1), "--x0", inside(pname))
        add("bench", "--format", rng.choice(("table", "csv")))
        pname = problem()
        root = self.problems[pname].known_root
        add("order", "--problem", pname, "--mu", mus(1),
            "--x0", f"{root + 0.05 * (2.0 * rng.random() - 1.0):.6g}", "--epsilon", "1e-13")
        add("sweep-mu", "--problem", problem(), "--scheme", rng.choice(schemes),
            "--mu-values", mus(rng.randint(3, 8)))
        add("sweep-h", "--problem", problem(), "--mu", mus(1),
            "--h-values", ",".join(f"{0.05 + 0.95 * rng.random():.4g}" for _ in range(rng.randint(3, 6))))
        add("basin", "--problem", problem(), "--scheme", rng.choice(schemes),
            "--mu-values", mus(rng.randint(1, 3)), "--x0-count", str(rng.randint(51, 201)), grid=True)
        # The README's trig basin at the default --x0-count; it exits 1 with
        # a traceback while default_x0_axis overshoots the domain.
        add("basin", "--problem", "trig", "--scheme", "secant-dyn", "--mu-values", "2.65", grid=True)

    def env(self) -> dict:
        return {**os.environ, "PYTHONPATH": str(SRC)}

    def execute(self, op: Command, problems=None) -> Finished:
        """Run one command as a child process, the way a user runs it."""
        speed_file = os.path.join(self.workdir, "speed")
        env = {**self.env(), "PERFBENCH_DIR": str(BENCH), "PERFBENCH_SPEED": speed_file}
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *op.argv], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter_ns() - t0
        with open(speed_file) as fh:
            sampling, kernel = map(int, fh.read().split())
        os.remove(speed_file)
        ns = wall - sampling
        return Finished(proc.returncode, proc.stdout, proc.stderr, self._files(op),
                        ns, ns * 2.0 * speed.REF_NS / kernel)

    def timing(self, result: Finished | None, ns: int) -> tuple[int, float]:
        """(ns, ns at reference speed) of a command that took ``ns`` to run."""
        return (ns, float(ns)) if result is None else (result.ns, result.scaled_ns)

    def execute_in_process(self, op: Command, problems=None) -> Finished:
        """Run one command through ``cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return Finished(code, out.getvalue(), err.getvalue(), self._files(op))

    def _files(self, op: Command) -> tuple[bytes, ...]:
        data = []
        for path in op.files:
            try:
                with open(path, "rb") as fh:
                    data.append(fh.read())
                os.remove(path)
            except FileNotFoundError:
                data.append(b"")
        return tuple(data)

    def failure(self, op: Command, done: Finished) -> str | None:
        """Why a command broke the README's exit-code contract, or None."""
        last = done.stderr.strip().split("\n")[-1]
        if "Traceback (most recent call last)" in done.stderr:
            return f"exit {done.code} with a traceback: {last}"
        if done.code not in CLI_EXIT_CODES:
            return f"exit code {done.code} outside {CLI_EXIT_CODES}"
        if done.code != 0:
            return f"exit {done.code}" + (f": {last}" if last else "")
        return None

    def per_eval(self, op: Command) -> bool:
        """Only ``bench`` does the same evaluations for every seed."""
        return op.argv[0] == "bench"

    def render(self, op: Command, done: Finished) -> bytes:
        # Paths differ between checkouts: a traceback's frames name files of
        # the checkout, and the arguments name the temporary directory.
        last = done.stderr.strip().split("\n")[-1]
        argv = " ".join(arg.replace(self.workdir, "<tmp>") for arg in op.argv)
        return f"{argv}|{done.code}|{last}\n".encode() + done.stdout.encode() + b"".join(done.files)

    def violations(self, op: Command, done: Finished) -> list[str]:
        # bench still writes its table when the verdict pattern breaks
        # (exit 1); a command that crashed wrote nothing.
        text = done.files[0].decode()
        if not text:
            return []
        cmd = op.argv[0]
        if cmd == "bench":
            return self._bench_violations(text)
        if cmd in ("sweep-mu", "sweep-h", "basin"):
            return csv_violations(text, solvers.SolverConfig().max_iters)
        if cmd in ("solve", "order"):
            line = next((s for s in text.split("\n") if s.startswith("verdict")), "")
            verdict, _, reason = line.split(":", 1)[-1].strip().partition(" ")
            reason = reason.strip("()")
            ok = {"converged": reason in CONVERGED_REASONS,
                  "divergence": reason not in CONVERGED_REASONS,
                  "diverged": reason not in CONVERGED_REASONS,
                  "exhausted": reason == "max_iters_reached"}.get(verdict, False)
            return [] if ok else [f"{cmd} verdict line {line!r}"]
        return []

    def _bench_violations(self, text: str) -> list[str]:
        lines = text.strip().split("\n")[1:]
        if lines and "," in lines[0]:
            got = {(c[0], c[1]): c[5] for c in (line.split(",") for line in lines)}
        else:
            got = {(c[0], c[1]): c[-1] for c in (line.split() for line in lines)}
        return [] if got == BENCH_PATTERN else [f"bench verdict pattern {got}"]



WORKLOADS = {"basin": Basin, "precision": Precision, "cli": Cli}


def setup(name: str, seed: int, workdir: str = "."):
    """Everything a run does before it measures: inputs from the seed, warm-up."""
    wl = Cli(seed, workdir) if name == "cli" else WORKLOADS[name](seed)
    wl.warm_up()
    return wl


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
