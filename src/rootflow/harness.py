"""Benchmark runner, parameter sweeps, and basin-of-convergence mapping.

The benchmark runs the three registry problems under Newton, the one-point
difference-quotient scheme, and the two-point scheme, each with its curated
parameter value, and reports verdicts, iteration counts and 6-decimal
roots.  Sweeps vary mu or the Euler step length h.  The basin mapper grids
initial values (and mu) and runs every cell independently, which quantifies
how much wider the two-point scheme's set of workable starting points is.

Every table row is one run, a :class:`BenchmarkRow`, whether it comes from
the benchmark, a sweep or a basin cell.  Diverged and exhausted runs are
both reported as "divergence" here, with the precise reason retained in
the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .problems import ProblemSpec, builtin_problems
from .solvers import VERDICT_CONVERGED, SolverConfig, run

VERDICT_DIVERGENCE = "divergence"

CSV_HEADER = "problem,scheme,mu,h,x0,verdict,reason,iterations,final_x,residual"

# How many initial values a basin map takes across the domain by default.
DEFAULT_X0_COUNT = 201

# Curated per-problem parameter values for the benchmark; newton fixes its own mu = 0.
BENCH_MU = {
    ("log", "zheng"): 1.0,
    ("exp", "zheng"): 1.0 + 1.0 / math.e,
    ("trig", "zheng"): 0.5 + math.sqrt(3.0) / 6.0,
    ("log", "secant_dyn"): 0.135,
    ("exp", "secant_dyn"): 1.18,
    ("trig", "secant_dyn"): 2.65,
}

# The benchmark's reference verdict pattern: Newton diverges on all three
# problems, the one-point scheme converges only on log, the two-point
# scheme converges on all three.  Its keys also give the benchmark's row
# order, problem-major.
BENCH_EXPECTED_VERDICTS = {
    ("log", "newton"): VERDICT_DIVERGENCE,
    ("log", "zheng"): VERDICT_CONVERGED,
    ("log", "secant_dyn"): VERDICT_CONVERGED,
    ("exp", "newton"): VERDICT_DIVERGENCE,
    ("exp", "zheng"): VERDICT_DIVERGENCE,
    ("exp", "secant_dyn"): VERDICT_CONVERGED,
    ("trig", "newton"): VERDICT_DIVERGENCE,
    ("trig", "zheng"): VERDICT_DIVERGENCE,
    ("trig", "secant_dyn"): VERDICT_CONVERGED,
}


class BenchmarkRow(NamedTuple):
    """One (problem, scheme, mu, h, x0) run in table form.

    ``mu`` and ``h`` are the values the run used, which for an alias scheme
    are the ones it fixes (see ``SolverConfig.resolved``).  Divergent rows
    carry no iteration count and no final root; the cause stays in
    ``reason`` and the last accepted residual in ``residual``.
    """

    problem: str
    scheme: str
    mu: float
    h: float
    x0: float
    verdict: str
    reason: str
    iterations: int | None
    final_x: float | None
    residual: float


@dataclass(frozen=True)
class BasinGrid:
    """Verdict matrix over a mu axis and an initial-value axis.

    ``cells[i][j]`` is the row for ``mu_axis[i]`` and ``x0_axis[j]``;
    every cell is an independent pure run and names its problem and scheme.
    """

    mu_axis: tuple[float, ...]
    x0_axis: tuple[float, ...]
    cells: tuple[tuple[BenchmarkRow, ...], ...]

    def converged_fraction(self, mu_index: int) -> float:
        row = self.cells[mu_index]
        return sum(1 for c in row if c.verdict == VERDICT_CONVERGED) / len(row)


def _row(p: ProblemSpec, cfg: SolverConfig, x0: float) -> BenchmarkRow:
    outcome = run(p, cfg, x0)
    if outcome.converged:
        verdict, iterations, final_x = VERDICT_CONVERGED, outcome.iterations, outcome.final_x
    else:
        verdict, iterations, final_x = VERDICT_DIVERGENCE, None, None
    mu, h = cfg.resolved()
    return BenchmarkRow(p.name, cfg.scheme, mu, h, x0, verdict, outcome.reason,
                        iterations, final_x, abs(outcome.final_fx))


def run_benchmark(epsilon: float = SolverConfig.epsilon,
                  max_iters: int = SolverConfig.max_iters) -> list[BenchmarkRow]:
    """Run the 3 problems x 3 methods reference benchmark.

    Returns nine rows in problem-major order (newton, zheng, secant_dyn
    within each problem), each run from the problem's default initial value
    with the curated mu for the parameterized schemes.
    """
    problems = builtin_problems()
    rows = []
    for pname, scheme in BENCH_EXPECTED_VERDICTS:
        p = problems[pname]
        mu = BENCH_MU.get((pname, scheme), SolverConfig.mu)
        cfg = SolverConfig(scheme=scheme, mu=mu, epsilon=epsilon, max_iters=max_iters)
        rows.append(_row(p, cfg, p.default_x0))
    return rows


def benchmark_verdicts_match(rows: Iterable[BenchmarkRow]) -> bool:
    """True when the rows reproduce the reference verdict pattern exactly."""
    actual = {(r.problem, r.scheme): r.verdict for r in rows}
    return actual == BENCH_EXPECTED_VERDICTS


def sweep_mu(p: ProblemSpec, scheme: str, mu_values: Sequence[float], x0: float,
             cfg: SolverConfig | None = None) -> list[BenchmarkRow]:
    """One benchmark row per mu, in input order."""
    if not mu_values:
        raise ValueError("mu values must be non-empty")
    base = cfg if cfg is not None else SolverConfig()
    return [_row(p, replace(base, scheme=scheme, mu=mu), x0) for mu in mu_values]


def sweep_h(p: ProblemSpec, mu: float, h_values: Sequence[float], x0: float,
            cfg: SolverConfig | None = None) -> list[BenchmarkRow]:
    """One row per Euler step length h, for the euler_flow scheme."""
    if not h_values:
        raise ValueError("h values must be non-empty")
    base = cfg if cfg is not None else SolverConfig()
    return [_row(p, replace(base, scheme="euler_flow", mu=mu, h=h), x0) for h in h_values]


def map_basin(p: ProblemSpec, scheme: str, mu_axis: Sequence[float],
              x0_axis: Sequence[float], cfg: SolverConfig | None = None) -> BasinGrid:
    """Fill a |mu_axis| x |x0_axis| grid with independent run verdicts.

    Every x0 must lie inside the problem's domain.  Cells are pure and
    order-independent; the grid is evaluated row by row.
    """
    if not mu_axis:
        raise ValueError("mu axis must be non-empty")
    if not x0_axis:
        raise ValueError("x0 axis must be non-empty")
    base = cfg if cfg is not None else SolverConfig()
    cells = []
    for mu in mu_axis:
        c = replace(base, scheme=scheme, mu=mu)
        cells.append(tuple(_row(p, c, x0) for x0 in x0_axis))
    return BasinGrid(mu_axis=tuple(mu_axis), x0_axis=tuple(x0_axis), cells=tuple(cells))


def default_x0_axis(p: ProblemSpec, count: int = DEFAULT_X0_COUNT) -> tuple[float, ...]:
    """``count`` evenly spaced initial values across the problem domain."""
    if count < 1:
        raise ValueError("x0 count must be at least 1")
    a, b = p.domain
    if count == 1:
        return (a,)
    # a + (b - a) can round past b, so the last point is b itself.
    return tuple(a + (b - a) * i / (count - 1) for i in range(count - 1)) + (b,)


# ---------------------------------------------------------------------------
# rendering: CSV rows and the dense basin grid file

def _real(v: float) -> str:
    return f"{v:.17g}"


def _final(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def _csv(rows: Iterable[BenchmarkRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.problem,
            r.scheme,
            _real(r.mu),
            _real(r.h),
            _real(r.x0),
            r.verdict,
            r.reason,
            "" if r.iterations is None else str(r.iterations),
            _final(r.final_x),
            _real(r.residual),
        ]))
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Iterable[BenchmarkRow]) -> str:
    """Render rows as CSV, one header row first.

    Reals carry 17 significant digits except final_x, which uses the
    6-decimal table rendering.
    """
    return _csv(rows)


def basin_to_csv(grid: BasinGrid) -> str:
    """Render every basin cell as one CSV row, mu-major, as rows_to_csv does."""
    # Through _csv rather than rows_to_csv, so that wrapping one public
    # renderer never sees the other's calls.
    return _csv(chain.from_iterable(grid.cells))


def basin_to_grid_text(grid: BasinGrid) -> str:
    """Dense matrix rendering: the x0 axis, then one code line per mu.

    Converged cells print as C<iterations>, everything else as D.
    """
    lines = ["x0: " + " ".join(_real(x) for x in grid.x0_axis)]
    for mu, row in zip(grid.mu_axis, grid.cells):
        codes = (f"C{c.iterations}" if c.verdict == VERDICT_CONVERGED else "D" for c in row)
        lines.append(f"{_real(mu)}: " + " ".join(codes))
    return "\n".join(lines) + "\n"
