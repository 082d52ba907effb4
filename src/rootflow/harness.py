"""Benchmark runner, parameter sweeps, and basin-of-convergence mapping.

The benchmark runs the three registry problems under Newton, the one-point
difference-quotient scheme, and the two-point scheme, each with its curated
parameter value, and reports verdicts, iteration counts and 6-decimal
roots.  Sweeps vary mu or the Euler step length h.  The basin mapper grids
initial values (and mu) and runs every cell independently, which quantifies
how much wider the two-point scheme's set of workable starting points is.

Every table row is one run, a :class:`BenchmarkRow`, and :func:`map_basin`
builds every one: a mu sweep is the basin of its one start, an h sweep is
one one-cell basin per h, and the benchmark is nine one-cell basins.  A
row's verdict is the run's own, except that a row folds ``exhausted`` into
``divergence``: a table has two verdict words, and the reason column keeps
the two endings apart.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, NamedTuple

from .problems import ProblemSpec, builtin_problems
from .solvers import (_DEFAULTS, CONVERGED_REASONS, VERDICT_CONVERGED, VERDICT_DIVERGED,
                      SolverConfig, _count, run)

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
    ("log", "newton"): VERDICT_DIVERGED,
    ("log", "zheng"): VERDICT_CONVERGED,
    ("log", "secant_dyn"): VERDICT_CONVERGED,
    ("exp", "newton"): VERDICT_DIVERGED,
    ("exp", "zheng"): VERDICT_DIVERGED,
    ("exp", "secant_dyn"): VERDICT_CONVERGED,
    ("trig", "newton"): VERDICT_DIVERGED,
    ("trig", "zheng"): VERDICT_DIVERGED,
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


CSV_HEADER = ",".join(BenchmarkRow._fields)


class BasinGrid(NamedTuple):
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


def run_benchmark(epsilon: float = _DEFAULTS.epsilon,
                  max_iters: int = _DEFAULTS.max_iters) -> list[BenchmarkRow]:
    """Run the 3 problems x 3 methods reference benchmark: nine one-cell basins.

    Returns nine rows in problem-major order (newton, zheng, secant_dyn
    within each problem), each run from the problem's default initial value
    with the curated mu for the parameterized schemes.
    """
    problems = builtin_problems()
    cfg = SolverConfig(epsilon=epsilon, max_iters=max_iters)
    rows = []
    for pname, scheme in BENCH_EXPECTED_VERDICTS:
        p = problems[pname]
        mu = BENCH_MU.get((pname, scheme), _DEFAULTS.mu)
        rows += map_basin(p, scheme, (mu,), (p.default_x0,), cfg).cells[0]
    return rows


def benchmark_verdicts_match(rows: Iterable[BenchmarkRow]) -> bool:
    """True when the rows reproduce the reference verdict pattern exactly."""
    actual = {(r.problem, r.scheme): r.verdict for r in rows}
    return actual == BENCH_EXPECTED_VERDICTS


def _axis(values: Iterable[float], name: str) -> tuple[float, ...]:
    """The values, read once into a tuple; ValueError when there are none."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    return values


def sweep_mu(p: ProblemSpec, scheme: str, mu_values: Iterable[float], x0: float,
             cfg: SolverConfig | None = None) -> list[BenchmarkRow]:
    """One benchmark row per mu, in input order: the basin of the one start x0."""
    grid = map_basin(p, scheme, _axis(mu_values, "mu values"), (x0,), cfg)
    return [row for row, in grid.cells]


def sweep_h(p: ProblemSpec, mu: float, h_values: Iterable[float], x0: float,
            cfg: SolverConfig | None = None) -> list[BenchmarkRow]:
    """One row per Euler step length h, for the euler_flow scheme: a one-cell basin per h."""
    h_values = _axis(h_values, "h values")
    base = cfg if cfg is not None else _DEFAULTS
    cfgs = (base._replace(scheme="euler_flow", mu=mu, h=h) for h in h_values)
    return [map_basin(p, "euler_flow", (mu,), (x0,), c).cells[0][0] for c in cfgs]


def map_basin(p: ProblemSpec, scheme: str, mu_axis: Iterable[float],
              x0_axis: Iterable[float], cfg: SolverConfig | None = None) -> BasinGrid:
    """Fill a |mu_axis| x |x0_axis| grid with independent run verdicts.

    Every x0 must lie inside the problem's domain.  Cells are pure and
    order-independent; the grid is evaluated row by row.  Every table row is
    built here, one ``run`` call per cell; a row reads only the run's last
    pair, so every cell runs untraced (``trace=False``).
    """
    mu_axis, x0_axis = _axis(mu_axis, "mu axis"), _axis(x0_axis, "x0 axis")
    base = cfg if cfg is not None else _DEFAULTS
    cells = []
    for mu in mu_axis:
        c = base._replace(scheme=scheme, mu=mu, trace=False)
        run_mu, run_h = c.resolved()
        row = []
        for x0 in x0_axis:
            reason, iterations, pairs, _ = run(p, c, x0)
            final_x, fx = pairs[-1]
            if reason in CONVERGED_REASONS:
                verdict = VERDICT_CONVERGED
            else:  # the one place an exhausted run reads as divergence
                verdict, iterations, final_x = VERDICT_DIVERGED, None, None
            # A NaN residual stays the run's own object: abs(nan) is a fresh NaN, and a row
            # holding one is unequal to itself recomputed.  tuple.__new__ skips the Python __new__.
            row.append(tuple.__new__(BenchmarkRow, (p.name, scheme, run_mu, run_h, x0, verdict,
                                                    reason, iterations, final_x,
                                                    fx if fx != fx else abs(fx))))
        cells.append(tuple(row))
    return BasinGrid(mu_axis=mu_axis, x0_axis=x0_axis, cells=tuple(cells))


def default_x0_axis(p: ProblemSpec, count: int = DEFAULT_X0_COUNT) -> tuple[float, ...]:
    """``count`` evenly spaced initial values across the problem domain."""
    count = _count(count, "x0 count")
    a, b = p.domain
    if not math.isfinite(b - a):
        raise ValueError(f"domain [{a!r}, {b!r}] is too wide to space x0 values")
    if count == 1:
        return (a,)
    # a + (b - a) can round past b, so the last point is b itself.
    return tuple(a + (b - a) * i / (count - 1) for i in range(count - 1)) + (b,)


# ---------------------------------------------------------------------------
# rendering: CSV rows and the dense basin grid file

def _real(v: float) -> str:
    return "%.17g" % v  # through float(), and cheaper than f"{v:.17g}"


def rows_to_csv(rows: Iterable[BenchmarkRow]) -> str:
    """Render rows as CSV, one header row first.

    Reals carry 17 significant digits except final_x, which uses the
    6-decimal table rendering.  Each goes through float() first, so mpmath,
    Fraction and Decimal values render as the float nearest them.
    """
    # Each thing is formatted once per call: the problem,scheme,mu,h head once
    # for each run of rows holding the same four objects, and each x0 object
    # once.  Objects, not values, are the keys, as 0.0 == -0.0 renders "0"
    # and "-0"; the x0 cache holds each object, so its id cannot be reused.
    lines = [CSV_HEADER]
    x0_texts = {}
    problem_ = scheme_ = mu_ = h_ = object()  # the objects head renders; none yet
    for problem, scheme, mu, h, x0, verdict, reason, iterations, final_x, residual in rows:
        if mu is not mu_ or h is not h_ or problem is not problem_ or scheme is not scheme_:
            problem_, scheme_, mu_, h_ = problem, scheme, mu, h
            head = f"{problem},{scheme},{_real(mu)},{_real(h)},"
        x0_text = x0_texts.get(id(x0))
        if x0_text is None:
            x0_text = x0_texts[id(x0)] = x0, _real(x0)
        lines.append(f"{head}{x0_text[1]},{verdict},{reason},"
                     f"{'' if iterations is None else iterations},"
                     f"{'' if final_x is None else '%.6f' % final_x},{'%.17g' % residual}")
    return "\n".join(lines) + "\n"


# basin_to_csv renders through this second name, so that wrapping one public
# renderer never sees the other's calls.
_csv = rows_to_csv


def basin_to_csv(grid: BasinGrid) -> str:
    """Render every basin cell as one CSV row, mu-major, as rows_to_csv does."""
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
