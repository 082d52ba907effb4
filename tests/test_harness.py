import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain

import mpmath
import pytest
from hypothesis import given, strategies as st

from rootflow import (
    BasinGrid,
    BenchmarkRow,
    DomainViolation,
    MissingDerivative,
    ProblemSpec,
    SolverConfig,
    basin_to_csv,
    basin_to_grid_text,
    builtin_problems,
    default_x0_axis,
    map_basin,
    rows_to_csv,
    run_benchmark,
    sweep_h,
    sweep_mu,
)
from rootflow import harness
from rootflow.harness import BENCH_EXPECTED_VERDICTS, BENCH_MU, CSV_HEADER
from rootflow.solvers import CONVERGED_REASONS, REASON_MAX_ITERS, REASON_NONFINITE


# ---------------------------------------------------------------------------
# reference benchmark

def _ulps(value, direction, count):
    """The ``count`` floats after ``value`` towards ``direction``, nearest first."""
    values = []
    for _ in range(count):
        value = math.nextafter(value, direction)
        values.append(value)
    return values


# Each benchmark cell's verdict margin: how many runs change verdict when mu moves 1 to 50 ulps
# each way (newton fixes its mu, so it takes none), and when x0 moves 1 to 100 ulps down (every
# default x0 is its domain's upper end).  Only exp/zheng's verdict is decided by rounding:
# tests/test_oracle.py runs that cell at 15 to 50 digits, and at 30 and 50 it converges.
VERDICT_FLIPS = {("exp", "zheng"): (10, 49)}


def test_each_benchmark_verdict_keeps_its_margin(problems):
    for (name, scheme), verdict in BENCH_EXPECTED_VERDICTS.items():
        p = problems[name]
        mu, x0 = BENCH_MU.get((name, scheme), 0.0), p.default_x0
        fixed_mu = (name, scheme) not in BENCH_MU
        mus = [] if fixed_mu else _ulps(mu, math.inf, 50) + _ulps(mu, -math.inf, 50)
        x0s = _ulps(x0, -math.inf, 100)
        mu_cells = [cell for cell, in map_basin(p, scheme, mus, [x0]).cells] if mus else []
        x0_cells = map_basin(p, scheme, [mu], x0s).cells[0]
        flips = tuple(sum(c.verdict != verdict for c in cells) for cells in (mu_cells, x0_cells))
        assert flips == VERDICT_FLIPS.get((name, scheme), (0, 0)), (name, scheme)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_mu_preserves_order_and_records_all(sq):
    rows = sweep_mu(sq, "secant_dyn", [-1.0, 0.0, 1.0], 1.5)
    assert [r.mu for r in rows] == [-1.0, 0.0, 1.0]
    assert all(r.verdict == "converged" for r in rows)
    assert [r.iterations for r in rows] == [4, 5, 5]


def test_sweep_h_exact_on_linear(linear):
    # lands on the root in one application; the step rule needs one more
    # zero-length step to notice, a residual rule sees it immediately
    [row] = sweep_h(linear, 0.0, [1.0], 3.0)
    assert row.verdict == "converged"
    assert row.final_x == 0.0
    assert row.iterations == 2
    [row] = sweep_h(linear, 0.0, [1.0], 3.0, SolverConfig(stop_rule="residual"))
    assert row.iterations == 1


# ---------------------------------------------------------------------------
# basin mapping

def test_basin_converged_cells_have_small_residuals(problems):
    axis = default_x0_axis(problems["log"], 201)
    for scheme, mu in (("newton", 0.0), ("secant_dyn", 0.135)):
        grid = map_basin(problems["log"], scheme, [mu], axis)
        for cell in grid.cells[0]:
            if cell.verdict == "converged":
                assert cell.residual <= 10.0 * 1e-5


def test_basin_cells_are_order_independent(problems):
    axis = list(default_x0_axis(problems["log"], 31))
    base = map_basin(problems["log"], "secant_dyn", [0.135], axis)
    shuffled = axis[:]
    random.Random(7).shuffle(shuffled)
    permuted = map_basin(problems["log"], "secant_dyn", [0.135], shuffled)
    unperm = {x0: cell for x0, cell in zip(shuffled, permuted.cells[0])}
    assert [unperm[x0] for x0 in axis] == list(base.cells[0])


def test_basin_cells_are_the_rows_a_sweep_makes(problems):
    # a cell carries the h it ran with, like a sweep row does
    cfg = SolverConfig(h=0.5)
    for scheme in ("newton", "euler_flow", "zheng", "secant_dyn"):
        grid = map_basin(problems["log"], scheme, [0.135], [5.0], cfg)
        assert grid.cells[0][0] == sweep_mu(problems["log"], scheme, [0.135], 5.0, cfg)[0]
    grid = map_basin(problems["log"], "euler_flow", [0.135], [5.0], cfg)
    [line] = basin_to_csv(grid).strip().split("\n")[1:]
    assert line.split(",")[3] == "0.5"
    assert line == rows_to_csv(sweep_h(problems["log"], 0.135, [0.5], 5.0)).strip().split("\n")[1]


def test_each_cell_and_row_is_one_call_of_harness_run(monkeypatch, problems):
    # perfbench wraps harness.run to count and check each outcome, so a cell
    # or row made without calling that name would skip its checks.
    calls = Counter()
    real_run = harness.run

    def counting_run(p, cfg, x0):
        calls[cfg.mu, cfg.h, x0] += 1
        return real_run(p, cfg, x0)

    monkeypatch.setattr("rootflow.harness.run", counting_run)
    log = problems["log"]
    grid = map_basin(log, "zheng", [0.5, 1.0, 2.0], default_x0_axis(log, 7))
    assert calls == Counter((mu, 1.0, x0) for mu in grid.mu_axis for x0 in grid.x0_axis)
    calls.clear()
    mu_values = [0.1, 0.135, 0.5, 1.0]
    sweep_mu(log, "secant_dyn", mu_values, 5.0)
    assert calls == Counter((mu, 1.0, 5.0) for mu in mu_values)
    calls.clear()
    h_values = [0.05, 0.5, 1.0]
    sweep_h(log, 0.135, h_values, 5.0)
    assert calls == Counter((0.135, h, 5.0) for h in h_values)
    calls.clear()
    run_benchmark()
    assert calls == Counter((BENCH_MU.get(key, 0.0), 1.0, problems[key[0]].default_x0)
                            for key in BENCH_EXPECTED_VERDICTS)


# The four table builders, on rows that converge, diverge, meet a zero denominator and exhaust
# their budget.  sweep_h is given a traced cfg, which it still runs untraced.
TABLE_BUILDERS = {
    "run_benchmark": lambda problems: run_benchmark(),
    "sweep_mu": lambda problems: sweep_mu(problems["exp"], "zheng", [0.5, 1.0 + 1 / math.e], 3.0),
    "sweep_h": lambda problems: sweep_h(problems["log"], 0.135, [0.05, 0.5, 1.0], 5.0,
                                        SolverConfig(max_iters=20, trace=True)),
    "map_basin": lambda problems: map_basin(problems["exp"], "zheng", [0.0, 0.5, 1.0],
                                            default_x0_axis(problems["exp"], 9)),
}


@pytest.mark.parametrize("builder", TABLE_BUILDERS)
def test_table_builders_run_untraced_and_make_the_traced_rows(monkeypatch, problems, builder):
    # A row reads only a run's last pair, so no builder keeps the others.
    traced = []
    real_run = harness.run

    def recording_run(p, cfg, x0):
        traced.append(cfg.trace)
        return real_run(p, cfg, x0)

    monkeypatch.setattr("rootflow.harness.run", recording_run)
    rows = TABLE_BUILDERS[builder](problems)
    assert traced and not any(traced)
    traced.clear()
    monkeypatch.setattr("rootflow.harness.run",
                        lambda p, cfg, x0: recording_run(p, cfg._replace(trace=True), x0))
    assert repr(TABLE_BUILDERS[builder](problems)) == repr(rows)
    assert traced and all(traced)


def test_basin_csv_renders_without_calling_harness_rows_to_csv(monkeypatch, problems):
    # perfbench wraps harness.rows_to_csv and harness.basin_to_csv to count the
    # bytes each renders, so a basin render through the first would count twice.
    calls = []
    real_render = harness.rows_to_csv

    def counting_render(rows):
        calls.append(rows)
        return real_render(rows)

    monkeypatch.setattr("rootflow.harness.rows_to_csv", counting_render)
    log = problems["log"]
    text = basin_to_csv(map_basin(log, "zheng", [0.5, 1.0], default_x0_axis(log, 3)))
    assert calls == []
    assert text.startswith(CSV_HEADER + "\n")


def test_rows_name_the_mu_and_h_the_run_used(problems):
    # newton fixes mu = 0 and h = 1, secant mu = 0, and every scheme but
    # euler_flow h = 1; a row shows those, not the config's values
    log = problems["log"]
    rows = sweep_mu(log, "newton", [0.5, 2.0], 5.0)
    assert [(r.mu, r.h) for r in rows] == [(0.0, 1.0), (0.0, 1.0)]
    assert rows[0] == rows[1]
    [row] = sweep_mu(log, "secant", [0.5], 5.0)
    assert row.mu == 0.0
    cfg = SolverConfig(h=0.5)
    [row] = sweep_mu(log, "wu", [0.135], 5.0, cfg)
    assert row.h == 1.0
    assert row.iterations == sweep_mu(log, "euler_flow", [0.135], 5.0)[0].iterations
    [row] = sweep_mu(log, "euler_flow", [0.135], 5.0, cfg)
    assert row.h == 0.5


LOG = builtin_problems()["log"]
NODERIV = ProblemSpec(name="noderiv", f=lambda x: x, domain=(-1.0, 1.0), default_x0=0.5)
# id -> (call, what it raises, the whole message): an empty axis, or a setting, value or start
# that the config, a run or the count refuses
BUILDER_REFUSALS = {
    "run_benchmark-epsilon-0": (partial(run_benchmark, epsilon=0.0), ValueError,
                                "epsilon must be positive and finite"),
    "run_benchmark-max_iters-0": (partial(run_benchmark, max_iters=0), ValueError,
                                  "max iters must be at least 1"),
    "sweep_mu-empty": (partial(sweep_mu, LOG, "secant_dyn", [], 5.0), ValueError,
                       "mu values must be non-empty"),
    "sweep_mu-bogus-scheme": (partial(sweep_mu, LOG, "bogus", [1.0], 5.0), ValueError,
                              "unknown scheme 'bogus'; expected one of ('newton', 'euler_flow', "
                              "'wu', 'zheng', 'secant_dyn', 'secant')"),
    "sweep_mu-nan": (partial(sweep_mu, LOG, "zheng", [math.nan], 5.0), ValueError,
                     "mu must be finite"),
    "sweep_mu-x0-outside": (partial(sweep_mu, LOG, "zheng", [1.0], 7.0), DomainViolation,
                            "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    "sweep_h-empty": (partial(sweep_h, LOG, 0.135, [], 5.0), ValueError,
                      "h values must be non-empty"),
    # mu is checked, and named, before h
    "sweep_h-nan-mu": (partial(sweep_h, LOG, math.nan, [0.0], 5.0), ValueError,
                       "mu must be finite"),
    "sweep_h-zero": (partial(sweep_h, LOG, 0.135, [0.0], 5.0), ValueError,
                     "h must be positive and finite"),
    "sweep_h-x0-outside": (partial(sweep_h, LOG, 0.135, [1.0], 7.0), DomainViolation,
                           "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    "sweep_h-no-df": (partial(sweep_h, NODERIV, 0.0, [1.0], 0.5), MissingDerivative,
                      "scheme 'euler_flow' needs a derivative, problem 'noderiv' has none"),
    "map_basin-empty-mu": (partial(map_basin, LOG, "newton", [], [5.0]), ValueError,
                           "mu axis must be non-empty"),
    "map_basin-empty-x0": (partial(map_basin, LOG, "newton", [0.0], []), ValueError,
                           "x0 axis must be non-empty"),
    "map_basin-x0-outside": (partial(map_basin, LOG, "newton", [0.0], [7.0]), DomainViolation,
                             "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    **{f"default_x0_axis-{bad!r}": (partial(default_x0_axis, LOG, bad), ValueError,
                                    "x0 count must be an integer") for bad in (2.5, True, "5")},
    "default_x0_axis-0": (partial(default_x0_axis, LOG, 0), ValueError,
                          "x0 count must be at least 1"),
    # b - a overflows: the spaced starts would be NaN
    **{f"default_x0_axis-{a!r}-{b!r}": (
        partial(default_x0_axis, ProblemSpec(name="wide", f=lambda x: x, domain=(a, b),
                                             default_x0=0.0), 5),
        ValueError, f"domain [{a!r}, {b!r}] is too wide to space x0 values")
       for a, b in ((-math.inf, math.inf), (-1e308, 1e308))},
}


@pytest.mark.parametrize("case", BUILDER_REFUSALS)
def test_builder_refusals(case):
    call, error, message = BUILDER_REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_basin_validates_axes(problems):
    # numpy's ints are counts, and its bool is not
    np = pytest.importorskip("numpy")
    axis = default_x0_axis(problems["log"], np.int64(5))
    assert axis == default_x0_axis(problems["log"], 5)
    assert all(type(x0) is float for x0 in axis)
    with pytest.raises(ValueError, match="^x0 count must be an integer$"):
        default_x0_axis(problems["log"], np.True_)


class RefusesTruth(list):
    """A sequence that cannot be tested for emptiness, as a numpy array cannot."""

    def __bool__(self):
        raise ValueError("the truth value of an array is ambiguous")


@pytest.mark.parametrize("axis", [RefusesTruth, iter, lambda v: (x for x in v)],
                         ids=["refuses-truth", "iterator", "generator"])
def test_axes_are_read_once_whatever_their_type(problems, axis):
    log = problems["log"]
    mus, hs, x0s = [0.0, 0.135, 1.0], [0.5, 1.0], [1.5, 3.0, 5.0]
    assert sweep_mu(log, "secant_dyn", axis(mus), 5.0) == sweep_mu(log, "secant_dyn", mus, 5.0)
    assert sweep_h(log, 0.135, axis(hs), 5.0) == sweep_h(log, 0.135, hs, 5.0)
    grid = map_basin(log, "secant_dyn", axis(mus), axis(x0s))
    assert grid == map_basin(log, "secant_dyn", mus, x0s)
    assert basin_to_grid_text(grid).count("\n") == 1 + len(mus)
    for call in (lambda: sweep_mu(log, "secant_dyn", axis([]), 5.0),
                 lambda: sweep_h(log, 0.135, axis([]), 5.0),
                 lambda: map_basin(log, "secant_dyn", axis([]), axis(x0s)),
                 lambda: map_basin(log, "secant_dyn", axis(mus), axis([]))):
        with pytest.raises(ValueError, match="must be non-empty$"):
            call()


def test_default_x0_axis_spans_the_domain(problems):
    axis = default_x0_axis(problems["log"], 201)
    assert len(axis) == 201
    assert axis[0] == 0.5
    assert axis[-1] == 5.0
    # every built-in domain at every count: inside [a, b], ascending, ending at b
    for p in problems.values():
        a, b = p.domain
        assert default_x0_axis(p, 1) == (a,)
        for count in range(2, 402):
            axis = default_x0_axis(p, count)
            assert len(axis) == count
            assert axis[0] == a and axis[-1] == b
            assert all(x < y for x, y in zip(axis, axis[1:]))


# ---------------------------------------------------------------------------
# rendering

def test_basin_csv_and_grid_text(problems):
    axis = default_x0_axis(problems["log"], 5)
    grid = map_basin(problems["log"], "secant_dyn", [0.135, 0.5], axis)
    csv_text = basin_to_csv(grid)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 5
    # one renderer: the basin CSV is rows_to_csv over the cells, mu-major
    rows = [cell for row in grid.cells for cell in row]
    assert [(r.mu, r.x0) for r in rows] == [(mu, x0) for mu in (0.135, 0.5) for x0 in axis]
    assert csv_text == rows_to_csv(rows)

    grid_text = basin_to_grid_text(grid)
    glines = grid_text.strip().split("\n")
    assert glines[0].startswith("x0: ")
    assert len(glines) == 3
    assert glines[1].startswith(f"{0.135:.17g}: ")
    codes = glines[1].split(": ")[1].split(" ")
    assert len(codes) == 5
    for code, cell in zip(codes, grid.cells[0]):
        if cell.verdict == "converged":
            assert code == f"C{cell.iterations}"
        else:
            assert code == "D"


def test_rows_with_a_nonfinite_residual_equal_themselves():
    # f(x0) overflows, so the run's one pair is (x0, math.nan)
    blows = ProblemSpec(name="blows", f=math.exp, domain=(-1e6, 1e6), default_x0=0.0)
    grid = map_basin(blows, "secant_dyn", [0.5], [1000.0])
    assert grid == map_basin(blows, "secant_dyn", [0.5], [1000.0])
    rows = sweep_mu(blows, "secant_dyn", [0.5], 1000.0)
    assert rows == sweep_mu(blows, "secant_dyn", [0.5], 1000.0)
    assert rows[0].reason == REASON_NONFINITE and math.isnan(rows[0].residual)
    assert rows_to_csv(rows).endswith(",divergence,nonfinite,,,nan\n")
    assert basin_to_csv(grid) == rows_to_csv(rows)


# ---------------------------------------------------------------------------
# the CSV renderer against the per-field renderer it replaced

def reference_csv(rows):
    """Every field of every row formatted on its own, reals through float()."""
    def real(v):
        return f"{float(v):.17g}"
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.problem,
            r.scheme,
            real(r.mu),
            real(r.h),
            real(r.x0),
            r.verdict,
            r.reason,
            "" if r.iterations is None else str(r.iterations),
            "" if r.final_x is None else f"{float(r.final_x):.6f}",
            real(r.residual),
        ]))
    return "\n".join(lines) + "\n"


def floated(rows):
    """The rows with every real passed through float()."""
    return [r._replace(mu=float(r.mu), h=float(r.h), x0=float(r.x0), residual=float(r.residual),
                       final_x=None if r.final_x is None else float(r.final_x))
            for r in rows]


def test_csv_renders_mpmath_and_fraction_reals_as_floats(sq):
    mpsq = ProblemSpec(name="mpsq", f=lambda x: mpmath.mpf(x) ** 2 - 2, domain=(0.5, 3.0),
                       default_x0=1.5)
    rows = sweep_mu(mpsq, "zheng", [0.5], 1.5)
    assert isinstance(rows[0].residual, mpmath.mpf)
    assert rows_to_csv(rows) == rows_to_csv(floated(rows)) == reference_csv(rows)
    grid = map_basin(sq, "secant_dyn", [0.5], [Fraction(3, 2)])
    cells = list(chain.from_iterable(grid.cells))
    assert basin_to_csv(grid) == rows_to_csv(floated(cells)) == reference_csv(cells)
    # a Decimal is no numbers.Real, and renders as the float nearest it
    row = cells[0]._replace(x0=Decimal("0.1"))
    assert rows_to_csv([row]).split("\n")[1].split(",")[4] == "0.10000000000000001"


def fresh(v):
    """A copy of v that renders as v does, as another object (bar Python's small ints)."""
    return (float(repr(v)) if type(v) is float else int(str(v)) if type(v) is int
            else type(v)(v))


def test_csv_keys_axis_values_by_object_not_value(sq):
    np = pytest.importorskip("numpy")
    # 0.0 == -0.0 but they render 0 and -0; 1.5 three times over, as three objects
    mus = [0.0, -0.0, np.float64(-0.0), np.float64(0.5), 0.5]
    x0s = [0.0, -0.0, 1.5, fresh(1.5), np.float64(1.5), -1.5]
    grid = map_basin(sq, "secant_dyn", mus, x0s)
    cells = list(chain.from_iterable(grid.cells))
    text = basin_to_csv(grid)
    assert text == reference_csv(cells) == rows_to_csv(cells)
    heads = [line.split(",1,")[0] for line in text.split("\n")[1:-1:len(x0s)]]
    assert heads == ["sq,secant_dyn,0", "sq,secant_dyn,-0", "sq,secant_dyn,-0",
                     "sq,secant_dyn,0.5", "sq,secant_dyn,0.5"]
    assert [line.split(",")[4] for line in text.split("\n")[1:1 + len(x0s)]] == \
        ["0", "-0", "1.5", "1.5", "1.5", "-1.5"]
    for x0 in x0s:
        rows = sweep_mu(sq, "secant_dyn", mus, x0)
        assert rows_to_csv(rows) == reference_csv(rows)


def test_csv_of_rows_made_one_at_a_time():
    # Each row and its x0 are freed once the renderer moves past them, so a
    # later x0 may take a freed one's id; the renderer must not mistake it.
    def rows():
        for i in range(200):
            yield BenchmarkRow("sq", "zheng", 0.5, 1.0, i + 0.25, "divergence",
                               REASON_NONFINITE, None, None, math.nan)
    assert rows_to_csv(rows()) == reference_csv(rows())


try:
    import numpy
    _NUMPY_KINDS = [numpy.float64]
except ImportError:  # numpy is in the test extra; without it the other kinds still run
    _NUMPY_KINDS = []


@st.composite
def reals(draw):
    """A real of one of the kinds a row may hold, NaN and infinities included."""
    v = draw(st.floats() | st.sampled_from([0.0, -0.0, 1.5, 1e300]))
    kinds = [float, mpmath.mpf, *_NUMPY_KINDS]
    if math.isfinite(v):
        kinds += [int, Fraction]
    return draw(st.sampled_from(kinds))(v)


@st.composite
def row_runs(draw, min_size=0):
    """Rows in runs that share their problem, scheme, mu and h objects.

    Each run's head keeps or redraws each of those four of the last run's,
    so two runs may differ in one field alone.  Every real comes from a
    small pool that holds each value twice, as two objects, so equal values
    held as distinct objects meet in one call.
    """
    pool = draw(st.lists(reals(), min_size=1, max_size=4))
    pick = st.sampled_from(pool + [fresh(v) for v in pool] + [0.0, -0.0])
    fields = (st.sampled_from(["log", "".join(["lo", "g"]), "sq"]),
              st.sampled_from(["zheng", "secant_dyn"]), pick, pick)
    rows = []
    head = [draw(field) for field in fields]
    while len(rows) < min_size or draw(st.booleans()):
        head = [draw(field) if draw(st.booleans()) else kept for field, kept in zip(fields, head)]
        for _ in range(draw(st.integers(1, 4))):
            reason = draw(st.sampled_from([*CONVERGED_REASONS, REASON_MAX_ITERS, REASON_NONFINITE]))
            converged = reason in CONVERGED_REASONS
            rows.append(BenchmarkRow(
                *head, draw(pick), "converged" if converged else "divergence", reason,
                draw(st.integers(0, 500)) if converged else None,
                draw(pick) if converged else None,
                draw(pick | st.sampled_from([math.nan, math.inf, -math.inf]))))
    return rows


@given(rows=row_runs())
def test_rows_to_csv_equals_the_reference_renderer(rows):
    assert rows_to_csv(rows) == reference_csv(rows)


@given(rows=row_runs(min_size=1), data=st.data())
def test_basin_to_csv_equals_the_reference_renderer(rows, data):
    # a hand-built grid: its cells need not agree with its axes or each other
    width = data.draw(st.integers(1, len(rows)))
    cells = tuple(tuple(rows[i:i + width]) for i in range(0, len(rows) - width + 1, width))
    axis = st.lists(reals(), min_size=1, max_size=3).map(tuple)
    grid = BasinGrid(data.draw(axis), data.draw(axis), cells)
    assert basin_to_csv(grid) == reference_csv(chain.from_iterable(cells))
