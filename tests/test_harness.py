import math
import random

import pytest

from rootflow import (
    ProblemSpec,
    SolverConfig,
    basin_to_csv,
    basin_to_grid_text,
    benchmark_verdicts_match,
    default_x0_axis,
    map_basin,
    rows_to_csv,
    run_benchmark,
    sweep_h,
    sweep_mu,
)
from rootflow.harness import BENCH_EXPECTED_VERDICTS, CSV_HEADER


def by_key(rows):
    return {(r.problem, r.scheme): r for r in rows}


# ---------------------------------------------------------------------------
# reference benchmark

def test_benchmark_has_nine_rows_matching_the_expected_pattern():
    rows = run_benchmark()
    assert len(rows) == 9
    assert benchmark_verdicts_match(rows)
    verdicts = [r.verdict for r in rows]
    assert verdicts.count("converged") == 4


def test_benchmark_counts_and_roots():
    rows = by_key(run_benchmark())
    assert rows[("log", "zheng")].iterations == 8
    assert rows[("log", "secant_dyn")].iterations == 6
    assert rows[("exp", "secant_dyn")].iterations == 41
    assert rows[("trig", "secant_dyn")].iterations == 5
    assert f"{rows[('log', 'secant_dyn')].final_x:.6f}" == "1.000000"
    assert f"{rows[('exp', 'secant_dyn')].final_x:.6f}" == "1.000000"
    assert f"{rows[('trig', 'secant_dyn')].final_x:.6f}" == "0.523599"


def test_benchmark_divergent_rows_hide_count_and_root():
    for row in run_benchmark():
        if row.verdict == "divergence":
            assert row.iterations is None
            assert row.final_x is None
            assert row.reason != ""


def test_benchmark_mu_values():
    rows = by_key(run_benchmark())
    assert rows[("log", "zheng")].mu == 1.0
    assert rows[("exp", "zheng")].mu == 1.0 + 1.0 / math.e
    assert rows[("trig", "zheng")].mu == 0.5 + math.sqrt(3.0) / 6.0
    assert rows[("log", "secant_dyn")].mu == 0.135
    assert rows[("exp", "secant_dyn")].mu == 1.18
    assert rows[("trig", "secant_dyn")].mu == 2.65


def test_benchmark_is_deterministic():
    assert run_benchmark() == run_benchmark()


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_mu_single_value_matches_benchmark(problems):
    bench = by_key(run_benchmark())[("log", "secant_dyn")]
    [row] = sweep_mu(problems["log"], "secant_dyn", [0.135], 5.0)
    assert row.iterations == bench.iterations
    assert row.final_x == bench.final_x
    assert row.verdict == bench.verdict


def test_sweep_mu_is_deterministic_per_value(problems):
    rows = sweep_mu(problems["log"], "secant_dyn", [0.135, 0.135], 5.0)
    assert rows[0] == rows[1]


def test_sweep_mu_preserves_order_and_records_all(sq):
    rows = sweep_mu(sq, "secant_dyn", [-1.0, 0.0, 1.0], 1.5)
    assert [r.mu for r in rows] == [-1.0, 0.0, 1.0]
    assert all(r.verdict == "converged" for r in rows)
    assert [r.iterations for r in rows] == [4, 5, 5]


def test_sweep_mu_rejects_empty(sq):
    with pytest.raises(ValueError):
        sweep_mu(sq, "secant_dyn", [], 1.5)


def test_sweep_h_matches_wu_at_unit_step(problems):
    from rootflow import run as run_solver

    [row] = sweep_h(problems["log"], 0.135, [1.0], 5.0)
    wu = run_solver(problems["log"], SolverConfig(scheme="wu", mu=0.135), 5.0)
    assert row.verdict == "converged"
    assert row.iterations == wu.iterations
    assert row.final_x == wu.final_x


def test_sweep_h_smaller_step_prolongs_the_iteration(problems):
    rows = {r.h: r for r in sweep_h(problems["log"], 0.135, [1.0, 0.5, 0.1], 5.0)}
    assert all(r.verdict == "converged" for r in rows.values())
    assert rows[1.0].iterations == 5
    assert rows[0.5].iterations == 18
    assert rows[0.1].iterations == 98
    assert rows[0.1].iterations > rows[0.5].iterations > rows[1.0].iterations


def test_sweep_h_exact_on_linear(linear):
    # lands on the root in one application; the step rule needs one more
    # zero-length step to notice, a residual rule sees it immediately
    [row] = sweep_h(linear, 0.0, [1.0], 3.0)
    assert row.verdict == "converged"
    assert row.final_x == 0.0
    assert row.iterations == 2
    [row] = sweep_h(linear, 0.0, [1.0], 3.0, SolverConfig(stop_rule="residual"))
    assert row.iterations == 1


def test_sweep_h_validation(problems):
    with pytest.raises(ValueError):
        sweep_h(problems["log"], 0.135, [0.0], 5.0)
    with pytest.raises(ValueError):
        sweep_h(problems["log"], 0.135, [], 5.0)
    from rootflow import ProblemSpec

    noderiv = ProblemSpec(name="noderiv", f=lambda x: x, domain=(-1.0, 1.0), default_x0=0.5)
    with pytest.raises(ValueError):
        sweep_h(noderiv, 0.0, [1.0], 0.5)


# ---------------------------------------------------------------------------
# basin mapping

def test_basin_single_cells(problems):
    grid = map_basin(problems["trig"], "secant_dyn", [2.65], [11.0 * math.pi / 24.0])
    cell = grid.cells[0][0]
    assert (cell.verdict, cell.iterations) == ("converged", 5)
    grid = map_basin(problems["log"], "newton", [0.0], [5.0])
    assert grid.cells[0][0].verdict == "divergence"


def test_basin_grid_shape_and_population(problems):
    axis = default_x0_axis(problems["log"], 17)
    grid = map_basin(problems["log"], "secant_dyn", [0.1, 0.135], axis)
    assert len(grid.cells) == 2
    assert all(len(row) == 17 for row in grid.cells)
    assert all(c.verdict in ("converged", "divergence") for row in grid.cells for c in row)


def test_basin_two_point_scheme_beats_newton_on_log(problems):
    axis = default_x0_axis(problems["log"], 201)
    newton = map_basin(problems["log"], "newton", [0.0], axis)
    dyn = map_basin(problems["log"], "secant_dyn", [0.135], axis)
    f_newton = newton.converged_fraction(0)
    f_dyn = dyn.converged_fraction(0)
    assert f_newton == pytest.approx(74 / 201)
    assert f_dyn == pytest.approx(149 / 201)
    assert f_dyn > f_newton


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


def test_basin_validates_axes(problems):
    with pytest.raises(ValueError, match="^mu axis must be non-empty$"):
        map_basin(problems["log"], "newton", [], [5.0])
    with pytest.raises(ValueError, match="^x0 axis must be non-empty$"):
        map_basin(problems["log"], "newton", [0.0], [])
    with pytest.raises(ValueError, match=r"^x0 = 7\.0 is outside"):
        map_basin(problems["log"], "newton", [0.0], [7.0])
    for bad in (2.5, True, "5"):
        with pytest.raises(ValueError, match="^x0 count must be an integer$"):
            default_x0_axis(problems["log"], bad)
    with pytest.raises(ValueError, match="^x0 count must be at least 1$"):
        default_x0_axis(problems["log"], 0)
    # b - a overflows: the spaced starts would be NaN
    for domain in ((-math.inf, math.inf), (-1e308, 1e308)):
        wide = ProblemSpec(name="wide", f=lambda x: x, domain=domain, default_x0=0.0)
        with pytest.raises(ValueError, match=r"^domain \[.*\] is too wide to space x0 values$"):
            default_x0_axis(wide, 5)
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

def test_csv_header_and_shape():
    text = rows_to_csv(run_benchmark())
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    assert all(line.count(",") == 9 for line in lines)


def test_csv_field_rendering():
    rows = by_key(run_benchmark())
    text = rows_to_csv([rows[("trig", "secant_dyn")], rows[("log", "newton")]])
    data = text.strip().split("\n")[1:]
    conv = data[0].split(",")
    assert conv[0] == "trig"
    assert conv[5] == "converged"
    assert conv[7] == "5"
    assert conv[8] == "0.523599"
    # 17 significant digits for plain reals
    assert conv[4] == f"{11.0 * math.pi / 24.0:.17g}"
    div = data[1].split(",")
    assert div[5] == "divergence"
    assert div[6] == "domain_violation"
    assert div[7] == ""  # no count for divergent rows
    assert div[8] == ""  # no root either


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


def test_expected_pattern_constant_is_consistent():
    assert len(BENCH_EXPECTED_VERDICTS) == 9
    conv = [k for k, v in BENCH_EXPECTED_VERDICTS.items() if v == "converged"]
    assert sorted(conv) == [("exp", "secant_dyn"), ("log", "secant_dyn"),
                            ("log", "zheng"), ("trig", "secant_dyn")]
