"""The analysis against an independent high-precision oracle (mpmath)."""

import random
from dataclasses import replace

import pytest
from mpmath import mp

from rootflow import (
    SolverConfig,
    default_x0_axis,
    estimate_order,
    euler_flow_step,
    map_basin,
    predicted_constant,
    run,
    verify_quadratic_convergence,
)
from rootflow.harness import BENCH_EXPECTED_VERDICTS, BENCH_MU
from rootflow.solvers import VERDICT_CONVERGED, VERDICT_DIVERGED

# The built-in problems' left-hand sides, evaluated in mp arithmetic.
MP_F = {
    "log": mp.log,
    "exp": lambda x: (x - 1) * mp.exp(-x),
    "trig": lambda x: 2 * mp.sin(x) - 1,
}
MP_DF = {"log": lambda x: 1 / x, "exp": lambda x: (2 - x) * mp.exp(-x),
         "trig": lambda x: 2 * mp.cos(x)}

# f and f' scaled by k: mu + f''/f' does not change, however small k is.
SCALES = {"": 1.0, "-2^-60": 2.0 ** -60, "-1e-13": 1e-13}


@pytest.mark.parametrize("name, k", [pytest.param(name, k, id=name + tag)
                                     for name in sorted(MP_F) for tag, k in SCALES.items()])
def test_predicted_constant_matches_mp_derivatives(problems, name, k):
    # At mu = 0 the prediction is f''(x*)/f'(x*); the float one differences
    # the exact f' once, the oracle differentiates f numerically at 50 digits.
    p = problems[name]
    scaled = replace(p, f=lambda x: k * p.f(x), df=lambda x: k * p.df(x))
    with mp.workdps(50):
        root = mp.mpf(p.known_root)
        oracle = mp.diff(MP_F[name], root, 2) / mp.diff(MP_F[name], root, 1)
        expected = float(oracle)
    assert predicted_constant(scaled, 0.0) == pytest.approx(expected, rel=1e-9)


MP_ROOT = {"log": lambda: mp.mpf(1), "exp": lambda: mp.mpf(1), "trig": lambda: mp.pi / 6}


def mp_problem(problems, quart, name, x0):
    """The named problem, or ``quart`` (x + x^4), in mp arithmetic from x0."""
    if name == "quart":
        return replace(quart, f=lambda x: x + x ** 4, df=None, known_root=mp.mpf(0),
                       default_x0=mp.mpf(x0))
    return replace(problems[name], f=MP_F[name], df=MP_DF.get(name),
                   known_root=MP_ROOT[name](), default_x0=mp.mpf(x0))


# The benchmark's exp/zheng run from 50 at mu = 1 + 1/e, on mp values, by working precision:
# (reason, iterations).  Its float verdict, divergence, flips within a few ulps of mu or x0
# (tests/test_harness.py); the scheme itself converges from 50 once the digits suffice.
EXP_ZHENG_BY_DIGITS = {15: ("domain_violation", 22), 17: ("step_below_epsilon", 33),
                       20: ("domain_violation", 2), 30: ("step_below_epsilon", 25),
                       50: ("step_below_epsilon", 25)}


def test_exp_zheng_benchmark_verdict_is_decided_by_rounding(problems, quart):
    runs = {}
    for dps in EXP_ZHENG_BY_DIGITS:
        with mp.workdps(dps):
            p = mp_problem(problems, quart, "exp", "50")
            out = run(p, SolverConfig(scheme="zheng", mu=1 + 1 / mp.e), p.default_x0)
        runs[dps] = (out.reason, out.iterations)
    assert runs == EXP_ZHENG_BY_DIGITS
    # At 30 digits the other eight cells keep their benchmark verdicts.
    verdicts = {}
    with mp.workdps(30):
        for name, scheme in BENCH_EXPECTED_VERDICTS:
            if (name, scheme) != ("exp", "zheng"):
                p = mp_problem(problems, quart, name, problems[name].default_x0)
                out = run(p, SolverConfig(scheme=scheme, mu=BENCH_MU.get((name, scheme), 0.0)),
                          p.default_x0)
                verdicts[name, scheme] = VERDICT_CONVERGED if out.converged else VERDICT_DIVERGED
    assert verdicts == {cell: verdict for cell, verdict in BENCH_EXPECTED_VERDICTS.items()
                        if cell != ("exp", "zheng")}


# Converged starts among each benchmark cell's 201 default starts at its curated mu: (in float,
# through map_basin; at 30 digits, through run on the mp f and f', from the same float mu and
# x0).  Rounding decides only exp/zheng's count.
CURATED_MU_COUNTS = {
    ("log", "newton"): (74, 74), ("log", "zheng"): (198, 198), ("log", "secant_dyn"): (149, 149),
    ("exp", "newton"): (11, 11), ("exp", "zheng"): (185, 201), ("exp", "secant_dyn"): (201, 201),
    ("trig", "newton"): (168, 168), ("trig", "zheng"): (157, 157),
    ("trig", "secant_dyn"): (170, 170),
}


def test_curated_mu_basins_in_float_and_at_30_digits(problems, quart):
    counts = {}
    for name, scheme in BENCH_EXPECTED_VERDICTS:
        p, mu = problems[name], BENCH_MU.get((name, scheme), 0.0)
        axis = default_x0_axis(p, 201)
        [row] = map_basin(p, scheme, [mu], axis).cells
        in_float = sum(cell.verdict == VERDICT_CONVERGED for cell in row)
        cfg = SolverConfig(scheme=scheme, mu=mu, trace=False)
        with mp.workdps(30):
            mp_p = mp_problem(problems, quart, name, p.default_x0)
            at_30_digits = sum(run(mp_p, cfg, x0).converged for x0 in axis)
        counts[name, scheme] = (in_float, at_30_digits)
    assert counts == CURATED_MU_COUNTS


def test_euler_flow_step_is_damped_newton_on_g_at_50_digits(problems, quart):
    # g = e^{mu x} f has g' = e^{mu x} (mu f + f'), so the flow step x - h f/(mu f + f')
    # is x - h g/g'.  The oracle differentiates g numerically.
    rng = random.Random(13)
    with mp.workdps(50):
        for _ in range(300):
            name = rng.choice(sorted(MP_F))
            p = mp_problem(problems, quart, name, problems[name].default_x0)
            x = mp.mpf(rng.uniform(*p.domain))
            mu, h = rng.uniform(-3, 3), rng.uniform(0.05, 1)
            g = lambda t: mp.exp(mu * t) * p.f(t)
            newton_on_g = x - h * g(x) / mp.diff(g, x)
            assert abs(euler_flow_step(p, x, mu, h) / newton_on_g - 1) < 1e-40, (name, x, mu, h)


# Runs of the unmodified driver on mp problems at 400 digits, against the
# local model of each update rule, with c = f''/(2f') at x*:
# (scheme, problem, mu, x0, order, limit).  The ratio of order 1 is
# e_{n+1}/e_n, of order 2 e_{n+1}/e_n^2, and of a two-point order
# e_{n+1}/(e_n e_{n-1}).
ORACLE_RUNS = {
    # flow rule at h = 1: c + mu, and c = -1/2 on log
    "wu-log": ("wu", "log", 0.3, "1.5", 2, lambda: mp.mpf(0.3) - mp.mpf(0.5)),
    # flow rule at h = 0.5: linear, with rate 1 - h whatever mu
    "euler_flow-log": ("euler_flow", "log", 0.3, "1.5", 1, lambda: mp.mpf(0.5)),
    "euler_flow-trig": ("euler_flow", "trig", 0.3, "0.6", 1, lambda: mp.mpf(0.5)),
    # zheng: c(1 + f'(x*)) + mu, and f'(1) = 1 on log
    "zheng-log": ("zheng", "log", 0.3, "1.5", 2, lambda: mp.mpf(0.3) - 1),
    # newton: c = -tan(pi/6)/2
    "newton-trig": ("newton", "trig", 0.0, "0.6", 2, lambda: -mp.sqrt(3) / 6),
    # secant_dyn: c, whatever mu
    "secant_dyn-log": ("secant_dyn", "log", 0.3, "1.5", "two-point", lambda: mp.mpf(-0.5)),
    "secant_dyn-exp": ("secant_dyn", "exp", 0.3, "1.5", "two-point", lambda: mp.mpf(-1)),
    "secant_dyn-trig": ("secant_dyn", "trig", 0.3, "0.6", "two-point", lambda: -mp.sqrt(3) / 6),
    # at the paper's cancellation value mu = -f''/f' = 1 on log, mu still drops out
    "secant_dyn-log-mu1": ("secant_dyn", "log", 1.0, "1.5", "two-point", lambda: mp.mpf(-0.5)),
    # secant_dyn where c = 0, as f'' and f''' vanish at the root: order 2, limit mu
    "secant_dyn-quart": ("secant_dyn", "quart", 0.7, "0.3", 2, lambda: mp.mpf(0.7)),
}


def last_step_above_noise(e):
    """The last n with e_{n+1} above 1e-350, far from the 400-digit rounding noise."""
    return max(n for n in range(1, len(e) - 1) if abs(e[n + 1]) > mp.mpf(10) ** -350)


@pytest.mark.parametrize("case", sorted(ORACLE_RUNS))
def test_run_meets_the_local_model_at_400_digits(problems, quart, case):
    scheme, name, mu, x0, order, limit = ORACLE_RUNS[case]
    with mp.workdps(400):
        p = mp_problem(problems, quart, name, x0)
        root = p.known_root
        # euler_flow is the only scheme that reads h; at rate 1/2 it needs
        # about 1,000 steps to reach 1e-300
        cfg = SolverConfig(scheme=scheme, mu=mu, h=0.5, epsilon=1e-300, max_iters=5000)
        out = run(p, cfg, p.default_x0)
        assert out.converged
        e = [x - root for x, _ in out.pairs]
        n = last_step_above_noise(e)
        ratio = e[n + 1] / (e[n] * {1: 1, 2: e[n], "two-point": e[n - 1]}[order])
        assert abs(ratio / limit() - 1) < 1e-40


# The cubic points, where the leading term of e_{n+1}/e_n^2 vanishes: zheng
# at mu = -c(1 + f'(x*)), which is 1 on log, and the flow rule at mu = -c,
# which is sqrt(3)/6 on trig (an mp mu, so that it cancels c exactly).
CUBIC_RUNS = {
    "zheng-log": ("zheng", "log", lambda: 1.0, "1.5"),
    "wu-trig": ("wu", "trig", lambda: mp.sqrt(3) / 6, "0.6"),
}


@pytest.mark.parametrize("case", sorted(CUBIC_RUNS))
def test_cubic_points_estimate_order_three_at_400_digits(problems, quart, case):
    scheme, name, mu, x0 = CUBIC_RUNS[case]
    with mp.workdps(400):
        p = mp_problem(problems, quart, name, x0)
        out = run(p, SolverConfig(scheme=scheme, mu=mu(), epsilon=1e-300), p.default_x0)
        est = estimate_order(out.trace)
    assert out.converged
    assert est.final_order == pytest.approx(3.0, abs=1e-3)


def secant_on_g(name, mu, x0):
    """The secant method on g = e^{mu x} f, from the pair (x0, x0 - 1/10) until a step falls
    to 1e-300 or 100 points: x_n - f_n dx / (f_n - e^{-mu dx} f_{n-1}), dx = x_n - x_{n-1}."""
    f, xs = MP_F[name], [mp.mpf(x0), mp.mpf(x0) - mp.mpf(1) / 10]
    while abs(xs[-1] - xs[-2]) > mp.mpf(10) ** -300 and len(xs) < 100:
        dx, fn = xs[-1] - xs[-2], f(xs[-1])
        xs.append(xs[-1] - fn * dx / (fn - mp.exp(-mu * dx) * f(xs[-2])))
    return xs


# c = f''/(2f') at x*, and a start for the secant on g.  Its constant is g''/(2g') = c + mu
# (Traub, 1964), so mu tunes it, and at mu = -c the order rises to 2.
SECANT_ON_G = {
    "log": ("1.5", lambda: mp.mpf(-0.5)),
    "exp": ("1.5", lambda: mp.mpf(-1)),
    "trig": ("0.6", lambda: -mp.sqrt(3) / 6),
}


@pytest.mark.parametrize("name", sorted(SECANT_ON_G))
def test_secant_on_g_tends_to_c_plus_mu_at_400_digits(name):
    x0, c = SECANT_ON_G[name]
    with mp.workdps(400):
        e = [x - MP_ROOT[name]() for x in secant_on_g(name, 0.3, x0)]
        n = last_step_above_noise(e)
        assert abs(e[n + 1] / (e[n] * e[n - 1]) / (c() + mp.mpf(0.3)) - 1) < 1e-40


# On exp, -c is 1, where g = x - 1 is linear: the test after this one.
@pytest.mark.parametrize("name", ["log", "trig"])
def test_secant_on_g_is_quadratic_at_mu_minus_c_at_400_digits(name):
    x0, c = SECANT_ON_G[name]
    with mp.workdps(400):
        e = [x - MP_ROOT[name]() for x in secant_on_g(name, -c(), x0)]
        n = last_step_above_noise(e)
        assert abs(e[n + 1] / (e[n] * e[n - 1])) < 1e-40
        assert abs(mp.log(abs(e[n + 1] / e[n])) / mp.log(abs(e[n] / e[n - 1])) - 2) < 0.05


def test_secant_on_g_lands_on_the_root_where_g_is_linear():
    with mp.workdps(400):
        x = secant_on_g("exp", 1, "1.5")[2]
        assert abs(x - 1) < mp.mpf(10) ** -390


def test_estimate_order_floors_at_the_trace_precision(problems):
    # The saturation floor is 1e3 epsilons of the errors' own number type.  A
    # float floor (2.2e-13) would cut this 400-digit trace after 5 steps, at
    # a final order of 1.676; the mp floor keeps 12, down to order φ.
    with mp.workdps(400):
        p = replace(problems["log"], f=mp.log, df=None, known_root=mp.mpf(1),
                    default_x0=mp.mpf("1.5"))
        out = run(p, SolverConfig(scheme="secant_dyn", mu=0.3, epsilon=1e-300), p.default_x0)
        est = estimate_order(out.trace)
    assert est.usable_steps == 12
    assert est.final_order == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-3)


def test_estimate_order_takes_logs_at_the_trace_precision(problems, quart):
    # At 700 digits the error falls from about 2e-228 to 1.8e-683, above the
    # floor; the ratio of the two is 0.0 as a float, whose log is undefined.
    with mp.workdps(700):
        p = mp_problem(problems, quart, "log", "1.5")
        out = run(p, SolverConfig(scheme="zheng", mu=1.0, epsilon=1e-300, max_iters=200),
                  p.default_x0)
        est = estimate_order(out.trace)
    assert (out.reason, out.iterations) == ("step_below_epsilon", 8)
    assert est.final_order == pytest.approx(3.0, abs=1e-3)


def test_predicted_constant_differences_at_the_root_precision(problems, quart):
    # A float-sized step (1e-5) leaves an O(h^2) error of about 1e-10 here.
    with mp.workdps(60):
        p = mp_problem(problems, quart, "log", "1.5")
        error = abs(predicted_constant(p, mp.mpf("0.3")) - mp.mpf("-0.7"))
    assert error < 1e-35


def test_report_on_mp_values_renders_as_text(problems, quart):
    with mp.workdps(60):
        p = mp_problem(problems, quart, "log", "1.5")
        report = verify_quadratic_convergence(p, 0.3, p.default_x0, SolverConfig(epsilon=1e-50))
        text = report.to_text()
    assert report.estimate is not None and report.predicted is not None
    assert f"final order  : {float(report.estimate.final_order):.6f}" in text
    assert "predicted    : -0.7\n" in text
