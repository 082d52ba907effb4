import dataclasses
import math
import struct
import zlib
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from rootflow import (
    BOOTSTRAPS,
    SCHEMES,
    STOP_RULES,
    BasinGrid,
    BenchmarkRow,
    ConvergenceReport,
    DenominatorUnderflow,
    DomainViolation,
    IterationTrace,
    MissingDerivative,
    NonFiniteValue,
    OrderEstimate,
    ProblemSpec,
    RunOutcome,
    SolverConfig,
    TracePoint,
    builtin_problems,
    estimate_order,
    euler_flow_step,
    eval_f,
    map_basin,
    newton_step,
    run,
    run_benchmark,
    secant_dyn_step,
    secant_step,
    verify_quadratic_convergence,
    wu_step,
    zheng_step,
)
from rootflow import solvers
from rootflow.harness import _row
from rootflow.problems import NONFINITE_ERRORS
from rootflow.solvers import (
    _FLOW,
    _SCHEME_TABLE,
    _SECANT,
    CONVERGED_REASONS,
    ESCAPE_BOUND,
    REASON_DOMAIN,
    REASON_ESCAPE,
    REASON_MAX_ITERS,
    REASON_NONFINITE,
    REASON_RESIDUAL,
    REASON_STEP,
    REASON_UNDERFLOW,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_EXHAUSTED,
)

WIDE = (-1e9, 1e9)


# ---------------------------------------------------------------------------
# one-step kernels

def test_newton_step_values(problems, sq4, linear):
    assert newton_step(sq4, 3.0) == pytest.approx(13.0 / 6.0)
    assert newton_step(linear, 7.0) == 0.0
    # hand evaluation: 5 - 5 ln 5
    assert newton_step(problems["log"], 5.0) == pytest.approx(-3.0471895621705016)


def test_newton_first_log_step_leaves_the_domain(problems):
    x1 = newton_step(problems["log"], 5.0)
    with pytest.raises(DomainViolation):
        eval_f(problems["log"], x1)


def test_euler_flow_step_values(problems, linear):
    assert euler_flow_step(linear, 4.0, 0.0, 1.0) == 0.0
    assert euler_flow_step(linear, 4.0, 0.0, 0.5) == 2.0
    # 5 - ln 5 / (0.135 ln 5 + 0.2), checked against a separate calculator
    assert euler_flow_step(problems["log"], 5.0, 0.135, 1.0) == pytest.approx(
        1.1429721079771804
    )


def test_wu_step_value(expm1p):
    # 0.1 - (e^0.1 - 1)/((e^0.1 - 1) + e^0.1)
    assert wu_step(expm1p, 0.1, 1.0) == pytest.approx(0.01310643412106173)


def test_zheng_step_exact_on_linear(linear):
    assert zheng_step(linear, 4.0, 0.0) == 0.0


def test_zheng_step_probe_may_exit_the_interval(problems):
    # from x = 5 the probe sits at 5 + ln 5, past the interval edge, and the
    # step must still evaluate
    assert zheng_step(problems["log"], 5.0, 1.0) == pytest.approx(4.097255683445856)


def test_secant_dyn_step_values(sq, linear):
    assert secant_dyn_step(linear, 1.0, 2.0, 0.0) == 0.0
    # hand evaluation on x^2 - 1 from the pair (2, 1.5)
    assert secant_dyn_step(sq, 2.0, 1.5, 0.0) == pytest.approx(1.1428571428571428)


def test_secant_step_value(sq4):
    assert secant_step(sq4, 3.0, 2.5) == pytest.approx(2.0909090909090908)


def test_secant_stagnant_pair(sq):
    # a pair that coincides makes the secant denominator exactly 0
    with pytest.raises(DenominatorUnderflow,
                       match=r"^mu\*\(x - x_prev\)\*f \+ f - f\(x_prev\) is 0 at x = 1\.5$"):
        secant_dyn_step(sq, 1.5, 1.5, 0.7)


def test_euler_flow_step_flat_derivative(sq4):
    # f'(0) = 0, so with mu = 0 the flow denominator mu*f + f' is exactly 0
    with pytest.raises(DenominatorUnderflow, match=r"^mu\*f \+ f' is 0 at x = 0\.0$"):
        euler_flow_step(sq4, 0.0, 0.0, 1.0)


@given(
    name=st.sampled_from(["log", "exp", "trig"]),
    t=st.floats(min_value=0.0, max_value=1.0),
    mu=st.floats(min_value=-3.0, max_value=3.0),
)
def test_wu_equals_euler_with_unit_step(name, t, mu):
    p = builtin_problems()[name]
    a, b = p.domain
    x = a + (b - a) * t
    try:
        newton = euler_flow_step(p, x, 0.0, 1.0)
    except DenominatorUnderflow:
        with pytest.raises(DenominatorUnderflow):
            newton_step(p, x)
    else:
        assert newton_step(p, x) == newton  # bit-for-bit
    try:
        expected = euler_flow_step(p, x, mu, 1.0)
    except DenominatorUnderflow:
        with pytest.raises(DenominatorUnderflow):
            wu_step(p, x, mu)
        return
    assert wu_step(p, x, mu) == expected  # bit-for-bit


@given(
    xp=st.floats(min_value=-100.0, max_value=100.0),
    xc=st.floats(min_value=-100.0, max_value=100.0),
    c=st.floats(min_value=-50.0, max_value=50.0),
)
def test_secant_dyn_with_zero_mu_is_secant(xp, xc, c):
    p = ProblemSpec(name="shifted", f=lambda x: x * x - c, domain=WIDE, default_x0=1.0)
    try:
        expected = secant_step(p, xp, xc)
    except DenominatorUnderflow:
        with pytest.raises(DenominatorUnderflow):
            secant_dyn_step(p, xp, xc, 0.0)
        return
    assert secant_dyn_step(p, xp, xc, 0.0) == expected  # bit-for-bit


@given(
    xp=st.floats(min_value=-100.0, max_value=100.0),
    xc=st.floats(min_value=-100.0, max_value=100.0),
)
def test_secant_dyn_matches_closed_form_secant(xp, xc, sq):
    fp, fc = sq.f(xp), sq.f(xc)
    if abs(xc - xp) < 1e-6 or abs(fc - fp) < 1e-6:
        return
    closed = xc - fc * (xc - xp) / (fc - fp)
    assert secant_dyn_step(sq, xp, xc, 0.0) == pytest.approx(closed, rel=1e-14)


def test_kernels_fix_exact_roots(sq4):
    # x = 2 is an exact binary root of x^2 - 4; every kernel with a nonzero
    # denominator must return it unchanged
    assert newton_step(sq4, 2.0) == 2.0
    assert euler_flow_step(sq4, 2.0, 0.7, 0.25) == 2.0
    assert wu_step(sq4, 2.0, 0.7) == 2.0
    assert secant_dyn_step(sq4, 3.0, 2.0, 0.5) == 2.0
    assert secant_step(sq4, 3.0, 2.0) == 2.0
    # the one-point difference quotient degenerates at an exact root: its
    # denominator is exactly zero there
    with pytest.raises(DenominatorUnderflow,
                       match=r"^mu\*f\^2 \+ f\(x\+f\) - f is 0 at x = 2\.0$"):
        zheng_step(sq4, 2.0, 0.5)


# ---------------------------------------------------------------------------
# driver

def test_run_two_point_on_log(problems):
    p = problems["log"]
    out = run(p, SolverConfig(scheme="secant_dyn", mu=0.135), 5.0)
    assert out.verdict == "converged"
    assert out.reason == "step_below_epsilon"
    assert out.iterations == 6
    assert f"{out.final_x:.6f}" == "1.000000"
    assert out.trace.points[0] == (0, 5.0, math.log(5.0))


def test_run_two_point_on_exp(problems):
    out = run(problems["exp"], SolverConfig(scheme="secant_dyn", mu=1.18), 50.0)
    assert out.verdict == "converged"
    assert out.iterations == 41
    assert f"{out.final_x:.6f}" == "1.000000"


def test_run_two_point_on_trig(problems):
    out = run(problems["trig"], SolverConfig(scheme="secant_dyn", mu=2.65),
              11.0 * math.pi / 24.0)
    assert out.verdict == "converged"
    assert out.iterations == 5
    assert f"{out.final_x:.6f}" == "0.523599"


def test_run_newton_diverges_on_log_by_domain_exit(problems):
    out = run(problems["log"], SolverConfig(scheme="newton"), 5.0)
    assert out.verdict == "divergence"
    assert out.reason == "domain_violation"
    assert out.iterations == 0  # the rejected candidate is not a step
    assert out.final_x == 5.0  # last accepted iterate


def test_run_zheng_on_log(problems):
    out = run(problems["log"], SolverConfig(scheme="zheng", mu=1.0), 5.0)
    assert out.verdict == "converged"
    assert out.iterations == 8
    assert f"{out.final_x:.6f}" == "1.000000"


def test_run_zheng_diverges_on_exp_and_trig(problems):
    out = run(problems["exp"], SolverConfig(scheme="zheng", mu=1.0 + 1.0 / math.e), 50.0)
    assert out.verdict == "divergence"
    out = run(problems["trig"], SolverConfig(scheme="zheng", mu=0.5 + math.sqrt(3.0) / 6.0),
              11.0 * math.pi / 24.0)
    assert out.verdict == "divergence"
    assert out.reason == "domain_violation"


def test_run_starting_at_the_root(problems):
    out = run(problems["trig"], SolverConfig(scheme="secant_dyn", mu=2.65), math.pi / 6.0)
    assert out.verdict == "converged"
    assert out.iterations <= 1
    assert out.final_x == pytest.approx(math.pi / 6.0, abs=1e-12)


# The reason each stop rule gives for a run that ends at an exact root.
ROOT_REASONS = {"step_size": {"step_below_epsilon"}, "residual": {"residual_below_epsilon"},
                "either": {"step_below_epsilon", "residual_below_epsilon"}}


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("bootstrap", BOOTSTRAPS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_ends_converged_at_an_exact_root(scheme, bootstrap, stop_rule):
    # zheng's quotient (f(x + f) - f) / f is 0/0 where f(x) == 0, and so is
    # the zheng bootstrap's; a run that reaches the root, or starts on it,
    # has converged all the same.
    p = ProblemSpec(name="line", f=lambda x: x - 1.0, df=lambda x: 1.0,
                    domain=(-10.0, 10.0), known_root=1.0, default_x0=3.0)
    for mu in (0.0, 0.5):
        cfg = SolverConfig(scheme=scheme, mu=mu, bootstrap=bootstrap, stop_rule=stop_rule)
        for x0 in (3.0, 1.0):
            out = run(p, cfg, x0)
            assert out.reason in ROOT_REASONS[stop_rule]
            assert out.final_x == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("scheme", ["newton", "wu", "euler_flow"])
def test_run_ends_converged_at_a_flat_exact_root(scheme, stop_rule):
    # f = f' = 0 at x = 1, so mu f + f' is exactly 0: no step can be taken,
    # and none is needed.
    p = ProblemSpec(name="double", f=lambda x: (x - 1.0) ** 2, df=lambda x: 2.0 * (x - 1.0),
                    domain=(-10.0, 10.0), known_root=1.0, default_x0=3.0)
    out = run(p, SolverConfig(scheme=scheme, mu=0.5, stop_rule=stop_rule), 1.0)
    assert out.reason == ("residual_below_epsilon" if stop_rule == "residual"
                          else "step_below_epsilon")
    assert out.iterations == 0
    assert out.pairs == [(1.0, 0.0)]


def test_run_offset_bootstrap(problems):
    cfg = SolverConfig(scheme="secant_dyn", mu=0.135, bootstrap="offset_x0")
    out = run(problems["log"], cfg, 5.0)
    assert out.verdict == "converged"
    assert out.iterations == 7
    assert f"{out.final_x:.6f}" == "1.000000"


@pytest.mark.parametrize("x0, iterations", [(0.6, 5), (0.9, 4)])
def test_run_offset_bootstrap_is_not_step_tested(problems, x0, iterations):
    # The offset step is epsilon * max(1, |x0|), which for |x0| <= 1 passes
    # the step test; it must not count as convergence on its own.
    cfg = SolverConfig(scheme="secant_dyn", mu=0.5, bootstrap="offset_x0")
    out = run(problems["log"], cfg, x0)
    assert out.reason == "step_below_epsilon"
    assert out.iterations == iterations
    assert abs(out.final_fx) < 1e-10


def test_run_residual_stop_rule(problems):
    cfg = SolverConfig(scheme="zheng", mu=1.0, stop_rule="residual")
    out = run(problems["log"], cfg, 5.0)
    assert out.verdict == "converged"
    assert out.reason == "residual_below_epsilon"
    assert abs(problems["log"].f(out.final_x)) <= 1e-5


def test_run_rejects_x0_outside_domain(problems):
    with pytest.raises(DomainViolation):
        run(problems["log"], SolverConfig(scheme="newton"), 7.0)


def test_run_needs_derivative_for_derivative_schemes():
    p = ProblemSpec(name="noderiv", f=lambda x: x * x - 1.0, domain=WIDE, default_x0=1.5)
    with pytest.raises(MissingDerivative, match="scheme 'newton' needs a derivative"):
        run(p, SolverConfig(scheme="newton"), 1.5)
    # derivative-free schemes are fine
    out = run(p, SolverConfig(scheme="secant_dyn", mu=0.0, epsilon=1e-10), 1.5)
    assert out.verdict == "converged"


def test_run_exhausts_budget_with_tiny_euler_step(problems):
    cfg = SolverConfig(scheme="euler_flow", mu=0.135, h=1e-4)
    out = run(problems["log"], cfg, 5.0)
    assert out.verdict == "exhausted"
    assert out.reason == "max_iters_reached"
    assert out.iterations == 500


COUNT_PROBLEMS = {**builtin_problems(), "sq": ProblemSpec(
    name="sq", f=lambda x: x * x - 1.0, df=lambda x: 2.0 * x, domain=WIDE, known_root=1.0,
    default_x0=1.5)}


# [0.5, 5] lies inside the domain of each problem drawn.
@given(
    name=st.sampled_from(["log", "exp", "sq"]),
    scheme=st.sampled_from(SCHEMES),
    bootstrap=st.sampled_from(BOOTSTRAPS),
    stop_rule=st.sampled_from(STOP_RULES),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    x0=st.floats(min_value=0.5, max_value=5.0),
    max_iters=st.integers(min_value=1, max_value=5),
)
def test_iterations_are_the_accepted_steps(name, scheme, bootstrap, stop_rule, mu, x0, max_iters):
    cfg = SolverConfig(scheme=scheme, mu=mu, max_iters=max_iters, bootstrap=bootstrap,
                       stop_rule=stop_rule)
    out = run(COUNT_PROBLEMS[name], cfg, x0)
    # Every pair after x0 is an accepted step, except a two-point scheme's bootstrap pair.
    two_point = scheme in ("secant", "secant_dyn")
    assert out.iterations == len(out.pairs) - 1 - (two_point and len(out.pairs) > 1)
    assert out.iterations <= max_iters
    if out.reason == "max_iters_reached":
        assert out.iterations == max_iters


def test_run_escape_bound():
    # Newton on the cube root maps x to -2x, so |x| doubles every step and
    # passes ESCAPE_BOUND = 1e12 long before the domain's edge at 1e15: 39
    # steps are taken, and the 40th candidate is rejected.
    p = ProblemSpec(name="cbrt", f=lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x),
                    df=lambda x: abs(x) ** (-2.0 / 3.0) / 3.0,
                    domain=(-1e15, 1e15), default_x0=1.0)
    out = run(p, SolverConfig(scheme="newton"), 1.0)
    assert out.verdict == "divergence"
    assert out.reason == "escape_bound_exceeded"
    assert out.iterations == 39
    assert abs(out.final_x) <= ESCAPE_BOUND < 2.0 * abs(out.final_x)


def test_run_nonfinite_candidate_diverges():
    # f(2) / f'(2) = 1e200 / 1e-290 overflows, so the first candidate is -inf
    p = ProblemSpec(name="steep", f=lambda x: 1e200 * (x - 1.0), df=lambda x: 1e-290,
                    domain=WIDE, default_x0=2.0)
    out = run(p, SolverConfig(scheme="newton"), 2.0)
    assert out.verdict == "divergence"
    assert out.reason == "nonfinite"
    assert out.iterations == 0
    assert out.final_x == 2.0


@pytest.mark.parametrize("bootstrap, mu, epsilon, stop_rule, reason", [
    # The bootstrap's step (1/mu for zheng_first_step, the offset for
    # offset_x0) vanishes against x0.  The step test does not judge the
    # bootstrap, so under every rule the first counted step meets the
    # coincident pair: its secant denominator is exactly 0, and
    # |ln 5| = 1.61 is no root.
    ("zheng_first_step", 1e20, 1e-5, "either", "denominator_underflow"),
    ("zheng_first_step", 1e20, 1e-5, "residual", "denominator_underflow"),
    ("zheng_first_step", 1e20, 1e-5, "step_size", "denominator_underflow"),
    ("offset_x0", 0.5, 1e-17, "either", "denominator_underflow"),
    ("offset_x0", 0.5, 1e-17, "step_size", "denominator_underflow"),
    ("offset_x0", 0.5, 1e-310, "either", "denominator_underflow"),
    ("offset_x0", 0.5, 1e-310, "residual", "denominator_underflow"),
    ("offset_x0", 0.5, 1e-310, "step_size", "denominator_underflow"),
])
def test_run_stagnant_pair(problems, bootstrap, mu, epsilon, stop_rule, reason):
    # Both starting points are 5.0.
    cfg = SolverConfig(scheme="secant_dyn", mu=mu, epsilon=epsilon, bootstrap=bootstrap,
                       stop_rule=stop_rule)
    out = run(problems["log"], cfg, 5.0)
    assert out.reason == reason
    assert out.iterations == 0
    assert [pt.x for pt in out.trace.points] == [5.0, 5.0]


@pytest.mark.parametrize("scheme", ["zheng", "secant_dyn"])
def test_run_tiny_scaled_problem_converges(scheme):
    # f = 1e-160 (x - 1): the zheng denominator mu f^2 = 2e-320 is subnormal
    # but not 0, and f^2 / (mu f^2) = 2 is the exact step to the root.
    # secant_dyn's bootstrap is that step; its first secant step confirms it.
    p = ProblemSpec(name="tiny", f=lambda x: 1e-160 * (x - 1.0), domain=(-10.0, 10.0),
                    known_root=1.0, default_x0=3.0)
    out = run(p, SolverConfig(scheme=scheme, mu=0.5), 3.0)
    assert out.converged
    assert out.iterations == 1
    assert out.final_x == 1.0


def test_run_flat_derivative_diverges():
    # f' vanishes at the start; the Newton correction is undefined
    p = ProblemSpec(name="flat", f=lambda x: x * x + 1.0, df=lambda x: 2.0 * x,
                    domain=WIDE, default_x0=0.0)
    out = run(p, SolverConfig(scheme="newton"), 0.0)
    assert out.verdict == "divergence"
    assert out.reason == "denominator_underflow"


def test_verdict_reason_coupling(problems):
    cases = [(problems["log"], SolverConfig(scheme=scheme, mu=mu), 5.0)
             for scheme, mu in (("newton", 0.0), ("zheng", 1.0), ("secant_dyn", 0.135))]
    # a spent budget, which a table row folds into divergence
    exp = problems["exp"]
    cases.append((exp, SolverConfig(scheme="secant_dyn", mu=1.18, max_iters=3), exp.default_x0))
    verdicts = set()
    for p, cfg, x0 in cases:
        out = run(p, cfg, x0)
        verdicts.add(out.verdict)
        # converged outcomes carry exactly the smallness reasons
        if out.verdict == "converged":
            assert out.reason in ("step_below_epsilon", "residual_below_epsilon")
        else:
            assert out.reason not in ("step_below_epsilon", "residual_below_epsilon")
        row = _row(p, cfg, x0, *cfg.resolved())
        assert row.verdict == (VERDICT_DIVERGED if out.verdict == VERDICT_EXHAUSTED
                               else out.verdict)
        assert row.reason == out.reason
    assert verdicts == {VERDICT_CONVERGED, VERDICT_DIVERGED, VERDICT_EXHAUSTED}


VERDICT_OF_REASON = {
    "step_below_epsilon": "converged",
    "residual_below_epsilon": "converged",
    "max_iters_reached": "exhausted",
    "domain_violation": "divergence",
    "nonfinite": "divergence",
    "denominator_underflow": "divergence",
    "escape_bound_exceeded": "divergence",
}


def test_verdict_of_each_reason():
    # a new REASON_* constant must be given its verdict here on purpose
    reasons = {v for k, v in vars(solvers).items() if k.startswith("REASON_")}
    assert reasons == set(VERDICT_OF_REASON)
    for reason, verdict in VERDICT_OF_REASON.items():
        out = RunOutcome(reason, 0, [(1.0, 0.0)], None)
        assert (out.verdict, out.converged) == (verdict, verdict == "converged")


def test_run_nonfinite_at_start():
    p = ProblemSpec(name="blows", f=lambda x: math.exp(x), df=math.exp,
                    domain=(-1e6, 1e6), default_x0=1000.0)
    out = run(p, SolverConfig(scheme="newton"), 1000.0)
    assert out.verdict == "divergence"
    assert out.reason == "nonfinite"
    assert out.iterations == 0


def test_run_is_deterministic(problems):
    cfg = SolverConfig(scheme="secant_dyn", mu=1.18)
    a = run(problems["exp"], cfg, 50.0)
    b = run(problems["exp"], cfg, 50.0)
    assert a == b


# run's loop repeats the kernels' arithmetic inline; the public kernels are
# the reference it must match bit for bit.
REPLAY_PROBLEMS = {**builtin_problems(), "cubic": ProblemSpec(
    name="cubic", f=lambda x: x ** 3 - 2.0 * x - 5.0, df=lambda x: 3.0 * x * x - 2.0,
    domain=(-1e15, 1e15), default_x0=2.0)}
KERNELS = {
    "newton": lambda p, xs, mu, h: newton_step(p, xs[-1]),
    "euler_flow": lambda p, xs, mu, h: euler_flow_step(p, xs[-1], mu, h),
    "wu": lambda p, xs, mu, h: wu_step(p, xs[-1], mu),
    "zheng": lambda p, xs, mu, h: zheng_step(p, xs[-1], mu),
    "secant_dyn": lambda p, xs, mu, h: secant_dyn_step(p, xs[-2], xs[-1], mu),
    "secant": lambda p, xs, mu, h: secant_step(p, xs[-2], xs[-1]),
}


def _kernel_next(p, cfg, xs):
    """The next iterate after xs by the public kernels, or the bootstrap's point."""
    mu, h = cfg.resolved()
    if len(xs) == 1 and cfg.scheme in ("secant", "secant_dyn"):
        if cfg.bootstrap == "zheng_first_step":
            return zheng_step(p, xs[0], mu)
        return xs[0] - math.copysign(1.0, eval_f(p, xs[0])) * cfg.epsilon * max(1.0, abs(xs[0]))
    return KERNELS[cfg.scheme](p, xs, mu, h)


@given(
    name=st.sampled_from(sorted(REPLAY_PROBLEMS)),
    scheme=st.sampled_from(SCHEMES),
    bootstrap=st.sampled_from(BOOTSTRAPS),
    stop_rule=st.sampled_from(STOP_RULES),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    h=st.floats(min_value=0.05, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    epsilon=st.sampled_from([1e-5, 1e-13]),
)
def test_trace_replays_bit_for_bit(name, scheme, bootstrap, stop_rule, mu, h, t, epsilon):
    p = REPLAY_PROBLEMS[name]
    a, b = p.domain
    x0 = min(b, a + t * (min(b, 10.0) - a))
    cfg = SolverConfig(scheme=scheme, mu=mu, h=h, epsilon=epsilon, bootstrap=bootstrap,
                       stop_rule=stop_rule)
    out = run(p, cfg, x0)
    xs = [x for x, _ in out.pairs]
    assert [fx for _, fx in out.pairs] == [p.f(x) for x in xs]
    for k in range(1, len(xs)):
        assert _kernel_next(p, cfg, xs[:k]) == xs[k]
    # The step that ended the run agrees too: a zero denominator, or a
    # candidate the driver rejected for the reason it gave.
    if out.reason == "denominator_underflow":
        with pytest.raises(DenominatorUnderflow):
            _kernel_next(p, cfg, xs)
    elif out.reason in ("domain_violation", "escape_bound_exceeded"):
        candidate = _kernel_next(p, cfg, xs)
        assert (a <= candidate <= b) == (out.reason == "escape_bound_exceeded")
        assert not (a <= candidate <= b and abs(candidate) <= ESCAPE_BOUND)


def test_trace_indices_are_consecutive(problems):
    out = run(problems["trig"], SolverConfig(scheme="secant_dyn", mu=2.65),
              problems["trig"].default_x0)
    assert [pt.n for pt in out.trace.points] == list(range(len(out.trace.points)))


@pytest.mark.parametrize("kappa", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("name", ["log", "exp", "trig"])
def test_rescaling_f_leaves_iterates_unchanged(problems, name, kappa):
    # The two-point update is invariant under f -> kappa f with the same mu:
    # numerator and denominator are both linear in f.  With the offset
    # bootstrap (also scale-free) and power-of-two kappa the whole trace is
    # bit-identical.
    p = problems[name]
    mu = {"log": 0.135, "exp": 1.18, "trig": 2.65}[name]
    scaled = ProblemSpec(name=p.name + "_scaled",
                         f=lambda x, _f=p.f: kappa * _f(x),
                         domain=p.domain, known_root=p.known_root,
                         default_x0=p.default_x0)
    cfg = SolverConfig(scheme="secant_dyn", mu=mu, bootstrap="offset_x0")
    base = run(p, cfg, p.default_x0)
    other = run(scaled, cfg, p.default_x0)
    assert [pt.x for pt in base.trace.points] == [pt.x for pt in other.trace.points]
    assert base.verdict == other.verdict
    assert base.iterations == other.iterations


def test_config_validation():
    with pytest.raises(ValueError, match=r"^unknown scheme 'banana'; expected one of \("):
        SolverConfig(scheme="banana")
    with pytest.raises(ValueError):
        SolverConfig(h=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(h=bad)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(mu=bad)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SolverConfig(epsilon=bad)
    for bad in (2.5, math.nan, math.inf, True, False, "5"):
        with pytest.raises(ValueError, match="max iters must be an integer"):
            SolverConfig(max_iters=bad)
    with pytest.raises(ValueError, match="max iters must be at least 1"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match=r"^unknown bootstrap 'nope'; expected one of \("):
        SolverConfig(bootstrap="nope")
    with pytest.raises(ValueError, match=r"^unknown stop_rule 'sometimes'; expected one of \("):
        SolverConfig(stop_rule="sometimes")
    # a bool, or a value that is not a numbers.Real, gets the field's own
    # message: a Decimal setting would end every run nonfinite
    for bad in (None, "1", True, 1j, 10 ** 400, Decimal("1")):
        with pytest.raises(ValueError, match="^mu must be finite$"):
            SolverConfig(mu=bad)
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            SolverConfig(h=bad)
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            SolverConfig(epsilon=bad)
    # scheme, bootstrap and stop_rule are checked first, in that order
    for kwargs, first in (({"scheme": "banana", "bootstrap": "nope"}, "scheme"),
                          ({"bootstrap": "nope", "stop_rule": "sometimes"}, "bootstrap"),
                          ({"stop_rule": "sometimes", "mu": None}, "stop_rule")):
        with pytest.raises(ValueError, match=f"^unknown {first} "):
            SolverConfig(**kwargs)
    # mpmath reals, as the oracle tests use, pass, and so do ints and Fractions
    cfg = SolverConfig(mu=mpmath.mpf("0.3"), h=mpmath.mpf(1), epsilon=mpmath.mpf("1e-50"))
    assert cfg.resolved() == (mpmath.mpf("0.3"), 1.0)
    cfg = SolverConfig(scheme="euler_flow", mu=1, h=Fraction(1, 2), epsilon=Fraction(1, 10**6))
    assert cfg.resolved() == (1, 0.5)
    # numpy's bool is refused as every setting; its reals and ints pass
    np = pytest.importorskip("numpy")
    for name in ("mu", "h", "epsilon", "max_iters"):
        with pytest.raises(ValueError, match="must be (finite|positive and finite|an integer)$"):
            SolverConfig(**{name: np.True_})
    cfg = SolverConfig(mu=np.float64(0.5), h=np.float32(1), max_iters=np.int64(5))
    assert run(builtin_problems()["log"], cfg, 5.0).iterations <= 5


# ---------------------------------------------------------------------------
# user problems that misbehave end in a verdict, not an exception

def test_run_complex_valued_f_diverges():
    # x ** 0.5 is complex for x < 0, and math.log raises TypeError on it
    for f in (lambda x: x ** 0.5, lambda x: math.log(x ** 0.5)):
        p = ProblemSpec(name="sqrt", f=f, domain=WIDE, default_x0=-4.0)
        for scheme in ("zheng", "secant_dyn"):
            out = run(p, SolverConfig(scheme=scheme, mu=0.5), -4.0)
            assert out.verdict == "divergence"
            assert out.reason == "nonfinite"


def test_run_raising_derivative_diverges():
    p = ProblemSpec(name="baddf", f=lambda x: x * x - 1.0, df=lambda x: 1.0 / (x - x),
                    domain=WIDE, default_x0=1.5)
    for scheme in ("newton", "euler_flow", "wu"):
        out = run(p, SolverConfig(scheme=scheme, mu=0.5), 1.5)
        assert out.verdict == "divergence"
        assert out.reason == "nonfinite"
        assert out.final_x == 1.5


class NestedNonFiniteValue(NonFiniteValue):
    """What an f built on another problem's eval_f raises where that one fails."""

    def __init__(self, _message):
        super().__init__(math.inf, "inner f")


# What a misbehaving evaluator does instead of answering: return a value that
# is not a finite real, or raise.
MISBEHAVIOURS = (math.nan, math.inf, -math.inf, 1j, 10 ** 400, ValueError,
                 ZeroDivisionError, OverflowError, FloatingPointError, NestedNonFiniteValue)


def misbehaving(g, salt):
    """g, except at about one point in eight, picked by a CRC of the point's
    bytes (not hash(), which is salted per process), where it misbehaves."""
    def fn(x):
        k = zlib.crc32(struct.pack("<d", x), salt) % (8 * len(MISBEHAVIOURS))
        if k >= len(MISBEHAVIOURS):
            return g(x)
        bad = MISBEHAVIOURS[k]
        if isinstance(bad, type):
            raise bad(f"misbehaving at {x!r}")
        return bad
    return fn


MISBEHAVING_CUBIC = ProblemSpec(
    name="badcubic", f=misbehaving(lambda x: x ** 3 - 2.0 * x - 5.0, 0),
    df=misbehaving(lambda x: 3.0 * x * x - 2.0, 1), domain=(-3.0, 3.0), default_x0=2.0)


@given(
    scheme=st.sampled_from(SCHEMES),
    bootstrap=st.sampled_from(BOOTSTRAPS),
    stop_rule=st.sampled_from(STOP_RULES),
    mu=st.floats(min_value=-1e3, max_value=1e3),
    x0=st.floats(min_value=-3.0, max_value=3.0),
)
def test_run_returns_whatever_the_evaluators_do(scheme, bootstrap, stop_rule, mu, x0):
    p = MISBEHAVING_CUBIC
    cfg = SolverConfig(scheme=scheme, mu=mu, bootstrap=bootstrap, stop_rule=stop_rule)
    out = run(p, cfg, x0)
    points = out.trace.points
    a, b = p.domain
    assert out.final_x == points[-1].x
    assert all(a <= pt.x <= b for pt in points)
    assert out.converged == (out.reason in CONVERGED_REASONS)


def _misbehaving_at(g, bad_x, bad):
    """g, except at exactly bad_x, where it misbehaves as ``bad``."""
    def fn(x):
        if x != bad_x:
            return g(x)
        if isinstance(bad, type):
            raise bad(f"misbehaving at {x!r}")
        return bad
    return fn


@pytest.mark.parametrize("bootstrap", BOOTSTRAPS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_decimal_valued_f_diverges(scheme, bootstrap):
    # Decimal(x) - 2 passes math.isfinite, but Decimal and float do not mix in
    # the update arithmetic, or in the zheng probe x + f(x)
    p = ProblemSpec(name="decimal", f=lambda x: Decimal(x) - 2, df=lambda x: 1.0,
                    domain=(0.0, 5.0), default_x0=3.0)
    out = run(p, SolverConfig(scheme=scheme, bootstrap=bootstrap, mu=0.5), 3.0)
    assert out.reason == "nonfinite"
    assert out.verdict == "divergence"


# Where run's loop evaluates: f at the candidate (every scheme), f at the
# zheng probe x + f(x) (zheng, and secant_dyn's zheng_first_step bootstrap),
# and f' at the current point (the flow rule).  Each site misbehaves once, on
# x^2 - 4 from 3, at a point the clean run reaches: (scheme, site, kept pairs).
GUARD_SITES = [
    *((scheme, "candidate", 2) for scheme in SCHEMES),
    ("zheng", "probe", 2),
    ("secant_dyn", "probe", 1),
    *((scheme, "df", 2) for scheme in ("newton", "euler_flow", "wu")),
]


def _misbehaviour_id(bad):
    return bad.__name__ if isinstance(bad, type) else "10**400" if bad == 10 ** 400 else repr(bad)


@pytest.mark.parametrize("bad", MISBEHAVIOURS, ids=_misbehaviour_id)
@pytest.mark.parametrize("scheme, site, kept", GUARD_SITES)
def test_run_guards_each_evaluation(sq4, scheme, site, kept, bad):
    cfg = SolverConfig(scheme=scheme, mu=0.5, h=0.5, epsilon=1e-12)
    clean = run(sq4, cfg, 3.0)
    assert len(clean.pairs) > kept
    x, fx = clean.pairs[kept - 1] if site != "candidate" else clean.pairs[kept]
    if site == "df":
        p = ProblemSpec(name="bad", f=sq4.f, df=_misbehaving_at(sq4.df, x, bad),
                        domain=sq4.domain, default_x0=3.0)
    else:
        bad_x = x + fx if site == "probe" else x
        p = ProblemSpec(name="bad", f=_misbehaving_at(sq4.f, bad_x, bad), df=sq4.df,
                        domain=sq4.domain, default_x0=3.0)
    out = run(p, cfg, 3.0)
    assert out.reason == "nonfinite"
    assert out.pairs == clean.pairs[:kept]


@pytest.mark.parametrize("bad", MISBEHAVIOURS, ids=_misbehaviour_id)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_guards_f_at_x0(sq4, scheme, bad):
    # The site before the loop: f misbehaves at x0 alone, and is asked once.
    calls = []
    bad_f = _misbehaving_at(sq4.f, 3.0, bad)
    p = ProblemSpec(name="bad", f=lambda x: calls.append(x) or bad_f(x), df=sq4.df,
                    domain=sq4.domain, default_x0=3.0)
    out = run(p, SolverConfig(scheme=scheme, mu=0.5, h=0.5), 3.0)
    assert (out.reason, out.iterations) == ("nonfinite", 0)
    assert len(out.pairs) == 1 and out.final_x == 3.0 and math.isnan(out.final_fx)
    assert calls == [3.0]


@pytest.mark.parametrize("df, domain, reason", [
    # From 2, newton's candidate is 2 + 1e200 / 1e-290 = inf: past the
    # escape bound and, on a bounded domain, past its edge, but it is not a
    # finite real first.
    (-1e-290, (-math.inf, math.inf), "nonfinite"),
    (-1e-290, (-1e15, 1e15), "nonfinite"),
    # Here it is 2 + 1e213: outside the domain is a domain exit first.
    (-1e-13, (-1e15, 1e15), "domain_violation"),
    (-1e-13, (-math.inf, math.inf), "escape_bound_exceeded"),
])
def test_run_names_the_first_failed_candidate_check(df, domain, reason):
    p = ProblemSpec(name="steep", f=lambda x: 1e200 * (x - 1.0), df=lambda x: df,
                    domain=domain, default_x0=2.0)
    out = run(p, SolverConfig(scheme="newton"), 2.0)
    assert out.reason == reason
    assert out.pairs == [(2.0, 1e200)]


# ---------------------------------------------------------------------------
# run's per-rule loops against the single loop they replaced

def _reference_run(p: ProblemSpec, cfg: SolverConfig, x0: float) -> RunOutcome:
    """run as a single loop that chooses its rule on every step, kept verbatim as the reference."""
    a, b = p.domain
    if not (a <= x0 <= b):
        raise DomainViolation(x0, p.domain, "x0")
    rule, mu, h = _SCHEME_TABLE[cfg.scheme]
    if rule is _FLOW and p.df is None:
        raise MissingDerivative(
            f"scheme {cfg.scheme!r} needs a derivative, problem {p.name!r} has none")
    # The hot loop calls nothing but f and f'.  One guard covers each step,
    # from f' or the probe to f(candidate): NONFINITE_ERRORS, raised by an
    # evaluator or the arithmetic on its values, ends the run nonfinite, as
    # isfinite's refusal does.  f(x0) passes the same guard.
    f, df, isfinite = p.f, p.df, math.isfinite
    try:
        fx = f(x0)
        finite = isfinite(fx)
    except NONFINITE_ERRORS:
        finite = False
    if not finite:  # f(x0) itself is not a finite real
        return RunOutcome(REASON_NONFINITE, 0, [(x0, math.nan)], p.known_root)
    mu, h = cfg.mu if mu is None else mu, cfg.h if h is None else h  # as cfg.resolved()
    flow, two_point = rule is _FLOW, rule is _SECANT
    offset_bootstrap = two_point and cfg.bootstrap == "offset_x0"
    stop_on_step = cfg.stop_rule != "residual"
    stop_on_residual = cfg.stop_rule != "step_size"
    epsilon, max_iters = cfg.epsilon, cfg.max_iters
    # One test admits a candidate: inside the domain and ESCAPE_BOUND.
    lo = -ESCAPE_BOUND if -ESCAPE_BOUND > a else a  # max(a, -ESCAPE_BOUND)
    hi = ESCAPE_BOUND if ESCAPE_BOUND < b else b  # min(b, ESCAPE_BOUND)

    x = x0
    points = [(x, fx)]
    append = points.append
    # Step 0 is a two-point scheme's bootstrap, outside the budget.
    for step in range(0 if two_point else 1, max_iters + 1):
        try:
            # Every rule steps to x - num / den, with the kernels' expressions
            # (the offset bootstrap with den = 1, which is exact).
            if flow:
                g = df(x)
                if not isfinite(g):
                    reason = REASON_NONFINITE
                    break
                num, den = h * fx, mu * fx + g
            elif two_point and step:
                dx = x - x_prev
                num, den = fx * dx, mu * dx * fx + fx - f_prev
            elif offset_bootstrap:
                num, den = math.copysign(1.0, fx) * epsilon * max(1.0, abs(x)), 1.0
            else:  # zheng, or its bootstrap step: probe f(x + f(x)), off-domain or not
                g = f(x + fx)
                if not isfinite(g):
                    reason = REASON_NONFINITE
                    break
                num, den = fx * fx, mu * fx * fx + (g - fx)
            if den == 0.0:
                # The step cannot be taken, but at an exact root (where the
                # difference quotients are 0/0) the run has converged.
                reason = (REASON_UNDERFLOW if fx != 0.0 else
                          REASON_STEP if stop_on_step else REASON_RESIDUAL)
                break
            candidate = x - num / den

            if not (lo <= candidate <= hi):
                reason = (REASON_NONFINITE if not isfinite(candidate) else
                          REASON_DOMAIN if not (a <= candidate <= b) else REASON_ESCAPE)
                break
            f_cand = f(candidate)
            if not isfinite(f_cand):
                reason = REASON_NONFINITE
                break
        except NONFINITE_ERRORS:
            reason = REASON_NONFINITE
            break
        append((candidate, f_cand))
        x_prev, f_prev = x, fx
        x, fx = candidate, f_cand

        # Step 0 is the bootstrap, not a step of the scheme: a tiny one is
        # no sign of a root, so only the residual test judges it.
        if step and stop_on_step and abs(x - x_prev) <= epsilon:
            reason = REASON_STEP
            break
        if stop_on_residual and abs(fx) <= epsilon:
            reason = REASON_RESIDUAL
            break
    else:
        reason = REASON_MAX_ITERS

    iterations = len(points) - 1 - (two_point and len(points) > 1)
    return RunOutcome(reason, iterations, points, p.known_root)


def _faulty(g, bad_x, bad):
    """g, except at exactly bad_x: a Decimal of g's value for "decimal", as in
    test_run_decimal_valued_f_diverges, else each of MISBEHAVIOURS."""
    if bad == "decimal":
        return lambda x: Decimal(g(x)) if x == bad_x else g(x)
    return _misbehaving_at(g, bad_x, bad)


@settings(max_examples=600)
@given(
    name=st.sampled_from(sorted(REPLAY_PROBLEMS)),
    scheme=st.sampled_from(SCHEMES),
    bootstrap=st.sampled_from(BOOTSTRAPS),
    stop_rule=st.sampled_from(STOP_RULES),
    max_iters=st.sampled_from([1, 2, 3, 4, 5, 500]),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    h=st.floats(min_value=0.05, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    epsilon=st.sampled_from([1e-5, 1e-13]),
    # None, or (site, bad, k): the evaluator misbehaves at the clean run's
    # k-th point: f there (f(x0) for k = 0, else f(candidate)), f' there, or
    # f at its probe x + f(x).
    faulty=st.none() | st.tuples(st.sampled_from(["f", "df", "probe"]),
                                 st.sampled_from((*MISBEHAVIOURS, "decimal")), st.integers(0, 6)),
)
# Runs that random draws seldom reach.  Under "either", a step that fires both
# stop tests at once reports the step: one such run per loop.  And the
# residual test ends a run at its bootstrap point, under each policy.
@example("trig", "newton", "offset_x0", "either", 500, 0.0, 0.5, 0.25, 1e-5, None)
@example("trig", "zheng", "offset_x0", "either", 500, 2.0, 1.5, 1.0, 1e-13, None)
@example("trig", "secant_dyn", "zheng_first_step", "either", 500, -0.5, 1.0, 0.25, 1e-5, None)
@example("trig", "secant", "offset_x0", "either", 500, 0.5, 1.0, 0.125, 1e-5, None)
@example("log", "secant_dyn", "zheng_first_step", "residual", 500, 0.0, 1.0, 0.1105, 1e-5, None)
@example("log", "secant_dyn", "offset_x0", "either", 500, 0.0, 1.0, 0.1111135533097436, 1e-5,
         None)
def test_run_equals_the_single_loop_reference(name, scheme, bootstrap, stop_rule, max_iters,
                                              mu, h, t, epsilon, faulty):
    p = REPLAY_PROBLEMS[name]
    a, b = p.domain
    x0 = min(b, a + t * (min(b, 10.0) - a))
    cfg = SolverConfig(scheme=scheme, mu=mu, h=h, epsilon=epsilon, max_iters=max_iters,
                       bootstrap=bootstrap, stop_rule=stop_rule)
    if faulty is not None:
        site, bad, k = faulty
        clean = _reference_run(p, cfg, x0)
        x, fx = clean.pairs[min(k, len(clean.pairs) - 1)]
        f, df = p.f, p.df
        if site == "df":
            df = _faulty(df, x, bad)
        else:
            f = _faulty(f, x + fx if site == "probe" else x, bad)
        p = ProblemSpec(name="faulty", f=f, df=df, domain=p.domain, default_x0=x0)
    ref, out = _reference_run(p, cfg, x0), run(p, cfg, x0)
    assert type(out) is RunOutcome
    assert (out.reason, out.iterations, repr(out.pairs)) == (
        ref.reason, ref.iterations, repr(ref.pairs))


def _cubic(k):
    """x^3 - 2x - 5 and its derivative times 2^k (exact short of over- or underflow)."""
    s = math.ldexp(1.0, k)
    return ProblemSpec(name="cubic", f=lambda x: s * (x ** 3 - 2.0 * x - 5.0),
                       df=lambda x: s * (3.0 * x * x - 2.0), domain=WIDE, default_x0=2.0)


# Every update rule here is a quotient whose numerator and denominator are
# both linear in f (and f'), so scaling them by 2^k changes no rounding, and
# the step-size test never reads f.  zheng and the zheng_first_step bootstrap
# are left out: their probe point x + f(x) moves with the scale.
@given(
    scheme=st.sampled_from(["newton", "euler_flow", "wu", "secant", "secant_dyn"]),
    x0=st.floats(min_value=-10.0, max_value=10.0),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    h=st.floats(min_value=0.01, max_value=2.0),
    epsilon=st.floats(min_value=1e-12, max_value=1e-3),
    k=st.integers(min_value=-30, max_value=30),
)
def test_run_is_invariant_under_power_of_two_scaling(scheme, x0, mu, h, epsilon, k):
    cfg = SolverConfig(scheme=scheme, mu=mu, h=h, epsilon=epsilon,
                       bootstrap="offset_x0", stop_rule="step_size")
    plain, scaled = run(_cubic(0), cfg, x0), run(_cubic(k), cfg, x0)
    assert [x.hex() for x, _ in scaled.pairs] == [x.hex() for x, _ in plain.pairs]
    assert (scaled.reason, scaled.iterations) == (plain.reason, plain.iterations)


# ---------------------------------------------------------------------------
# the trace is built on first read and agrees with the final point

def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_lazy_trace(out):
    trace = out.trace
    assert out.final_x == trace.points[-1].x
    assert _same_float(out.final_fx, trace.points[-1].fx)


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("bootstrap", BOOTSTRAPS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_lazy_trace_contract(problems, scheme, bootstrap, stop_rule):
    for p in problems.values():
        a, b = p.domain
        for x0 in (p.default_x0, a, b, a + 0.3 * (b - a)):
            cfg = SolverConfig(scheme=scheme, mu=0.7, bootstrap=bootstrap, stop_rule=stop_rule)
            out = run(p, cfg, x0)
            _check_lazy_trace(out)
            # equality does not depend on whether the trace was read
            fresh = run(p, cfg, x0)
            assert fresh == out
            assert out == run(p, cfg, x0)
            assert hash(fresh) == hash(out)


def test_lazy_trace_contract_on_nonfinite_start():
    p = ProblemSpec(name="blows", f=lambda x: math.exp(x), domain=(-1e6, 1e6),
                    default_x0=1000.0)
    out = run(p, SolverConfig(scheme="secant_dyn"), 1000.0)
    assert out.reason == "nonfinite"
    assert math.isnan(out.final_fx)
    _check_lazy_trace(out)
    assert run(p, SolverConfig(scheme="secant_dyn"), 1000.0) == out


@pytest.mark.parametrize("case", ["converged", "diverged", "nonfinite"])
def test_trace_reads_equal_the_eager_construction(problems, case):
    # f(1000) overflows, so that run ends nonfinite at x0 with a known root
    blows = ProblemSpec(name="blows", f=math.expm1, domain=(-1e6, 1e6),
                        known_root=0.0, default_x0=1000.0)
    p, cfg, x0, reason = {
        "converged": (problems["log"], SolverConfig(scheme="secant_dyn", mu=0.135), 5.0,
                      "step_below_epsilon"),
        "diverged": (problems["log"], SolverConfig(scheme="newton"), 5.0, "domain_violation"),
        "nonfinite": (blows, SolverConfig(scheme="secant_dyn"), 1000.0, "nonfinite"),
    }[case]
    out = run(p, cfg, x0)
    assert out.reason == reason
    # what the trace stored and computed when it built its points eagerly
    eager = tuple(TracePoint(i, x, fx) for i, (x, fx) in enumerate(out.pairs))
    trace = out.trace
    # bit for bit: repr round-trips every float, NaN included
    assert all(type(pt) is TracePoint for pt in trace.points)
    assert [tuple(map(repr, pt)) for pt in trace.points] == [tuple(map(repr, pt)) for pt in eager]


def test_from_points_copies_its_input():
    # a classmethod in the class's own namespace, where it can be patched
    assert isinstance(IterationTrace.__dict__["from_points"], classmethod)
    pairs = [(2.0, 3.0), (1.5, 1.25)]
    trace = IterationTrace.from_points(pairs, known_root=1.0)
    pairs.append((1.0, 0.0))
    pairs[0] = (9.0, 80.0)
    assert trace.pairs == ((2.0, 3.0), (1.5, 1.25))
    assert trace.points == ((0, 2.0, 3.0), (1, 1.5, 1.25))


# ---------------------------------------------------------------------------
# result types are immutable named tuples; the validated inputs stay dataclasses

def _converged(problems):
    return run(problems["log"], SolverConfig(scheme="secant_dyn", mu=0.135, epsilon=1e-13), 5.0)


def _results(problems):
    """Each result type's fields, and a factory that computes one afresh."""
    log = problems["log"]
    converged = lambda: _converged(problems)
    # f(1000) overflows, so that run ends nonfinite at x0
    blows = ProblemSpec(name="blows", f=math.expm1, domain=(-1e6, 1e6),
                        known_root=0.0, default_x0=1000.0)
    outcome_fields = ("reason", "iterations", "pairs", "known_root")
    row_fields = ("problem", "scheme", "mu", "h", "x0", "verdict", "reason", "iterations",
                  "final_x", "residual")
    return [
        (RunOutcome, outcome_fields, converged),
        (RunOutcome, outcome_fields, lambda: run(blows, SolverConfig(scheme="secant_dyn"), 1000.0)),
        # the bootstrap's zheng step leaves log's domain
        (RunOutcome, outcome_fields,
         lambda: run(log, SolverConfig(scheme="secant_dyn", mu=0.1), 3.0)),
        (BenchmarkRow, row_fields, lambda: run_benchmark()[0]),
        (BenchmarkRow, row_fields,
         lambda: map_basin(log, "secant_dyn", [0.135], [5.0]).cells[0][0]),
        (IterationTrace, ("pairs", "known_root"), lambda: converged().trace),
        (OrderEstimate, ("orders", "constant_estimates"),
         lambda: estimate_order(converged().trace)),
        (ConvergenceReport, ("problem", "mu", "outcome", "estimate", "predicted"),
         lambda: verify_quadratic_convergence(log, 0.135, 5.0)),
        (BasinGrid, ("mu_axis", "x0_axis", "cells"),
         lambda: map_basin(log, "secant_dyn", [0.135, 1.0], [2.0, 5.0])),
    ]


def test_result_types_are_immutable_and_hash_by_value(problems):
    for cls, fields, make in _results(problems):
        a, b = make(), make()
        assert type(a) is cls and cls._fields == fields
        assert a == b and hash(a) == hash(b)
        assert cls(*a) == cls(**{name: getattr(a, name) for name in fields}) == a
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
    # so RunOutcome's hash above cannot have been a plain tuple hash
    assert type(_converged(problems).pairs) is list


def test_run_outcome_repr_leaves_out_the_pairs(problems):
    out = _converged(problems)
    assert repr(out) == ("RunOutcome(reason='step_below_epsilon', "
                         f"iterations={out.iterations}, known_root=1.0)")


def test_inputs_stay_validated_frozen_dataclasses(problems):
    cfg = SolverConfig()
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "scheme", "mu", "h", "epsilon", "max_iters", "bootstrap", "stop_rule"]
    assert dataclasses.replace(cfg, mu=0.5) == SolverConfig(mu=0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, h=0.0)
    p = problems["log"]
    assert [f.name for f in dataclasses.fields(ProblemSpec)] == [
        "name", "f", "domain", "default_x0", "df", "known_root"]
    assert dataclasses.replace(p, default_x0=2.0).default_x0 == 2.0
    with pytest.raises(DomainViolation):
        dataclasses.replace(p, default_x0=9.0)
    for obj, name in ((cfg, "mu"), (p, "name")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
