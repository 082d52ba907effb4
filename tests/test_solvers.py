import math
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from rootflow import (
    BOOTSTRAPS,
    SCHEMES,
    STOP_RULES,
    DenominatorUnderflow,
    DomainViolation,
    MissingDerivative,
    ProblemSpec,
    SolverConfig,
    builtin_problems,
    euler_flow_step,
    eval_f,
    newton_step,
    run,
    secant_dyn_step,
    secant_step,
    wu_step,
    zheng_step,
)
from rootflow.solvers import CONVERGED_REASONS, ESCAPE_BOUND

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
    with pytest.raises(DenominatorUnderflow):
        secant_dyn_step(sq, 1.5, 1.5, 0.7)


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
    with pytest.raises(DenominatorUnderflow):
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
    # errors track the known root exactly
    assert out.trace.errors[0] == 5.0 - 1.0
    assert len(out.trace.errors) == len(out.trace.points)


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
    assert out.verdict == "diverged"
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
    assert out.verdict == "diverged"
    out = run(problems["trig"], SolverConfig(scheme="zheng", mu=0.5 + math.sqrt(3.0) / 6.0),
              11.0 * math.pi / 24.0)
    assert out.verdict == "diverged"
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
    assert out.verdict == "diverged"
    assert out.reason == "escape_bound_exceeded"
    assert out.iterations == 39
    assert abs(out.final_x) <= ESCAPE_BOUND < 2.0 * abs(out.final_x)


def test_run_nonfinite_candidate_diverges():
    # f(2) / f'(2) = 1e200 / 1e-290 overflows, so the first candidate is -inf
    p = ProblemSpec(name="steep", f=lambda x: 1e200 * (x - 1.0), df=lambda x: 1e-290,
                    domain=WIDE, default_x0=2.0)
    out = run(p, SolverConfig(scheme="newton"), 2.0)
    assert out.verdict == "diverged"
    assert out.reason == "nonfinite"
    assert out.iterations == 0
    assert out.final_x == 2.0


@pytest.mark.parametrize("bootstrap, mu, epsilon, stop_rule, reason", [
    # The bootstrap step 1/mu vanishes against x0: a computed update that
    # does not move is what a step rule calls convergence.  The residual
    # rule (|ln 5| > epsilon) goes on to a degenerate denominator.
    ("zheng_first_step", 1e20, 1e-5, "either", "step_below_epsilon"),
    ("zheng_first_step", 1e20, 1e-5, "residual", "denominator_underflow"),
    ("zheng_first_step", 1e20, 1e-5, "step_size", "step_below_epsilon"),
    # The offset step vanishes against x0, and no update is ever computed:
    # the secant denominator of the coincident pair is exactly 0, and
    # |ln 5| = 1.61 is no root.
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


def test_run_flat_derivative_diverges():
    # f' vanishes at the start; the Newton correction is undefined
    p = ProblemSpec(name="flat", f=lambda x: x * x + 1.0, df=lambda x: 2.0 * x,
                    domain=WIDE, default_x0=0.0)
    out = run(p, SolverConfig(scheme="newton"), 0.0)
    assert out.verdict == "diverged"
    assert out.reason == "denominator_underflow"


def test_verdict_reason_coupling(problems):
    # converged outcomes carry exactly the smallness reasons
    for scheme, mu in (("newton", 0.0), ("zheng", 1.0), ("secant_dyn", 0.135)):
        out = run(problems["log"], SolverConfig(scheme=scheme, mu=mu), 5.0)
        if out.verdict == "converged":
            assert out.reason in ("step_below_epsilon", "residual_below_epsilon")
        else:
            assert out.reason not in ("step_below_epsilon", "residual_below_epsilon")


def test_run_nonfinite_at_start():
    p = ProblemSpec(name="blows", f=lambda x: math.exp(x), df=math.exp,
                    domain=(-1e6, 1e6), default_x0=1000.0)
    out = run(p, SolverConfig(scheme="newton"), 1000.0)
    assert out.verdict == "diverged"
    assert out.reason == "nonfinite"
    assert out.iterations == 0


def test_run_is_deterministic(problems):
    cfg = SolverConfig(scheme="secant_dyn", mu=1.18)
    a = run(problems["exp"], cfg, 50.0)
    b = run(problems["exp"], cfg, 50.0)
    assert a == b


def test_trace_replays_bit_for_bit(problems, sq):
    # one-point scheme
    out = run(problems["log"], SolverConfig(scheme="zheng", mu=1.0), 5.0)
    pts = out.trace.points
    for k in range(len(pts) - 1):
        assert zheng_step(problems["log"], pts[k].x, 1.0) == pts[k + 1].x
    # two-point scheme: first point comes from the bootstrap, the rest from
    # the secant recurrence
    out = run(sq, SolverConfig(scheme="secant_dyn", mu=0.4, epsilon=1e-12), 1.5)
    pts = out.trace.points
    assert zheng_step(sq, pts[0].x, 0.4) == pts[1].x
    for k in range(1, len(pts) - 1):
        assert secant_dyn_step(sq, pts[k - 1].x, pts[k].x, 0.4) == pts[k + 1].x


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
    with pytest.raises(ValueError):
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
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="max iters must be an integer"):
            SolverConfig(max_iters=bad)
    with pytest.raises(ValueError, match="max iters must be at least 1"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(bootstrap="nope")
    with pytest.raises(ValueError):
        SolverConfig(stop_rule="sometimes")


# ---------------------------------------------------------------------------
# user problems that misbehave end in a verdict, not an exception

def test_run_complex_valued_f_diverges():
    # x ** 0.5 is complex for x < 0
    p = ProblemSpec(name="sqrt", f=lambda x: x ** 0.5, domain=WIDE, default_x0=-4.0)
    for scheme in ("zheng", "secant_dyn"):
        out = run(p, SolverConfig(scheme=scheme, mu=0.5), -4.0)
        assert out.verdict == "diverged"
        assert out.reason == "nonfinite"


def test_run_raising_derivative_diverges():
    p = ProblemSpec(name="baddf", f=lambda x: x * x - 1.0, df=lambda x: 1.0 / (x - x),
                    domain=WIDE, default_x0=1.5)
    for scheme in ("newton", "euler_flow", "wu"):
        out = run(p, SolverConfig(scheme=scheme, mu=0.5), 1.5)
        assert out.verdict == "diverged"
        assert out.reason == "nonfinite"
        assert out.final_x == 1.5


# What a misbehaving evaluator does instead of answering: return a value that
# is not a finite real, or raise.
MISBEHAVIOURS = (math.nan, math.inf, -math.inf, 1j, 10 ** 400,
                 ValueError, ZeroDivisionError, OverflowError)


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
    if trace.errors is not None:
        assert len(trace.errors) == len(trace.points)


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
            assert out.trace.errors is not None
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
    assert out.trace.errors is None
    assert run(p, SolverConfig(scheme="secant_dyn"), 1000.0) == out
