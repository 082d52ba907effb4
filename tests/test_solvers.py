import copy
import dataclasses
import math
import pickle
import random
import re
import reprlib
import struct
import zlib
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

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
from rootflow.problems import NONFINITE_ERRORS
from rootflow.solvers import (
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
# run reads cfg.bootstrap only in its two-point loop, so a one-point scheme runs under the
# default bootstrap alone; test_lazy_trace_contract pins that the other runs the same.
SCHEME_BOOTSTRAPS = [(scheme, bootstrap) for scheme in SCHEMES for bootstrap in BOOTSTRAPS
                     if _SCHEME_TABLE[scheme][0] is _SECANT or bootstrap == "zheng_first_step"]
NODERIV = ProblemSpec(name="noderiv", f=lambda x: x * x - 1.0, domain=WIDE, default_x0=1.5)


# ---------------------------------------------------------------------------
# one-step kernels

@pytest.fixture(scope="session")
def named(problems, sq, sq4, linear, expm1p):
    """The problems that the kernel tables name."""
    return {**problems, "sq": sq, "sq4": sq4, "linear": linear, "expm1p": expm1p,
            "noderiv": NODERIV}


def _call_id(kernel, name, args):
    return "-".join((kernel.__name__, name,
                     *(a.scheme if isinstance(a, SolverConfig) else repr(a) for a in args)))


# (kernel, problem, the arguments after the problem, the point it returns), bit for bit.
KERNEL_VALUES = [
    (newton_step, "sq4", (3.0,), 13.0 / 6.0),
    (newton_step, "linear", (7.0,), 0.0),
    # hand evaluation: 5 - 5 ln 5, outside log's domain, where
    # test_problems' PROBLEM_REFUSALS row eval_f-log-outside refuses f
    (newton_step, "log", (5.0,), -3.0471895621705016),
    (euler_flow_step, "linear", (4.0, 0.0, 1.0), 0.0),
    (euler_flow_step, "linear", (4.0, 0.0, 0.5), 2.0),
    # 5 - ln 5 / (0.135 ln 5 + 0.2), checked against a separate calculator
    (euler_flow_step, "log", (5.0, 0.135, 1.0), 1.1429721079771804),
    # 0.1 - (e^0.1 - 1)/((e^0.1 - 1) + e^0.1)
    (wu_step, "expm1p", (0.1, 1.0), 0.01310643412106173),
    (zheng_step, "linear", (4.0, 0.0), 0.0),
    # from x = 5 the probe sits at 5 + ln 5, past the interval edge, and the step must still
    # evaluate
    (zheng_step, "log", (5.0, 1.0), 4.097255683445856),
    (secant_dyn_step, "linear", (1.0, 2.0, 0.0), 0.0),
    # hand evaluation on x^2 - 1 from the pair (2, 1.5)
    (secant_dyn_step, "sq", (2.0, 1.5, 0.0), 8.0 / 7.0),
    (secant_step, "sq4", (3.0, 2.5), 23.0 / 11.0),
    # x = 2 is an exact binary root of x^2 - 4; every kernel with a nonzero denominator must
    # return it unchanged
    *((kernel, "sq4", args, 2.0) for kernel, args in (
        (newton_step, (2.0,)), (euler_flow_step, (2.0, 0.7, 0.25)), (wu_step, (2.0, 0.7)),
        (secant_dyn_step, (3.0, 2.0, 0.5)), (secant_step, (3.0, 2.0)))),
]


@pytest.mark.parametrize("kernel, name, args, point", KERNEL_VALUES,
                         ids=[_call_id(*row[:3]) for row in KERNEL_VALUES])
def test_kernel_values(named, kernel, name, args, point):
    assert kernel(named[name], *args) == point


# (kernel, problem, the arguments after the problem, what it raises, the whole message): a
# denominator of exactly 0 is DenominatorUnderflow, one that is not a finite real NonFiniteValue.
# run refuses an x0 outside the domain and a derivative scheme without f'; any other failure of
# a run is its verdict.
KERNEL_REFUSALS = [
    # a pair that coincides makes the secant denominator exactly 0
    (secant_dyn_step, "sq", (1.5, 1.5, 0.7), DenominatorUnderflow,
     "mu*(x - x_prev)*f + f - f(x_prev) is 0 at x = 1.5"),
    # f'(0) = 0, so with mu = 0 the flow denominator mu*f + f' is exactly 0
    (euler_flow_step, "sq4", (0.0, 0.0, 1.0), DenominatorUnderflow, "mu*f + f' is 0 at x = 0.0"),
    # the one-point difference quotient degenerates at an exact root: its denominator is exactly
    # zero there
    (zheng_step, "sq4", (2.0, 0.5), DenominatorUnderflow, "mu*f^2 + f(x+f) - f is 0 at x = 2.0"),
    # x^2 - 1 at 200: f = 39999, and mu f^2, mu f or mu dx f overflows.  x - num/inf would return
    # x, a step of exactly 0.
    (zheng_step, "sq", (200.0, 1e300), NonFiniteValue,
     "(mu*f^2 + f(x+f) - f)(200.0) is not a finite real"),
    (wu_step, "sq", (200.0, 1e306), NonFiniteValue, "(mu*f + f')(200.0) is not a finite real"),
    (euler_flow_step, "sq", (200.0, 1e306, 0.5), NonFiniteValue,
     "(mu*f + f')(200.0) is not a finite real"),
    (secant_dyn_step, "sq", (200.0, 199.998, 1e307), NonFiniteValue,
     "(mu*(x - x_prev)*f + f - f(x_prev))(199.998) is not a finite real"),
    (run, "log", (SolverConfig(scheme="newton"), 7.0), DomainViolation,
     "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    (run, "noderiv", (SolverConfig(scheme="newton"), 1.5), MissingDerivative,
     "scheme 'newton' needs a derivative, problem 'noderiv' has none"),
]


@pytest.mark.parametrize("kernel, name, args, error, message", KERNEL_REFUSALS,
                         ids=[_call_id(*row[:3]) for row in KERNEL_REFUSALS])
def test_kernel_refusals(named, kernel, name, args, error, message):
    with pytest.raises(error) as raised:
        kernel(named[name], *args)
    assert type(raised.value) is error
    assert str(raised.value) == message


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


# ---------------------------------------------------------------------------
# driver

# The reason each stop rule gives for a run that ends at an exact root.
ROOT_REASONS = {"step_size": {"step_below_epsilon"}, "residual": {"residual_below_epsilon"},
                "either": {"step_below_epsilon", "residual_below_epsilon"}}


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("scheme, bootstrap", SCHEME_BOOTSTRAPS)
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


# On x^2 - 1 from 200, where f = 39999, each denominator overflows: mu f^2 for zheng and for the
# zheng_first_step bootstrap, mu f for the flow rule, and mu dx f for the two-point step from the
# offset bootstrap's 199.998.  The step would be exactly 0: (scheme, mu, bootstrap, pairs kept).
OVERFLOWS = [("zheng", 1e300, "zheng_first_step", 1), ("wu", 1e306, "zheng_first_step", 1),
             ("euler_flow", 1e306, "zheng_first_step", 1), ("secant_dyn", 1e307, "offset_x0", 2),
             ("secant_dyn", 1e300, "zheng_first_step", 1)]


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("scheme, mu, bootstrap, kept", OVERFLOWS)
def test_run_overflowed_denominator_is_nonfinite(sq, scheme, mu, bootstrap, kept, stop_rule):
    calls = []
    p = dataclasses.replace(sq, f=lambda x: calls.append(x) or sq.f(x))
    calls.clear()  # construction checks f at the known root
    cfg = SolverConfig(scheme=scheme, mu=mu, bootstrap=bootstrap, stop_rule=stop_rule)
    out = run(p, cfg, 200.0)
    assert (out.reason, out.iterations) == ("nonfinite", 0)
    assert out.pairs == [(200.0, 39999.0), (199.998, sq.f(199.998))][:kept]
    xs = [x for x, _ in out.pairs]
    # f is asked once at each kept point, besides zheng's probe 200 + 39999, and never at the
    # candidate x - num/inf, which would be the last point again.
    assert [x for x in calls if x != 40199.0] == xs
    # The public kernel refuses the same step, naming its denominator.
    with pytest.raises(NonFiniteValue,
                       match=rf"^\(mu\*.*\)\({re.escape(repr(xs[-1]))}\) is not a finite real$"):
        _kernel_next(sq, cfg, xs)


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
        [[row]] = map_basin(p, cfg.scheme, [cfg.mu], [x0], cfg).cells
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


# run's loops repeat the kernels' arithmetic inline.  _kernel_run, below, takes every step with
# the public kernels instead, and run must equal it bit for bit.
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


# Values that are not a numbers.Real, or are a bool.  Each number field refuses them with its own
# message: a Decimal setting would end every run nonfinite.
NOT_REALS = [None, "1", True, 1j, 10 ** 400, Decimal("1")]
# field -> (its bad values, the whole message each gives)
CONFIG_REFUSALS = {
    "scheme": (["banana"], "unknown scheme 'banana'; expected one of ('newton', 'euler_flow', "
                           "'wu', 'zheng', 'secant_dyn', 'secant')"),
    "bootstrap": (["nope"], "unknown bootstrap 'nope'; expected one of ('zheng_first_step', "
                            "'offset_x0')"),
    "stop_rule": (["sometimes"], "unknown stop_rule 'sometimes'; expected one of ('step_size', "
                                 "'residual', 'either')"),
    "mu": ([math.inf, -math.inf, math.nan, *NOT_REALS], "mu must be finite"),
    "h": ([0.0, math.inf, math.nan, *NOT_REALS], "h must be positive and finite"),
    "epsilon": ([-1.0, math.inf, math.nan, *NOT_REALS], "epsilon must be positive and finite"),
    "max_iters": ([2.5, math.nan, math.inf, True, False, "5"], "max iters must be an integer"),
    # a bool and nothing else, not even a truthy or falsy value
    "trace": ([None, 0, 1, 1.0, "yes", "False"], "trace must be a bool"),
}


@pytest.mark.parametrize("fields, message", [
    *(pytest.param({field: bad}, message, id=f"{field}={reprlib.repr(bad)}")
      for field, (values, message) in CONFIG_REFUSALS.items() for bad in values),
    pytest.param({"max_iters": 0}, "max iters must be at least 1", id="max_iters=0"),
    # scheme, bootstrap and stop_rule are checked first, in that order
    *(pytest.param(fields, CONFIG_REFUSALS[first][1], id=f"{first}-first")
      for fields, first in (({"scheme": "banana", "bootstrap": "nope"}, "scheme"),
                            ({"bootstrap": "nope", "stop_rule": "sometimes"}, "bootstrap"),
                            ({"stop_rule": "sometimes", "mu": None}, "stop_rule"))),
])
def test_config_refusals(fields, message):
    with pytest.raises(ValueError) as raised:
        SolverConfig(**fields)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_config_validation():
    assert SolverConfig().trace is True and SolverConfig(trace=False).trace is False
    # mpmath reals, as the oracle tests use, pass, and so do ints and Fractions
    cfg = SolverConfig(mu=mpmath.mpf("0.3"), h=mpmath.mpf(1), epsilon=mpmath.mpf("1e-50"))
    assert cfg.resolved() == (mpmath.mpf("0.3"), 1.0)
    cfg = SolverConfig(scheme="euler_flow", mu=1, h=Fraction(1, 2), epsilon=Fraction(1, 10**6))
    assert cfg.resolved() == (1, 0.5)
    # every field refuses numpy's bool with its CONFIG_REFUSALS message; numpy numbers pass
    np = pytest.importorskip("numpy")
    for name in ("mu", "h", "epsilon", "max_iters", "trace"):
        with pytest.raises(ValueError) as raised:
            SolverConfig(**{name: np.True_})
        assert (type(raised.value), str(raised.value)) == (ValueError, CONFIG_REFUSALS[name][1])
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


@pytest.mark.parametrize("scheme, bootstrap", SCHEME_BOOTSTRAPS)
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


# ---------------------------------------------------------------------------
# run against a reference that takes every step with the public kernels

def _kernel_run(p: ProblemSpec, cfg: SolverConfig, x0: float) -> tuple[RunOutcome, bool]:
    """run's outcome with every step taken by the public kernels, and whether the run ended on
    _step's refusal of a denominator that is not finite.

    A kernel raises where run breaks off a step before its candidate: DenominatorUnderflow for a
    denominator of 0, which at an exact root is the stop rule's convergence, and NONFINITE_ERRORS
    for an evaluation that fails or a denominator that is not finite.  Then come run's own checks
    of the candidate, in run's order.
    """
    two_point = _SCHEME_TABLE[cfg.scheme][0] is _SECANT
    stop_on_step, stop_on_residual = cfg.stop_rule != "residual", cfg.stop_rule != "step_size"
    a, b = p.domain
    try:
        xs, pairs = [x0], [(x0, eval_f(p, x0))]
    except NONFINITE_ERRORS:
        return RunOutcome(REASON_NONFINITE, 0, [(x0, math.nan)], p.known_root), False
    reason, refused = REASON_MAX_ITERS, False
    # Step 0 is a two-point scheme's bootstrap, outside the budget and the step test.
    for step in range(0 if two_point else 1, cfg.max_iters + 1):
        x, fx = pairs[-1]
        try:
            candidate = _kernel_next(p, cfg, xs)
        except DenominatorUnderflow:
            reason = (REASON_UNDERFLOW if fx != 0.0 else
                      REASON_STEP if stop_on_step else REASON_RESIDUAL)
            break
        except NONFINITE_ERRORS as exc:
            # _step's NonFiniteValue names the denominator, as in (mu*f + f')(2.0); an
            # evaluator's names f or f'.
            reason, refused = REASON_NONFINITE, str(exc).startswith("(")
            break
        if not (a <= candidate <= b and abs(candidate) <= ESCAPE_BOUND):
            reason = (REASON_NONFINITE if not math.isfinite(candidate) else
                      REASON_DOMAIN if not (a <= candidate <= b) else REASON_ESCAPE)
            break
        try:
            f_cand = eval_f(p, candidate)
        except NONFINITE_ERRORS:
            reason = REASON_NONFINITE
            break
        xs.append(candidate)
        pairs.append((candidate, f_cand))
        if stop_on_step and step and abs(candidate - x) <= cfg.epsilon:
            reason = REASON_STEP
            break
        if stop_on_residual and abs(f_cand) <= cfg.epsilon:
            reason = REASON_RESIDUAL
            break
    iterations = len(pairs) - 1 - (two_point and len(pairs) > 1)
    return RunOutcome(reason, iterations, pairs, p.known_root), refused


def _faulty(g, bad_x, bad):
    """g, except at exactly bad_x: a Decimal of g's value for "decimal", as in
    test_run_decimal_valued_f_diverges, else each of MISBEHAVIOURS."""
    if bad == "decimal":
        return lambda x: Decimal(g(x)) if x == bad_x else g(x)
    return _misbehaving_at(g, bad_x, bad)


# ---------------------------------------------------------------------------
# draws that reach every exit of run's two loops

# Draws with mu in [-10, 10] and x0 anywhere up to 10 seldom converge, and never fire both stop
# tests on one step or end a two-point run in its bootstrap step.  So _exit_case draws four kinds,
# with these problems:
# - "far": mu in [-10, 10], x0 anywhere up to 10, and budgets of 1 to 5, 60 or 500 steps;
# - "near": x0 a few steps from the root, or on it, and mu near the curated BENCH_MU values or
#   where a one-point rule's error constant cancels.  Half of those runs take the epsilon at
#   which one of their steps fires both stop tests;
# - "huge": |mu| in [1e250, 1e308] on the cubic, where |f| reaches 1e36 inside ESCAPE_BOUND, so
#   that a denominator can overflow;
# - "tail": starts from which a run walks away: exp's flat tail, where zheng's probe x + f(x)
#   rounds to x, and atan beyond |x| = 1.39, where each Newton step lands farther out.
EXIT_PROBLEMS = {
    **builtin_problems(),
    "cubic": ProblemSpec(name="cubic", f=lambda x: x ** 3 - 2.0 * x - 5.0,
                         df=lambda x: 3.0 * x * x - 2.0, domain=(-1e15, 1e15), default_x0=2.0),
    "atan": ProblemSpec(name="atan", f=math.atan, df=lambda x: 1.0 / (1.0 + x * x),
                        domain=(-1e15, 1e15), known_root=0.0, default_x0=0.5),
}


def _near(root, c, big_f, *bench_mu):
    """The root, and the mu a near draw centres on, with c = f''/(2f') and F = f' at the root:
    the two-point scheme's BENCH_MU value, -c, which cancels the flow rule's constant c + mu,
    and -c(1+F), which cancels zheng's c(1+F) + mu (BENCH_MU's zheng values on the built-in
    problems)."""
    return root, (*bench_mu, -c, -c * (1.0 + big_f))


CUBIC_ROOT = 2.0945514815423265
NEAR = {
    "atan": _near(0.0, 0.0, 1.0),
    "log": _near(1.0, -0.5, 1.0, 0.135),
    "exp": _near(1.0, -1.0, 1.0 / math.e, 1.18),
    "trig": _near(math.pi / 6.0, -math.sqrt(3.0) / 6.0, math.sqrt(3.0), 2.65),
    "cubic": _near(CUBIC_ROOT, 3.0 * CUBIC_ROOT / (3.0 * CUBIC_ROOT ** 2 - 2.0),
                   3.0 * CUBIC_ROOT ** 2 - 2.0),
}


def _exit_case(r):
    """(problem, config, x0) drawn through the random.Random ``r``: a far, near-root, huge-mu or
    tail draw, and a third of them with an evaluator that is faulty at one of the first 7 points
    of the clean run."""
    kind = r.choice(("far", "near", "near", "near", "huge", "tail"))
    name = (r.choice(sorted(EXIT_PROBLEMS)) if kind in ("far", "near") else
            "cubic" if kind == "huge" else r.choice(("exp", "atan")))
    p = EXIT_PROBLEMS[name]
    a, b = p.domain
    if kind == "far":
        x0 = min(b, a + r.random() * (min(b, 10.0) - a))
        mu = r.uniform(-10.0, 10.0)
    elif kind == "huge":
        x0 = r.choice((-1, 1)) * 10.0 ** r.uniform(6.0, 12.0)
        mu = r.choice((-1, 1)) * 10.0 ** r.uniform(250.0, 308.0)
    else:
        root, centres = NEAR[name]
        mu = r.choice((0.0, *centres)) + r.choice((0.0, r.uniform(-0.25, 0.25)))
        if kind == "near":
            d = r.choice((0.0, -1.0, 1.0, -1.0, 1.0)) * 2.0 ** r.uniform(-55.0, 2.0)
            x0 = min(b, max(a, root + d))
        else:
            x0 = (r.uniform(30.0, 50.0) if name == "exp" else
                  r.choice((-1, 1)) * r.uniform(1.4, 8.0))
    budgets = (1, 2, 3, 4, 5, 60, 500) if kind == "far" else (1, 2, 3, 60, 60, 60)
    cfg = SolverConfig(scheme=r.choice(SCHEMES), mu=mu, h=r.uniform(0.05, 2.0),
                       epsilon=r.choice((1e-5, 1e-13)), max_iters=r.choice(budgets),
                       bootstrap=r.choice(BOOTSTRAPS), stop_rule=r.choice(STOP_RULES))
    pairs = _kernel_run(p, cfg, x0)[0].pairs
    if kind == "near" and len(pairs) > 1 and r.random() < 0.5:
        # Under "either", the epsilon at which some step of this run fires both stop tests.  A
        # two-point run's offset bootstrap moves with epsilon, so there it is only roughly that.
        k = r.randrange(1, len(pairs))
        (x, _), (x_next, f_next) = pairs[k - 1], pairs[k]
        epsilon = max(abs(x_next - x), abs(f_next))
        if 0.0 < epsilon < math.inf:
            cfg = dataclasses.replace(cfg, epsilon=epsilon, stop_rule="either")
    if r.random() < 1.0 / 3.0:
        site, bad = r.choice(("f", "df", "probe")), r.choice((*MISBEHAVIOURS, "decimal"))
        x, fx = pairs[min(r.randrange(7), len(pairs) - 1)]
        f, df = p.f, p.df
        if site == "df":
            df = _faulty(df, x, bad)
        else:
            f = _faulty(f, x + fx if site == "probe" else x, bad)
        p = ProblemSpec(name="faulty", f=f, df=df, domain=p.domain, default_x0=x0)
    return p, cfg, x0


def _exit_label(cfg, out, refused):
    """Which exit a run took: its loop and reason, and what set the exit apart.

    ``refused`` is _kernel_run's word that _step refused the denominator.  Every value that goes
    into one is finite, so a denominator that is not finite has overflowed.
    """
    two_point = _SCHEME_TABLE[cfg.scheme][0] is _SECANT
    label = f"{'two' if two_point else 'one'}-point loop: {out.reason}"
    if refused:
        label += ", overflowed denominator"
    elif out.converged and out.final_fx == 0.0:
        label += ", at an exact root"
    elif (out.reason == REASON_STEP and cfg.stop_rule == "either"
          and abs(out.final_fx) <= cfg.epsilon):
        label += ", both stop tests fired"
    # Step 0 ends with the bootstrap point untraced, or traced and passing the residual test.
    if two_point and (len(out.pairs) == 1
                      or len(out.pairs) == 2 and out.reason == REASON_RESIDUAL):
        label += ", in the bootstrap step"
    return label


# Every exit of run, as _exit_label names it.  The step test never judges a bootstrap step, and a
# run cannot spend its budget there.
_EXITS = ["step_below_epsilon", "step_below_epsilon, at an exact root",
          "step_below_epsilon, both stop tests fired", "residual_below_epsilon",
          "residual_below_epsilon, at an exact root", "nonfinite",
          "nonfinite, overflowed denominator", "domain_violation", "escape_bound_exceeded",
          "denominator_underflow", "max_iters_reached"]
_BOOTSTRAP_EXITS = ["step_below_epsilon, at an exact root", "residual_below_epsilon",
                    "residual_below_epsilon, at an exact root", "nonfinite",
                    "nonfinite, overflowed denominator", "domain_violation",
                    "escape_bound_exceeded", "denominator_underflow"]
EXITS = {*(f"one-point loop: {e}" for e in _EXITS), *(f"two-point loop: {e}" for e in _EXITS),
         *(f"two-point loop: {e}, in the bootstrap step" for e in _BOOTSTRAP_EXITS)}


def _same_run(out, expected):
    """run's outcome equals the reference's in reason, count and pairs, bit for bit."""
    return (out.reason, out.iterations, repr(out.pairs)) == (
        expected.reason, expected.iterations, repr(expected.pairs))


def _exit_draws():
    """The 10,000 draws of _exit_case from a fixed seed, the same on every run."""
    r = random.Random(1)
    return (_exit_case(r) for _ in range(10_000))


def _untraced_pairs(pairs):
    """What an untraced run keeps of a traced run's pairs: x0's, and the last accepted one."""
    return pairs[:1] + pairs[1:][-1:]


def test_exit_draws_reach_every_exit():
    # run must take the reference's exit on each draw, traced and untraced; the rarest exits come
    # up about twice in 1,000 draws.
    counts = Counter()
    for p, cfg, x0 in _exit_draws():
        expected, refused = _kernel_run(p, cfg, x0)
        counts[_exit_label(cfg, expected, refused)] += 1
        out = run(p, cfg, x0)
        assert type(out) is RunOutcome
        assert _same_run(out, expected), (p.name, cfg, x0)
        kept = expected._replace(pairs=_untraced_pairs(expected.pairs))
        assert _same_run(run(p, cfg._replace(trace=False), x0), kept), (p.name, cfg, x0)
    assert set(counts) == EXITS
    assert {label: n for label, n in counts.items() if n < 10} == {}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_untraced_run_that_raises_after_accepting_keeps_the_candidate(sq4, scheme):
    # f is a Decimal at the first candidate, which passes isfinite and is accepted; the residual
    # test then raises, as an mpmath epsilon does not compare with a Decimal.
    cfg = SolverConfig(scheme=scheme, mu=0.5, epsilon=mpmath.mpf("1e-5"), stop_rule="residual")
    x1 = run(sq4, cfg, 3.0).pairs[1][0]
    p = ProblemSpec(name="decimal", f=_faulty(sq4.f, x1, "decimal"), df=sq4.df,
                    domain=sq4.domain, default_x0=3.0)
    traced, untraced = run(p, cfg, 3.0), run(p, cfg._replace(trace=False), 3.0)
    assert traced.reason == "nonfinite"
    assert traced.pairs[-1] == (x1, Decimal(sq4.f(x1)))
    assert (untraced.reason, untraced.iterations, repr(untraced.pairs)) == (
        traced.reason, traced.iterations, repr(_untraced_pairs(traced.pairs)))


# The problems of the pinned runs besides log and trig.
LOG, TRIG = EXIT_PROBLEMS["log"], EXIT_PROBLEMS["trig"]
DOUBLE = ProblemSpec(name="double", f=lambda x: (x - 1.0) ** 2, df=lambda x: 2.0 * (x - 1.0),
                     domain=(-10.0, 10.0), known_root=1.0, default_x0=3.0)
CBRT = ProblemSpec(name="cbrt", f=lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x),
                   df=lambda x: abs(x) ** (-2.0 / 3.0) / 3.0, domain=(-1e15, 1e15), default_x0=1.0)
TINY = ProblemSpec(name="tiny", f=lambda x: 1e-160 * (x - 1.0), domain=(-10.0, 10.0),
                   known_root=1.0, default_x0=3.0)
FLAT = ProblemSpec(name="flat", f=lambda x: x * x + 1.0, df=lambda x: 2.0 * x, domain=WIDE,
                   default_x0=0.0)


def _steep(df, domain):
    """1e200 (x - 1) with the constant f' = df."""
    return ProblemSpec(name="steep", f=lambda x: 1e200 * (x - 1.0), df=lambda x: df,
                       domain=domain, default_x0=2.0)


def _pinned(case_id, p, x0, cfg, reason, iterations, **pins):
    """A PINNED_RUNS row.  ``pins`` holds what else the run must give: its last pair as
    ``final``, all its ``pairs``, or the ``exit`` that _exit_label names."""
    return pytest.param(p, x0, cfg, reason, iterations, pins, id=case_id)


NEWTON = SolverConfig(scheme="newton")
# Fixed runs, each pinned and checked against the reference.
PINNED_RUNS = [
    # From trig's root rounded to a float, where f is not 0, the bootstrap lands where f is
    # exactly 0, and the first secant step stays there.
    _pinned("trig-secant_dyn-from-the-root", TRIG, math.pi / 6.0,
            SolverConfig(scheme="secant_dyn", mu=2.65), "step_below_epsilon", 1,
            final=(0.5235987755982989, 0.0)),
    # f = f' = 0 at x = 1, so mu f + f' is exactly 0: no step can be taken, and none is needed.
    *(_pinned(f"flat-exact-root-{scheme}-{stop_rule}", DOUBLE, 1.0,
              SolverConfig(scheme=scheme, mu=0.5, stop_rule=stop_rule),
              "residual_below_epsilon" if stop_rule == "residual" else "step_below_epsilon", 0,
              pairs=[(1.0, 0.0)])
      for scheme in ("newton", "wu", "euler_flow") for stop_rule in STOP_RULES),
    # The offset_x0 bootstrap on the benchmark's log cell converges to 1 at six decimals.
    _pinned("log-offset-bootstrap", LOG, 5.0,
            SolverConfig(scheme="secant_dyn", mu=0.135, bootstrap="offset_x0"),
            "step_below_epsilon", 7, final=(1.0000000000001719, 1.7186252421195946e-13)),
    # The offset step is epsilon * max(1, |x0|), which for |x0| <= 1 passes the step test; it
    # must not count as convergence on its own.
    *(_pinned(f"log-offset-bootstrap-not-step-tested-from-{x0}", LOG, x0,
              SolverConfig(scheme="secant_dyn", mu=0.5, bootstrap="offset_x0"),
              "step_below_epsilon", iterations, final=final)
      for x0, iterations, final in ((0.6, 5, (0.9999999999719048, -2.8095192839256417e-11)),
                                    (0.9, 4, (0.999999999999942, -5.795364188543485e-14)))),
    # The residual rule ends zheng's run on log once |f| <= epsilon, a step before the step rule.
    _pinned("log-zheng-residual-rule", LOG, 5.0,
            SolverConfig(scheme="zheng", mu=1.0, stop_rule="residual"),
            "residual_below_epsilon", 7, final=(1.0000010315272578, 1.0315267258092998e-06)),
    # Steps of h = 1e-4 spend the budget of 500 long before log's root.
    _pinned("log-euler_flow-tiny-step", LOG, 5.0,
            SolverConfig(scheme="euler_flow", mu=0.135, h=1e-4), "max_iters_reached", 500),
    # Newton on the cube root maps x to -2x, so |x| doubles every step and passes
    # ESCAPE_BOUND = 1e12 long before the domain's edge at 1e15: 39 steps are taken, to about
    # -2^39, and the 40th candidate is rejected.
    _pinned("cbrt-newton-escape", CBRT, 1.0, NEWTON, "escape_bound_exceeded", 39,
            final=(-549755813887.97656, -8191.999999999879)),
    # The bootstrap's step from 5 (1/mu for zheng_first_step, the offset for offset_x0) vanishes
    # against 5.  The step test does not judge the bootstrap, so under every rule the first
    # counted step meets the coincident pair: its secant denominator is exactly 0, and
    # |ln 5| = 1.61 is no root.
    *(_pinned(f"log-stagnant-pair-{bootstrap}-{epsilon}-{stop_rule}", LOG, 5.0,
              SolverConfig(scheme="secant_dyn", mu=mu, epsilon=epsilon, bootstrap=bootstrap,
                           stop_rule=stop_rule),
              "denominator_underflow", 0, pairs=[(5.0, math.log(5.0))] * 2)
      for bootstrap, mu, epsilon, stop_rules in (
          ("zheng_first_step", 1e20, 1e-5, STOP_RULES),
          ("offset_x0", 0.5, 1e-17, ("either", "step_size")),
          ("offset_x0", 0.5, 1e-310, STOP_RULES))
      for stop_rule in stop_rules),
    # f = 1e-160 (x - 1): the zheng denominator mu f^2 = 2e-320 is subnormal but not 0, and
    # f^2 / (mu f^2) = 2 is the exact step to the root.  secant_dyn's bootstrap is that step; its
    # first secant step confirms it.
    *(_pinned(f"tiny-{scheme}", TINY, 3.0, SolverConfig(scheme=scheme, mu=0.5),
              "step_below_epsilon", 1, final=(1.0, 0.0)) for scheme in ("zheng", "secant_dyn")),
    # A derivative-free scheme runs on a problem without f', where newton is refused.
    _pinned("noderiv-secant_dyn", NODERIV, 1.5,
            SolverConfig(scheme="secant_dyn", mu=0.0, epsilon=1e-10), "step_below_epsilon", 6,
            final=(1.0, 0.0)),
    # f' vanishes at the start, where f does not: the Newton correction is undefined.
    _pinned("flat-derivative-newton", FLAT, 0.0, NEWTON, "denominator_underflow", 0),
    # Newton from 2 on 1e200 (x - 1): the first candidate fails the checks in run's order.  With
    # f' = -1e-290 it is 2 + 1e200 / 1e-290 = inf: past the escape bound and, on a bounded domain,
    # past its edge, but it is not a finite real first.  With f' = -1e-13 it is 2 + 1e213:
    # outside the domain is a domain exit first.  With f' = 1e-290 it is -inf, on a domain that
    # it also leaves.
    *(_pinned(f"steep-{case_id}", _steep(df, domain), 2.0, NEWTON, reason, 0,
              pairs=[(2.0, 1e200)])
      for case_id, df, domain, reason in (
          ("inf-unbounded", -1e-290, (-math.inf, math.inf), "nonfinite"),
          ("inf-bounded", -1e-290, (-1e15, 1e15), "nonfinite"),
          ("outside-bounded", -1e-13, (-1e15, 1e15), "domain_violation"),
          ("outside-unbounded", -1e-13, (-math.inf, math.inf), "escape_bound_exceeded"),
          ("minus-inf", 1e-290, WIDE, "nonfinite"))),
    # Exits that the draws seldom reach.  Under "either", a step that fires both stop tests at
    # once reports the step: one such run per update rule, the two-point rule's under each
    # bootstrap.
    _pinned("both-stop-tests-newton", TRIG, 0.35997415822383044,
            SolverConfig(scheme="newton", mu=0.0, bootstrap="offset_x0", stop_rule="either"),
            "step_below_epsilon", 3,
            exit="one-point loop: step_below_epsilon, both stop tests fired"),
    _pinned("both-stop-tests-zheng", TRIG, 1.4398966328953218,
            SolverConfig(scheme="zheng", mu=2.0, epsilon=1e-13, bootstrap="offset_x0",
                         stop_rule="either"),
            "step_below_epsilon", 6, exit="one-point loop: step_below_epsilon, at an exact root"),
    _pinned("both-stop-tests-secant_dyn-zheng_first_step", TRIG, 0.35997415822383044,
            SolverConfig(scheme="secant_dyn", mu=-0.5, stop_rule="either"),
            "step_below_epsilon", 3,
            exit="two-point loop: step_below_epsilon, both stop tests fired"),
    _pinned("both-stop-tests-secant-offset_x0", TRIG, 0.17998707911191522,
            SolverConfig(scheme="secant", mu=0.5, bootstrap="offset_x0", stop_rule="either"),
            "step_below_epsilon", 4,
            exit="two-point loop: step_below_epsilon, both stop tests fired"),
    # The residual test ends a two-point run at its bootstrap point, under each bootstrap.
    _pinned("bootstrap-residual-zheng_first_step", LOG, 0.99725,
            SolverConfig(scheme="secant_dyn", mu=0.0, stop_rule="residual"),
            "residual_below_epsilon", 0,
            exit="two-point loop: residual_below_epsilon, in the bootstrap step"),
    _pinned("bootstrap-residual-offset_x0", LOG, 1.000010989893846,
            SolverConfig(scheme="secant_dyn", mu=0.0, bootstrap="offset_x0", stop_rule="either"),
            "residual_below_epsilon", 0,
            exit="two-point loop: residual_below_epsilon, in the bootstrap step"),
]


@pytest.mark.parametrize("p, x0, cfg, reason, iterations, pins", PINNED_RUNS)
def test_pinned_run(p, x0, cfg, reason, iterations, pins):
    expected, refused = _kernel_run(p, cfg, x0)
    out = run(p, cfg, x0)
    assert _same_run(out, expected)
    kept = expected._replace(pairs=_untraced_pairs(expected.pairs))
    assert _same_run(run(p, cfg._replace(trace=False), x0), kept)
    assert (out.reason, out.iterations) == (reason, iterations)
    found = {"final": out.pairs[-1], "pairs": out.pairs,
             "exit": _exit_label(cfg, expected, refused)}
    assert {key: found[key] for key in pins} == pins


def _float64():
    """numpy's float64 and an epsilon in it; a case that needs them skips without numpy."""
    float64 = pytest.importorskip("numpy").float64
    return float64, float64(2 ** -10)


# Runs whose step, or f value, lands exactly on +epsilon or -epsilon, in numbers other than
# float.  On f(x) = x - 1/2, from x0 = 1/2 + 2s epsilon with s = +-1:
# - euler_flow at mu 0 and h 1/2 steps by -s epsilon to a point where f is s epsilon;
# - secant's offset_x0 bootstrap takes the point 1/2 + s epsilon, where f is s epsilon, and its
#   next step is -s epsilon, to the root.
# So the test of the stop rule passes on its boundary, at the first step that is tested.
# EXACT_KINDS: the numbers x0, f, mu and h are made of, and epsilon, made when a case runs, so
# that the float64 cases skip without numpy.
EXACT_KINDS = {
    "Fraction": lambda: (Fraction, Fraction(1, 3)),
    "mpf": lambda: (mpmath.mpf, mpmath.mpf(2) ** -10),  # at mpmath's current precision
    "float64": _float64,
    "int epsilon": lambda: (float, 1),
    "Fraction epsilon": lambda: (float, Fraction(1, 1024)),
}
# Each row: kind, scheme, stop rule, and the run's reason and count.  The offset_x0 bootstrap
# computes in float, so a Fraction epsilon of 1/3 leaves no exact boundary there; at an epsilon
# of 1, |x0| is above 1, so the bootstrap step is |x0| epsilon, not epsilon.
EXACT_RUNS = [
    *((kind, "euler_flow", "step_size", REASON_STEP, 1) for kind in EXACT_KINDS),
    *((kind, "euler_flow", "residual", REASON_RESIDUAL, 1) for kind in EXACT_KINDS),
    *((kind, "secant", "step_size", REASON_STEP, 1)
      for kind in ("mpf", "float64", "Fraction epsilon")),
    *((kind, "secant", "residual", REASON_RESIDUAL, 0)
      for kind in ("mpf", "float64", "Fraction epsilon")),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["+epsilon", "-epsilon"])
@pytest.mark.parametrize("kind, scheme, stop_rule, reason, iterations", EXACT_RUNS,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in EXACT_RUNS])
def test_stop_tests_pass_on_their_boundary(kind, scheme, stop_rule, reason, iterations, sign):
    number, epsilon = EXACT_KINDS[kind]()
    half, one = number(1) / 2, number(1)
    x0 = half + 2 * sign * epsilon
    p = ProblemSpec(name=kind, f=lambda x: x - half, df=lambda x: one, domain=(-10, 10),
                    known_root=half, default_x0=x0)
    cfg = SolverConfig(scheme=scheme, mu=number(0), h=half, epsilon=epsilon,
                       bootstrap="offset_x0", stop_rule=stop_rule)
    expected, _ = _kernel_run(p, cfg, x0)
    (x, _), (x_last, f_last) = expected.pairs[-2:]
    landed = x_last - x if stop_rule == "step_size" else f_last
    assert landed == (-sign if stop_rule == "step_size" else sign) * epsilon
    assert (expected.reason, expected.iterations) == (reason, iterations)
    assert _same_run(run(p, cfg, x0), expected)


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
@pytest.mark.parametrize("scheme, bootstrap", SCHEME_BOOTSTRAPS)
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
            if _SCHEME_TABLE[scheme][0] is not _SECANT:
                # the one-point loop reads no bootstrap: the other one gives the same reason,
                # iterations and pairs
                assert run(p, dataclasses.replace(cfg, bootstrap="offset_x0"), x0) == out


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
# result types are immutable named tuples; the validated inputs are immutable
# records that dataclasses' replace, fields and asdict accept

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
        "scheme", "mu", "h", "epsilon", "max_iters", "bootstrap", "stop_rule", "trace"]
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
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, getattr(obj, name))


def test_inputs_equal_no_other_type_and_keep_their_fields(problems):
    cfg, p = SolverConfig(), problems["log"]
    for obj, other in ((cfg, p), (p, cfg)):
        for unlike in (other, tuple(getattr(obj, name) for name in obj.__slots__)):
            assert (obj == unlike, obj != unlike) == (False, True)
    with pytest.raises(AttributeError, match="cannot delete field 'mu'"):
        del cfg.mu
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del p.name


# an input whose evaluators pickle by name
SIN = ProblemSpec(name="sin", f=math.sin, df=math.cos, domain=(-1.0, 1.0), default_x0=0.5,
                  known_root=0.0)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_inputs_copy_and_pickle(duplicate):
    for obj in (SolverConfig(scheme="zheng", mu=0.5), SIN):
        dup = duplicate(obj)
        assert type(dup) is type(obj)
        assert dup == obj and hash(dup) == hash(obj) and repr(dup) == repr(obj)


def test_inputs_read_as_dataclasses():
    cfg = SolverConfig(scheme="zheng", mu=0.5)
    assert repr(cfg) == ("SolverConfig(scheme='zheng', mu=0.5, h=1.0, epsilon=1e-05, "
                         "max_iters=500, bootstrap='zheng_first_step', stop_rule='step_size', "
                         "trace=True)")
    assert dataclasses.is_dataclass(cfg) and dataclasses.is_dataclass(SIN)
    assert dataclasses.asdict(cfg) == {
        "scheme": "zheng", "mu": 0.5, "h": 1.0, "epsilon": 1e-5, "max_iters": 500,
        "bootstrap": "zheng_first_step", "stop_rule": "step_size", "trace": True}
    assert dataclasses.asdict(SIN) == {"name": "sin", "f": math.sin, "domain": (-1.0, 1.0),
                                       "default_x0": 0.5, "df": math.cos, "known_root": 0.0}
    # each field's default is the constructor's
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert defaults == dataclasses.asdict(SolverConfig())
    assert [f.default for f in dataclasses.fields(ProblemSpec)][-2:] == [None, None]
    if hasattr(copy, "replace"):  # Python 3.13 on
        assert copy.replace(cfg, mu=1.0) == SolverConfig(scheme="zheng", mu=1.0)
