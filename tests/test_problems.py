import math
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, strategies as st

from rootflow import (
    DomainViolation,
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    SolverConfig,
    builtin_problems,
    euler_flow_step,
    eval_f,
    eval_f_unchecked,
    run,
)
from rootflow.problems import eval_df


def test_registry_has_exactly_three_problems(problems):
    assert sorted(problems) == ["exp", "log", "trig"]


def test_registry_domains_roots_and_starts(problems):
    log, exp, trig = problems["log"], problems["exp"], problems["trig"]
    assert log.domain == (0.5, 5.0)
    assert log.known_root == 1.0
    assert log.default_x0 == 5.0
    assert exp.domain == (-1.0, 50.0)
    assert exp.known_root == 1.0
    assert exp.default_x0 == 50.0
    assert trig.domain == (0.0, 11.0 * math.pi / 24.0)
    assert trig.known_root == math.pi / 6.0
    assert trig.default_x0 == 11.0 * math.pi / 24.0


def test_known_roots_are_roots(problems):
    # trig's root prints as 0.523599 at six decimals
    assert f"{problems['trig'].known_root:.6f}" == "0.523599"
    for p in problems.values():
        assert abs(eval_f(p, p.known_root)) <= 1e-12


def test_log_and_exp_vanish_at_one(problems):
    assert problems["log"].f(1.0) == 0.0
    assert problems["exp"].f(1.0) == 0.0


def test_eval_f_values(problems):
    assert eval_f(problems["log"], 5.0) == pytest.approx(math.log(5.0))
    assert eval_f(problems["trig"], math.pi / 6.0) == pytest.approx(0.0, abs=1e-12)


def test_eval_f_unchecked_allows_finite_values_anywhere(problems):
    # difference-quotient probes may step past the interval edge
    assert eval_f_unchecked(problems["log"], 6.609) == pytest.approx(math.log(6.609))


@given(x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_eval_f_never_returns_nonfinite(x):
    for p in builtin_problems().values():
        try:
            value = eval_f(p, x)
        except (DomainViolation, NonFiniteValue):
            continue
        assert math.isfinite(value)


@pytest.mark.parametrize("name", ["log", "exp", "trig"])
def test_derivative_matches_central_difference(problems, name):
    p = problems[name]
    a, b = p.domain
    rng = random.Random(20260810)
    margin = 0.05 * (b - a)
    for _ in range(20):
        x = rng.uniform(a + margin, b - margin)
        h = 1e-6 * max(1.0, abs(x))
        fd = (p.f(x + h) - p.f(x - h)) / (2.0 * h)
        assert p.df(x) == pytest.approx(fd, rel=1e-6)


def test_spec_validation():
    f = lambda x: x
    # every number that compares as a real builds: ints, a Fraction, a Decimal, an mpmath real, a
    # list or an infinite domain
    for domain, x0, root in (((0, 2), 1, 0), ([0.0, 2.0], Fraction(1, 2), 0.0),
                             ((-math.inf, math.inf), 0.5, Fraction(0)),
                             ((Decimal(0), Decimal(2)), Decimal("0.5"), Decimal(0)),
                             ((mpmath.mpf(0), mpmath.mpf(2)), mpmath.mpf("0.5"), mpmath.mpf(0))):
        spec = ProblemSpec(name="ok", f=f, domain=domain, default_x0=x0, known_root=root)
        assert (spec.domain, spec.default_x0, spec.known_root) == (domain, x0, root)
    # and runs: x^2 - 1 on a Decimal domain from a float start
    sq = ProblemSpec(name="sq", f=lambda x: x * x - 1.0, domain=(Decimal(-2), Decimal(2)),
                     default_x0=1.5, known_root=1.0)
    assert run(sq, SolverConfig(scheme="zheng", mu=0.5), 1.5).reason == "step_below_epsilon"
    np = pytest.importorskip("numpy")
    spec = ProblemSpec(name="ok", f=f, domain=(np.float64(0), np.float32(2)),
                       default_x0=np.int64(1), known_root=np.float64(0))
    assert spec.default_x0 == 1


def scaled(p, k, **changes):
    return replace(p, f=lambda x: k * p.f(x), df=lambda x: k * p.df(x), **changes)


def test_root_check_with_a_derivative_scales_with_f(problems):
    # |f(pi/6)| = 1.1e-12 once trig's f is scaled by 1e4, yet pi/6 is the same root: the Newton
    # correction f/f' there is still 6e-17.  PROBLEM_REFUSALS refuses a wrong root scaled small.
    assert scaled(problems["trig"], 1e4).known_root == math.pi / 6.0


def test_root_check_reads_the_derivative_only_off_an_exact_root():
    # f(1) == 0 exactly passes without calling f'; PROBLEM_REFUSALS calls it off the root
    ProblemSpec(name="ok", f=lambda x: x - 1.0, df=lambda x: 1.0 / (x - 1.0), domain=(0.0, 2.0),
                default_x0=1.5, known_root=1.0)


def test_missing_derivative_is_a_value_error():
    assert issubclass(MissingDerivative, ValueError)


def _spec(name="bad", f=lambda x: x, domain=(0.0, 1.0), default_x0=0.5, **fields):
    """A ProblemSpec of f(x) = x on [0, 1] from 0.5, with the fields given."""
    return ProblemSpec(name=name, f=f, domain=domain, default_x0=default_x0, **fields)


def _overflows(x):
    """Fails as numpy does under np.seterr(over="raise"): an ArithmeticError, as OverflowError."""
    raise FloatingPointError("overflow encountered in exp")


LOG, EXP, TRIG = builtin_problems().values()
WIDE = (-1e9, 1e9)
FPE = ProblemSpec(name="fpe", f=_overflows, df=_overflows, domain=WIDE, default_x0=1.0)
# id -> (call, what it raises, the whole message, and for a DomainViolation or NonFiniteValue
# the point it carries)
PROBLEM_REFUSALS = {
    # A spec checks its fields in order: the name, f, the domain, default_x0, df, known_root.
    # The name is an unquoted CSV field: a comma, a quote or a line break would corrupt its row;
    # a name that is not a str is refused before that rule reads it.
    **{f"name-{name!r}": (partial(_spec, name=name), ValueError, "name must not contain a comma, "
                          f"a quote or a line break, got {name!r}")
       for name in ("a,b", "a\nb", "a\rb", ",", '"q', 'a"b')},
    **{f"name-{name!r}": (partial(_spec, name=name), ValueError,
                          f"name must be a string, got {name!r}")
       for name in (None, 5, b"log")},
    "name-before-f": (partial(_spec, name=5, f=None), ValueError, "name must be a string, got 5"),
    # an f or df that is not callable would end every run nonfinite, as if it diverged
    "f-None": (partial(_spec, f=None), ValueError, "f must be callable, got None"),
    "f-before-domain": (partial(_spec, f=None, domain=None), ValueError,
                        "f must be callable, got None"),
    "f-before-the-root-check": (partial(_spec, f=None, known_root=0.25), ValueError,
                                "f must be callable, got None"),
    # a domain of the wrong shape or type is a ValueError naming it, not a raw unpacking or
    # comparison error; ends that compare but are not numbers, such as strs, are refused too
    **{f"domain-{domain!r}": (partial(_spec, domain=domain), ValueError,
                              f"domain must be a pair (a, b) with a < b, got {domain!r}")
       for domain in ((0.0, 1.0, 2.0), (0.0,), None, 1.0, (None, 1.0), (0.0, 1j), ("0", "1"),
                      ((0.0,), (1.0,)))},
    **{f"domain-{a!r}-{b!r}": (partial(_spec, domain=(a, b), default_x0=1.0), ValueError,
                               f"domain must satisfy a < b, got [{a!r}, {b!r}]")
       for a, b in ((2.0, 1.0), (1.0, 1.0))},
    **{f"default_x0-{x0!r}": (partial(_spec, default_x0=x0), ValueError,
                              f"default_x0 = {x0!r} cannot be compared with the domain [0.0, 1.0]")
       for x0 in (None, 0.5j, "0.5")},
    "default_x0-outside": (partial(_spec, default_x0=3.0), DomainViolation,
                           "default_x0 = 3.0 is outside the legal domain [0.0, 1.0]", 3.0),
    "df-2.0": (partial(_spec, df=2.0), ValueError, "df must be None or callable, got 2.0"),
    "default_x0-before-df": (partial(_spec, default_x0=3.0, df=2.0), DomainViolation,
                             "default_x0 = 3.0 is outside the legal domain [0.0, 1.0]", 3.0),
    "df-before-known_root": (partial(_spec, df=2.0, known_root=3.0), ValueError,
                             "df must be None or callable, got 2.0"),
    **{f"known_root-{root!r}": (partial(_spec, domain=(0.0, 2.0), known_root=root), ValueError,
                                f"known_root = {root!r} cannot be compared with the domain "
                                "[0.0, 2.0]") for root in ("1", 1j, [1.0])},
    "known_root-outside": (partial(_spec, domain=(1.0, 2.0), default_x0=1.5, known_root=3.0),
                           DomainViolation, "known_root = 3.0 is outside the legal domain "
                                            "[1.0, 2.0]", 3.0),
    "known_root-not-a-root": (partial(_spec, domain=(0.0, 2.0), known_root=1.0), ValueError,
                              "|f(known_root)| = 1.000e+00 exceeds 1e-12"),
    # Scaled by 1e-13, trig's wrong root 0.6 has |f| = 1.3e-14, below 1e-12; its Newton
    # correction is 0.078, so it is refused.
    "known_root-scaled-small": (partial(scaled, TRIG, 1e-13, known_root=0.6),
                                ValueError, "|f(known_root)| = 1.293e-14 exceeds 1e-12 * "
                                            "max(1, |x*|) * |f'(x*)| = 1.651e-25"),
    # f(known_root) passes the guard every f value passes: a complex residual is not a finite
    # real, however small its modulus, and neither is a raise
    **{f"known_root-f-{case_id}": (partial(_spec, f=f, domain=(0.0, 2.0), known_root=1.0),
                                   NonFiniteValue, "f(1.0) is not a finite real", 1.0)
       for case_id, f in (("complex", lambda x: complex(x - 1.0, 1e-13)),
                          ("raises", lambda x: 1.0 / (x - 1.0)))},
    # a nonzero residual needs f'(x*), which passes the one guard
    "known_root-df-raises": (partial(_spec, f=lambda x: x - 1.0 + 1e-20, domain=(0.0, 2.0),
                                     known_root=1.0, df=lambda x: 1.0 / (x - 1.0)),
                             NonFiniteValue, "f'(1.0) is not a finite real", 1.0),
    "assign-default_x0": (partial(setattr, LOG, "default_x0", 2.0), AttributeError,
                          "cannot assign to field 'default_x0'"),
    # Newton's first step on log lands near -3.047, illegal there
    "eval_f-log-outside": (partial(eval_f, LOG, -3.047), DomainViolation,
                           "x = -3.047 is outside the legal domain [0.5, 5.0]", -3.047),
    "eval_f-exp-outside": (partial(eval_f, EXP, 60.0), DomainViolation,
                           "x = 60.0 is outside the legal domain [-1.0, 50.0]", 60.0),
    # a probe point needs only a finite real: ln is undefined at and below 0
    **{f"eval_f_unchecked-log-{x}": (partial(eval_f_unchecked, LOG, x), NonFiniteValue,
                                     f"f({x!r}) is not a finite real", x) for x in (-1.0, 0.0)},
    # x ** 0.5 is complex below zero, and math.log raises TypeError on it; an int past the float
    # range is not finite
    **{f"eval_f_unchecked-{case_id}": (partial(eval_f_unchecked, _spec(f=f, domain=WIDE), -4.0),
                                       NonFiniteValue, "f(-4.0) is not a finite real", -4.0)
       for case_id, f in (("complex", lambda x: x ** 0.5),
                          ("log-of-complex", lambda x: math.log(x ** 0.5)),
                          ("int-past-float", lambda x: 10 ** 400))},
    # eval_df judges f' by the same guard: a raising, NaN or complex f'
    **{f"eval_df-{case_id}": (partial(eval_df, _spec(domain=WIDE, df=df), x), NonFiniteValue,
                              f"f'({x!r}) is not a finite real", x)
       for case_id, df, x in (("raises", lambda x: 1.0 / x, 0.0), ("nan", lambda x: math.nan, 1.0),
                              ("complex", lambda x: x ** 0.5, -4.0))},
    **{f"{evaluate.__name__}-fpe": (partial(evaluate, FPE, 2.0), NonFiniteValue,
                                    f"{name}(2.0) is not a finite real", 2.0)
       for evaluate, name in ((eval_f, "f"), (eval_f_unchecked, "f"), (eval_df, "f'"))},
    "eval_df-no-df": (partial(eval_df, _spec(name="nodf"), 1.0), MissingDerivative,
                      "problem 'nodf' has no derivative evaluator"),
    # f(1.5) = 1.25 is fine; it is f' that divides by zero, and the kernel's error names it
    "euler_flow_step-df": (partial(euler_flow_step, _spec(f=lambda x: x * x - 1.0, domain=WIDE,
                                                          df=lambda x: 1.0 / (x - x)), 1.5, 0.5,
                                   1.0), NonFiniteValue, "f'(1.5) is not a finite real", 1.5),
}


@pytest.mark.parametrize("case", PROBLEM_REFUSALS)
def test_problem_refusals(case):
    call, error, message, *x = PROBLEM_REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert [raised.value.x] == x if x else not hasattr(raised.value, "x")
