import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from dataclasses import replace

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


def test_eval_f_rejects_points_outside_interval(problems):
    # Newton's first step on the log problem lands near -3.047, illegal there
    with pytest.raises(DomainViolation):
        eval_f(problems["log"], -3.047)
    with pytest.raises(DomainViolation):
        eval_f(problems["exp"], 60.0)


def test_eval_f_unchecked_allows_finite_values_anywhere(problems):
    # difference-quotient probes may step past the interval edge
    assert eval_f_unchecked(problems["log"], 6.609) == pytest.approx(math.log(6.609))
    with pytest.raises(NonFiniteValue):
        eval_f_unchecked(problems["log"], -1.0)
    with pytest.raises(NonFiniteValue):
        eval_f_unchecked(problems["log"], 0.0)


def test_eval_f_unchecked_rejects_non_real_values():
    # x ** 0.5 is complex below zero, and math.log raises TypeError on it; an
    # int past the float range is not finite
    for f in (lambda x: x ** 0.5, lambda x: math.log(x ** 0.5), lambda x: 10 ** 400):
        p = ProblemSpec(name="odd", f=f, domain=(-1e9, 1e9), default_x0=1.0)
        with pytest.raises(NonFiniteValue, match=r"^f\(-4\.0\) is not a finite real$"):
            eval_f_unchecked(p, -4.0)
    # eval_df judges f' by the same guard: a raising, NaN or complex f'
    for df, x in ((lambda x: 1.0 / x, 0.0), (lambda x: math.nan, 1.0), (lambda x: x ** 0.5, -4.0)):
        p = ProblemSpec(name="odd", f=lambda x: x, df=df, domain=(-1e9, 1e9), default_x0=1.0)
        with pytest.raises(NonFiniteValue, match=rf"^f'\({x!r}\) is not a finite real$"):
            eval_df(p, x)
    # numpy's FloatingPointError, under np.seterr(over="raise"), is an
    # ArithmeticError like OverflowError, and fails the same guard
    def overflows(x):
        raise FloatingPointError("overflow encountered in exp")
    p = ProblemSpec(name="fpe", f=overflows, df=overflows, domain=(-1e9, 1e9), default_x0=1.0)
    for evaluate, name in ((eval_f, "f"), (eval_f_unchecked, "f"), (eval_df, "f'")):
        with pytest.raises(NonFiniteValue, match=rf"^{name}\(2\.0\) is not a finite real$"):
            evaluate(p, 2.0)
    # and a missing f' is a ValueError
    nodf = ProblemSpec(name="nodf", f=lambda x: x, domain=(-1e9, 1e9), default_x0=1.0)
    assert issubclass(MissingDerivative, ValueError)
    with pytest.raises(MissingDerivative, match="problem 'nodf' has no derivative evaluator"):
        eval_df(nodf, 1.0)


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


def test_spec_is_immutable(problems):
    with pytest.raises(AttributeError):
        problems["log"].default_x0 = 2.0


def test_spec_validation():
    f = lambda x: x
    with pytest.raises(ValueError, match=r"domain must satisfy a < b"):
        ProblemSpec(name="bad", f=f, domain=(2.0, 1.0), default_x0=1.5)
    # a field of the wrong shape or type is a ValueError naming that field, not a raw unpacking
    # or comparison error; ends that compare but are not numbers, such as strs, are refused too
    for domain in ((0.0, 1.0, 2.0), (0.0,), None, 1.0, (None, 1.0), (0.0, 1j), ("0", "1"),
                   ((0.0,), (1.0,))):
        with pytest.raises(ValueError, match=r"^domain must be a pair \(a, b\) with a < b, got "):
            ProblemSpec(name="bad", f=f, domain=domain, default_x0=0.5)
    for x0 in (None, 0.5j, "0.5"):
        with pytest.raises(ValueError, match=rf"^default_x0 = {re.escape(repr(x0))} cannot be "
                                             r"compared with the domain \[0\.0, 1\.0\]$"):
            ProblemSpec(name="bad", f=f, domain=(0.0, 1.0), default_x0=x0)
    for root in ("1", 1j, [1.0]):
        with pytest.raises(ValueError, match=rf"^known_root = {re.escape(repr(root))} cannot be "
                                             r"compared with the domain \[0\.0, 2\.0\]$"):
            ProblemSpec(name="bad", f=f, domain=(0.0, 2.0), default_x0=0.5, known_root=root)
    # every number that compares as a real still builds: ints, a Fraction, a Decimal, an mpmath
    # real, a list or an infinite domain
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
    # the name is an unquoted CSV field: a comma, a quote or a line break
    # would corrupt its row
    for name in ("a,b", "a\nb", "a\rb", ",", '"q', 'a"b'):
        with pytest.raises(ValueError,
                           match=r"^name must not contain a comma, a quote or a line break"):
            ProblemSpec(name=name, f=f, domain=(0.0, 1.0), default_x0=0.5)
    # a name that is not a str is refused before the character rule reads it
    for name in (None, 5, b"log"):
        with pytest.raises(ValueError, match=r"^name must be a string, got "):
            ProblemSpec(name=name, f=f, domain=(0.0, 1.0), default_x0=0.5)
    with pytest.raises(DomainViolation,
                       match=r"^default_x0 = 3\.0 is outside the legal domain \[0\.0, 1\.0\]$"):
        ProblemSpec(name="bad", f=f, domain=(0.0, 1.0), default_x0=3.0)
    with pytest.raises(DomainViolation,
                       match=r"^known_root = 3\.0 is outside the legal domain \[1\.0, 2\.0\]$"):
        ProblemSpec(name="bad", f=f, domain=(1.0, 2.0), default_x0=1.5, known_root=3.0)
    with pytest.raises(ValueError, match=r"exceeds 1e-12"):
        # claimed root is not a root
        ProblemSpec(name="bad", f=f, domain=(0.0, 2.0), default_x0=1.0, known_root=1.0)
    # f(known_root) passes the guard every f value passes: a complex residual
    # is not a finite real, however small its modulus, and neither is a raise
    for bad in (lambda x: complex(x - 1.0, 1e-13), lambda x: 1.0 / (x - 1.0)):
        with pytest.raises(NonFiniteValue, match=r"^f\(1\.0\) is not a finite real$"):
            ProblemSpec(name="bad", f=bad, domain=(0.0, 2.0), default_x0=1.5, known_root=1.0)
    np = pytest.importorskip("numpy")
    spec = ProblemSpec(name="ok", f=f, domain=(np.float64(0), np.float32(2)),
                       default_x0=np.int64(1), known_root=np.float64(0))
    assert spec.default_x0 == 1


def scaled(p, k, **changes):
    return replace(p, f=lambda x: k * p.f(x), df=lambda x: k * p.df(x), **changes)


def test_root_check_with_a_derivative_scales_with_f(problems):
    trig = problems["trig"]
    # |f(pi/6)| = 1.1e-12 once f is scaled by 1e4, yet pi/6 is the same root:
    # the Newton correction f/f' there is still 6e-17.
    assert scaled(trig, 1e4).known_root == math.pi / 6.0
    # Scaled by 1e-13, the wrong root 0.6 has |f| = 1.3e-14, below 1e-12;
    # its Newton correction is 0.078, so it is refused.
    with pytest.raises(ValueError, match=r"exceeds 1e-12 \* max\(1, \|x\*\|\) \* \|f'\(x\*\)\|"):
        scaled(trig, 1e-13, known_root=0.6)


def test_root_check_reads_the_derivative_only_off_an_exact_root():
    bad_df = lambda x: 1.0 / (x - 1.0)
    # f(1) == 0 exactly passes without calling f'
    ProblemSpec(name="ok", f=lambda x: x - 1.0, df=bad_df, domain=(0.0, 2.0),
                default_x0=1.5, known_root=1.0)
    # a nonzero residual needs f'(x*), which passes the one guard
    with pytest.raises(NonFiniteValue, match=r"^f'\(1\.0\) is not a finite real$"):
        ProblemSpec(name="bad", f=lambda x: x - 1.0 + 1e-20, df=bad_df, domain=(0.0, 2.0),
                    default_x0=1.5, known_root=1.0)


def test_nonfinite_value_names_the_evaluator_that_failed():
    # f(1.5) = 1.25 is fine; it is f' that divides by zero
    p = ProblemSpec(name="baddf", f=lambda x: x * x - 1.0, df=lambda x: 1.0 / (x - x),
                    domain=(-1e9, 1e9), default_x0=1.5)
    with pytest.raises(NonFiniteValue, match=r"^f'\(1\.5\) is not a finite real$") as exc:
        euler_flow_step(p, 1.5, 0.5, 1.0)
    assert exc.value.x == 1.5
