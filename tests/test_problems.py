import math
import random

import pytest
from hypothesis import given, strategies as st

from rootflow import (
    DomainViolation,
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    builtin_problems,
    euler_flow_step,
    eval_f,
    eval_f_unchecked,
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
    # x ** 0.5 is complex below zero; an int past the float range is not finite
    for f in (lambda x: x ** 0.5, lambda x: 10 ** 400):
        p = ProblemSpec(name="odd", f=f, domain=(-1e9, 1e9), default_x0=1.0)
        with pytest.raises(NonFiniteValue, match=r"^f\(-4\.0\) is not a finite real$"):
            eval_f_unchecked(p, -4.0)
    # eval_df judges f' by the same guard: a raising, NaN or complex f'
    for df, x in ((lambda x: 1.0 / x, 0.0), (lambda x: math.nan, 1.0), (lambda x: x ** 0.5, -4.0)):
        p = ProblemSpec(name="odd", f=lambda x: x, df=df, domain=(-1e9, 1e9), default_x0=1.0)
        with pytest.raises(NonFiniteValue, match=rf"^f'\({x!r}\) is not a finite real$"):
            eval_df(p, x)
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


def test_nonfinite_value_names_the_evaluator_that_failed():
    # f(1.5) = 1.25 is fine; it is f' that divides by zero
    p = ProblemSpec(name="baddf", f=lambda x: x * x - 1.0, df=lambda x: 1.0 / (x - x),
                    domain=(-1e9, 1e9), default_x0=1.5)
    with pytest.raises(NonFiniteValue, match=r"^f'\(1\.5\) is not a finite real$") as exc:
        euler_flow_step(p, 1.5, 0.5, 1.0)
    assert exc.value.x == 1.5
