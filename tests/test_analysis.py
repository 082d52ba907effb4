import dataclasses
import math
import statistics
import sys
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from rootflow import (
    ConvergenceReport,
    DerivativeZero,
    InsufficientData,
    IterationTrace,
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    SolverConfig,
    default_x0_axis,
    estimate_order,
    predicted_constant,
    run,
    secant_step,
    verify_quadratic_convergence,
)
from rootflow.harness import BENCH_MU
from rootflow.problems import NONFINITE_ERRORS

WIDE = (-1e9, 1e9)


def abs_sq(df):
    """f(x) = x + x|x|, root 0, with the given derivative evaluator."""
    return ProblemSpec(name="abssq", f=lambda x: x + x * abs(x), df=df, domain=WIDE,
                       known_root=0.0, default_x0=0.3)


def synthetic_trace(errors, root=0.0):
    points = [(root + e, e) for e in errors]
    return IterationTrace.from_points(points, known_root=root)


# ---------------------------------------------------------------------------
# estimate_order

def test_geometric_squaring_sequence_has_order_two():
    est = estimate_order(synthetic_trace([1e-1, 1e-2, 1e-4, 1e-8]))
    assert est.orders == pytest.approx([2.0, 2.0], abs=1e-12)
    assert est.final_order == pytest.approx(2.0, abs=1e-12)
    assert est.constant_estimates == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
    assert est.usable_steps == 3


def test_exact_quadratic_model_recovers_its_constant():
    # e_{n+1} = C e_n^2 exactly
    C, e = 3.0, 0.05
    errors = [e]
    for _ in range(5):
        e = C * e * e
        errors.append(e)
    est = estimate_order(synthetic_trace(errors))
    assert est.final_order == pytest.approx(2.0, abs=1e-9)
    assert est.final_constant == pytest.approx(C, rel=1e-9)
    for rho in est.orders:
        assert rho == pytest.approx(2.0, abs=1e-9)


def test_saturated_tail_is_trimmed():
    errors = [1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-30]
    est = estimate_order(synthetic_trace(errors))
    # the last two are below the ~2.2e-13 floor around a unit-scale root
    assert est.usable_steps == 3


def test_constants_keep_their_sign():
    est = estimate_order(synthetic_trace([1e-1, -1e-2, 1e-4, -1e-8]))
    assert est.constant_estimates[0] < 0.0
    assert est.constant_estimates[1] > 0.0


def test_secant_iteration_measures_golden_ratio(sq):
    # free-running secant pair from (2, 1.8); the order settles at phi
    xs = [2.0, 1.8]
    while len(xs) < 40:
        xn = secant_step(sq, xs[-2], xs[-1])
        xs.append(xn)
        if abs(xn - xs[-2]) <= 1e-15:
            break
    trace = IterationTrace.from_points([(x, sq.f(x)) for x in xs], known_root=1.0)
    est = estimate_order(trace)
    assert 1.55 <= est.final_order <= 1.70


def _two_log_estimate(trace):
    """The estimator as it was before it computed each log once: the errors
    tuple first, then ln|e_n/e_{n-1}| and ln|e_{n+1}/e_n| at every n, with
    the epsilon and log of the first error's number type.  A NaN or infinite
    error ends the usable prefix, as the floor does."""
    if trace.known_root is None:
        raise InsufficientData("no root")
    errors = tuple(x - trace.known_root for x, _ in trace.pairs)
    context = getattr(errors[0], "context", None) if errors else None
    eps, log = (sys.float_info.epsilon, math.log) if context is None else (context.eps, context.ln)
    floor = 1e3 * eps * max(1.0, abs(trace.known_root))
    errs = []
    for e in errors:
        if abs(e) <= floor or not math.isfinite(e):
            break
        errs.append(e)
    if len(errs) < 4:
        raise InsufficientData("too few")
    orders = []
    for n in range(1, len(errs) - 1):
        den = log(abs(errs[n] / errs[n - 1]))
        if den == 0.0:
            break
        orders.append(log(abs(errs[n + 1] / errs[n])) / den)
    if not orders:
        raise InsufficientData("no ratios")
    constants = [errs[n + 1] / (errs[n] * errs[n]) for n in range(len(errs) - 1)]
    return tuple(orders), tuple(constants)


# One error at a time: mostly a fresh magnitude, sometimes the previous one
# again (so ln|e_n/e_{n-1}| is exactly 0), or the floor around the root of
# the number type, or just above it, or an infinite or NaN error.
_KINDS = ["fresh"] * 12 + ["repeat"] * 2 + ["floor", "above floor", "inf", "nan"]
_error_atoms = st.tuples(st.sampled_from(_KINDS), st.floats(min_value=1e-12, max_value=1e3))

# Number type -> (conversion, epsilon).  A Fraction has no inf or NaN, so
# those stay floats; mpf values are made and estimated at mp.dps = 50.
_NUMBERS = {
    "float": (float, lambda: sys.float_info.epsilon),
    "mpf": (mpmath.mpf, lambda: mpmath.mp.eps),
    "Fraction": (lambda v: Fraction(v) if math.isfinite(v) else v, lambda: sys.float_info.epsilon),
}
try:
    import numpy
    _NUMBERS["float64"] = (numpy.float64, lambda: sys.float_info.epsilon)
except ImportError:  # numpy is in the test extra; without it the other types still run
    pass


def _errors_of(atoms, root, eps=sys.float_info.epsilon):
    floor = 1e3 * eps * max(1.0, abs(root))
    above = math.nextafter(floor, math.inf) if type(floor) is float else floor * (1 + 2 * eps)
    errors, magnitude = [], 1.0
    for kind, value in atoms:
        magnitude = {"fresh": value, "repeat": magnitude, "floor": floor, "above floor": above,
                     "inf": math.inf, "nan": math.nan}[kind]
        errors.append(magnitude)
    return errors


@given(
    atoms=st.lists(_error_atoms, min_size=4, max_size=12),
    signs=st.lists(st.booleans(), min_size=12, max_size=12),
    root=st.sampled_from([0.0, -3.0, math.pi / 6.0]),
    number=st.sampled_from(sorted(_NUMBERS)),
)
@settings(max_examples=400)
def test_one_pass_estimate_equals_the_two_log_estimate(atoms, signs, root, number):
    # Every number type gives the same estimate as the generic two-log one,
    # float's fast path included.
    convert, eps = _NUMBERS[number]
    with mpmath.workdps(50):
        root = convert(root)
        magnitudes = _errors_of(atoms, root, eps())
        errors = [convert(-e if neg else e) for e, neg in zip(magnitudes, signs)]
        trace = IterationTrace.from_points([(root + e, e) for e in errors], known_root=root)
        try:
            expected = _two_log_estimate(trace)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                estimate_order(trace)
            return
        est = estimate_order(trace)
        # bit for bit: repr round-trips every float and every mpf
        assert [repr(r) for r in est.orders] == [repr(r) for r in expected[0]]
        assert [repr(c) for c in est.constant_estimates] == [repr(c) for c in expected[1]]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", [2, 3])
def test_nonfinite_error_ends_the_usable_prefix(bad, at):
    # Four usable points before the non-finite one are needed; three are not,
    # whatever follows.
    xs = [5.0, 3.0, 2.0, 1.5, 1.25, 1.125]
    xs.insert(at, bad)
    with pytest.raises(InsufficientData):
        estimate_order(IterationTrace.from_points([(x, 1.0) for x in xs], 1.0))
    xs[at] = 1.75
    assert estimate_order(IterationTrace.from_points([(x, 1.0) for x in xs], 1.0)).usable_steps == 6


# ---------------------------------------------------------------------------
# predicted_constant

def test_predicted_constant_values(problems, sq):
    assert predicted_constant(sq, 0.0) == pytest.approx(1.0, abs=1e-8)
    # log: f'(1) = 1, f''(1) = -1, so mu = 1 cancels the constant
    assert predicted_constant(problems["log"], 1.0) == pytest.approx(0.0, abs=1e-8)
    # exp: f''(1)/f'(1) = -2
    assert predicted_constant(problems["exp"], 2.0) == pytest.approx(0.0, abs=1e-7)


# ---------------------------------------------------------------------------
# verify_quadratic_convergence

# Problems whose prediction raises: the estimate stays, the prediction and
# its relative error are None.  Each: (problem, mu, x0, |order - 2|).
NO_PREDICTION = {
    # f'(x*) is not a finite real: predicted_constant raises NonFiniteValue
    "df raises at x*": (abs_sq(lambda x: (x + 2.0 * x * abs(x)) / x), 0.5, 0.3, 0.380),
    "df is NaN at x*": (abs_sq(lambda x: math.nan if x == 0.0 else 1.0 + 2.0 * abs(x)),
                        0.5, 0.3, 0.380),
    # no derivative: predicted_constant raises MissingDerivative
    "no df": (ProblemSpec(name="noderiv", f=lambda x: x * x - 1.0, domain=WIDE,
                          known_root=1.0, default_x0=1.5), 0.5, 1.5, 0.378),
    # a triple root: f'(x*) = 0 raises DerivativeZero, and the scheme is linear
    "x^3": (ProblemSpec(name="cube", f=lambda x: x ** 3, df=lambda x: 3.0 * x * x,
                        domain=WIDE, known_root=0.0, default_x0=1.5), 0.5, 1.5, 1.0),
}


@pytest.mark.parametrize("case", sorted(NO_PREDICTION))
def test_report_keeps_its_estimate_without_a_prediction(case):
    p, mu, x0, gap = NO_PREDICTION[case]
    report = verify_quadratic_convergence(p, mu, x0, SolverConfig(epsilon=1e-14))
    assert report.outcome.converged
    assert report.estimate is not None
    assert report.order_gap == pytest.approx(gap, abs=1e-3)
    assert report.predicted is None
    assert report.constant_rel_error is None
    assert "predicted" not in report.to_text()


# id -> (call, what it raises, the whole message): what estimate_order and predicted_constant
# refuse, the latter on NO_PREDICTION's problems among others
ANALYSIS_REFUSALS = {
    # an exact zero ends the usable prefix, so only 2 points remain
    "exact-zero": (partial(estimate_order, synthetic_trace([1e-1, 1e-2, 0.0, 0.5])),
                   InsufficientData, "need at least 4 usable points, have 2"),
    "three-points": (partial(estimate_order, synthetic_trace([1e-1, 1e-2, 1e-4])),
                     InsufficientData, "need at least 4 usable points, have 3"),
    # |e_n| exactly constant: no ratio carries order information
    "stalled": (partial(estimate_order, synthetic_trace([0.1, -0.1, 0.1, -0.1])),
                InsufficientData, "no informative error ratios (|e_n| is not shrinking)"),
    "no-root-trace": (partial(estimate_order, IterationTrace.from_points([(1.0, 0.5), (0.9, 0.2)],
                                                                         known_root=None)),
                      InsufficientData, "trace has no error sequence (problem lacks a known root)"),
    "predicted-no-df": (partial(predicted_constant, NO_PREDICTION["no df"][0], 0.0),
                        MissingDerivative, "problem 'noderiv' has no derivative evaluator"),
    "predicted-no-root": (partial(predicted_constant,
                                  ProblemSpec(name="noroot", f=lambda x: x * x - 1.0,
                                              df=lambda x: 2.0 * x, domain=WIDE, default_x0=1.5),
                                  0.0), ValueError, "problem 'noroot' has no known root"),
    "predicted-flat-root": (partial(predicted_constant, NO_PREDICTION["x^3"][0], 0.0),
                            DerivativeZero, "f'(x*) is 0 at x* = 0.0"),
    **{f"predicted-{case}": (partial(predicted_constant, NO_PREDICTION[case][0], 0.5),
                             NonFiniteValue, "f'(0.0) is not a finite real")
       for case in ("df raises at x*", "df is NaN at x*")},
}


@pytest.mark.parametrize("case", ANALYSIS_REFUSALS)
def test_analysis_refusals(case):
    call, error, message = ANALYSIS_REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_report_x0_is_the_first_trace_point(quart):
    report = verify_quadratic_convergence(quart, 1.5, 0.3)
    assert report.x0 == report.outcome.pairs[0][0] == 0.3


def test_report_carries_divergence_as_verdict(problems):
    # mu = 0 from x0 = 5: the bootstrap hop leaves the interval
    report = verify_quadratic_convergence(problems["log"], 0.0, 5.0)
    assert report.outcome.verdict == "divergence"
    assert report.estimate is None
    assert report.order_gap is None and report.constant_rel_error is None
    assert report.x0 == report.outcome.pairs[0][0] == 5.0
    assert "not estimable" in report.to_text()


def test_report_scheme_is_forced_to_two_point(problems):
    # the cfg's scheme field is overridden; passing a newton cfg still
    # analyses the two-point scheme
    cfg = SolverConfig(scheme="newton", epsilon=1e-13)
    report = verify_quadratic_convergence(problems["log"], 1.0, 1.5, cfg)
    assert report.outcome.converged
    assert report.estimate is not None


def _report_through_replace(p, mu, x0, cfg):
    """The report verify_quadratic_convergence gives when it rebuilds every
    cfg with dataclasses.replace, as it did before it reused a matching one."""
    outcome = run(p, dataclasses.replace(cfg, scheme="secant_dyn", mu=mu), x0)
    assert outcome.converged
    return ConvergenceReport(p.name, mu, outcome, estimate_order(outcome.trace),
                             predicted_constant(p, mu))


# Each: the cfg's scheme and mu, and an equal mu passed with it (None: cfg.mu
# itself).  Only a secant_dyn cfg with cfg.mu itself is reused; the rest go
# through replace.
_CFG_MUS = {
    "mu is cfg.mu": ("secant_dyn", 1.25, None),
    "an equal float": ("secant_dyn", 1.25, float("1.25")),
    "0.0 against -0.0": ("secant_dyn", -0.0, 0.0),
    "an mpf against a float": ("secant_dyn", 1.25, mpmath.mpf(1.25)),
    "a newton cfg": ("newton", 1.25, None),
}


@pytest.mark.parametrize("case", _CFG_MUS)
def test_report_equals_the_one_built_through_replace(case, problems):
    scheme, cfg_mu, given = _CFG_MUS[case]
    cfg = SolverConfig(scheme=scheme, mu=cfg_mu, epsilon=1e-13)
    mu = cfg.mu if given is None else given
    assert mu == cfg.mu and (mu is cfg.mu) == (given is None)
    p = problems["log"]
    report = verify_quadratic_convergence(p, mu, 1.5, cfg)
    expected = _report_through_replace(p, mu, 1.5, cfg)
    assert report.mu is mu
    assert report.outcome == expected.outcome
    assert repr(report.outcome.pairs) == repr(expected.outcome.pairs)
    assert report.estimate == expected.estimate
    assert report.to_text() == expected.to_text()


@pytest.mark.parametrize("case", _CFG_MUS)
def test_report_runs_traced_whatever_cfg_it_is_given(case, problems):
    scheme, cfg_mu, given = _CFG_MUS[case]
    cfg = SolverConfig(scheme=scheme, mu=cfg_mu, epsilon=1e-13)
    mu = cfg.mu if given is None else given
    p = problems["log"]
    report = verify_quadratic_convergence(p, mu, 1.5, cfg)
    untraced = verify_quadratic_convergence(p, mu, 1.5, cfg._replace(trace=False))
    assert report.estimate is not None
    assert untraced == report
    assert repr(untraced.outcome.pairs) == repr(report.outcome.pairs)
    assert untraced.to_text() == report.to_text()


def test_report_reuses_a_matching_cfg_without_replace(monkeypatch, problems):
    def no_replace(*args, **kwargs):
        raise AssertionError("replace called")

    monkeypatch.setattr(SolverConfig, "_replace", no_replace)
    cfg = SolverConfig(mu=1.0, epsilon=1e-13)
    assert verify_quadratic_convergence(problems["log"], cfg.mu, 1.5, cfg).outcome.converged
    # another mu, or another scheme, still rebuilds the cfg
    with pytest.raises(AssertionError, match="replace called"):
        verify_quadratic_convergence(problems["log"], 0.5, 1.5, cfg)
    with pytest.raises(AssertionError, match="replace called"):
        newton = SolverConfig(scheme="newton", mu=1.0, epsilon=1e-13)
        verify_quadratic_convergence(problems["log"], newton.mu, 1.5, newton)
    with pytest.raises(AssertionError, match="replace called"):
        untraced = SolverConfig(mu=1.0, epsilon=1e-13, trace=False)
        verify_quadratic_convergence(problems["log"], untraced.mu, 1.5, untraced)


# ---------------------------------------------------------------------------
# "higher accuracy", quotient for quotient

# problem -> (iterates compared, those where the two-point quotient is closer to f'(x_n), of them
# those whose probe is undefined, iterates with |x_n - x*| > 0.1, the two-point closer among
# those, and the median relative errors, two-point and Zheng's), over secant_dyn's own runs at
# the benchmark's mu and epsilon 1e-10 from the 201 default starts
QUOTIENT_TALLIES = {
    "log": (1032, 63, 28, 258, 63, ("1.3e-02", "8.9e-04")),
    "exp": (4715, 453, 0, 3441, 249, ("4.4e-01", "1.1e-03")),
    "trig": (1008, 312, 0, 144, 82, ("2.6e-03", "9.5e-04")),
}


@pytest.mark.parametrize("name", QUOTIENT_TALLIES)
def test_zheng_quotient_is_closer_to_the_derivative_at_most_iterates(problems, name):
    # The paper calls its two-point quotient (f_n - f_{n-1})/(x_n - x_{n-1}) the more accurate.
    # At the same iterates of its own scheme, Zheng's probe quotient (f(x_n + f_n) - f_n)/f_n is
    # closer to f'(x_n) at most of them, on each of the paper's problems.  Both denominators
    # carry the same mu f term, so only the derivative estimates differ.  A probe that f
    # refuses, or whose quotient is not finite, has an infinite error: the two-point is closer.
    p = problems[name]
    cfg = SolverConfig(scheme="secant_dyn", mu=BENCH_MU[name, "secant_dyn"], epsilon=1e-10)
    rows = []  # per iterate: the two-point and Zheng relative errors, and whether it is far
    for x0 in default_x0_axis(p, 201):
        pairs = run(p, cfg, x0).pairs
        for (x_prev, f_prev), (x, fx) in zip(pairs, pairs[1:]):
            if x == x_prev or fx == 0.0:
                continue
            d = p.df(x)
            try:
                zheng = abs(((p.f(x + fx) - fx) / fx - d) / d)
            except NONFINITE_ERRORS:
                zheng = math.inf
            rows.append((abs(((fx - f_prev) / (x - x_prev) - d) / d),
                         zheng if math.isfinite(zheng) else math.inf,
                         abs(x - p.known_root) > 0.1))
    closer = [far for two_point, zheng, far in rows if two_point < zheng]
    undefined = sum(zheng == math.inf for _, zheng, _ in rows)
    medians = tuple(f"{statistics.median(errors):.1e}" for errors in list(zip(*rows))[:2])
    assert (len(rows), len(closer), undefined, sum(far for *_, far in rows), sum(closer),
            medians) == QUOTIENT_TALLIES[name]
