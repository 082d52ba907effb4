import pytest

from rootflow import (
    DerivativeZero,
    InsufficientData,
    IterationTrace,
    MissingDerivative,
    ProblemSpec,
    SolverConfig,
    estimate_order,
    predicted_constant,
    run,
    secant_step,
    verify_quadratic_convergence,
)

WIDE = (-1e9, 1e9)


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


def test_exact_zero_truncates():
    with pytest.raises(InsufficientData):
        estimate_order(synthetic_trace([1e-1, 1e-2, 0.0, 0.5]))


def test_insufficient_points():
    with pytest.raises(InsufficientData):
        estimate_order(synthetic_trace([1e-1, 1e-2, 1e-4]))


def test_stalled_errors_are_uninformative():
    # |e_n| exactly constant: no ratio carries order information
    with pytest.raises(InsufficientData):
        estimate_order(synthetic_trace([0.1, -0.1, 0.1, -0.1]))


def test_trace_without_errors_is_rejected():
    trace = IterationTrace.from_points([(1.0, 0.5), (0.9, 0.2)], known_root=None)
    with pytest.raises(InsufficientData):
        estimate_order(trace)


def test_constants_keep_their_sign():
    est = estimate_order(synthetic_trace([1e-1, -1e-2, 1e-4, -1e-8]))
    assert est.constant_estimates[0] < 0.0
    assert est.constant_estimates[1] > 0.0


def test_newton_iteration_measures_quadratic(sq):
    out = run(sq, SolverConfig(scheme="newton", epsilon=1e-14, max_iters=60), 2.0)
    est = estimate_order(out.trace)
    assert 1.9 <= est.final_order <= 2.1
    # the classical Newton constant f''/(2 f') = 0.5 for x^2 - 1
    assert est.final_constant == pytest.approx(0.5, rel=1e-2)


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


def test_two_point_scheme_with_zero_mu_also_measures_golden_ratio(sq):
    # bit-identical to the secant method, so the measured order is phi, not 2
    out = run(sq, SolverConfig(scheme="secant_dyn", mu=0.0, epsilon=1e-14, max_iters=60), 1.5)
    est = estimate_order(out.trace)
    assert 1.55 <= est.final_order <= 1.70
    # and the quadratic constant ratios blow up accordingly
    assert abs(est.constant_estimates[-1]) > abs(est.constant_estimates[0])


# ---------------------------------------------------------------------------
# predicted_constant

def test_predicted_constant_values(problems, sq):
    assert predicted_constant(sq, 0.0) == pytest.approx(1.0, abs=1e-8)
    # log: f'(1) = 1, f''(1) = -1, so mu = 1 cancels the constant
    assert predicted_constant(problems["log"], 1.0) == pytest.approx(0.0, abs=1e-8)
    # exp: f''(1)/f'(1) = -2
    assert predicted_constant(problems["exp"], 2.0) == pytest.approx(0.0, abs=1e-7)


def test_predicted_constant_requires_derivative_and_root():
    p = ProblemSpec(name="noderiv", f=lambda x: x * x - 1.0, domain=WIDE,
                    known_root=1.0, default_x0=1.5)
    with pytest.raises(MissingDerivative):
        predicted_constant(p, 0.0)
    q = ProblemSpec(name="noroot", f=lambda x: x * x - 1.0, df=lambda x: 2.0 * x,
                    domain=WIDE, default_x0=1.5)
    with pytest.raises(ValueError):
        predicted_constant(q, 0.0)


def test_predicted_constant_rejects_flat_root():
    cube = ProblemSpec(name="cube", f=lambda x: x ** 3, df=lambda x: 3.0 * x * x,
                       domain=WIDE, known_root=0.0, default_x0=0.5)
    with pytest.raises(DerivativeZero):
        predicted_constant(cube, 0.0)


# ---------------------------------------------------------------------------
# verify_quadratic_convergence

def test_quadratic_claim_holds_when_second_derivative_vanishes(quart):
    # f = x + x^4 has f''(0) = f'''(0) = 0, so the two-point scheme really is
    # quadratic there with constant exactly mu
    cfg = SolverConfig(scheme="secant_dyn", epsilon=1e-15, max_iters=100)
    report = verify_quadratic_convergence(quart, 1.5, 0.3, cfg)
    assert report.outcome.converged
    assert report.predicted == pytest.approx(1.5, abs=1e-6)
    assert 1.9 <= report.estimate.final_order <= 2.1
    assert report.constant_rel_error <= 0.15
    assert report.order_gap <= 0.1


# Problems whose prediction raises: the estimate stays, the prediction and
# its relative error are None.  Each: (problem, mu, x0, |order - 2|).
NO_PREDICTION = {
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


def test_report_x0_is_the_first_trace_point(quart):
    report = verify_quadratic_convergence(quart, 1.5, 0.3)
    assert report.x0 == report.outcome.pairs[0][0] == 0.3


def test_report_carries_divergence_as_verdict(problems):
    # mu = 0 from x0 = 5: the bootstrap hop leaves the interval
    report = verify_quadratic_convergence(problems["log"], 0.0, 5.0)
    assert report.outcome.verdict == "diverged"
    assert report.estimate is None
    assert report.order_gap is None and report.constant_rel_error is None
    assert report.x0 == report.outcome.pairs[0][0] == 5.0
    assert "not estimable" in report.to_text()


def test_report_text_is_complete(quart):
    cfg = SolverConfig(scheme="secant_dyn", epsilon=1e-15, max_iters=100)
    text = verify_quadratic_convergence(quart, 1.5, 0.3, cfg).to_text()
    for needle in ("problem", "final order", "final const", "predicted", "|order - 2|"):
        assert needle in text


def test_report_scheme_is_forced_to_two_point(problems):
    # the cfg's scheme field is overridden; passing a newton cfg still
    # analyses the two-point scheme
    cfg = SolverConfig(scheme="newton", epsilon=1e-13)
    report = verify_quadratic_convergence(problems["log"], 1.0, 1.5, cfg)
    assert report.outcome.converged
    assert report.estimate is not None
