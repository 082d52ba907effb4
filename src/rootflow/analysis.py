"""Empirical convergence-order and error-constant estimation.

Given an iteration trace with known errors e_n = x_n - x*, the estimator
computes the standard computational order of convergence

    rho_n = ln|e_{n+1}/e_n| / ln|e_n/e_{n-1}|

and the quadratic error-constant ratios c_n = e_{n+1}/e_n^2.
:func:`predicted_constant` evaluates the paper's claimed limit of c_n for the
parameterized two-point scheme, mu + f''(x*)/f'(x*), from the problem's exact
derivative, differencing once for f''.  Acceptance checks 3 and 4 test that
claim, and it fails.  The 400-digit oracle rows in ``tests/test_oracle.py``
show what the scheme does: where f''(x*) != 0 its order is the golden ratio,
with e_{n+1}/(e_n e_{n-1}) -> f''(x*)/(2 f'(x*)) for any mu, so c_n does not
settle.

:func:`estimate_order` reads the trace in one pass, taking each logarithm
once.  The first error at or below the saturation floor (1e3 epsilons of
the errors' own number type around the root: a float's, or an mpmath
value's ``context.eps``) ends the usable prefix, as does the first NaN or
infinite error; what follows is rounding noise, excluded from all
estimates.  The logarithms are taken in the same number type, so a trace
is estimated at its own precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from .problems import MissingDerivative, NonFiniteValue, ProblemSpec, eval_df
from .solvers import IterationTrace, RunOutcome, SolverConfig, run

SATURATION_FLOOR_EPSILONS = 1e3
SECOND_DERIVATIVE_STEP_FACTOR = 1e-5
MIN_USABLE_POINTS = 4


class InsufficientData(Exception):
    """Too few usable trace points to estimate an order."""


class DerivativeZero(Exception):
    """f'(x*) is exactly zero, so the predicted error constant is undefined."""


class OrderEstimate(NamedTuple):
    """Per-step order estimates and quadratic constant ratios.

    ``final_order`` and ``final_constant`` are the last entries computed
    before the saturation floor; no extrapolation is applied.  Constants are
    signed.  ``usable_steps`` counts the error transitions that entered the
    estimates.
    """

    orders: tuple[float, ...]
    constant_estimates: tuple[float, ...]

    @property
    def final_order(self) -> float:
        return self.orders[-1]

    @property
    def final_constant(self) -> float:
        return self.constant_estimates[-1]

    @property
    def usable_steps(self) -> int:
        return len(self.constant_estimates)


def _arithmetic(v) -> tuple[float, Callable]:
    """Epsilon and natural log of v's number type: a float's, or an mpmath context's."""
    context = None if type(v) is float else getattr(v, "context", None)
    return (sys.float_info.epsilon, math.log) if context is None else (context.eps, context.ln)


def estimate_order(trace: IterationTrace) -> OrderEstimate:
    """Estimate the convergence order and error constant from a trace.

    Requires at least four usable points (finite errors above the saturation
    floor, before any exact zero); raises InsufficientData otherwise.  The
    floor and the logarithm come from the first error's number type.
    """
    root = trace.known_root
    if root is None:
        raise InsufficientData("trace has no error sequence (problem lacks a known root)")
    pairs = trace.pairs
    e0 = pairs[0][0] - root if pairs else root
    eps, log = (sys.float_info.epsilon, math.log) if type(e0) is float else _arithmetic(e0)
    floor = SATURATION_FLOOR_EPSILONS * eps * max(1.0, abs(root))
    inf = math.inf
    orders, constants = [], []
    e_prev = log_prev = None
    for x, _ in pairs:
        e = x - root
        # An exact zero, a sub-floor error or a NaN or infinite one ends the
        # asymptotically meaningful prefix; everything after it is noise.
        if not floor < abs(e) < inf:
            break
        if e_prev is not None:
            constants.append(e / (e_prev * e_prev))
            # Each ln|e_{n+1}/e_n| is computed once; the order at n is the
            # next one over the previous one, until a previous one is 0.
            if log_prev != 0.0:
                log_e = log(abs(e / e_prev))
                if log_prev is not None:
                    orders.append(log_e / log_prev)
                log_prev = log_e
        e_prev = e
    usable = len(constants) + (e_prev is not None)
    if usable < MIN_USABLE_POINTS:
        raise InsufficientData(f"need at least {MIN_USABLE_POINTS} usable points, have {usable}")
    if not orders:
        raise InsufficientData("no informative error ratios (|e_n| is not shrinking)")
    # tuple.__new__ skips the NamedTuple's __new__, a Python function that only calls it.
    return tuple.__new__(OrderEstimate, (tuple(orders), tuple(constants)))


def predicted_constant(p: ProblemSpec, mu: float) -> float:
    """The paper's claimed limit of e_{n+1}/e_n^2 for the two-point scheme: mu + f''(x*)/f'(x*).

    The claim fails (acceptance checks 3 and 4): where f''(x*) != 0 the scheme
    has order phi, and the oracle rows in ``tests/test_oracle.py`` measure
    e_{n+1}/(e_n e_{n-1}) -> f''(x*)/(2 f'(x*)) for any mu instead.

    f''(x*) is the central difference of the exact f' with step 1e-5 * max(1, |x*|) times
    (eps / float eps)^(1/3) for x*'s epsilon, so an mpmath x* takes a smaller step.
    A missing f' raises MissingDerivative, an f' that is not a finite real at x* or
    x* +- h raises NonFiniteValue, and an f'(x*) of exactly zero raises DerivativeZero.
    """
    if p.known_root is None:
        raise ValueError(f"problem {p.name!r} has no known root")
    root = p.known_root
    fp = eval_df(p, root)
    if fp == 0.0:
        raise DerivativeZero(f"f'(x*) is 0 at x* = {root!r}")
    scale = (_arithmetic(root)[0] / sys.float_info.epsilon) ** (1 / 3)  # 1 for a float
    h = SECOND_DERIVATIVE_STEP_FACTOR * max(1.0, abs(root)) * scale
    fpp = (eval_df(p, root + h) - eval_df(p, root - h)) / (2.0 * h)
    return mu + fpp / fp


class ConvergenceReport(NamedTuple):
    """Observed versus predicted asymptotics for one two-point-scheme run.

    Only the run, the estimate and the prediction are stored; x0 and the
    comparison metrics are derived from them.
    """

    problem: str
    mu: float
    outcome: RunOutcome
    estimate: OrderEstimate | None
    predicted: float | None

    @property
    def x0(self) -> float:
        return self.outcome.pairs[0][0]

    @property
    def constant_rel_error(self) -> float | None:
        if self.estimate is None or self.predicted is None:
            return None
        return abs(self.estimate.final_constant - self.predicted) / max(1.0, abs(self.predicted))

    @property
    def order_gap(self) -> float | None:
        return None if self.estimate is None else abs(self.estimate.final_order - 2.0)

    def to_text(self) -> str:
        """The report as aligned lines, each real formatted as a float (an mpf has no :g)."""
        lines = [
            f"problem      : {self.problem}",
            f"mu           : {float(self.mu):.17g}",
            f"x0           : {float(self.x0):.17g}",
            f"verdict      : {self.outcome.verdict} ({self.outcome.reason})",
            f"iterations   : {self.outcome.iterations}",
            f"final_x      : {float(self.outcome.final_x):.17g}",
        ]
        if self.estimate is None:
            lines.append("order        : not estimable (not converged or too short)")
        else:
            est = self.estimate
            lines.append(f"usable steps : {est.usable_steps}")
            lines.append("orders       : " + " ".join(f"{float(r):.6f}" for r in est.orders))
            lines.append("constants    : " + " ".join(f"{float(c):.6g}" for c in est.constant_estimates))
            lines.append(f"final order  : {float(est.final_order):.6f}")
            lines.append(f"final const  : {float(est.final_constant):.6g}")
            if self.predicted is not None:
                lines.append(f"predicted    : {float(self.predicted):.6g}")
                lines.append(f"const relerr : {float(self.constant_rel_error):.6g}")
            lines.append(f"|order - 2|  : {float(self.order_gap):.6f}")
        return "\n".join(lines)


def verify_quadratic_convergence(
    p: ProblemSpec, mu: float, x0: float, cfg: SolverConfig | None = None
) -> ConvergenceReport:
    """Run the parameterized two-point scheme and compare its asymptotics
    against the paper's claimed quadratic error constant.

    The claim is :func:`predicted_constant`'s.  Where f''(x*) != 0 the scheme
    does not meet it, since its order is phi rather than 2.

    A divergent run is reported as a verdict, not raised.  The comparison
    metrics are |final_constant - predicted| / max(1, |predicted|) and
    |final_order - 2|.  For the estimates to reach the asymptotic regime,
    the configuration should use a much tighter epsilon than the solve
    default (1e-13 is used when cfg is omitted).
    """
    if cfg is None:
        cfg = SolverConfig(scheme="secant_dyn", mu=mu, epsilon=1e-13)
    elif cfg.scheme != "secant_dyn" or cfg.mu is not mu:  # else replace would rebuild an equal cfg
        cfg = replace(cfg, scheme="secant_dyn", mu=mu)
    outcome = run(p, cfg, x0)
    estimate = predicted = None
    if outcome.converged:
        # Without a known root the estimate fails first, so the prediction
        # always has a root to use.
        try:
            estimate = estimate_order(outcome.trace)
            predicted = predicted_constant(p, mu)
        except (InsufficientData, MissingDerivative, NonFiniteValue, DerivativeZero):
            pass
    return tuple.__new__(ConvergenceReport, (p.name, mu, outcome, estimate, predicted))
