"""Empirical convergence-order and error-constant estimation.

Given an iteration trace with known errors e_n = x_n - x*, the estimator
computes the standard computational order of convergence

    rho_n = ln|e_{n+1}/e_n| / ln|e_n/e_{n-1}|

and the quadratic error-constant ratios c_n = e_{n+1}/e_n^2.  For the
parameterized two-point scheme the limit of c_n predicted by the local
expansion is mu + f''(x*)/f'(x*); :func:`predicted_constant` evaluates it
from the problem's exact derivative, differencing once for f''.

Steps below the saturation floor (about 1e3 machine epsilons around the
root) are rounding noise and are excluded from all estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .problems import ProblemSpec
from .solvers import DerivativeZero, IterationTrace, RunOutcome, SolverConfig, run

SATURATION_FLOOR_FACTOR = 1e3 * sys.float_info.epsilon
SECOND_DERIVATIVE_STEP_FACTOR = 1e-5
DERIVATIVE_FLOOR = 1e-12
MIN_USABLE_POINTS = 4


class InsufficientData(Exception):
    """Too few usable trace points to estimate an order."""


class MissingDerivative(Exception):
    """The operation needs the problem's exact derivative, which is absent."""


@dataclass(frozen=True)
class OrderEstimate:
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


def _usable_errors(trace: IterationTrace) -> list[float]:
    errors = trace.errors
    if errors is None:
        raise InsufficientData("trace has no error sequence (problem lacks a known root)")
    floor = SATURATION_FLOOR_FACTOR * max(1.0, abs(trace.known_root))
    usable = []
    for e in errors:
        # An exact zero or a sub-floor error ends the asymptotically
        # meaningful prefix; everything after it is rounding noise.
        if abs(e) <= floor:
            break
        usable.append(e)
    return usable


def estimate_order(trace: IterationTrace) -> OrderEstimate:
    """Estimate the convergence order and error constant from a trace.

    Requires at least four usable points (errors above the saturation
    floor, before any exact zero); raises InsufficientData otherwise.
    """
    errs = _usable_errors(trace)
    if len(errs) < MIN_USABLE_POINTS:
        raise InsufficientData(
            f"need at least {MIN_USABLE_POINTS} usable points, have {len(errs)}"
        )
    orders = []
    for n in range(1, len(errs) - 1):
        den = math.log(abs(errs[n] / errs[n - 1]))
        if den == 0.0:
            break
        orders.append(math.log(abs(errs[n + 1] / errs[n])) / den)
    if not orders:
        raise InsufficientData("no informative error ratios (|e_n| is not shrinking)")
    constants = [errs[n + 1] / (errs[n] * errs[n]) for n in range(len(errs) - 1)]
    return OrderEstimate(orders=tuple(orders), constant_estimates=tuple(constants))


def predicted_constant(p: ProblemSpec, mu: float) -> float:
    """Predicted limit of e_{n+1}/e_n^2: mu + f''(x*)/f'(x*).

    f''(x*) is obtained by central differencing the exact derivative with
    step 1e-5 * max(1, |x*|).
    """
    if p.known_root is None:
        raise ValueError(f"problem {p.name!r} has no known root")
    if p.df is None:
        raise MissingDerivative(f"problem {p.name!r} has no derivative evaluator")
    root = p.known_root
    fp = p.df(root)
    if abs(fp) < DERIVATIVE_FLOOR:
        raise DerivativeZero(f"|f'(x*)| = {abs(fp):.3e} below {DERIVATIVE_FLOOR:.0e}")
    h = SECOND_DERIVATIVE_STEP_FACTOR * max(1.0, abs(root))
    fpp = (p.df(root + h) - p.df(root - h)) / (2.0 * h)
    return mu + fpp / fp


@dataclass(frozen=True)
class ConvergenceReport:
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
        lines = [
            f"problem      : {self.problem}",
            f"mu           : {self.mu:.17g}",
            f"x0           : {self.x0:.17g}",
            f"verdict      : {self.outcome.verdict} ({self.outcome.reason})",
            f"iterations   : {self.outcome.iterations}",
            f"final_x      : {self.outcome.final_x:.17g}",
        ]
        if self.estimate is None:
            lines.append("order        : not estimable (diverged or too short)")
        else:
            est = self.estimate
            lines.append(f"usable steps : {est.usable_steps}")
            lines.append("orders       : " + " ".join(f"{r:.6f}" for r in est.orders))
            lines.append("constants    : " + " ".join(f"{c:.6g}" for c in est.constant_estimates))
            lines.append(f"final order  : {est.final_order:.6f}")
            lines.append(f"final const  : {est.final_constant:.6g}")
            if self.predicted is not None:
                lines.append(f"predicted    : {self.predicted:.6g}")
                lines.append(f"const relerr : {self.constant_rel_error:.6g}")
            lines.append(f"|order - 2|  : {self.order_gap:.6f}")
        return "\n".join(lines)


def verify_quadratic_convergence(
    p: ProblemSpec, mu: float, x0: float, cfg: SolverConfig | None = None
) -> ConvergenceReport:
    """Run the parameterized two-point scheme and compare its asymptotics
    against the predicted quadratic error constant.

    A divergent run is reported as a verdict, not raised.  The comparison
    metrics are |final_constant - predicted| / max(1, |predicted|) and
    |final_order - 2|.  For the estimates to reach the asymptotic regime,
    the configuration should use a much tighter epsilon than the solve
    default (1e-13 is used when cfg is omitted).
    """
    cfg = replace(cfg or SolverConfig(epsilon=1e-13), scheme="secant_dyn", mu=mu)
    outcome = run(p, cfg, x0)
    estimate = predicted = None
    if outcome.converged:
        # Without a known root the estimate fails first, so the prediction
        # always has a root to use.
        try:
            estimate = estimate_order(outcome.trace)
            predicted = predicted_constant(p, mu)
        except (InsufficientData, MissingDerivative, DerivativeZero):
            pass
    return ConvergenceReport(p.name, mu, outcome, estimate, predicted)
