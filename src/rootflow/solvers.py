"""Iteration kernels and the driver that applies them until a verdict.

Six schemes share one driver.  ``newton``, ``euler_flow`` and ``wu``
evaluate the derivative; ``zheng``, ``secant_dyn`` and ``secant`` replace
it with a difference quotient and never touch ``df``.  The driver turns
every failure mode (domain exit, blow-up, degenerate denominator,
exhausted budget) into a :class:`RunOutcome` instead of an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .problems import (
    DomainViolation,
    NonFiniteValue,
    ProblemSpec,
    eval_f,
    eval_f_unchecked,
)

# Below this magnitude a denominator is treated as exactly degenerate.
DENOMINATOR_GUARD = 1e-300
# An iterate beyond this magnitude ends the run as escaped.
ESCAPE_BOUND = 1e12

# Three update rules; the other three schemes are parameter aliases of them.
# scheme -> (rule, fixed mu, fixed h), where None takes the config's value.
# Only euler_flow takes h: the zheng and secant updates take a full step.
# newton is the flow step with mu = 0 and h = 1 bit for bit, because 1*f and
# 0*f + f' are exact for finite f.
_FLOW, _ZHENG, _SECANT = "flow", "zheng", "secant"
_SCHEME_TABLE = {
    "newton": (_FLOW, 0.0, 1.0),
    "euler_flow": (_FLOW, None, None),
    "wu": (_FLOW, None, 1.0),
    "zheng": (_ZHENG, None, 1.0),
    "secant_dyn": (_SECANT, None, 1.0),
    "secant": (_SECANT, 0.0, 1.0),
}
SCHEMES = tuple(_SCHEME_TABLE)
BOOTSTRAPS = ("zheng_first_step", "offset_x0")
STOP_RULES = ("step_size", "residual", "either")

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_EXHAUSTED = "exhausted"

REASON_STEP = "step_below_epsilon"
REASON_RESIDUAL = "residual_below_epsilon"
REASON_DOMAIN = "domain_violation"
REASON_NONFINITE = "nonfinite"
REASON_UNDERFLOW = "denominator_underflow"
REASON_ESCAPE = "escape_bound_exceeded"
REASON_MAX_ITERS = "max_iters_reached"

CONVERGED_REASONS = (REASON_STEP, REASON_RESIDUAL)
_VERDICT_OF_REASON = {
    REASON_STEP: VERDICT_CONVERGED,
    REASON_RESIDUAL: VERDICT_CONVERGED,
    REASON_MAX_ITERS: VERDICT_EXHAUSTED,
    REASON_DOMAIN: VERDICT_DIVERGED,
    REASON_NONFINITE: VERDICT_DIVERGED,
    REASON_UNDERFLOW: VERDICT_DIVERGED,
    REASON_ESCAPE: VERDICT_DIVERGED,
}


class DerivativeZero(Exception):
    """|f'(x*)| is too small for the predicted error constant."""


class DenominatorUnderflow(Exception):
    """The scheme's denominator underflowed below the guard threshold."""


class StagnantPair(Exception):
    """The two points of a secant-type pair coincide to machine precision."""


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection and the iteration protocol.

    ``mu`` is the flow parameter of the parameterized denominators; ``newton``
    and ``secant`` run with ``mu = 0``.  ``h`` is the Euler step length;
    every scheme but ``euler_flow`` runs with ``h = 1``.  :meth:`resolved`
    gives the pair a run uses.  ``bootstrap`` picks how the two-point schemes
    obtain their second starting point, and ``stop_rule`` picks the
    smallness test that declares convergence.  Every field is checked here,
    and a bad value raises ``ValueError``.
    """

    scheme: str = "secant_dyn"
    mu: float = 0.0
    h: float = 1.0
    epsilon: float = 1e-5
    max_iters: int = 500
    bootstrap: str = "zheng_first_step"
    stop_rule: str = "step_size"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.bootstrap not in BOOTSTRAPS:
            raise ValueError(f"unknown bootstrap {self.bootstrap!r}; expected one of {BOOTSTRAPS}")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}; expected one of {STOP_RULES}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (0.0 < self.h < math.inf):
            raise ValueError("h must be positive and finite")
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def resolved(self) -> tuple[float, float]:
        """The (mu, h) the scheme runs with: the scheme's fixed values, else the config's."""
        _, mu, h = _SCHEME_TABLE[self.scheme]
        return (self.mu if mu is None else mu, self.h if h is None else h)


class TracePoint(NamedTuple):
    n: int
    x: float
    fx: float


@dataclass(frozen=True)
class IterationTrace:
    """The accepted iterates (n, x_n, f(x_n)), and the root when it is known.

    ``errors`` (x_n - x*, computed on each read) is None without the root.
    """

    points: tuple[TracePoint, ...]
    known_root: float | None = None

    @property
    def errors(self) -> tuple[float, ...] | None:
        if self.known_root is None:
            return None
        return tuple(pt.x - self.known_root for pt in self.points)

    @classmethod
    def from_points(cls, points, known_root: float | None) -> "IterationTrace":
        pts = tuple(TracePoint(i, x, fx) for i, (x, fx) in enumerate(points))
        return cls(points=pts, known_root=known_root)


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """How one solver run ended, and the (x, f(x)) pairs it accepted from x0 on.

    ``iterations`` counts applications of the scheme's recurrence; the
    production of the second starting point of a two-point scheme is a pair
    but not an iteration.  The rest is derived: ``final_fx`` is the last
    pair's f(x), NaN when f(x0) itself is not a finite real, and ``trace``
    is built from the pairs on each read, so callers that need only the
    final point never pay for one.
    """

    reason: str
    iterations: int
    pairs: list[tuple[float, float]] = field(repr=False, hash=False)
    known_root: float | None

    @property
    def verdict(self) -> str:
        return _VERDICT_OF_REASON[self.reason]

    @property
    def converged(self) -> bool:
        return self.reason in CONVERGED_REASONS

    @property
    def final_x(self) -> float:
        return self.pairs[-1][0]

    @property
    def final_fx(self) -> float:
        return self.pairs[-1][1]

    @property
    def trace(self) -> IterationTrace:
        return IterationTrace.from_points(self.pairs, self.known_root)


# ---------------------------------------------------------------------------
# update rules on cached values (single source of the arithmetic, so the
# public kernels and the driver agree bit for bit)

def _flow_update(x: float, fx: float, dfx: float, mu: float, h: float) -> float:
    den = mu * fx + dfx
    if abs(den) < DENOMINATOR_GUARD:
        raise DenominatorUnderflow(f"|mu*f + f'| < {DENOMINATOR_GUARD:g} at x = {x!r}")
    return x - h * fx / den


def _zheng_update(p: ProblemSpec, x: float, fx: float, mu: float) -> float:
    # The probe point x + f(x) may leave the iterate interval; it only needs
    # a finite value.  Group the difference first: the mu*f^2 term can be
    # many orders of magnitude below f(x) and would be absorbed otherwise.
    faux = eval_f_unchecked(p, x + fx)
    den = mu * fx * fx + (faux - fx)
    if abs(den) < DENOMINATOR_GUARD:
        raise DenominatorUnderflow(f"|mu*f^2 + f(x+f) - f| < {DENOMINATOR_GUARD:g} at x = {x!r}")
    return x - fx * fx / den


def _secant_update(x_prev: float, f_prev: float, x_curr: float, f_curr: float, mu: float) -> float:
    dx = x_curr - x_prev
    if abs(dx) < DENOMINATOR_GUARD:
        raise StagnantPair(f"points coincide at x = {x_curr!r}")
    den = mu * dx * f_curr + f_curr - f_prev
    if abs(den) < DENOMINATOR_GUARD:
        raise DenominatorUnderflow(f"secant denominator < {DENOMINATOR_GUARD:g} at x = {x_curr!r}")
    return x_curr - f_curr * dx / den


def _eval_df(p: ProblemSpec, x: float) -> float:
    if p.df is None:
        raise ValueError(f"problem {p.name!r} has no derivative evaluator")
    try:
        value = p.df(x)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteValue(x) from exc
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError) as exc:  # a complex value, or an int past float range
        raise NonFiniteValue(x) from exc
    if not finite:
        raise NonFiniteValue(x)
    return value


# ---------------------------------------------------------------------------
# public one-step kernels

def newton_step(p: ProblemSpec, x: float) -> float:
    """Classical Newton step x - f(x)/f'(x), the mu = 0, h = 1 case of euler_flow_step."""
    return euler_flow_step(p, x, 0.0, 1.0)


def euler_flow_step(p: ProblemSpec, x: float, mu: float, h: float) -> float:
    """Euler step of the continuation flow: x - h f(x) / (mu f(x) + f'(x))."""
    fx = eval_f(p, x)
    return _flow_update(x, fx, _eval_df(p, x), mu, h)


def wu_step(p: ProblemSpec, x: float, mu: float) -> float:
    """Parameterized Newton-like step, the h = 1 case of euler_flow_step."""
    return euler_flow_step(p, x, mu, 1.0)


def zheng_step(p: ProblemSpec, x: float, mu: float) -> float:
    """Derivative-free step with difference quotient over the probe x + f(x).

    x - f(x)^2 / (mu f(x)^2 + f(x + f(x)) - f(x))
    """
    fx = eval_f(p, x)
    return _zheng_update(p, x, fx, mu)


def secant_dyn_step(p: ProblemSpec, x_prev: float, x_curr: float, mu: float) -> float:
    """Derivative-free two-point step with the secant difference quotient.

    x_curr - f(x_curr) (x_curr - x_prev)
          / (mu (x_curr - x_prev) f(x_curr) + f(x_curr) - f(x_prev))
    """
    f_prev = eval_f(p, x_prev)
    f_curr = eval_f(p, x_curr)
    return _secant_update(x_prev, f_prev, x_curr, f_curr, mu)


def secant_step(p: ProblemSpec, x_prev: float, x_curr: float) -> float:
    """Classical secant step, i.e. secant_dyn_step with mu = 0."""
    return secant_dyn_step(p, x_prev, x_curr, 0.0)


# ---------------------------------------------------------------------------
# driver

def run(p: ProblemSpec, cfg: SolverConfig, x0: float) -> RunOutcome:
    """Iterate the configured scheme from x0 until a verdict.

    Convergence is declared by the configured stop rule: ``step_size`` tests
    |x_{n+1} - x_n| <= epsilon, ``residual`` tests |f(x_{n+1})| <= epsilon,
    ``either`` accepts whichever fires first (step reported when both fire
    at once).  Any kernel error, domain exit, non-finite value or escape
    beyond ``ESCAPE_BOUND`` yields a diverged verdict; an exhausted budget
    yields ``exhausted``.  The trace records every accepted iterate,
    starting with x0.

    x0 must lie inside the problem's domain, and a ``newton``, ``wu`` or
    ``euler_flow`` run needs ``p.df``; otherwise ``run`` raises
    ``ValueError``.  Two-point schemes first produce their second starting
    point via the bootstrap policy; that production is traced but not
    counted in ``iterations``, and the step test skips an ``offset_x0`` one.
    """
    a, b = p.domain
    if not (a <= x0 <= b):
        raise DomainViolation(x0, p.domain, "x0")
    rule = _SCHEME_TABLE[cfg.scheme][0]
    if rule is _FLOW and p.df is None:
        raise ValueError(f"scheme {cfg.scheme!r} needs a derivative, problem {p.name!r} has none")
    mu, h = cfg.resolved()
    flow, two_point = rule is _FLOW, rule is _SECANT
    offset_bootstrap = two_point and cfg.bootstrap == "offset_x0"
    stop_on_step = cfg.stop_rule != "residual"
    stop_on_residual = cfg.stop_rule != "step_size"
    epsilon, max_iters = cfg.epsilon, cfg.max_iters

    points: list[tuple[float, float]] = []
    applications = 0
    try:
        x, fx = x0, eval_f(p, x0)
        points.append((x, fx))
        while applications < max_iters:
            if two_point:
                if applications:
                    candidate = _secant_update(x_prev, f_prev, x, fx, mu)
                elif offset_bootstrap:
                    candidate = x - math.copysign(1.0, fx) * epsilon * max(1.0, abs(x))
                else:
                    candidate = _zheng_update(p, x, fx, mu)
            elif flow:
                candidate = _flow_update(x, fx, _eval_df(p, x), mu, h)
            else:
                candidate = _zheng_update(p, x, fx, mu)
            applications += 1

            if not math.isfinite(candidate):
                reason = REASON_NONFINITE
                break
            if not (a <= candidate <= b):
                reason = REASON_DOMAIN
                break
            if abs(candidate) > ESCAPE_BOUND:
                reason = REASON_ESCAPE
                break
            f_cand = eval_f(p, candidate)
            points.append((candidate, f_cand))
            x_prev, f_prev, x, fx = x, fx, candidate, f_cand

            # The offset bootstrap's step is epsilon-sized by construction,
            # so the step test would pass on it without any iteration.
            if (stop_on_step and abs(x - x_prev) <= epsilon
                    and not (offset_bootstrap and applications == 1)):
                reason = REASON_STEP
                break
            if stop_on_residual and abs(fx) <= epsilon:
                reason = REASON_RESIDUAL
                break
        else:
            reason = REASON_MAX_ITERS
    except NonFiniteValue:
        reason = REASON_NONFINITE
        if not points:  # f(x0) itself is not a finite real
            points.append((x0, math.nan))
    except DenominatorUnderflow:
        reason = REASON_UNDERFLOW
    except StagnantPair:
        # The pair gap is below any sensible epsilon, so under a step-based
        # rule this is convergence.  Under the residual rule the current
        # point's residual has already failed its test.
        reason = REASON_STEP if stop_on_step else REASON_UNDERFLOW

    # The bootstrap production of a two-point scheme is not an iteration.
    iterations = applications - 1 if two_point and applications else applications
    return RunOutcome(reason, iterations, points, p.known_root)
