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
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    eval_df,
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


class DenominatorUnderflow(Exception):
    """The scheme's denominator underflowed below the guard threshold."""


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
        if not isinstance(self.max_iters, int):
            raise ValueError("max iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max iters must be at least 1")

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

    ``iterations`` counts accepted steps: a rejected candidate, or a step
    that cannot be taken, is not one, and neither is the bootstrap pair of a
    two-point scheme.  The rest is derived: ``final_fx`` is the last
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
    # A pair that coincides makes the denominator exactly 0.
    dx = x_curr - x_prev
    den = mu * dx * f_curr + f_curr - f_prev
    if abs(den) < DENOMINATOR_GUARD:
        raise DenominatorUnderflow(f"secant denominator < {DENOMINATOR_GUARD:g} at x = {x_curr!r}")
    return x_curr - f_curr * dx / den


# ---------------------------------------------------------------------------
# public one-step kernels

def newton_step(p: ProblemSpec, x: float) -> float:
    """Classical Newton step x - f(x)/f'(x), the mu = 0, h = 1 case of euler_flow_step."""
    return euler_flow_step(p, x, 0.0, 1.0)


def euler_flow_step(p: ProblemSpec, x: float, mu: float, h: float) -> float:
    """Euler step of the continuation flow: x - h f(x) / (mu f(x) + f'(x))."""
    fx = eval_f(p, x)
    return _flow_update(x, fx, eval_df(p, x), mu, h)


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
    at once).  A step that cannot be taken, because its denominator is below
    ``DENOMINATOR_GUARD``, ends the run converged when the current point is
    an exact root (f(x) == 0; reported as the stop rule's own reason), and
    ``denominator_underflow`` anywhere else.  A domain exit, non-finite
    value or escape beyond ``ESCAPE_BOUND`` yields a diverged verdict; an
    exhausted budget yields ``exhausted``.  The trace records every
    accepted iterate, starting with x0.  ``iterations`` counts accepted
    steps, and ``max_iters`` bounds it: a rejected candidate, or a step
    that cannot be taken, is not counted.

    x0 must lie inside the problem's domain, and a ``newton``, ``wu`` or
    ``euler_flow`` run needs ``p.df``; otherwise ``run`` raises
    ``DomainViolation`` or ``MissingDerivative``, both ``ValueError``.
    Two-point schemes first produce their second starting point via the
    bootstrap policy; that pair is traced but neither counted nor budgeted,
    and the step test skips an ``offset_x0`` one.
    """
    a, b = p.domain
    if not (a <= x0 <= b):
        raise DomainViolation(x0, p.domain, "x0")
    rule = _SCHEME_TABLE[cfg.scheme][0]
    if rule is _FLOW and p.df is None:
        raise MissingDerivative(
            f"scheme {cfg.scheme!r} needs a derivative, problem {p.name!r} has none")
    mu, h = cfg.resolved()
    flow, two_point = rule is _FLOW, rule is _SECANT
    offset_bootstrap = two_point and cfg.bootstrap == "offset_x0"
    stop_on_step = cfg.stop_rule != "residual"
    stop_on_residual = cfg.stop_rule != "step_size"
    epsilon, max_iters = cfg.epsilon, cfg.max_iters

    points: list[tuple[float, float]] = []
    try:
        x, fx = x0, eval_f(p, x0)
        points.append((x, fx))
        # Step 0 is a two-point scheme's bootstrap, outside the budget.
        for step in range(0 if two_point else 1, max_iters + 1):
            if two_point and step:
                candidate = _secant_update(x_prev, f_prev, x, fx, mu)
            elif offset_bootstrap:
                candidate = x - math.copysign(1.0, fx) * epsilon * max(1.0, abs(x))
            elif flow:
                candidate = _flow_update(x, fx, eval_df(p, x), mu, h)
            else:  # the zheng rule, or the zheng_first_step bootstrap
                candidate = _zheng_update(p, x, fx, mu)

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
                    and not (offset_bootstrap and step == 0)):
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
        # The step cannot be taken.  Where f(x) is exactly 0 the current point
        # is a root (the difference quotients are 0/0 there): converged.
        if fx == 0.0:
            reason = REASON_STEP if stop_on_step else REASON_RESIDUAL
        else:
            reason = REASON_UNDERFLOW

    iterations = len(points) - 1 - (two_point and len(points) > 1)
    return RunOutcome(reason, iterations, points, p.known_root)
