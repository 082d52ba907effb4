"""Iteration kernels and the driver that applies them until a verdict.

Six schemes share one driver.  ``newton``, ``euler_flow`` and ``wu``
evaluate the derivative; ``zheng``, ``secant_dyn`` and ``secant`` replace
it with a difference quotient and never touch ``df``.  The driver turns
every failure mode (domain exit, blow-up, degenerate denominator,
exhausted budget) into a :class:`RunOutcome` instead of an exception.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import NamedTuple

from .problems import (
    NONFINITE_ERRORS,
    DomainViolation,
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    _Record,
    eval_df,
    eval_f,
    eval_f_unchecked,
)

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
_CHOICE_FIELDS = (("scheme", SCHEMES), ("bootstrap", BOOTSTRAPS), ("stop_rule", STOP_RULES))

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "divergence"
VERDICT_EXHAUSTED = "exhausted"

REASON_STEP = "step_below_epsilon"
REASON_RESIDUAL = "residual_below_epsilon"
REASON_DOMAIN = "domain_violation"
REASON_NONFINITE = "nonfinite"
REASON_UNDERFLOW = "denominator_underflow"
REASON_ESCAPE = "escape_bound_exceeded"
REASON_MAX_ITERS = "max_iters_reached"

CONVERGED_REASONS = (REASON_STEP, REASON_RESIDUAL)


class DenominatorUnderflow(Exception):
    """The scheme's denominator is exactly zero, so the step cannot be taken."""


def _finite_real(value) -> bool:
    """True for a finite numbers.Real other than a bool: numpy's and mpmath's pass, Decimal not."""
    try:  # float first, as an ABC isinstance costs ~0.4 us
        return ((type(value) is float or type(value) is not bool and isinstance(value, Real))
                and math.isfinite(value))
    except NONFINITE_ERRORS:  # an int or Fraction past the float range
        return False


def _count(value, name: str) -> int:
    """``value`` as an int if it is a numbers.Integral other than a bool, and at least 1."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(value)


class SolverConfig(_Record):
    """Scheme selection and the iteration protocol.

    ``mu`` is the flow parameter of the parameterized denominators; ``newton``
    and ``secant`` run with ``mu = 0``.  ``h`` is the Euler step length;
    every scheme but ``euler_flow`` runs with ``h = 1``.  :meth:`resolved`
    gives the pair a run uses.  ``bootstrap`` picks how the two-point schemes
    obtain their second starting point, and ``stop_rule`` picks the
    smallness test that declares convergence.  ``trace`` keeps every accepted
    pair in the run's outcome; ``False`` keeps only x0's pair and the last
    accepted one, for callers that read only the final point.  Every field
    is checked here, and a bad value raises ``ValueError``.
    """

    __slots__ = ("scheme", "mu", "h", "epsilon", "max_iters", "bootstrap", "stop_rule", "trace")

    def __init__(self, scheme: str = "secant_dyn", mu: float = 0.0, h: float = 1.0,
                 epsilon: float = 1e-5, max_iters: int = 500, bootstrap: str = "zheng_first_step",
                 stop_rule: str = "step_size", trace: bool = True):
        self._set_fields((scheme, mu, h, epsilon, max_iters, bootstrap, stop_rule, trace))
        for name, allowed in _CHOICE_FIELDS:
            if (value := getattr(self, name)) not in allowed:
                raise ValueError(f"unknown {name} {value!r}; expected one of {allowed}")
        if not _finite_real(self.mu):
            raise ValueError("mu must be finite")
        if not (_finite_real(self.h) and self.h > 0.0):
            raise ValueError("h must be positive and finite")
        if not (_finite_real(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        _count(self.max_iters, "max iters")
        if type(self.trace) is not bool:
            raise ValueError("trace must be a bool")

    def resolved(self) -> tuple[float, float]:
        """The (mu, h) the scheme runs with: the scheme's fixed values, else the config's."""
        _, mu, h = _SCHEME_TABLE[self.scheme]
        return (self.mu if mu is None else mu, self.h if h is None else h)


# The defaults, read through one instance: the slots hide them on the class.
_DEFAULTS = SolverConfig()


class TracePoint(NamedTuple):
    n: int
    x: float
    fx: float


class IterationTrace(NamedTuple):
    """The accepted (x_n, f(x_n)) pairs of a run, and the root when it is known.

    ``points`` (the (n, x_n, f(x_n)) tuples) is computed from the pairs on
    each read.
    """

    pairs: tuple[tuple[float, float], ...]
    known_root: float | None = None

    @property
    def points(self) -> tuple[TracePoint, ...]:
        return tuple(TracePoint(n, x, fx) for n, (x, fx) in enumerate(self.pairs))

    @classmethod
    def from_points(cls, points, known_root: float | None) -> "IterationTrace":
        """A trace of a copy of the (x, f(x)) pairs in ``points``."""
        # tuple.__new__ skips the NamedTuple's __new__, a Python function that only calls it.
        return tuple.__new__(cls, (tuple(points), known_root))


class RunOutcome(NamedTuple):
    """How one solver run ended, and the (x, f(x)) pairs it accepted from x0 on.

    ``iterations`` counts accepted steps: a rejected candidate, or a step
    that cannot be taken, is not one, and neither is the bootstrap pair of a
    two-point scheme.  An untraced run (``SolverConfig.trace`` False) keeps
    only x0's pair and the last pair it accepted, so ``len(pairs)`` counts the
    accepted points only when traced.  The rest is derived: ``final_fx`` is
    the last pair's f(x), NaN when f(x0) itself is not a finite real, and
    ``trace`` is built from the pairs on each read, so callers that need
    only the final point never pay for one.  Equal runs hash equal: the hash
    leaves out the pairs, a list, as the repr does.
    """

    reason: str
    iterations: int
    pairs: list[tuple[float, float]]
    known_root: float | None

    def __hash__(self) -> int:
        return hash((self.reason, self.iterations, self.known_root))

    def __repr__(self) -> str:
        return (f"RunOutcome(reason={self.reason!r}, iterations={self.iterations!r}, "
                f"known_root={self.known_root!r})")

    @property
    def verdict(self) -> str:
        return (VERDICT_CONVERGED if self.reason in CONVERGED_REASONS else
                VERDICT_EXHAUSTED if self.reason == REASON_MAX_ITERS else VERDICT_DIVERGED)

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
# public one-step kernels (run's two loops repeat their arithmetic inline; the 10,000 fixed-seed
# draws of test_exit_draws_reach_every_exit and the PINNED_RUNS runs check that the two agree)

def _step(x: float, num: float, den: float, what: str) -> float:
    """x - num / den, the form of every rule.

    DenominatorUnderflow naming ``what`` if den is 0, and NonFiniteValue naming it if den is not
    a finite real: an overflowed den would make the step exactly 0.
    """
    if den == 0.0:  # tested: numpy scalars divide by 0 without raising
        raise DenominatorUnderflow(f"{what} is 0 at x = {x!r}")
    if not _finite_real(den):
        raise NonFiniteValue(x, f"({what})")
    return x - num / den


def newton_step(p: ProblemSpec, x: float) -> float:
    """Classical Newton step x - f(x)/f'(x), the mu = 0, h = 1 case of euler_flow_step."""
    return euler_flow_step(p, x, 0.0, 1.0)


def euler_flow_step(p: ProblemSpec, x: float, mu: float, h: float) -> float:
    """Euler step of the continuation flow: x - h f(x) / (mu f(x) + f'(x))."""
    fx = eval_f(p, x)
    return _step(x, h * fx, mu * fx + eval_df(p, x), "mu*f + f'")


def wu_step(p: ProblemSpec, x: float, mu: float) -> float:
    """Parameterized Newton-like step, the h = 1 case of euler_flow_step."""
    return euler_flow_step(p, x, mu, 1.0)


def zheng_step(p: ProblemSpec, x: float, mu: float) -> float:
    """Derivative-free step with difference quotient over the probe x + f(x).

    x - f(x)^2 / (mu f(x)^2 + f(x + f(x)) - f(x))
    """
    fx = eval_f(p, x)
    # The probe point x + f(x) may leave the iterate interval; it only needs
    # a finite value.  Group the difference first: the mu*f^2 term can be
    # many orders of magnitude below f(x) and would be absorbed otherwise.
    den = mu * fx * fx + (eval_f_unchecked(p, x + fx) - fx)
    return _step(x, fx * fx, den, "mu*f^2 + f(x+f) - f")


def secant_dyn_step(p: ProblemSpec, x_prev: float, x_curr: float, mu: float) -> float:
    """Derivative-free two-point step with the secant difference quotient.

    x_curr - f(x_curr) (x_curr - x_prev)
          / (mu (x_curr - x_prev) f(x_curr) + f(x_curr) - f(x_prev))
    """
    f_prev = eval_f(p, x_prev)
    f_curr = eval_f(p, x_curr)
    # A pair that coincides makes the denominator exactly 0.
    dx = x_curr - x_prev
    return _step(x_curr, f_curr * dx, mu * dx * f_curr + f_curr - f_prev,
                 "mu*(x - x_prev)*f + f - f(x_prev)")


def secant_step(p: ProblemSpec, x_prev: float, x_curr: float) -> float:
    """Classical secant step, i.e. secant_dyn_step with mu = 0."""
    return secant_dyn_step(p, x_prev, x_curr, 0.0)


# ---------------------------------------------------------------------------
# driver

def _rejected(candidate, a: float, b: float) -> str:
    """Why a candidate outside the domain's and ESCAPE_BOUND's common box ends the run."""
    return (REASON_NONFINITE if not math.isfinite(candidate) else
            REASON_DOMAIN if not (a <= candidate <= b) else REASON_ESCAPE)


def run(p: ProblemSpec, cfg: SolverConfig, x0: float) -> RunOutcome:
    """Iterate the configured scheme from x0 until a verdict.

    Convergence is declared by the configured stop rule: ``step_size`` tests
    |x_{n+1} - x_n| <= epsilon, ``residual`` tests |f(x_{n+1})| <= epsilon,
    ``either`` accepts whichever fires first (step reported when both fire
    at once).  A step cannot be taken when its denominator is 0 or not a
    finite real, and ``run`` then applies the kernels' rule before it
    evaluates the candidate, under every stop rule and in the bootstrap: a
    denominator of 0 ends the run converged when the current point is an
    exact root (f(x) == 0; reported as the stop rule's own reason) and
    ``denominator_underflow`` anywhere else, and one that is not a finite
    real (a bad f' or probe, or an overflow, which would make the step
    exactly 0) ends it ``nonfinite``.  A domain exit, an escape beyond
    ``ESCAPE_BOUND`` or any other ``nonfinite`` step (a value that is not a
    finite real, or a raise in the step, as from a ``Decimal`` meeting a
    float) yields ``divergence``; an exhausted budget, ``exhausted``.  The
    trace records every accepted iterate, starting with x0; with
    ``cfg.trace`` False it records x0 and the last accepted iterate only, and
    the reason, the count and those pairs are the traced run's: each loop
    accepts a candidate at one point, before its stop tests, so the pair it
    holds at any exit is the last accepted one.  ``iterations`` counts
    accepted steps, and ``max_iters`` bounds it: a rejected candidate, or a
    step that cannot be taken, is not counted.

    A huge but finite denominator is the step rule's own weakness and ends
    nothing: on x^2 - 1 from 200, ``secant_dyn`` at mu = 1e300 with the
    ``offset_x0`` bootstrap takes a step below epsilon and "converges" at
    199.998.

    x0 must lie inside the problem's domain, and a ``newton``, ``wu`` or
    ``euler_flow`` run needs ``p.df``; otherwise ``run`` raises
    ``DomainViolation`` or ``MissingDerivative``, both ``ValueError``.
    ``newton``, ``euler_flow``, ``wu`` and ``zheng`` share the one-point
    loop.  Two-point schemes take their second starting point, by the
    bootstrap policy, as step 0 of the two-point loop.  That step is
    traced, but it is outside the count, the budget and the step test; the
    residual test judges it.
    """
    a, b = p.domain
    if not (a <= x0 <= b):
        raise DomainViolation(x0, p.domain, "x0")
    rule, mu, h = _SCHEME_TABLE[cfg.scheme]
    if rule is _FLOW and p.df is None:
        raise MissingDerivative(
            f"scheme {cfg.scheme!r} needs a derivative, problem {p.name!r} has none")
    # The loops call only f and f'.  From f(x0) on, NONFINITE_ERRORS raised by either, or by
    # the arithmetic on their values, ends the run nonfinite, as isfinite's refusal does.
    f, df, isfinite = p.f, p.df, math.isfinite
    try:
        fx = f(x0)
        finite = isfinite(fx)
    except NONFINITE_ERRORS:
        finite = False
    if not finite:  # f(x0) itself is not a finite real
        return tuple.__new__(RunOutcome, (REASON_NONFINITE, 0, [(x0, math.nan)], p.known_root))
    mu, h = cfg.mu if mu is None else mu, cfg.h if h is None else h  # as cfg.resolved()
    stop_on_step = cfg.stop_rule != "residual"
    stop_on_residual = cfg.stop_rule != "step_size"
    at_root = REASON_STEP if stop_on_step else REASON_RESIDUAL
    # The stop tests read -epsilon <= d <= epsilon, which is abs(d) <= epsilon for every real d
    # (NaN and +-inf fail both, +-0 and +-epsilon pass both) without a call to abs.  The loops
    # call points.append, not a bound-method local, so CPython 3.11+ inlines the list append.
    epsilon, max_iters, trace = cfg.epsilon, cfg.max_iters, cfg.trace
    neg_epsilon = -epsilon
    # One test admits a candidate: inside the domain and ESCAPE_BOUND.
    lo = -ESCAPE_BOUND if -ESCAPE_BOUND > a else a  # max(a, -ESCAPE_BOUND)
    hi = ESCAPE_BOUND if ESCAPE_BOUND < b else b  # min(b, ESCAPE_BOUND)

    x = x0
    points = [(x, fx)]
    accepted = 0
    reason = REASON_MAX_ITERS
    # Two loops, one per point count: x - num / den with the kernels' expressions, then one
    # guard sequence.  Its den tests are _step's, before f(candidate): a den that is not finite
    # (a bad g, or an overflow) is nonfinite, and a zero den is underflow, or convergence at an
    # exact root (the quotients are 0/0).  Once f(candidate) passes isfinite, the candidate is
    # accepted at one point, before the stop tests: it becomes (x, fx), is counted and, traced,
    # appended.  So (x, fx) is the last accepted pair at every exit, a break or a raise.
    try:
        if rule is not _SECANT:
            flow = rule is _FLOW
            for _ in range(max_iters):
                if flow:
                    g = df(x)
                    num, den = h * fx, mu * fx + g
                else:
                    g = f(x + fx)  # the probe, off-domain or not
                    num, den = fx * fx, mu * fx * fx + (g - fx)
                if not isfinite(den):
                    reason = REASON_NONFINITE
                    break
                if den == 0.0:
                    reason = REASON_UNDERFLOW if fx != 0.0 else at_root
                    break
                candidate = x - num / den
                if not (lo <= candidate <= hi):
                    reason = _rejected(candidate, a, b)
                    break
                f_cand = f(candidate)
                if not isfinite(f_cand):
                    reason = REASON_NONFINITE
                    break
                x_prev, x, fx = x, candidate, f_cand
                accepted += 1
                if trace:
                    points.append((x, fx))
                if stop_on_step and neg_epsilon <= x - x_prev <= epsilon:
                    reason = REASON_STEP
                    break
                if stop_on_residual and neg_epsilon <= fx <= epsilon:
                    reason = REASON_RESIDUAL
                    break
        else:
            # Step 0 is the bootstrap, outside the count and the budget: a tiny bootstrap step
            # is no sign of a root, so only the residual test judges it.
            for step in range(max_iters + 1):
                if step:
                    dx = x - x_prev
                    num, den = fx * dx, mu * dx * fx + fx - f_prev
                elif cfg.bootstrap == "offset_x0":  # den = 1 is exact
                    num, den = math.copysign(1.0, fx) * epsilon * max(1.0, abs(x)), 1.0
                else:  # a zheng step
                    g = f(x + fx)
                    num, den = fx * fx, mu * fx * fx + (g - fx)
                if not isfinite(den):
                    reason = REASON_NONFINITE
                    break
                if den == 0.0:
                    reason = REASON_UNDERFLOW if fx != 0.0 else at_root
                    break
                candidate = x - num / den
                if not (lo <= candidate <= hi):
                    reason = _rejected(candidate, a, b)
                    break
                f_cand = f(candidate)
                if not isfinite(f_cand):
                    reason = REASON_NONFINITE
                    break
                # Two statements: four targets would build and unpack a tuple each step.
                x_prev, f_prev = x, fx
                x, fx = candidate, f_cand
                accepted += 1
                if trace:
                    points.append((x, fx))
                if stop_on_step and neg_epsilon <= x - x_prev <= epsilon and step:
                    reason = REASON_STEP
                    break
                if stop_on_residual and neg_epsilon <= fx <= epsilon:
                    reason = REASON_RESIDUAL
                    break
    except NONFINITE_ERRORS:
        reason = REASON_NONFINITE

    if accepted and not trace:
        points.append((x, fx))
    iterations = accepted - (rule is _SECANT and accepted > 0)
    return tuple.__new__(RunOutcome, (reason, iterations, points, p.known_root))
