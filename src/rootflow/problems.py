"""Test equations for the scalar solvers.

A :class:`ProblemSpec` bundles everything the iteration driver and the
analysis tooling need to know about one equation f(x) = 0: the evaluator,
an optional exact derivative, the closed interval on which iterates are
allowed to travel, and (for benchmark problems) the known root used for
error tracking.

Domain policy: iterates of a solver must stay inside ``domain``; leaving it
is treated as divergence by the driver.  Auxiliary probe points used by
difference quotients (for example ``x + f(x)``) only need a finite function
value, which :func:`eval_f_unchecked` provides.  Every f and f' value
passes one guard, and one that is not a finite real is NonFiniteValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

ROOT_RESIDUAL_TOL = 1e-12


class DomainViolation(ValueError):
    """A point, called ``name`` in the message, left the problem's legal interval."""

    def __init__(self, x: float, domain: tuple[float, float], name: str = "x"):
        self.x = x
        self.domain = domain
        super().__init__(f"{name} = {x!r} is outside the legal domain [{domain[0]!r}, {domain[1]!r}]")


class NonFiniteValue(Exception):
    """Evaluation produced an overflow, NaN, or mathematically undefined value.

    ``name`` is the evaluator that failed, ``f`` or ``f'``.
    """

    def __init__(self, x: float, name: str):
        self.x = x
        super().__init__(f"{name}({x!r}) is not a finite real")


class MissingDerivative(ValueError):
    """The operation needs the problem's exact derivative, which is absent."""


@dataclass(frozen=True)
class ProblemSpec:
    """One scalar equation f(x) = 0.

    Fields:
        name: identifier used by the registry and the CLI.
        f: the equation's left-hand side.
        domain: closed interval [a, b] inside which iterates are legal.
        default_x0: starting value used when the caller does not pick one.
        df: exact derivative, needed only by the derivative-based schemes
            and by the error-constant oracle.
        known_root: a solution x* with f(x*) = 0, used for error tracking.

    Construction checks the spec: a ``default_x0`` or ``known_root``
    outside the domain raises DomainViolation named after the field, an
    f(known_root) that is not a finite real raises NonFiniteValue, and a
    residual above ROOT_RESIDUAL_TOL raises ValueError.  Instances are
    immutable and safe to share between concurrent runs; evaluators must
    be pure.
    """

    name: str
    f: Callable[[float], float]
    domain: tuple[float, float]
    default_x0: float
    df: Callable[[float], float] | None = None
    known_root: float | None = None

    def __post_init__(self):
        a, b = self.domain
        if not (a < b):
            raise ValueError(f"domain must satisfy a < b, got [{a!r}, {b!r}]")
        if not (a <= self.default_x0 <= b):
            raise DomainViolation(self.default_x0, self.domain, "default_x0")
        if self.known_root is not None:
            if not (a <= self.known_root <= b):
                raise DomainViolation(self.known_root, self.domain, "known_root")
            # The one guard judges f(known_root) as it does every f value.
            residual = _finite(self.f, self.known_root, "f")
            if not (abs(residual) <= ROOT_RESIDUAL_TOL):
                raise ValueError(
                    f"|f(known_root)| = {abs(residual):.3e} exceeds {ROOT_RESIDUAL_TOL:.0e}"
                )


def eval_f(p: ProblemSpec, x: float) -> float:
    """Evaluate f(x), enforcing the problem's legal interval.

    Raises DomainViolation if x lies outside ``p.domain`` and NonFiniteValue
    if evaluation overflows or is undefined.  Never returns a non-finite
    real.
    """
    a, b = p.domain
    if not (a <= x <= b):
        raise DomainViolation(x, p.domain)
    return _finite(p.f, x, "f")


def eval_f_unchecked(p: ProblemSpec, x: float) -> float:
    """Evaluate f(x) wherever it is mathematically defined.

    No interval containment check: any finite value is legal.  Used for
    auxiliary difference-quotient probes that may step slightly outside the
    iterate interval.
    """
    return _finite(p.f, x, "f")


def eval_df(p: ProblemSpec, x: float) -> float:
    """Evaluate f'(x) as eval_f_unchecked does f; MissingDerivative if there is no f'."""
    if p.df is None:
        raise MissingDerivative(f"problem {p.name!r} has no derivative evaluator")
    return _finite(p.df, x, "f'")


def _finite(fn: Callable[[float], float], x: float, name: str) -> float:
    """fn(x) if it is a finite real; else NonFiniteValue, naming fn as ``name``."""
    try:
        value = fn(x)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteValue(x, name) from exc
    # math.isfinite converts through float, so an mpmath value beyond the
    # float range is judged non-finite here even though it is finite in mp.
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError) as exc:  # a complex value, or an int past float range
        raise NonFiniteValue(x, name) from exc
    if not finite:
        raise NonFiniteValue(x, name)
    return value


def builtin_problems() -> dict[str, ProblemSpec]:
    """Registry of the three benchmark equations, keyed by stable name.

    log:  f(x) = ln x            on [0.5, 5],       root 1,    x0 = 5
    exp:  f(x) = (x - 1) e^{-x}  on [-1, 50],       root 1,    x0 = 50
    trig: f(x) = 2 sin x - 1     on [0, 11*pi/24],  root pi/6, x0 = 11*pi/24

    Each problem carries a closed-form derivative for the derivative-based
    schemes and the analysis oracles.
    """
    log = ProblemSpec(
        name="log",
        f=math.log,
        df=lambda x: 1.0 / x,
        domain=(0.5, 5.0),
        known_root=1.0,
        default_x0=5.0,
    )
    exp = ProblemSpec(
        name="exp",
        f=lambda x: (x - 1.0) * math.exp(-x),
        df=lambda x: (2.0 - x) * math.exp(-x),
        domain=(-1.0, 50.0),
        known_root=1.0,
        default_x0=50.0,
    )
    trig = ProblemSpec(
        name="trig",
        f=lambda x: 2.0 * math.sin(x) - 1.0,
        df=lambda x: 2.0 * math.cos(x),
        domain=(0.0, 11.0 * math.pi / 24.0),
        known_root=math.pi / 6.0,
        default_x0=11.0 * math.pi / 24.0,
    )
    return {p.name: p for p in (log, exp, trig)}
