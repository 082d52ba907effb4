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
from numbers import Number
from typing import Callable

ROOT_RESIDUAL_TOL = 1e-12

# The guard rule: an evaluator's value is a finite real unless the call, or
# math.isfinite on its result, raises one of these (an overflow, a division by
# zero, a numpy or decimal arithmetic error, a domain error, a complex value or
# an int past the float range), or isfinite returns False.  _finite and run apply it.
NONFINITE_ERRORS = (ArithmeticError, ValueError, TypeError)


class DomainViolation(ValueError):
    """A point, called ``name`` in the message, left the problem's legal interval."""

    def __init__(self, x: float, domain: tuple[float, float], name: str = "x"):
        self.x = x
        self.domain = domain
        super().__init__(f"{name} = {x!r} is outside the legal domain [{domain[0]!r}, {domain[1]!r}]")


class NonFiniteValue(ArithmeticError):
    """Evaluation produced an overflow, NaN, or mathematically undefined value.

    ``name`` is the evaluator that failed, ``f`` or ``f'``.  As an
    ArithmeticError it fails the guard again, so an evaluator built on
    another problem's eval_f fails as its own value would.
    """

    def __init__(self, x: float, name: str):
        self.x = x
        super().__init__(f"{name}({x!r}) is not a finite real")


class MissingDerivative(ValueError):
    """The operation needs the problem's exact derivative, which is absent."""


class _DataclassFields:
    """``__dataclass_fields__``, built from the class's ``__init__`` on first read.

    ``dataclasses`` takes some 10 ms to import, and only code that asks for
    the fields (``dataclasses.replace``, ``fields``, ``asdict``) pays it.
    """

    def __get__(self, obj, cls):
        import dataclasses

        init = cls.__init__
        defaults = dict(zip(cls.__slots__[::-1], (init.__defaults__ or ())[::-1]))
        spec = [(name, init.__annotations__[name], dataclasses.field(default=defaults[name]))
                if name in defaults else (name, init.__annotations__[name])
                for name in cls.__slots__]
        fields = dataclasses.make_dataclass(cls.__name__, spec).__dataclass_fields__
        setattr(cls, "__dataclass_fields__", fields)  # read from the class from now on
        return fields


class _Record:
    """An immutable record of the fields named by a subclass's ``__slots__``.

    It behaves as a frozen dataclass does: equality and hash over the field
    values, a field-by-field repr, and AttributeError on assignment.  The
    subclass's ``__init__`` hands its arguments to ``_set_fields`` and checks
    them; a copy, a pickle or ``_replace`` goes through it again.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def _set_fields(self, values: tuple) -> None:
        """Set the fields to ``values``, given in ``__slots__`` order."""
        setattr_ = object.__setattr__  # past __setattr__, which refuses
        for name, value in zip(self.__slots__, values):
            setattr_(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new instance is."""
        return self.__class__(**{**dict(zip(self.__slots__, self._values())), **changes})

    __replace__ = _replace  # copy.replace, from Python 3.13


class ProblemSpec(_Record):
    """One scalar equation f(x) = 0.

    Fields:
        name: a str naming it to the registry, the CLI and CSV rows; no comma, quote or line break.
        f: the equation's left-hand side.
        domain: closed interval [a, b] inside which iterates are legal.
        default_x0: starting value used when the caller does not pick one.
        df: exact derivative, needed only by the derivative-based schemes
            and by the error-constant oracle.
        known_root: a solution x* with f(x*) = 0, used for error tracking.

    Construction checks the spec: a ``domain`` that is not a pair of
    numbers with a < b, or a ``default_x0`` or ``known_root`` that is not a
    ``numbers.Number`` or does not compare with it (None, a complex, a
    str), raises ValueError naming the field; a
    ``default_x0`` or ``known_root`` outside the domain raises
    DomainViolation named after the field, an f(known_root) that is not a
    finite real raises NonFiniteValue, and a residual that is too large
    raises ValueError.  An exact f(x*) == 0
    always passes.  With ``df`` the bound is |f(x*)| <= ROOT_RESIDUAL_TOL *
    max(1, |x*|) * |f'(x*)|, a Newton correction at x* of at most 1e-12
    relative, and f'(x*) passes the same guard as f; without ``df`` it is
    |f(x*)| <= ROOT_RESIDUAL_TOL.  Instances are immutable and safe to share
    between concurrent runs; evaluators must be pure.
    """

    __slots__ = ("name", "f", "domain", "default_x0", "df", "known_root")

    def __init__(self, name: str, f: Callable[[float], float], domain: tuple[float, float],
                 default_x0: float, df: Callable[[float], float] | None = None,
                 known_root: float | None = None):
        self._set_fields((name, f, domain, default_x0, df, known_root))
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if any(c in self.name for c in ',"\n\r'):  # it is an unquoted CSV field
            raise ValueError("name must not contain a comma, a quote or a line break, "
                             f"got {self.name!r}")
        try:
            a, b = self.domain
            ordered = a < b
        except (TypeError, ValueError):
            a = b = None  # not a pair, or ends that do not compare
        if not (isinstance(a, Number) and isinstance(b, Number)):
            raise ValueError(f"domain must be a pair (a, b) with a < b, got {self.domain!r}")
        if not ordered:
            raise ValueError(f"domain must satisfy a < b, got [{a!r}, {b!r}]")
        if not _within(self.default_x0, a, b, "default_x0"):
            raise DomainViolation(self.default_x0, self.domain, "default_x0")
        root = self.known_root
        if root is not None:
            if not _within(root, a, b, "known_root"):
                raise DomainViolation(root, self.domain, "known_root")
            # The one guard judges f(known_root) as it does every f value.
            residual = _finite(self.f, root, "f")
            if residual != 0.0:
                # With f', the bound is on the Newton correction f/f' at the
                # root, so scaling f and f' does not move it.
                bound = ROOT_RESIDUAL_TOL
                if self.df is not None:
                    bound *= max(1.0, abs(root)) * abs(_finite(self.df, root, "f'"))
                if not (abs(residual) <= bound):
                    scale = "" if self.df is None else f" * max(1, |x*|) * |f'(x*)| = {bound:.3e}"
                    raise ValueError(f"|f(known_root)| = {abs(residual):.3e} exceeds "
                                     f"{ROOT_RESIDUAL_TOL:.0e}{scale}")


def _within(x, a, b, name: str) -> bool:
    """a <= x <= b, or a ValueError naming ``name`` if x is not a number that compares."""
    if isinstance(x, Number):
        try:
            return a <= x <= b
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} = {x!r} cannot be compared with the domain [{a!r}, {b!r}]")


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
    # math.isfinite converts through float, so an mpmath value beyond the
    # float range is judged non-finite here even though it is finite in mp.
    try:
        value = fn(x)
        finite = math.isfinite(value)
    except NONFINITE_ERRORS as exc:
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
