import math

import pytest
from hypothesis import HealthCheck, settings

from rootflow import ProblemSpec, builtin_problems

# derandomize fixes each property's draws by its test's source: the same draws on every run.
settings.register_profile(
    "det", derandomize=True, suppress_health_check=[HealthCheck.filter_too_much]
)
settings.load_profile("det")

WIDE = (-1e9, 1e9)


@pytest.fixture(scope="session")
def problems():
    return builtin_problems()


@pytest.fixture(scope="session")
def sq():
    """f(x) = x^2 - 1, simple root at 1."""
    return ProblemSpec(name="sq", f=lambda x: x * x - 1.0, df=lambda x: 2.0 * x,
                       domain=WIDE, known_root=1.0, default_x0=1.5)


@pytest.fixture(scope="session")
def sq4():
    """f(x) = x^2 - 4, simple root at 2 (exact in binary)."""
    return ProblemSpec(name="sq4", f=lambda x: x * x - 4.0, df=lambda x: 2.0 * x,
                       domain=WIDE, known_root=2.0, default_x0=3.0)


@pytest.fixture(scope="session")
def linear():
    """f(x) = x; every scheme is exact on it."""
    return ProblemSpec(name="linear", f=lambda x: x, df=lambda x: 1.0,
                       domain=WIDE, known_root=0.0, default_x0=4.0)


@pytest.fixture(scope="session")
def quart():
    """f(x) = x + x^4: f'' and f''' vanish at the root, so the two-point
    scheme's quadratic error constant is exactly mu there."""
    return ProblemSpec(name="quart", f=lambda x: x + x ** 4,
                       df=lambda x: 1.0 + 4.0 * x ** 3,
                       domain=WIDE, known_root=0.0, default_x0=0.3)


@pytest.fixture(scope="session")
def expm1p():
    """f(x) = e^x - 1, simple root at 0."""
    return ProblemSpec(name="expm1p", f=lambda x: math.exp(x) - 1.0,
                       df=math.exp, domain=(-500.0, 500.0),
                       known_root=0.0, default_x0=0.1)
