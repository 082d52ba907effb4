"""The analysis against an independent high-precision oracle (mpmath)."""

import pytest
from mpmath import mp

from rootflow import predicted_constant

# The built-in problems' left-hand sides, evaluated in mp arithmetic.
MP_F = {
    "log": mp.log,
    "exp": lambda x: (x - 1) * mp.exp(-x),
    "trig": lambda x: 2 * mp.sin(x) - 1,
}


@pytest.mark.parametrize("name", sorted(MP_F))
def test_predicted_constant_matches_mp_derivatives(problems, name):
    # At mu = 0 the prediction is f''(x*)/f'(x*); the float one differences
    # the exact f' once, the oracle differentiates f numerically at 50 digits.
    p = problems[name]
    with mp.workdps(50):
        root = mp.mpf(p.known_root)
        oracle = mp.diff(MP_F[name], root, 2) / mp.diff(MP_F[name], root, 1)
        expected = float(oracle)
    assert predicted_constant(p, 0.0) == pytest.approx(expected, rel=1e-9)
