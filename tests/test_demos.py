"""Each demo's standard output, byte for byte against a captured copy."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("stem", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_is_pinned(stem):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    assert out.getvalue().encode() == (GOLDEN / f"demo_{stem}.txt").read_bytes()
