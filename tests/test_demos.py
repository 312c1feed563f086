"""The demos run end to end: each one exits 0 under ``-W error``, so a
warning or a changed signature they call fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = ("characters_demo", "dimension_growth_demo", "gaussian_profile_demo",
          "kernel_concentration_demo")


def test_demo_list_is_complete():
    assert sorted(p.stem for p in (_ROOT / "demos").glob("*.py")) == sorted(_DEMOS)


@pytest.mark.parametrize("name", _DEMOS)
def test_demo_runs(name):
    out = subprocess.run([sys.executable, "-W", "error", str(_ROOT / "demos" / f"{name}.py")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(_ROOT / "src")})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
