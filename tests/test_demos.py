"""The demos run to the end without a traceback or a numpy warning."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_surface_zoo.py", "02_canonical_coordinates.py",
                                  "03_natural_equation.py", "04_frame_reconstruction.py"])
def test_demo_runs_cleanly(demo):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, proc.stderr
