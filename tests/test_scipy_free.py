"""The scipy-free paths: import, corpus, analyze and residual, and the
numpy running trapezoid they integrate with.

scipy appears here only as the reference the trapezoid is compared to.
"""

import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid

from lorsurf.stencils import _cumtrapz

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GUARD = r"""
import contextlib, io, json, sys
import lorsurf
loaded = {"import lorsurf": "scipy" in sys.modules}
from lorsurf.cli import main
runs = {
    "corpus list": ["corpus", "list"],
    "analyze": ["analyze", "enneper1", "--grid", "21x21"],
    "residual general": ["residual", "cylinder", "--mode", "general", "--grid", "21x21"],
    "residual cmc": ["residual", "cylinder", "--mode", "cmc", "--grid", "21x21"],
    "residual minimal": ["residual", "enneper1", "--mode", "minimal", "--grid", "41x41"],
}
codes = {}
for label, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[label] = main(argv)
    loaded[label] = "scipy" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_scipy_stays_off_the_import_and_analysis_paths():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == dict.fromkeys(result["codes"], 0)
    assert result["loaded"] == dict.fromkeys(result["loaded"], False)


@st.composite
def trapezoid_inputs(draw):
    n = draw(st.integers(2, 12))
    steps = draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 10.0)))
    t = draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    ndim = draw(st.integers(1, 2))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 5)) for _ in range(ndim)]
    shape[axis] = n
    f = draw(hnp.arrays(float, tuple(shape),
                        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64)))
    return f, t, axis


@settings(max_examples=200, deadline=None)
@given(trapezoid_inputs())
def test_numpy_trapezoid_matches_scipy_bit_for_bit(case):
    f, t, axis = case
    ours = _cumtrapz(f, t, axis=axis)
    ref = cumulative_trapezoid(f, x=t, axis=axis, initial=0.0)
    # equal strides too: the memory order sets how later reductions sum
    assert ours.shape == ref.shape and ours.dtype == ref.dtype and ours.strides == ref.strides
    assert ours.tobytes() == ref.tobytes()
