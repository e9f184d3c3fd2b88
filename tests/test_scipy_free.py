"""lorsurf runs on numpy alone: no module imports scipy, no command loads it,
and the numpy running trapezoid matches scipy's bit for bit.

scipy appears here only as the reference the trapezoid is compared to.
"""

import ast
import json
import os
import pathlib
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
import contextlib, io, json, os, sys
import lorsurf
loaded = {"import lorsurf": "scipy" in sys.modules}
from lorsurf.cli import main
tmp = sys.argv[1]
chart = os.path.join(tmp, "cone.json")
runs = {
    "corpus list": ["corpus", "list"],
    "analyze": ["analyze", "enneper1", "--grid", "21x21"],
    "residual general": ["residual", "cylinder", "--mode", "general", "--grid", "21x21"],
    "residual cmc": ["residual", "cylinder", "--mode", "cmc", "--grid", "21x21"],
    "residual minimal": ["residual", "enneper1", "--mode", "minimal", "--grid", "41x41"],
    "canonicalize corpus": ["canonicalize", "hyperbolic_cone", "--grid", "21x21",
                            "--output", chart],
    "canonicalize chart": ["canonicalize", chart, "--canon-nodes", "15",
                           "--output", os.path.join(tmp, "again.json")],
    "analyze chart": ["analyze", chart],
    "reconstruct": ["reconstruct", "enneper1", "--grid", "21x21", "--mesh", os.path.join(tmp, "e1")],
    "reconstruct pair": ["reconstruct", "cylinder", "--grid", "21x21", "--domain", "0:1,0:1",
                         "--pair", "--mesh", os.path.join(tmp, "cyl")],
}
codes = {}
for label, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[label] = main(argv)
    loaded[label] = "scipy" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_scipy_stays_off_the_import_and_analysis_paths(tmp_path):
    # every subcommand, canonicalize and reconstruct included, in one process
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == dict.fromkeys(result["codes"], 0)
    assert result["loaded"] == dict.fromkeys(result["loaded"], False)


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy":
                yield node.lineno, name


def test_no_module_under_src_imports_scipy():
    # imports inside functions count too: a lazy import still loads scipy
    found = {}
    for path in sorted(pathlib.Path(SRC, "lorsurf").rglob("*.py")):
        hits = list(_scipy_imports(ast.parse(path.read_text(encoding="utf-8"))))
        if hits:
            found[path.name] = hits
    assert found == {}


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
