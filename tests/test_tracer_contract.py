"""The benchmark tracer's contract with the library.

`perfbench/tracer.py` wraps the functions named in its TARGETS (and
ALLOC_TARGETS) by module and attribute, and its `_count` reads some of their
positional arguments: the chart of `reconstruct`, the chart and path of
`write_chart`, the path of `write_report` and the mesh and path of the mesh
writers.  A rename or a reordered signature would break the benchmark's
traced runs and its smoke test, which this suite does not run.  The tracer
file is read here, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import lorsurf as ls

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# span name -> {position: parameter name} of the arguments `_count` reads
COUNTED = {
    "reconstruct.reconstruct": {0: "chart"},
    "chartio.write_chart": {0: "chart", 1: "path"},
    "chartio.write_report": {1: "path"},
    "chartio.write_mesh_obj": {0: "mesh", 3: "path"},
    "chartio.write_mesh_csv": {0: "mesh", 3: "path"},
}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):  # "Chart.interpolator" is a method
        obj = getattr(obj, part)
    return obj


def test_every_traced_target_is_a_library_function():
    tracer = _tracer()
    for module_name, attr in tracer.TARGETS + tracer.ALLOC_TARGETS:
        assert inspect.isfunction(_resolve(module_name, attr)), (module_name, attr)


def test_the_counted_arguments_keep_their_positions():
    tracer = _tracer()
    targets = {tracer.span_name(m, a): (m, a) for m, a in tracer.TARGETS}
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, wanted in COUNTED.items():
        params = list(inspect.signature(_resolve(*targets[name])).parameters.values())
        for position, param in wanted.items():
            assert params[position].name == param and params[position].kind in positional, \
                (name, position, params)
    assert isinstance(ls.Chart.shape, property)  # args[0].shape of reconstruct
    # the command line passes every counted argument by position
    with open(os.path.join(ROOT, "src", "lorsurf", "cli.py"), encoding="utf-8") as fh:
        calls = [node for node in ast.walk(ast.parse(fh.read()))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    for name, wanted in COUNTED.items():
        sites = [c for c in calls if c.func.id == name.split(".")[1]]
        assert sites and all(len(c.args) > max(wanted) for c in sites), name
