"""The one refusal path (`errors.refuse` and `LorsurfError.at`), the one pass
rule (`errors.within`, `errors.finite`), and source guards that keep every
module on them."""

import ast
import dataclasses
import inspect
import math
import os

import numpy as np
import pytest

import lorsurf as ls
from lorsurf.errors import finite, refuse, within

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "lorsurf")


def test_refuse_names_the_first_bad_node_with_its_parameters():
    u, v = np.linspace(0.0, 1.0, 5), np.linspace(2.0, 3.0, 3)
    bad = np.zeros((5, 3), dtype=bool)
    bad[3, 1] = bad[4, 0] = True
    with pytest.raises(ls.ChartError) as err:
        refuse(ls.ChartError, bad, "something is off", u[:, None], v)
    assert str(err.value) == "something is off at node (3, 1), (u, v) = (0.75, 2.5)"
    assert err.value.node == (3, 1) and all(type(k) is int for k in err.value.node)
    assert err.value.reason == "something is off"


def test_refuse_without_parameters_names_the_index_and_passes_clean_masks():
    refuse(ls.DomainError, np.zeros((4, 4), dtype=bool), "never raised")
    refuse(ls.DomainError, False, "never raised")
    with pytest.raises(ls.DomainError) as err:
        refuse(ls.DomainError, np.array([False, True]), "bad")
    assert str(err.value) == "bad at index (1,)" and err.value.node == (1,)
    with pytest.raises(ls.DomainError) as err:
        refuse(ls.DomainError, True, "bad", 0.5, 1.5)  # a scalar is node (0,)
    assert str(err.value) == "bad at node (0,), (u, v) = (0.5, 1.5)"


def test_at_moves_a_block_error_to_the_full_grid():
    u, v = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 5)
    with pytest.raises(ls.NotLorentzSurfaceError) as err:
        refuse(ls.NotLorentzSurfaceError, np.eye(2, dtype=bool)[::-1], "timelike normal")
    moved = err.value.at(u, v, 8, 2, "grid node")
    assert type(moved) is ls.NotLorentzSurfaceError
    assert moved.node == (8, 3) and moved.reason == "timelike normal"
    assert str(moved) == "timelike normal at grid node (8, 3), (u, v) = (0.8, 1.5)"


def test_within_passes_finite_values_up_to_a_finite_tolerance():
    assert within([0.5, 1.0], 1.0) and within([], 0.0) and within((-2.0,), -1.0)
    assert not within([0.5, 1.5], 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        assert not within([0.0, bad], 1.0)
        assert not within([0.0], bad)
    assert within(np.array([1e-3]), np.float64(1e-2))


def test_finite_walks_dicts_lists_and_tuples():
    assert finite({"a": [1.0, (2, "x", None, True)], "b": {"c": -1e308}})
    assert not finite({"a": [{"b": (0.0, math.nan)}]})
    assert not finite([math.inf]) and not finite(-math.inf)
    assert finite(np.float64(2.0)) and not finite(np.float64(math.nan))


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read())


TEXT_METHODS = {"partition", "rpartition", "split", "rsplit", "find", "index", "replace",
                "startswith", "endswith"}


def test_no_module_parses_exception_text():
    offenders = []
    for name, tree in _modules():
        for handler in ast.walk(tree):
            if not (isinstance(handler, ast.ExceptHandler) and handler.name):
                continue
            for node in ast.walk(handler):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in TEXT_METHODS
                        and any(isinstance(n, ast.Name) and n.id == handler.name
                                for n in ast.walk(node.func.value))):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_node_at_is_defined_only_in_errors():
    defined = [name for name, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "node_at"]
    assert defined == ["errors.py"]


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_one_pass_rule_and_one_report_writer():
    modules = dict(_modules())
    # the pass rule and the finiteness walk live in errors.py alone
    defined = sorted((name, f.name) for name, tree in modules.items()
                     for f in _functions(tree) if f.name in ("finite", "within"))
    assert defined == [("errors.py", "finite"), ("errors.py", "within")]
    # one function of the CLI builds a report document
    writers = [f.name for f in _functions(modules["cli.py"]) for node in ast.walk(f)
               if isinstance(node, ast.Dict) and any(
                   isinstance(k, ast.Constant) and k.value == "schema_version"
                   for k in node.keys)]
    assert writers == ["_finish"]
    # the old per-command rules and exit-code names are gone
    gone = {"_all_finite", "EXIT_OK", "EXIT_CHECK_FAILED"}
    found = [f"{name}:{node.lineno}" for name, tree in modules.items() for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in gone)
             or (isinstance(node, ast.FunctionDef) and node.name in gone)]
    assert found == []


def test_one_home_per_verdict_standard():
    # the natural equation's and canonicity's standards are read where their
    # reports are made; every caller reads the report's `tol` and `passed`
    users = {}
    for name, tree in _modules():
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else \
                node.name if isinstance(node, ast.alias) else None
            if used in ("REL_TOL", "CANONICAL_TOL"):
                users.setdefault(used, set()).add(
                    (name, "import" if isinstance(node, ast.alias) else "read"))
    assert users == {"REL_TOL": {("natural.py", "read"), ("__init__.py", "import")},
                     "CANONICAL_TOL": {("canonical.py", "read"), ("__init__.py", "import")}}
    for fn in (ls.verify_canonical, ls.canonical_gauge_transform, ls.is_isotropic):
        assert "tol" not in inspect.signature(fn).parameters
    fields = {f.name for f in dataclasses.fields(ls.ResidualReport)}
    assert {"tol", "passed"} <= fields and not {"u_interior", "v_interior"} & fields
