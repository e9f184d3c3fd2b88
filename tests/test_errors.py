"""The one refusal path: `errors.refuse` and `LorsurfError.at`, and a source
guard that keeps every module on it."""

import ast
import os

import numpy as np
import pytest

import lorsurf as ls
from lorsurf.errors import refuse

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
