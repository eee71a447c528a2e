"""Tests for the package's public names and their lazy export."""

from __future__ import annotations

import importlib
import types

import pytest
from conftest import fresh_python

import cvteleport
from cvteleport import gaussian, tomography


def _home(name: str, obj) -> str:
    """The module that defines ``obj``: a class's or function's own; the two
    vacuum constants are `gaussian`'s."""
    if isinstance(obj, (type, types.FunctionType)):
        return obj.__module__
    assert name in ("VACUUM_VARIANCE", "TWO_MODE_VACUUM_VARIANCE"), name
    return gaussian.__name__


def test_every_export_is_its_defining_modules_object():
    assert len(set(cvteleport.__all__)) == len(cvteleport.__all__)
    for name in cvteleport.__all__:
        obj = getattr(cvteleport, name)
        home = _home(name, obj)
        assert home.startswith("cvteleport."), name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_tomography_names_are_exported_lazily():
    lazy = {name for name in cvteleport.__all__ if _home(name, getattr(cvteleport, name))
            == tomography.__name__}
    assert lazy == set(cvteleport._TOMOGRAPHY_NAMES)
    assert not lazy & set(vars(cvteleport))
    assert cvteleport.tomography is tomography


def test_dir_and_star_import_see_every_export():
    assert set(cvteleport.__all__) <= set(dir(cvteleport))
    namespace: dict = {}
    exec("from cvteleport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cvteleport.__all__)
    for name in cvteleport.__all__:
        assert namespace[name] is getattr(cvteleport, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cvteleport' has no attribute 'no_such_name'$"):
        cvteleport.no_such_name
    assert not hasattr(cvteleport, "QuadratureRecords")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from cvteleport import no_such_name", {})


def test_bare_import_loads_neither_tomography_nor_numpy():
    # the first read of the module, or of one of its names, imports both
    code = (
        "import sys\n"
        "import cvteleport\n"
        "print('cvteleport.tomography' in sys.modules, 'numpy' in sys.modules)\n"
        "assert cvteleport.tomography.QuadratureRecord is cvteleport.QuadratureRecord\n"
        "print('cvteleport.tomography' in sys.modules, 'numpy' in sys.modules)\n"
    )
    assert fresh_python(code).split() == ["False", "False", "True", "True"]
