"""The public surface: every module imports and every ``__all__`` entry
resolves, so ``from beamkit.<module> import *`` works."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import beamkit

MODULES = ["beamkit"] + sorted(
    f"beamkit.{m.name}" for m in pkgutil.iter_modules(beamkit.__path__)
    if m.name != "__main__")  # __main__ runs the CLI on import


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    mod = importlib.import_module(name)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), name
    for attr in names:
        assert hasattr(mod, attr), f"{name}.{attr}"
    ns = {}
    exec(f"from {name} import *", ns)
    assert set(names) <= set(ns)


def test_every_module_is_listed():
    assert {"beamkit.beamcore", "beamkit.cli", "beamkit.identities",
            "beamkit.integralrep", "beamkit.oscquad", "beamkit.pwseries",
            "beamkit.specfun", "beamkit.wavepacket"} <= set(MODULES)


@pytest.mark.parametrize("name", [
    "eval_direct_dispersive", "eval_series_dispersive",
    "eval_integral_rep_dispersive", "LegendreSpectrum", "RealSequence",
    "KernelArgs", "compute_R", "_check_cell_budget", "_GRID"])
def test_deleted_names_stay_gone(name):
    # one way to call each route (medium=) and plain array sequences
    for mod in MODULES:
        assert not hasattr(importlib.import_module(mod), name), mod


def test_engine_has_no_beat_hint():
    # slow beats go up vertical rays; the engine keeps half-period cells.
    # Finite intervals take one rule, nested Clenshaw-Curtis: no bisection
    # budget, no heap and no Gauss-Legendre table anywhere in the package
    from beamkit.oscquad import (integrate_finite,
                                 integrate_oscillatory_infinite)
    params = inspect.signature(integrate_oscillatory_infinite).parameters
    assert "beat_hint" not in params
    assert "max_subdivisions" not in inspect.signature(
        integrate_finite).parameters
    for path in Path(beamkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "heapq" not in imported, path.name
        assert not any(isinstance(node, ast.Attribute)
                       and node.attr == "leggauss"
                       for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("name,allowed", [
    ("integralrep", {"_segment_and_rays"}),
    ("identities", {"_segment_and_rays", "_clenshaw_curtis", "_cc_rule"})])
def test_private_oscquad_imports(name, allowed):
    # the segment-and-rays quadrature and the Clenshaw-Curtis rule have one
    # copy each, in oscquad: their callers pass an integrand and a layout
    # or a size, and borrow no other table or constant
    path = Path(beamkit.__file__).parent / f"{name}.py"
    private = {alias.name
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and node.module == "oscquad"
               for alias in node.names if alias.name.startswith("_")}
    assert private <= allowed, private - allowed


def test_one_order_check():
    # an order is checked by specfun._as_order alone, so no other module
    # needs the numbers ABCs to tell an int from a bool or a float
    for path in Path(beamkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        assert ("numbers" in imported) == (path.name == "specfun.py"), \
            path.name
