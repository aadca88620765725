"""The benchmark's span contract, checked without running the benchmark.

``perfbench/run.py`` wraps the route layers named in ``ROUTE_LAYERS`` and
reports a traced ``fieldmap`` or ``points`` run as incorrect when one of
them records no call.  These tests wrap the same names with counters,
rebinding every ``beamkit`` module attribute that refers to the function
as the tracer does, and fail as soon as a route stops calling one of
them.
"""
import ast
import math
import sys
from pathlib import Path

import pytest

import beamkit
from beamkit import cli

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _route_layers():
    # read the tuple from the benchmark's source, without importing it
    for node in ast.parse(RUN_PY.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["ROUTE_LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("ROUTE_LAYERS not found in perfbench/run.py")


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    mods = [m for key, m in list(sys.modules.items())
            if key == "beamkit" or key.startswith("beamkit.")]
    for name in _route_layers():
        mod, attr = name.split(".")
        orig = getattr(sys.modules[f"beamkit.{mod}"], attr)
        counts[name] = 0

        def counting(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, counting)
    return counts


def test_route_layers_cover_every_route():
    layers = _route_layers()
    for name in ("beamcore.eval_direct", "pwseries.eval_series",
                 "integralrep.eval_integral_rep"):
        assert name in layers


def test_map_calls_every_route_layer(calls, tmp_path):
    # the grid of perfbench's traced fieldmap test: z = +-1, rho = 4 has
    # 1 - |cos eta| = 0.757, past the ray band, so the cell engine runs
    for rep in ("direct", "series", "integral"):
        rc = cli.main(["map", "--rep", rep, "--omega", "6", "--cos-theta",
                       "0.8", "--z-min", "-3", "--z-max", "3", "--z-steps",
                       "4", "--rho-min", "0", "--rho-max", "4",
                       "--rho-steps", "3", "--out",
                       str(tmp_path / f"{rep}.csv")])
        assert rc == 0
    assert [name for name, n in calls.items() if not n] == []


def test_single_points_call_every_route_layer(calls):
    # one point per call through each route, as the points workload does;
    # the last point lies past the ray band
    b = beamkit.BeamParams(omega=3.0, cos_theta=0.7)
    past_band = 0.2 * math.sqrt(15.0) * 1.2
    for z, rho in ((1.0, 2.0), (-0.4, 0.3), (0.2, past_band)):
        p = beamkit.FieldPoint(z=z, rho=rho, t=0.5)
        beamkit.eval_direct(b, p)
        beamkit.eval_series(b, p)
        beamkit.eval_integral_rep(b, p)
    assert [name for name, n in calls.items() if not n] == []


def test_verify_triplesum_feeds_the_tracer(monkeypatch, tmp_path):
    # perfbench wraps triple_legendre_sum, rebinding every beamkit module
    # attribute that refers to it, reads ``out.n_terms`` from each call
    # and requires a call on a traced verify
    from beamkit import wavepacket
    orig = wavepacket.triple_legendre_sum
    returns = []

    def traced(*args, **kwargs):
        out = orig(*args, **kwargs)
        returns.append(out)
        return out

    for m in [m for key, m in list(sys.modules.items())
              if key == "beamkit" or key.startswith("beamkit.")]:
        for key, val in list(vars(m).items()):
            if val is orig:
                monkeypatch.setattr(m, key, traced)
    rc = cli.main(["verify", "--suite", "triplesum", "--out",
                   str(tmp_path / "reports.json")])
    assert rc == 0
    assert returns
    assert all(type(out.n_terms) is int for out in returns)
