"""Tests of the benchmark itself: inputs, oracle checks and the traced run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import beamkit  # noqa: E402
from beamkit import cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def test_point_inputs_are_deterministic_and_in_range():
    a = wl.point_inputs(7)
    assert np.array_equal(a, wl.point_inputs(7))
    assert not np.array_equal(a, wl.point_inputs(8))
    assert a.shape == (wl.N_POINTS, 5)
    omega, cos_theta, z, rho, t = a.T
    assert np.all((np.abs(omega) >= 0.5) & (np.abs(omega) <= 12.0))
    assert (omega < 0).any() and (omega > 0).any()
    assert np.all(np.abs(cos_theta) <= 1.0)
    assert np.all(np.abs(z) <= 3.0) and np.all(np.abs(t) <= 2.0)
    assert np.all((rho >= 0.0) & (rho <= 5.0))


def test_map_argv_is_the_readme_grid_or_one_of_its_rows():
    argv = wl.map_argv("series", "out.csv")
    assert argv == wl.map_argv("series", "out.csv")
    args = cli.build_parser().parse_args(argv)
    assert (args.omega, args.cos_theta, args.t) == (6.0, 0.8, 0.0)
    assert (args.z_min, args.z_max, args.z_steps) == (-3.0, 3.0, 61)
    assert (args.rho_min, args.rho_max, args.rho_steps) == (0.0, 4.0, 41)
    assert len(wl.map_grid()[0]) == 61 * 41
    args = cli.build_parser().parse_args(wl.map_argv("series", "o.csv", 7))
    z = wl.map_zs()[7]
    assert (args.z_min, args.z_max, args.z_steps) == (z, z, 1)
    assert (args.rho_min, args.rho_max, args.rho_steps) == (0.0, 4.0, 41)


@pytest.fixture(scope="module")
def direct_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("map") / "direct.csv")
    assert cli.main(wl.map_argv("direct", path)) == 0
    with open(path) as fh:
        return fh.read().splitlines()


def _check_lines(lines, code=0):
    return wl.check_map("direct", code, "\n".join(lines) + "\n")


def test_map_check_passes_the_direct_map(direct_csv):
    tally = _check_lines(direct_csv)
    assert (tally.attempted, tally.failed, tally.errors) == (61 * 41, 0, [])


def test_map_check_catches_one_perturbed_value(direct_csv):
    lines = list(direct_csv)
    cells = lines[1234].split(",")
    cells[3] = repr(float(cells[3]) + 1e-12)
    lines[1234] = ",".join(cells)
    tally = _check_lines(lines)
    assert tally.failed == 1 and "row 1233 " in tally.misses[0]
    assert len(tally.errors) == 1


def test_map_check_counts_nan_rows_as_flagged_misses(direct_csv):
    lines = list(direct_csv)
    cells = lines[10].split(",")
    lines[10] = ",".join(cells[:3] + ["nan"] * 3)
    assert _check_lines(lines, code=3).errors == []
    assert _check_lines(lines, code=3).failed == 1
    assert _check_lines(lines, code=0).errors


@pytest.mark.parametrize("edit", ["header", "order", "short"])
def test_map_check_rejects_malformed_csv(direct_csv, edit):
    lines = list(direct_csv)
    if edit == "header":
        lines[0] = "z,rho,t,re,im"
    elif edit == "order":
        lines[1], lines[2] = lines[2], lines[1]
    else:
        lines.pop()
    assert _check_lines(lines).errors


def test_fieldmap_item_maps_one_row_by_every_route(tmp_path):
    work = wl.FieldMap(cli, str(tmp_path))
    secs, out = work.run(60)
    assert sorted(secs) == sorted(wl.REPS)
    tally = work.check(60, out)
    assert (tally.attempted, tally.failed, tally.errors) == (3 * 41, 0, [])
    # a row's map checked as another row is caught
    assert work.check(59, out).errors


def test_points_check_catches_one_perturbed_value():
    work = wl.Points(beamkit, wl.point_inputs(0)[:8])
    outs = [work.run(i)[1] for i in work.items]
    tally = wl.Tally()
    for i, out in enumerate(outs):
        tally.merge(work.check(i, out))
    assert (tally.attempted, tally.failed, tally.errors) == (24, 0, [])
    (d, s, q), conv = outs[3]
    tally = work.check(3, ((d, s + 1e-9, q), conv))
    assert tally.failed == 1 and tally.misses[0].startswith("point series #3")
    assert len(tally.errors) == 1
    tally = work.check(3, ((d, s + 1e-9, q), (False, conv[1])))
    assert (tally.failed, tally.errors) == (1, [])


class _Counter(wl.Work):
    """A workload whose second item returns something new on every call."""

    name = "counter"
    items = ["a", "b"]

    def __init__(self):
        self.calls = 0

    def run(self, key):
        self.calls += 1
        return {"only": 0.001}, (key, self.calls if key == "b" else 0)

    def check(self, key, out):
        return wl.Tally(attempted=1)

    def check_cycle(self, outs):
        return wl.Tally(attempted=10)


def test_only_the_first_cycle_counts_and_repeats_must_match():
    cyc = run.Cycles(_Counter())
    cyc.cycle()
    assert (cyc.tally.attempted, cyc.tally.errors) == (12, [])
    cyc.cycle()
    assert cyc.tally.attempted == 12
    assert cyc.tally.errors == ["counter item 'b': output differs from its "
                                "first call"]
    assert cyc.medians() == [0.001, 0.001]


def test_reference_samples_once_per_interval_since_the_last():
    ref = run.Reference()
    ref.due()
    assert len(ref.samples) == 1
    ref.last -= 4.5 * run.REF_EVERY
    ref.due()
    assert len(ref.samples) == 5
    ref.last -= 1e6
    ref.due()
    assert len(ref.samples) == 5 + run.REF_BURST
    assert ref.scale() > 0


def test_untimed_run_reports_every_end_to_end_metric(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    ctx = {"bk": beamkit, "cli": cli, "tmp": str(tmp_path),
           "points": wl.point_inputs(0)[:16]}
    metrics, tally = run.measure("points", ctx, 0.2, ROOT, seed=0)
    assert sorted(metrics) == sorted(END_TO_END)
    assert all(v > 0 for v, _ in metrics.values())
    assert (tally.attempted, tally.errors) == (48, [])


def test_self_time_is_own_thread_cpu_less_children():
    # span 0 runs in thread 0 and holds 5 there; 1 and 2 run in pool worker
    # 1, 3 in worker 2; 4 sits under 1
    parent = np.array([-1, 0, 0, 0, 1, 0])
    tid = np.array([0, 1, 1, 2, 1, 0])
    c0 = np.array([0.0, 10.0, 14.0, 20.0, 11.0, 0.5])
    c1 = np.array([2.0, 13.0, 15.0, 24.0, 12.0, 1.0])
    # worker 1 spends 1.0 between its children, worker 2 nothing
    want = np.array([2.0 - 0.5 + 1.0, 2.0, 1.0, 4.0, 1.0, 0.5])
    assert np.allclose(tracing.self_times(parent, tid, c0, c1), want)
    cost = tracing.SpanCost(inside=0.1, outside=0.01, wall=0.0)
    kids = np.array([4, 1, 0, 0, 0, 0])
    assert np.allclose(tracing.self_times(parent, tid, c0, c1, cost),
                       want - 0.1 - 0.01 * kids)


def test_calibrated_cost_is_small_and_positive():
    cost = tracing.calibrate()
    for value in (cost.inside, cost.outside, cost.wall):
        assert 0.0 < value < 1e-3


def test_tracer_rebinds_every_reference_and_restores_them():
    orig = beamkit.specfun.legendre_p_sequence
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (beamkit, beamkit.specfun, beamkit.pwseries,
                    beamkit.wavepacket, beamkit.identities):
            assert mod.legendre_p_sequence.__wrapped__ is orig
        beamkit.eval_series(beamkit.BeamParams(3.0, 0.7),
                            beamkit.FieldPoint(1.0, 2.0, 0.5))
    finally:
        tracer.uninstall()
    assert beamkit.pwseries.legendre_p_sequence is orig
    calls = tracing.call_counts(tracer.spans())
    assert calls["pwseries.eval_series"] == 1
    assert calls["specfun.legendre_p_sequence"] >= 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path,
                                                   monkeypatch, capsys):
    # a small grid and few points keep the fieldmap and points runs short
    monkeypatch.setattr(wl, "MAP_Z", (-3.0, 3.0, 4))
    monkeypatch.setattr(wl, "MAP_RHO", (0.0, 4.0, 3))
    ctx = {"bk": beamkit, "cli": cli, "tmp": str(tmp_path),
           "points": wl.point_inputs(0)[:16]}
    metrics, tally = run.measure_traced(workload, ctx, tmp_path, seed=0)
    assert sorted(metrics) == sorted(PER_LAYER)
    assert tally.errors == []
    assert metrics["bench.trace_overhead_ratio"][0] > 0
    for name in run.EXPECTED_CALLS[workload]:
        key = (f"{name}.ms" if name.startswith("identities.")
               else f"{name}.self_ms")
        if key in metrics:
            assert metrics[key][0] > 0, key
    assert (tmp_path / ".perfbench-out"
            / f"spans-{workload}-seed0.npz").is_file()
