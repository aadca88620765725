import cmath
import hashlib
import importlib.util
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit import integralrep, oscquad
from beamkit.beamcore import BeamParams, FieldPoint, cauchy, eval_direct, vacuum
from beamkit.cli import main
from beamkit.integralrep import eval_integral_rep
from beamkit.oscquad import _RAY_CUT, _WKD, _k15_nodes, _ray_edges


class TestAnalyticBranch:
    def test_origin_no_quadrature(self):
        b = BeamParams(omega=3.0, cos_theta=0.6)
        res = eval_integral_rep(b, FieldPoint(0.0, 0.0, 0.7))
        assert res.n_evals == 0
        assert res.converged is True
        assert res.value == pytest.approx(
            eval_direct(b, FieldPoint(0.0, 0.0, 0.7)), abs=1e-15)

    @pytest.mark.parametrize("z", [1.5, -2.0])
    def test_on_axis_matches_direct(self, z):
        b = BeamParams(omega=2.0, cos_theta=0.8)
        p = FieldPoint(z, 0.0, 0.4)
        res = eval_integral_rep(b, p)
        assert res.n_evals == 0
        assert res.value == eval_direct(b, p)
        assert abs(res.value) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("omega,z,rho", [(1e4, 1.0, 1.4e-8),
                                             (1e6, 3.0, 1e-8),
                                             (1e9, 3.0, 1e-8)])
    def test_rounded_axis_keeps_j0(self, omega, z, rho):
        # z/r rounds to 1 here, so the point is analytic; its value is the
        # closed form with J_0(omega sin theta rho), which a bare axis
        # phase missed by 1.76e-9, 9.0e-6 and 0.849
        b = BeamParams(omega=omega, cos_theta=0.8)
        p = FieldPoint(z, rho, 0.0)
        res = eval_integral_rep(b, p)
        assert res.value == eval_direct(b, p)
        assert res.converged is True
        assert res.n_evals == 0
        assert abs(res.value) < 1.0

    def test_near_axis_continuity(self):
        # close to the axis the quadrature value must continue the
        # analytic branch (the direct field is that continuation)
        b = BeamParams(omega=2.0, cos_theta=0.8)
        on = eval_integral_rep(b, FieldPoint(1.5, 0.0, 0.0))
        p = FieldPoint(1.5, 0.05, 0.0)
        off = eval_integral_rep(b, p, tol=1e-9)
        assert off.converged
        assert off.value == pytest.approx(eval_direct(b, p), abs=1e-8)
        gap = abs(eval_direct(b, p) - on.value)
        assert abs(off.value - on.value) <= gap + 1e-8

    def test_boundary_layer_reported_honestly(self):
        # just off the axis the integrand beats over ~1/(1 - |cos eta|),
        # far past any budget; the engine must flag that, not fake a value
        b = BeamParams(omega=2.0, cos_theta=0.8)
        p = FieldPoint(1.5, 1e-4, 0.0)
        res = eval_integral_rep(b, p, tol=1e-9)
        ok = res.converged and abs(res.value - eval_direct(b, p)) < 1e-6
        assert ok or res.converged is False


class TestPointsDomain:
    @settings(max_examples=30, deadline=None)
    @given(omega=st.floats(0.5, 12.0), negative=st.booleans(),
           cos_theta=st.floats(-1.0, 1.0), z=st.floats(-3.0, 3.0),
           rho=st.floats(0.0, 5.0), t=st.floats(-2.0, 2.0))
    def test_matches_direct_or_flags(self, omega, negative, cos_theta, z,
                                     rho, t):
        # the benchmark's point domain: every value is within 1e-6 of the
        # closed form, or the route says that it is not
        b = BeamParams(omega=-omega if negative else omega,
                       cos_theta=cos_theta)
        p = FieldPoint(z=z, rho=rho, t=t)
        res = eval_integral_rep(b, p)
        assert (abs(res.value - eval_direct(b, p)) <= 1e-6
                or res.converged is False)

    @pytest.mark.parametrize("cos_theta", [1.0, -1.0])
    def test_collinear_beam_matches_direct(self, cos_theta):
        # beta = 0: R = |lam - m| reaches 0, so the kernel keeps the
        # masked j_0 instead of sin(R)/R
        b = BeamParams(omega=3.0, cos_theta=cos_theta)
        p = FieldPoint(z=1.0, rho=0.8, t=0.3)
        res = eval_integral_rep(b, p)
        assert res.converged
        assert res.value == pytest.approx(eval_direct(b, p), abs=1e-6)


def _ray_panel_estimates(a, beta2, rate, sign):
    """|K15 - G7| of each panel of ``_ray_edges`` on the ray
    z = a + i*sign*s, for the integrand e^{i sign q - rate s} / (2R)."""
    edges = np.array(_ray_edges(a, beta2, rate))
    h, s = _k15_nodes(edges[:-1], edges[1:])
    z = a + 1j * sign * s
    r = np.sqrt(z * z + beta2)
    fx = np.exp(1j * sign * (beta2 / (r + z)) - rate * s) / (2.0 * r)
    return h * np.abs(fx @ _WKD[:, 1])


def _found_rays(omega=6.0, cos_theta=0.8, z=1.0, rho=1.5):
    """(a, beta2, rate) of the two rays of one point, laid out as
    ``_segment_and_rays`` lays them out: from a = cos_eta beta / sin_eta
    + pi on the half line u = lambda - m >= 0."""
    r = math.hypot(z, rho)
    mu, c, delta = omega * r, z / r, rho * rho / (r * (r + abs(z)))
    beta2 = mu * mu * (1.0 - cos_theta * cos_theta)
    a = abs(c) * math.sqrt(beta2) / math.sqrt(delta * (2.0 - delta))
    return [(a + math.pi, beta2, 2.0 - delta), (a + math.pi, beta2, delta)]


# the rays at omega=6, cos_theta=0.8, z=1, rho=1.5, then those of the
# near-axis point omega=3, cos_theta=0.7, z=3, rho=0.05, whose down ray
# decays at rate 1.4e-4
_FOUND = _found_rays() + _found_rays(3.0, 0.7, 3.0, 0.05)


class TestNearAxis:
    @settings(max_examples=20, deadline=None)
    @given(log_rho=st.floats(-6.0, -1.0), omega=st.floats(0.5, 12.0),
           negative=st.booleans(), cos_theta=st.floats(-1.0, 1.0),
           abs_z=st.floats(0.3, 3.0), below=st.booleans())
    def test_matches_direct_or_flags_quickly(self, log_rho, omega, negative,
                                             cos_theta, abs_z, below):
        # rho towards 0: every value is within 1e-6 of the closed form or
        # flagged, and no call stalls (the cell engine spent ~0.3 s here)
        b = BeamParams(omega=-omega if negative else omega,
                       cos_theta=cos_theta)
        p = FieldPoint(z=-abs_z if below else abs_z, rho=10.0 ** log_rho,
                       t=0.3)
        t0 = time.perf_counter()
        res = eval_integral_rep(b, p)
        elapsed = time.perf_counter() - t0
        assert (abs(res.value - eval_direct(b, p)) <= 1e-6
                or res.converged is False)
        assert elapsed < 1.0

    @pytest.mark.parametrize("a,beta2,rate", [
        (100.0, 4.0, 2.0), (100.0, 4.0, 1e-4), (5e5, 1e4, 1e-9),
        (2e3, 1.6e3, 5e-4), (3.2, 9.0, 0.5), (3.2, 9.0, 1.5)])
    def test_ray_ends_where_integrand_negligible(self, a, beta2, rate):
        # |e^{+-iq - rate s} / (2R)| at the last edge is below the cut over
        # the decay length 1/rate, and nowhere past it is larger
        edges = _ray_edges(a, beta2, rate)

        def log_mag(s):
            z = complex(a, s)
            r = cmath.sqrt(z * z + beta2)
            return -rate * s - (beta2 / (r + z)).imag - math.log(2 * abs(r))

        end = edges[-1]
        assert np.all(np.diff(edges) > 0)
        assert log_mag(end) <= math.log(_RAY_CUT * rate)
        beyond = end * (1.0 + np.geomspace(1e-3, 1e3, 40))
        assert max(log_mag(s) for s in beyond) <= log_mag(end)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    @pytest.mark.parametrize("a,beta2,rate", [
        (100.0, 4.0, 2.0), (100.0, 4.0, 1e-4), (5e5, 1e4, 1e-9),
        (2e3, 1.6e3, 5e-4), (3.2, 9.0, 0.5), (3.2, 9.0, 1.5)]
        + [pytest.param(*ray, id=f"found{k}")
           for k, ray in enumerate(_FOUND)])
    def test_ray_panels_widen_within_first_estimate(self, a, beta2, rate,
                                                     sign):
        # panels widen as the integrand decays, but no panel's K15 - G7
        # difference exceeds the first panel's
        est = _ray_panel_estimates(a, beta2, rate, sign)
        assert np.all(est <= est[0])

    def test_ray_panels_widen_as_integrand_decays(self):
        # omega=6, cos_theta=0.8, z=1, rho=1.5: the four rays of the whole
        # line took 59 panels while every panel was sized for the local
        # frequency, and 32 widened; the two rays of the half line take 19
        panels = sum(len(_ray_edges(*ray)) - 1 for ray in _found_rays())
        assert panels <= 19

    def test_ray_point_lays_out_two_rays(self, monkeypatch):
        # the half line u >= 0 has one tail: its two parts go up and down
        # one ray each, where the whole line took four
        calls = []
        edges = oscquad._ray_edges

        def counting(*args):
            calls.append(args)
            return edges(*args)

        monkeypatch.setattr(oscquad, "_ray_edges", counting)
        b = BeamParams(omega=6.0, cos_theta=0.8)
        p = FieldPoint(z=1.0, rho=1.5, t=0.0)
        res = eval_integral_rep(b, p)
        assert res.converged is True
        assert abs(res.value - eval_direct(b, p)) <= 1e-9
        assert len(calls) == 2


class TestRouteSelection:
    @pytest.mark.parametrize("scale,engine_calls", [
        (1.0 - 1e-9, 0), (1.0 + 1e-9, 1)], ids=["rays", "engine"])
    def test_engine_only_from_threshold(self, monkeypatch, scale,
                                        engine_calls):
        # rho = sqrt(15) z puts 1 - |cos eta| at 3/4: just below it the rays
        # take the point, at and above it the cell engine
        calls = []
        engine = integralrep.integrate_oscillatory_infinite

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(integralrep, "integrate_oscillatory_infinite",
                            counting)
        b = BeamParams(omega=3.0, cos_theta=0.6)
        p = FieldPoint(z=1.2, rho=1.2 * math.sqrt(15.0) * scale, t=0.4)
        res = eval_integral_rep(b, p)
        assert len(calls) == engine_calls
        assert res.converged is True
        assert abs(res.value - eval_direct(b, p)) <= 1e-9

    @pytest.mark.parametrize("omega,cos_theta", [
        (500.0, 0.8), (1000.0, 0.0), (3000.0, 0.3)])
    def test_engine_out_of_reach_takes_rays(self, monkeypatch, omega,
                                            cos_theta):
        # z = 0.5, rho = 4: 1 - |cos eta| = 0.876 lies in the engine's band,
        # but at mu = 2016, 4031 and 12,093 its half-period cells would
        # spend every one of their 640 pairs before the tail at mu + pi
        # (flagged after 19,200 evals, claim 5.7e307).  The rays converge
        def engine(*args, **kwargs):
            raise AssertionError("the cell engine was called")

        monkeypatch.setattr(integralrep, "integrate_oscillatory_infinite",
                            engine)
        b = BeamParams(omega=omega, cos_theta=cos_theta)
        p = FieldPoint(z=0.5, rho=4.0, t=0.0)
        res = eval_integral_rep(b, p)
        assert res.converged is True
        assert abs(res.value - eval_direct(b, p)) <= res.error_estimate


class TestDomainSweepPoints:
    # points of the seeded 600-point domain sweep (scripts/domain_sweep.py)
    # that the cell engine returned 0.015-0.93 off with converged=True, as
    # (omega, cos_theta, z, rho, t) rounded to 4 digits.  BAND lies within
    # 1 - |cos eta| < 1/512, OFF_BAND between 0.12 and 0.34; both lie
    # inside the ray band (1 - |cos eta| < 3/4) and take the rays
    BAND = [(1412, -0.6725, -4.243, 0.0004952, 2.33),
            (1184, 0.2099, 3.945, 0.001264, -1.669),
            (1904, 0.2398, 4.592, 0.0127, -2.034),
            (1586, -0.5694, -4.686, 0.1013, 0.919),
            (1067, 0.388, -3.877, 0.03446, -0.2815)]
    OFF_BAND = [(1091, -0.938, 1.04, 1.17, 0.1138),
                (251.5, 0.8526, -4.765, 4.421, 1.882),
                (-1517, -0.9078, -2.097, 1.13, 0.6051)]

    @staticmethod
    def _right_or_flagged(omega, cos_theta, z, rho, t):
        b = BeamParams(omega=omega, cos_theta=cos_theta)
        p = FieldPoint(z=z, rho=rho, t=t)
        res = eval_integral_rep(b, p)
        assert ((res.converged is True
                 and abs(res.value - eval_direct(b, p)) <= 1e-6)
                or res.converged is False)

    @pytest.mark.parametrize("pt", BAND, ids=lambda pt: f"omega{pt[0]}")
    def test_near_axis_band(self, pt):
        self._right_or_flagged(*pt)

    @pytest.mark.parametrize("pt", OFF_BAND, ids=lambda pt: f"omega{pt[0]}")
    def test_off_band(self, pt):
        self._right_or_flagged(*pt)

    def test_first_sweep_draws_right_or_flagged(self):
        # the first 100 draws of scripts/domain_sweep.py (seed 12345),
        # through the integral route alone: each within 1e-6 of the closed
        # form or flagged, and none slow.  About 1 s in all; the slowest
        # point takes about 0.2 s
        path = Path(__file__).resolve().parent.parent / "scripts"
        spec = importlib.util.spec_from_file_location(
            "_script_domain_sweep", path / "domain_sweep.py")
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        for omega, cos_theta, z, rho, t in sweep.draws(100, 12345):
            b = BeamParams(omega=omega, cos_theta=cos_theta)
            p = FieldPoint(z=z, rho=rho, t=t)
            t0 = time.perf_counter()
            res = eval_integral_rep(b, p)
            elapsed = time.perf_counter() - t0
            assert (res.converged is False
                    or abs(res.value - eval_direct(b, p)) <= 1e-6), (b, p)
            assert elapsed < 1.0, (b, p)


class TestOffAxis:
    POINTS = [
        (1.0, 0.3, 0.0),
        (0.5, 1.0, -0.7),
        (-1.2, 2.0, 0.4),
        (0.0, 1.5, 1.0),
        (2.0, 0.7, 0.2),
    ]

    @pytest.mark.parametrize("z,rho,t", POINTS)
    def test_matches_direct(self, z, rho, t):
        b = BeamParams(omega=3.0, cos_theta=math.sqrt(0.5))
        p = FieldPoint(z, rho, t)
        res = eval_integral_rep(b, p, tol=1e-9)
        assert res.converged
        assert res.value == pytest.approx(eval_direct(b, p), abs=1e-6)

    def test_negative_omega(self):
        b = BeamParams(omega=-3.0, cos_theta=0.5)
        p = FieldPoint(0.8, 1.1, 0.3)
        res = eval_integral_rep(b, p)
        assert res.converged
        assert res.value == pytest.approx(eval_direct(b, p), abs=1e-6)

    def test_cos_theta_zero(self):
        b = BeamParams(omega=2.0, cos_theta=0.0)
        p = FieldPoint(0.9, 1.3, 0.0)
        res = eval_integral_rep(b, p)
        assert res.converged
        assert res.value == pytest.approx(eval_direct(b, p), abs=1e-6)

    def test_error_estimate_honest(self):
        b = BeamParams(omega=3.0, cos_theta=0.6)
        p = FieldPoint(1.0, 0.8, 0.0)
        res = eval_integral_rep(b, p, tol=1e-10)
        true = eval_direct(b, p)
        assert abs(res.value - true) <= max(10 * res.error_estimate, 1e-8)


class TestConvergenceReporting:
    def test_near_axis_stall_cost_pinned(self):
        # rho = 0.05 beats over ~7000 half-periods, where half-period cells
        # share a sign; the ray quadrature converges on one Clenshaw-Curtis
        # panel of 897 nodes on [0, a] and 28 K15 panels on its two rays.
        # A count, unlike a time, pins the cost on any host
        b = BeamParams(omega=3.0, cos_theta=0.7)
        p = FieldPoint(z=3.0, rho=0.05, t=0.0)
        res = eval_integral_rep(b, p)
        assert res.converged is True
        assert abs(res.value - eval_direct(b, p)) <= 1e-12
        assert res.n_evals == 1317

    def test_beat_past_budget_costs_nothing(self):
        # 1 - cos_eta ~ 5e-15: the real saddle lies near lambda = 1e7, so
        # the segment up to it alone needs ~2e8 nodes, past the budget of
        # 640 * 15360; the route says so before evaluating anything
        b = BeamParams(omega=1.0, cos_theta=0.0)
        res = eval_integral_rep(b, FieldPoint(z=1.0, rho=1e-7, t=0.0))
        assert res.converged is False
        assert res.n_evals == 0

    def test_long_segment_within_budget_converges(self):
        # mu = 5.7e6: the segment [0, a], a = 1.6e6, takes 2,190,573
        # Clenshaw-Curtis nodes, and the rays fit in what is left of the
        # 9,830,400-node budget
        b = BeamParams(omega=1.5e6, cos_theta=0.0)
        p = FieldPoint(z=1.0, rho=3.7, t=0.0)
        res = eval_integral_rep(b, p)
        assert res.converged is True
        assert abs(res.value - eval_direct(b, p)) <= res.error_estimate

    def test_overflowed_segment_refused(self):
        # omega = 1e160 on the plane z = 0: mu + pi passes 640 pi, so the
        # point takes the rays, where beta^2 overflows and
        # a = 0 * inf + pi is NaN.  It is refused before any evaluation and
        # without a warning (the cells overflowed in the chord)
        b = BeamParams(omega=1e160, cos_theta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = eval_integral_rep(b, FieldPoint(z=0.0, rho=1.0, t=0.0))
        assert res.converged is False
        assert res.n_evals == 0

    def test_budget_exhaustion_flags_not_raises(self):
        # 1 - |cos eta| = 0.85 takes the cell engine, which runs out of
        # its 3 cell pairs before reaching tol
        b = BeamParams(omega=3.0, cos_theta=0.6)
        p = FieldPoint(0.3, 2.0, 0.0)
        res = eval_integral_rep(b, p, tol=1e-13, max_cell_pairs=3)
        assert res.converged is False

    def test_ray_layout_past_budget_flags_not_raises(self):
        # 1 - |cos eta| = 0.22 takes the rays; at mu = 12,806 their segment
        # on the half line alone needs more than 25,000 nodes, past the
        # budget of 1 * 15360, so the route says so before evaluating
        # anything
        b = BeamParams(omega=10000.0, cos_theta=0.6)
        p = FieldPoint(1.0, 0.8, 0.0)
        res = eval_integral_rep(b, p, max_cell_pairs=1)
        assert res.converged is False
        assert res.n_evals == 0

    def test_refused_ray_layout_stops_early(self, monkeypatch):
        # omega = 1.5e6 within 150 cell pairs, 2,304,000 nodes: 7561 K15
        # panels are left after the segment's 2,190,573 nodes, and the down
        # ray alone would take 69,401 before the refusal.  Each ray stops
        # as soon as it passes what is left
        panels = []
        edges = oscquad._ray_edges

        def counting(*args):
            out = edges(*args)
            panels.append(len(out) - 1)
            return out

        monkeypatch.setattr(oscquad, "_ray_edges", counting)
        b = BeamParams(omega=1.5e6, cos_theta=0.0)
        p = FieldPoint(z=1.0, rho=3.7, t=0.0)
        t0 = time.perf_counter()
        res = eval_integral_rep(b, p, max_cell_pairs=150)
        assert time.perf_counter() - t0 < 0.05
        assert res.converged is False
        assert res.n_evals == 0
        assert sum(panels) <= 7561 + 1

    def test_ray_limit_keeps_accepted_layouts(self):
        # a limit at or past a ray's own panel count changes no edge; one
        # under it ends the layout one panel past the limit
        ray = (7.0, 2.25, 0.2)
        full = _ray_edges(*ray)
        k = len(full) - 1
        assert _ray_edges(*ray, k) == full
        assert _ray_edges(*ray, k - 3) == full[:k - 1]

    def test_converged_is_plain_bool(self):
        b = BeamParams(omega=2.0, cos_theta=0.5)
        res = eval_integral_rep(b, FieldPoint(0.5, 0.9, 0.0))
        assert type(res.converged) is bool

    @pytest.mark.parametrize("rho", [2.0, 0.0], ids=["off_axis", "axis"])
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
    def test_bad_tol_raises(self, tol, rho):
        # a NaN tolerance used to spend ~20x the evals of tol=1e-10 and
        # come back converged=False; the analytic branches refuse it too
        b = BeamParams(omega=3.0, cos_theta=0.7)
        with pytest.raises(ValueError):
            eval_integral_rep(b, FieldPoint(z=1.0, rho=rho, t=0.0), tol=tol)

    @pytest.mark.parametrize("z,rho", [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)],
                             ids=["origin", "axis", "off_axis"])
    @pytest.mark.parametrize("budget", [0, -3, True, 2.0, None])
    def test_bad_cell_budget_raises(self, budget, z, rho):
        # the analytic origin and axis used to return converged=True for a
        # budget the engine refuses off the axis
        b = BeamParams(omega=3.0, cos_theta=0.7)
        with pytest.raises(ValueError, match="max_cell_pairs"):
            eval_integral_rep(b, FieldPoint(z=z, rho=rho, t=0.0),
                              max_cell_pairs=budget)

    @pytest.mark.parametrize("z,rho", [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)],
                             ids=["origin", "axis", "off_axis"])
    def test_numpy_int_budget_accepted(self, z, rho):
        b = BeamParams(omega=3.0, cos_theta=0.7)
        p = FieldPoint(z=z, rho=rho, t=0.0)
        res = eval_integral_rep(b, p, max_cell_pairs=np.int64(640))
        assert res == eval_integral_rep(b, p)


class TestReadmeRow:
    def test_z3_row_matches_direct(self):
        # the README map's z = 3 row: rho = 0 is analytic, and every other
        # point has 1 - |cos eta| below 1/2 and takes the ray quadrature;
        # the cell engine would start only at rho = 3 sqrt(15), past the row
        b = BeamParams(omega=6.0, cos_theta=0.8)
        for rho in np.linspace(0.0, 4.0, 41):
            p = FieldPoint(z=3.0, rho=float(rho), t=0.0)
            res = eval_integral_rep(b, p)
            assert res.converged, rho
            assert abs(res.value - eval_direct(b, p)) <= 1e-9, rho

    def test_z1_row_between_half_and_threshold(self, monkeypatch):
        # the README map's z = 1 row: the 21 points with 1.8 <= rho <= 3.8
        # have 1/2 <= 1 - |cos eta| < 3/4 and take the rays; only rho = 3.9
        # and 4 reach 3/4 and call the engine
        calls = []
        engine = integralrep.integrate_oscillatory_infinite

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(integralrep, "integrate_oscillatory_infinite",
                            counting)
        b = BeamParams(omega=6.0, cos_theta=0.8)
        band = 0
        for rho in np.linspace(0.0, 4.0, 41):
            p = FieldPoint(z=1.0, rho=float(rho), t=0.0)
            r = math.hypot(1.0, rho)
            band += 0.5 <= rho * rho / (r * (r + 1.0)) < 0.75
            res = eval_integral_rep(b, p)
            assert res.converged, rho
            assert abs(res.value - eval_direct(b, p)) <= 1e-9, rho
        assert band == 21
        assert len(calls) == 2

    def test_grid_work_pinned(self, monkeypatch):
        # the whole README integral map, 61 x 41 points: 2014 take the
        # rays, each with two ray layouts, and the route takes 1,629,142
        # integrand evaluations.  A count, unlike a time, pins the cost on
        # any host
        calls = []
        edges = oscquad._ray_edges

        def counting(*args):
            calls.append(1)
            return edges(*args)

        monkeypatch.setattr(oscquad, "_ray_edges", counting)
        b = BeamParams(omega=6.0, cos_theta=0.8)
        n_evals = 0
        for z in np.linspace(-3.0, 3.0, 61):
            for rho in np.linspace(0.0, 4.0, 41):
                res = eval_integral_rep(
                    b, FieldPoint(z=float(z), rho=float(rho), t=0.0))
                assert res.converged is True
                n_evals += res.n_evals
        assert len(calls) == 4028
        assert n_evals == 1629142

    def test_rows_z_minus1_0_1_bit_for_bit(self, tmp_path):
        # the README integral map's rows z = -1, 0 and 1, as
        # ``beamkit map`` writes them: 123 points over the analytic axis,
        # the rays (1 - |cos eta| < 3/4) and the cell engine (z = 0 and
        # the far end of z = +-1).  Any change to a layout, a weight or an
        # error claim of either path shows here as a new digest
        out = tmp_path / "rows.csv"
        assert main(["map", "--rep", "integral", "--omega", "6",
                     "--cos-theta", "0.8", "--z-min", "-1", "--z-max", "1",
                     "--z-steps", "3", "--rho-min", "0", "--rho-max", "4",
                     "--rho-steps", "41", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cbdf35e1250da728431042798f24374794b92d8d8b1be23de5357faced8be96b")


class TestClaimAgainstMpmath:
    # points of a stress set (cos theta in {+-1, 0, 0.999999, -0.5},
    # omega in [-150, 40], vacuum and cauchy(1.5, 0.01)) where sin theta
    # as sqrt(1 - c*c) puts eval_direct 4.5e-11 off the field, further
    # from the integral route than the route's claim.  Against the field
    # to 40 digits eval_direct must be within 1e-13 and the integral route
    # within its claim.  Rows are (cos_theta, omega, cauchy medium?, z,
    # rho, t)
    POINTS = [(0.999999, 40.0, True, 0.76, 2.43, -0.75),
              (0.999999, 40.0, True, 2.76, 2.59, -1.8),
              (0.999999, 20.0, True, -1.16, 2.89, -0.14),
              (0.999999, -30.0, True, -0.92, 2.85, 0.29),
              (0.999999, -60.0, True, -0.93, 1.85, 0.73),
              (0.999999, -120.0, True, 0.63, 1.99, 0.71),
              (0.999999, -150.0, True, -1.85, 2.14, -1.2),
              (0.999999, -60.0, False, 2.07, 2.85, 1.62),
              (0.999999, -150.0, False, 0.75, 2.71, 1.1),
              (0.999999, -150.0, False, -2.97, 2.5, 1.19)]

    @pytest.mark.parametrize("pt", POINTS,
                             ids=lambda pt: f"omega{pt[1]}-{pt[2]}-z{pt[3]}")
    def test_error_within_claim(self, pt):
        mp = pytest.importorskip("mpmath")
        cos_theta, omega, dispersive, z, rho, t = pt
        medium = cauchy(1.5, 0.01) if dispersive else vacuum()
        b = BeamParams(omega=omega, cos_theta=cos_theta)
        p = FieldPoint(z=z, rho=rho, t=t)
        res = eval_integral_rep(b, p, medium=medium)
        direct = eval_direct(b, p, medium=medium)
        with mp.workdps(40):
            # the same float index the routes use; every other input exact
            k = mp.mpf(medium.evaluate(omega)) * mp.mpf(omega)
            ct = mp.mpf(cos_theta)
            exact = complex(
                mp.exp(1j * (k * ct * mp.mpf(z) - mp.mpf(omega) * mp.mpf(t)))
                * mp.besselj(0, k * mp.sqrt(1 - ct * ct) * mp.mpf(rho)))
        assert res.converged is True
        assert abs(res.value - exact) <= res.error_estimate
        assert abs(direct - exact) <= 1e-13

    def test_claim_covers_rounded_phase_at_beta_zero(self):
        # beta = 0 and mu of about 22,000: mu and m reach the quadrature
        # rounded, and the claim (5.80e-12 without their share) fell just
        # under the 5.89e-12 the value lies off the 40-digit field
        mp = pytest.importorskip("mpmath")
        omega, cos_theta = -90.0, 1.0
        medium = cauchy(1.5, 0.01)
        z, rho, t = 1.271829391143477, 2.6973428293214976, 0.594218000913449
        res = eval_integral_rep(BeamParams(omega=omega, cos_theta=cos_theta),
                                FieldPoint(z=z, rho=rho, t=t), medium=medium)
        with mp.workdps(40):
            k = mp.mpf(medium.evaluate(omega)) * mp.mpf(omega)
            ct = mp.mpf(cos_theta)
            exact = complex(
                mp.exp(1j * (k * ct * mp.mpf(z) - mp.mpf(omega) * mp.mpf(t)))
                * mp.besselj(0, k * mp.sqrt(1 - ct * ct) * mp.mpf(rho)))
        assert res.converged is True
        assert abs(res.value - exact) <= res.error_estimate


class TestDispersive:
    def test_vacuum_identical(self):
        b = BeamParams(omega=2.5, cos_theta=0.4)
        p = FieldPoint(0.7, 1.2, 0.5)
        a = eval_integral_rep(b, p)
        d = eval_integral_rep(b, p, medium=vacuum())
        assert d.value == a.value
        assert d.n_evals == a.n_evals

    def test_cauchy_matches_direct(self):
        b = BeamParams(omega=1.5, cos_theta=0.6)
        m = cauchy(1.5, 0.01)
        p = FieldPoint(0.6, 0.9, 0.4)
        res = eval_integral_rep(b, p, medium=m)
        assert res.converged
        assert res.value == pytest.approx(
            eval_direct(b, p, medium=m), abs=1e-6)

    def test_dispersive_axis_analytic(self):
        b = BeamParams(omega=1.5, cos_theta=0.6)
        m = cauchy(1.5, 0.01)
        p = FieldPoint(1.1, 0.0, 0.2)
        res = eval_integral_rep(b, p, medium=m)
        assert res.n_evals == 0
        assert res.value == eval_direct(b, p, medium=m)
