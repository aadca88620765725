import math

import numpy as np
import pytest

from beamkit.beamcore import (BeamParams, FieldPoint, cauchy, constant,
                              eval_direct, eval_direct_dispersive, vacuum)
from beamkit.integralrep import (KernelArgs, compute_R, eval_integral_rep,
                                 eval_integral_rep_dispersive)
from beamkit.pwseries import eval_series, eval_series_dispersive


class TestKernelArgs:
    def test_valid(self):
        k = KernelArgs(mu=3.0, cos_theta=0.5, cos_eta=-0.2)
        assert k.mu == 3.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            KernelArgs(mu=-0.1, cos_theta=0.0, cos_eta=0.0)

    @pytest.mark.parametrize("ct,ce", [(1.2, 0.0), (0.0, -1.01)])
    def test_cosine_range(self, ct, ce):
        with pytest.raises(ValueError):
            KernelArgs(mu=1.0, cos_theta=ct, cos_eta=ce)


class TestComputeR:
    def test_law_of_cosines(self):
        # lam=3, mu=4, cos=0 is the 3-4-5 triangle
        assert compute_R(3.0, 4.0, 0.0) == pytest.approx(5.0, rel=1e-15)

    def test_collinear(self):
        assert compute_R(2.0, 5.0, 1.0) == pytest.approx(3.0, rel=1e-14)
        assert compute_R(2.0, 5.0, -1.0) == pytest.approx(7.0, rel=1e-15)

    def test_clamped_at_zero(self):
        # coincident points: the radicand can round below zero
        r = compute_R(7.0000000000000001, 7.0, 1.0)
        assert r >= 0.0

    def test_vectorized(self):
        lam = np.array([0.0, 1.0, -1.0])
        out = compute_R(lam, 2.0, 0.3)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(math.sqrt(1 + 4 - 2 * 2 * 0.3))
        assert out[2] == pytest.approx(math.sqrt(1 + 4 + 2 * 2 * 0.3))


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
        assert res.value == pytest.approx(eval_direct(b, p), abs=1e-14)
        assert abs(res.value) == pytest.approx(1.0, abs=1e-15)

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
    def test_budget_exhaustion_flags_not_raises(self):
        b = BeamParams(omega=3.0, cos_theta=0.6)
        p = FieldPoint(1.0, 0.8, 0.0)
        res = eval_integral_rep(b, p, tol=1e-13, max_cell_pairs=3)
        assert res.converged is False

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
        # the README map's z = 3 row; rho = 0.1 is its costliest point
        # (about 1.4M evals), where the beat cells are widest
        b = BeamParams(omega=6.0, cos_theta=0.8)
        for rho in np.linspace(0.0, 4.0, 41):
            p = FieldPoint(z=3.0, rho=float(rho), t=0.0)
            res = eval_integral_rep(b, p)
            assert res.converged, rho
            assert abs(res.value - eval_direct(b, p)) <= 1e-9, rho


class TestDispersive:
    def test_vacuum_identical(self):
        b = BeamParams(omega=2.5, cos_theta=0.4)
        p = FieldPoint(0.7, 1.2, 0.5)
        a = eval_integral_rep(b, p)
        d = eval_integral_rep_dispersive(b, vacuum(), p)
        assert d.value == a.value
        assert d.n_evals == a.n_evals

    def test_cauchy_matches_direct(self):
        b = BeamParams(omega=1.5, cos_theta=0.6)
        m = cauchy(1.5, 0.01)
        p = FieldPoint(0.6, 0.9, 0.4)
        res = eval_integral_rep_dispersive(b, m, p)
        assert res.converged
        assert res.value == pytest.approx(
            eval_direct_dispersive(b, m, p), abs=1e-6)

    def test_dispersive_axis_analytic(self):
        b = BeamParams(omega=1.5, cos_theta=0.6)
        m = cauchy(1.5, 0.01)
        p = FieldPoint(1.1, 0.0, 0.2)
        res = eval_integral_rep_dispersive(b, m, p)
        assert res.n_evals == 0
        assert res.value == pytest.approx(
            eval_direct_dispersive(b, m, p), abs=1e-14)

    @pytest.mark.parametrize("model", [constant(1.7), cauchy(1.5, 0.01)])
    @pytest.mark.parametrize("route, wrapper", [
        (eval_direct, eval_direct_dispersive),
        (eval_series, eval_series_dispersive),
        (eval_integral_rep, eval_integral_rep_dispersive)])
    def test_medium_argument_matches_wrapper(self, route, wrapper, model):
        b = BeamParams(omega=1.5, cos_theta=0.6)
        p = FieldPoint(0.6, 0.9, 0.4)
        assert route(b, p, medium=model) == wrapper(b, model, p)
