"""Partial-wave series representation against the direct evaluation."""
import cmath
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit import pwseries
from beamkit.beamcore import BeamParams, FieldPoint, cauchy, constant, vacuum
from beamkit.beamcore import eval_direct
from beamkit.pwseries import (HARD_CAP, SeriesResult, eval_series,
                              truncation_order)

_finite = dict(allow_nan=False, allow_infinity=False)


class TestTruncationOrder:
    def test_floor(self):
        assert truncation_order(0.0) >= 10

    def test_monotone(self):
        last = 0
        for x in (0.0, 1.0, 5.0, 50.0, 500.0, 1000.0):
            n = truncation_order(x)
            assert n >= last
            last = n

    def test_large_argument_bound(self):
        assert truncation_order(1000.0) >= 1010

    def test_cutoff_reaches_decay(self):
        from beamkit.specfun import spherical_jn
        n = truncation_order(50.0, tol=1e-12)
        assert abs(spherical_jn(n, 50.0)) < 1e-14

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 7.0, 50.0, 300.0, 1000.0])
    def test_first_order_below_target(self, x, tol):
        # the returned order is the first one at or above the base whose
        # |j_n| drops under 0.01*tol
        from beamkit.specfun import spherical_jn_sequence
        n = truncation_order(x, tol)
        base = max(10, int(np.ceil(x + 4.0 * x ** (1.0 / 3.0) + 10.0)))
        vals = np.abs(spherical_jn_sequence(n, x))
        assert n >= base
        assert vals[n] < 0.01 * tol
        assert np.all(vals[base:n] >= 0.01 * tol)

    @pytest.mark.parametrize("tol", [float("nan"), 1e-323])
    def test_refuses_tol_without_target(self, tol):
        # NaN, and a tol whose 0.01*tol rounds to 0.0, leave no order that
        # could end the scan short of HARD_CAP
        with pytest.raises(ValueError, match="tol"):
            truncation_order(1.0, tol)

    def test_tiny_tol_still_works(self):
        assert truncation_order(1.0, 1e-300) == 147


class TestEvalSeries:
    def test_origin_analytic(self):
        res = eval_series(BeamParams(omega=2.0, cos_theta=0.3),
                          FieldPoint(z=0.0, rho=0.0, t=0.7))
        assert res.value == pytest.approx(cmath.exp(-1.4j), abs=1e-15)
        assert res.n_terms == 0

    def test_matches_direct_sample(self):
        pts = [FieldPoint(z=1.0, rho=2.0, t=0.0),
               FieldPoint(z=-0.5, rho=0.3, t=2.0),
               FieldPoint(z=3.0, rho=5.0, t=-1.0),
               FieldPoint(z=0.0, rho=1.0, t=0.0)]
        for omega in (0.5, 3.0, 12.0):
            for ct in (-0.9, 0.0, 0.7, 1.0):
                b = BeamParams(omega=omega, cos_theta=ct)
                for p in pts:
                    gap = abs(eval_series(b, p).value - eval_direct(b, p))
                    assert gap <= 1e-10

    def test_negative_omega(self):
        b = BeamParams(omega=-3.0, cos_theta=0.7)
        p = FieldPoint(z=1.0, rho=2.0, t=0.5)
        assert abs(eval_series(b, p).value - eval_direct(b, p)) <= 1e-10

    def test_on_axis_unit_magnitude(self):
        for z in (-2.0, 0.1, 3.0):
            res = eval_series(BeamParams(omega=3.0, cos_theta=0.7),
                              FieldPoint(z=z, rho=0.0, t=0.4))
            assert abs(res.value) == pytest.approx(1.0, abs=1e-10)

    def test_perpendicular_cone_parity(self):
        # cos_theta = 0, z = 0: odd orders drop (P_n(0) = 0), the spatial
        # sum is real, so the value is J_0(omega rho) times the time phase
        res = eval_series(BeamParams(omega=2.0, cos_theta=0.0),
                          FieldPoint(z=0.0, rho=1.3, t=0.0))
        assert abs(res.value.imag) <= 1e-12

    def test_result_metadata(self):
        res = eval_series(BeamParams(omega=3.0, cos_theta=0.7),
                          FieldPoint(z=1.0, rho=2.0, t=0.0))
        assert isinstance(res, SeriesResult)
        assert res.converged
        assert res.n_terms >= truncation_order(3.0 * np.hypot(1.0, 2.0),
                                               1e-10) or res.n_terms > 0
        assert res.tail_estimate < 1e-10

    @pytest.mark.parametrize("omega_r", [4900.0, 6000.0, 20000.0])
    def test_beyond_hard_cap_reports_nonconvergence(self, omega_r):
        # omega*r so large that the tail never drops under tol by the cap:
        # the result says so, at bounded cost, instead of raising
        b = BeamParams(omega=omega_r / 5.0, cos_theta=0.6)
        t0 = time.perf_counter()
        res = eval_series(b, FieldPoint(z=3.0, rho=4.0, t=0.0))
        elapsed = time.perf_counter() - t0
        assert not res.converged
        assert res.n_terms == HARD_CAP + 1
        assert elapsed < 1.0

    @pytest.mark.parametrize("tol", [float("nan"), 1e-323])
    def test_refuses_tol_without_target(self, tol):
        with pytest.raises(ValueError, match="tol"):
            eval_series(BeamParams(omega=1.0, cos_theta=0.5),
                        FieldPoint(z=0.5, rho=0.5, t=0.0), tol=tol)

    def test_tiny_tol_converges(self):
        b = BeamParams(omega=1.0, cos_theta=0.5)
        p = FieldPoint(z=0.5, rho=0.5, t=0.0)
        res = eval_series(b, p, tol=1e-300)
        assert res.converged
        assert res.n_terms < 200
        assert abs(res.value - eval_direct(b, p)) <= 1e-14

    @given(omega=st.floats(-12, 12, **_finite),
           ct=st.floats(-1, 1, **_finite),
           z=st.floats(-3, 3, **_finite),
           rho=st.floats(0, 3, **_finite),
           t=st.floats(-2, 2, **_finite))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_bounded(self, omega, ct, z, rho, t):
        res = eval_series(BeamParams(omega=omega, cos_theta=ct),
                          FieldPoint(z=z, rho=rho, t=t))
        assert abs(res.value) <= 1.0 + 1e-9

    @given(omega=st.floats(0.2, 12, **_finite),
           ct=st.floats(-1, 1, **_finite),
           z=st.floats(-3, 3, **_finite),
           rho=st.floats(0, 3, **_finite))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_direct(self, omega, ct, z, rho):
        b = BeamParams(omega=omega, cos_theta=ct)
        p = FieldPoint(z=z, rho=rho, t=0.3)
        assert abs(eval_series(b, p).value - eval_direct(b, p)) <= 1e-10


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: near the axis at omega*r about 3600 the series "
    "returns 5e-10 off eval_direct with converged=True"))
def test_near_axis_large_omega_r_meets_tol_or_flags():
    # a domain-sweep draw (scripts/domain_sweep.py --n 600), rounded
    b = BeamParams(omega=841.823, cos_theta=0.206602)
    p = FieldPoint(z=4.29095, rho=6.05408e-4, t=1.52404)
    res = eval_series(b, p)
    assert not res.converged or abs(res.value - eval_direct(b, p)) <= 1e-10


def test_phases_exact_up_to_hard_cap(monkeypatch):
    # with every P_n and j_n set to 1 the sum is sum (2n + 1) i^n over
    # n <= HARD_CAP, integers that float64 holds exactly, so any phase off
    # i^n shows (1j ** n is up to 7.5e-13 off from n = 100 on)
    def ones(n, x):
        return np.ones(n + 1)

    monkeypatch.setattr(pwseries, "truncation_order",
                        lambda mu, tol: HARD_CAP)
    monkeypatch.setattr(pwseries, "legendre_p_sequence", ones)
    monkeypatch.setattr(pwseries, "spherical_jn_sequence", ones)
    value, n_terms, _, _ = pwseries._series_sum(1.0, 0.5, 0.5, 1e-12)
    exact = sum((2 * n + 1) * (1, 1j, -1, -1j)[n % 4]
                for n in range(HARD_CAP + 1))
    assert n_terms == HARD_CAP + 1
    assert value == exact


class TestDispersiveSeries:
    @pytest.mark.parametrize("model", [vacuum(), constant(1.5),
                                       cauchy(1.5, 0.01)])
    def test_matches_dispersive_direct(self, model):
        b = BeamParams(omega=2.0, cos_theta=0.8)
        for p in (FieldPoint(z=0.5, rho=0.5, t=1.0),
                  FieldPoint(z=-1.0, rho=2.0, t=0.0)):
            gap = abs(eval_series(b, p, medium=model).value
                      - eval_direct(b, p, medium=model))
            assert gap <= 1e-10

    def test_vacuum_equals_plain_series(self):
        b = BeamParams(omega=3.0, cos_theta=0.6)
        p = FieldPoint(z=0.7, rho=1.1, t=0.2)
        assert eval_series(b, p, medium=vacuum()).value == \
            eval_series(b, p).value
