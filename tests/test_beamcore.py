"""Core data model and the direct field evaluation."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit.beamcore import (BeamParams, FieldPoint, cauchy, constant,
                              eval_direct, to_spherical, vacuum)

_finite = dict(allow_nan=False, allow_infinity=False)


class TestFieldPoint:
    def test_fields(self):
        p = FieldPoint(z=1.0, rho=2.0, t=-0.5)
        assert (p.z, p.rho, p.t) == (1.0, 2.0, -0.5)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            FieldPoint(z=0.0, rho=-0.1, t=0.0)

    def test_immutability(self):
        p = FieldPoint(z=0.0, rho=0.0, t=0.0)
        with pytest.raises(AttributeError):
            p.z = 1.0


class TestSphericalView:
    def test_plain_point(self):
        sph = to_spherical(FieldPoint(z=3.0, rho=4.0, t=2.5))
        assert sph.r == pytest.approx(5.0, rel=1e-15)
        assert sph.cos_eta == pytest.approx(0.6, rel=1e-15)
        assert sph.cos_gamma == pytest.approx(0.5, rel=1e-15)
        assert not sph.degenerate

    def test_origin_convention(self):
        sph = to_spherical(FieldPoint(z=0.0, rho=0.0, t=1.0))
        assert sph.degenerate
        assert sph.r == 0.0
        assert sph.cos_eta == 1.0
        assert sph.cos_gamma == 0.0

    def test_cos_gamma_unbounded(self):
        # |t| > r is a legitimate regime
        sph = to_spherical(FieldPoint(z=0.0, rho=1.0, t=5.0))
        assert sph.cos_gamma == 5.0


class TestBeamParams:
    def test_derived_wave_numbers(self):
        b = BeamParams(omega=2.0, cos_theta=0.6)
        assert b.sin_theta == pytest.approx(0.8, rel=1e-15)
        assert b.k_z == pytest.approx(1.2, rel=1e-15)
        assert b.k_rho == pytest.approx(1.6, rel=1e-15)

    def test_sin_theta_nonnegative_root(self):
        assert BeamParams(omega=1.0, cos_theta=-0.6).sin_theta == \
            pytest.approx(0.8, rel=1e-15)

    def test_cos_theta_domain(self):
        with pytest.raises(ValueError):
            BeamParams(omega=1.0, cos_theta=1.2)

    def test_negative_omega_allowed(self):
        assert BeamParams(omega=-3.0, cos_theta=0.5).omega == -3.0


class TestEvalDirect:
    def test_axial_plane_wave(self):
        # cos_theta = 1: pure plane wave exp(i omega (z - t))
        b = BeamParams(omega=2.0, cos_theta=1.0)
        v = eval_direct(b, FieldPoint(z=1.0, rho=0.0, t=0.0))
        assert v == pytest.approx(cmath.exp(2j), abs=1e-15)

    def test_frozen_oracle(self):
        b = BeamParams(omega=3.0, cos_theta=math.sqrt(2.0) / 2.0)
        v = eval_direct(b, FieldPoint(z=1.0, rho=2.0, t=0.0))
        assert v.real == pytest.approx(0.1937350592613609315885, abs=1e-15)
        assert v.imag == pytest.approx(-0.3156186293891315107518, abs=1e-15)

    def test_transverse_profile_is_j0(self):
        from beamkit.specfun import bessel_j0
        b = BeamParams(omega=2.0, cos_theta=0.0)
        v = eval_direct(b, FieldPoint(z=0.7, rho=1.3, t=0.0))
        assert v == pytest.approx(complex(bessel_j0(2.0 * 1.3)), abs=1e-15)

    def test_conjugation_parity(self):
        p = FieldPoint(z=0.4, rho=1.1, t=-0.3)
        plus = eval_direct(BeamParams(omega=2.5, cos_theta=0.3), p)
        minus = eval_direct(BeamParams(omega=-2.5, cos_theta=0.3), p)
        assert minus == plus.conjugate()

    @given(omega=st.floats(-20, 20, **_finite),
           ct=st.floats(-1, 1, **_finite),
           z=st.floats(-5, 5, **_finite),
           rho=st.floats(0, 5, **_finite),
           t=st.floats(-5, 5, **_finite))
    @settings(max_examples=150, deadline=None)
    def test_magnitude_bounded(self, omega, ct, z, rho, t):
        v = eval_direct(BeamParams(omega=omega, cos_theta=ct),
                        FieldPoint(z=z, rho=rho, t=t))
        assert abs(v) <= 1.0 + 1e-12


class TestDispersion:
    def test_vacuum_index(self):
        assert vacuum().evaluate(7.3) == 1.0

    def test_constant_index(self):
        assert constant(1.5).evaluate(0.2) == 1.5

    def test_cauchy_index(self):
        assert cauchy(1.5, 0.01).evaluate(2.0) == pytest.approx(1.54,
                                                                rel=1e-15)

    @pytest.mark.parametrize("omega", [0.0, -0.0, -7.3, 1e155, -1e200,
                                       1.7e308, 5e-324])
    def test_flat_index_exact_at_every_finite_omega(self, omega):
        # vacuum and a constant index are the Cauchy law with b = 0:
        # b*omega*omega is 0.0 even where omega*omega overflows
        assert vacuum().evaluate(omega) == 1.0
        assert constant(1.5).evaluate(omega) == 1.5
        assert cauchy(1.5, 0.0).evaluate(omega) == 1.5
        assert constant(1.5) == cauchy(1.5, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            constant(0.0)
        with pytest.raises(ValueError):
            cauchy(-1.0, 0.01)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_cauchy_refuses_nonfinite_b(self, b):
        # refused when built, not on the first evaluate of every route
        with pytest.raises(ValueError, match="coefficient b"):
            cauchy(1.5, b)

    def test_vacuum_matches_plain_direct_bitwise(self):
        b = BeamParams(omega=3.0, cos_theta=0.7)
        p = FieldPoint(z=0.5, rho=1.5, t=1.0)
        assert eval_direct(b, p, medium=vacuum()) == eval_direct(b, p)

    def test_cauchy_frozen_oracle(self):
        b = BeamParams(omega=2.0, cos_theta=0.8)
        p = FieldPoint(z=0.5, rho=0.5, t=1.0)
        v = eval_direct(b, p, medium=cauchy(1.5, 0.01))
        assert v.real == pytest.approx(0.5737717345984224143644, abs=1e-15)
        assert v.imag == pytest.approx(-0.5541460563276837704564, abs=1e-15)

    def test_constant_index_scales_spatial_args_only(self):
        # n0=2 at t=0 equals the vacuum field with doubled omega at t=0
        b = BeamParams(omega=1.5, cos_theta=0.6)
        p = FieldPoint(z=0.8, rho=1.2, t=0.0)
        doubled = BeamParams(omega=3.0, cos_theta=0.6)
        assert eval_direct(b, p, medium=constant(2.0)) == \
            pytest.approx(eval_direct(doubled, p), abs=1e-15)
