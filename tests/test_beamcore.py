"""Core data model and the direct field evaluation."""
import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit.beamcore import (BeamParams, FieldPoint, _sin2, cauchy,
                              constant, eval_direct, to_spherical, vacuum)
from beamkit.cli import main
from beamkit.wavepacket import ConeAngles, _support_radicand, _xwave_ab

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
        assert sph.gap == pytest.approx(0.4, rel=1e-15)

    def test_origin_convention(self):
        sph = to_spherical(FieldPoint(z=0.0, rho=0.0, t=1.0))
        assert sph.r == 0.0
        assert sph.cos_eta == 1.0
        assert sph.cos_gamma == 0.0
        assert sph.gap == 0.0

    @pytest.mark.parametrize("z", [2.5, -0.3, 1e-300])
    def test_gap_zero_on_the_axis(self, z):
        sph = to_spherical(FieldPoint(z=z, rho=0.0, t=0.0))
        assert abs(sph.cos_eta) == 1.0
        assert sph.gap == 0.0

    @pytest.mark.parametrize("z,rho", [(3.0, 4.0), (-1.0, 1e-4), (0.0, 2.0),
                                       (1.0, 1.4e-8), (-3.0, 0.7)])
    def test_gap_formula_off_the_axis(self, z, rho):
        # the one home of 1 - |cos eta|: (rho/r) (rho/(r + |z|)), bit for
        # bit, which the integral route reads
        sph = to_spherical(FieldPoint(z=z, rho=rho, t=0.0))
        assert sph.gap == (rho / sph.r) * (rho / (sph.r + abs(z)))
        assert sph.gap == pytest.approx(1.0 - abs(sph.cos_eta), abs=4e-16)

    def test_gap_survives_where_the_cosine_rounds_to_one(self):
        sph = to_spherical(FieldPoint(z=1.0, rho=1e-9, t=0.0))
        assert 1.0 - sph.cos_eta == 0.0
        assert sph.gap == pytest.approx(5e-19, rel=1e-15)

    def test_cos_gamma_unbounded(self):
        # |t| > r is a legitimate regime
        sph = to_spherical(FieldPoint(z=0.0, rho=1.0, t=5.0))
        assert sph.cos_gamma == 5.0


class TestBeamParams:
    def test_derived_wave_numbers(self):
        b = BeamParams(omega=2.0, cos_theta=0.6)
        assert b.sin_theta == pytest.approx(0.8, rel=1e-15)

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


class TestSinFromCos:
    # every sine taken from a cosine is sqrt((1 - c)(1 + c)), through the
    # one helper, at the poles, one ulp inside them, and in between
    COSINES = [1.0, -1.0, 1.0 - 2.0 ** -52, -(1.0 - 2.0 ** -52), 0.8, -0.8,
               0.0]

    @pytest.mark.parametrize("c", COSINES)
    def test_every_sine_is_the_helper_bit_for_bit(self, c):
        s = math.sqrt(_sin2(c))
        assert BeamParams(omega=1.0, cos_theta=c).sin_theta == s
        # cos gamma = cos eta cos theta leaves the radicand sin^2 sin^2
        angles = ConeAngles(cos_theta=c, cos_eta=c, cos_gamma=c * c)
        assert _support_radicand(angles) == _sin2(c) * _sin2(c)
        assert _xwave_ab(c, FieldPoint(z=0.3, rho=1.7, t=0.0))[0] == s * 1.7

    def test_exact_one_ulp_from_the_pole(self):
        # sin^2 is 2^-52 (2 - 2^-52) exactly, where 1 - c*c rounds c*c
        # first and gives 2^-51; an array takes the same product
        c = 1.0 - 2.0 ** -52
        assert _sin2(c) == 2.0 ** -52 * (2.0 - 2.0 ** -52)
        assert _sin2(np.array([c, -c, 1.0])).tolist() == \
            [_sin2(c), _sin2(-c), 0.0]


class TestPoleFamily:
    # 1 - |cos theta| = 10^U(-14, -2), either sign, |omega| <= 3.2e3,
    # where sin theta as sqrt(1 - c*c) puts eval_direct up to 1e-9 off
    # the field.  The field's bound leaves room for the phase's rounding,
    # about eps |omega cos theta z|; the modulus |J_0| carries none of it
    N = 100

    def _draws(self):
        rng = np.random.default_rng(14)
        gap = 10.0 ** rng.uniform(-14.0, -2.0, self.N)
        cos_theta = rng.choice([-1.0, 1.0], self.N) * (1.0 - gap)
        omega = rng.uniform(-3.2e3, 3.2e3, self.N)
        z = rng.uniform(-3.0, 3.0, self.N)
        rho = rng.uniform(0.0, 5.0, self.N)
        t = rng.uniform(-2.0, 2.0, self.N)
        return zip(*(a.tolist() for a in (cos_theta, omega, z, rho, t)))

    def test_direct_against_40_digit_field(self):
        mp = pytest.importorskip("mpmath")
        worst_field = worst_modulus = 0.0
        for cos_theta, omega, z, rho, t in self._draws():
            v = eval_direct(BeamParams(omega=omega, cos_theta=cos_theta),
                            FieldPoint(z=z, rho=rho, t=t))
            with mp.workdps(40):
                k, ct = mp.mpf(omega), mp.mpf(cos_theta)
                j0 = mp.besselj(0, k * mp.sqrt(1 - ct * ct) * mp.mpf(rho))
                exact = complex(mp.exp(1j * (k * ct * mp.mpf(z)
                                             - k * mp.mpf(t))) * j0)
                modulus = float(abs(j0))
            worst_field = max(worst_field, abs(v - exact))
            worst_modulus = max(worst_modulus, abs(abs(v) - modulus))
        assert worst_field <= 2e-12
        assert worst_modulus <= 5e-14


def test_readme_direct_rows_z_minus1_0_1_bit_for_bit(tmp_path):
    # the README direct map's rows z = -1, 0 and 1, as ``beamkit map``
    # writes them: 123 points, the axis among them.  Any change to a J_0
    # bit, a phase or sin theta shows here as a new digest
    out = tmp_path / "rows.csv"
    assert main(["map", "--rep", "direct", "--omega", "6",
                 "--cos-theta", "0.8", "--z-min", "-1", "--z-max", "1",
                 "--z-steps", "3", "--rho-min", "0", "--rho-max", "4",
                 "--rho-steps", "41", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a0a0bf0df9b7034096ee14d25a73ddae3bd90f0a3635edaf6d92487c1dab6a3d")


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
