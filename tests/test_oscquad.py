"""Quadrature engines: finite adaptive rule, oscillatory line integrals,
and the regularized Fourier closed form."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit.oscquad import (QuadratureResult, integrate_finite,
                             integrate_oscillatory_infinite,
                             regularized_j0_fourier)
from beamkit.specfun import bessel_j0, spherical_jn


class _Counting:
    """Integrand wrapper that records the size of each call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []
        self.calls = []

    def __call__(self, x):
        self.sizes.append(x.size)
        self.calls.append(x)
        return self.f(x)


class TestFinite:
    def test_constant(self):
        r = integrate_finite(lambda a: np.ones_like(np.asarray(a)), -1, 1,
                             tol=1e-12)
        assert r.value.real == pytest.approx(2.0, abs=1e-13)
        assert r.converged

    def test_odd_cubic(self):
        r = integrate_finite(lambda a: np.asarray(a) ** 3, -1, 1, tol=1e-12)
        assert abs(r.value) <= 1e-14

    def test_complex_exponential(self):
        r = integrate_finite(lambda a: np.exp(5j * np.asarray(a)), -1, 1,
                             tol=1e-12)
        assert r.value == pytest.approx(2.0 * math.sin(5.0) / 5.0, abs=1e-12)

    def test_polynomial_exactness(self):
        # inside the embedded rule degree a single panel is exact
        for deg, exact in ((8, 2.0 / 9.0), (12, 2.0 / 13.0)):
            r = integrate_finite(lambda a, d=deg: np.asarray(a) ** d,
                                 -1, 1, tol=1e-10)
            assert r.value.real == pytest.approx(exact, abs=1e-13)

    def test_oscillatory_subdivides(self):
        r = integrate_finite(lambda a: np.cos(40.0 * np.asarray(a)), 0, 1,
                             tol=1e-12)
        assert r.value.real == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)
        assert r.n_evals > 15

    @given(c=st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, c):
        base = integrate_finite(lambda a: np.exp(np.asarray(a)), 0, 1,
                                tol=1e-13)
        scaled = integrate_finite(lambda a: c * np.exp(np.asarray(a)), 0, 1,
                                  tol=1e-13)
        assert scaled.value == pytest.approx(c * base.value,
                                             rel=1e-12, abs=1e-12)

    def test_error_estimate_honest(self):
        r = integrate_finite(lambda a: np.exp(np.asarray(a)), 0, 1, tol=1e-12)
        assert abs(r.value.real - (math.e - 1.0)) <= max(r.error_estimate,
                                                         1e-14)

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda a: a, 1.0, -1.0)

    def test_nonfinite_endpoint_raises(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda a: a, 0.0, math.inf)

    def test_converged_is_plain_bool(self):
        r = integrate_finite(lambda a: np.asarray(a), 0, 1)
        assert isinstance(r.converged, bool)

    def test_one_call_per_bisection(self):
        f = _Counting(lambda a: np.cos(40.0 * a))
        r = integrate_finite(f, 0, 1, tol=1e-12)
        assert r.n_evals > 15
        # the first panel, then both children of each bisection at once
        assert len(f.sizes) == 1 + (r.n_evals - 15) // 30
        assert f.sizes == [15] + [30] * (len(f.sizes) - 1)

    def test_empty_interval_makes_no_call(self):
        f = _Counting(np.exp)
        r = integrate_finite(f, 0.5, 0.5)
        assert r.value == 0 and r.n_evals == 0 and r.converged
        assert f.sizes == []

    def test_rounding_resolution_stops_bisection(self):
        # the midpoint of two adjacent doubles is one of them: the panel
        # cannot be split, so its error stays and no call follows the first
        f = _Counting(np.exp)
        r = integrate_finite(f, 1.0, math.nextafter(1.0, 2.0), tol=1e-300)
        assert not r.converged
        assert r.n_evals == 15
        assert f.sizes == [15]


def _jn_even(n):
    return lambda lam: spherical_jn(n, np.abs(lam))


class TestOscillatoryInfinite:
    def test_sinc_integral(self):
        # whole-line integral of sin(x)/x
        r = integrate_oscillatory_infinite(_jn_even(0), period_hint=2 * np.pi,
                                           tol=1e-9)
        assert r.value.real == pytest.approx(np.pi, abs=1e-9)
        assert r.converged

    def test_j1_squared_norm(self):
        f0 = _jn_even(1)
        r = integrate_oscillatory_infinite(
            lambda lam: f0(lam) ** 2, period_hint=2 * np.pi,
            tol=1e-8, tail_start=6.0)
        assert r.value.real == pytest.approx(np.pi / 3.0, rel=1e-7)

    def test_modulated_sinc(self):
        # stationary-phase-free case: j_0(lam) e^{i b lam}, |b|<1,
        # whole-line value pi (flat inside the band)
        def f(lam):
            lam = np.asarray(lam, dtype=float)
            return _jn_even(0)(lam) * np.exp(0.4j * lam)
        r = integrate_oscillatory_infinite(
            f, period_hint=2 * np.pi, tol=1e-9,
            beat_hint=2 * np.pi / (1 - 0.4))
        assert r.value == pytest.approx(np.pi, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_oscillatory_infinite(_jn_even(0), period_hint=0.0)
        with pytest.raises(ValueError):
            integrate_oscillatory_infinite(_jn_even(0), period_hint=1.0,
                                           tol=0.0)

    def test_converged_is_plain_bool(self):
        r = integrate_oscillatory_infinite(_jn_even(0),
                                           period_hint=2 * np.pi, tol=1e-6)
        assert isinstance(r.converged, bool)

    @pytest.mark.parametrize("beat_hint", [None, 2 * np.pi / (1 - 0.9)],
                             ids=["half_period", "beat"])
    def test_one_call_per_cell_pair(self, beat_hint):
        f = _Counting(lambda lam: spherical_jn(0, np.abs(lam)))
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=1e-9, beat_hint=beat_hint)
        per_call = f.sizes[0]
        assert per_call % 60 == 0  # 15 nodes x 2 sides x sub-panels
        assert f.sizes == [per_call] * len(f.sizes)
        assert r.n_evals == per_call * len(f.sizes)
        # each call holds both sides of its cell pair, mirror images
        for x in f.calls:
            assert np.array_equal(np.sort(x[x > 0]), np.sort(-x[x < 0]))

    def test_stall_reports_nonconverged(self):
        # a constant-envelope cosine has no decaying tail to accelerate at
        # this tolerance with a tiny budget
        r = integrate_oscillatory_infinite(
            lambda lam: np.cos(np.asarray(lam)) + 0.5,
            period_hint=2 * np.pi, tol=1e-12, max_cell_pairs=6)
        assert not r.converged


class TestRegularizedFourier:
    def test_interior_limit(self):
        # tends to 2/sqrt(1-0) = 2
        vals = [regularized_j0_fourier(1.0, 0.0, e)
                for e in (1e-2, 1e-3, 1e-4)]
        assert abs(vals[-1] - 2.0) < abs(vals[0] - 2.0)
        assert vals[-1] == pytest.approx(2.0, abs=1e-3)

    def test_exterior_limit(self):
        vals = [regularized_j0_fourier(1.0, 2.0, e)
                for e in (1e-2, 1e-3, 1e-4)]
        assert abs(vals[-1]) < abs(vals[0])
        assert vals[-1] == pytest.approx(0.0, abs=1e-3)

    def test_small_eps_value(self):
        assert regularized_j0_fourier(2.0, 1.0, 1e-4) == pytest.approx(
            2.0 / math.sqrt(3.0), abs=1e-4)

    def test_against_brute_force(self):
        # eps-damped line integral 2 int_0^inf J0(a w) cos(b w) e^{-eps w} dw
        a, b, eps = 1.0, 0.5, 1e-2
        def damped(w):
            w = np.asarray(w, dtype=float)
            return 2.0 * bessel_j0(a * w) * np.cos(b * w) * np.exp(-eps * w)
        total = 0.0
        for lo in range(0, 4000, 100):
            total += integrate_finite(damped, lo, lo + 100,
                                      tol=1e-10).value.real
        assert regularized_j0_fourier(a, b, eps) == pytest.approx(total,
                                                                  abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            regularized_j0_fourier(0.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            regularized_j0_fourier(1.0, 0.5, 0.0)


class TestQuadratureResult:
    def test_fields(self):
        r = QuadratureResult(value=1 + 2j, error_estimate=1e-9, n_evals=30,
                             converged=True)
        assert r.value == 1 + 2j
        assert r.error_estimate == 1e-9
        assert r.n_evals == 30
        assert r.converged
