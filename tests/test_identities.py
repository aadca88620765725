import json
import math

import numpy as np
import pytest

import beamkit.identities as idn
from beamkit.beamcore import FieldPoint
from beamkit.identities import (SUITE_NAMES, LegendreSpectrum,
                                bessel_beam_identity, delta_kernel_test,
                                hochstadt_sum_check, jn_norm_integral,
                                legendre_ft_pair, legendre_orthogonality,
                                plane_wave_expansion_check,
                                plane_wave_negative_control, run_suite,
                                verify_stratton_integral)
from beamkit.wavepacket import ConeAngles


def _assert_ok(report):
    assert report.ok, (report.identity_id, report.abs_err, report.rel_err,
                       report.tol, report.params)


class TestStratton:
    def test_n0_reduces_to_sinc(self):
        # n=0, z=0, rho=1: the integral collapses to 2*j_0(omega)
        r = verify_stratton_integral(0, 2.0, 0.0, 1.0)
        _assert_ok(r)
        assert r.rhs == pytest.approx(math.sin(2.0), abs=1e-12)

    def test_n1_odd_parity_both_sides_vanish(self):
        r = verify_stratton_integral(1, 2.0, 0.0, 1.0)
        _assert_ok(r)
        assert abs(r.rhs) < 1e-14
        assert abs(r.lhs) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_orders(self, n):
        _assert_ok(verify_stratton_integral(n, 3.0, 0.7, 1.1))

    def test_negative_omega(self):
        _assert_ok(verify_stratton_integral(3, -2.5, 0.4, 0.9))

    def test_origin_rejected(self):
        # the reference side needs the direction z/r, undefined at r = 0
        with pytest.raises(ValueError):
            verify_stratton_integral(0, 2.0, 0.0, 0.0)


class TestDeltaKernel:
    def test_constant_function(self):
        r = delta_kernel_test(0.3, 200, lambda x: np.ones_like(x))
        _assert_ok(r)
        assert r.rhs == pytest.approx(1.0)

    def test_quadratic(self):
        r = delta_kernel_test(-0.5, 400, lambda x: x * x)
        _assert_ok(r)
        assert r.rhs == pytest.approx(0.25)

    def test_exponential(self):
        r = delta_kernel_test(0.7, 400, np.exp)
        _assert_ok(r)
        assert r.rhs == pytest.approx(math.exp(0.7))

    def test_spectrum_shape(self):
        spec = LegendreSpectrum.delta(0.3, 50)
        assert len(spec.coefficients) == 51
        # a_n = (n + 1/2) P_n(x0)
        assert spec.coefficients[0] == pytest.approx(0.5)
        assert spec.coefficients[1] == pytest.approx(1.5 * 0.3)


class TestFtPair:
    def test_p4_value(self):
        # P_4(0.6) = -51/125
        r = legendre_ft_pair(4, 0.6)
        _assert_ok(r)
        assert r.rhs == pytest.approx(-51.0 / 125.0, abs=1e-14)

    @pytest.mark.parametrize("n,beta", [(0, 0.0), (1, 0.3), (2, -0.5),
                                        (3, 0.9), (6, -0.9)])
    def test_orders(self, n, beta):
        _assert_ok(legendre_ft_pair(n, beta))

    def test_beta_on_edge_rejected(self):
        with pytest.raises(ValueError):
            legendre_ft_pair(2, 1.0)


class TestHochstadt:
    def test_equal_arguments_aligned(self):
        # lam = mu, cos_theta = 1: the distance is 0 and the sum is 1/pi
        r = hochstadt_sum_check(2.0, 2.0, 1.0)
        _assert_ok(r)
        assert r.rhs == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_frozen_oblique(self):
        # lam=2, mu=3, cos_theta=-1/6: distance sqrt(4+9+2) = sqrt(15)
        r = hochstadt_sum_check(2.0, 3.0, -1.0 / 6.0)
        _assert_ok(r)
        assert r.rhs == pytest.approx(-0.05489330588106425266636, rel=1e-12)

    def test_explicit_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            hochstadt_sum_check(10.0, 10.0, 0.5, n_max=3)


class TestOrthogonality:
    @pytest.mark.parametrize("n,expected", [(0, 2.0), (1, 2.0 / 3.0),
                                            (17, 2.0 / 35.0)])
    def test_norms(self, n, expected):
        r = legendre_orthogonality(n)
        _assert_ok(r)
        assert r.rhs == pytest.approx(expected, rel=1e-15)


class TestJnNorm:
    @pytest.mark.parametrize("n,expected", [(0, math.pi), (1, math.pi / 3.0),
                                            (4, math.pi / 9.0)])
    def test_norms(self, n, expected):
        r = jn_norm_integral(n)
        _assert_ok(r)
        assert r.rhs == pytest.approx(expected, rel=1e-15)


class TestPlaneWave:
    # negative x flips the sign of the odd orders of j_n
    @pytest.mark.parametrize("x,cg", [(3.0, 0.2), (0.5, -0.9), (12.0, 0.0),
                                      (-0.5, 0.4), (-3.0, 0.2),
                                      (-10.0, -0.6)])
    def test_expansion(self, x, cg):
        r = plane_wave_expansion_check(x, cg)
        _assert_ok(r)
        assert r.rhs == pytest.approx(complex(math.cos(x * cg),
                                              math.sin(x * cg)), abs=1e-13)

    def test_negative_control_window(self):
        # halving the coefficients must halve the series: the observed
        # ratio sits at 2, inside [1.8, 2.2] by the report's own rule
        r = plane_wave_negative_control()
        _assert_ok(r)
        assert r.identity_id == "planewave_paper_coeff_negative_control"
        assert r.rhs == 2.0
        assert r.tol == 0.1
        assert 1.8 <= abs(r.lhs) <= 2.2
        assert r.lhs.real == pytest.approx(2.0, abs=1e-12)


class TestBeamIdentity:
    def test_zero_argument(self):
        r = bessel_beam_identity(0.0)
        _assert_ok(r)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)

    def test_frozen_value(self):
        r = bessel_beam_identity(5.0)
        _assert_ok(r)
        assert r.lhs.real == pytest.approx(-0.3642251404496200897235, abs=1e-12)
        assert r.lhs.imag == pytest.approx(-0.4689454043521798672036, abs=1e-12)

    @pytest.mark.parametrize("omega_r", [10.0, 40.0, 160.0])
    def test_series_routes_agree(self, omega_r):
        # the tail-extended series and the Gauss-Legendre norm route must
        # agree independently of the integral, past n = 200 too
        r = bessel_beam_identity(omega_r)
        _assert_ok(r)
        assert r.params["route_gap"] < 1e-10
        if omega_r == 160.0:
            assert r.params["n_terms"] > 200


class TestReportContract:
    def _sample_reports(self):
        return [
            legendre_orthogonality(3),
            jn_norm_integral(2),
            hochstadt_sum_check(1.5, 4.0, 0.2),
            plane_wave_negative_control(),
            verify_stratton_integral(2, 2.0, 0.5, 0.5),
        ]

    def test_json_schema(self):
        keys = {"identity_id", "params", "lhs_re", "lhs_im", "rhs_re",
                "rhs_im", "abs_err", "rel_err", "tol", "pass"}
        for r in self._sample_reports():
            d = r.to_json_dict()
            assert set(d) == keys
            # must survive strict serialization
            json.dumps(d, allow_nan=False)

    def test_pass_rule(self):
        for r in self._sample_reports():
            expected = (r.abs_err <= r.tol) or \
                (abs(r.rhs) > r.tol and r.rel_err <= r.tol)
            assert r.ok == expected

    def test_rel_err_null_when_reference_zero(self):
        r = verify_stratton_integral(1, 2.0, 0.0, 1.0)
        if not math.isfinite(r.rel_err):
            assert r.to_json_dict()["rel_err"] is None


_SUITE_SIZES = {"hochstadt": 30, "orthogonality": 31, "planewave": 6,
                "triplesum": 40, "xwave": 20, "ftpair": 42}


class TestSuites:
    def test_names_complete(self):
        assert set(SUITE_NAMES) == {
            "stratton", "ftpair", "hochstadt", "orthogonality", "jnnorm",
            "planewave", "beamidentity", "triplesum", "xwave"}

    @pytest.mark.parametrize("name", ["hochstadt", "orthogonality",
                                      "planewave", "triplesum", "xwave",
                                      "ftpair"])
    def test_fast_suites_all_pass(self, name):
        reports = run_suite(name)
        assert len(reports) == _SUITE_SIZES[name]
        for r in reports:
            _assert_ok(r)

    def test_all_runs_suites_in_declaration_order(self, monkeypatch):
        monkeypatch.setattr(idn, "_SUITES",
                            {name: (lambda name=name: [name, name])
                             for name in SUITE_NAMES})
        assert SUITE_NAMES == ("stratton", "ftpair", "hochstadt",
                               "orthogonality", "jnnorm", "planewave",
                               "beamidentity", "triplesum", "xwave")
        assert run_suite("all") == [n for n in SUITE_NAMES for _ in (0, 1)]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_deterministic_across_runs(self):
        a = [r.to_json_dict() for r in run_suite("triplesum")]
        b = [r.to_json_dict() for r in run_suite("triplesum")]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
