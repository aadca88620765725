import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import beamkit.identities as idn
import beamkit.oscquad as oq
import beamkit.wavepacket as wp
from beamkit.beamcore import FieldPoint
from beamkit.identities import (SUITE_NAMES, bessel_beam_identity,
                                delta_kernel_test, hochstadt_sum_check, jn_norm_integral,
                                legendre_ft_pair, legendre_orthogonality,
                                plane_wave_expansion_check,
                                plane_wave_negative_control, run_suite,
                                triple_sum_cesaro_check,
                                verify_stratton_integral, xwave_oracle_check)
from beamkit.specfun import (bessel_j0, legendre_p_sequence,
                             spherical_jn_sequence)
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

    @pytest.mark.parametrize("omega,z,rho", [
        (1.0, math.inf, 1.0), (math.nan, 0.3, 1.0), (1.0, 0.3, math.nan),
        (1.0, 0.3, math.inf), (-math.inf, 0.3, 1.0)])
    def test_nonfinite_input_rejected(self, omega, z, rho):
        # refused before any quadrature, not deep inside legendre or j_0
        with pytest.raises(ValueError, match="must be finite"):
            verify_stratton_integral(2, omega, z, rho)

    def test_origin_rejected(self):
        # the reference side needs the direction z/r, undefined at r = 0
        with pytest.raises(ValueError):
            verify_stratton_integral(0, 2.0, 0.0, 0.0)


def _stratton_rows(n_top, omega, z, rho, nodes):
    # P_0 .. P_n_top times the beam kernel, written out afresh
    kernel = (np.exp(1j * omega * z * nodes)
              * bessel_j0(omega * rho * np.sqrt(1.0 - nodes * nodes)))
    return legendre_p_sequence(n_top, nodes) * kernel


def _twice_the_size(reports, rows):
    # each report's value on the Clenshaw-Curtis rule twice its size: the
    # reports of one call share a rule of quad_evals = 2N + 1 nodes, so
    # this rule has 4N + 1
    n = (reports[0].params["quad_evals"] - 1) // 2
    nodes, weights, _ = oq._cc_rule(2 * n)
    return rows(nodes) @ weights


class TestClenshawCurtis:
    @pytest.mark.parametrize("omega,z,rho",
                             [(om, z, rho) for om in (0.5, 2.0, 10.0)
                              for z, rho in idn._STRATTON_POINTS])
    def test_stratton_claim_bounds_twice_the_size(self, omega, z, rho):
        # the claim |Q_N - Q_2N| plus its floor bounds the distance from
        # Q_2N, the value, to Q_4N, at every order of the suite's points
        reports = [r for r in run_suite("stratton")
                   if (r.params["omega"], r.params["z"], r.params["rho"])
                   == (omega, z, rho)]
        assert [r.params["n"] for r in reports] == list(range(13))
        finer = _twice_the_size(
            reports, lambda x: _stratton_rows(12, omega, z, rho, x))
        for r, f in zip(reports, finer):
            assert r.params["quad_converged"] is True
            assert abs(r.lhs - f) <= r.params["quad_error"], r.params

    def test_orthogonality_claim_bounds_twice_the_size(self):
        reports = run_suite("orthogonality")
        finer = _twice_the_size(
            reports, lambda x: legendre_p_sequence(30, x) ** 2)
        for r, f in zip(reports, finer):
            assert r.params["quad_converged"] is True
            assert r.params["quad_evals"] == 121
            assert abs(r.lhs - f) <= r.params["quad_error"], r.params

    def test_beamidentity_claim_bounds_twice_the_size(self):
        # integrate_finite doubles 2N from 16 and stops at the first rule
        # whose claim is under tol; each node is evaluated once, so
        # quad_evals is that rule's 2N + 1
        for r in run_suite("beamidentity"):
            p = r.params
            n = (p["quad_evals"] - 1) // 2
            assert n >= 8 and n & (n - 1) == 0
            assert 2 * n + 1 == p["quad_evals"] and p["quad_converged"] is True
            nodes, weights, _ = oq._cc_rule(2 * n)
            wr = p["omega_r"]
            finer = (bessel_j0(wr * (1.0 - nodes) * (1.0 + nodes))
                     * np.exp(1j * wr * nodes * nodes)) @ weights
            assert abs(r.lhs - finer) <= p["quad_error"], p

    def test_beamidentity_norms_within_ulps(self):
        # route B weights order n by (n + 1/2) times its P_n norm on the
        # rule of size 2 n_max, exact for P_n^2 up to n_max: each norm is
        # off by no more than the P_n table's own rounding, a few eps per
        # order (Gauss-Legendre with n_max + 1 nodes was up to 342 eps off
        # at n_max = 69)
        eps = np.finfo(float).eps
        for r in run_suite("beamidentity"):
            p = r.params
            n_max = p["n_terms"] - 1
            nodes, weights, _ = oq._cc_rule(n_max)
            norms = legendre_p_sequence(n_max, nodes) ** 2 @ weights
            orders = np.arange(n_max + 1)
            assert np.all(np.abs(norms * (orders + 0.5) - 1.0)
                          <= 4 * (orders + 1) * eps)
            terms = (2.0 * np.array([1, 1j, -1, -1j])[orders % 4]
                     * spherical_jn_sequence(n_max, p["omega_r"]))
            route_b = complex(np.sum(terms * (orders + 0.5) * norms))
            assert (route_b.real, route_b.imag) == (p["route_b_re"],
                                                    p["route_b_im"])

    def test_suite_rows_within_claim_of_single_calls(self):
        # the suites integrate every order in one call on one rule; a
        # single report takes the rule sized for its own order.  Its rhs
        # reads j_n from a table that ends at its own order, the suite's
        # from one to order 12, so they agree to rounding
        for r in run_suite("stratton"):
            p = r.params
            one = verify_stratton_integral(p["n"], p["omega"], p["z"],
                                           p["rho"])
            assert abs(one.rhs - r.rhs) <= 1e-15, p
            assert abs(one.lhs - r.lhs) <= p["quad_error"], p
        for r in run_suite("orthogonality"):
            one = legendre_orthogonality(r.params["n"])
            assert abs(one.lhs - r.lhs) <= r.params["quad_error"]

    def test_one_call_per_point(self, monkeypatch):
        # one P_n table per (omega, z, rho) for all 13 orders, and one
        # for all 31 norms, each on the nodes of one rule
        calls = []

        def counting(n_max, x):
            calls.append((n_max, np.shape(x)))
            return legendre_p_sequence(n_max, x)

        monkeypatch.setattr(idn, "legendre_p_sequence", counting)
        run_suite("stratton")
        # and one scalar sequence at z/r a point for the rhs
        assert sorted(set(calls)) == [(12, ()), (12, (59,)), (12, (61,)),
                                      (12, (65,)), (12, (73,)), (12, (77,)),
                                      (12, (91,)), (12, (137,))]
        assert len(calls) == 30
        calls.clear()
        run_suite("orthogonality")
        assert calls == [(30, (121,))]

    def test_high_frequency_converges(self):
        # omega = 1e3 at (n, z, rho) = (3, 1, 1): 4039 nodes, where the
        # adaptive K15 took 22,365 evaluations
        r = verify_stratton_integral(3, 1e3, 1.0, 1.0)
        _assert_ok(r)
        assert r.params["quad_converged"] is True
        assert r.params["quad_evals"] == 2 * (3 + 2000 + 16) + 1

    @pytest.mark.parametrize("omega", [1e5, 1e300])
    def test_past_the_budget_refused_before_evaluating(self, monkeypatch,
                                                       omega):
        # the rule would take about 4e5 nodes (or an infinite number):
        # refused with nothing evaluated or allocated; the rhs still takes
        # its scalar P_n(z/r)
        def never(*args):
            raise AssertionError("evaluated past the budget")

        def scalar_only(n_max, x):
            assert np.ndim(x) == 0, "P_n table built past the budget"
            return legendre_p_sequence(n_max, x)

        monkeypatch.setattr(idn, "bessel_j0", never)
        monkeypatch.setattr(idn, "legendre_p_sequence", scalar_only)
        t0 = time.perf_counter()
        r = verify_stratton_integral(3, omega, 1.0, 1.0)
        assert time.perf_counter() - t0 < 0.05
        assert r.ok is False
        assert r.params["quad_converged"] is False
        assert r.params["quad_evals"] == 0
        json.dumps(r.to_json_dict(), allow_nan=False)

    def test_table_past_the_budget_refused(self, monkeypatch):
        # P_0 .. P_1024 on 4097 nodes would pass 2^22 entries; 1023 fits
        monkeypatch.setattr(idn, "legendre_p_sequence",
                            lambda *args: pytest.fail("table built"))
        r = legendre_orthogonality(1024)
        assert r.params["quad_converged"] is False
        assert r.params["quad_evals"] == 0
        assert (1023 + 1) * (4 * 1023 + 1) <= oq._CC_TABLE

    def test_order_400_passes(self):
        # the adaptive K15 took 1.5 s and 18,645 evaluations here
        r = legendre_orthogonality(400)
        _assert_ok(r)
        assert r.params["quad_evals"] == 1601

    def test_weights_exact_on_polynomials(self):
        # the rule of size m integrates every polynomial of degree <= m
        for n in (2, 3, 7, 40):
            nodes, fine, coarse = oq._cc_rule(n)
            for m, w, x in ((2 * n, fine, nodes), (n, coarse, nodes[::2])):
                for d in range(m + 1):
                    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
                    assert abs(w @ x ** d - exact) <= 1e-15, (n, m, d)

    def test_import_builds_no_table(self):
        # the rules are built on first use, never at import
        src = Path(oq.__file__).resolve().parent.parent
        code = ("import beamkit.identities, beamkit.oscquad as q; "
                "print(q._cc_rule.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "0"


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


class TestFtPair:
    def test_p4_value(self):
        # P_4(0.6) = -51/125
        r = legendre_ft_pair(4, 0.6)
        _assert_ok(r)
        assert r.rhs == pytest.approx(-51.0 / 125.0, abs=1e-14)

    # (30, 0.999) and (40, 0.99) flagged while the rays were laid out for
    # e^{+-iz} alone; on h_n's Debye chord they pass
    @pytest.mark.parametrize("n,beta", [(0, 0.0), (1, 0.3), (2, -0.5),
                                        (3, 0.9), (6, -0.9), (30, 0.999),
                                        (40, 0.99)])
    def test_orders(self, n, beta):
        _assert_ok(legendre_ft_pair(n, beta))

    def test_beta_on_edge_rejected(self):
        with pytest.raises(ValueError):
            legendre_ft_pair(2, 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta="):
            legendre_ft_pair(2, beta)

    def test_suite_error_and_cost_pinned(self):
        # segment panels and vertical rays land on P_n to rounding (the
        # half-period cells, widened to the beat, were 3.2e-10 off); a
        # count, unlike a time, pins the cost on any host
        reports = idn.suite_ftpair()
        assert len(reports) == 42
        assert all(r.params["quad_converged"] for r in reports)
        assert max(abs(r.lhs - r.rhs) for r in reports) <= 1e-15
        assert sum(r.params["quad_evals"] for r in reports) == 13407

    @pytest.mark.parametrize("n,beta", [(80, 0.999), (151, 0.3), (200, 0.5),
                                        (300, 0.9)])
    def test_high_orders_right_or_flagged(self, n, beta):
        # a_k(n + 1/2) from factorials overflowed a float from n = 151 on;
        # scaled by L^k they do not.  The sum over k cancels at |z| = L
        # there, and at (80, 0.999) the slow rays' first panels over-claim,
        # so a report may fail, but only with its quadrature flagged
        r = legendre_ft_pair(n, beta)
        assert r.ok or r.params["quad_converged"] is False


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
    # n = 61 tripped the engine's cell cosine (ZeroDivisionError), and
    # from n = 86 on the factorial coefficients overflowed a float
    @pytest.mark.parametrize("n,expected", [
        (0, math.pi), (1, math.pi / 3.0), (4, math.pi / 9.0)]
        + [(n, math.pi / (2 * n + 1)) for n in (61, 86, 100, 150, 200)])
    def test_norms(self, n, expected):
        r = jn_norm_integral(n)
        _assert_ok(r)
        assert r.rhs == pytest.approx(expected, rel=1e-15)

    def test_every_suite_order_within_1e9(self):
        # the closed-form tail leaves the engine an alternating integrand,
        # which epsilon takes well under the report's 1e-7
        for n in range(21):
            r = jn_norm_integral(n)
            assert r.params["quad_converged"] is True
            assert r.rel_err <= 1e-9, (n, r.rel_err)

    def test_tail_split_at_a_cell_edge(self):
        # L is the first multiple of pi/2 at or past 2n + 4
        for n in (0, 3, 20):
            big_l = jn_norm_integral(n).params["tail_start"]
            k = round(big_l / (0.5 * math.pi))
            assert big_l == k * (0.5 * math.pi)
            assert big_l >= 2 * n + 4 > (k - 1) * (0.5 * math.pi)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
    def test_square_coeffs_match_scipy(self, n):
        # Abramowitz and Stegun 10.1.27, scaled by L = 2n + 4, against
        # scipy's j_n^2 + y_n^2
        special = pytest.importorskip("scipy.special")
        big_l = 2.0 * n + 4.0
        x = np.array([0.7, 2.0, big_l, 57.3, 400.0])
        u = 1.0 / (x * x)
        poly = sum(d * (big_l * big_l) ** k * u ** (k + 1)
                   for k, d in enumerate(idn._jn_yn_square_coeffs(n, big_l)))
        ref = special.spherical_jn(n, x) ** 2 + special.spherical_yn(n, x) ** 2
        np.testing.assert_allclose(poly, ref, rtol=1e-14, atol=0)


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


    @pytest.mark.parametrize("x,cg", [(150.0, 0.3), (-150.0, -0.7)])
    def test_sum_takes_exact_i_powers_past_n_100(self, x, cg):
        # numpy's integer power of 1j drifts from i^n from n = 100 on; the
        # sum takes i^n from the exact table, so it equals the sum over
        # [1, i, -1, -i][n % 4] bit for bit
        n_max = 200
        orders = np.arange(n_max + 1)
        jx = spherical_jn_sequence(n_max, abs(x)) * np.where(
            (x < 0) & (orders % 2 == 1), -1.0, 1.0)
        exact = np.array([1.0, 1j, -1.0, -1j])[orders % 4]
        want = complex(np.sum((2 * orders + 1) * exact * jx
                              * legendre_p_sequence(n_max, cg)))
        got = idn._plane_wave_sum(x, cg, n_max, half_coeff=False)
        assert (got.real, got.imag) == (want.real, want.imag)


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
        # the tail-extended series and the Clenshaw-Curtis norm route must
        # agree independently of the integral, past n = 200 too
        r = bessel_beam_identity(omega_r)
        _assert_ok(r)
        assert r.params["route_gap"] < 1e-10
        if omega_r == 160.0:
            assert r.params["n_terms"] > 200

    @pytest.mark.parametrize("omega_r", [math.nan, math.inf, -math.inf, -1.0])
    def test_nonfinite_or_negative_refused(self, omega_r, monkeypatch):
        # refused up front, with no RuntimeWarning and no integrand call
        monkeypatch.setattr(idn, "integrate_finite", _never_called)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"omega_r must be finite and nonnegative: {omega_r!r}")):
                bessel_beam_identity(omega_r)


def _never_called(*args, **kwargs):
    raise AssertionError("called after a refused argument")


class TestArgumentChecks:
    # every order goes through specfun._as_order and every cosine through
    # beamcore._check_cosine: a ValueError that names the value, before
    # any sweep or quadrature
    @pytest.mark.parametrize("n", [2.5, True, -1, np.float64(3.0)])
    @pytest.mark.parametrize("check", [
        jn_norm_integral, lambda n: legendre_ft_pair(n, 0.3),
        legendre_orthogonality,
        lambda n: verify_stratton_integral(n, 1.0, 0.3, 0.7)],
        ids=["jnnorm", "ftpair", "orthogonality", "stratton"])
    def test_order_not_an_int_refused(self, check, n):
        with pytest.raises(ValueError, match=re.escape(
                f"order n must be an int >= 0: {n!r}")):
            check(n)

    @pytest.mark.parametrize("check", [
        lambda: delta_kernel_test(0.3, 20.5, np.exp),
        lambda: delta_kernel_test(0.3, 0, np.exp),
        lambda: hochstadt_sum_check(1.5, 4.0, 0.2, n_max=30.0),
        lambda: plane_wave_expansion_check(3.0, 0.2, n_max=True)],
        ids=["delta-float", "delta-zero", "hochstadt", "planewave"])
    def test_n_max_not_an_int_refused(self, check, monkeypatch):
        monkeypatch.setattr(idn, "legendre_p_sequence", _never_called)
        with pytest.raises(ValueError, match="n_max must be an int >= "):
            check()

    @pytest.mark.parametrize("c", [math.nan, 1.5, -math.inf])
    @pytest.mark.parametrize("check,what", [
        (lambda c: hochstadt_sum_check(1.5, 4.0, c), "cos_theta"),
        (lambda c: plane_wave_expansion_check(3.0, c), "cos_gamma"),
        (lambda c: delta_kernel_test(c, 20, np.exp), "cos_theta0")],
        ids=["hochstadt", "planewave", "delta"])
    def test_cosine_refused_before_any_sweep(self, check, what, c,
                                             monkeypatch):
        monkeypatch.setattr(idn, "legendre_p_sequence", _never_called)
        with pytest.raises(ValueError, match=re.escape(
                f"{what} outside [-1, 1]: {c!r}")):
            check(c)


    @pytest.mark.parametrize("check,message", [
        (lambda: hochstadt_sum_check(math.nan, 1.0, 0.2),
         "lam and mu must be finite and positive: nan, 1.0"),
        (lambda: hochstadt_sum_check(1.5, math.inf, 0.2),
         "lam and mu must be finite and positive: 1.5, inf"),
        (lambda: plane_wave_expansion_check(math.inf, 0.2),
         "x must be finite: inf"),
        (lambda: plane_wave_expansion_check(math.nan, 0.2),
         "x must be finite: nan")],
        ids=["hochstadt-lam", "hochstadt-mu", "planewave-inf",
             "planewave-nan"])
    def test_nonfinite_argument_named(self, check, message, monkeypatch):
        # a NaN or inf reached truncation_order, whose error named its own
        # omega_r; it is refused by its own name before that
        monkeypatch.setattr(idn, "truncation_order", _never_called)
        with pytest.raises(ValueError, match=re.escape(message)):
            check()


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


class TestXwaveOracle:
    @pytest.mark.parametrize("cos_theta,p", [
        (0.5, FieldPoint(z=1.0, rho=0.0, t=0.0)),    # on the axis
        (1.0, FieldPoint(z=1.0, rho=2.0, t=0.0)),    # cone closed, a = 0
        (-1.0, FieldPoint(z=1.0, rho=2.0, t=3.0)),
        (0.3, FieldPoint(z=-2.0, rho=0.0, t=5.0))])
    def test_zero_a_is_exterior_and_checked(self, cos_theta, p):
        # a = sin(theta) rho = 0 lies outside the support |b| < a: the
        # closed form is 0 there and the oracle, 2 eps/(eps^2 + b^2) at
        # a = 0, is extrapolated from eps0 = 0.4 |b| instead of raising.
        # It is odd in eps, and extrapolated in odd powers it lands on 0
        # to rounding (in even powers it stayed 1e-4..1e-2 off)
        r = xwave_oracle_check(cos_theta, p)
        _assert_ok(r)
        assert r.lhs == 0.0 and r.rhs == 0.0
        assert r.params["oracle_tol"] == 1e-12
        assert abs(r.params["oracle_residual"]) <= 1e-12


    def test_suite_exterior_residuals_gated(self):
        # the ten exterior points of suite_xwave: extrapolated in even
        # powers of eps the oracle stayed 2.2e-4..5.1e-3 off 0, in odd
        # powers it is at most 6.3e-18 off, and each report holds it to
        # its oracle_tol
        exterior = [r for r in run_suite("xwave") if r.rhs == 0]
        assert len(exterior) == 10
        for r in exterior:
            _assert_ok(r)
            assert abs(r.params["oracle_residual"]) <= 1e-17

    def test_exterior_residual_past_tol_fails(self, monkeypatch):
        # the closed form is exactly 0, but an oracle that does not come
        # down to 0 fails the report
        monkeypatch.setattr(idn, "_richardson_eps_limit",
                            lambda a, b: (2e-12, 0.0))
        r = xwave_oracle_check(0.3, FieldPoint(z=-2.0, rho=0.0, t=5.0))
        assert r.lhs == 0.0 and r.abs_err == 0.0
        assert r.ok is False


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

    def test_triplesum_batch_equals_the_single_checks(self, monkeypatch):
        # one batch call, one array sweep over all 120 cosines, and the
        # same reports as one triple_sum_cesaro_check per triple
        calls = []

        def counting(n_max, x):
            calls.append((n_max, np.shape(x)))
            return legendre_p_sequence(n_max, x)

        monkeypatch.setattr(wp, "legendre_p_sequence", counting)
        batch = [r.to_json_dict() for r in run_suite("triplesum")]
        assert calls == [(4000, (40, 3))]
        interior, exterior = idn._sample_triples(4915, 20, 20)
        singles = [triple_sum_cesaro_check(a).to_json_dict()
                   for a in interior + exterior]
        assert calls[1:] == [(4000, ())] * 120  # three scalar sweeps each
        assert batch == singles

    def test_deterministic_across_runs(self):
        a = [r.to_json_dict() for r in run_suite("triplesum")]
        b = [r.to_json_dict() for r in run_suite("triplesum")]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
