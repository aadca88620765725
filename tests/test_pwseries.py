"""Partial-wave series representation against the direct evaluation."""
import cmath
import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit import pwseries, specfun
from beamkit.beamcore import BeamParams, FieldPoint, cauchy, constant, vacuum
from beamkit.beamcore import eval_direct
from beamkit.cli import main
from beamkit.pwseries import (HARD_CAP, SeriesResult, eval_series,
                              truncation_order)
from beamkit.specfun import legendre_p_sequence, spherical_jn_sequence

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
        # |j_n| drops under 0.01*tol, or the one after it: the Debye bound
        # lies a little above |j_n|
        n = truncation_order(x, tol)
        vals = np.abs(spherical_jn_sequence(n, x))
        assert n >= _base(x)
        assert vals[n] < 0.01 * tol
        assert np.all(vals[_base(x):n - 1] >= 0.01 * tol)

    @pytest.mark.parametrize("tol", [float("nan"), 1e-323])
    def test_refuses_tol_without_target(self, tol):
        # NaN, and a tol whose 0.01*tol rounds to 0.0, leave no order that
        # could end the scan short of HARD_CAP
        with pytest.raises(ValueError, match="tol"):
            truncation_order(1.0, tol)

    def test_tiny_tol_still_works(self):
        # j_147(1) = 2.36e-302 (40-digit mpmath) lies above the 1e-302
        # target, and j_148(1) = 7.95e-305 under it.  A j_n table flushes
        # every entry under 1e-300 to zero, so a scan of it cut at 147
        assert truncation_order(1.0, 1e-300) == 148

    def test_builds_no_jn_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("truncation_order built a j_n table")

        for name in ("spherical_jn_sequence", "_sph_sequence_miller",
                     "_sph_sequence_tiny", "_sph_sequence_upward"):
            monkeypatch.setattr(specfun, name, refuse)
        monkeypatch.setattr(pwseries, "spherical_jn_sequence", refuse)
        for x in (1e-8, 1.0, 50.0, 4000.0):
            assert isinstance(truncation_order(x, 1e-12), int)

    def test_never_under_the_scan_and_at_most_one_past_it(self):
        # the scan the bound replaced, rebuilt from the j_n table, is the
        # oracle: seeded (x, tol) over the range the routes use.  The order
        # is the first whose bound lies under the target
        rng = np.random.default_rng(3201)
        xs = 10.0 ** rng.uniform(-3.0, 3.6, 2000)
        tols = 10.0 ** rng.uniform(-14.0, -4.0, 2000)
        for x, tol in zip(xs.tolist(), tols.tolist()):
            n = truncation_order(x, tol)
            scan = _scan_order(x, tol)
            assert scan <= n <= scan + 1, (x, tol, n, scan)
            assert abs(spherical_jn_sequence(n, x)[n]) < 0.01 * tol
            log_target = math.log(0.01 * tol)
            assert pwseries._log_jn_bound(n, x)[0] < log_target
            assert n == _base(x) or \
                pwseries._log_jn_bound(n - 1, x)[0] >= log_target

    def test_sharp_bound_never_under_jn(self):
        # the leading Debye term against the j_n table at orders x .. x+60
        rng = np.random.default_rng(3202)
        for x in (10.0 ** rng.uniform(-3.0, 3.6, 1000)).tolist():
            hi = int(x) + 60
            vals = np.abs(spherical_jn_sequence(hi, x))
            for n in range(math.ceil(x), hi + 1):
                if vals[n] > 0.0:
                    assert math.log(vals[n]) <= pwseries._log_jn_bound(n, x)[0]

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1.2e-232,
                                   specfun._TINY_ARG * (1 - 2 ** -52),
                                   specfun._TINY_ARG,
                                   specfun._TINY_ARG * (1 + 2 ** -52)])
    def test_tiny_arguments(self, x, tol):
        # below and just above _TINY_ARG, j_n(x) = x^n / (2n+1)!! to double
        # precision, so log|j_n| is exact in closed form; the order is the
        # first under the target or the one after it, and the bound's logs
        # survive a tanh alpha that rounds to 1
        def log_jn(n):
            return n * math.log(x) - (math.lgamma(2 * n + 2)
                                      - n * math.log(2.0)
                                      - math.lgamma(n + 1))

        n = truncation_order(x, tol)
        first = next(k for k in range(_base(x), HARD_CAP)
                     if log_jn(k) < math.log(0.01 * tol))
        assert first <= n <= first + 1

    def test_origin_returns_the_base(self):
        assert truncation_order(0.0) == 10
        assert truncation_order(0.0, 1e-300) == 10

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    def test_base_past_hard_cap(self, tol):
        # a base at or past the cap is clipped to HARD_CAP, which
        # _series_sum flags (test_sum_at_hard_cap_flagged_whatever_its_tail)
        assert _base(1e12) > HARD_CAP
        assert truncation_order(1e12, tol) == HARD_CAP
        assert truncation_order(4990.0, tol) == HARD_CAP

    def test_tiny_tol_at_large_argument_in_bounded_time(self):
        # no order under 1e-302 before the cap at x = 4000: the bracket
        # closes only at HARD_CAP, 926 orders past the base
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            n = truncation_order(4000.0, 1e-300)
            elapsed.append(time.perf_counter() - t0)
        assert n == HARD_CAP
        assert min(elapsed) < 0.05

    def test_orders_frozen_on_seeded_draws(self):
        # orders frozen from the scan of j_n tables 60, 120, ... past the
        # base that truncation_order ran before it took the Debye bound,
        # which gives every one of them.  Half the tolerances are everyday
        # ones, half reach 1e-300 (orders far past the base, or HARD_CAP)
        rng = np.random.default_rng(1980)
        xs = 10.0 ** rng.uniform(-3.0, np.log10(4990.0), 300)
        tols = 10.0 ** np.concatenate([rng.uniform(-16.0, -6.0, 150),
                                       rng.uniform(-300.0, -1.0, 150)])
        frozen = [
            12, 11, 12, 11, 11, 11, 16, 262, 254, 13, 49, 1952, 13, 11, 13, 19,
            29, 12, 17, 11, 95, 781, 1152, 11, 12, 31, 13, 3476, 865, 11, 12,
            18, 11, 72, 11, 11, 19, 26, 19, 2213, 11, 20, 2308, 18, 11, 1328,
            16, 11, 11, 228, 14, 12, 12, 11, 14, 34, 1450, 14, 17, 151, 11, 44,
            15, 11, 31, 15, 11, 13, 13, 23, 11, 330, 124, 13, 14, 76, 11, 12,
            11, 13, 36, 28, 13, 23, 11, 15, 15, 26, 833, 14, 14, 2048, 89, 15,
            577, 3839, 16, 14, 49, 11, 17, 43, 12, 28, 40, 12, 11, 37, 182, 69,
            1751, 11, 66, 11, 19, 13, 11, 12, 73, 14, 454, 12, 33, 12, 3901,
            12, 12, 29, 12, 12, 1363, 2441, 39, 12, 2285, 12, 22, 12, 14, 22,
            14, 19, 11, 5000, 4322, 12, 29, 4337, 632, 13, 512, 29, 98, 33,
            734, 193, 421, 2097, 48, 253, 91, 76, 79, 64, 177, 4682, 11, 71,
            146, 44, 2136, 32, 63, 152, 1033, 180, 34, 63, 95, 63, 70, 1336,
            3834, 62, 104, 131, 69, 749, 73, 374, 980, 18, 55, 35, 61, 104,
            107, 3318, 3624, 269, 23, 69, 138, 371, 41, 232, 86, 101, 1313, 20,
            46, 541, 168, 95, 324, 124, 149, 303, 1161, 893, 35, 120, 47, 106,
            177, 44, 2542, 58, 104, 64, 262, 5000, 43, 16, 16, 313, 82, 20, 89,
            15, 69, 722, 129, 36, 194, 38, 783, 98, 153, 46, 42, 347, 162, 64,
            3244, 60, 291, 60, 96, 12, 58, 19, 603, 382, 182, 166, 11, 135,
            502, 1503, 2005, 51, 264, 756, 137, 48, 181, 134, 161, 202, 81, 47,
            263, 80, 188, 73, 812, 66, 63, 169, 540, 11, 761, 43, 92, 29, 15,
            74, 16, 82]
        got = [truncation_order(float(x), float(tol))
               for x, tol in zip(xs, tols)]
        assert got == frozen


def _base(x):
    return max(10, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 10.0))


def _scan_order(x, tol):
    # the first order at or past the base whose tabulated |j_n| lies under
    # 0.01*tol, on tables 60, 120, ... orders past the base
    base = _base(x)
    hi = base
    while hi < HARD_CAP:
        hi = min(hi + 60, HARD_CAP)
        vals = np.abs(spherical_jn_sequence(hi, x))
        below = np.flatnonzero(vals[base:] < 0.01 * tol)
        if below.size:
            return base + int(below[0])
    return HARD_CAP


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

    def test_sum_at_hard_cap_flagged_whatever_its_tail(self):
        # omega*r = 9.5e11: truncation_order's base lies past the cap, which
        # clips it to HARD_CAP, and the last two terms fall like 1/(omega r)
        # to 5.3e-13, under tol.  The sum is the whole field (1.1e-6) off,
        # and flagged
        b = BeamParams(omega=1e12, cos_theta=0.8)
        p = FieldPoint(z=0.3, rho=0.9, t=0.0)
        res = eval_series(b, p)
        assert res.n_terms == HARD_CAP + 1
        assert res.tail_estimate <= 1e-12
        assert abs(res.value - eval_direct(b, p)) > 1e-7
        assert res.converged is False

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
    "ROADMAP item 2: near the axis at omega*r about 3600 the series "
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
    # the P_n(cos theta) memo is keyed on the function it calls, so the
    # patched one is called; clearing it keeps the result independent of
    # the tests that ran before
    pwseries._legendre_row.cache_clear()
    monkeypatch.setattr(pwseries, "spherical_jn_sequence", ones)
    value, n_terms, _, _ = pwseries._series_sum(1.0, 0.5, 0.5, 1e-12)
    exact = sum((2 * n + 1) * (1, 1j, -1, -1j)[n % 4]
                for n in range(HARD_CAP + 1))
    assert n_terms == HARD_CAP + 1
    assert value == exact


def test_readme_rows_z_minus1_0_1_bit_for_bit(tmp_path):
    # the README series map's rows z = -1, 0 and 1, as ``beamkit map``
    # writes them: 123 points, the axis and the origin among them.  Any
    # change to a j_n or P_n bit, a phase or a truncation order shows here
    # as a new digest
    out = tmp_path / "rows.csv"
    assert main(["map", "--rep", "series", "--omega", "6",
                 "--cos-theta", "0.8", "--z-min", "-1", "--z-max", "1",
                 "--z-steps", "3", "--rho-min", "0", "--rho-max", "4",
                 "--rho-steps", "41", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a3c284ce1605368b43fa2b85f11c773cd4259ee78df8d447958ce09657776c0f")


class TestLegendreMemo:
    def test_rows_read_only_and_bitwise_equal(self):
        for n, x in ((0, 0.3), (1, -0.8), (57, 0.8), (400, -0.123456789),
                     (HARD_CAP, 0.999)):
            row = pwseries._legendre_row(legendre_p_sequence, n, x,
                                         math.copysign(1.0, x))
            assert row.tobytes() == legendre_p_sequence(n, x).tobytes()
            assert row.shape == (n + 1,) and not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 2.0
            assert pwseries._legendre_row(legendre_p_sequence, n, x,
                                          math.copysign(1.0, x)) is row

    def test_signed_zero_rows_kept_apart(self):
        # P_3(0.0) is -0.0 and P_3(-0.0) is 0.0: one row must not stand in
        # for the other
        pwseries._legendre_row.cache_clear()
        for x in (0.0, -0.0):
            row = pwseries._legendre_row(legendre_p_sequence, 9, x,
                                         math.copysign(1.0, x))
            assert row.tobytes() == legendre_p_sequence(9, x).tobytes()
        assert legendre_p_sequence(9, 0.0).tobytes() != \
            legendre_p_sequence(9, -0.0).tobytes()

    @pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
    def test_series_bitwise_at_signed_zero_cos_theta(self, order,
                                                     monkeypatch):
        # each cos_theta = +-0.0 sums with its own P_n(cos theta) row, and
        # gives the value of a sum that builds that row itself, whichever
        # sign the memo saw first
        pts = [FieldPoint(z=0.0, rho=1.3, t=0.0),
               FieldPoint(z=0.7, rho=2.1, t=0.4),
               FieldPoint(z=-1.5, rho=0.2, t=-0.3)]
        memo = pwseries._legendre_row
        rows = []

        def spy(legendre, n, x, sign):
            rows.append((n, x, memo(legendre, n, x, sign)))
            return rows[-1][2]

        def run():
            return [repr(eval_series(BeamParams(omega=2.0, cos_theta=ct),
                                     p).value)
                    for ct in order for p in pts]

        memo.cache_clear()
        monkeypatch.setattr(pwseries, "_legendre_row", spy)
        values = run()
        assert len(rows) == 2 * len(pts)
        for n, x, row in rows:
            assert row.tobytes() == legendre_p_sequence(n, x).tobytes()
        monkeypatch.setattr(pwseries, "_legendre_row",
                            lambda legendre, n, x, sign: legendre(n, x))
        assert values == run()


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
