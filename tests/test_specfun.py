"""Special-function kernels against frozen high-precision oracles.

Oracle values were generated once with 40-digit arithmetic (ascending
series for j_n, exact rational Rodrigues coefficients for P_n) and are
hard-coded here so the tests stay dependency-free.
"""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beamkit.specfun as specfun
from beamkit.specfun import (UNDERFLOW_FLUSH, _miller_offset, _sph_j0, _sph_j1,
                             _sph_miller_columns, _sph_sequence_miller,
                             bessel_j0, legendre_p, legendre_p_sequence,
                             spherical_jn, spherical_jn_sequence)


class TestLegendre:
    def test_p0_is_one(self):
        assert legendre_p(0, 0.73) == 1.0

    def test_p1_is_x(self):
        assert legendre_p(1, 0.4) == 0.4

    def test_p2_half(self):
        assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_p4_exact_rational(self):
        # P_4(3/5) = -51/125
        assert legendre_p(4, 0.6) == pytest.approx(-51.0 / 125.0, abs=1e-15)

    def test_p10_exact_rational(self):
        assert legendre_p(10, 0.3) == pytest.approx(
            643779454761 / 2560000000000, abs=2e-15)

    def test_endpoint_alternation(self):
        seq = legendre_p_sequence(5, -1.0)
        assert list(seq) == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def test_bitwise_equal_to_the_int_recurrence(self):
        # the Bonnet step written plainly, with int k and the orders
        # indexed from the list; a scalar and an array x
        def by_ints(n_max, x):
            out = [np.ones_like(x) if np.ndim(x) else 1.0, x][:n_max + 1]
            for k in range(1, n_max):
                out.append(((2 * k + 1) * x * out[k] - k * out[k - 1])
                           / (k + 1))
            return np.clip(out, -1.0, 1.0)

        rng = np.random.default_rng(1782)
        draws = [(int(n), float(x)) for n, x in
                 zip(rng.integers(0, 600, 300), rng.uniform(-1, 1, 300))]
        draws += [(n, x) for n in (0, 1, 2, 3, 9, 4000)
                  for x in (0.0, -0.0, 1.0, -1.0, 0.999999)]
        for n, x in draws:
            assert legendre_p_sequence(n, x).tobytes() == \
                by_ints(n, x).tobytes(), (n, x)
        xs = rng.uniform(-1, 1, (4, 5))
        for n in (0, 1, 2, 57):
            got = legendre_p_sequence(n, xs)
            assert got.shape == (n + 1, 4, 5)
            assert got.tobytes() == by_ints(n, xs).tobytes()
        # the triple-sum batch's shape and order, and the edges: signed
        # zeros, the endpoints, and a point inside the slack, clamped
        xs = rng.uniform(-1, 1, (40, 3))
        got = legendre_p_sequence(4000, xs)
        assert got.shape == (4001, 40, 3)
        assert got.tobytes() == by_ints(4000, xs).tobytes()
        edges = np.array([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-13, -1.0 - 1e-13])
        for n in (0, 1, 2, 9, 4000):
            got = legendre_p_sequence(n, edges)
            assert got.tobytes() == \
                by_ints(n, np.clip(edges, -1.0, 1.0)).tobytes(), n

    def test_clamp_keeps_signed_zeros_and_the_input(self):
        xs = np.array([-0.0, 0.0, 1.0 + 1e-13, -1.0 - 1e-13, 0.25])
        before = xs.tobytes()
        got = legendre_p_sequence(1, xs)[1]
        assert xs.tobytes() == before
        assert got.tobytes() == np.array(
            [-0.0, 0.0, 1.0, -1.0, 0.25]).tobytes()

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.float64(3.0)])
    def test_non_integer_order_refused(self, n):
        # refused up front with the value named, not a TypeError from a
        # slice deep inside the sweep
        for call in (lambda: legendre_p_sequence(n, 0.3),
                     lambda: legendre_p_sequence(n, np.array([0.3, 0.4])),
                     lambda: legendre_p(n, 0.3)):
            with pytest.raises(ValueError, match=re.escape(repr(n))):
                call()

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_numpy_int_order_accepted(self, n):
        assert legendre_p_sequence(n, 0.3).tobytes() == \
            legendre_p_sequence(4, 0.3).tobytes()
        assert legendre_p(n, 0.3) == legendre_p(4, 0.3)

    def test_sequence_matches_elementwise(self):
        seq = legendre_p_sequence(20, 0.3)
        for n, v in enumerate(seq):
            assert v == legendre_p(n, 0.3)

    def test_clamp_slack(self):
        assert legendre_p(3, 1.0 + 5e-13) == 1.0
        assert legendre_p(3, -1.0 - 5e-13) == -1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_p(3, 1.0 + 1e-11)
        with pytest.raises(ValueError):
            legendre_p(-1, 0.5)

    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan],
                                   [0.2, 1.0 + 1e-11], [-1.0 - 1e-11, 0.0]])
    def test_domain_error_nan_and_array(self, x):
        with pytest.raises(ValueError):
            legendre_p(3, x)
        with pytest.raises(ValueError):
            legendre_p_sequence(3, x)

    def test_array_in_blocks_is_one_sweep(self):
        # at n = 1000 a block holds 1047 entries, so 3000 entries take
        # three sweeps; each entry is the one-sweep entry, and the shape
        # is kept
        x = np.linspace(-1.0, 1.0, 3000)
        assert legendre_p(1000, x).tobytes() == \
            legendre_p_sequence(1000, x)[1000].tobytes()
        assert legendre_p(1000, x.reshape(3, 1000)).tobytes() == \
            legendre_p(1000, x).tobytes()
        assert legendre_p(3, np.zeros((0, 2))).shape == (0, 2)

    def test_array_memory_bounded(self):
        # one sweep over all 10,000 entries peaked at 153 MiB under
        # tracemalloc; a block's table stays under 8 MiB
        x = np.linspace(-1.0, 1.0, 10_000)
        tracemalloc.start()
        try:
            legendre_p(1000, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_array_rows_match_scalar_sequences_bitwise(self):
        xs = np.concatenate([np.linspace(-1.0, 1.0, 201),
                             [1.0 + 5e-13, -1.0 - 5e-13, 0.3]])
        rows = legendre_p_sequence(120, xs)
        assert rows.shape == (121, xs.size)
        for j, x in enumerate(xs):
            assert np.array_equal(rows[:, j],
                                  legendre_p_sequence(120, float(x)))
        assert np.array_equal(legendre_p(7, xs), rows[7])
        assert type(legendre_p(7, 0.3)) is float

    @given(n=st.integers(0, 500), x=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_one(self, n, x):
        assert abs(legendre_p(n, x)) <= 1.0

    @given(n=st.integers(1, 400), x=st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_recurrence_residual(self, n, x):
        seq = legendre_p_sequence(n + 1, x)
        res = (n + 1) * seq[n + 1] - (2 * n + 1) * x * seq[n] + n * seq[n - 1]
        assert abs(res) <= 1e-12


# (n, x, value) with values frozen from a 40-digit series oracle
_JN_ORACLES = [
    (0, 10.0, -0.05440211108893698134047),
    (1, 2.0, 0.4353977749799916173478),
    (5, 10.0, -0.05553451162145218090883),
    (15, 3.0, 6.520660515095426819543e-11),
    (20, 10.0, 2.30837196131946871671e-06),
    (40, 10.0, 8.435671634459208706972e-22),
    (60, 10.0, 7.882678576494136001371e-42),
    (100, 200.0, -0.00193609723624755679774),
    (250, 200.0, 1.562200220785384442274e-13),
    # Miller tables rescaled twice after these orders were stored
    (29, 4.434036222049022e-08, 1.9568744207401295751e-254),
    (52, 0.0003857364484650062, 1.0311891517970687786e-262),
]


class TestSphericalBessel:
    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.float64(3.0)])
    def test_non_integer_order_refused(self, n):
        # a float died with a TypeError inside the sweep, and True came
        # back as the order-1 table; both are refused with the order named
        for call in (lambda: spherical_jn_sequence(n, 0.7),
                     lambda: spherical_jn(n, 0.7),
                     lambda: spherical_jn(n, np.array([0.7, 30.0]))):
            with pytest.raises(ValueError, match=re.escape(repr(n))):
                call()

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_numpy_int_order_accepted(self, n):
        assert spherical_jn_sequence(n, 0.7).tobytes() == \
            spherical_jn_sequence(4, 0.7).tobytes()
        assert spherical_jn(n, 0.7) == spherical_jn(4, 0.7)
        xs = np.array([1e-9, 0.7, 30.0])
        assert spherical_jn(n, xs).tobytes() == spherical_jn(4, xs).tobytes()

    @pytest.mark.parametrize("x", [2.0, 123.456, 2000.5])
    def test_j0_closed_form(self, x):
        assert spherical_jn(0, x) == pytest.approx(math.sin(x) / x,
                                                   rel=1e-15, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_j0_helper_is_one_at_zero(self):
        assert _sph_j0(0.0) == 1.0
        assert type(_sph_j0(0.0)) is float
        assert list(_sph_j0(np.array([0.0, 0.0]))) == [1.0, 1.0]

    def test_j1_closed_form(self):
        expected = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
        assert spherical_jn(1, 2.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n,x,expected", _JN_ORACLES)
    def test_against_series_oracle(self, n, x, expected):
        assert spherical_jn(n, x) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_at_zero(self):
        assert list(spherical_jn_sequence(3, 0.0)) == [1.0, 0.0, 0.0, 0.0]
        assert spherical_jn(0, 0.0) == 1.0
        assert spherical_jn(7, 0.0) == 0.0

    def test_sequence_matches_elementwise(self):
        seq = spherical_jn_sequence(60, 10.0)
        for n, v in enumerate(seq):
            if abs(v) > 1e-280:
                assert v == pytest.approx(spherical_jn(n, 10.0), rel=1e-12, abs=0)

    def test_underflow_flush_flagged(self):
        # j_250(1) ~ 1e-570: far below the flush floor, so exactly 0.0
        seq = spherical_jn_sequence(250, 1.0)
        assert seq[250] == 0.0
        assert all(math.isfinite(v) for v in seq)

    def test_no_flush_when_representable(self):
        seq = spherical_jn_sequence(60, 10.0)
        assert np.all(seq != 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spherical_jn(-1, 1.0)
        with pytest.raises(ValueError):
            spherical_jn(2, -0.5)
        with pytest.raises(ValueError):
            spherical_jn_sequence(5, -1.0)

    @pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], [1.0, -0.5],
                                   math.inf, [1.0, math.inf]])
    def test_nan_and_negative_array_refused(self, x):
        with pytest.raises(ValueError):
            spherical_jn(3, x)
        if np.ndim(x) == 0:
            with pytest.raises(ValueError):
                spherical_jn_sequence(3, x)

    # x on both sides of x = n, the tiny-argument band and exact zero,
    # x in [1e-8, 1e-2], where a high order's sweep rescales several
    # times, and x just under k*pi, where the sweep anchors on j_1
    _ARRAY_X = np.concatenate([[0.0, 1e-9, 1e-3, 0.5, 1.0],
                               np.linspace(0.01, 40.0, 400),
                               np.arange(26.0), np.arange(1.0, 26.0) - 1e-9,
                               np.geomspace(1e-8, 1e-2, 40),
                               np.nextafter(np.pi * np.arange(1.0, 120.0),
                                            0.0)])

    @pytest.mark.parametrize("n", [*range(25), 150, 300, 1000])
    def test_array_matches_scalar_bitwise(self, n):
        got = spherical_jn(n, self._ARRAY_X)
        want = np.array([spherical_jn(n, float(x)) for x in self._ARRAY_X])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert type(spherical_jn(n, 2.5)) is float

    @pytest.mark.parametrize("lo,hi", [(200.0, 400.0), (0.0, 1e-9),
                                       (1e-3, 199.0)],
                             ids=["upward", "tiny", "miller"])
    def test_array_memory_does_not_grow_with_size(self, lo, hi):
        # each path sweeps blocks of entries and copies row n out of each,
        # so one block's table is alive at a time: past a block, an entry
        # adds a few arrays of its own, not a column of n + 1 rows (1608
        # bytes at n = 200).  Unblocked, or concatenating row views that
        # kept their tables, the peak grew with the array
        peaks = []
        for size in (10_000, 40_000):
            x = np.linspace(lo, hi, size)
            tracemalloc.start()
            try:
                spherical_jn(200, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 100 * 30_000, peaks

    def test_array_below_n_makes_no_scalar_sweep(self, monkeypatch):
        # entries in [1e-8, n) go through one array sweep and entries
        # under 1e-8, exact zero among them, through one pass of the
        # series term: no entry takes the scalar table.  A count, unlike
        # a time, pins the cost on any host
        calls = []

        def counted(n_max, x):
            calls.append(x)
            return spherical_jn_sequence(n_max, x)

        monkeypatch.setattr(specfun, "spherical_jn_sequence", counted)
        for n in (0, 1, 7, 60):
            x = np.concatenate([[0.0, -0.0, 1e-300, 1e-9],
                                np.geomspace(1e-8, n + 1, 50),
                                [np.nextafter(float(n), 0.0), 2.0 * n]])
            spherical_jn(n, x)
        assert calls == []

    @pytest.mark.parametrize("x", [[], [0.0, 1e-9], [1e-8, 3.0, 6.5]])
    def test_array_below_n_makes_no_upward_call(self, monkeypatch, x):
        # the upward path runs only when some entry is at or above n; run
        # on an empty selection it still took n Python steps (77 us at
        # n = 20)
        calls = []
        upward = specfun._sph_sequence_upward

        def counted(n_max, xs):
            calls.append(xs)
            return upward(n_max, xs)

        monkeypatch.setattr(specfun, "_sph_sequence_upward", counted)
        spherical_jn(7, np.array(x))
        assert calls == []
        spherical_jn(7, np.array(x + [7.0]))
        assert len(calls) == 1 and calls[0].tolist() == [7.0]

    @pytest.mark.parametrize("n_max", [0, 1, 40, 300])
    def test_tiny_band_equals_the_per_step_loop(self, n_max):
        # below 1e-8, j_n is x^n/(2n+1)!!, flushed under 1e-300.  The
        # reference flushes each term as it goes; one flush at the end
        # must give the same bits, for floats, arrays, zero and -0.0
        def loop(x):
            vals, term = [1.0], 1.0
            for n in range(1, n_max + 1):
                term = term * x / (2 * n + 1)
                if term < UNDERFLOW_FLUSH:
                    term = 0.0
                vals.append(term)
            return np.array(vals)

        xs = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-150, 3e-30, 1e-9,
              np.nextafter(1e-8, 0.0)]
        for x in xs:
            assert spherical_jn_sequence(n_max, x).tobytes() == \
                loop(x).tobytes()
        assert spherical_jn(n_max, np.array(xs)).tobytes() == \
            np.array([loop(x)[n_max] for x in xs]).tobytes()

    def test_array_sweep_in_blocks_is_one_sweep(self):
        # at n = 1000 a block holds 1793 columns, so 4000 entries below n
        # take three sweeps; each column is the one-sweep column
        x = np.linspace(1e-3, 999.0, 4000)
        assert spherical_jn(1000, x).tobytes() == \
            _sph_miller_columns(1000, x)[1000].tobytes()

    def test_array_keeps_shape(self):
        x = self._ARRAY_X[:40].reshape(5, 8)
        assert spherical_jn(4, x).shape == (5, 8)

    # j_1 below x = 1, where sin(x)/x^2 - cos(x)/x cancels; frozen from a
    # 40-digit series oracle
    @pytest.mark.parametrize("x,expected", [
        (1.0001e-3, 3.333666333233335501907e-4),
        (2e-3, 6.66666400000038109113e-4),
        (1e-2, 3.333300000119047467976e-3),
        (3e-2, 9.999100028928088920671e-3),
    ])
    def test_j1_small_argument(self, x, expected):
        assert spherical_jn(1, x) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_j0_times_x_is_sine(self):
        for x in (0.3, 1.7, 6.0, 31.4, 200.0):
            assert spherical_jn(0, x) * x == pytest.approx(math.sin(x),
                                                           abs=1e-13)

    @pytest.mark.parametrize("x", [0.7, 2.0, 9.5, 37.0, 150.0])
    def test_three_term_recurrence(self, x):
        n_max = 40
        seq = spherical_jn_sequence(n_max + 1, x)
        for n in range(1, n_max):
            if abs(seq[n]) <= 1e-200:
                continue
            lhs = seq[n - 1] + seq[n + 1]
            rhs = (2 * n + 1) / x * seq[n]
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-11 * scale

    def test_small_argument_scaling(self):
        # j_n(x) ~ x^n / (2n+1)!! near zero
        x = 1e-3
        dfact = 1.0
        for n in range(0, 9):
            if n > 0:
                dfact *= 2 * n + 1
            expected = x ** n / dfact
            assert spherical_jn(n, x) == pytest.approx(expected, rel=1e-2, abs=0)

    # deep-decay band: representable values hundreds of decades below 1,
    # frozen from a 40-digit oracle.  Regression for a rescale bug that
    # flushed these to zero.
    @pytest.mark.parametrize("n,x,expected", [
        (100, 0.1, 7.462903513497374495675e-290),
        (80, 0.05, 9.428492833560599998401e-249),
        (40, 1e-3, 1.547505320043551849093e-181),
        (10, 1e-6, 7.273091945557261574555e-71),
        (2, 1e-100, 6.666666666666666933225e-202),
    ])
    def test_deep_decay_band(self, n, x, expected):
        assert spherical_jn(n, x) == pytest.approx(expected, rel=1e-12, abs=0)
        assert spherical_jn_sequence(n, x)[n] == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_miller_entry_survives_two_rescales(self):
        # stored before the last two rescales of the downward sweep;
        # value frozen from a 40-digit oracle
        seq = spherical_jn_sequence(233, 1.4799266345558913e-07)
        assert seq[30] == pytest.approx(7.1822555027062299348e-248,
                                        rel=1e-12, abs=0)

    def test_tiny_argument_sequence(self):
        # at x = 1e-100 only the first three orders are representable
        seq = spherical_jn_sequence(5, 1e-100)
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(1e-100 / 3.0, rel=1e-15, abs=0)
        assert seq[2] == pytest.approx(1e-200 / 15.0, rel=1e-15, abs=0)
        assert list(seq[3:]) == [0.0, 0.0, 0.0]


def _miller_by_array(n_max, x):
    # the Miller sweep written plainly: each entry stored into an array,
    # rescaled in place, normalized with np.divide, flushed over every order
    start = n_max + _miller_offset(n_max)
    bp, bc = 0.0, 1.0
    stored = np.zeros(n_max + 1)
    for k in range(start, -1, -1):
        if k <= n_max:
            stored[k] = bc
        bp, bc = bc, (2 * k + 1) / x * bc - bp
        if abs(bc) > 1e250:
            bp *= 1e-250
            bc *= 1e-250
            stored[k:] *= 1e-250
    if abs(np.sin(x)) >= 0.1 or x <= 1.0 or n_max < 1:
        ratio = _sph_j0(x) / stored[0]
    else:
        ratio = _sph_j1(x) / stored[1]
    vals = stored * ratio
    deep = (np.arange(n_max + 1) > x) & (np.abs(vals) < UNDERFLOW_FLUSH)
    vals[deep | ~np.isfinite(vals)] = 0.0
    return vals


def _miller_draws():
    rng = np.random.default_rng(1967)
    draws = []
    for _ in range(400):
        n = int(rng.integers(1, 1200))
        draws.append((n, float(10.0 ** rng.uniform(-8.0, math.log10(n)))))
    # the j_1 anchor near the zeros of the sine, the j_0 anchor at and
    # just above x = 1, integer x on the flush boundary, and sweeps that
    # rescale several times
    for k in range(1, 30):
        draws += [(4 * k + 10, k * math.pi),
                  (4 * k + 10, math.nextafter(k * math.pi, 0.0)),
                  (4 * k + 10, float(k))]
    draws += [(5, 1.0), (5, math.nextafter(1.0, 2.0)), (1, 0.5),
              (233, 1.4799266345558913e-07), (1000, 1e-8), (1000, 3e-6)]
    return draws


class TestMillerSweep:
    def test_bitwise_equal_to_the_array_sweep(self):
        for n, x in _miller_draws():
            got = _sph_sequence_miller(n, x)
            want = _miller_by_array(n, x)
            assert got.dtype == np.float64 and got.shape == (n + 1,)
            assert got.tobytes() == want.tobytes(), (n, x)

    def test_array_sweep_bitwise_equal_to_the_scalar_sweep(self):
        # the draws grouped by order, one array sweep per order
        by_order = {}
        for n, x in _miller_draws():
            by_order.setdefault(n, []).append(x)
        for n, xs in by_order.items():
            table = _sph_miller_columns(n, np.array(xs))
            assert table.shape == (n + 1, len(xs))
            for col, x in zip(table.T, xs):
                assert col.tobytes() == _sph_sequence_miller(n, x).tobytes(), \
                    (n, x)

    def test_orders_past_x_flushed_orders_below_kept(self):
        # at x = 0.5 the entries underflow past order ~150; below x an
        # entry under the floor would be a zero crossing, so it is kept
        vals = _sph_sequence_miller(400, 0.5)
        assert vals[-1] == 0.0 and vals[1] > 0.0
        assert not np.any((vals != 0.0) & (np.abs(vals) < UNDERFLOW_FLUSH))


# frozen 40-digit values, rounded to 22 digits.  The first block is J_0 at
# the decimal x as written; the zeros and the points around 5.0 are J_0 at
# the exact double x (the decimal and the double differ there by more than
# the accuracy under test).
_J0_ORACLES = [
    (0.0, 1.0),
    (1.0, 0.7651976865579665514497),
    (5.3, -0.0758031115855841600626),
    (11.9, 0.02504944169958956372832),
    (11.999, 0.04746583057345654736286),   # either side of 12, where the
    (12.001, 0.04791272471031461825779),   # split used to be
    (100.0, 0.01998585030422312242423),
    (499.5, -0.02490131693430113452428),
    # the first four zeros
    (2.404825557695773, -6.108765259736730397082e-17),
    (5.520078110286311, -2.752264943262183147206e-17),
    (8.653727912911013, -7.948465570525161599982e-17),
    (11.791534439014281, -6.538994895807815285223e-17),
    # just under, at and just over the split between the small-argument
    # fit and the asymptotic form
    (4.999999999999999, -0.1775967713143385952961),
    (5.0, -0.1775967713143383043474),
    (5.000000000000001, -0.1775967713143380133987),
]


# bessel_j0 outputs frozen by repr; the scalar and the array path must
# both keep every bit
_J0_FROZEN = [
    (0.0, 1.0),
    (1e-09, 1.0),
    (0.5, 0.938469807240813),
    (1.0, 0.7651976865579665),
    (2.404825557695773, -9.586882554916807e-17),
    (5.3, -0.07580311158558423),
    (8.0, 0.1716508071375539),
    (11.9, 0.02504944169958986),
    (11.999999999999998, 0.04768931079683335),
    (12.0, 0.04768931079683335),
    (12.001, 0.04791272471031469),
    (30.0, -0.08636798358104031),
    (100.0, 0.01998585030422333),
    (250.75, 0.010379829431036549),
    (499.5, -0.024901316934300484),
    (-7.25, 0.29199692419177903),
]


class TestBesselJ0:
    @pytest.mark.parametrize("x,expected", _J0_ORACLES)
    def test_oracle_values(self, x, expected):
        assert bessel_j0(x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "x,expected", [(x, e) for x, e in _J0_ORACLES if abs(x) <= 12.0])
    def test_oracle_values_to_rounding(self, x, expected):
        # the two rational fits hold J_0 to a few units in the last place
        assert bessel_j0(x) == pytest.approx(expected, abs=5e-16)

    def test_even_symmetry(self):
        assert bessel_j0(-5.3) == bessel_j0(5.3)
        assert bessel_j0(-100.0) == bessel_j0(100.0)

    def test_first_zero(self):
        assert abs(bessel_j0(2.404825557695773)) <= 1e-12

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 5.3, -5.3, 100.0])
        out = bessel_j0(xs)
        assert out.shape == xs.shape
        for x, v in zip(xs, out):
            assert v == bessel_j0(float(x))

    @pytest.mark.parametrize("x,expected", _J0_FROZEN)
    def test_frozen_bits(self, x, expected):
        assert bessel_j0(x) == expected
        assert bessel_j0(np.array([x]))[0] == expected

    def test_scalar_matches_array_bitwise(self):
        # both branches, the split at 5.0, the old split at 12.0 and
        # negative x
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(0.0, 12.0, 2000),
                             rng.uniform(12.0, 500.0, 500),
                             [0.0, np.nextafter(5.0, 0.0), 5.0,
                              np.nextafter(5.0, 6.0),
                              np.nextafter(12.0, 0.0), 12.0, 500.0,
                              -0.75, -np.nextafter(12.0, 0.0), -12.0, -250.5]])
        scalar = np.array([bessel_j0(float(x)) for x in xs])
        assert np.array_equal(scalar.view(np.int64),
                              bessel_j0(xs).view(np.int64))

    def test_scalar_returns_float(self):
        for x in (3.0, 30.0, np.float64(3.0), np.array(30.0)):
            assert type(bessel_j0(x)) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bessel_j0(bad)
        with pytest.raises(ValueError, match="finite"):
            bessel_j0(np.array([1.0, bad, 20.0]))

    @given(x=st.floats(-500.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_even(self, x):
        v = bessel_j0(x)
        assert abs(v) <= 1.0
        assert v == bessel_j0(-x)


class TestRealSequence:
    """The sequences are plain float64 arrays, orders along axis 0."""

    def test_length_invariant(self):
        assert len(legendre_p_sequence(17, 0.2)) == 18
        assert len(spherical_jn_sequence(0, 1.0)) == 1

    def test_all_entries_finite(self):
        for seq in (legendre_p_sequence(300, -0.77),
                    spherical_jn_sequence(300, 2.5)):
            assert type(seq) is np.ndarray and seq.dtype == np.float64
            assert all(math.isfinite(v) for v in seq)
