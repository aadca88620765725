import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamkit.wavepacket as wp
from beamkit.beamcore import FieldPoint
from beamkit.specfun import legendre_p_sequence
from beamkit.wavepacket import (ConeAngles, support_predicate,
                                triple_legendre_sum, triple_sum_closed_form,
                                wavepacket_series, xwave_closed_form)


def _angles(ct, ce, cg):
    return ConeAngles(cos_theta=ct, cos_eta=ce, cos_gamma=cg)


class TestConeAngles:
    def test_valid(self):
        a = _angles(0.5, -0.5, 0.9)
        assert (a.cos_theta, a.cos_eta, a.cos_gamma) == (0.5, -0.5, 0.9)
        # sin^2 eta sin^2 theta - (cos eta cos theta - cos gamma)^2
        assert wp._support_radicand(a) == pytest.approx(0.75 * 0.75 - 1.15 ** 2)

    @pytest.mark.parametrize("ct,ce", [(1.5, 0.0), (0.0, -1.0001)])
    def test_cone_cosines_bounded(self, ct, ce):
        with pytest.raises(ValueError):
            _angles(ct, ce, 0.0)

    def test_cos_gamma_unbounded(self):
        # the third cosine is t/r and may leave [-1, 1]
        a = _angles(0.0, 0.0, 5.0)
        assert a.cos_gamma == 5.0

    @pytest.mark.filterwarnings("error")
    def test_nan_cos_gamma_refused(self):
        # triple_sum_closed_form used to return nan for it
        with pytest.raises(ValueError, match="NaN"):
            _angles(0.2, 0.3, math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cg", [math.inf, -math.inf])
    def test_infinite_cos_gamma_lies_outside_support(self, cg):
        a = _angles(0.2, 0.3, cg)
        assert support_predicate(a) is False
        assert triple_sum_closed_form(a) == 0.0


class TestSupportPredicate:
    # radicand = sin^2(eta) sin^2(theta) - (cos eta cos theta - cos gamma)^2
    CASES = [
        (0.0, 0.0, 0.5, True),    # radicand 0.75
        (0.0, 0.0, 1.5, False),   # radicand -1.25
        (0.6, 0.5, 0.3, True),    # radicand 0.48
        (0.6, 0.5, 1.2, False),   # radicand 0.48 - 0.81
        (1.0, 0.5, 0.5, False),   # sin_theta = 0: support degenerates to a
        (1.0, 0.5, 0.6, False),   # point, and the predicate is strict
        (0.0, 0.0, 2.0, False),   # |cos gamma| > 1 is always outside
        (0.3, -0.4, -5.0, False),
    ]

    @pytest.mark.parametrize("ct,ce,cg,inside", CASES)
    def test_truth_table(self, ct, ce, cg, inside):
        assert support_predicate(_angles(ct, ce, cg)) is inside

    def test_boundary_is_outside(self):
        # strict inequality: the branch point itself does not count
        ct, ce = 0.0, 0.0
        assert support_predicate(_angles(ct, ce, 1.0)) is False

    def test_same_side_as_the_closed_form_near_the_boundary(self):
        # one support test: the predicate reads the radicand that
        # triple_sum_closed_form and the suite's sampler take their side
        # from, also within an ulp or so of the boundary, where a product
        # of two sines and the radicand disagreed on about 3 % of draws
        rng = np.random.default_rng(1)
        n = 200_000
        ct, ce = rng.uniform(-1.0, 1.0, size=(2, n))
        edge = np.sqrt((1 - ct) * (1 + ct)) * np.sqrt((1 - ce) * (1 + ce))
        cg = (ce * ct + rng.choice([-1.0, 1.0], size=n) * edge
              * (1.0 + rng.uniform(-1e-15, 1e-15, size=n)))
        for a in map(ConeAngles, ct.tolist(), ce.tolist(), cg.tolist()):
            assert support_predicate(a) is (wp._support_radicand(a) > 0)


class TestXwaveClosedForm:
    def test_central_value(self):
        # cos_theta=0, unit radius, t=0: 2/sqrt(1) = 2
        assert xwave_closed_form(0.0, FieldPoint(0.0, 1.0, 0.0)) == \
            pytest.approx(2.0)

    def test_frozen_interior_value(self):
        # radicand = 0.64*4 - (0.6 - 0.3)^2 = 2.47
        got = xwave_closed_form(0.6, FieldPoint(0.5, 2.0, 0.6))
        assert got == pytest.approx(1.272569525951555544957, rel=1e-14)

    def test_exterior_zero(self):
        assert xwave_closed_form(0.0, FieldPoint(0.0, 1.0, 1.5)) == 0.0
        assert xwave_closed_form(0.6, FieldPoint(0.5, 2.0, 2.0)) == 0.0

    def test_boundary_raises(self):
        with pytest.raises(ValueError):
            xwave_closed_form(0.0, FieldPoint(0.0, 1.0, 1.0))

    def test_cos_theta_validated(self):
        with pytest.raises(ValueError):
            xwave_closed_form(1.5, FieldPoint(0.0, 1.0, 0.0))

    @given(ct=st.floats(-1.0, 1.0), z=st.floats(-3.0, 3.0),
           rho=st.floats(0.0, 3.0), t=st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_finite(self, ct, z, rho, t):
        rad = (1 - ct * ct) * rho * rho - (t - ct * z) ** 2
        if abs(rad) < 1e-12:
            return
        v = xwave_closed_form(ct, FieldPoint(z, rho, t))
        assert v >= 0.0
        assert math.isfinite(v)


class TestTripleSum:
    def test_all_zero_cosines_limit(self):
        # interior point with every cosine zero: closed form is 2/pi
        a = _angles(0.0, 0.0, 0.0)
        assert triple_sum_closed_form(a) == pytest.approx(2.0 / math.pi,
                                                          rel=1e-14)
        res = triple_legendre_sum(a, n_max=4000, mode="cesaro")
        assert res.value == pytest.approx(2.0 / math.pi, rel=1e-3)

    def test_frozen_closed_form(self):
        # cos_gamma = 0.6082762530298220 with the cone angles at 90 deg:
        # radicand 0.63
        a = _angles(0.0, 0.0, 0.6082762530298220)
        assert triple_sum_closed_form(a) == pytest.approx(
            0.8020655225672235996969, rel=1e-14)

    def test_cesaro_converges_to_closed_form(self):
        a = _angles(0.2, -0.3, 0.4)
        res = triple_legendre_sum(a, n_max=4000, mode="cesaro")
        assert abs(res.value - triple_sum_closed_form(a)) < 2e-2

    def test_double_average_converges_too(self):
        a = _angles(0.2, -0.3, 0.4)
        dbl = triple_legendre_sum(a, n_max=3000, mode="double_average")
        assert abs(dbl.value - triple_sum_closed_form(a)) < 2e-2
        # the second averaging damps the step-to-step wobble well below
        # the raw oscillation
        raw = triple_legendre_sum(a, n_max=3000, mode="raw")
        assert dbl.tail_estimate < 1e-3 * raw.tail_estimate

    def test_raw_mode_does_not_converge(self):
        # the raw partial sums oscillate at O(1); that is the point of
        # the averaging
        a = _angles(0.2, -0.3, 0.4)
        raw = triple_legendre_sum(a, n_max=3000, mode="raw")
        assert raw.tail_estimate > 1e-3

    def test_exterior_decays_to_zero(self):
        # outside the support but with every cosine still in [-1, 1]:
        # radicand = 0.36 * 0.51 - 0.56^2 < 0
        a = _angles(0.8, 0.7, 0.0)
        res = triple_legendre_sum(a, n_max=3000, mode="cesaro")
        assert abs(res.value) < 2e-2

    def test_permutation_invariance_bitwise(self):
        vals = set()
        for perm in [(0.3, -0.5, 0.1), (-0.5, 0.3, 0.1), (0.1, 0.3, -0.5)]:
            a = _angles(*perm)
            vals.add(triple_legendre_sum(a, n_max=500, mode="cesaro").value)
        assert len(vals) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            triple_legendre_sum(_angles(0.0, 0.0, 1.5), n_max=100)
        with pytest.raises(ValueError):
            triple_legendre_sum(_angles(0.0, 0.0, 0.0), n_max=0)
        with pytest.raises(ValueError):
            triple_legendre_sum(_angles(0.0, 0.0, 0.0), n_max=100,
                                mode="nonsense")

    @given(ct=st.floats(-0.8, 0.8), ce=st.floats(-0.8, 0.8),
           cg=st.floats(-0.8, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_cesaro_tracks_closed_form(self, ct, ce, cg):
        rad = (1 - ct * ct) * (1 - ce * ce) - (ce * ct - cg) ** 2
        if abs(rad) < 0.05:
            return
        a = _angles(ct, ce, cg)
        res = triple_legendre_sum(a, n_max=2000, mode="cesaro")
        if rad > 0:
            assert abs(res.value - triple_sum_closed_form(a)) < 5e-2
        else:
            assert abs(res.value) < 5e-2


class TestTripleSumBatch:
    # triples that stress the sort and the array sweep: permuted orders,
    # signed zeros (a -0.0/0.0 tie keeps its input order), the endpoints
    # and repeated cosines
    TRIPLES = [(0.3, -0.5, 0.1), (-0.5, 0.3, 0.1), (0.1, 0.3, -0.5),
               (0.0, -0.0, 0.2), (-0.0, 0.0, 0.2), (-0.0, -0.0, -0.0),
               (1.0, -1.0, 0.4), (-1.0, 1.0, -1.0), (1.0, 1.0, 1.0),
               (0.7, 0.7, 0.7), (0.25, -0.6, 0.25), (0.2, -0.3, 0.4)]

    @pytest.mark.parametrize("mode", ["raw", "cesaro", "double_average"])
    def test_equals_single_triples_bitwise(self, mode):
        triples = [_angles(*t) for t in self.TRIPLES]
        got = triple_legendre_sum(triples, n_max=700, mode=mode)
        assert got.n_terms == 701 and type(got.n_terms) is int
        assert got.value.dtype == complex and got.value.shape == (12,)
        assert got.tail_estimate.dtype == float
        singles = [triple_legendre_sum(a, n_max=700, mode=mode)
                   for a in triples]
        assert got.value.tobytes() == np.array(
            [r.value for r in singles]).tobytes()
        assert got.tail_estimate.tobytes() == np.array(
            [r.tail_estimate for r in singles]).tobytes()

    @pytest.mark.parametrize("mode", ["raw", "cesaro", "double_average"])
    def test_batch_of_one(self, mode):
        a = _angles(0.2, -0.3, 0.4)
        one = triple_legendre_sum((a,), n_max=300, mode=mode)
        single = triple_legendre_sum(a, n_max=300, mode=mode)
        assert one.value.shape == (1,)
        assert one.value.tobytes() == np.array([single.value]).tobytes()
        assert one.tail_estimate.tobytes() == \
            np.array([single.tail_estimate]).tobytes()
        assert (type(single.value), type(single.tail_estimate)) == \
            (complex, float)

    @pytest.fixture
    def legendre_calls(self, monkeypatch):
        calls = []

        def counting(n_max, x):
            calls.append((n_max, np.shape(x)))
            return legendre_p_sequence(n_max, x)

        monkeypatch.setattr(wp, "legendre_p_sequence", counting)
        return calls

    def test_one_array_sweep_for_a_batch(self, legendre_calls):
        triples = [_angles(*t) for t in self.TRIPLES]
        triple_legendre_sum(triples, n_max=50)
        assert legendre_calls == [(50, (12, 3))]

    def test_three_scalar_sweeps_for_one_triple(self, legendre_calls):
        triple_legendre_sum(_angles(0.2, -0.3, 0.4), n_max=50)
        assert legendre_calls == [(50, ()), (50, ()), (50, ())]

    @pytest.mark.parametrize("args,match", [
        (([], 10), "no triples"),
        (([_angles(0.1, 0.2, 0.3), _angles(0.0, 0.0, 1.5)], 10),
         r"triple 1\b"),
        (([_angles(0.1, 0.2, 0.3)], 0), "n_max"),
        ((_angles(0.1, 0.2, 0.3), 2.5), "2.5"),
        ((_angles(0.1, 0.2, 0.3), True), "True"),
        (([_angles(0.1, 0.2, 0.3)], 10, "nonsense"), "nonsense"),
    ])
    def test_refused_before_any_legendre_call(self, legendre_calls, args,
                                              match):
        with pytest.raises(ValueError, match=match):
            triple_legendre_sum(*args)
        assert legendre_calls == []

    def test_numpy_int_n_max_accepted(self):
        a = _angles(0.2, -0.3, 0.4)
        got = triple_legendre_sum(a, np.int64(40))
        assert got.value == triple_legendre_sum(a, 40).value
        assert got.n_terms == 41 and type(got.n_terms) is int


class TestWavepacketSeries:
    def test_matches_closed_form_interior(self):
        # X-wave at cos_theta=0.6, rho=2, z=0.5, t=0.6: 2/sqrt(2.47)
        res = wavepacket_series(0.6, FieldPoint(0.5, 2.0, 0.6), n_max=4000)
        assert res.value.imag == 0.0
        assert res.value.real == pytest.approx(1.272569525951555544957,
                                               rel=2e-2)

    def test_exterior_small(self):
        # t=2 keeps |t| <= r = sqrt(4.25) but leaves the support cone
        res = wavepacket_series(0.6, FieldPoint(0.5, 2.0, 2.0), n_max=4000)
        assert abs(res.value) < 2e-2

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            wavepacket_series(0.6, FieldPoint(0.0, 0.0, 0.0), n_max=100)

    def test_outside_light_cone_rejected(self):
        with pytest.raises(ValueError):
            wavepacket_series(0.6, FieldPoint(1.0, 0.0, 3.0), n_max=100)
