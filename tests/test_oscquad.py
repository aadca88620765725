"""Quadrature engines: nested Clenshaw-Curtis rules, oscillatory line
integrals, and the regularized Fourier closed form."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit.oscquad import (_BATCH_NODES, _PANEL_BAND, QuadratureResult,
                             _Epsilon, _cc_rule, _segment_and_rays,
                             integrate_finite, integrate_oscillatory_infinite,
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
        # once N >= deg both rules of a claim, N and 2N, are exact
        for deg, exact in ((8, 2.0 / 9.0), (12, 2.0 / 13.0)):
            r = integrate_finite(lambda a, d=deg: np.asarray(a) ** d,
                                 -1, 1, tol=1e-10)
            assert r.value.real == pytest.approx(exact, abs=1e-13)

    def test_oscillatory_subdivides(self):
        r = integrate_finite(lambda a: np.cos(40.0 * np.asarray(a)), 0, 1,
                             tol=1e-12)
        assert r.value.real == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)
        assert r.n_evals > 17

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

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
    def test_bad_tol_raises_before_any_call(self, tol):
        # no error sum can fall under a NaN tolerance: refuse it rather
        # than spend the whole budget and report converged=False
        f = _Counting(lambda a: a * a)
        with pytest.raises(ValueError):
            integrate_finite(f, 0.0, 1.0, tol=tol)
        assert f.sizes == []

    def test_one_call_per_rule(self):
        f = _Counting(lambda a: np.cos(40.0 * a))
        r = integrate_finite(f, 0, 1, tol=1e-12)
        # the rules of sizes 16, 32, 64, ...: all 17 nodes of the first,
        # then the N nodes each rule of size 2N adds to the one before,
        # so every node of the last rule is evaluated once
        assert len(f.sizes) > 1
        assert f.sizes == [17] + [16 * 2 ** k for k in range(len(f.sizes) - 1)]
        assert r.n_evals == sum(f.sizes) == 16 * 2 ** (len(f.sizes) - 1) + 1
        last = _cc_rule(8 * 2 ** (len(f.sizes) - 1))[0]
        nodes = np.clip(0.5 + 0.5 * last, 0.0, 1.0)
        assert np.array_equal(np.sort(np.concatenate(f.calls)), nodes)

    def test_empty_interval_makes_no_call(self):
        f = _Counting(np.exp)
        r = integrate_finite(f, 0.5, 0.5)
        assert r.value == 0 and r.n_evals == 0 and r.converged
        assert f.sizes == []

    def test_rounding_floor_past_tol_stops_at_once(self):
        # the first rule's rounding floor, 64 eps sum(w |f|) (about
        # 1.2e-12), is already past tol: no larger rule could meet it
        f = _Counting(lambda a: 50.0 * np.exp(a))
        r = integrate_finite(f, 0.0, 1.0, tol=1e-13)
        assert r.converged is False
        assert r.n_evals == 17 and f.sizes == [17]
        assert r.error_estimate > 1e-13
        assert abs(r.value - 50.0 * (math.e - 1.0)) <= r.error_estimate

    def test_rounding_resolution_stops_at_once(self):
        # two adjacent doubles: the floor of the first rule is past any
        # tol a larger one could meet, so no call follows the first
        f = _Counting(np.exp)
        r = integrate_finite(f, 1.0, math.nextafter(1.0, 2.0), tol=1e-300)
        assert not r.converged
        assert r.n_evals == 17
        assert f.sizes == [17]
        # mid + half * t rounds to 1 - eps/2 for some t < 0: clipped
        assert np.all((f.calls[0] >= 1.0)
                      & (f.calls[0] <= math.nextafter(1.0, 2.0)))

    def test_jump_flagged_at_the_largest_rule(self):
        # a jump is not resolved by any polynomial rule: the call runs
        # through every size up to 2N = 2^15 and comes back flagged, with
        # a claim that still covers its error
        f = _Counting(np.sign)
        r = integrate_finite(f, -1.0, 1.3, tol=1e-10)
        assert r.converged is False
        assert f.sizes[-1] == 2 ** 14
        assert r.n_evals == sum(f.sizes) == 2 ** 15 + 1
        assert abs(r.value - 0.3) <= r.error_estimate

    def test_fast_oscillation_converges(self):
        # cos(1e4 x): the rule of size 2N = 2^13 resolves it, where the
        # bisection was refused after 60,015 evaluations
        r = integrate_finite(lambda a: np.cos(1e4 * a), 0.0, 1.0, tol=1e-10)
        assert r.converged and r.n_evals == 2 ** 13 + 1
        assert abs(r.value - math.sin(1e4) / 1e4) <= r.error_estimate


def _jn_even(n):
    return lambda lam: spherical_jn(n, np.abs(lam))


class TestOscillatoryInfinite:
    def test_sinc_integral(self):
        # whole-line integral of sin(x)/x
        r = integrate_oscillatory_infinite(_jn_even(0), period_hint=2 * np.pi,
                                           tol=1e-9)
        assert r.value.real == pytest.approx(np.pi, abs=1e-9)
        assert r.converged

    def test_non_alternating_tail_flagged(self):
        # j_1^2 decays like (1 - cos(2x))/(2x^2): its 1/x^2 part gives every
        # cell one sign, which epsilon cannot remove, so the engine flags
        # it, and its error claim still covers the miss (the norm itself is
        # TestJnNorm's, with that part in closed form)
        f0 = _jn_even(1)
        r = integrate_oscillatory_infinite(
            lambda lam: f0(lam) ** 2, period_hint=2 * np.pi,
            tol=1e-8, tail_start=6.0)
        assert r.converged is False
        assert abs(r.value - np.pi / 3.0) <= r.error_estimate

    def test_modulated_sinc(self):
        # stationary-phase-free case: j_0(lam) e^{i b lam}, |b|<1,
        # whole-line value pi (flat inside the band)
        def f(lam):
            lam = np.asarray(lam, dtype=float)
            return _jn_even(0)(lam) * np.exp(0.4j * lam)
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi, tol=1e-9)
        assert r.value == pytest.approx(np.pi, abs=1e-8)

    def test_slow_beat_flagged(self):
        # j_0(|x|) e^{0.9ix} beats over 2 pi / 0.1, ten periods: the
        # half-period cells inside one beat share a sign, which epsilon
        # cannot remove, so the engine flags it and its claim covers the
        # miss (the integral is pi; the Fourier-pair check takes such
        # integrals up vertical rays instead)
        r = integrate_oscillatory_infinite(_jn_even(0), period_hint=2 * np.pi,
                                           carrier=0.9)
        assert r.converged is False
        assert abs(r.value - np.pi) <= r.error_estimate

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

    def test_nan_tol_raises(self):
        f = _Counting(_jn_even(0))
        with pytest.raises(ValueError):
            integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=math.nan)
        assert f.sizes == []

    @pytest.mark.parametrize("carrier", [math.nan, math.inf, -math.inf])
    def test_nonfinite_carrier_raises(self, carrier):
        f = _Counting(_jn_even(0))
        with pytest.raises(ValueError):
            integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           carrier=carrier)
        assert f.sizes == []

    @pytest.mark.parametrize("c", [0.4, -0.4], ids=["c=0.4", "c=-0.4"])
    @pytest.mark.parametrize("complex_g", [False, True],
                             ids=["real_g", "complex_g"])
    def test_carrier_matches_explicit_factor(self, c, complex_g):
        # g e^{icx} with the carrier folded into the weights agrees with
        # the same product evaluated node by node; both sit on the Fourier
        # pair Int j_n(x) e^{icx} dx = pi i^n P_n(c) for |c| < 1
        def g(lam):
            lam = np.asarray(lam, dtype=float)
            j0 = spherical_jn(0, np.abs(lam))
            return j0 + 0.5j * spherical_jn(2, np.abs(lam)) if complex_g else j0

        tol = 1e-9
        kw = dict(period_hint=2 * np.pi, tol=tol)
        folded = integrate_oscillatory_infinite(g, carrier=c, **kw)
        explicit = integrate_oscillatory_infinite(
            lambda lam: g(lam) * np.exp(1j * c * lam), **kw)
        assert folded.converged and explicit.converged
        assert abs(folded.value - explicit.value) <= tol
        p2 = 0.5 * (3.0 * c * c - 1.0)
        exact = np.pi * (1.0 - 0.5j * p2) if complex_g else np.pi
        assert abs(folded.value - exact) <= tol

    @pytest.mark.parametrize("carrier", [5.0, 10.0, 20.0, 40.0])
    def test_fast_carrier_right_or_flagged(self, carrier):
        # Int j_0(|x|) e^{icx} dx is 0 for |c| > 1.  Sub-panels sized for
        # the base frequency alone came back converged=True 4.9e-5 off at
        # c = 20 and 1.8 off at c = 40; sized by 2 + |c| they resolve it
        tol = 1e-9
        r = integrate_oscillatory_infinite(_jn_even(0),
                                           period_hint=2 * np.pi, tol=tol,
                                           carrier=carrier)
        assert abs(r.value) <= tol or r.converged is False

    @pytest.mark.parametrize("kw", [{"carrier": 1e9}, {"carrier": -1e300}],
                             ids=["fast", "huge"])
    def test_carrier_past_cell_node_cap_raises(self, kw):
        # the sub-panels follow the carrier; a layout past the node cap is
        # refused before any call rather than allocated
        f = _Counting(_jn_even(0))
        with pytest.raises(ValueError, match="too fast"):
            integrate_oscillatory_infinite(f, period_hint=2 * np.pi, **kw)
        assert f.sizes == []

    @pytest.mark.parametrize("carrier,panels", [(0.0, 1), (1.0, 1),
                                                (-2.0, 2), (40.0, 14)])
    def test_sub_panels_follow_highest_frequency(self, carrier, panels):
        # half-period cells of pi: ceil(pi * (2 + |c|) / (3*pi)) sub-panels,
        # and c = 1 lands exactly on one
        f = _Counting(_jn_even(0))
        integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                       carrier=carrier, max_cell_pairs=1)
        assert f.sizes == [2 * 15 * panels]

    @pytest.mark.parametrize("carrier,panels",
                             # sub-panels: ceil(pi * w_max / (3*pi)) at
                             # w_max = 2 + |carrier|; 101 of them put 1515
                             # nodes a side, one pair past _BATCH_NODES
                             [(0.0, 1), (300.0, 101)],
                             ids=["half_period", "carrier=300"])
    def test_one_call_per_batch_of_cell_pairs(self, carrier, panels):
        f = _Counting(lambda lam: spherical_jn(0, np.abs(lam)))
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=1e-9, carrier=carrier,
                                           max_cell_pairs=40)
        half = np.pi
        n = 15 * panels  # 15 nodes x sub-panels
        assert r.n_evals == sum(f.sizes)
        assert max(f.sizes) <= max(2 * n, _BATCH_NODES)
        if 2 * n > _BATCH_NODES:
            assert f.sizes == [2 * n] * len(f.sizes)
        rights = []
        for x in f.calls:
            # whole cell pairs: the right sides, then their mirror images
            assert x.size % (2 * n) == 0
            right, left = np.split(x, 2)
            assert np.array_equal(left, -right)
            rights.append(right)
        # the calls tile consecutive cells from the origin, cell k on
        # [k*half, (k+1)*half]
        cells = np.concatenate(rights).reshape(-1, n)
        k = np.arange(len(cells))[:, None]
        assert np.all(cells >= k * half) and np.all(cells <= (k + 1) * half)

    def test_batch_stays_inside_budget(self):
        # one call of 6 pairs although the batch would hold 68
        f = _Counting(lambda lam: np.cos(lam) + 0.5)
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=1e-12, max_cell_pairs=6)
        n = 15
        assert r.n_evals <= 6 * 2 * n
        assert r.n_evals == sum(f.sizes)
        assert len(f.sizes) == 1
        assert max(np.abs(x).max() for x in f.calls) <= 6 * np.pi

    @pytest.mark.parametrize("kw", [
        {"period_hint": math.nan}, {"period_hint": math.inf},
        {"period_hint": -math.inf}, {"period_hint": -1.0},
        {"tail_start": math.nan}, {"tail_start": math.inf},
        {"tail_start": -math.inf},
        {"max_cell_pairs": 2.5}, {"max_cell_pairs": 640.0},
        {"max_cell_pairs": 0}, {"max_cell_pairs": -3},
        {"max_cell_pairs": True},
    ], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
    def test_degenerate_hints_raise_before_any_call(self, kw):
        f = _Counting(_jn_even(0))
        kw = {"period_hint": 2 * np.pi, **kw}
        with pytest.raises(ValueError):
            integrate_oscillatory_infinite(f, **kw)
        assert f.sizes == []

    def test_numpy_int_budget_accepted(self):
        r = integrate_oscillatory_infinite(_jn_even(0), period_hint=2 * np.pi,
                                           max_cell_pairs=np.int64(6))
        assert r.n_evals == 6 * 30

    def test_stall_reports_nonconverged(self):
        # a constant-envelope cosine has no decaying tail to accelerate at
        # this tolerance with a tiny budget
        r = integrate_oscillatory_infinite(
            lambda lam: np.cos(np.asarray(lam)) + 0.5,
            period_hint=2 * np.pi, tol=1e-12, max_cell_pairs=6)
        assert not r.converged


# (result, abserr) of each _Epsilon.append, recorded from the QUADPACK dqelg
# port as it stood before its lean rewrite; a rewrite must keep every bit
_EPS_ALT = [
    ((1+0j), 1.7976931348623157e+308),
    ((0.5+0j), 1.7976931348623157e+308),
    ((0.7+0j), 1.7976931348623157e+308),
    ((0.6904761904761905+0j), 1.7976931348623157e+308),
    ((0.6933333333333334+0j), 1.7976931348623157e+308),
    ((0.693089430894309+0j), 0.00976771196283388),
    ((0.6931524547803618+0j), 0.002920166743195729),
    ((0.6931457431457432+0j), 0.00025061407364301846),
    ((0.6931473323543809+0j), 6.461309469052434e-05),
    ((0.6931471424877166+0j), 6.901501282907674e-06),
    ((0.6931471849621316+0j), 1.6316830526719173e-06),
    ((0.6931471795177767+0j), 1.953110191355023e-07),
    ((0.6931471806881643+0j), 4.364480254981373e-08),
    ((0.6931471805308537+0j), 5.601665464816108e-09),
    ((0.6931471805636898+0j), 1.2032237428627468e-09),
    ((0.693147180559123+0j), 1.618774003731005e-10),
    ((0.693147180560055+0j), 3.376809942778891e-11),
    ((0.6931471805599219+0j), 4.699907130145675e-12),
    ((0.6931471805599486+0j), 9.586775817638227e-13),
    ((0.6931471805599447+0j), 1.3700152123874432e-13),
]
_EPS_MONO = [
    ((1+0.5j), 1.7976931348623157e+308),
    ((1.25+0.625j), 1.7976931348623157e+308),
    ((1.4500000000000002+0.7250000000000001j), 1.7976931348623157e+308),
    ((1.503968253968254+0.751984126984127j), 1.7976931348623157e+308),
    ((1.551617440225036+0.775808720112518j), 1.7976931348623157e+308),
    ((1.5717673885474537+0.7858836942737268j), 0.2344701430807582),
    ((1.5903054136156471+0.7951527068078236j), 0.16050849029500414),
    ((1.5999841551510288+0.7999920775755144j), 0.09644409733173863),
    ((1.6090869062816164+0.8045434531408082j), 0.07290002158568751),
    ((1.6144742952363298+0.8072371476181649j), 0.049245384201095),
    ((1.6196099135310635+0.8098049567655318j), 0.03944914049937346),
    ((1.6229152921323777+0.8114576460661889j), 0.028593452441369065),
    ((1.6260947324799309+0.8130473662399654j), 0.023797014171971345),
    ((1.6282682529529435+0.8141341264764718j), 0.01809517966170595),
    ((1.6303723758229653+0.8151861879114827j), 0.015472304557482115),
    ((1.6318777939028797+0.8159388969514398j), 0.012184357276321143),
    ((1.6333421631512282+0.8166710815756141j), 0.010630341821637218),
    ((1.634427435338654+0.817213717669327j), 0.008597651341851711),
    ((1.6354897259584877+0.8177448629792439j), 0.007626988033620653),
    ((1.6362878803039882+0.8181439401519941j), 0.0062658162900093815),
]
_EPS_LONG = [
    ((1+0j), 1.7976931348623157e+308),
    ((1.3535533905932737+0j), 1.7976931348623157e+308),
    ((1.7758996825644753+0j), 1.7976931348623157e+308),
    ((1.9026562485044092+0j), 1.7976931348623157e+308),
    ((2.045614205438802+0j), 1.7976931348623157e+308),
    ((2.1113539573650413+0j), 0.6098917355874374),
    ((2.1834173843001676+0j), 0.4906277415922504),
    ((2.2237472718158884+0j), 0.3308562683436542),
    ((2.267202412726106+0j), 0.2830886246972204),
    ((2.294494880488936+0j), 0.20911757262464548),
    ((2.3235628640322523+0j), 0.18524402706582688),
    ((2.343269396273494+0j), 0.14454803157318752),
    ((2.364082501030223+0j), 0.1309203622959867),
    ((2.3789837906368345+0j), 0.1060366105745345),
    ((2.3946219758252467+0j), 0.09753023953518891),
    ((2.406286313308231+0j), 0.08117067243238907),
    ((2.418466594158469+0j), 0.07550770270509499),
    ((2.4278468032580176+0j), 0.06416552648210594),
    ((2.43760150529503+0j), 0.06020480516037274),
    ((2.4452703665018642+0j), 0.051896196794075866),
    ((2.4537999385898464+0j), 0.05068114071462704),
    ((2.457405227592589+0j), 0.035543872391025744),
    ((2.461765820816503+0j), 0.028821929765209475),
    ((2.463574748644181+0j), 0.017753258933604243),
    ((2.4708426667686063+0j), 0.029782203252546324),
    ((2.4691580253252168+0j), 0.014660122633139316),
    ((2.4697413930946714+0j), 0.007851285893880178),
    ((2.473684137296472+0j), 0.011310326700921358),
    ((2.4727165990249835+0j), 0.007501317901567273),
    ((2.4814714730321654+0j), 0.028272289680369322),
    ((2.48199145702131+0j), 0.018102161710308984),
    ((2.47964017631177+0j), 0.011106154716721939),
    ((2.479498885408988+0j), 0.004606450138281648),
    ((2.483229868602656+0j), 0.008559087065900695),
    ((2.4918195336067375+0j), 0.03308967049679845),
    ((2.4934870907086184+0j), 0.025912984507473702),
    ((2.491039991891572+0j), 0.011036763821127504),
    ((2.494554578760861+0j), 0.0073171200756547705),
    ((2.494359725691098+0j), 0.00438722185176843),
    ((2.4953503162087567+0j), 0.0060966522827388125),
    ((2.4989055487022247+0j), 0.012452025445958359),
    ((2.4937377708476043+0j), 0.0074022780592666315),
    ((2.4920749068603514+0j), 0.011768915177531536),
    ((2.5080468685264203+0j), 0.039422379169080646),
    ((2.5038959821162776+0j), 0.02613017293474229),
    ((2.5043110045290984+0j), 0.01638698407888972),
    ((2.5044794818999407+0j), 0.004319363780985075),
    ((2.506407662142348+0j), 0.006536517881726933),
    ((2.5071526600091665+0j), 0.006259831456112419),
    ((2.5069916185219596+0j), 0.0032571344888374654),
    ((2.5071267423822454+0j), 0.0008801217271043882),
    ((2.507863029839966+0j), 0.002318068606526502),
]


def _partial_sums(terms):
    total, sums = 0j, []
    for t in terms:
        total += t
        sums.append(total)
    return sums


def _j0_ray(z, rate_s):
    # half of h_0^(1)(z) = -i e^{iz} / z, times i from dz = i ds, with
    # e^{iz} e^{icz} taken as e^{-rate s}: its phase stays outside
    return np.exp(-rate_s) / (2.0 * z)


def _j1_ray(z, rate_s):
    # the same for h_1^(1)(z) = -e^{iz} (z + i) / z^2
    return -0.5j * np.exp(-rate_s) * (z + 1j) / (z * z)


class TestSegmentAndRays:
    # Int j_n(lambda - m) e^{i c lambda} dlambda = e^{i c m} pi i^n P_n(c)
    # for |c| < 1: j_0 is even and j_1 odd in u = lambda - m
    @pytest.mark.parametrize("m", [0.0, 2.3, -1.7])
    @pytest.mark.parametrize("c", [0.4, -0.7, 0.95])
    @pytest.mark.parametrize("n,parity,ray_f", [(0, 1.0, _j0_ray),
                                                (1, -1.0, _j1_ray)],
                             ids=["even", "odd"])
    def test_half_line_lands_on_closed_form(self, n, parity, ray_f, c, m):
        # only u >= 0 is evaluated; the other half is the mirror image of
        # this one times the parity
        args = []

        def f(u):
            args.append(u.copy())
            return spherical_jn(n, u)

        res = _segment_and_rays(f, ray_f, 2.0 * math.pi, m, c, 1.0 - abs(c),
                                0.0, parity, 1e-12, 1 << 20)
        exact = cmath.exp(1j * c * m) * math.pi * 1j ** n * c ** n
        assert res.converged is True
        assert abs(res.value - exact) <= res.error_estimate
        assert min(u.min() for u in args) >= 0.0
        assert max(u.max() for u in args) <= 2.0 * math.pi

    @pytest.mark.parametrize("a,c,beta2", [
        (12.0, 0.6, 64.0), (4472.0, 0.001, 4e4), (3000.0, -0.95, 1e6),
        (20000.0, 0.5, 9.0)])
    def test_panel_claims_bound_twice_the_size(self, a, c, beta2):
        # [0, a] is cut into the fewest equal panels of bandwidth
        # (1 + |c|) width / 2 up to _PANEL_BAND, each on the nodes of the
        # Clenshaw-Curtis rule of size 2n, n a multiple of 8 past 1.1 times
        # that bandwidth plus 16.  A panel's claim, its distance to the rule
        # of size n, bounds its distance to the rule of size 4n, up to the
        # rounding floor that the segment adds for it
        calls = []

        def f(u):
            calls.append(u.copy())
            r = np.sqrt(u * u + beta2)
            return np.sin(r) / r

        res = _segment_and_rays(f, lambda z, rate_s: np.zeros_like(z), a,
                                0.0, c, 1.0 - abs(c), beta2, 1.0, 1.0,
                                1 << 24)
        u = np.concatenate(calls)
        panels = math.ceil(0.5 * (1.0 + abs(c)) * a / _PANEL_BAND)
        width = a / panels
        n = (u.size // panels - 1) // 2
        assert n % 8 == 0 and n >= 1.1 * 0.5 * (1.0 + abs(c)) * width + 16
        u = u.reshape(panels, 2 * n + 1)
        starts = width * np.arange(panels)[:, None]

        def rule(size):
            nodes, weights, _ = _cc_rule(size)
            x = starts + 0.5 * width * (1.0 + nodes)
            return x, f(x) * np.exp(1j * c * x), 0.5 * width * weights

        x, fx, w = rule(n)
        assert np.allclose(u, x, rtol=0.0, atol=4e-16 * a)
        value = fx @ w
        claim = np.abs(fx[:, ::2] @ (0.5 * width * _cc_rule(n)[2]) - value)
        floor = 2.2e-16 * (1.0 + starts[:, 0] + width) * (np.abs(fx) @ w)
        x, fx, w = rule(2 * n)
        assert np.all(np.abs(value - fx @ w) <= claim + floor)
        assert res.converged is True
        assert res.error_estimate >= 2.0 * claim.sum()


class TestTinyIntegrand:
    def test_cells_below_1e_162_scale_through(self):
        # two cells' magnitudes multiplied underflowed to 0 below about
        # 1e-162 and raised ZeroDivisionError; scaled by 1e-170 the
        # integrand now takes the same cells to the same value
        def f(x):
            return np.cos(x) / (1.0 + x * x)

        ref = integrate_oscillatory_infinite(f, 2.0 * np.pi)
        tiny = integrate_oscillatory_infinite(lambda x: 1e-170 * f(x),
                                              2.0 * np.pi)
        assert tiny.converged
        assert tiny.n_evals == ref.n_evals
        assert tiny.value.real == pytest.approx(1e-170 * ref.value.real,
                                                rel=1e-12)


class TestEpsilon:
    @pytest.mark.parametrize("terms,expected", [
        ([(-1) ** k / (k + 1) for k in range(20)], _EPS_ALT),
        ([(1 + 0.5j) / (k + 1) ** 2 for k in range(20)], _EPS_MONO),
        ([1 / (k + 1) ** 1.5 for k in range(52)], _EPS_LONG),
    ], ids=["alternating", "monotone", "long"])
    def test_append_pinned_bit_for_bit(self, terms, expected):
        eps = _Epsilon()
        got = [eps.append(s) for s in _partial_sums(terms)]
        assert got == expected

    def test_long_sequence_reaches_table_limit(self):
        # 52 appends without an early truncation fill the table to
        # _LIMEXP = 50, which cuts it back to 49 entries on each later step
        eps = _Epsilon()
        depth = []
        for s in _partial_sums([1 / (k + 1) ** 1.5 for k in range(52)]):
            eps.append(s)
            depth.append(eps.n)
        assert depth == list(range(1, 50)) + [49, 49, 49]


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
            regularized_j0_fourier(-1e-300, 0.5, 1e-3)
        with pytest.raises(ValueError):
            regularized_j0_fourier(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("b,eps", [(0.5, 1e-3), (-2.0, 0.3), (0.0, 0.1)])
    def test_zero_a(self, b, eps):
        # J_0(0) = 1, so the damped integral is 2 eps/(eps^2 + b^2)
        assert regularized_j0_fourier(0.0, b, eps) == pytest.approx(
            2.0 * eps / (eps * eps + b * b), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,b,eps", [
        (math.nan, 0.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.0, math.nan),
        (math.inf, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, -math.inf, 1.0),
        (1.0, 0.0, math.inf)])
    def test_non_finite_refused(self, a, b, eps):
        # NaN used to come back as nan with a RuntimeWarning, a = inf as 0.0
        with pytest.raises(ValueError, match="finite"):
            regularized_j0_fourier(a, b, eps)


class TestQuadratureResult:
    def test_fields(self):
        r = QuadratureResult(value=1 + 2j, error_estimate=1e-9, n_evals=30,
                             converged=True)
        assert r.value == 1 + 2j
        assert r.error_estimate == 1e-9
        assert r.n_evals == 30
        assert r.converged
