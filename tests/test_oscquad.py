"""Quadrature engines: finite adaptive rule, oscillatory line integrals,
and the regularized Fourier closed form."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamkit.oscquad import (_BATCH_NODES, QuadratureResult, _Epsilon,
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

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
    def test_bad_tol_raises_before_any_call(self, tol):
        # no error sum can fall under a NaN tolerance: refuse it rather
        # than spend the whole budget and report converged=False
        f = _Counting(lambda a: a * a)
        with pytest.raises(ValueError):
            integrate_finite(f, 0.0, 1.0, tol=tol)
        assert f.sizes == []

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

    @pytest.mark.parametrize("c,beat", [(0.4, False), (-0.4, False),
                                        (0.9, True)],
                             ids=["c=0.4", "c=-0.4", "c=0.9_beat"])
    @pytest.mark.parametrize("complex_g", [False, True],
                             ids=["real_g", "complex_g"])
    def test_carrier_matches_explicit_factor(self, c, beat, complex_g):
        # g e^{icx} with the carrier folded into the weights agrees with
        # the same product evaluated node by node; both sit on the Fourier
        # pair Int j_n(x) e^{icx} dx = pi i^n P_n(c) for |c| < 1
        def g(lam):
            lam = np.asarray(lam, dtype=float)
            j0 = spherical_jn(0, np.abs(lam))
            return j0 + 0.5j * spherical_jn(2, np.abs(lam)) if complex_g else j0

        tol = 1e-9
        kw = dict(period_hint=2 * np.pi, tol=tol,
                  beat_hint=2 * np.pi / (1 - abs(c)) if beat else None)
        folded = integrate_oscillatory_infinite(g, carrier=c, **kw)
        explicit = integrate_oscillatory_infinite(
            lambda lam: g(lam) * np.exp(1j * c * lam), **kw)
        assert folded.converged and explicit.converged
        assert abs(folded.value - explicit.value) <= tol
        p2 = 0.5 * (3.0 * c * c - 1.0)
        exact = np.pi * (1.0 - 0.5j * p2) if complex_g else np.pi
        assert abs(folded.value - exact) <= tol

    @pytest.mark.parametrize("beat_hint,cells_per_side",
                             # half the beat over pi: 10.000000000000002
                             # rounds up to 11; about 10000 is capped at 512
                             [(None, 1), (2 * np.pi / (1 - 0.9), 11),
                              (2 * np.pi / (1 - 0.9999), 512)],
                             ids=["half_period", "beat", "narrow_beat"])
    def test_one_call_per_batch_of_cell_pairs(self, beat_hint, cells_per_side):
        f = _Counting(lambda lam: spherical_jn(0, np.abs(lam)))
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=1e-9, beat_hint=beat_hint,
                                           max_cell_pairs=40)
        half = cells_per_side * np.pi
        n = 30 * cells_per_side  # 15 nodes x sub-panels of a quarter period
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
        # one call of 6 pairs although the batch would hold 34
        f = _Counting(lambda lam: np.cos(lam) + 0.5)
        r = integrate_oscillatory_infinite(f, period_hint=2 * np.pi,
                                           tol=1e-12, max_cell_pairs=6)
        n = 30
        assert r.n_evals <= 6 * 2 * n
        assert r.n_evals == sum(f.sizes)
        assert len(f.sizes) == 1
        assert max(np.abs(x).max() for x in f.calls) <= 6 * np.pi

    @pytest.mark.parametrize("kw", [
        {"period_hint": math.nan}, {"period_hint": math.inf},
        {"period_hint": -math.inf}, {"period_hint": -1.0},
        {"beat_hint": math.nan}, {"beat_hint": math.inf},
        {"beat_hint": 0.0}, {"beat_hint": -1.0},
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
        assert r.n_evals == 6 * 60

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
            regularized_j0_fourier(0.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            regularized_j0_fourier(1.0, 0.5, 0.0)

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
