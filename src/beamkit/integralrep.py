"""Integral representation of the Bessel beam.

The same field as the direct and series forms, written as a line integral

    Phi = (1/pi) * Int_{-inf}^{inf} j_0(R(lambda, mu, cos theta)) * exp(i*lambda*cos eta) dlambda * exp(-i*omega*t)

with mu = |omega|*r and R the chord distance sqrt(lambda^2 + mu^2 -
2*lambda*mu*cos theta).  The integrand decays only like 1/|lambda|, so the
integral exists as a symmetric limit and is handled by the accelerated
oscillatory engine.  Off the beam's own axis (|cos theta| < 1) the chord is
R = sqrt((lambda - m)^2 + beta^2) with m = mu*cos theta and beta^2 =
mu^2*(1 - cos theta^2), never below beta > 0, so j_0(R) is sin(R)/R with
no zero to mask.  The engine is handed the real factor j_0(R) and the
carrier frequency cos eta: it folds exp(i*lambda*cos eta) into its cell
weights, so no complex exponential is evaluated per node.

The integrand beats at delta = 1 - |cos eta|, computed as
rho^2 / (r (r + |z|)).  Where 2 * delta < 1 the beat 2 pi / delta is more
than twice the period, so the engine's half-period cells do not alternate
and its accelerator stalls.  Every point with delta < 3/4 takes a ray
quadrature instead (the steepest-descent idea of Huybrechs and
Vandewalle, SIAM J. Numer. Anal. 44, 2006): K15 panels on [-L, L],
L = max(mu, lambda_s) + pi past the real saddle
lambda_s = |m| + |cos eta| beta / sin eta, and the two parts
e^{+-iR} / (2iR) of each tail up and down vertical rays, where they decay
like e^{-(1 +- cos eta) s} and the panels widen as the integrand falls.
Its cost grows like lambda_s, about 1/rho; past a node budget it reports
converged=False without evaluating.  Points with delta >= 3/4 keep the
engine, where the rays save little.

On the axis (|cos eta| = 1) the symmetric limit of the lambda-integral is
exactly half the field: j_n under the integral is the Fourier transform of
a function supported on [-1, 1], and at |beta| = 1 a Fourier inversion
lands on the edge of that support, where the symmetric limit takes the
Dirichlet midpoint value.  The axis is therefore evaluated analytically
(the direct closed form, which is the continuous extension from cos eta
inside the open interval), exactly as the origin already is.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .beamcore import (_VACUUM, BeamParams, DispersionModel, FieldPoint,
                       to_spherical)
from .oscquad import (_EPMACH, _NODES, _OFLOW, _PANEL_WH, _WG7, _WK15,
                      QuadratureResult, _check_cell_budget, _k15_nodes,
                      _ray_edges, integrate_oscillatory_infinite)
from .specfun import _sph_j0

__all__ = [
    "eval_integral_rep",
]


# ray quadrature: nodes per integrand call, and the nodes it may lay out
# per cell pair of max_cell_pairs
_CHUNK_NODES = 32768
_RAY_NODES_PER_PAIR = 15360
# points with 1 - |cos eta| below this take the rays, the rest the engine;
# from 3/4 up the rays save little over the engine
_RAY_BAND = 0.75
# K15 weights and K15 - G7 weights, as the columns of one matrix
_WKD = np.column_stack([_WK15, _WK15])
_WKD[1::2, 1] -= _WG7


def _chord_j0(u, beta2: float):
    """j_0(R) with R = sqrt(u^2 + beta2) and u = lambda - m; overwrites u."""
    if beta2 > 0.0:
        # R >= beta > 0: sin(R)/R has no zero to mask, and is computed in
        # place
        np.square(u, out=u)
        u += beta2
        np.sqrt(u, out=u)
        out = np.sin(u)
        out /= u
        return out
    # cos_theta = +-1: R = |u| reaches 0
    return _sph_j0(np.abs(u))


def _band_integral(mu: float, m: float, beta2: float, c: float,
                   delta: float, tol: float, budget: int) -> QuadratureResult:
    """The lambda-integral, not divided by pi, off the axis.

    Two real saddles, where d(c*lambda -+ R)/dlambda = 0, lie inside
    [-L, L].  That segment is cut into equal K15 panels, so the carrier
    e^{i c lambda} folds into fixed weights and one phase per panel.  Past
    L, j_0(R) = (e^{iR} - e^{-iR}) / (2iR), and each part goes up or down
    a vertical ray, where it decays like e^{-(1 +- c) s}; the panels of all
    four rays, wider the further the integrand has decayed, share one
    integrand call.  The error is the K15 - G7 difference of every panel
    plus a rounding floor.  A layout of more than ``budget`` nodes is
    reported unconverged before any evaluation, with n_evals = 0.
    """
    def unconverged():
        return QuadratureResult(value=0j, error_estimate=_OFLOW, n_evals=0,
                                converged=False)

    sin_eta = math.sqrt(delta * (2.0 - delta))
    big_l = max(mu, abs(m) + abs(c) * math.sqrt(beta2) / sin_eta) + math.pi
    n_seg = big_l * (1.0 + abs(c)) / _PANEL_WH
    if 15.0 * n_seg > budget:
        return unconverged()
    n_seg = math.ceil(n_seg)
    # rays (a, +1 up / -1 down, rate), rate = 1 + sign*c without
    # cancellation; the left tail is the right one under lambda -> -lambda,
    # m -> -m, c -> -c, which leaves c*m alone
    one_minus, one_plus = ((delta, 2.0 - delta) if c > 0
                           else (2.0 - delta, delta))
    rays = ((big_l - m, 1.0, one_plus), (big_l - m, -1.0, one_minus),
            (big_l + m, 1.0, one_minus), (big_l + m, -1.0, one_plus))
    lo, hi, counts = [], [], []
    for a, _, rate in rays:
        edges = _ray_edges(a, beta2, rate)
        lo += edges[:-1]
        hi += edges[1:]
        counts.append(len(edges) - 1)
    n_evals = 15 * (n_seg + len(lo))
    if n_evals > budget:
        return unconverged()

    # e^{i c u} with c = sign*(1 - delta) taken apart: a rounded c would
    # shift the slow phase (c -+ 1)*lambda by about eps*L, alike over the
    # whole segment
    sign_c = math.copysign(1.0, c)

    def carrier(u, exp=cmath.exp):
        return exp((1j * sign_c) * u) * exp((-1j * sign_c * delta) * u)

    # the segment in u = lambda - m, in chunks that all share one layout:
    # a node is the chunk's start plus a fixed offset, rounded once, and
    # its phase is the start's times the offset's
    width = 2.0 * big_l / n_seg
    chunk = _CHUNK_NODES // 15
    step = min(chunk, n_seg)
    half = 0.5 * width
    x0 = half + half * _NODES
    w = half * carrier(x0, np.exp)
    wk = w * _WKD[:, 0]
    wd = w * _WKD[:, 1]
    w_parts = np.array([wk.real, wk.imag, wd.real, wd.imag]).T
    w_abs = half * _WK15
    offsets = width * np.arange(step)
    table = carrier(offsets, np.exp)
    local = offsets[:, None] + x0
    value, err, absum = 0j, 0.0, 0.0
    for i in range(0, n_seg, step):
        n = min(step, n_seg - i)
        u0 = (-big_l - m) + width * i
        fx = _chord_j0((u0 + local[:n]).ravel(), beta2).reshape(n, 15)
        sums = fx @ w_parts
        value += carrier(u0) * complex(
            table[:n] @ (sums[:, 0] + 1j * sums[:, 1]))
        err += float(np.sum(np.hypot(sums[:, 2], sums[:, 3])))
        # a node at lambda carries an argument rounded by eps*|lambda|
        np.abs(fx, out=fx)
        absum += float((1.0 + abs(m) + width + np.abs(u0 + offsets[:n]))
                       @ (fx @ w_abs))

    # every ray panel, with its ray's a, sign, rate, e^{i sign rate a} and
    # rounding weight 1 + rate*a
    per_ray = np.array([(a, sign, rate, cmath.exp(1j * sign * rate * a),
                         1.0 + rate * a) for a, sign, rate in rays])
    per_panel = np.repeat(per_ray, counts, axis=0)
    lo, hi = np.array(lo), np.array(hi)
    for j in range(0, lo.size, chunk):
        a, sign, rate, phase, weight = per_panel[j:j + chunk].T
        h, s = _k15_nodes(lo[j:j + chunk], hi[j:j + chunk])
        # e^{i(c*lambda + sign*R)} / (2R) = e^{i c m} e^{i sign rate a}
        # e^{i sign q - rate s} / (2R) with z = a + i*sign*s, and
        # q = R - z = beta^2 / (R + z) free of cancellation
        z = a[:, None] + (1j * sign)[:, None] * s
        r = np.sqrt(z * z + beta2)
        fx = np.exp((1j * sign)[:, None] * (beta2 / (r + z))
                    - rate.real[:, None] * s)
        fx /= 2.0 * r
        kd = fx @ _WKD
        value += complex((h * phase) @ kd[:, 0])
        err += float(h @ np.abs(kd[:, 1]))
        absum += float((weight.real * h) @ (np.abs(fx) @ _WK15))
    value *= carrier(m)
    err += _EPMACH * absum
    return QuadratureResult(value=value, error_estimate=err, n_evals=n_evals,
                            converged=bool(err <= tol))


def _rep_integral(mu: float, cos_theta: float, cos_eta: float, delta: float,
                  tol: float, max_cell_pairs: int) -> QuadratureResult:
    """The lambda-integral divided by pi, for mu > 0, |cos_eta| < 1, with
    delta = 1 - |cos_eta| > 0."""

    m = mu * cos_theta
    beta2 = mu * mu * ((1.0 - cos_theta) * (1.0 + cos_theta))
    if delta < _RAY_BAND:
        # the beat 2 pi / delta is wider than the period 2 pi: below 1/2
        # the engine's half-period cells would not alternate, and up to 3/4
        # the rays cost less than the engine
        res = _band_integral(mu, m, beta2, cos_eta, delta, tol * np.pi,
                             max_cell_pairs * _RAY_NODES_PER_PAIR)
    else:
        # the integrand carries phases (1 +- cos_eta)*lambda at large
        # |lambda|; at delta >= 3/4 the slower one, 2 pi / delta, is under
        # twice the period, so half-period cells alternate
        res = integrate_oscillatory_infinite(
            lambda lam: _chord_j0(lam - m, beta2), period_hint=2.0 * np.pi,
            tol=tol * np.pi, max_cell_pairs=max_cell_pairs,
            tail_start=mu + np.pi, carrier=cos_eta)
    return QuadratureResult(value=res.value / np.pi,
                            error_estimate=res.error_estimate / np.pi,
                            n_evals=res.n_evals, converged=res.converged)


def eval_integral_rep(b: BeamParams, p: FieldPoint, tol: float = 1e-9,
                      max_cell_pairs: int = 640, *,
                      medium: DispersionModel = _VACUUM) -> QuadratureResult:
    """Integral-representation field at one point.

    Negative omega goes through the positive-frequency integral and a
    conjugation (the spatial integrand depends on omega only through
    mu = |omega|*r).  A medium enters only through
    mu = n(omega)*|omega|*r.  Non-convergence is reported through the
    flag, never raised.  ``tol`` and ``max_cell_pairs`` are checked at every
    point, the analytic origin and axis included.  Where
    ``1 - |cos eta| < 3/4`` (the ray quadrature) ``max_cell_pairs`` is a
    budget of ``max_cell_pairs * 15360`` nodes.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive: {tol!r}")
    _check_cell_budget(max_cell_pairs)
    sph = to_spherical(p)
    mu = medium.evaluate(b.omega) * abs(b.omega) * sph.r
    if not (math.isfinite(mu) and math.isfinite(b.omega * p.t)):
        raise ValueError(f"mu = {mu!r} or omega*t = {b.omega * p.t!r} "
                         "is not finite")
    tfac = complex(np.exp(-1j * b.omega * p.t))
    if mu == 0.0 or abs(sph.cos_eta) == 1.0:
        # origin and axis are analytic.  On the axis the raw symmetric
        # limit of the integral is exactly half the field (Dirichlet
        # midpoint at the support edge of the Fourier pair); the value
        # used is the continuous extension from |cos_eta| < 1, which is
        # the direct plane-phase field.
        phase = np.sign(b.omega) * mu * b.cos_theta * sph.cos_eta
        return QuadratureResult(value=complex(np.exp(1j * phase) * tfac),
                                error_estimate=0.0, n_evals=0, converged=True)
    # 1 - |cos_eta| without cancellation
    delta = (p.rho / sph.r) * (p.rho / (sph.r + abs(p.z)))
    res = _rep_integral(mu, b.cos_theta, sph.cos_eta, delta, tol,
                        max_cell_pairs)
    value = res.value
    if b.omega < 0:
        value = value.conjugate()
    return QuadratureResult(value=complex(value * tfac),
                            error_estimate=res.error_estimate,
                            n_evals=res.n_evals, converged=res.converged)
