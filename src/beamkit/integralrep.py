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

The integrand beats at delta = 1 - |cos eta|, the gap that
``to_spherical`` forms as (rho/r) (rho/(r + |z|)).  Where 2 * delta < 1
the beat 2 pi / delta is more than twice the period, so the engine's
half-period cells do not alternate and its accelerator stalls.  Every
point with delta < 3/4 takes ``oscquad._segment_and_rays`` instead (the
steepest-descent idea of Huybrechs and Vandewalle, SIAM J. Numer. Anal.
44, 2006).  j_0 of the chord is even in u = lambda - m, so the integral
is e^{i m cos eta} (Z + conj(Z)) with Z over the half line u >= 0 alone:
Clenshaw-Curtis panels on [0, a], a = |cos eta| beta / sin eta + pi just
past both real saddles u = +-|cos eta| beta / sin eta, and the two parts
e^{+-iR} / (2iR) of the one tail up and down vertical rays, where they
decay like e^{-(1 +- cos eta) s} and the ray panels widen as the
integrand falls.  This module gives it only a, j_0 of the chord on the
segment and the up part e^{iq - rate s} / (2R) on the rays.  The cost
grows like a, about 1/rho; past a node budget the route reports
converged=False without evaluating.  Points with delta >= 3/4 keep the
engine, where the rays save little, unless mu + pi >= pi * max_cell_pairs:
there the engine would spend every cell pair before its tail starts at
mu + pi, and the rays take the point.

On the axis (|cos eta| = 1) the symmetric limit of the lambda-integral is
exactly half the field: j_n under the integral is the Fourier transform of
a function supported on [-1, 1], and at |beta| = 1 a Fourier inversion
lands on the edge of that support, where the symmetric limit takes the
Dirichlet midpoint value.  So the origin (mu = 0) and every point whose
z/r rounds to +-1 (rho/|z| under about 1.5e-8) are analytic: they return
``eval_direct``, e^{i(n omega cos theta z - omega t)} J_0(n omega sin theta
rho) with its J_0 factor, the continuous extension from cos eta inside
the open interval, with converged=True and n_evals = 0.
"""
from __future__ import annotations

import math

import numpy as np

from .beamcore import (_VACUUM, BeamParams, DispersionModel, FieldPoint,
                       _sin2, eval_direct, to_spherical)
from .oscquad import (QuadratureResult, _segment_and_rays,
                      integrate_oscillatory_infinite)
from .specfun import _as_order, _sph_j0

__all__ = [
    "eval_integral_rep",
]


# the rounding of mu and m, per unit of (|m| + mu) |value|, in the claim
_EPS = float(np.finfo(float).eps)
# nodes the ray quadrature may lay out per cell pair of max_cell_pairs
_RAY_NODES_PER_PAIR = 15360
# points with 1 - |cos eta| below this take the rays, the rest the engine;
# from 3/4 up the rays save little over the engine
_RAY_BAND = 0.75


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


def _rep_integral(mu: float, cos_theta: float, cos_eta: float, delta: float,
                  tol: float, max_cell_pairs: int) -> QuadratureResult:
    """The lambda-integral divided by pi, for mu > 0, |cos_eta| < 1, with
    delta = 1 - |cos_eta| > 0."""

    m = mu * cos_theta
    beta2 = mu * mu * _sin2(cos_theta)
    if delta < _RAY_BAND or mu + np.pi >= np.pi * max_cell_pairs:
        # the beat 2 pi / delta is wider than the period 2 pi: below 1/2
        # the engine's half-period cells would not alternate, and up to 3/4
        # the rays cost less than the engine.  The engine's half-period
        # cells reach its tail, from mu + pi, only after (mu + pi) / pi
        # pairs: past max_cell_pairs a point takes the rays too.  j_0(R)
        # is even in u = lambda - m, so the half line u >= 0 is
        # integrated: both real saddles u = +-cos_eta beta / sin_eta,
        # where d(c*u -+ R)/du = 0, lie inside [-a, a]; past a,
        # j_0(R) = (e^{iR} - e^{-iR}) / (2iR), and its up part is
        # e^{iq - rate s} / (2R) on the ray, with q = R - z =
        # beta^2 / (R + z) free of cancellation
        sin_eta = math.sqrt(delta * (2.0 - delta))
        a = abs(cos_eta) * math.sqrt(beta2) / sin_eta + math.pi

        def ray_part(z, rate_s):
            r = np.sqrt(z * z + beta2)
            fx = np.exp(1j * (beta2 / (r + z)) - rate_s)
            fx /= 2.0 * r
            return fx

        res = _segment_and_rays(
            lambda u: _chord_j0(u, beta2), ray_part, a, m, cos_eta, delta,
            beta2, 1.0, tol * np.pi, max_cell_pairs * _RAY_NODES_PER_PAIR)
    else:
        # the integrand carries phases (1 +- cos_eta)*lambda at large
        # |lambda|; at delta >= 3/4 the slower one, 2 pi / delta, is under
        # twice the period, so half-period cells alternate
        res = integrate_oscillatory_infinite(
            lambda lam: _chord_j0(lam - m, beta2), period_hint=2.0 * np.pi,
            tol=tol * np.pi, max_cell_pairs=max_cell_pairs,
            tail_start=mu + np.pi, carrier=cos_eta)
    # mu and m reach here rounded, so the phase of each node carries a
    # few eps times |m| + mu that no quadrature claim sees
    value = res.value / np.pi
    err = res.error_estimate / np.pi + _EPS * (abs(m) + mu) * abs(value)
    return QuadratureResult(value=value, error_estimate=err,
                            n_evals=res.n_evals,
                            converged=res.converged and err <= tol)


def eval_integral_rep(b: BeamParams, p: FieldPoint, tol: float = 1e-9,
                      max_cell_pairs: int = 640, *,
                      medium: DispersionModel = _VACUUM) -> QuadratureResult:
    """Integral-representation field at one point.

    Negative omega goes through the positive-frequency integral and a
    conjugation (the spatial integrand depends on omega only through
    mu = |omega|*r).  A medium enters only through
    mu = n(omega)*|omega|*r.  Non-convergence is reported through the
    flag, never raised.  The origin and every point whose z/r rounds to
    +-1 return ``eval_direct``'s value.  ``tol`` and ``max_cell_pairs`` are
    checked at every point, these analytic ones included.  Where
    ``1 - |cos eta| < 3/4`` or ``mu + pi >= pi * max_cell_pairs`` (the ray
    quadrature) ``max_cell_pairs`` is a budget of
    ``max_cell_pairs * 15360`` nodes.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive: {tol!r}")
    max_cell_pairs = _as_order(max_cell_pairs, "max_cell_pairs", least=1)
    sph = to_spherical(p)
    mu = medium.evaluate(b.omega) * abs(b.omega) * sph.r
    if not (math.isfinite(mu) and math.isfinite(b.omega * p.t)):
        raise ValueError(f"mu = {mu!r} or omega*t = {b.omega * p.t!r} "
                         "is not finite")
    if mu == 0.0 or abs(sph.cos_eta) == 1.0:
        # the origin, and every point whose z/r rounds to +-1, take the
        # closed form, J_0 included (module docstring)
        return QuadratureResult(value=eval_direct(b, p, medium=medium),
                                error_estimate=0.0, n_evals=0, converged=True)
    res = _rep_integral(mu, b.cos_theta, sph.cos_eta, sph.gap, tol,
                        max_cell_pairs)
    value = res.value
    if b.omega < 0:
        value = value.conjugate()
    tfac = complex(np.exp(-1j * b.omega * p.t))
    return QuadratureResult(value=complex(value * tfac),
                            error_estimate=res.error_estimate,
                            n_evals=res.n_evals, converged=res.converged)
