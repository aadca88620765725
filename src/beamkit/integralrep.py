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

On the axis (|cos eta| = 1) the symmetric limit of the lambda-integral is
exactly half the field: j_n under the integral is the Fourier transform of
a function supported on [-1, 1], and at |beta| = 1 a Fourier inversion
lands on the edge of that support, where the symmetric limit takes the
Dirichlet midpoint value.  The axis is therefore evaluated analytically
(the direct closed form, which is the continuous extension from cos eta
inside the open interval), exactly as the origin already is.
"""
from __future__ import annotations

import math

import numpy as np

from .beamcore import (_VACUUM, BeamParams, DispersionModel, FieldPoint,
                       to_spherical)
from .oscquad import (QuadratureResult, _check_cell_budget,
                      integrate_oscillatory_infinite)
from .specfun import _sph_j0

__all__ = [
    "eval_integral_rep",
]


def _rep_integral(mu: float, cos_theta: float, cos_eta: float, tol: float,
                  max_cell_pairs: int) -> QuadratureResult:
    """The lambda-integral divided by pi, for mu > 0, |cos_eta| < 1."""

    m = mu * cos_theta
    beta2 = mu * mu * ((1.0 - cos_theta) * (1.0 + cos_theta))
    if beta2 > 0.0:
        def integrand(lam):
            # R = sqrt((lam - m)^2 + beta^2) >= beta > 0: sin(R)/R has no
            # zero to mask, and is computed in place
            r = lam - m
            np.square(r, out=r)
            r += beta2
            np.sqrt(r, out=r)
            out = np.sin(r)
            out /= r
            return out
    else:
        def integrand(lam):
            # cos_theta = +-1: R = |lam - m| reaches 0
            return _sph_j0(np.abs(lam - m))

    delta = 1.0 - abs(cos_eta)
    # the integrand carries phases (1 +- cos_eta)*lambda at large |lambda|;
    # near the axis the (1 - |cos_eta|) component beats slowly and sets the
    # cell size.  However slow the beat (delta > 0 off the axis), it is
    # passed on: half-period cells cannot see a beat past the budget and
    # converge to the axis's Dirichlet midpoint, half the field, claiming
    # 1e-11 (omega=1, cos_theta=0, z=1, rho=1e-6 did)
    beat = 2.0 * np.pi / delta
    res = integrate_oscillatory_infinite(
        integrand, period_hint=2.0 * np.pi, tol=tol * np.pi,
        max_cell_pairs=max_cell_pairs,
        tail_start=mu + np.pi, beat_hint=beat, carrier=cos_eta)
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
    point, the analytic origin and axis included.
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
    res = _rep_integral(mu, b.cos_theta, sph.cos_eta, tol, max_cell_pairs)
    value = res.value
    if b.omega < 0:
        value = value.conjugate()
    return QuadratureResult(value=complex(value * tfac),
                            error_estimate=res.error_estimate,
                            n_evals=res.n_evals, converged=res.converged)
