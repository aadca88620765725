"""Partial-wave series evaluation of the Bessel beam.

The beam field expands over spherical partial waves as

    Phi = sum_n 2 i^n (n + 1/2) P_n(cos theta) P_n(cos eta) j_n(omega r) * exp(-i omega t)

with (r, cos eta) the spherical view of the field point.  The sum truncates
itself: j_n(x) dies super-exponentially once n passes x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamcore import (_VACUUM, BeamParams, DispersionModel, FieldPoint,
                       to_spherical)
from .specfun import legendre_p_sequence, spherical_jn_sequence

__all__ = [
    "SeriesResult",
    "truncation_order",
    "eval_series",
    "eval_series_dispersive",
]

HARD_CAP = 5000


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value.

    ``tail_estimate`` is the magnitude of the last included term group (two
    consecutive terms, so parity zeros cannot fake convergence); it is an
    empirical indicator, not a bound.  ``converged`` drops to False only
    when the tail never fell under the requested tolerance by the hard cap.
    """

    value: complex
    n_terms: int
    tail_estimate: float
    converged: bool = True


def truncation_order(omega_r: float, tol: float = 1e-10) -> int:
    """Default truncation order for a series with argument omega*r.

    Wiscombe-style base |x| + 4|x|^(1/3) + 10, floored at 10, then pushed
    right until the first omitted order sits below 0.01*tol, so the
    dropped tail is negligible at the requested tolerance.
    """
    x = float(omega_r)
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(
            f"omega_r must be finite and nonnegative: {omega_r!r}")
    # NaN fails this too; so does a tol whose target rounds to 0, which no
    # |j_n| can fall under short of HARD_CAP
    target = 0.01 * tol
    if not target > 0:
        raise ValueError(f"tol must be positive with 0.01*tol > 0: {tol!r}")
    base = max(10, int(np.ceil(x + 4.0 * x ** (1.0 / 3.0) + 10.0)))
    hi = base
    while True:
        hi = min(hi + 60, HARD_CAP)
        vals = spherical_jn_sequence(hi, x).values
        below = np.flatnonzero(np.abs(vals[base:]) < target)
        if below.size:
            return base + int(below[0])
        if hi >= HARD_CAP:
            return HARD_CAP


def _series_sum(mu: float, cos_theta: float, cos_eta: float, tol: float):
    """Sum the partial-wave series with argument mu = |omega|*r > 0.

    Returns (value-without-time-factor, n_terms, tail, converged).
    """
    n = truncation_order(mu, tol)
    while True:
        pt = legendre_p_sequence(n, cos_theta).values
        pe = legendre_p_sequence(n, cos_eta).values
        jn = spherical_jn_sequence(n, mu).values
        orders = np.arange(n + 1)
        terms = 2.0 * (1j ** orders) * (orders + 0.5) * pt * pe * jn
        tail = float(np.abs(terms[-1]) + np.abs(terms[-2]))
        if tail <= tol or n >= HARD_CAP:
            value = complex(np.sum(terms))
            return value, n + 1, tail, tail <= tol
        n = min(HARD_CAP, max(n + 16, int(1.2 * n)))


def eval_series(b: BeamParams, p: FieldPoint, tol: float = 1e-12, *,
                medium: DispersionModel = _VACUUM) -> SeriesResult:
    """Partial-wave series field at one point.

    The origin is analytic (every j_n(0) vanishes except n = 0 and the
    Legendre factors collapse): exp(-i*omega*t) with zero terms reported.
    Negative omega routes through the positive-frequency sum with i^n -> (-i)^n,
    which is just the conjugate of the spatial part.  A medium rescales
    only the spherical-Bessel argument to n(omega)*|omega|*r; Legendre and
    time factors are untouched.
    """
    sph = to_spherical(p)
    mu = medium.evaluate(b.omega) * abs(b.omega) * sph.r
    if not math.isfinite(b.omega * p.t):
        raise ValueError(f"omega*t is not finite: {b.omega * p.t!r}")
    tfac = np.exp(-1j * b.omega * p.t)
    if mu == 0.0:
        return SeriesResult(value=complex(tfac), n_terms=0, tail_estimate=0.0)
    value, n_terms, tail, ok = _series_sum(mu, b.cos_theta, sph.cos_eta, tol)
    if b.omega < 0:
        value = value.conjugate()
    return SeriesResult(value=complex(value * tfac), n_terms=n_terms,
                        tail_estimate=tail, converged=ok)


def eval_series_dispersive(b: BeamParams, m: DispersionModel, p: FieldPoint,
                           tol: float = 1e-12) -> SeriesResult:
    """``eval_series`` in medium ``m``."""
    return eval_series(b, p, tol, medium=m)
