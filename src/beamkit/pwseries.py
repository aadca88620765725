"""Partial-wave series evaluation of the Bessel beam.

The beam field expands over spherical partial waves as

    Phi = sum_n 2 i^n (n + 1/2) P_n(cos theta) P_n(cos eta) j_n(omega r) * exp(-i omega t)

with (r, cos eta) the spherical view of the field point.  The sum truncates
itself: j_n(x) dies super-exponentially once n passes x.
"""
from __future__ import annotations

import functools
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
]

HARD_CAP = 5000
# i^n = _I_POWERS[n % 4], exact at every n (numpy's power of 1j drifts
# from n = 100 on, by up to 7.5e-13 at n = 5000); _COEFFS is 2 i^n (n + 1/2)
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])
_I_POWERS.flags.writeable = False
_ORDERS = np.arange(HARD_CAP + 1)
_COEFFS = 2.0 * _I_POWERS[_ORDERS % 4] * (_ORDERS + 0.5)
_COEFFS.flags.writeable = False
_LOG_HALF_PI = math.log(0.5 * math.pi)


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value.

    ``tail_estimate`` is the magnitude of the last included term group (two
    consecutive terms, so parity zeros cannot fake convergence); it is an
    empirical indicator, not a bound.  ``converged`` drops to False when
    the tail never fell under the requested tolerance before the hard cap,
    and on every sum that reaches it.

    ``wavepacket.triple_legendre_sum`` on a sequence of triples returns one
    result for the whole batch: ``value`` a complex array and
    ``tail_estimate`` a float array, one entry per triple, and ``n_terms``
    the one int every triple shares.
    """

    value: complex
    n_terms: int
    tail_estimate: float
    converged: bool = True


def truncation_order(omega_r: float, tol: float = 1e-10) -> int:
    """Default truncation order for a series with argument omega*r.

    Wiscombe-style base |x| + 4|x|^(1/3) + 10, floored at 10, then pushed
    right until the first order whose bound on |j_n(x)| sits below
    0.01*tol, so the dropped tail is negligible at the requested
    tolerance.  No j_n table is built.

    The bound is the leading term of Debye's expansion past the turning
    point (DLMF 10.19(ii)): with nu = n + 1/2 > x = nu sech(alpha),

        log|j_n(x)| <= log(pi/(2x))/2 + nu (tanh alpha - alpha)
                       - log(2 pi nu tanh alpha)/2.

    Its first correction, u_1(coth alpha)/nu, is negative there, so to
    first order the leading term lies above |j_n|; it was never under it
    on seeded tables (x = 10^U(-3, 3.6), orders x to x + 60).  The proven
    form of DLMF 10.14 drops the last term and cut up to 20 orders later
    (median 0).  At tol 1e-14 to 1e-4 this one cuts where a scan of the
    j_n table would, or one order later.  Every term is taken in logs,
    so nothing overflows at x = 5e-324.

    The bound falls with n, so bracketed Newton steps on n find the order
    that a walk from the base would stop at, in about three evaluations
    on the README grid and two at x = 4000, tol = 1e-300.
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
    base = max(10, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 10.0))
    if x == 0.0 or base >= HARD_CAP:
        return min(base, HARD_CAP)
    log_target = math.log(target)
    # Newton steps on n inside a bracket: the bound is at or above the
    # target at lo (base - 1 stands for the orders before the base) and
    # under it at hi (HARD_CAP stands for the cap).  The bound falls with
    # n, so the bracket closes on the first order under the target
    lo, hi = base - 1, HARD_CAP
    n = base
    while lo + 1 < hi:
        log_bound, slope = _log_jn_bound(n, x)
        excess = log_bound - log_target
        if excess < 0:
            hi = n
        else:
            lo = n
        # the first order past the root of the tangent at n
        n = min(max(n + 1 + math.floor(excess / -slope), lo + 1), hi - 1)
    return hi


def _log_jn_bound(n: int, x: float) -> tuple[float, float]:
    # the leading Debye term of log|j_n(x)| for 0 < x < n + 1/2 (from the
    # base on nu - x >= 10.5, so tanh alpha > 0), and its derivative in n,
    # -alpha - 1/(2 nu tanh^2 alpha).  alpha = acosh(nu/x) is taken in
    # logs: nu/x overflows for tiny x, where tanh alpha rounds to 1 and
    # atanh(tanh alpha) would be infinite
    nu = n + 0.5
    log_x = math.log(x)
    tanh_a = math.sqrt((nu - x) * (nu + x)) / nu
    alpha = math.log(nu) - log_x + math.log1p(tanh_a)
    log_bound = (0.5 * (_LOG_HALF_PI - log_x) + nu * (tanh_a - alpha)
                 - 0.5 * math.log(2.0 * math.pi * nu * tanh_a))
    return log_bound, -alpha - 0.5 / (nu * tanh_a * tanh_a)


@functools.lru_cache(maxsize=128)
def _legendre_row(legendre, n: int, x: float, sign: float) -> np.ndarray:
    # P_0(x) .. P_n(x) through ``legendre``, read-only.  It is keyed on the
    # function, so one rebound on this module (a tracer, a test) is called,
    # not bypassed; ``sign`` keeps -0.0 apart from 0.0, whose rows differ
    # in the signs of their zeros.
    row = legendre(n, x)
    row.flags.writeable = False
    return row


def _series_sum(mu: float, cos_theta: float, cos_eta: float, tol: float):
    """Sum the partial-wave series with argument mu = |omega|*r > 0.

    Returns (value-without-time-factor, n_terms, tail, converged).
    """
    n = truncation_order(mu, tol)
    # P_n(cos theta) is one row per beam: every point of a map reuses it
    sign = math.copysign(1.0, cos_theta)
    while True:
        pt = _legendre_row(legendre_p_sequence, n, cos_theta, sign)
        pe = legendre_p_sequence(n, cos_eta)
        jn = spherical_jn_sequence(n, mu)
        terms = _COEFFS[:n + 1] * pt * pe * jn
        tail = abs(complex(terms[-1])) + abs(complex(terms[-2]))
        if tail <= tol or n >= HARD_CAP:
            # a sum cut at HARD_CAP is flagged whatever its tail: the cap
            # also clips a base past it, where the last terms fall like
            # 1/mu and pass tol without the sum having converged
            value = complex(np.sum(terms))
            return value, n + 1, tail, tail <= tol and n < HARD_CAP
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
