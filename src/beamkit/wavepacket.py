"""Constant-spectrum wavepacket: X-wave closed form and triple-Legendre series.

Superposing the beam over all frequencies with unit spectral weight gives
the zeroth-order X-wave.  Its closed form is sharply supported:

    Psi(rho, z, t) = 2 / sqrt(sin^2(theta)*rho^2 - (t - cos(theta)*z)^2)

inside |t - cos(theta)*z| < sin(theta)*rho and identically zero outside.
The same object expands over Legendre polynomials of three cosines
(theta: cone angle, eta: polar angle of the point, gamma via t/r), whose
partial sums only converge in the Cesaro sense.

A note on normalization: the Cesaro limit of sum (2n+1) P_n(a) P_n(b) P_n(c)
inside the support is

    (2/pi) / sqrt(sin^2(eta) sin^2(theta) - (cos eta cos theta - cos gamma)^2)

The 2/pi prefactor is fixed by the n=0 moment: integrating the sum against
dcos(gamma) over [-1, 1] must give 2 (only the n=0 term survives), and the
integral of 1/sqrt(support radicand) over the support interval in cos(gamma)
is exactly pi.  Numerics agree: at all cosines 0 the averaged partial sums
settle to 0.6366 = 2/pi.  With the (pi/r) bookkeeping factor between the
triple sum and the wavepacket series, this reproduces the X-wave closed
form exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamcore import FieldPoint, to_spherical
from .pwseries import SeriesResult
from .specfun import legendre_p_sequence

__all__ = [
    "ConeAngles",
    "support_predicate",
    "xwave_closed_form",
    "triple_legendre_sum",
    "triple_sum_closed_form",
    "wavepacket_series",
]

# Radicands this close to zero sit on the singular support boundary, where
# no finite value is correct.
BOUNDARY_GUARD = 1e-14


@dataclass(frozen=True)
class ConeAngles:
    """Three direction cosines; gamma may lie outside [-1, 1], even at
    +-inf, but not be NaN."""

    cos_theta: float
    cos_eta: float
    cos_gamma: float

    def __post_init__(self):
        if not abs(self.cos_theta) <= 1:
            raise ValueError(f"cos_theta outside [-1, 1]: {self.cos_theta!r}")
        if not abs(self.cos_eta) <= 1:
            raise ValueError(f"cos_eta outside [-1, 1]: {self.cos_eta!r}")
        if math.isnan(self.cos_gamma):
            raise ValueError("cos_gamma is NaN")

    @property
    def sin_theta(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.cos_theta ** 2)))

    @property
    def sin_eta(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.cos_eta ** 2)))


def _support_radicand(a: ConeAngles) -> float:
    d = a.cos_eta * a.cos_theta - a.cos_gamma
    return float(a.sin_eta ** 2 * a.sin_theta ** 2 - d * d)


def support_predicate(a: ConeAngles) -> bool:
    """True iff sin(eta)*sin(theta) > |cos(eta)*cos(theta) - cos(gamma)| strictly."""
    return a.sin_eta * a.sin_theta > abs(a.cos_eta * a.cos_theta - a.cos_gamma)


def xwave_closed_form(cos_theta: float, p: FieldPoint) -> float:
    """X-wave field at a point: 2/sqrt(sin^2(theta)rho^2 - (t - cos(theta)z)^2)
    inside the support cone, 0 outside.

    The exact boundary is singular and refused.
    """
    if not abs(cos_theta) <= 1:
        raise ValueError(f"cos_theta outside [-1, 1]: {cos_theta!r}")
    st = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    a = st * p.rho
    b = p.t - cos_theta * p.z
    rad = a * a - b * b
    if not math.isfinite(rad):
        raise ValueError(f"support radicand is not finite: {rad!r}")
    if abs(rad) < BOUNDARY_GUARD:
        raise ValueError(
            f"point sits on the singular support boundary (radicand {rad!r})")
    if rad < 0:
        return 0.0
    return 2.0 / math.sqrt(rad)


def triple_sum_closed_form(a: ConeAngles) -> float:
    """Cesaro limit of the triple-Legendre sum: (2/pi)/sqrt(radicand) inside
    the support, 0 outside; boundary refused."""
    rad = _support_radicand(a)
    if abs(rad) < BOUNDARY_GUARD:
        raise ValueError(
            f"angles sit on the singular support boundary (radicand {rad!r})")
    if rad < 0:
        return 0.0
    return float((2.0 / np.pi) / np.sqrt(rad))


def triple_legendre_sum(a: ConeAngles, n_max: int,
                        mode: str = "cesaro") -> SeriesResult:
    """Partial sums of sum_n (2n+1) P_n(cos theta) P_n(cos eta) P_n(cos gamma).

    mode='raw' gives the plain partial sum at n_max, 'cesaro' the (C,1)
    average of the partial sums, 'double_average' the average of the
    averages.  The raw sums oscillate without settling; the averages
    converge to ``triple_sum_closed_form`` inside the support and to 0
    outside.

    The three cosines are sorted internally before any arithmetic, so
    permuted argument orders produce bit-identical partial sums.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1: {n_max!r}")
    if not abs(a.cos_gamma) <= 1:
        raise ValueError(
            f"cos_gamma outside [-1, 1]: {a.cos_gamma!r}; the Legendre factors "
            "diverge there and the sum is undefined")
    if mode not in ("raw", "cesaro", "double_average"):
        raise ValueError(f"unknown mode: {mode!r}")
    c1, c2, c3 = sorted((a.cos_theta, a.cos_eta, a.cos_gamma))
    p1 = legendre_p_sequence(n_max, c1).values
    p2 = legendre_p_sequence(n_max, c2).values
    p3 = legendre_p_sequence(n_max, c3).values
    orders = np.arange(n_max + 1)
    terms = (2 * orders + 1) * p1 * p2 * p3
    partial = np.cumsum(terms)
    if mode == "raw":
        seq = partial
        tail = float(abs(terms[-1]))
    else:
        counts = np.arange(1, n_max + 2)
        ces = np.cumsum(partial) / counts
        if mode == "cesaro":
            seq = ces
        else:
            seq = np.cumsum(ces) / counts
        tail = float(abs(seq[-1] - seq[-2]))
    return SeriesResult(value=complex(seq[-1]), n_terms=n_max + 1,
                        tail_estimate=tail)


def wavepacket_series(cos_theta: float, p: FieldPoint, n_max: int,
                      mode: str = "cesaro") -> SeriesResult:
    """X-wave via its Legendre expansion: (1/r)*2*pi*sum (n+1/2) P P P,
    which is (pi/r) times the triple sum.

    Requires r > 0 and |t| <= r so that cos(gamma) = t/r stays in [-1, 1];
    outside that window only the closed form is defined.
    """
    sph = to_spherical(p)
    if sph.r == 0.0:
        raise ValueError("wavepacket series undefined at the origin (r = 0)")
    if abs(p.t) > sph.r:
        raise ValueError(
            f"|t| = {abs(p.t)!r} exceeds r = {sph.r!r}: cos_gamma leaves [-1, 1] "
            "and the series is undefined; use xwave_closed_form there")
    angles = ConeAngles(cos_theta=cos_theta, cos_eta=sph.cos_eta,
                        cos_gamma=sph.cos_gamma)
    ts = triple_legendre_sum(angles, n_max, mode)
    scale = np.pi / sph.r
    return SeriesResult(value=complex(ts.value * scale), n_terms=ts.n_terms,
                        tail_estimate=ts.tail_estimate * scale,
                        converged=ts.converged)
