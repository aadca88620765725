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

``triple_legendre_sum`` also sums a batch of triples in one call: the P_n
rows of all their cosines come from one array sweep, and the partial sums
and means run along the order axis for every triple at once, each entry
bit for bit the single triple's.  ``identities.suite_triplesum`` sums its
40 triples that way.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beamcore import FieldPoint, _check_cosine, _sin2, to_spherical
from .pwseries import SeriesResult
from .specfun import _as_order, legendre_p_sequence

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
        _check_cosine(self.cos_theta, "cos_theta")
        _check_cosine(self.cos_eta, "cos_eta")
        if math.isnan(self.cos_gamma):
            raise ValueError("cos_gamma is NaN")


def _support_radicand(a: ConeAngles) -> float:
    d = a.cos_eta * a.cos_theta - a.cos_gamma
    return float(_sin2(a.cos_eta) * _sin2(a.cos_theta) - d * d)


def support_predicate(a: ConeAngles) -> bool:
    """True iff sin(eta)*sin(theta) > |cos(eta)*cos(theta) - cos(gamma)|
    strictly, read as the radicand sin^2 sin^2 - (cos cos - cos)^2 > 0
    that ``triple_sum_closed_form`` takes its side from."""
    return _support_radicand(a) > 0


def _xwave_ab(cos_theta: float, p: FieldPoint) -> tuple[float, float]:
    # (sin(theta) rho, t - cos(theta) z); the support is |b| < a
    return math.sqrt(_sin2(cos_theta)) * p.rho, p.t - cos_theta * p.z


def xwave_closed_form(cos_theta: float, p: FieldPoint) -> float:
    """X-wave field at a point: 2/sqrt(sin^2(theta)rho^2 - (t - cos(theta)z)^2)
    inside the support cone, 0 outside.

    The exact boundary is singular and refused.
    """
    _check_cosine(cos_theta, "cos_theta")
    a, b = _xwave_ab(cos_theta, p)
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


def triple_legendre_sum(a: ConeAngles | Sequence[ConeAngles], n_max: int,
                        mode: str = "cesaro") -> SeriesResult:
    """Partial sums of sum_n (2n+1) P_n(cos theta) P_n(cos eta) P_n(cos gamma).

    mode='raw' gives the plain partial sum at n_max, 'cesaro' the (C,1)
    average of the partial sums, 'double_average' the average of the
    averages.  The raw sums oscillate without settling; the averages
    converge to ``triple_sum_closed_form`` inside the support and to 0
    outside.

    The three cosines are sorted internally before any arithmetic, so
    permuted argument orders produce bit-identical partial sums.

    ``a`` is one ``ConeAngles`` or a non-empty sequence of them.  One
    triple takes three scalar ``P_n`` sweeps and returns a complex
    ``value`` and a float ``tail_estimate``.  A sequence takes one array
    sweep over all its 3k cosines and returns one ``SeriesResult`` whose
    ``value`` is a complex array and ``tail_estimate`` a float array, one
    entry per triple, each bit for bit the single triple's.  ``n_terms``
    is the int n_max + 1 either way.  On one triple the scalar sweeps are
    the cheaper (2.4 ms for the whole sum against 25 ms for the sweep of
    an array of 3 at n_max = 4000, 2-vCPU Xeon); on 40 triples one array
    sweep takes a quarter of the time of 120 scalar ones.
    """
    single = isinstance(a, ConeAngles)
    triples = [a] if single else list(a)
    if not triples:
        raise ValueError("no triples to sum")
    for i, t in enumerate(triples):
        if not abs(t.cos_gamma) <= 1:
            at = "" if single else f" (triple {i})"
            raise ValueError(
                f"cos_gamma outside [-1, 1]{at}: {t.cos_gamma!r}; the "
                "Legendre factors diverge there and the sum is undefined")
    n_max = _as_order(n_max, "n_max", least=1)
    if mode not in ("raw", "cesaro", "double_average"):
        raise ValueError(f"unknown mode: {mode!r}")
    cosines = [sorted((t.cos_theta, t.cos_eta, t.cos_gamma)) for t in triples]
    # rows[n, j, i] = P_n of the i-th sorted cosine of triple j
    if single:
        rows = np.stack([legendre_p_sequence(n_max, c) for c in cosines[0]],
                        axis=-1)[:, None]
    else:
        rows = legendre_p_sequence(n_max, np.array(cosines))
    # from here on a single triple is a batch of one, orders along axis 0
    n_terms = n_max + 1
    weights = (2 * np.arange(n_terms) + 1)[:, None]
    terms = weights * rows[..., 0] * rows[..., 1] * rows[..., 2]
    partial = np.cumsum(terms, axis=0)
    if mode == "raw":
        seq = partial
        tail = np.abs(terms[-1])
    else:
        counts = np.arange(1, n_terms + 1)[:, None]
        ces = np.cumsum(partial, axis=0) / counts
        if mode == "cesaro":
            seq = ces
        else:
            seq = np.cumsum(ces, axis=0) / counts
        tail = np.abs(seq[-1] - seq[-2])
    if single:
        return SeriesResult(value=complex(seq[-1, 0]), n_terms=n_terms,
                            tail_estimate=float(tail[0]))
    return SeriesResult(value=seq[-1].astype(complex), n_terms=n_terms,
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
