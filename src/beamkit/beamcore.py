"""Core data model and direct evaluation of the Bessel beam field.

The field of a monochromatic zeroth-order Bessel beam with cone angle theta,
in units with c = 1, is

    Phi(rho, z, t) = exp(i*omega*cos(theta)*z - i*omega*t) * J_0(omega*sin(theta)*rho)

All wave vectors live on the cone k_z = n omega cos(theta),
k_rho = n omega sin(theta), n = n(omega) the medium's index;
sin(theta) is always the nonnegative root.

Every sine taken from a cosine goes through ``_sin2``: sin is
sqrt((1 - c)(1 + c)), never sqrt(1 - c*c).  Rounding c*c costs up to
eps / (2 (1 - |c|)) of relative accuracy in sin^2, which near the poles
|c| = 1 outgrows the tolerances the routes are judged by.  The factor
1 - |c| is exact for |c| >= 1/2 (Sterbenz), so the product keeps sin^2 to
a few ulps at every c.  (The integral route's sin eta comes from the gap
1 - |cos eta|, which ``to_spherical`` forms from rho and r without a
cosine.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j0

__all__ = [
    "FieldPoint",
    "SphericalView",
    "BeamParams",
    "DispersionModel",
    "vacuum",
    "constant",
    "cauchy",
    "to_spherical",
    "eval_direct",
]


def _sin2(c):
    """sin^2 from a cosine c in [-1, 1], float or array: (1 - c)(1 + c),
    free of the cancellation of 1 - c*c near |c| = 1, and >= 0."""
    return (1.0 - c) * (1.0 + c)


def _check_cosine(c, what: str) -> None:
    """Refuse a cosine outside [-1, 1], NaN included: the package's one
    check of one (``specfun`` clamps its own Legendre arguments)."""
    if not abs(c) <= 1.0:
        raise ValueError(f"{what} outside [-1, 1]: {c!r}")


@dataclass(frozen=True)
class FieldPoint:
    """Cylindrical space-time point: axial z, transverse rho >= 0, time t."""

    z: float
    rho: float
    t: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.z, self.rho, self.t))):
            raise ValueError(f"z, rho and t must be finite: {self!r}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative: {self.rho!r}")


@dataclass(frozen=True)
class SphericalView:
    """Spherical companions of a field point.

    r = sqrt(z^2 + rho^2), cos_eta = z/r, cos_gamma = t/r.  cos_gamma is
    deliberately unbounded (|t| > r is a real regime; support predicates
    deal with it).  ``gap`` is 1 - |cos_eta|, formed without cancellation
    as (rho/r) (rho/(r + |z|)): at z = 1, rho = 1e-9 it is 5e-19, where
    1 - z/r rounds to 0.  On the axis it is 0.0.  At the origin r = 0
    both cosines are set by convention, (1, 0), and the gap is 0.0.
    """

    r: float
    cos_eta: float
    cos_gamma: float
    gap: float


@dataclass(frozen=True)
class BeamParams:
    """Angular frequency omega (sign allowed) and cone angle via cos_theta."""

    omega: float
    cos_theta: float

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite: {self.omega!r}")
        _check_cosine(self.cos_theta, "cos_theta")

    @property
    def sin_theta(self) -> float:
        return math.sqrt(_sin2(self.cos_theta))


class DispersionModel:
    """Map omega -> refractive index n(omega)."""

    def evaluate(self, omega: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class _CauchyIndex(DispersionModel):
    """n(omega) = a + b*omega^2, the Cauchy dispersion law written in
    frequency (b/lambda^2 with lambda ~ 1/omega at c = 1).  Vacuum and a
    constant index take b = 0: b*omega*omega is 0.0 at any finite omega."""

    a: float
    b: float

    def evaluate(self, omega: float) -> float:
        n = self.a + self.b * omega * omega
        if not math.isfinite(n) or n <= 0:
            raise ValueError(
                f"cauchy model left the physical range at omega={omega!r}: n={n!r}")
        return n


# Shared default medium, so evaluators build no model object per call.
_VACUUM = _CauchyIndex(a=1.0, b=0.0)


def vacuum() -> DispersionModel:
    return _VACUUM


def constant(n0: float) -> DispersionModel:
    if not np.isfinite(n0) or n0 <= 0:
        raise ValueError(f"constant index must be positive: {n0!r}")
    return _CauchyIndex(a=float(n0), b=0.0)


def cauchy(a: float, b: float) -> DispersionModel:
    if not np.isfinite(a) or a <= 0:
        raise ValueError(f"cauchy coefficient a must be positive: {a!r}")
    if not np.isfinite(b):
        raise ValueError(f"cauchy coefficient b must be finite: {b!r}")
    return _CauchyIndex(a=float(a), b=float(b))


def to_spherical(p: FieldPoint) -> SphericalView:
    """Spherical view of a field point; origin gets the (1, 0) convention."""
    r = float(np.hypot(p.z, p.rho))
    if r == 0.0:
        return SphericalView(r=0.0, cos_eta=1.0, cos_gamma=0.0, gap=0.0)
    return SphericalView(r=r, cos_eta=p.z / r, cos_gamma=p.t / r,
                         gap=(p.rho / r) * (p.rho / (r + abs(p.z))))


def eval_direct(b: BeamParams, p: FieldPoint, *,
                medium: DispersionModel = _VACUUM) -> complex:
    """Direct (closed-form) beam field at one point; |result| <= 1.

    In a medium the spatial wave numbers scale by n(omega) and the time
    factor keeps the bare omega; vacuum (n = 1) is exact.
    """
    om_eff = medium.evaluate(b.omega) * b.omega
    phase = om_eff * b.cos_theta * p.z - b.omega * p.t
    x = om_eff * b.sin_theta * p.rho
    if not (math.isfinite(phase) and math.isfinite(x)):
        raise ValueError(f"phase {phase!r} or k_rho*rho {x!r} is not finite")
    return complex(np.exp(1j * phase) * bessel_j0(x))
