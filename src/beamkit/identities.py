"""Identity verification suite.

Each check evaluates both sides of one identity by independent routes and
packs the outcome into an ``IdentityReport``.  The pass rule is uniform:

    ok = (abs_err <= tol) or (rel_err <= tol when |rhs| > tol)

so absolute tolerance governs near zero and relative tolerance governs at
scale.  Reports carry their parameters and quadrature diagnostics; with
fixed budgets and seeds every number here reproduces bit-identically.

The checks:

* ``verify_stratton_integral``: the finite plane-wave-cone integral of
  P_n against the beam kernel equals 2 i^n P_n(z/r) j_n(omega r).
* ``delta_kernel_test``: the truncated Legendre delta kernel smooths a
  test function back to its value at cos(theta_0), at rate O(1/n_max).
* ``legendre_ft_pair``: the full-line Fourier transform of j_n lands on
  P_n inside the band |beta| < 1.
* ``hochstadt_sum_check``: the addition-theorem sum over products
  j_n(lambda) j_n(mu) collapses to j_0 of the triangle distance.
* ``legendre_orthogonality`` / ``jn_norm_integral``: the two norm
  integrals 1/(n+1/2) and pi/(2n+1).
* ``plane_wave_expansion_check``: partial-wave resummation of
  exp(i x cos gamma), with coefficient (2n+1); a negative control runs
  the (n+1/2) variant, which lands at exactly half the field.
* ``bessel_beam_identity``: the finite cone integral of the beam over
  cos(theta) equals 2 sum i^n j_n(omega r), computed through two routes.
* ``triple_sum_cesaro_check`` / ``xwave_oracle_check``: wavepacket-layer
  checks against the closed forms and an eps-extrapolated regularized
  Fourier oracle.

The Stratton, orthogonality and beam-identity integrands are entire on
[-1, 1], so a polynomial rule converges geometrically once its size
passes their bandwidth (Trefethen, SIAM Rev. 50 (2008) 67-87).  All take
``oscquad``'s one Clenshaw-Curtis rule: the integrand is evaluated once
on the 2N + 1 nodes -cos(k pi / 2N), the value is that rule's, and the
claim is its distance to the rule of size N, whose nodes are the
even-indexed ones, plus a rounding floor of 64 eps sum(w |f|).
Stratton and orthogonality take one rule sized from the integrand,
through ``_clenshaw_curtis``: N = n + |omega| (|z| + rho) + 16 for P_n
against the beam kernel, 2n for P_n^2, where both rules are exact.  A
rule of more than 60015 nodes, or a table of more than 2^22 orders times
nodes, is refused before anything is evaluated or allocated, and its
reports come back with ``quad_converged`` False.  Each suite makes one
call per point for all its orders; a single report is the same call up
to its own order.  ``bessel_beam_identity`` takes ``integrate_finite``,
which doubles N from 8 until the claim is under its tolerance, and the
norms of its second route, like ``delta_kernel_test``, from a fixed rule
exact for their degree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscquad import (_cc_rule, _clenshaw_curtis, _segment_and_rays,
                      integrate_finite, integrate_oscillatory_infinite,
                      regularized_j0_fourier)
from .pwseries import _I_POWERS, truncation_order
from .specfun import (_as_order, bessel_j0, legendre_p, legendre_p_sequence,
                      spherical_jn, spherical_jn_sequence)
from .wavepacket import (ConeAngles, _support_radicand, _xwave_ab,
                         triple_legendre_sum, triple_sum_closed_form,
                         xwave_closed_form)
from .beamcore import FieldPoint, _check_cosine, _sin2

__all__ = [
    "IdentityReport",
    "verify_stratton_integral",
    "delta_kernel_test",
    "legendre_ft_pair",
    "hochstadt_sum_check",
    "legendre_orthogonality",
    "jn_norm_integral",
    "plane_wave_expansion_check",
    "plane_wave_negative_control",
    "bessel_beam_identity",
    "triple_sum_cesaro_check",
    "xwave_oracle_check",
    "run_suite",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class IdentityReport:
    """Two sides of an identity and the verdict.

    ``ok`` follows one rule everywhere: absolute gap under tol, or
    relative gap under tol when the reference side is itself above tol.
    (The JSON field name is ``pass``; that word is reserved in Python,
    hence ``ok`` here.)  ``rel_err`` is +inf against an exactly zero
    reference and serializes to null.
    """

    identity_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    ok: bool

    def to_json_dict(self) -> dict:
        rel = self.rel_err if math.isfinite(self.rel_err) else None
        return {
            "identity_id": self.identity_id,
            "params": self.params,
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err,
            "rel_err": rel,
            "tol": self.tol,
            "pass": self.ok,
        }


def _report(identity_id: str, params: dict, lhs, rhs, tol: float,
            healthy: bool = True) -> IdentityReport:
    """Build a report; ``healthy=False`` (stalled quadrature etc.) forces
    ok=False no matter how small the gap looks."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else math.inf
    ok = healthy and (abs_err <= tol or (abs(rhs) > tol and rel_err <= tol))
    return IdentityReport(identity_id=identity_id, params=params, lhs=lhs,
                          rhs=rhs, abs_err=float(abs_err),
                          rel_err=float(rel_err), tol=float(tol), ok=bool(ok))


# node budget of the Fourier-pair check's segment and rays
_FT_PAIR_NODES = 1 << 20


def _big_l(n: int) -> float:
    # L of the full-line j_n checks, the first multiple of pi/2 >= 2n + 4
    return math.ceil((2.0 * n + 4.0) / (0.5 * np.pi)) * (0.5 * np.pi)


def _jn_signed(n: int, lam) -> np.ndarray:
    # j_n continued to negative argument by parity
    lam = np.asarray(lam, dtype=float)
    jn = spherical_jn(n, np.abs(lam))
    return np.where(lam < 0, -jn, jn) if n % 2 == 1 else jn


# ----------------------------------------------------------------------------
# Finite-interval identities
# ----------------------------------------------------------------------------

def _stratton_reports(n_lo: int, n_top: int, omega: float, z: float,
                      rho: float, tol: float) -> list:
    # the reports of orders n_lo .. n_top at one (omega, z, rho), from one
    # Clenshaw-Curtis call on the rows P_0 .. P_n_top
    n_lo = _as_order(n_lo, "order n")
    if not (math.isfinite(omega) and math.isfinite(z) and 0 <= rho < math.inf):
        raise ValueError("omega and z must be finite, rho finite and "
                         f"nonnegative: {omega!r}, {z!r}, {rho!r}")
    r = float(np.hypot(z, rho))
    if r == 0.0:
        raise ValueError("point at the origin: r must be positive")

    def table(al):
        transverse = omega * np.sqrt(_sin2(al)) * rho
        kernel = np.exp(1j * omega * z * al) * bessel_j0(transverse)
        return legendre_p_sequence(n_top, al)[n_lo:] * kernel

    # the integrand's bandwidth in a, plus a margin
    size = n_top + abs(omega) * (abs(z) + rho) + 16.0
    orders = range(n_lo, n_top + 1)
    pz = legendre_p_sequence(n_top, z / r)
    jr = spherical_jn_sequence(n_top, abs(omega) * r)
    out = []
    for n, q in zip(orders, _clenshaw_curtis(table, orders, size,
                                             0.1 * tol)):
        sgn = -1.0 if (omega < 0 and n % 2 == 1) else 1.0
        rhs = 2.0 * _I_POWERS[n % 4] * pz[n] * sgn * jr[n]
        params = {"n": n, "omega": float(omega), "z": float(z),
                  "rho": float(rho), "quad_error": q.error_estimate,
                  "quad_evals": q.n_evals, "quad_converged": q.converged}
        out.append(_report("stratton_integral", params, q.value, rhs, tol,
                           healthy=q.converged))
    return out


def verify_stratton_integral(n: int, omega: float, z: float, rho: float,
                             tol: float = 1e-9) -> IdentityReport:
    """Cone integral of P_n against the beam kernel vs 2 i^n P_n(z/r) j_n(omega r).

    lhs = int_{-1}^{1} P_n(a) exp(i omega a z) J_0(omega sqrt(1-a^2) rho) da

    The integrand is entire in a, and its bandwidth is about
    n + |omega| (|z| + rho), so a Clenshaw-Curtis rule of size
    2N, N = ceil(n + |omega| (|z| + rho) + 16), takes it to rounding; its
    claim is the distance to the rule of size N plus a rounding floor, and
    the quadrature converges when the claim is under tol / 10.  A rule of
    more than 60015 nodes (|omega| (|z| + rho) past about 30,000), or a
    table of P_0 .. P_n on its nodes of more than 2^22 entries, comes
    back flagged without evaluating.  ``suite_stratton`` integrates orders
    0 .. 12 in one call per point; this is the same call for orders 0 .. n.
    """
    return _stratton_reports(n, n, omega, z, rho, tol)[0]


def delta_kernel_test(cos_theta0: float, n_max: int, test_fn,
                      tol_constant: float = 4.0) -> IdentityReport:
    """Smoothing of a test function by the truncated delta kernel.

    lhs integrates sum_{n<=n_max} (n+1/2) P_n(cos_theta0) P_n(a) f(a) over
    [-1, 1] on the Clenshaw-Curtis rule of size 2 n_max + 128, exact for
    the kernel times any f of degree up to n_max + 128; rhs is
    f(cos_theta0).  The kernel converges distributionally, so the declared
    tolerance scales as tol_constant / n_max.
    """
    _check_cosine(cos_theta0, "cos_theta0")
    n_max = _as_order(n_max, "n_max", least=1)
    # truncated delta spectrum a_n = (n + 1/2) P_n(cos_theta0), summed
    # against the P_n(nodes) table
    spectrum = ((np.arange(n_max + 1) + 0.5)
                * legendre_p_sequence(n_max, cos_theta0))
    nodes, weights, _ = _cc_rule(n_max + 64)
    kern = spectrum @ legendre_p_sequence(n_max, nodes)
    fvals = np.array([float(test_fn(float(t))) for t in nodes])
    lhs = float(np.sum(weights * kern * fvals))
    rhs = float(test_fn(float(cos_theta0)))
    tol = tol_constant / n_max
    params = {"cos_theta0": float(cos_theta0), "n_max": n_max,
              "tol_constant": float(tol_constant),
              "quad_nodes": nodes.size}
    return _report("delta_kernel", params, lhs, rhs, tol)


def _orthogonality_reports(n_lo: int, n_top: int) -> list:
    # the reports of orders n_lo .. n_top, from one Clenshaw-Curtis call
    # on the rows P_0^2 .. P_n_top^2
    n_lo = _as_order(n_lo, "order n")

    def table(al):
        pn = legendre_p_sequence(n_top, al)[n_lo:]
        return pn * pn

    # P_n^2 has degree 2n: both rules are exact from N = 2n on
    orders = range(n_lo, n_top + 1)
    out = []
    for n, q in zip(orders, _clenshaw_curtis(table, orders, 2.0 * n_top,
                                             1e-13)):
        params = {"n": n, "quad_error": q.error_estimate,
                  "quad_evals": q.n_evals, "quad_converged": q.converged}
        out.append(_report("legendre_orthogonality", params, q.value,
                           1.0 / (n + 0.5), 1e-11, healthy=q.converged))
    return out


def legendre_orthogonality(n: int) -> IdentityReport:
    """int_{-1}^{1} P_n(a)^2 da = 1/(n + 1/2), checked at 1e-11.

    P_n^2 is a polynomial of degree 2n, so the Clenshaw-Curtis rules of
    sizes N = max(2n, 2) and 2N are both exact to rounding; the claim is
    their distance plus a rounding floor, and the quadrature converges
    when the claim is under 1e-13.  The table of P_0 .. P_n on the 2N + 1
    nodes is bounded: from n = 1024 on it would pass 2^22 entries, and
    the report comes back flagged without evaluating.
    ``suite_orthogonality`` integrates orders 0 .. 30 in one call; this
    is the same call for orders 0 .. n.
    """
    return _orthogonality_reports(n, n)[0]


# ----------------------------------------------------------------------------
# Infinite oscillatory identities
# ----------------------------------------------------------------------------

def legendre_ft_pair(n: int, beta: float, tol: float = 1e-8) -> IdentityReport:
    """Full-line Fourier transform of j_n lands on P_n inside the band.

    lhs = ((-i)^n / pi) int_{-inf}^{inf} j_n(lam) e^{i beta lam} dlam,
    rhs = P_n(beta), for |beta| < 1 strictly (the transform has jump
    support edges at |beta| = 1 and the symmetric limit halves there).

    ``oscquad._segment_and_rays`` takes the integral on the half line
    lam >= 0 alone, as j_n has parity (-1)^n: equal Clenshaw-Curtis panels
    on [0, L], L the first multiple of pi/2 at or past 2n + 4, and past L
    the parts of j_n = (h_n^(1) + h_n^(2))/2 up and down two vertical rays;
    the other half is the mirror image times (-1)^n.  Here h_n is e^{+-i lam}
    times a polynomial in L/lam (DLMF 10.49.6, coefficients scaled by L^k
    so that none overflows), and the rays are laid out along its Debye
    chord sqrt(lam^2 - (n + 1/2)^2).  The error claim is twice the half
    line's: each segment panel's distance to the rule of half its size,
    the K15 - G7 difference of every ray panel, and a rounding floor.
    Near |beta| = 1 at high n the claim can exceed the error (n = 80,
    beta = 0.999: 2.7e-5 claimed, 4e-11 off), and from about n = 150 the
    polynomial cancels at |lam| = L; both come back flagged.
    """
    n = _as_order(n, "order n")
    if not abs(beta) < 1:
        raise ValueError(
            f"beta must lie strictly inside (-1, 1): beta={beta!r}")
    big_l = _big_l(n)
    # h_n(z) = e^{+-iz} (-+i)^(n+1) / z times the sum over k of
    # b_k (+-i L / z)^k, b_k = a_k(n + 1/2) / L^k, highest k first
    b = np.cumprod([1.0] + [(n + k + 1) * (n - k) / (2 * (k + 1) * big_l)
                            for k in range(n)])[::-1]

    def ray_part(z, rate_s):
        # half of h_n^(1), times i from dlam, up its ray
        return (0.5 * _I_POWERS[-n % 4] * np.exp(-rate_s) / z
                * np.polyval(b, 1j * big_l / z))

    # the rays follow the Debye chord sqrt(z^2 - (n + 1/2)^2) of h_n
    q = _segment_and_rays(lambda u: _jn_signed(n, u), ray_part, big_l, 0.0,
                          beta, 1.0 - abs(beta), -(n + 0.5) ** 2, (-1) ** n,
                          0.5 * np.pi * tol, _FT_PAIR_NODES)
    params = {"n": n, "beta": float(beta),
              "quad_error": q.error_estimate / np.pi,
              "quad_evals": q.n_evals, "quad_converged": q.converged}
    return _report("legendre_ft_pair", params, _I_POWERS[-n % 4] / np.pi
                   * q.value, legendre_p(n, beta), tol, healthy=q.converged)


def _jn_yn_square_coeffs(n: int, scale: float) -> np.ndarray:
    """d_0 .. d_n with j_n(x)^2 + y_n(x)^2 = sum_k d_k scale^(2k) x^(-2-2k).

    Abramowitz and Stegun 10.1.27 gives c_k = (n+k)! (2k)! / ((n-k)!
    (k!)^2 4^k); d_k = c_k / scale^(2k) comes from the ratio of successive
    c_k, so no factorial is formed and nothing overflows at high n.
    """
    scale2 = scale * scale
    return np.cumprod([1.0] + [(n + k + 1) * (n - k) * (2 * k + 1)
                               / (2 * (k + 1) * scale2) for k in range(n)])


def jn_norm_integral(n: int) -> IdentityReport:
    """Full-line norm integral of j_n^2 equals pi/(2n+1), at 1e-7.

    Past L, the first multiple of pi/2 at or past 2n + 4 (a cell edge), the
    non-oscillating (j_n^2 + y_n^2)/2 is integrated in closed form; the
    engine takes the rest, whose tail -cos(2x - n pi)/(2x^2) alternates
    from one pi/2 cell to the next.
    """
    n = _as_order(n, "order n")
    big_l = _big_l(n)
    coeffs = _jn_yn_square_coeffs(n, big_l)

    def f(lam):
        # the sign of j_n at negative lam cancels in the square
        jn = _jn_signed(n, lam)
        out = jn * jn
        far = np.abs(lam) >= big_l
        u = 1.0 / (lam[far] * lam[far])
        out[far] -= 0.5 * u * np.polyval(coeffs[::-1], big_l * big_l * u)
        return out

    # both half-lines of the non-oscillating part past L
    tail = math.fsum(d / (1 + 2 * k) for k, d in enumerate(coeffs)) / big_l
    rhs = np.pi / (2 * n + 1)
    tol = 1e-7
    q = integrate_oscillatory_infinite(f, period_hint=np.pi,
                                       tol=0.3 * tol * rhs,
                                       tail_start=big_l)
    params = {"n": n, "tail_start": big_l, "tail_closed_form": tail,
              "quad_error": q.error_estimate,
              "quad_evals": q.n_evals, "quad_converged": q.converged}
    return _report("jn_norm_integral", params, q.value + tail, rhs, tol,
                   healthy=q.converged)


# ----------------------------------------------------------------------------
# Partial-wave sums
# ----------------------------------------------------------------------------

def _order_at_floor(x: float, n_max: int | None, where: str) -> int:
    """``n_max`` (refused below the truncation floor at x), or floor + 8."""
    floor = truncation_order(x)
    if n_max is None:
        return floor + 8
    n_max = _as_order(n_max, "n_max")
    if n_max < floor:
        raise ValueError(
            f"n_max={n_max} below the truncation floor {floor} for {where}")
    return n_max


def hochstadt_sum_check(lam: float, mu: float, cos_theta: float,
                        n_max: int | None = None) -> IdentityReport:
    """Addition-theorem sum vs j_0 at the triangle distance, 1e-10 absolute.

    lhs = (2/pi) sum (n+1/2) P_n(cos_theta) j_n(lam) j_n(mu),
    rhs = (1/pi) j_0(sqrt(lam^2 + mu^2 - 2 lam mu cos_theta)).
    """
    if not (0 < lam < math.inf and 0 < mu < math.inf):
        raise ValueError(
            f"lam and mu must be finite and positive: {lam!r}, {mu!r}")
    _check_cosine(cos_theta, "cos_theta")
    n_max = _order_at_floor(max(lam, mu), n_max,
                            f"arguments up to {max(lam, mu)!r}")
    jl = spherical_jn_sequence(n_max, lam)
    jm = spherical_jn_sequence(n_max, mu)
    pt = legendre_p_sequence(n_max, cos_theta)
    orders = np.arange(n_max + 1)
    lhs = (2.0 / np.pi) * float(np.sum((orders + 0.5) * pt * jl * jm))
    dist = float(np.sqrt(max(0.0, lam * lam + mu * mu
                             - 2.0 * lam * mu * cos_theta)))
    rhs = spherical_jn(0, dist) / np.pi
    params = {"lam": float(lam), "mu": float(mu),
              "cos_theta": float(cos_theta), "n_max": n_max,
              "triangle_distance": dist}
    return _report("hochstadt_sum", params, lhs, rhs, 1e-10)


def _plane_wave_sum(x: float, cos_gamma: float, n_max: int,
                    half_coeff: bool) -> complex:
    jx = spherical_jn_sequence(n_max, abs(x))
    if x < 0:
        jx = jx * np.where(np.arange(n_max + 1) % 2 == 1, -1.0, 1.0)
    pg = legendre_p_sequence(n_max, cos_gamma)
    orders = np.arange(n_max + 1)
    coeff = (orders + 0.5) if half_coeff else (2 * orders + 1)
    return complex(np.sum(coeff * _I_POWERS[orders % 4] * jx * pg))


def plane_wave_expansion_check(x: float, cos_gamma: float,
                               n_max: int | None = None) -> IdentityReport:
    """exp(i x cos_gamma) vs its partial-wave sum with coefficient (2n+1).

    The (2n+1) coefficient is the one consistent with the n=0 limit and
    with resummation at x=0; see the negative control for the halved
    variant.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite: {x!r}")
    _check_cosine(cos_gamma, "cos_gamma")
    n_max = _order_at_floor(abs(x), n_max, f"x={x!r}")
    lhs = complex(np.exp(1j * x * cos_gamma))
    rhs = _plane_wave_sum(x, cos_gamma, n_max, half_coeff=False)
    params = {"x": float(x), "cos_gamma": float(cos_gamma),
              "n_max": n_max}
    return _report("plane_wave_expansion", params, lhs, rhs, 1e-10)


def plane_wave_negative_control(x: float = 3.0, cos_gamma: float = 0.2,
                                n_max: int = 30) -> IdentityReport:
    """Document that the halved coefficient (n+1/2) misses by a factor of 2.

    The report compares the ratio |exp(i x cos_gamma)| / |halved sum|
    against 2 with tol 0.1, so ok=True exactly when the ratio lands in
    [1.8, 2.2].  The raw field-level gap of the halved sum is recorded in
    params.
    """
    lhs_field = complex(np.exp(1j * x * cos_gamma))
    halved = _plane_wave_sum(x, cos_gamma, n_max, half_coeff=True)
    ratio = abs(lhs_field) / abs(halved)
    raw_gap = abs(lhs_field - halved)
    params = {"x": float(x), "cos_gamma": float(cos_gamma),
              "n_max": int(n_max), "coefficient": "n+1/2",
              "raw_abs_err": float(raw_gap),
              "halved_sum_re": halved.real, "halved_sum_im": halved.imag}
    return _report("planewave_paper_coeff_negative_control", params,
                   ratio, 2.0, 0.1)


def bessel_beam_identity(omega_r: float, tol: float = 1e-8) -> IdentityReport:
    """Cone integral of the beam equals 2 sum i^n j_n(omega r).

    lhs = int_{-1}^{1} J_0(wr (1-a^2)) exp(i wr a^2) da with a = cos(theta),
    rhs = sum_n 2 i^n j_n(wr).  The lhs is ``integrate_finite``'s; its
    integrand is entire, so the nested Clenshaw-Curtis rules converge
    geometrically.  A second route for the rhs, weighting each order by
    (n+1/2) times its P_n norm from the Clenshaw-Curtis rule of size
    2 n_max (exact for every P_n^2 up to n_max), is recorded in params;
    the two routes collapse to the same number because the norm integral
    is exactly 1/(n+1/2).
    """
    if not 0 <= omega_r < math.inf:
        raise ValueError(
            f"omega_r must be finite and nonnegative: {omega_r!r}")

    def integrand(alpha):
        al = np.asarray(alpha, dtype=float)
        return bessel_j0(omega_r * _sin2(al)) * np.exp(1j * omega_r * al * al)

    q = integrate_finite(integrand, -1.0, 1.0, tol=0.05 * tol)

    n_max = truncation_order(omega_r, 0.01 * tol)
    seq = spherical_jn_sequence(n_max, omega_r)
    tail = 2.0 * (abs(seq[-1]) + abs(seq[-2]))
    orders = np.arange(n_max + 1)
    terms = 2.0 * _I_POWERS[orders % 4] * seq
    rhs = complex(np.sum(terms))

    # route B: fold each order through its quadrature-evaluated norm
    nodes, weights, _ = _cc_rule(n_max)
    norms = legendre_p_sequence(n_max, nodes) ** 2 @ weights
    route_b = complex(np.sum(terms * (orders + 0.5) * norms))

    params = {"omega_r": float(omega_r), "n_terms": int(n_max + 1),
              "series_tail": float(tail),
              "quad_error": q.error_estimate, "quad_evals": q.n_evals,
              "quad_converged": q.converged,
              "route_b_re": route_b.real, "route_b_im": route_b.imag,
              "route_gap": float(abs(route_b - rhs))}
    return _report("bessel_beam_identity", params, q.value, rhs, tol,
                   healthy=q.converged)


# ----------------------------------------------------------------------------
# Wavepacket-layer checks
# ----------------------------------------------------------------------------

def _richardson_eps_limit(a: float, b: float, levels: int = 9):
    """Extrapolate the regularized Fourier closed form to eps -> 0.

    On the support interior (|b| < a) the regularized value is even in
    eps, so the sequence eps_k = eps0/2^k is a ratio-4 geometric schedule
    in eps^2 and classic Richardson applies, with factors 4, 16, 64, ...
    Outside it the value continued through eps = 0 is odd in eps (the root
    of a^2 + (eps - i b)^2 crosses the branch cut of the principal one), so
    the factors are 2, 8, 32, ...  eps0 stays inside the analyticity radius
    a - |b| on the support interior; at a = 0, where the value is
    2 eps/(eps^2 + b^2), eps0 scales with |b|.
    """
    gap = a - abs(b)
    eps0 = 0.4 * (gap if gap > 0 else a if a > 0 else abs(b))
    # the first power of eps to cancel, as 2^power / 4
    first = 1.0 if gap > 0 else 0.5
    prev_row: list[float] = []
    err = math.inf
    for k in range(levels):
        v = regularized_j0_fourier(a, b, eps0 / 2.0 ** k)
        row = [v]
        pw = first
        for j in range(len(prev_row)):
            pw *= 4.0
            row.append(row[j] + (row[j] - prev_row[j]) / (pw - 1.0))
        if prev_row:
            err = abs(row[-1] - prev_row[-1])
        prev_row = row
    return prev_row[-1], err


# largest oracle residual an exterior X-wave report accepts
_XWAVE_RESIDUAL_TOL = 1e-12


def xwave_oracle_check(cos_theta: float, p: FieldPoint) -> IdentityReport:
    """X-wave closed form vs the eps-extrapolated regularized oracle.

    Interior points compare at 1e-3 relative.  Exterior points must come
    out exactly zero (tol 0), and the oracle's extrapolated value there,
    recorded as its residual, must lie within the ``oracle_tol`` in
    ``params``.
    """
    lhs = xwave_closed_form(cos_theta, p)
    a, b = _xwave_ab(cos_theta, p)
    params = {"cos_theta": float(cos_theta), "z": float(p.z),
              "rho": float(p.rho), "t": float(p.t)}
    oracle, est = _richardson_eps_limit(a, b)
    if a * a - b * b > 0:
        params["oracle_error"] = float(est)
        return _report("xwave_closed_form", params, lhs, oracle, 1e-3)
    params["oracle_residual"] = float(oracle)
    params["oracle_tol"] = _XWAVE_RESIDUAL_TOL
    return _report("xwave_closed_form", params, lhs, 0.0, 0.0,
                   healthy=abs(oracle) <= _XWAVE_RESIDUAL_TOL)


def triple_sum_cesaro_check(a: ConeAngles, n_max: int = 4000) -> IdentityReport:
    """Cesaro average of the triple-Legendre sum vs its closed form.

    Interior: 2e-2 relative against the closed form.  Exterior: the
    average itself must sit within 2e-2 of zero on the order-one scale of
    the closed form.
    """
    avg = triple_legendre_sum(a, n_max, mode="cesaro").value.real
    return _triple_sum_report(a, avg, n_max)


def _triple_sum_report(a: ConeAngles, avg, n_max: int) -> IdentityReport:
    # one Cesaro mean against the closed form, for a check or a suite row
    params = {"cos_theta": a.cos_theta, "cos_eta": a.cos_eta,
              "cos_gamma": a.cos_gamma, "n_max": int(n_max)}
    cf = triple_sum_closed_form(a)
    return _report("triple_legendre_cesaro", params, avg, cf, 2e-2)


# ----------------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------------

_STRATTON_POINTS = [(0.3, 0.7), (1.0, 0.0), (0.0, 1.0), (-1.2, 0.5),
                    (2.0, 2.0)]


def suite_stratton() -> list:
    # one call for orders 0 .. 12 per point, reports ordered by n first
    points = [_stratton_reports(0, 12, omega, z, rho, 1e-9)
              for omega in (0.5, 2.0, 10.0) for z, rho in _STRATTON_POINTS]
    return [reports[n] for n in range(13) for reports in points]


def suite_ftpair() -> list:
    out = []
    for n in range(7):
        for beta in (0.0, -0.3, 0.3, 0.6, -0.9, 0.9):
            out.append(legendre_ft_pair(n, beta, tol=1e-8))
    return out


def suite_hochstadt(n_triples: int = 30, seed: int = 7141) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_triples):
        lam = float(rng.uniform(0.2, 20.0))
        mu = float(rng.uniform(0.2, 20.0))
        ct = float(rng.uniform(-1.0, 1.0))
        out.append(hochstadt_sum_check(lam, mu, ct))
    return out


def suite_orthogonality() -> list:
    return _orthogonality_reports(0, 30)


def suite_jnnorm() -> list:
    return [jn_norm_integral(n) for n in range(21)]


def suite_planewave() -> list:
    out = [plane_wave_expansion_check(0.0, 0.7),
           plane_wave_expansion_check(3.0, 1.0, n_max=30),
           plane_wave_expansion_check(5.0, 0.2),
           plane_wave_expansion_check(3.0, 0.2, n_max=30),
           plane_wave_expansion_check(10.0, -0.6)]
    out.append(plane_wave_negative_control())
    return out


def suite_beamidentity() -> list:
    return [bessel_beam_identity(wr, tol=1e-8)
            for wr in (0.0, 0.5, 1.0, 5.0, 10.0, 20.0, 40.0)]


def _sample_triples(seed: int, n_interior: int, n_exterior: int,
                    min_radicand: float = 0.05):
    """Seeded triples split by support side, kept away from the singular
    boundary where no finite truncation converges at a uniform rate."""
    rng = np.random.default_rng(seed)
    interior, exterior = [], []
    while len(interior) < n_interior or len(exterior) < n_exterior:
        ct, ce, cg = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        ang = ConeAngles(ct, ce, cg)
        rad = _support_radicand(ang)
        if abs(rad) < min_radicand:
            continue
        if rad > 0 and len(interior) < n_interior:
            interior.append(ang)
        elif rad < 0 and len(exterior) < n_exterior:
            exterior.append(ang)
    return interior, exterior


def suite_triplesum(seed: int = 4915, n_max: int = 4000) -> list:
    # one batch call: a single array sweep of P_n over all 120 cosines
    interior, exterior = _sample_triples(seed, 20, 20)
    triples = interior + exterior
    avgs = triple_legendre_sum(triples, n_max, mode="cesaro").value.real
    return [_triple_sum_report(a, avg, n_max)
            for a, avg in zip(triples, avgs)]


def _sample_xwave_points(seed: int, n_interior: int, n_exterior: int):
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n_interior + n_exterior):
        ct = float(rng.uniform(-0.95, 0.95))
        z = float(rng.uniform(-2.0, 2.0))
        rho = float(rng.uniform(0.3, 2.5))
        st = math.sqrt(_sin2(ct))
        if i < n_interior:
            u = float(rng.uniform(-0.8, 0.8))
        else:
            u = float(rng.uniform(1.3, 3.0)) * (1.0 if rng.uniform() < 0.5
                                                else -1.0)
        t = ct * z + u * st * rho
        pts.append((ct, FieldPoint(z=z, rho=rho, t=t)))
    return pts[:n_interior], pts[n_interior:]


def suite_xwave(seed: int = 28618) -> list:
    interior, exterior = _sample_xwave_points(seed, 10, 10)
    return [xwave_oracle_check(ct, p) for ct, p in interior + exterior]


_SUITES = {
    "stratton": suite_stratton,
    "ftpair": suite_ftpair,
    "hochstadt": suite_hochstadt,
    "orthogonality": suite_orthogonality,
    "jnnorm": suite_jnnorm,
    "planewave": suite_planewave,
    "beamidentity": suite_beamidentity,
    "triplesum": suite_triplesum,
    "xwave": suite_xwave,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list:
    """Reports for one named suite, or all of them in declaration order."""
    if name == "all":
        out = []
        for key in SUITE_NAMES:
            out.extend(_SUITES[key]())
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    return _SUITES[name]()
