"""Special functions: Legendre polynomials, spherical Bessel j_n, and J_0.

Everything here is self-contained (no scipy dependency).  Accuracy targets:
Legendre values are exact to rounding via the three-term recurrence,
spherical j_n is good to ~1e-12 relative over n <= 250, x <= 200, and J_0
holds 1.3e-15 absolute over |x| <= 500 (5e-16 up to |x| = 12).

P_n and j_n are computed here and nowhere else.  Sequences are float64
arrays, orders along axis 0.  ``legendre_p``, ``legendre_p_sequence`` and
``spherical_jn`` also take an array x.  A scalar x recurs in Python floats:
on one abscissa that is an order of magnitude faster than numpy rows (P_0
.. P_70: 22 us vs 380 us on a 2-vCPU Xeon, numpy 2.4), and the
partial-wave series route calls it per point.  J_0 is two Cephes
rational fits, one per branch, each a fixed handful of multiply-adds.  A
scalar runs them in Python floats, bit for bit equal to the array entry
and an order of magnitude faster than a one-element array (x = 2: 3-5 us
vs 50-55 us; x = 100: 5-8 us vs 83-100 us); the direct route calls it
per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RealSequence",
    "legendre_p",
    "legendre_p_sequence",
    "spherical_jn",
    "spherical_jn_sequence",
    "bessel_j0",
]

# Values whose true magnitude drops below this are set to zero instead of
# being allowed to denormalize.
UNDERFLOW_FLUSH = 1e-300

# Input slack on |x| <= 1 domains: absorb rounding from upstream trig.
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class RealSequence:
    """A contiguous run of real values f_0 .. f_n.

    ``values`` is a float64 array, orders along axis 0.  ``flushed`` lists
    indices whose true magnitude was below the underflow floor and was
    replaced by exact zero.
    """

    values: np.ndarray
    flushed: tuple[int, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


# ----------------------------------------------------------------------------
# Legendre polynomials
# ----------------------------------------------------------------------------

def _clamp_unit(x):
    # scalar or array; the checks read `not <=` so that NaN is refused too
    if np.ndim(x) == 0:
        x = float(x)
        if not abs(x) <= 1.0 + _DOMAIN_SLACK:
            raise ValueError(f"legendre argument out of range: x={x!r}")
        return min(1.0, max(-1.0, x))
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + _DOMAIN_SLACK):
        raise ValueError("legendre argument out of range in array x")
    return np.clip(x, -1.0, 1.0)


def legendre_p(n: int, x):
    """Legendre polynomial P_n(x) for x in [-1, 1], scalar or array.

    Bonnet recurrence, exact to rounding.  Arguments within 1e-12 outside
    the unit interval are clamped; anything further out raises.
    """
    if n < 0:
        raise ValueError(f"negative degree: n={n}")
    p = legendre_p_sequence(n, x).values[n]
    return p if np.ndim(x) else float(p)


def legendre_p_sequence(n_max: int, x) -> RealSequence:
    """All of P_0(x) .. P_{n_max}(x) in one upward sweep, x scalar or array."""
    if n_max < 0:
        raise ValueError(f"negative degree: n_max={n_max}")
    x = _clamp_unit(x)
    # a scalar stays a Python float throughout (see the module docstring)
    out = [np.ones_like(x) if np.ndim(x) else 1.0, x][:n_max + 1]
    for k in range(1, n_max):
        out.append(((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1))
    return RealSequence(values=np.clip(out, -1.0, 1.0))


# ----------------------------------------------------------------------------
# Spherical Bessel functions
# ----------------------------------------------------------------------------

def _sph_j0(x):
    # sin(x)/x, scalar or array, exactly 1.0 at x = 0
    x = np.asarray(x, dtype=float)
    out = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return out if out.ndim else float(out)


def _sph_j1(x):
    # closed form, called only for x >= 1: below that it cancels, and the
    # Miller path takes over
    return np.sin(x) / (x * x) - np.cos(x) / x


def _miller_offset(n: int) -> int:
    # Downward recurrence must start far enough above n that the admixed
    # growing solution decays below 1e-17 by order n.  Near the turning
    # point x ~ n the decay per order is only ~n^(-1/3), hence the cube
    # root term.
    return 40 + int(16.0 * (max(n, 1) / 2.0) ** (1.0 / 3.0))


# Below this one series term x^n/(2n+1)!! is exact to double precision
# (the first correction is x^2/(2(2n+3)) < 1e-16).  Miller itself fails
# much further down: it checks the rescale only after each step, so one
# step's growth (2k+1)/x must stay under 1.8e308/1e250 ~ 1.8e58, which
# is guaranteed only for x > (2*start + 1) * 5.6e-59 (2.2e-56 at
# n_max = 100; that table overflows between 1e-56 and 2e-57).
_TINY_ARG = 1e-8


def _sph_sequence_tiny(n_max: int, x: float) -> tuple[np.ndarray, tuple[int, ...]]:
    vals = [1.0]
    flushed = []
    term = 1.0
    for n in range(1, n_max + 1):
        term = term * x / (2 * n + 1)
        if term < UNDERFLOW_FLUSH:
            term = 0.0
            flushed.append(n)
        vals.append(term)
    return np.array(vals), tuple(flushed)


def _sph_sequence_miller(n_max: int, x: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Downward (Miller) evaluation of j_0..j_{n_max} for 0 < x < n_max."""
    start = n_max + _miller_offset(n_max)
    bp = 0.0  # b_{k+1}
    bc = 1.0  # b_k, arbitrary seed
    stored = np.zeros(n_max + 1)
    for k in range(start, -1, -1):
        if k <= n_max:
            stored[k] = bc
        bn = (2 * k + 1) / x * bc - bp
        bp, bc = bc, bn
        if abs(bc) > 1e250:
            # Rescale the stored entries with the running pair (stored[k]
            # is the old bc, now bp), so every entry ends on the final
            # scale.  An entry pushed below the subnormal range becomes
            # 0.0; its value is far under the flush floor.
            bp *= 1e-250
            bc *= 1e-250
            stored[k:] *= 1e-250
    # Normalize against whichever of j_0, j_1 is farther from a zero;
    # near x = k*pi (k >= 1) the j_0 ratio loses all significance.  Below
    # x = 1 the sine is small too, but there sin(x)/x stays near 1 and
    # j_0 is the well-conditioned anchor.
    if abs(np.sin(x)) >= 0.1 or x <= 1.0 or n_max < 1:
        ratio = _sph_j0(x) / stored[0]
    else:
        ratio = _sph_j1(x) / stored[1]
    vals = stored * ratio
    # For orders beyond x the function is strictly positive, so a
    # magnitude under the floor there means decay underflowed, not a
    # zero crossing.
    deep = (np.arange(n_max + 1) > x) & (np.abs(vals) < UNDERFLOW_FLUSH)
    flush = deep | ~np.isfinite(vals)
    vals[flush] = 0.0
    return vals, tuple(np.flatnonzero(flush).tolist())


def _sph_sequence_upward(n_max: int, x):
    # stable for x >= max(n_max, 1); x may be an array, orders along axis 0
    out = [_sph_j0(x)]
    if n_max >= 1:
        out.append(_sph_j1(x))
    for k in range(1, n_max):
        out.append((2 * k + 1) / x * out[k] - out[k - 1])
    return np.array(out)


def spherical_jn_sequence(n_max: int, x: float) -> RealSequence:
    """j_0(x) .. j_{n_max}(x) at one x >= 0.

    Upward recurrence when x >= n_max (stable there), Miller downward
    recurrence otherwise, normalized against j_0 = sin(x)/x (or j_1 when
    x sits near a zero of the sine).  Entries that would land below 1e-300
    come back as 0.0 with their index recorded in ``flushed``.
    """
    if n_max < 0:
        raise ValueError(f"negative order: n_max={n_max}")
    x = float(x)
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and nonnegative: x={x!r}")
    if x == 0.0:
        vals = np.zeros(n_max + 1)
        vals[0] = 1.0
        return RealSequence(values=vals)
    if x < _TINY_ARG:
        vals, flushed = _sph_sequence_tiny(n_max, x)
        return RealSequence(values=vals, flushed=flushed)
    if x >= n_max:
        return RealSequence(values=_sph_sequence_upward(n_max, x))
    vals, flushed = _sph_sequence_miller(n_max, x)
    return RealSequence(values=vals, flushed=flushed)


def spherical_jn(n: int, x):
    """Spherical Bessel function j_n(x), x >= 0, scalar or array.

    An array recurs upward once over all x >= max(n, 1) and takes the rest
    one point at a time; each entry equals the scalar call bit for bit.
    """
    if n < 0:
        raise ValueError(f"negative order: n={n}")
    if np.ndim(x) == 0:
        return float(spherical_jn_sequence(n, x).values[n])
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & np.isfinite(x)):
        raise ValueError("array x holds a negative or non-finite entry")
    out = np.empty(x.shape)
    up = x >= max(n, 1)
    out[up] = _sph_sequence_upward(n, x[up])[n]
    for i in np.flatnonzero(~up):
        out.flat[i] = spherical_jn_sequence(n, x.flat[i]).values[n]
    return out


# ----------------------------------------------------------------------------
# J_0: Cephes rational fit in x^2 up to |x| = 5, Hankel asymptotic form
# beyond.  Both coefficient sets are the classic Cephes minimax fits of
# j0.c (Moshier, 1984-1989 releases).
# ----------------------------------------------------------------------------

_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1

_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ = (  # leading coefficient 1.0 implicit
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_RP = (
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
)
_RQ = (  # leading coefficient 1.0 implicit
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
)
# squares of the first two zeros of J_0, factored out of the fit
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0_small(x):
    """Cephes rational fit in z = x^2; |x| <= 5."""
    z = x * x
    return (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _p1evl(z, _RQ)


def _j0_asymptotic(x):
    """Hankel expansion with Cephes rational fits; x > 5."""
    w = 5.0 / x
    q = w * w
    p = _polevl(q, _PP) / _polevl(q, _PQ)
    qq = _polevl(q, _QP) / _p1evl(q, _QQ)
    xn = x - _PIO4
    val = p * np.cos(xn) - w * qq * np.sin(xn)
    return _SQ2OPI * val / np.sqrt(x)


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Accepts scalars or arrays; NaN and +-inf raise ``ValueError``.
    |x| <= 5 takes Cephes' rational fit in x^2 with the first two zeros
    factored out, |x| > 5 the Hankel asymptotic form.  Largest absolute
    error against 40-digit mpmath, 22000 points per range: 4.4e-16 on
    [0, 5), 2.8e-16 on [5, 12), 1.3e-15 on [12, 500].  A scalar goes
    straight to its branch in Python floats, with no array and no masks
    (3-5 us at x = 2, 5-8 us at x = 8 and x = 100, 2-vCPU Xeon), and
    equals the array entry bit for bit.
    """
    if np.ndim(x) == 0:
        ax = abs(float(x))
        if not math.isfinite(ax):
            raise ValueError(f"J_0 argument must be finite: x={x!r}")
        return float(_j0_small(ax) if ax <= 5.0 else _j0_asymptotic(ax))
    arr = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("array x holds a non-finite entry")
    out = np.empty_like(arr)
    small = arr <= 5.0
    if np.any(small):
        out[small] = _j0_small(arr[small])
    if np.any(~small):
        out[~small] = _j0_asymptotic(arr[~small])
    return out
