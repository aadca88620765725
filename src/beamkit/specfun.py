"""Special functions: Legendre polynomials, spherical Bessel j_n, and J_0.

Everything here is self-contained (no scipy dependency).  Accuracy targets:
Legendre values are exact to rounding via the three-term recurrence,
spherical j_n is good to ~1e-12 relative over n <= 250, x <= 200, and J_0
holds 1.3e-15 absolute over |x| <= 500 (5e-16 up to |x| = 12).

P_n and j_n are computed here and nowhere else.  Sequences are float64
arrays, orders along axis 0.  ``legendre_p``, ``legendre_p_sequence`` and
``spherical_jn`` also take an array x.  A scalar x recurs in Python floats:
on one abscissa that is an order of magnitude faster than numpy rows (P_0
.. P_70: 20-22 us vs 280-320 us on a 2-vCPU Xeon, numpy 2.4), and the
partial-wave series route calls it per point.  An array x takes the same
recurrence once for all its entries, five ufunc calls a step: the
triple-Legendre batch sweeps its 120 cosines to n = 4000 in one call
(29-33 ms, against 125-133 ms for one Python-float sweep per cosine).
The final clamp to [-1, 1] is ``np.minimum`` of ``np.maximum``,
``np.clip`` bit for bit at about half its cost.  The Miller sweep for j_n
recurs in Python floats too: it keeps its entries in a list and rescales
them as an array once it ends (j_0 .. j_60 at x = 20: 21-35 us, where
storing each entry into an array took 37-41 us).  An array x below n
takes the same sweep once for all its entries, two ufunc calls a step;
below 1e-8, x = 0 included, j_n is the series' leading term, in one pass.
J_0 is two Cephes rational fits, one per branch, each a fixed handful of
multiply-adds.  A scalar runs them in Python floats, bit for bit equal to
the array entry and an order of magnitude faster than a one-element array
(x = 2: 3-5 us vs 50-55 us; x = 100: 5-8 us vs 83-100 us); the direct
route calls it per point.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
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
    if not (np.abs(x) <= 1.0 + _DOMAIN_SLACK).all():
        raise ValueError("legendre argument out of range in array x")
    # minimum of maximum is np.clip bit for bit, at under half its cost
    x = np.maximum(x, -1.0)
    return np.minimum(x, 1.0, out=x)


def legendre_p(n: int, x):
    """Legendre polynomial P_n(x) for x in [-1, 1], scalar or array.

    Bonnet recurrence, exact to rounding.  Arguments within 1e-12 outside
    the unit interval are clamped; anything further out raises.  An array
    is swept in blocks of about 2^20 / (n + 1) entries, so no table of the
    sweep passes 8 MiB; columns are independent, so every entry is the one
    sweep's bit for bit.
    """
    # an exact int >= 0 passes on the first test, which costs nothing per
    # call; the same fast path opens each entry point here
    if type(n) is not int or n < 0:
        n = _as_order(n, "Legendre order")
    if np.ndim(x) == 0:
        return float(legendre_p_sequence(n, x)[n])
    x = np.asarray(x, dtype=float)
    return _row_in_blocks(legendre_p_sequence, n, x.ravel(),
                          (1 << 20) // (n + 1)).reshape(x.shape)


def _as_order(n, what: str, least: int = 0) -> int:
    """An order as an int, the package's one check of one: a bool, a
    non-integer or a value under ``least`` is refused, a numpy int
    converted, so that no sum with it wraps around in a small dtype."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{what} must be an int >= {least}: {n!r}")
    return int(n)


def _row_in_blocks(sweep, n: int, x: np.ndarray, cols: int) -> np.ndarray:
    """Row n of ``sweep(n, block)`` over blocks of ``cols`` entries of the
    1-D x, each row copied out: one block's table is alive at a time, and
    columns are independent, so every entry is the one sweep's."""
    cols = max(1, cols)
    out = np.empty(x.size)
    for i in range(0, x.size, cols):
        out[i:i + cols] = sweep(n, x[i:i + cols])[n]
    return out


def legendre_p_sequence(n_max: int, x) -> np.ndarray:
    """All of P_0(x) .. P_{n_max}(x) in one upward sweep, x scalar or array.

    A float64 array, orders along axis 0.  ``n_max`` is an int: a bool or
    a float is refused, a numpy int accepted.
    """
    if type(n_max) is not int or n_max < 0:
        n_max = _as_order(n_max, "Legendre order")
    x = _clamp_unit(x)
    # a scalar stays a Python float throughout (see the module docstring);
    # _clamp_unit returns one for every scalar input
    out = [1.0 if isinstance(x, float) else np.ones_like(x), x][:n_max + 1]
    pm, pc = out[0], x
    k = 1.0  # a float counter: exact, and cheaper per step than an int
    for _ in range(1, n_max):
        pm, pc = pc, ((k + k + 1.0) * x * pc - k * pm) / (k + 1.0)
        out.append(pc)
        k += 1.0
    out = np.array(out)
    return np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)


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


def _sph_sequence_tiny(n_max: int, x) -> np.ndarray:
    # x^n/(2n+1)!! for x a float or an array, orders along axis 0.  The
    # terms fall with n, so one flush at the end zeroes the same entries
    vals = [np.ones_like(x)]
    for n in range(1, n_max + 1):
        vals.append(vals[-1] * x / (2 * n + 1))
    vals = np.array(vals)
    vals[vals < UNDERFLOW_FLUSH] = 0.0
    return vals


def _sph_sequence_miller(n_max: int, x: float) -> np.ndarray:
    """Downward (Miller) evaluation of j_0..j_{n_max} for 0 < x < n_max."""
    start = n_max + _miller_offset(n_max)
    bp = 0.0  # b_{k+1}
    bc = 1.0  # b_k, arbitrary seed
    # 2k + 1 as a float counter: exact in a double, and cheaper per step
    # than int arithmetic.  Orders above n_max only run the recurrence in.
    two_k1 = 2.0 * start + 1.0
    for _ in range(start - n_max):
        bp, bc = bc, two_k1 / x * bc - bp
        two_k1 -= 2.0
        if bc > 1e250 or bc < -1e250:
            bp *= 1e-250
            bc *= 1e-250
    # b_{n_max} .. b_0 as Python floats: a list append costs a fraction
    # of a store into an array, and the recurrence is a scalar loop anyway
    stored = []
    rescaled = []  # len(stored) at each rescale
    for _ in range(n_max + 1):
        stored.append(bc)
        bp, bc = bc, two_k1 / x * bc - bp
        two_k1 -= 2.0
        if bc > 1e250 or bc < -1e250:
            bp *= 1e-250
            bc *= 1e-250
            rescaled.append(len(stored))
    # Rescale the entries stored before each rescale of the running pair,
    # in the order the rescales came, so every entry ends on the final
    # scale.  An entry pushed below the subnormal range becomes 0.0; its
    # value is far under the flush floor.
    stored = np.array(stored)
    for size in rescaled:
        stored[:size] *= 1e-250
    stored = stored[::-1]
    # Normalize against whichever of j_0, j_1 is farther from a zero;
    # near x = k*pi (k >= 1) the j_0 ratio loses all significance.  Below
    # x = 1 the sine is small too, but there sin(x)/x stays near 1 and
    # j_0 is the well-conditioned anchor.  x > 0 here, so j_0 is the
    # plain quotient.
    sin_x = np.sin(x)
    if abs(sin_x) >= 0.1 or x <= 1.0 or n_max < 1:
        ratio = sin_x / x / stored[0]
    else:
        ratio = _sph_j1(x) / stored[1]
    # Every stored entry is finite (rescaled under 1e250), so only the
    # ratio can make the table non-finite, and then every entry is.
    if not math.isfinite(ratio):
        return np.zeros(n_max + 1)
    vals = stored * ratio
    # For orders beyond x the function is strictly positive, so a
    # magnitude under the floor there means decay underflowed, not a
    # zero crossing.
    deep = vals[int(x) + 1:]
    deep[np.abs(deep) < UNDERFLOW_FLUSH] = 0.0
    return vals


def _sph_miller_columns(n_max: int, x: np.ndarray) -> np.ndarray:
    """The sweep of ``_sph_sequence_miller`` for a 1-D array x, every entry
    in (0, n_max), as one downward recurrence over all columns.

    Orders along axis 0; each column equals the scalar table bit for bit.
    The steps, the rescale of a column past 1e250, the j_0/j_1 anchor, the
    zeros for a non-finite ratio and the flush past int(x) are the scalar
    ones, taken per column.
    """
    start = n_max + _miller_offset(n_max)
    # (2k + 1)/x for k = 0 .. start, each the scalar's quotient
    coef = (2.0 * np.arange(start + 1.0) + 1.0)[:, None] / x
    # b[k + 1] holds b_k for k = -1 .. start + 1, seeded b_{start+1} = 0,
    # b_start = 1.  The recurrence runs in place, so a row read later is
    # the scalar's running pair and the rows below n_max + 1 its stored
    # entries: a rescale scales a column's rows from the newest up, which
    # applies each stored entry's later rescales in the scalar's order.
    b = np.empty((start + 3, x.size))
    b[start + 2] = 0.0
    b[start + 1] = 1.0
    rows, coefs = list(b), list(coef)
    # Step k multiplies a pair bounded by `big` by at most grow_k =
    # (coef_max[k] + 1) (1.001 covers the rounding), and grow_k falls
    # with k, so the int(log(1e250/big)/log(grow_k)) - 1 steps after a
    # check cannot need a rescale and skip the test.  Two ufunc calls a
    # step remain; the test would cost twice that.
    coef_max = coef[:, np.argmin(x)].tolist()
    unchecked = 0
    for k in range(start, -1, -1):
        row = rows[k]
        np.multiply(coefs[k], rows[k + 1], row)
        np.subtract(row, rows[k + 2], row)
        if unchecked:
            unchecked -= 1
            continue
        # the older entry of the pair is under 1e250 already
        big = float(np.abs(b[k:k + 2]).max())
        if big > 1e250:
            b[k:, np.abs(row) > 1e250] *= 1e-250
            big = float(np.abs(b[k:k + 2]).max())
        unchecked = max(int(math.log(1e250 / max(big, 1e-300))
                            / math.log((coef_max[k] + 1.0) * 1.001)) - 1, 0)
    stored = b[1:n_max + 2]
    sin_x = np.sin(x)
    # 0 < x < n_max, so n_max >= 1 and the j_1 anchor is always there
    by_j1 = (np.abs(sin_x) < 0.1) & (x > 1.0)
    ratio = (np.where(by_j1, _sph_j1(x), sin_x / x)
             / np.where(by_j1, stored[1], stored[0]))
    vals = stored * ratio
    vals[:, ~np.isfinite(ratio)] = 0.0
    deep = np.arange(n_max + 1.0)[:, None] > x
    vals[deep & (np.abs(vals) < UNDERFLOW_FLUSH)] = 0.0
    return vals


def _sph_sequence_upward(n_max: int, x):
    # stable for x >= max(n_max, 1); x may be an array, orders along axis 0
    out = [_sph_j0(x)]
    if n_max >= 1:
        out.append(_sph_j1(x))
    for k in range(1, n_max):
        out.append((2 * k + 1) / x * out[k] - out[k - 1])
    return np.array(out)


def spherical_jn_sequence(n_max: int, x: float) -> np.ndarray:
    """j_0(x) .. j_{n_max}(x) at one x >= 0, as a float64 array.

    Upward recurrence when x >= n_max (stable there), Miller downward
    recurrence otherwise, normalized against j_0 = sin(x)/x (or j_1 when
    x sits near a zero of the sine).  Entries that would land below 1e-300
    come back as 0.0.  ``n_max`` is an int: a bool or a float is
    refused, a numpy int accepted.
    """
    if type(n_max) is not int or n_max < 0:
        n_max = _as_order(n_max, "spherical Bessel order n_max")
    x = float(x)
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and nonnegative: x={x!r}")
    if x < _TINY_ARG:
        return _sph_sequence_tiny(n_max, x)
    if x >= n_max:
        return _sph_sequence_upward(n_max, x)
    return _sph_sequence_miller(n_max, x)


def spherical_jn(n: int, x):
    """Spherical Bessel function j_n(x), x >= 0, scalar or array.

    An array takes one upward sweep over its entries at or above n, one
    downward (Miller) sweep over those in [1e-8, n) and one pass of the
    leading series term over those under 1e-8; a path with no entry is
    not run.  Each path sweeps its entries in blocks, so the memory it
    holds does not grow with the array.  Each entry equals the scalar call
    bit for bit.
    The downward sweep costs about as much as 15-25 scalar calls, almost
    whatever the array's size, so it pays from about 16 (n <= 20) to 25
    (n = 100) entries below n.  On a 2-vCPU Xeon, numpy 2.4: 8 entries
    take 0.2-0.6 ms against 0.1-0.2 ms one at a time, and 1000 entries
    0.6-5.6 ms against 9-38 ms, for n = 1-100.  ``n`` is an int: a bool
    or a float is refused, a numpy int accepted.
    """
    if type(n) is not int or n < 0:
        n = _as_order(n, "spherical Bessel order n")
    if np.ndim(x) == 0:
        return float(spherical_jn_sequence(n, x)[n])
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & np.isfinite(x)):
        raise ValueError("array x holds a negative or non-finite entry")
    out = np.empty(x.shape)
    # the entries the scalar call sends upward: x >= n past the tiny band
    up = x >= max(n, _TINY_ARG)
    tiny = x < _TINY_ARG
    # blocks keep each table of a sweep under 8 MB, or 16 MB for the
    # Miller sweep's start + 3 rows
    cols = (1 << 20) // (n + 1)
    for path, sweep, block in ((up, _sph_sequence_upward, cols),
                               (tiny, _sph_sequence_tiny, cols),
                               (~(up | tiny), _sph_miller_columns,
                                (1 << 21) // (n + _miller_offset(n) + 3))):
        if path.any():
            out[path] = _row_in_blocks(sweep, n, x[path], block)
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
