"""Quadrature engines.

Three layers:

* ``integrate_finite``: nested Clenshaw-Curtis rules on a finite interval,
  doubled in size until the claim of the last one is under the tolerance.
  ``_clenshaw_curtis`` takes a table of rows on one rule of a given size,
  and ``_segment_and_rays`` its segment [0, a] on equal panels of one
  size; all three read ``_cc_rule``, the package's one finite-interval
  rule.
* ``integrate_oscillatory_infinite``: symmetric improper integrals of slowly
  decaying oscillatory integrands, optionally times a plane-wave carrier
  ``exp(i*c*x)``, done as expanding half-period cell pairs fed into one
  sequence accelerator, Wynn's epsilon algorithm, which removes a tail that
  alternates cell to cell; a tail that does not alternate is flagged, not
  extrapolated.  The integrand is assumed band-limited: at most twice the
  frequency of ``period_hint``, times the carrier.  Each cell is cut into
  the fewest K15 sub-panels of half-width h with ``w_max*h <= 3*pi/2`` for
  that highest frequency ``w_max``: at most one per half-period for every
  carrier up to 1.
* ``regularized_j0_fourier``: closed form for the exponentially regularized
  J_0 Fourier integral, used as an oracle by the wavepacket checks.

Integrands are called with numpy arrays of abscissae and must evaluate
elementwise.  ``_k15_nodes`` is the one place that lays out Gauss-Kronrod
nodes.  ``_segment_and_rays`` is the one quadrature that takes a line
integral of a real integrand of known parity with a carrier
``exp(i*c*x)``, |c| < 1.  It integrates only the half line past the
centre of symmetry, on equal Clenshaw-Curtis panels over [0, a] and past
a on K15 panels up and down two vertical steepest-descent rays laid out
by ``_ray_edges`` (Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44,
2006), and gets the other half as the mirror image times the parity.
Its two callers, the integral route and the Fourier-pair check, take it
where a slow beat would stall the cells, and pass only their integrand on
the segment, its up part on the rays, a, the parity and a chord for the
ray layout.
In ``integrate_finite`` each rule makes one integrand call, and so does
each step of the cell loop: a batch of whole cell pairs, both sides of
each, up to about ``_BATCH_NODES`` nodes (one pair when a pair alone
holds more).  The cell loop lays out cell 0 once and shifts its nodes by
the cell offsets, so a carrier folds into fixed weights and costs one
phase per cell pair instead of one complex exponential per node; the
cells of a batch are summed by one real matrix product against the
weights' real and imaginary parts and then fed to the accelerator one by
one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import cmath
import functools
import math

import numpy as np

from .specfun import _as_order

__all__ = [
    "QuadratureResult",
    "integrate_finite",
    "integrate_oscillatory_infinite",
    "regularized_j0_fourier",
]

_EPMACH = float(np.finfo(float).eps)
_OFLOW = float(np.finfo(float).max)
_COFLOW = complex(_OFLOW)
_EPS5 = 5.0 * _EPMACH  # rounding floor of an extrapolated value, per |value|
# nodes per integrand call of the cell loop: whole cell pairs up to this
# many, and one pair when a single pair holds more
_BATCH_NODES = 2048
# most nodes on one side of a cell; a faster carrier is refused
_MAX_CELL_NODES = 65536
# K15 panels on a vertical ray: omega*h for the highest local frequency
# omega, where G7 is within about 3e-13 per unit length of K15
_PANEL_WH = 1.5
# most bandwidth (1 + |c|) width / 2 of one Clenshaw-Curtis panel of a
# segment [0, a]
_PANEL_BAND = 1024.0
# a ray ends where its integrand times its decay length is below this
_RAY_CUT = 1e-3 * _EPMACH
# a ray panel widens by the fall of |f| since the ray's start to this power
_GROW_POWER = 1.0 / 15.0
# nodes per integrand call of the segment-and-rays quadrature
_CHUNK_NODES = 32768


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a quadrature routine.

    ``converged`` is only set when ``error_estimate`` came in at or under
    the requested tolerance.
    """

    value: complex
    error_estimate: float
    n_evals: int
    converged: bool


# a layout refused before any evaluation
_REFUSED = QuadratureResult(value=0j, error_estimate=_OFLOW, n_evals=0,
                            converged=False)

# ----------------------------------------------------------------------------
# Gauss-Kronrod 7/15 tables (QUADPACK dqk15 abscissae/weights).
# ----------------------------------------------------------------------------

_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout, ascending; Gauss-7 points sit at the odd slots.
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG7 = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])
# K15 weights and K15 - G7 weights, as the columns of one matrix
_WKD = np.column_stack([_WK15, _WK15])
_WKD[1::2, 1] -= _WG7


def _k15_nodes(a, b):
    """K15 layout of the panels [a[i], b[i]]: (h, x), the half-widths and
    the (panels, 15) table of abscissae."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    return h, (0.5 * (a + b))[:, None] + h[:, None] * _NODES


def _ray_edges(a: float, beta2: float, rate: float,
               limit: float = math.inf) -> list:
    """Panel edges in s on the vertical ray z = a +- i*s (a > 0) of a part
    e^{+-iR}/(2R), R = sqrt(z^2 + beta2), that decays at ``rate`` with its
    carrier, out to where it is negligible, or as soon as there are more
    than ``limit`` panels.  A negative beta2 = -nu^2 (a > nu) puts the
    branch points of R on the real axis at +-nu."""
    if beta2 >= 0.0:
        near_a, near_s = a, math.sqrt(beta2)
    else:
        near_a, near_s = a - math.sqrt(-beta2), 0.0
    cut = _RAY_CUT * 2.0 * rate
    wide = 2.0 * _PANEL_WH
    # at s = 0, R = sqrt(a^2 + beta2) and q are real: |2R f| = 1
    r0 = math.sqrt(a * a + beta2)
    s = 0.0
    edges = [s]
    while True:
        z = complex(a, s)
        r = cmath.sqrt(z * z + beta2)
        q = beta2 / (r + z)
        # |e^{+-i q - rate s} / (2R)| is the same on either ray; past the
        # saddle it only falls, so the rest of the ray adds at most this
        # over its decay length 1/rate
        decay = math.exp(-rate * s - q.imag)
        abs_r = abs(r)
        if decay <= cut * abs_r:
            return edges
        # a panel resolves the local frequency rate + |q/R| and keeps well
        # away from the nearer branch point of R.  Where |f| has fallen by
        # F since s = 0 it widens by F^(1/15): K15 - G7 goes like h^15
        # times a 14th derivative that has fallen with |f|, so no panel's
        # estimate exceeds the first one's
        grow = (abs_r / (r0 * decay)) ** _GROW_POWER
        s += min(0.4 * math.hypot(near_a, s - near_s),
                 wide * grow / (rate + abs(q / r)))
        edges.append(s)
        if len(edges) > limit + 1:
            return edges


def _segment_and_rays(f: Callable, ray_f: Callable, a: float, m: float,
                      c: float, delta: float, beta2: float, parity: float,
                      tol: float, budget: int) -> QuadratureResult:
    """Int f(lambda - m) e^{i c lambda} dlambda over the line, for a real f
    of parity p (f(-u) = p f(u)) and |c| = 1 - delta < 1 (delta given
    without cancellation).

    In u = lambda - m the integral is e^{i c m} (Z + p conj(Z)) with
    Z = Int_0^inf f(u) e^{i c u} du, so only the half line u >= 0 is
    integrated.  [0, a] is cut into the fewest equal panels whose
    bandwidth (1 + |c|) width / 2 is at most ``_PANEL_BAND``, each on the
    nodes of ``_cc_rule(n)``, the Clenshaw-Curtis rule of size 2n, with n
    1.1 times that bandwidth plus 16, rounded up to a multiple of 8; f is
    called with flat arrays of u, which it may overwrite.  An entire f
    makes each panel converge geometrically once its size passes the
    bandwidth (Trefethen, SIAM Rev. 50 (2008) 67-87).  Past a each part
    e^{i(c u +- R)} of the integrand goes up or down the vertical ray
    z = a +- i*s, laid out by ``_ray_edges`` for R = sqrt(z^2 + beta2),
    where it decays like e^{-(1 +- c) s}.  ``ray_f(z, rate_s)`` gives the
    up part, times i from dz = i ds and without its phase e^{i c a}
    e^{i a}, on a (panels, 15) table of z = a + i*s and the table of
    rate*s; the down part at a - i*s is its conjugate at the same rate.
    The error claim is twice that of Z: each segment panel's distance to
    the rule of size n on its even-indexed nodes, the K15 - G7 difference
    of every ray panel, and eps times the absolute sums, each node
    weighted by the size of its phase.  A layout of more than ``budget``
    nodes is refused before any evaluation, with n_evals = 0; each ray's
    layout stops as soon as it passes the K15 panels left in the budget.
    """
    # the segment alone takes more than 2.2 band nodes (a NaN band, from
    # an overflowed a, is refused too).  Each panel takes _cc_rule(n), n
    # rounded up to a multiple of 8 so that sizes repeat in the cache of
    # _cc_panel
    band = 0.5 * (1.0 + abs(c)) * a
    if not 2.2 * band <= budget:
        return _REFUSED
    n_seg = math.ceil(band / _PANEL_BAND)
    grid, w_diff = _cc_panel(8 * math.ceil(1.1 * band / (8 * n_seg) + 2.0))
    size = len(w_diff)
    # the right tail's parts: up at rate 1 + c, down at 1 - c, without
    # cancellation
    one_minus, one_plus = ((delta, 2.0 - delta) if c > 0
                           else (2.0 - delta, delta))
    left = (budget - n_seg * size) // 15
    up = _ray_edges(a, beta2, one_plus, left)
    down = _ray_edges(a, beta2, one_minus, left - len(up) + 1)
    n_evals = n_seg * size + 15 * (len(up) + len(down) - 2)
    if n_evals > budget:
        return _REFUSED

    # e^{i c u} with c = sign*(1 - delta) taken apart: a rounded c would
    # shift the slow phase (c -+ 1)*u by about eps*a, alike over the whole
    # segment
    sign_c = math.copysign(1.0, c)

    def carrier(u, exp=cmath.exp):
        return exp((1j * sign_c) * u) * exp((-1j * sign_c * delta) * u)

    # the segment, in chunks that all share one layout: a node is the
    # chunk's start plus a fixed offset, rounded once, and its phase is the
    # start's times the offset's.  One carrier call takes the phases of
    # the nodes x0 of [0, width] and of the offsets; those of x0 fold into
    # the weights of the rule and its distance to the rule of size n,
    # whose real and imaginary parts make the (size, 4) real matrix w_parts
    width = a / n_seg
    step = min(grid.size - size, n_seg)
    grid = width * grid[:size + step]
    phase = carrier(grid, np.exp)
    w_parts = ((width * phase[:size])[:, None] * w_diff).view(float)
    local = grid[size:, None] + grid[:size]
    # a node at u carries an argument rounded by eps*|lambda|, and
    # |lambda| <= |m| + u on either half
    weight = grid[size:] + (1.0 + abs(m) + width)
    value, err, absum = 0j, 0.0, 0.0
    for i in range(0, n_seg, step):
        u0 = width * i
        fx = f((u0 + local[:n_seg - i]).ravel()).reshape(-1, size)
        sums = (fx @ w_parts).view(complex)
        value += carrier(u0) * complex(phase[size:][:len(fx)] @ sums[:, 0])
        err += float(np.abs(sums[:, 1]).sum())
        np.abs(fx, out=fx)
        absum += width * float((u0 + weight[:len(fx)]) @ (fx @ w_diff[:, 0]))

    # both rays as rows of one table of z = a + i*s, the up ray's first:
    # the down ray is mirrored, as its part at a - i*s is the conjugate of
    # the up part at a + i*s and the same rate.  Each ray gets its phase
    # e^{i sign rate a} and its rounding weight 1 + rate*a
    k = len(up) - 1
    lo, hi = up[:-1] + down[:-1], up[1:] + down[1:]
    rate = np.full((len(lo), 1), one_minus)
    rate[:k] = one_plus
    up_sum, down_sum, up_abs, down_abs = 0j, 0j, 0.0, 0.0
    chunk = _CHUNK_NODES // 15
    for j in range(0, len(lo), chunk):
        h, s = _k15_nodes(lo[j:j + chunk], hi[j:j + chunk])
        fx = ray_f(a + 1j * s, rate[j:j + chunk] * s)
        kd = h[:, None] * (fx @ _WKD)
        fa = h * (np.abs(fx) @ _WK15)
        t = min(max(k - j, 0), len(h))
        up_sum += complex(kd[:t, 0].sum())
        down_sum += complex(kd[t:, 0].sum())
        up_abs += float(fa[:t].sum())
        down_abs += float(fa[t:].sum())
        err += float(np.abs(kd[:, 1]).sum())
    value += (cmath.exp(1j * one_plus * a) * up_sum
              + (cmath.exp(1j * one_minus * a) * down_sum).conjugate())
    absum += (1.0 + one_plus * a) * up_abs + (1.0 + one_minus * a) * down_abs
    # Z + p conj(Z) is off by at most twice Z's error
    value = carrier(m) * (value + parity * value.conjugate())
    err = 2.0 * (err + _EPMACH * absum)
    return QuadratureResult(value=value, error_estimate=err, n_evals=n_evals,
                            converged=bool(err <= tol))


# most nodes of one Clenshaw-Curtis rule, refused before any evaluation: a
# bandwidth of about 30,000 on [-1, 1], at about a millisecond a table row.
# ``integrate_finite`` doubles up to the last size under it, 2N = 2^15
# (32,769 nodes, each evaluated once)
_CC_NODES = 60015
# most entries of the (rows, nodes) table of a Clenshaw-Curtis call
_CC_TABLE = 1 << 22
# the rounding floor of a claim, per unit of sum(w |f|)
_CC_FLOOR = 64.0 * _EPMACH


@functools.lru_cache(maxsize=32)
def _cc_rule(n: int):
    """The Clenshaw-Curtis rule of size 2n on [-1, 1], n >= 2: its 2n + 1
    nodes -cos(k pi / 2n), ascending, its weights, and the weights of the
    rule of size n, whose nodes are the even-indexed ones.  Weights from
    one FFT each (Waldvogel, BIT 46 (2006) 195-202)."""
    def weights(m):
        odd = np.arange(1, m, 2)
        v = np.zeros(m + 1)
        v[:odd.size] = 2.0 / (odd * (odd - 2.0))
        v[odd.size] = 1.0 / odd[-1]
        g = np.full(m, -1.0)
        g[odd.size] += m
        g[m - odd.size] += m
        w = np.fft.ifft(g / (m * m - 1 + m % 2) - v[:-1] - v[:0:-1]).real
        return np.append(w, w[0])

    k = np.arange(2 * n + 1)
    # sin of the angle off the middle node: exactly odd about it
    out = (np.sin(np.pi * (k - n) / (2 * n)), weights(2 * n), weights(n))
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _cc_panel(n: int):
    """The rule of size 2n as ``_segment_and_rays`` lays out a chunk of
    panels of width 1: its nodes on [0, 1], then the panels' offsets 0, 1,
    ... up to ``_CHUNK_NODES`` nodes; and the (2n + 1, 2) matrix of its
    weights on [0, 1] and their distance to the weights of the rule of
    size n, read-only."""
    x, w, w_half = _cc_rule(n)
    w_diff = np.column_stack([w, w])
    w_diff[::2, 1] -= w_half
    out = (np.append(0.5 + 0.5 * x, np.arange(_CHUNK_NODES // x.size)),
           0.5 * w_diff)
    for a in out:
        a.setflags(write=False)
    return out


def _cc_sums(fx, n: int):
    """(value, claim, floor) of the rows of fx, f on the nodes of
    ``_cc_rule(n)``: the rule's value, its distance to the rule of size n
    plus the rounding floor 64 eps sum(w |f|), and that floor."""
    _, w_fine, w_coarse = _cc_rule(n)
    value = fx @ w_fine
    floor = _CC_FLOOR * (np.abs(fx) @ w_fine)
    return value, np.abs(fx[..., ::2] @ w_coarse - value) + floor, floor


def _clenshaw_curtis(f, orders: range, size: float, tol: float) -> list:
    """One QuadratureResult per order in ``orders``: the integral over
    [-1, 1] of its row of the table f(nodes), on the rule of size 2N,
    N = ceil(size) but at least 2, with the claim of ``_cc_sums`` and
    n_evals = 2N + 1.  f may build the rows of every order from 0 up.
    Past ``_CC_NODES`` nodes, or past ``_CC_TABLE`` orders times nodes,
    f is not called and every row comes back converged=False with
    n_evals = 0.
    """
    # size first, as a float: an infinite one has no ceiling
    n = max(2, math.ceil(size)) if size <= _CC_NODES // 2 else _CC_NODES
    if 2 * n + 1 > _CC_NODES or (orders[-1] + 1) * (2 * n + 1) > _CC_TABLE:
        return [_REFUSED] * len(orders)
    value, err, _ = _cc_sums(f(_cc_rule(n)[0]), n)
    return [QuadratureResult(value=complex(v), error_estimate=float(e),
                             n_evals=2 * n + 1, converged=bool(e <= tol))
            for v, e in zip(value.tolist(), err.tolist())]


def integrate_finite(f: Callable, a: float, b: float,
                     tol: float = 1e-10) -> QuadratureResult:
    """Integral of f over the finite interval [a, b] by nested
    Clenshaw-Curtis rules.

    The rules of sizes 2N = 16, 32, 64, ... on [a, b] are taken in turn,
    one call of f each: on all 17 nodes of the first, endpoints included,
    then on the N nodes a rule adds to the one before, whose values it
    keeps; ``n_evals`` counts every node evaluated, the last rule's 2N + 1.
    The claim of a size is the distance to the rule of size N, on its
    even-indexed nodes, plus a rounding floor of 64 eps sum(w |f|), and
    the first size whose claim is at most ``tol`` (absolute) is returned.
    Once the floor alone is past ``tol`` no larger rule can meet it, so
    the call stops there; so it does, flagged, at the largest size within
    ``_CC_NODES`` nodes, 2N = 2^15.  An entire integrand converges
    geometrically once 2N passes its bandwidth (Trefethen, SIAM Rev. 50
    (2008) 67-87); a jump costs the whole 32,769 evaluations and comes
    back ``converged=False``.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"endpoints must be finite: a={a!r}, b={b!r}")
    if a > b:
        raise ValueError(f"reversed interval: a={a!r} > b={b!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive: {tol!r}")
    if a == b:
        return QuadratureResult(value=0j, error_estimate=0.0, n_evals=0, converged=True)

    # halves first: b - a may overflow; a node rounded past an end is put
    # back on it
    mid, half = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
    n = 8
    fx = np.asarray(f(np.clip(mid + half * _cc_rule(n)[0], a, b)),
                    dtype=complex)
    n_evals = fx.size
    while True:
        value, err, floor = _cc_sums(fx, n)
        err, floor = half * float(err), half * float(floor)
        if err <= tol or floor > tol or 4 * n + 1 > _CC_NODES:
            return QuadratureResult(value=half * complex(value),
                                    error_estimate=err, n_evals=n_evals,
                                    converged=bool(err <= tol))
        # the rule of size 4N keeps those of size 2N as its even-indexed
        # nodes, bit for bit: f is called on the odd-indexed ones alone
        n *= 2
        x = np.clip(mid + half * _cc_rule(n)[0][1::2], a, b)
        kept, fx = fx, np.empty(2 * n + 1, dtype=complex)
        fx[::2], fx[1::2] = kept, f(x)
        n_evals += x.size


# ----------------------------------------------------------------------------
# Sequence accelerator for the improper oscillatory integral.
# ----------------------------------------------------------------------------

class _Epsilon:
    """Wynn epsilon table for complex sequences (QUADPACK dqelg port).

    Feed successive partial sums; each call returns the current best
    extrapolation and its error claim (a huge sentinel until the table has
    enough depth to difference three successive results).
    """

    _LIMEXP = 50

    def __init__(self):
        self.tab = [0j] * 56  # 1-based workspace
        self.n = 0
        self.res3la = [0j, 0j, 0j]
        self.nres = 0

    def append(self, s: complex):
        # Lean but bit for bit the dqelg step: ``b if b > a else a`` is
        # ``max(a, b)`` (NaN included), and the two shifts are forward
        # copies from higher indices, so slice copies read the same values.
        t = self.tab
        n = self.n
        if n >= self._LIMEXP + 2:
            # only reachable through repeated machine-accuracy exits (a
            # numerically constant sequence); restart from the tail
            t[1], t[2] = t[n - 1], t[n]
            n = 2
        n += 1
        self.n = n
        t[n] = s
        if n < 3:
            return s, _OFLOW
        epmach = _EPMACH
        result = s
        abserr = _OFLOW
        t[n + 2] = s
        newelm = (n - 1) // 2
        t[n] = _COFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            res = t[k1 + 2]
            e0 = t[k1 - 2]
            e1 = t[k1 - 1]
            e1abs = abs(e1)
            delta2 = res - e1
            err2 = abs(delta2)
            a = abs(res)
            tol2 = (e1abs if e1abs > a else a) * epmach
            delta3 = e1 - e0
            err3 = abs(delta3)
            a = abs(e0)
            tol3 = (a if a > e1abs else e1abs) * epmach
            if err2 <= tol2 and err3 <= tol3:
                # sequence has hit machine accuracy
                a = err2 + err3
                floor = _EPS5 * abs(res)
                return res, (floor if floor > a else a)
            e3 = t[k1]
            t[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            a = abs(e3)
            tol1 = (a if a > e1abs else e1abs) * epmach
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                # two adjacent elements indistinguishable: truncate table
                n = 2 * i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if abs(ss * e1) <= 1e-4:
                # irregular behaviour: truncate
                n = 2 * i - 1
                break
            e2 = res
            res = e1 + 1.0 / ss
            t[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if n == self._LIMEXP:
            n = 2 * (self._LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        ie = ib + 2 * newelm
        t[ib:ie + 1:2] = t[ib + 2:ie + 3:2]
        if num != n:
            indx = num - n + 1
            t[1:n + 1] = t[indx:indx + n]
        self.n = n
        r = self.res3la
        if self.nres < 3:
            r[self.nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - r[2]) + abs(result - r[1])
                      + abs(result - r[0]))
            r[0], r[1], r[2] = r[1], r[2], result
        self.nres += 1
        floor = _EPS5 * abs(result)
        return result, (floor if floor > abserr else abserr)


def integrate_oscillatory_infinite(f: Callable, period_hint: float,
                                   tol: float = 1e-9,
                                   max_cell_pairs: int = 640,
                                   tail_start: float = 0.0, *,
                                   carrier: float = 0.0) -> QuadratureResult:
    """Symmetric improper integral of ``f(x) * exp(i*carrier*x)`` over the line.

    The integral is taken as the limit of symmetric partial integrals over
    [-k*L, k*L] with L a half-period multiple, and the limit reached by
    Wynn's epsilon algorithm.  Epsilon removes a tail whose cells alternate;
    a one-sided tail, such as the non-oscillating ``1/x^2`` part of a
    squared Bessel function, raises the error claim to about
    ``|cell| * k / 2`` and comes back ``converged=False`` at any tight
    ``tol``.  Take such a part out in closed form first, as
    ``identities.jn_norm_integral`` does.  A carrier near f's own frequency
    beats slowly; cells within a beat share a sign, and the call is flagged.

    Cell pairs are evaluated in batches: one call of f holds the right
    sides of ``max(1, _BATCH_NODES // (2*n))`` consecutive cell pairs (n
    nodes a side), then their mirror images, and never reaches past
    ``max_cell_pairs``.  The accelerator still sees one cell at a time, so a
    batch only changes how many cells are evaluated, never where the loop
    stops; ``n_evals`` counts every node evaluated, including the cells of
    the last batch that lie past the stopping cell.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with arrays of abscissae.
    period_hint : float
        Dominant oscillation period of f at large argument; finite, > 0.
        f may carry up to twice this frequency (a squared integrand) and
        nothing faster: the sub-panels are sized for that bandwidth.
    tol : float
        Absolute tolerance on the accelerated limit.
    max_cell_pairs : int
        Budget of symmetric cells, an int >= 1; with the default half-period
        cells this covers per-side ranges up to
        ``max_cell_pairs * period_hint / 2``.
    tail_start : float
        Extrapolation only trusts partial sums whose cells lie beyond this
        (finite) abscissa; the pre-asymptotic head (where the integrand has
        not yet settled into its periodic tail) otherwise poisons the
        epsilon table.
    carrier : float
        Frequency c of a plane-wave factor ``exp(i*c*x)`` that multiplies f.
        f is then evaluated without it: every node of cell k is a node of
        cell 0 shifted by ``k*L``, so the factor folds into cell 0's
        weights once and each cell pair needs one phase ``exp(i*c*k*L)``.
        The default 0 integrates f itself.  The sub-panels shrink as |c|
        grows; a c that would put more than ``_MAX_CELL_NODES`` nodes on
        one side of a cell raises ``ValueError`` before any call of f.

    Each cell is split into equal K15 sub-panels of half-width h, as few
    as keep ``w_max*h <= 3*pi/2`` with ``w_max = 2*(2*pi/period_hint) +
    |carrier|``, the highest frequency of the integrand times its carrier;
    there K15 integrates ``exp(i*w*x)`` to about 6e-17 per unit length.
    For ``|carrier| <= 1`` that is at most one sub-panel per half-period.
    """
    if not 0.0 < period_hint < math.inf:
        raise ValueError(
            f"period_hint must be finite and positive: {period_hint!r}")
    if not math.isfinite(tail_start):
        raise ValueError(f"tail_start must be finite: {tail_start!r}")
    max_cell_pairs = _as_order(max_cell_pairs, "max_cell_pairs", least=1)
    if not tol > 0:
        raise ValueError(f"tol must be positive: {tol!r}")
    if not math.isfinite(carrier):
        raise ValueError(f"carrier must be finite: {carrier!r}")
    half = 0.5 * period_hint
    # sub-panels of half-width h with w_max*h <= 3*pi/2, where K15 still
    # integrates exp(i*w*x) to about 6e-17 per unit length; w_max covers
    # twice the base frequency (a squared integrand) plus the carrier.  The
    # factor under 1 keeps a product that rounds just past an integer from
    # adding a sub-panel.
    w_max = 2.0 * (2.0 * math.pi / period_hint) + abs(carrier)
    need = half * w_max / (3.0 * math.pi) * (1.0 - 4.0 * _EPMACH)
    if 15.0 * need > _MAX_CELL_NODES:
        raise ValueError(
            f"carrier {carrier!r} is too fast for cells of width {half!r}: "
            f"a cell would take more than {_MAX_CELL_NODES} nodes a side")
    panels = max(1, math.ceil(need))
    k0 = math.ceil(tail_start / half) if tail_start > 0 else 0
    # cell 0 (positive side): nodes x0 and the carrier folded into weights
    edges = np.linspace(0.0, half, panels + 1)
    h, x0 = _k15_nodes(edges[:-1], edges[1:])
    x0 = x0.ravel()
    n = x0.size
    w = (h[:, None] * _WK15).ravel() * np.exp(1j * carrier * x0)
    # w as the real (n, 2) matrix [Re w, Im w]: a cell sum is then a real
    # product with two columns, which OpenBLAS keeps on one thread, where a
    # complex matrix-vector product over a near-axis pair (7680 nodes a
    # side) is split across threads and slows down several-fold whenever
    # another process holds the second core
    w_parts = np.column_stack([w.real, w.imag])
    batch = max(1, _BATCH_NODES // (2 * n))

    total = 0j
    n_evals = 0
    eps_tab = _Epsilon()
    best: complex | None = None
    best_err = _OFLOW
    n_fed = 0
    prev_cell: complex | None = None
    same_dir = 0.0  # running cosine between successive cell contributions

    k = 0
    done = False
    while not done and k < max_cell_pairs:
        # cell pairs k .. k+m-1 in one call: their right sides, then the
        # mirror images; cells past a break are evaluated and counted
        ks = np.arange(k, min(k + batch, max_cell_pairs))
        right = (ks * half)[:, None] + x0
        fx = f(np.concatenate([right.ravel(), -right.ravel()]))
        sides = np.asarray(fx).reshape(2, ks.size, n)
        n_evals += 2 * right.size
        sums = sides @ w_parts
        # the left side's carrier is the conjugate of the right side's
        plus = sums[0, :, 0] + 1j * sums[0, :, 1]
        minus = sums[1, :, 0] - 1j * sums[1, :, 1]
        phase = np.exp(1j * carrier * ks * half)
        cells = phase * plus + phase.conj() * minus
        for cell in cells.tolist():
            total += cell
            if prev_cell is not None and cell != 0 and prev_cell != 0:
                # each cell normalized first: the product of two magnitudes
                # under about 1e-162 would underflow to 0
                cosang = ((cell / abs(cell))
                          * (prev_cell / abs(prev_cell)).conjugate()).real
                same_dir = 0.8 * same_dir + 0.2 * cosang
            if k >= k0:
                n_fed += 1
                value, err = eps_tab.append(total)
                if same_dir > 0.3:
                    # one-sided (non-alternating) approach: the remaining
                    # tail is at least ~|cell|*k/2, whatever the epsilon
                    # table says.  Its three-result agreement test is blind
                    # to slow monotone creep, where it happily claims 1e-8
                    # while sitting 1e-4 off.
                    err = max(err, 0.5 * abs(cell) * (k + 1))
                if n_fed >= 4 and err < best_err:
                    # a growing cell magnitude means the integrand is still
                    # waking up; distrust whatever the table claims there
                    growing = (prev_cell is not None
                               and abs(cell) > 4.0 * abs(prev_cell) + 1e-300)
                    if not growing:
                        best, best_err = value, err
                if best_err <= tol:
                    done = True
                    break
            prev_cell = cell
            k += 1

    if best is None:
        return QuadratureResult(value=total, error_estimate=_OFLOW,
                                n_evals=n_evals, converged=False)
    return QuadratureResult(value=best, error_estimate=float(best_err),
                            n_evals=n_evals, converged=bool(best_err <= tol))


# ----------------------------------------------------------------------------
# Regularized Fourier transform of J_0
# ----------------------------------------------------------------------------

def regularized_j0_fourier(a: float, b: float, eps: float) -> float:
    """Closed form of the damped Fourier integral of J_0.

    Evaluates the integral over the whole line of
    ``exp(-eps*|t|) * J_0(a*t) * exp(-i*b*t)``, which equals
    ``2*Re[1/sqrt(a^2 + (eps - i*b)^2)]`` for a >= 0 (J_0(0) = 1), eps > 0.
    As eps drops to zero this tends to 2/sqrt(a^2-b^2) inside |b| < a and
    to 0 outside, which is what makes it a useful independent oracle for
    the sharp-support closed forms.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"a must be finite and nonnegative: {a!r}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite: {b!r}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive: {eps!r}")
    w = complex(eps, -float(b))
    return float((2.0 / np.sqrt(a * a + w * w)).real)
