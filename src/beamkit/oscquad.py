"""Quadrature engines.

Three layers:

* ``integrate_finite``: adaptive Gauss-Kronrod 7/15 on a finite interval,
  classic globally-adaptive bisection with a worst-panel heap.
* ``integrate_oscillatory_infinite``: symmetric improper integrals of slowly
  decaying oscillatory integrands, optionally times a plane-wave carrier
  ``exp(i*c*x)``, done as expanding half-period cell pairs fed into two
  sequence accelerators (Wynn epsilon and a polynomial extrapolation in 1/n
  on a geometric node schedule).
* ``regularized_j0_fourier``: closed form for the exponentially regularized
  J_0 Fourier integral, used as an oracle by the wavepacket checks.

Integrands are called with numpy arrays of abscissae and must evaluate
elementwise.  ``_k15_nodes`` is the one place that lays out Gauss-Kronrod
nodes, and each quadrature step makes one integrand call: the first panel
or both children of a bisection (through ``_k15``), or a batch of whole
cell pairs, both sides of each, up to about ``_BATCH_NODES`` nodes (one pair
when a pair alone holds more).  The cell loop lays out cell 0 once and
shifts its nodes by the cell offsets, so a carrier folds into fixed weights
and costs one phase per cell pair instead of one complex exponential per
node; the cells of a batch are summed by one real matrix product against
the weights' real and imaginary parts and then fed to the accelerators one
by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import heapq
import math
import numbers

import numpy as np

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
# geometric node schedule of the 1/n extrapolation: ratio and length
_NEVILLE_RATIO = 1.3
_NEVILLE_NODES = 16
# nodes per integrand call of the cell loop: whole cell pairs up to this
# many, and one pair when a single pair holds more
_BATCH_NODES = 2048


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


def _k15_nodes(a, b):
    """K15 layout of the panels [a[i], b[i]]: (h, x), the half-widths and
    the (panels, 15) table of abscissae."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    return h, (0.5 * (a + b))[:, None] + h[:, None] * _NODES


def _k15(f, a, b):
    """K15 on the panels [a[i], b[i]] with one call of f: (h, fx), the
    half-widths and the (panels, 15) table of integrand values."""
    h, x = _k15_nodes(a, b)
    fx = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    return h, fx


def _k15_error(h, fx):
    """(kronrod, error) of one panel from its half-width and 15 values."""
    k = h * np.sum(_WK15 * fx)
    g = h * np.sum(_WG7 * fx[1::2])
    resabs = abs(h) * float(np.sum(_WK15 * np.abs(fx)))
    mean = k / (2.0 * h) if h != 0 else 0.0
    resasc = abs(h) * float(np.sum(_WK15 * np.abs(fx - mean)))
    diff = abs(k - g)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    # don't claim below attainable rounding
    err = max(err, 50.0 * _EPMACH * resabs)
    return k, err


def integrate_finite(f: Callable, a: float, b: float, tol: float = 1e-10,
                     max_subdivisions: int = 2000) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over the finite interval [a, b].

    Absolute tolerance semantics: the panel-error sum is driven below
    ``tol``.  Polynomials up to the embedded degree come out exact to
    rounding on the first panel.
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

    h, fx = _k15(f, [a], [b])
    val, err = _k15_error(h[0], fx[0])
    n_evals = 15
    # heap of (-error, tiebreak, a, b, value, error)
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    total_err = err
    for _ in range(max_subdivisions):
        if total_err <= tol:
            break
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at rounding resolution, keep as-is
            heapq.heappush(heap, (0.0, seq, pa, pb, pval, perr))
            seq += 1
            continue
        h, fx = _k15(f, [pa, mid], [mid, pb])
        lv, le = _k15_error(h[0], fx[0])
        rv, re_ = _k15_error(h[1], fx[1])
        n_evals += 30
        total_err += le + re_ - perr
        heapq.heappush(heap, (-le, seq, pa, mid, lv, le))
        heapq.heappush(heap, (-re_, seq + 1, mid, pb, rv, re_))
        seq += 2
    value = sum(item[4] for item in heap)
    total_err = sum(item[5] for item in heap)
    return QuadratureResult(value=value, error_estimate=float(total_err),
                            n_evals=n_evals, converged=bool(total_err <= tol))


# ----------------------------------------------------------------------------
# Sequence accelerators for the improper oscillatory integral.
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


class _GeoNeville:
    """Polynomial extrapolation in 1/n at a geometric schedule of indices.

    Partial sums whose oscillatory part cancels over the cell length behave
    like I - c1/n - c2/n^2 - ...; Neville in x = 1/n removes the algebraic
    tail.  A geometric schedule (n, 1.3n, ...) keeps the node matrix well
    conditioned the way Romberg does, where consecutive indices would not.
    """

    def __init__(self, k0: int):
        self.sched = []
        k = max(k0, 2)
        for _ in range(_NEVILLE_NODES):
            self.sched.append(k)
            k = math.ceil(k * _NEVILLE_RATIO) + 1
        self.x: list[float] = []
        self.row: list[complex] = []
        self.last: complex | None = None

    def maybe_append(self, k: int, s: complex):
        """Offer partial sum s at global index k; returns (value, error) when
        k is on the schedule, else None."""
        if not self.sched or k != self.sched[0]:
            return None
        self.sched.pop(0)
        self.x.append(1.0 / k)
        self.row.append(s)
        xs = self.x
        row = list(self.row)
        m = len(row)
        for j in range(1, m):
            for i in range(m - 1, j - 1, -1):
                row[i] = row[i] + (row[i] - row[i - 1]) * xs[i] / (xs[i - j] - xs[i])
        est = row[-1]
        if self.last is None or m < 3:
            err = _OFLOW
        else:
            err = 2.0 * abs(est - self.last) + abs(est - row[-2])
        self.last = est
        return est, err


def _check_cell_budget(max_cell_pairs) -> None:
    # an int >= 1: bool and float refused, numpy ints accepted
    if (isinstance(max_cell_pairs, bool)
            or not isinstance(max_cell_pairs, numbers.Integral)
            or max_cell_pairs < 1):
        raise ValueError(
            f"max_cell_pairs must be an int >= 1: {max_cell_pairs!r}")


def integrate_oscillatory_infinite(f: Callable, period_hint: float,
                                   tol: float = 1e-9,
                                   max_cell_pairs: int = 640,
                                   tail_start: float = 0.0,
                                   beat_hint: float | None = None, *,
                                   carrier: float = 0.0) -> QuadratureResult:
    """Symmetric improper integral of ``f(x) * exp(i*carrier*x)`` over the line.

    The integral is taken as the limit of symmetric partial integrals over
    [-k*L, k*L] with L a half-period multiple, and the limit reached by
    sequence acceleration (epsilon algorithm plus 1/n polynomial
    extrapolation, whichever claims the smaller error).

    Cell pairs are evaluated in batches: one call of f holds the right
    sides of ``max(1, _BATCH_NODES // (2*n))`` consecutive cell pairs (n
    nodes a side), then their mirror images, and never reaches past
    ``max_cell_pairs``.  The accelerators still see one cell at a time, so a
    batch only changes how many cells are evaluated, never where the loop
    stops; ``n_evals`` counts every node evaluated, including the cells of
    the last batch that lie past the stopping cell.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with arrays of abscissae.
    period_hint : float
        Dominant oscillation period of f at large argument; finite, > 0.
    tol : float
        Absolute tolerance on the accelerated limit.
    max_cell_pairs : int
        Budget of symmetric cells, an int >= 1; with the default half-period
        cells this covers per-side ranges up to
        ``max_cell_pairs * period_hint / 2``.
    tail_start : float
        Extrapolation only trusts partial sums whose cells lie beyond this
        (finite) abscissa; the pre-asymptotic head (where the integrand has
        not yet settled into its periodic tail) otherwise poisons both
        tables.
    beat_hint : float, optional
        Secondary (beat) period for integrands carrying two close
        frequencies.  Cells are widened to half the beat so the slow
        envelope alternates sign cell-to-cell, which the epsilon table
        removes; half-period cells would leave it near ratio one, where
        acceleration stalls.  Finite and > 0 when given.
    carrier : float
        Frequency c of a plane-wave factor ``exp(i*c*x)`` that multiplies f.
        f is then evaluated without it: every node of cell k is a node of
        cell 0 shifted by ``k*L``, so the factor folds into cell 0's
        weights once and each cell pair needs one phase ``exp(i*c*k*L)``.
        The default 0 integrates f itself.
    """
    if not 0.0 < period_hint < math.inf:
        raise ValueError(
            f"period_hint must be finite and positive: {period_hint!r}")
    if beat_hint is not None and not 0.0 < beat_hint < math.inf:
        raise ValueError(
            f"beat_hint must be finite and positive: {beat_hint!r}")
    if not math.isfinite(tail_start):
        raise ValueError(f"tail_start must be finite: {tail_start!r}")
    _check_cell_budget(max_cell_pairs)
    if not tol > 0:
        raise ValueError(f"tol must be positive: {tol!r}")
    if not math.isfinite(carrier):
        raise ValueError(f"carrier must be finite: {carrier!r}")
    base_half = 0.5 * period_hint
    cells_per_side = 1
    if beat_hint is not None and beat_hint > 2.0 * period_hint:
        cells_per_side = min(math.ceil(0.5 * beat_hint / base_half), 512)
    half = cells_per_side * base_half
    panels = 2 * cells_per_side  # sub-panel width base_half / 2
    k0 = math.ceil(tail_start / half) if tail_start > 0 else 0
    # cell 0 (positive side): nodes x0 and the carrier folded into weights
    edges = np.linspace(0.0, half, panels + 1)
    h, x0 = _k15_nodes(edges[:-1], edges[1:])
    x0 = x0.ravel()
    n = x0.size
    w = (h[:, None] * _WK15).ravel() * np.exp(1j * carrier * x0)
    # w as the real (n, 2) matrix [Re w, Im w]: a cell sum is then a real
    # product with two columns, which OpenBLAS keeps on one thread, where a
    # complex matrix-vector product over a near-axis pair (15360 nodes a
    # side) is split across threads and slows down several-fold whenever
    # another process holds the second core
    w_parts = np.column_stack([w.real, w.imag])
    batch = max(1, _BATCH_NODES // (2 * n))

    total = 0j
    n_evals = 0
    eps_tab = _Epsilon()
    neville = _GeoNeville(k0 + 4)
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
                cosang = ((cell * prev_cell.conjugate()).real
                          / (abs(cell) * abs(prev_cell)))
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
                g = neville.maybe_append(k + 1, total)
                if g is not None and g[1] < err:
                    value, err = g
                if n_fed >= 4 and err < best_err:
                    # a growing cell magnitude means the integrand is still
                    # waking up; distrust whatever the tables claim there
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
    ``2*Re[1/sqrt(a^2 + (eps - i*b)^2)]`` for a > 0, eps > 0.  As eps
    drops to zero this tends to 2/sqrt(a^2-b^2) inside |b| < a and to 0
    outside, which is what makes it a useful independent oracle for the
    sharp-support closed forms.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be finite and positive: {a!r}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite: {b!r}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive: {eps!r}")
    w = complex(eps, -float(b))
    return float((2.0 / np.sqrt(a * a + w * w)).real)
