"""Spans around beamkit's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
``beamkit.*`` module attribute that still refers to the original, because
the package imports names (``from .specfun import bessel_j0``) rather than
modules; the suite table in ``beamkit.identities`` is rebound the same way.
Each call records one span: name, parent, thread, start and end by wall
clock and by the thread's CPU clock, and two numbers read from its arguments
or result (``work`` and ``flag``, see ``TARGETS``).  Spans stay in memory
until ``aggregate`` turns them into per-layer metrics.

A span's parent is the innermost open span of its own thread.  Pool workers
of ``beamkit map`` start with an empty stack, so their spans attach to the
open ``cli.map.<rep>`` span instead.

Self times are CPU times of the span's own thread (``self_times``), so time
a pool worker spends waiting for the interpreter lock is not charged to the
layer it waits in.  The tracer's own cost per span, measured by
``calibrate``, is taken out of them.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter, thread_time

import numpy as np

from workloads import SUITE_NAMES


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _seq_orders(args, kwargs, out):
    return _first(args, kwargs, "n_max") + 1, 0.0


def _series(args, kwargs, out):
    return out.n_terms, float(not out.converged)


def _quad(args, kwargs, out):
    return out.n_evals, float(out.converged)


def _suite(args, kwargs, out):
    return len(out), float(sum(not r.ok for r in out))


# (module, attribute, span name, work/flag reader or None)
TARGETS = (
    ("specfun", "bessel_j0", "specfun.bessel_j0",
     lambda a, k, out: (np.size(_first(a, k, "x")), 0.0)),
    ("specfun", "spherical_jn_sequence", "specfun.spherical_jn_sequence",
     _seq_orders),
    ("specfun", "legendre_p_sequence", "specfun.legendre_p_sequence",
     _seq_orders),
    ("specfun", "spherical_jn", "specfun.spherical_jn", None),
    ("beamcore", "eval_direct", "beamcore.eval_direct", None),
    ("pwseries", "truncation_order", "pwseries.truncation_order", None),
    ("pwseries", "eval_series", "pwseries.eval_series", _series),
    ("integralrep", "eval_integral_rep", "integralrep.eval_integral_rep",
     lambda a, k, out: (out.n_evals, float(not out.converged))),
    ("oscquad", "integrate_oscillatory_infinite",
     "oscquad.integrate_oscillatory_infinite", _quad),
    ("oscquad", "integrate_finite", "oscquad.integrate_finite", _quad),
    ("wavepacket", "triple_legendre_sum", "wavepacket.triple_legendre_sum",
     lambda a, k, out: (out.n_terms, 0.0)),
    ("cli", "cmd_map", lambda a, k: f"cli.map.{a[0].rep}", None),
    ("cli", "cmd_verify", "cli.verify", None),
)



class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.sid = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.tid = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.work = array("d")
        self.flag = array("d")
        self._ids = itertools.count()
        self._tids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(self, fn, name, reader=None, pool_root=False):
        """``fn`` recording a span per call.

        ``name`` may be a callable of the call's (args, kwargs).  While a
        ``pool_root`` span is open, spans of threads with an empty stack
        become its children.
        """
        fixed = None if callable(name) else self._name_id(name)
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.tid = next(self._tids)
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            if pool_root:
                self._root = sid
            work = flag = 0.0
            t0 = perf_counter()
            c0 = thread_time()
            try:
                out = fn(*args, **kwargs)
                if reader is not None:
                    work, flag = reader(args, kwargs, out)
                return out
            finally:
                c1 = thread_time()
                t1 = perf_counter()
                stack.pop()
                if pool_root:
                    self._root = -1
                with self._lock:
                    self.sid.append(sid)
                    self.name.append(nid)
                    self.parent.append(parent)
                    self.tid.append(local.tid)
                    self.t0.append(t0)
                    self.t1.append(t1)
                    self.c0.append(c0)
                    self.c1.append(c1)
                    self.work.append(work)
                    self.flag.append(flag)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind all references to it in beamkit."""
        mods = [m for key, m in list(sys.modules.items())
                if key == "beamkit" or key.startswith("beamkit.")]
        for mod, attr, name, reader in TARGETS:
            orig = getattr(sys.modules[f"beamkit.{mod}"], attr)
            traced = self.wrap(orig, name, reader, pool_root=attr == "cmd_map")
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._undo.append((m.__dict__, key, orig))
        suites = sys.modules["beamkit.identities"]._SUITES
        for key, orig in list(suites.items()):
            suites[key] = self.wrap(orig, f"identities.{key}", _suite)
            self._undo.append((suites, key, orig))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._undo):
            table[key] = orig
        self._undo.clear()

    def spans(self) -> dict:
        """Recorded spans as arrays indexed by span id."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64))
        cols = {k: np.frombuffer(getattr(self, k), dtype=v)[order]
                for k, v in (("name", np.int64), ("parent", np.int64),
                             ("tid", np.int64), ("t0", float), ("t1", float),
                             ("c0", float), ("c1", float), ("work", float),
                             ("flag", float))}
        cols["names"] = np.array(self.names)
        return cols


@dataclass(frozen=True)
class SpanCost:
    """The tracer's own cost per span, in seconds."""

    inside: float   # CPU time inside the span's own interval
    outside: float  # CPU time in the parent's interval, around the span
    wall: float     # wall time one traced call adds


NO_COST = SpanCost(0.0, 0.0, 0.0)


def calibrate() -> SpanCost:
    """The tracer's cost per span, measured on a traced no-op.

    A traced parent calls a traced no-op ``n`` times, and the same loop
    runs untraced; the figures are medians over five repeats.  Real targets
    also run a reader on their result, which this leaves out.
    """
    n = 20000

    def noop():
        return None

    def loop(f):
        for _ in range(n):
            f()

    inside, outside, wall = [], [], []
    for _ in range(5):
        w0, c0 = perf_counter(), thread_time()
        loop(noop)
        raw_cpu, raw_wall = thread_time() - c0, perf_counter() - w0
        tracer = Tracer()
        child = tracer.wrap(noop, "child")
        w0 = perf_counter()
        tracer.wrap(loop, "parent")(child)
        traced_wall = perf_counter() - w0
        sp = tracer.spans()
        root = int(np.flatnonzero(sp["parent"] < 0)[0])
        own = self_times(sp["parent"], sp["tid"], sp["c0"], sp["c1"])
        inside.append(float(np.delete(sp["c1"] - sp["c0"], root).mean()))
        outside.append((own[root] - raw_cpu) / n)
        wall.append((traced_wall - raw_wall) / n)
    med = statistics.median
    return SpanCost(med(inside), med(outside), med(wall))


def self_times(parent: np.ndarray, tid: np.ndarray, c0: np.ndarray,
               c1: np.ndarray, cost: SpanCost = NO_COST) -> np.ndarray:
    """Each span's CPU time in its own thread, less its children's.

    A child in its parent's thread is subtracted whole.  A child in a pool
    worker runs in another thread: there the worker's CPU time from its
    first to its last child under the parent, less those children, is the
    pool's own work and is added to the parent.  The tracer's cost is taken
    out of each span (``cost.inside``) and, per child, of its parent
    (``cost.outside``).
    """
    n = len(parent)
    cpu = c1 - c0
    out = cpu - cost.inside
    kid = np.flatnonzero(parent >= 0)
    up = parent[kid]
    same = tid[kid] == tid[up]
    out -= np.bincount(up[same], weights=cpu[kid[same]], minlength=n)
    out -= cost.outside * np.bincount(up, minlength=n)
    far = kid[~same]
    if far.size:
        groups, g = np.unique(np.column_stack([parent[far], tid[far]]),
                              axis=0, return_inverse=True)
        g = g.ravel()
        lo = np.full(len(groups), np.inf)
        hi = np.full(len(groups), -np.inf)
        np.minimum.at(lo, g, c0[far])
        np.maximum.at(hi, g, c1[far])
        busy = np.bincount(g, weights=cpu[far], minlength=len(groups))
        out += np.bincount(groups[:, 0], weights=hi - lo - busy, minlength=n)
    return out


def aggregate(sp: dict, cost: SpanCost) -> dict:
    """Per-layer metrics from recorded spans: {name: (value, unit)}.

    A ratio over the calls of a layer that made none (``converged_ratio``
    of an idle quadrature, ``jn_orders_used_ratio`` with no series call)
    reads 1.0: nothing failed to converge and no order was wasted.
    """
    names = list(sp["names"])
    k = len(names)
    own = self_times(sp["parent"], sp["tid"], sp["c0"], sp["c1"], cost)
    calls = np.bincount(sp["name"], minlength=k)
    self_ms = np.bincount(sp["name"], weights=own, minlength=k) * 1e3
    total_ms = np.bincount(sp["name"], weights=sp["t1"] - sp["t0"],
                           minlength=k) * 1e3
    work = np.bincount(sp["name"], weights=sp["work"], minlength=k)
    flag = np.bincount(sp["name"], weights=sp["flag"], minlength=k)

    def get(arr, name):
        return float(arr[names.index(name)]) if name in names else 0.0

    def ratio(a, b, idle=1.0):
        return a / b if b else idle

    m = {}
    for _, _, name, _ in TARGETS:
        if callable(name) or name.startswith("cli."):
            continue
        m[f"{name}.calls"] = (get(calls, name), "count")
        m[f"{name}.self_ms"] = (get(self_ms, name), "ms")
    bj = "specfun.bessel_j0"
    m[f"{bj}.elems_per_call"] = (ratio(get(work, bj), get(calls, bj), 0.0),
                                 "count")
    for seq in ("specfun.spherical_jn_sequence", "specfun.legendre_p_sequence"):
        m[f"{seq}.orders"] = (get(work, seq), "count")
    es = "pwseries.eval_series"
    m[f"{es}.terms"] = (get(work, es), "count")
    m[f"{es}.unconverged"] = (get(flag, es), "count")
    m[f"{es}.jn_orders_used_ratio"] = (
        ratio(get(work, es), _orders_inside(sp, names, es)), "ratio")
    ir = "integralrep.eval_integral_rep"
    m[f"{ir}.evals"] = (get(work, ir), "count")
    m[f"{ir}.unconverged"] = (get(flag, ir), "count")
    for q in ("oscquad.integrate_oscillatory_infinite",
              "oscquad.integrate_finite"):
        m[f"{q}.evals"] = (get(work, q), "count")
        m[f"{q}.converged_ratio"] = (ratio(get(flag, q), get(calls, q)),
                                     "ratio")
    tl = "wavepacket.triple_legendre_sum"
    m[f"{tl}.terms"] = (get(work, tl), "count")
    for s in SUITE_NAMES:
        m[f"identities.{s}.ms"] = (get(total_ms, f"identities.{s}"), "ms")
    m["identities.reports_failed"] = (
        sum(get(flag, f"identities.{s}") for s in SUITE_NAMES), "count")
    for rep in ("direct", "series", "integral"):
        m[f"cli.map.{rep}.self_ms"] = (get(self_ms, f"cli.map.{rep}"), "ms")
    return m


def call_counts(sp: dict) -> dict:
    counts = np.bincount(sp["name"], minlength=len(sp["names"]))
    return dict(zip(list(sp["names"]), counts.tolist()))


def _orders_inside(sp: dict, names: list, owner: str) -> float:
    """spherical_jn_sequence orders computed under spans named ``owner``."""
    if owner not in names or "specfun.spherical_jn_sequence" not in names:
        return 0.0
    want = names.index(owner)
    seq = np.flatnonzero(sp["name"] == names.index(
        "specfun.spherical_jn_sequence"))
    parent, name = sp["parent"].tolist(), sp["name"].tolist()
    work = sp["work"].tolist()
    total = 0.0
    for i in seq.tolist():
        p = parent[i]
        while p >= 0 and name[p] != want:
            p = parent[p]
        if p >= 0:
            total += work[i]
    return total
