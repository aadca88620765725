"""Inputs, timed items and output checks of the three benchmark workloads.

Each workload is a closed loop with one caller: the next call into beamkit
starts only when the previous one has returned.  A workload's inputs split
into *items*; one *cycle* runs every item once.

* ``fieldmap``: ``beamkit map`` for each representation; an item is one
  z-row of the README grid (41 rho values), so a cycle covers the grid.
* ``points``: seeded single points; an item is one point through each
  evaluator, one per call.
* ``verify``: ``beamkit verify``; an item is one suite, so a cycle is
  ``verify --suite all``.

``Work.run`` makes the calls of one item and returns their wall times and
the item's output; ``Work.check`` checks an output against a reference that
does not share code with beamkit: the direct closed form evaluated with
``scipy.special.j0``, or for ``verify`` the suites' own verdicts.
"""
from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy import special
from scipy.stats import qmc

REPS = ("direct", "series", "integral")
# direct: the accuracy bessel_j0 claims; series and integral: the
# cross-route tolerances of the package's acceptance grid
TOL = {"direct": 1e-13, "series": 1e-10, "integral": 1e-6}

# the README field map
MAP_OMEGA = 6.0
MAP_COS_THETA = 0.8
MAP_Z = (-3.0, 3.0, 61)
MAP_RHO = (0.0, 4.0, 41)
MAP_T = 0.0
CSV_HEADER = "z,rho,t,re,im,abs"

# 1024 points leave more than ten samples above each p99
N_POINTS = 1024
SUITE_NAMES = ("stratton", "ftpair", "hochstadt", "orthogonality", "jnnorm",
               "planewave", "beamidentity", "triplesum", "xwave")
VERIFY_REPORTS = 392


@dataclass
class Tally:
    """Outcome of the output checks.

    A miss is a result outside its tolerance or one the program flagged
    (``converged=False``, a NaN map row, a failing report); every miss
    counts in ``failed``.  A miss the program did not flag, or output of the
    wrong shape, is an error and makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def miss(self, what: str, flagged: bool) -> None:
        self.failed += 1
        self.misses.append(what)
        if not flagged:
            self.errors.append(f"unflagged miss: {what}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.misses.extend(other.misses)
        self.errors.extend(other.errors)


def oracle(omega, cos_theta, z, rho, t):
    """Direct closed form of the beam field with scipy's J0."""
    omega = np.asarray(omega, dtype=float)
    cos_theta = np.asarray(cos_theta, dtype=float)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta * cos_theta))
    phase = omega * cos_theta * z - omega * t
    return np.exp(1j * phase) * special.j0(omega * sin_theta * rho)


# ----------------------------------------------------------------------------
# fieldmap
# ----------------------------------------------------------------------------

def map_zs() -> np.ndarray:
    return np.linspace(*MAP_Z)


def map_grid(zs=None):
    """Grid coordinates in the CSV's z-major, then rho, row order."""
    zs = map_zs() if zs is None else np.asarray(zs, dtype=float)
    rhos = np.linspace(*MAP_RHO)
    return np.repeat(zs, len(rhos)), np.tile(rhos, len(zs))


def map_argv(rep: str, out: str, row=None) -> list:
    """``beamkit map`` on the README grid, or on its z-row number ``row``."""
    if row is None:
        z = MAP_Z
    else:
        z = (map_zs()[row],) * 2 + (1,)
    return ["map", "--rep", rep,
            "--omega", repr(MAP_OMEGA), "--cos-theta", repr(MAP_COS_THETA),
            "--z-min", repr(float(z[0])), "--z-max", repr(float(z[1])),
            "--z-steps", str(z[2]),
            "--rho-min", repr(MAP_RHO[0]), "--rho-max", repr(MAP_RHO[1]),
            "--rho-steps", str(MAP_RHO[2]),
            "--t", repr(MAP_T), "--out", out]


def check_map(rep: str, code: int, text: str, zs=None) -> Tally:
    """Check one map CSV whose rows hold the z values ``zs`` (README grid
    if None) against the oracle."""
    tally = Tally()
    lines = text.splitlines()
    z, rho = map_grid(zs)
    if not lines or lines[0] != CSV_HEADER:
        tally.errors.append(f"map {rep}: header {lines[:1]!r}")
        return tally
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if rows.shape != (len(z), 6):
        tally.errors.append(f"map {rep}: {rows.shape} cells, want {(len(z), 6)}")
        return tally
    if not (np.array_equal(rows[:, 0], z) and np.array_equal(rows[:, 1], rho)
            and np.all(rows[:, 2] == MAP_T)):
        tally.errors.append(f"map {rep}: rows are not the z-major grid")
        return tally
    ref = oracle(MAP_OMEGA, MAP_COS_THETA, z, rho, MAP_T)
    value = rows[:, 3] + 1j * rows[:, 4]
    nan = np.isnan(rows[:, 3:]).any(axis=1)
    err = np.maximum(np.abs(value - ref), np.abs(rows[:, 5] - np.abs(ref)))
    tally.attempted = len(rows)
    for i in np.flatnonzero(nan | (err > TOL[rep])):
        tally.miss(f"map {rep} row {i} z={z[i]!r} rho={rho[i]!r} "
                   f"err={err[i]:.3g}", flagged=bool(nan[i]))
    if code != (3 if nan.any() else 0):
        tally.errors.append(f"map {rep}: exit code {code} with "
                            f"{int(nan.sum())} NaN rows")
    return tally


class Work:
    """A workload: ``items`` (one cycle), and for each item ``run`` (the
    calls, timed) and ``check`` (their output)."""

    name: str
    items: list

    def run(self, key):
        """({route: seconds}, output) of one item."""
        raise NotImplementedError

    def check(self, key, out) -> Tally:
        raise NotImplementedError

    def check_cycle(self, outs: dict) -> Tally:
        """Checks on a whole cycle's outputs, {item: output}."""
        return Tally()

    @staticmethod
    def item_seconds(per_item: list) -> float:
        """One item's time from each item's median time."""
        return statistics.median(per_item)


class FieldMap(Work):
    """Items: the z-rows of the README grid, each mapped by every route."""

    name = "fieldmap"

    def __init__(self, cli, tmp: str):
        self.cli = cli
        self.path = os.path.join(tmp, "map.csv")
        self.items = list(range(MAP_Z[2]))

    def run(self, row: int):
        """{rep: seconds}, {rep: (exit code, CSV text)}."""
        secs, out = {}, {}
        for rep in REPS:
            argv = map_argv(rep, self.path, row)
            t0 = perf_counter()
            code = self.cli.main(argv)
            secs[rep] = perf_counter() - t0
            with open(self.path) as fh:
                out[rep] = (code, fh.read())
        return secs, out

    def check(self, row: int, out) -> Tally:
        tally = Tally()
        for rep, (code, text) in out.items():
            tally.merge(check_map(rep, code, text, map_zs()[row:row + 1]))
        return tally


# ----------------------------------------------------------------------------
# points
# ----------------------------------------------------------------------------

def point_inputs(seed: int) -> np.ndarray:
    """Seeded points as rows (omega, cos_theta, z, rho, t).

    A scrambled Sobol draw: every coordinate is uniform over its range, as
    with independent draws, but each region of the box receives close to
    its share of points.  Rho is uniform on [0, 5], so the near-axis band
    where the integral route stalls gets its natural ~1%, with a count that
    varies by about one point between seeds instead of three.
    """
    u = qmc.Sobol(d=6, scramble=True,
                  rng=np.random.default_rng(seed)).random(N_POINTS)
    omega = np.where(u[:, 1] < 0.5, -1.0, 1.0) * (0.5 + 11.5 * u[:, 0])
    return np.column_stack([omega, -1.0 + 2.0 * u[:, 2], -3.0 + 6.0 * u[:, 3],
                            5.0 * u[:, 4], -2.0 + 4.0 * u[:, 5]])


def check_point(pt, i: int, values, converged) -> Tally:
    """One point's value per route, in REPS order, against the oracle;
    ``converged`` holds the series and integral flags."""
    tally = Tally(attempted=len(REPS))
    ref = complex(oracle(*pt))
    flags = (True,) + tuple(converged)
    for rep, value, conv in zip(REPS, values, flags):
        err = abs(value - ref)
        if conv and err <= TOL[rep]:
            continue
        omega, cos_theta, z, rho, t = pt
        tally.miss(f"point {rep} #{i} omega={omega:.6g} "
                   f"cos_theta={cos_theta:.6g} z={z:.6g} rho={rho:.6g} "
                   f"t={t:.6g} converged={conv} err={err:.3g}",
                   flagged=not conv)
    return tally


class Points(Work):
    """Items: seeded points, each through eval_direct, eval_series and
    eval_integral_rep."""

    name = "points"

    def __init__(self, bk, pts: np.ndarray):
        self.bk = bk
        self.pts = pts
        self.items = list(range(len(self.pts)))

    def run(self, i: int):
        """{rep: seconds}, ((values in REPS order), (series, integral
        converged))."""
        bk = self.bk
        omega, cos_theta, z, rho, t = self.pts[i].tolist()
        b = bk.BeamParams(omega=omega, cos_theta=cos_theta)
        p = bk.FieldPoint(z=z, rho=rho, t=t)
        t0 = perf_counter()
        d = bk.eval_direct(b, p)
        t1 = perf_counter()
        s = bk.eval_series(b, p)
        t2 = perf_counter()
        q = bk.eval_integral_rep(b, p)
        t3 = perf_counter()
        secs = {"direct": t1 - t0, "series": t2 - t1, "integral": t3 - t2}
        return secs, ((d, s.value, q.value), (s.converged, q.converged))

    def check(self, i: int, out) -> Tally:
        return check_point(self.pts[i].tolist(), i, *out)


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def check_suite(suite: str, code: int, text: str) -> Tally:
    tally = Tally()
    reports = json.loads(text)
    tally.attempted = len(reports)
    for r in reports:
        if not r["pass"]:
            tally.miss(f"verify {r['identity_id']} {r['params']} "
                       f"abs_err={r['abs_err']!r}", flagged=True)
    if code != (1 if tally.failed else 0):
        tally.errors.append(f"verify {suite}: exit code {code} with "
                            f"{tally.failed} failing reports")
    return tally


class Verify(Work):
    """Items: the suites of ``verify --suite all``; the input is fixed by
    the suites' own seeds."""

    name = "verify"

    def __init__(self, cli, tmp: str):
        self.cli = cli
        self.path = os.path.join(tmp, "verify.json")
        self.items = list(SUITE_NAMES)

    def run(self, suite: str):
        """{"verify": seconds}, (exit code, report JSON)."""
        t0 = perf_counter()
        code = self.cli.main(["verify", "--suite", suite, "--out", self.path])
        sec = perf_counter() - t0
        with open(self.path) as fh:
            return {"verify": sec}, (code, fh.read())

    def check(self, suite: str, out) -> Tally:
        return check_suite(suite, *out)

    def check_cycle(self, outs: dict) -> Tally:
        tally = Tally()
        n = sum(len(json.loads(text)) for _, text in outs.values())
        if n != VERIFY_REPORTS:
            tally.errors.append(f"verify: {n} reports, want {VERIFY_REPORTS}")
        return tally

    @staticmethod
    def item_seconds(per_item: list) -> float:
        # the unit of use is the whole ``verify --suite all``
        return sum(per_item)
