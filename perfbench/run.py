"""Benchmark of beamkit: end-to-end timings, per-layer spans, output checks.

Run from the root of a beamkit checkout:

    python3 perfbench/run.py --workload fieldmap --seed 1 --seconds 25 --trace 0

``perfbench/baseline.py`` runs every workload over several seeds.

``--trace 0`` runs cycles over the workload's items (``workloads.py``) in
seeded order until ``--seconds`` have passed, always completing the first
cycle.  beamkit runs on one thread: ``BEAMKIT_THREADS=1``, because on a host
of two shared vCPUs the map pool's wall time follows the load on the second
vCPU, which nothing in the run can see.  The run reports ``setup_s``,
``pass_s`` and ``item_ms``:

* ``setup_s``: median over fresh interpreters of ``import beamkit`` plus one
  warm-up call of each route the workload uses;
* ``pass_s``: one cycle, the sum over its items of each item's median time;
* ``item_ms``: one item, the median over items of their median times (on
  ``verify`` the unit of use is the whole ``verify --suite all``, so
  ``item_ms`` is ``pass_s`` in milliseconds).

The host these runs share changes speed by up to a factor of two within a
minute, for reasons outside the process.  A fixed pure-Python loop
(``reference.py``) is therefore timed between items, once for every
``REF_EVERY`` seconds since it last ran (for ``setup_s``: in each fresh
interpreter, before the import), and every time above is scaled to a host
on which that loop takes ``REF_S``: value * REF_S / (median loop time).
The raw times and the loop's medians are printed too.

Only the first cycle counts in ``attempted`` and ``failed``, so both depend
on the seed alone; every later call of an item must return what its first
call returned, or the run is incorrect.

``--trace 1`` runs one untraced cycle, on ``fieldmap`` one more with
``BEAMKIT_THREADS=1`` (``cli.map.<rep>.serial_ms``), then one traced cycle,
and reports the per-layer metrics.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric by name
with its unit, the run record and every missed check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from reference import REF_S, reference_loop  # noqa: E402

WORKLOADS = ("fieldmap", "points", "verify")
SETUP_REPEATS = 11
SETUP_REF_SAMPLES = 9

REF_EVERY = 0.05
REF_BURST = 100

# Warm-up of each route a workload uses, run after ``import beamkit`` in a
# fresh interpreter; OUT is a scratch file.
WARMUP = {
    "fieldmap": """
from beamkit import cli
for rep in ("direct", "series", "integral"):
    cli.main(["map", "--rep", rep, "--omega", "3.0", "--cos-theta", "0.7",
              "--z-min", "1.0", "--z-max", "2.0", "--z-steps", "2",
              "--rho-min", "0.5", "--rho-max", "1.0", "--rho-steps", "2",
              "--out", OUT])
""",
    "points": """
b = beamkit.BeamParams(omega=3.0, cos_theta=0.7)
p = beamkit.FieldPoint(z=1.0, rho=2.0, t=0.5)
beamkit.eval_direct(b, p)
beamkit.eval_series(b, p)
beamkit.eval_integral_rep(b, p)
""",
    "verify": """
from beamkit import cli
cli.main(["verify", "--suite", "planewave", "--out", OUT])
""",
}

ROUTE_LAYERS = ("specfun.bessel_j0", "specfun.spherical_jn_sequence",
                "specfun.legendre_p_sequence", "beamcore.eval_direct",
                "pwseries.truncation_order", "pwseries.eval_series",
                "integralrep.eval_integral_rep",
                "oscquad.integrate_oscillatory_infinite")
# spans that must record calls on each workload; a missed rebinding would
# otherwise read as an idle layer
EXPECTED_CALLS = {
    "fieldmap": ROUTE_LAYERS + tuple(f"cli.map.{r}" for r in wl.REPS),
    "points": ROUTE_LAYERS,
    "verify": ("specfun.bessel_j0", "specfun.spherical_jn",
               "specfun.spherical_jn_sequence", "specfun.legendre_p_sequence",
               "pwseries.truncation_order", "oscquad.integrate_finite",
               "oscquad.integrate_oscillatory_infinite",
               "wavepacket.triple_legendre_sum", "cli.verify")
    + tuple(f"identities.{s}" for s in wl.SUITE_NAMES),
}


class Reference:
    """Times of the reference loop, taken between items."""

    def __init__(self):
        self.samples: list = []
        self.last = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        self.last = perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> None:
        """One sample per REF_EVERY seconds since the last one, so that a
        long item weighs as much as the short items filling its time."""
        n = min(int((perf_counter() - self.last) / REF_EVERY), REF_BURST)
        n = n if self.samples else 1
        for _ in range(n):
            self.sample()

    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)


class Cycles:
    """Outcome of the cycles of one run: times, checks, first outputs."""

    def __init__(self, work):
        self.work = work
        self.times = {k: [] for k in work.items}      # item totals
        self.routes = {k: {} for k in work.items}     # {route: [seconds]}
        self.first: dict = {}
        self.tally = wl.Tally()

    def run(self, key) -> None:
        secs, out = self.work.run(key)
        self.times[key].append(sum(secs.values()))
        for route, sec in secs.items():
            self.routes[key].setdefault(route, []).append(sec)
        if key not in self.first:
            self.first[key] = out
            self.tally.merge(self.work.check(key, out))
            if len(self.first) == len(self.work.items):
                self.tally.merge(self.work.check_cycle(self.first))
        elif repr(out) != repr(self.first[key]):
            self.tally.errors.append(f"{self.work.name} item {key!r}: output "
                                     "differs from its first call")

    def cycle(self) -> float:
        """One cycle in item order; its wall time."""
        t0 = perf_counter()
        for key in self.work.items:
            self.run(key)
        return perf_counter() - t0

    def medians(self) -> list:
        return [statistics.median(v) for v in self.times.values() if v]


def make_work(workload: str, ctx: dict):
    if workload == "fieldmap":
        return wl.FieldMap(ctx["cli"], ctx["tmp"])
    if workload == "points":
        return wl.Points(ctx["bk"], ctx["points"])
    return wl.Verify(ctx["cli"], ctx["tmp"])


def route_metrics(workload: str, cyc: Cycles, scale: float) -> dict:
    """The workload-specific figures of one run, scaled like the rest."""
    m = {}
    med = statistics.median
    routes = [r for r in cyc.routes.values() if r]
    if workload == "fieldmap":
        for rep in wl.REPS:
            m[f"map_{rep}_s"] = (sum(med(r[rep]) for r in routes) * scale, "s")
    elif workload == "points":
        for rep in wl.REPS:
            lat = np.concatenate([r[rep] for r in routes]) * 1e3 * scale
            m[f"{rep}_p50_ms"] = (float(np.percentile(lat, 50)), "ms")
            m[f"{rep}_p99_ms"] = (float(np.percentile(lat, 99)), "ms")
        m["samples"] = (float(len(lat)), "count")
    else:
        m["verify_s"] = (sum(med(r["verify"]) for r in routes) * scale, "s")
        for suite, r in cyc.routes.items():
            m[f"suite_{suite}_s"] = (med(r["verify"]) * scale, "s")
    m["fail_frac"] = (cyc.tally.failed / cyc.tally.attempted, "ratio")
    return m


def setup_seconds(workload: str, root: Path, tmp: str) -> tuple:
    """Median over fresh interpreters of ``import beamkit`` plus warm-up,
    raw and scaled by the reference timed in the same interpreter first;
    (raw, scaled, reference median)."""
    prog = ("import statistics, sys, time\nsys.path.insert(0, sys.argv[2])\n"
            "from reference import reference_loop\nref = []\n"
            f"for _ in range({SETUP_REF_SAMPLES}):\n"
            "    t0 = time.perf_counter()\n    reference_loop()\n"
            "    ref.append(time.perf_counter() - t0)\n"
            "t0 = time.perf_counter()\nimport beamkit\n"
            "OUT = sys.argv[1]\n" + WARMUP[workload]
            + "print(statistics.median(ref), time.perf_counter() - t0)\n")
    env = child_env(root)
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", prog,
                              os.path.join(tmp, "warmup.out"), str(HERE)],
                             cwd=root, env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        r, sec = map(float, out.stdout.split()[-2:])
        raw.append(sec)
        ref.append(r)
    med = statistics.median
    return (med(raw), med(s * REF_S / r for s, r in zip(raw, ref)), med(ref))


def child_env(root: Path) -> dict:
    """The set-up interpreters' environment: beamkit's sources, and one
    OpenBLAS thread, whose pool would otherwise start at ``import numpy``
    and make the import's time follow the load on the second vCPU."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_record(root: Path, seed: int, workers: int) -> dict:
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "beamkit_threads": workers, "seed": seed}


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, ctx: dict, seconds: float, root: Path,
            seed: int) -> tuple:
    """Untraced run: cycles in seeded order until ``seconds`` have passed."""
    setup_raw, setup, setup_ref = setup_seconds(workload, root, ctx["tmp"])
    ref = Reference()
    cyc = Cycles(make_work(workload, ctx))
    rng = np.random.default_rng(seed)
    items = cyc.work.items
    order = []
    calls = 0
    t0 = perf_counter()
    # whole first cycle, then until the time is up
    while calls < len(items) or perf_counter() - t0 < seconds:
        if calls % len(items) == 0:
            order = rng.permutation(len(items)).tolist()
        ref.due()
        cyc.run(items[order[calls % len(items)]])
        calls += 1
    scale = ref.scale()
    meds = cyc.medians()
    raw = {"pass_s": sum(meds),
           "item_ms": cyc.work.item_seconds(meds) * 1e3,
           "setup_s": setup_raw}
    metrics = {"setup_s": (setup, "s"),
               "pass_s": (raw["pass_s"] * scale, "s"),
               "item_ms": (raw["item_ms"] * scale, "ms")}
    show(route_metrics(workload, cyc, scale))
    show({f"raw_{k}": (v, metrics[k][1]) for k, v in raw.items()})
    show({"reference_ms": (REF_S / scale * 1e3, "ms"),
          "setup_reference_ms": (setup_ref * 1e3, "ms"),
          "reference_samples": (float(len(ref.samples)), "count"),
          "items_run": (float(calls), "count")})
    return metrics, cyc.tally


def measure_traced(workload: str, ctx: dict, root: Path, seed: int) -> tuple:
    """An untraced cycle, then one traced cycle; per-layer metrics.

    On ``fieldmap`` a cycle with ``BEAMKIT_THREADS=1`` gives the serial map
    times between the two.
    """
    cli = ctx["cli"]
    cyc = Cycles(make_work(workload, ctx))
    cyc.cycle()
    metrics = {}
    serial = {r: 0.0 for r in wl.REPS}
    if workload == "fieldmap":
        os.environ["BEAMKIT_THREADS"] = "1"
        try:
            cyc.cycle()
        finally:
            del os.environ["BEAMKIT_THREADS"]
        serial = {r: sum(v[r][-1] for v in cyc.routes.values()) * 1e3
                  for r in wl.REPS}
    for r in wl.REPS:
        metrics[f"cli.map.{r}.serial_ms"] = (serial[r], "ms")
    metrics["cli.map.workers"] = (
        float(cli._worker_count()) if workload == "fieldmap" else 0.0, "count")

    cost = tracing.calibrate()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall = cyc.cycle()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    metrics.update(tracing.aggregate(spans, cost))
    # traced wall time over the same cycle less the tracer's own cost
    n_spans = len(spans["name"])
    metrics["bench.trace_overhead_ratio"] = (
        wall / (wall - n_spans * cost.wall), "ratio")
    print(f"tracer spans {n_spans} cost_us inside {cost.inside * 1e6:.3f} "
          f"outside {cost.outside * 1e6:.3f} wall {cost.wall * 1e6:.3f}")
    calls = tracing.call_counts(spans)
    for name in EXPECTED_CALLS[workload]:
        if not calls.get(name):
            cyc.tally.errors.append(f"trace: no calls recorded for {name}")
    out = root / ".perfbench-out"
    out.mkdir(exist_ok=True)
    np.savez_compressed(out / f"spans-{workload}-seed{seed}.npz", **spans)
    return metrics, cyc.tally


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "beamkit" / "__init__.py").is_file():
        print(f"error: no beamkit sources under {root / 'src'}; run from the "
              "root of a beamkit checkout", file=sys.stderr)
        return 2

    # timed runs map on one thread; the traced run keeps the default pool
    os.environ.pop("BEAMKIT_THREADS", None)
    if not args.trace:
        os.environ["BEAMKIT_THREADS"] = "1"
    sys.path.insert(0, str(root / "src"))
    import beamkit
    from beamkit import cli

    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
    try:
        ctx = {"bk": beamkit, "cli": cli, "tmp": tmp}
        if args.workload == "points":
            ctx["points"] = wl.point_inputs(args.seed)
        print("record " + json.dumps(
            run_record(root, args.seed, cli._worker_count())))
        if args.trace:
            metrics, tally = measure_traced(args.workload, ctx, root, args.seed)
        else:
            metrics, tally = measure(args.workload, ctx, args.seconds, root,
                                     args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for what in tally.misses:
        print(f"miss {what}")
    for what in tally.errors:
        print(f"error {what}")
    show(metrics)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
