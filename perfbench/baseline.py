"""Record a baseline: two sets of runs of every workload, then traced runs.

Run from the root of a beamkit checkout:

    python3 perfbench/baseline.py

writes ``perfbench/BASELINE.json``.  Each run is a fresh ``run.py`` process,
one after another.  A set runs every workload of ``BENCHMARK.json`` once per
seed in ``SEEDS``; the second set repeats the first.  For every figure a run
prints (the end-to-end metrics and the workload's own timings and failure
share) each set holds the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``agreement`` sets each bounded
metric's spreads and the change of its median from the first set to the
second beside its bound.  The traced run of each workload adds the
per-layer metrics.  Missed checks are kept with the run that saw them.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEEDS = tuple(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    # every figure the run printed, the workload-specific ones included
    result["figures"] = {ln.split()[1]: float(ln.split()[2]) for ln in lines
                         if ln.startswith("metric ")}
    result["misses"] = [ln[5:] for ln in lines if ln.startswith("miss ")]
    result["errors"] = [ln[6:] for ln in lines if ln.startswith("error ")]
    result["record"] = next(json.loads(ln[7:]) for ln in lines
                            if ln.startswith("record "))
    return result


def summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["figures"]:
        values = [r["figures"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def agreement(sets: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        first, second = (s[name]["median"] for s in sets)
        out[name] = {"bound": bound,
                     "spreads": [s[name]["spread"] for s in sets],
                     "median_change": (second - first) / first}
    return out


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for w in names:
            for seed in SEEDS:
                r = run_once(w, seed, seconds, trace=0)
                runs[w][k].append(r)
                m = {n: round(v["value"], 4) for n, v in r["metrics"].items()}
                print(f"set {k + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {m}", flush=True)

    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "sets": SETS,
           "workloads": {}}
    for w in names:
        traced = run_once(w, SEEDS[0], seconds, trace=1)
        doc["record"] = traced.pop("record")
        traced.pop("figures")
        for r in (r for rs in runs[w] for r in rs):
            r.pop("record")
        sets = [summary(rs) for rs in runs[w]]
        doc["workloads"][w] = {"sets": sets,
                               "agreement": agreement(sets, bounds),
                               "runs": runs[w], "traced": traced}
        for name, a in doc["workloads"][w]["agreement"].items():
            print(f"{w} {name}: spreads {a['spreads']}, median change "
                  f"{a['median_change']:+.4f}, bound {a['bound']}", flush=True)
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
