"""Print the sha256 of the outputs a byte-identical change must keep.

One digest a line: the README field map (omega 6, cos_theta 0.8,
z in [-3, 3] at 61 steps, rho in [0, 4] at 41) as ``beamkit map`` writes
its CSV for each representation, then the JSON report file of
``beamkit verify --suite all``, then that file for each suite on its own,
so a moved byte names its suite.  Everything runs through ``cli.main`` in
this one process, into a temporary directory that is removed afterwards.
The last two lines give the README grid's total work per route, series
``n_terms`` and integral ``n_evals``: counts of the layout that any host
can compare, also where a change moves output bytes on purpose.
Run it on two checkouts and compare the lines:

    PYTHONPATH=src python scripts/output_digests.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from beamkit import BeamParams, FieldPoint, eval_integral_rep, eval_series
from beamkit.cli import main as beamkit_main
from beamkit.identities import SUITE_NAMES

README_GRID = ["--omega", "6", "--cos-theta", "0.8",
               "--z-min", "-3", "--z-max", "3", "--z-steps", "61",
               "--rho-min", "0", "--rho-max", "4", "--rho-steps", "41"]


def _digest(argv, out: Path) -> str:
    rc = beamkit_main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"beamkit {' '.join(argv)} exited {rc}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _grid_work():
    """(series n_terms, integral n_evals) summed over the README grid."""
    beam = BeamParams(omega=6.0, cos_theta=0.8)
    terms = evals = 0
    for z in np.linspace(-3.0, 3.0, 61):
        for rho in np.linspace(0.0, 4.0, 41):
            p = FieldPoint(z=float(z), rho=float(rho), t=0.0)
            terms += eval_series(beam, p).n_terms
            evals += eval_integral_rep(beam, p).n_evals
    return terms, evals


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for rep in ("direct", "series", "integral"):
            out = Path(tmp) / f"{rep}.csv"
            digest = _digest(["map", "--rep", rep] + README_GRID, out)
            print(f"map {rep:8s} {digest}")
        # verify prints its pass count to stderr; the digest is of the file
        digest = _digest(["verify", "--suite", "all"],
                         Path(tmp) / "reports.json")
        print(f"verify all   {digest}")
        for suite in SUITE_NAMES:
            digest = _digest(["verify", "--suite", suite],
                             Path(tmp) / f"{suite}.json")
            print(f"verify {suite:13s} {digest}")
    terms, evals = _grid_work()
    print(f"work series   n_terms {terms}")
    print(f"work integral n_evals {evals}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
