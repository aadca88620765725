"""Seeded sweep of the accepted domain: series and integral against direct.

Each draw is one point, (omega, cos_theta, z, rho, t), taken from
``numpy.random.default_rng(seed)`` in this order: the exponent of |omega|,
U(-2, 3.3); its sign, + when U(0, 1) < 0.8; cos_theta, U(-1, 1); z,
U(-5, 5); the exponent of rho, U(-4, 0.7); and t, U(-3, 3).  For each
route the sweep prints how many points it flagged (``converged=False``),
its silent misses (unflagged, yet further from ``eval_direct`` than the
route's acceptance tolerance: 1e-10 series, 1e-6 integral) with their
points, how many unflagged points lie further from ``eval_direct`` than
their own error claim (series ``tail_estimate``, integral
``error_estimate``; errors up to 1e-14 are not counted, they are
rounding), the worst error of an unflagged point, the time spent, and the
route's total work over every point (series terms ``n_terms``, integral
integrand evaluations ``n_evals``), a count that shows a change of layout
on any host.

    python scripts/domain_sweep.py --n 600 --seed 12345

Exit status is 1 when any route has a silent miss, 0 otherwise.
"""
import argparse
import sys
from time import perf_counter

import numpy as np

from beamkit import (BeamParams, FieldPoint, eval_direct, eval_integral_rep,
                     eval_series)

# route, acceptance tolerance, the result field that counts its work and
# the one that claims its error
ROUTES = {"series": (eval_series, 1e-10, "n_terms", "tail_estimate"),
          "integral": (eval_integral_rep, 1e-6, "n_evals", "error_estimate")}

# errors at or under this are rounding, whatever a route claims
ROUNDING = 1e-14


def draws(n: int, seed: int):
    """The sweep's n points, as (omega, cos_theta, z, rho, t) tuples."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        magnitude = 10.0 ** rng.uniform(-2.0, 3.3)
        omega = magnitude if rng.uniform() < 0.8 else -magnitude
        cos_theta = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-5.0, 5.0)
        rho = 10.0 ** rng.uniform(-4.0, 0.7)
        t = rng.uniform(-3.0, 3.0)
        out.append((omega, cos_theta, z, rho, t))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=600, help="number of draws")
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args(argv)

    points = draws(args.n, args.seed)
    exact = [eval_direct(BeamParams(omega=om, cos_theta=ct),
                         FieldPoint(z=z, rho=rho, t=t))
             for om, ct, z, rho, t in points]
    print(f"{args.n} draws, seed {args.seed}")
    print(f"{'route':10s} {'flagged':>8s} {'silent':>7s} {'>claim':>7s} "
          f"{'worst err':>10s} {'seconds':>8s} {'work':>10s}")
    silent_all = []
    for name, (route, tol, work_field, claim_field) in ROUTES.items():
        flagged, over_claim, worst, work = 0, 0, 0.0, 0
        t0 = perf_counter()
        for (om, ct, z, rho, t), ref in zip(points, exact):
            res = route(BeamParams(omega=om, cos_theta=ct),
                        FieldPoint(z=z, rho=rho, t=t))
            work += getattr(res, work_field)
            err = abs(res.value - ref)
            if not res.converged:
                flagged += 1
                continue
            worst = max(worst, err)
            if err > max(getattr(res, claim_field), ROUNDING):
                over_claim += 1
            if err > tol:
                silent_all.append(
                    f"silent {name} omega={om:.6g} cos_theta={ct:.6g} "
                    f"z={z:.6g} rho={rho:.6g} t={t:.6g} err={err:.3g}")
        secs = perf_counter() - t0
        n_silent = sum(s.startswith(f"silent {name} ") for s in silent_all)
        print(f"{name:10s} {flagged:8d} {n_silent:7d} {over_claim:7d} "
              f"{worst:10.2e} {secs:8.2f} {work:10d}")
    for line in silent_all:
        print(line)
    return 1 if silent_all else 0


if __name__ == "__main__":
    sys.exit(main())
