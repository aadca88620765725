"""Run identity report suites and print a verdict table.

After the table comes one line per suite: its reports, failures, wall
seconds, and the summed ``quad_evals`` of the reports that carry them
("-" where none do).  Exit status is 0 when every report passes, 1
otherwise, so this can sit in a cron job or CI step.
"""
import argparse
import sys
from time import perf_counter

from beamkit.identities import SUITE_NAMES, run_suite


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", default="all",
                    choices=("all",) + SUITE_NAMES)
    ap.add_argument("--show-passing", action="store_true",
                    help="list every report, not only failures")
    args = ap.parse_args(argv)

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports, summary = [], []
    for name in names:
        t0 = perf_counter()
        batch = run_suite(name)
        seconds = perf_counter() - t0
        evals = [r.params["quad_evals"] for r in batch
                 if "quad_evals" in r.params]
        summary.append(f"{name:14s} {len(batch):7d} "
                       f"{sum(not r.ok for r in batch):6d} {seconds:8.3f} "
                       f"{sum(evals) if evals else '-':>10}")
        reports += batch
    n_fail = 0
    print(f"{'identity':42s} {'abs err':>10s} {'tol':>8s}  verdict")
    for r in reports:
        if not r.ok:
            n_fail += 1
        if args.show_passing or not r.ok:
            verdict = "ok" if r.ok else "FAIL"
            print(f"{r.identity_id:42s} {r.abs_err:10.2e} {r.tol:8.0e}  "
                  f"{verdict}")
    print(f"{'suite':14s} {'reports':>7s} {'failed':>6s} {'seconds':>8s} "
          f"{'quad_evals':>10s}")
    print("\n".join(summary))
    print(f"{len(reports) - n_fail}/{len(reports)} reports pass")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
