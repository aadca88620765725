"""Command line front end.

Subcommands:

* ``eval``: one field point through any representation, with dispersion.
* ``map``: a (z, rho) grid at a fixed time slice, CSV or JSON.
* ``verify``: identity report suites as JSON, exit 1 on any failure.
* ``legendre-sum``: the triple-Legendre partial sums next to their
  closed-form reference.
* ``xwave``: the X-wave closed form at a point.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical non-convergence.  Floats are printed with repr, so every
number round-trips exactly; CSV field maps carry the fixed header
``z,rho,t,re,im,abs`` in z-major, then rho, order.  ``map`` evaluates its
grid serially and reads no thread-count variable: every route holds the
interpreter lock, and on the README grid with 2 vCPUs a 2-thread pool made
the direct and series maps slower and left the integral map within noise.
Serially, as process wall on a 2-vCPU Xeon (six runs each), the README
grid takes 0.20-0.31 s direct, 0.33-0.58 s series and 0.61-1.01 s
integral.

``main`` builds the parser on its first call and keeps it for the life of
the process.  Building it costs 1.0-1.7 ms, more than the direct route
spends on a 41-point map row, which a caller running ``map`` once per row
would pay on every row; a one-row direct ``map`` through ``main`` takes
0.9-1.9 ms.  Importing the module builds nothing.  Subcommands are looked
up by name at call time, not bound into the parser, so a ``cmd_*``
rebound on this module after the first call (a tracer, a test's
monkeypatch) is the one that runs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .beamcore import (BeamParams, FieldPoint, cauchy, constant, eval_direct,
                       vacuum)
from .identities import SUITE_NAMES, run_suite
from .integralrep import eval_integral_rep
from .pwseries import eval_series
from .wavepacket import (ConeAngles, triple_legendre_sum,
                         triple_sum_closed_form, xwave_closed_form)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (z, rho) grid at one time slice."""

    z_min: float
    z_max: float
    z_steps: int
    rho_min: float
    rho_max: float
    rho_steps: int
    t: float

    def __post_init__(self):
        if self.z_steps < 1 or self.rho_steps < 1:
            raise ValueError("grid steps must be >= 1")
        if self.z_min > self.z_max:
            raise ValueError(f"z_min {self.z_min!r} > z_max {self.z_max!r}")
        if self.rho_min > self.rho_max:
            raise ValueError(
                f"rho_min {self.rho_min!r} > rho_max {self.rho_max!r}")
        if self.rho_min < 0:
            raise ValueError(f"rho_min must be >= 0: {self.rho_min!r}")

    def points(self) -> list:
        """Grid points in output order: z-major, then rho."""
        zs = np.linspace(self.z_min, self.z_max, self.z_steps)
        rhos = np.linspace(self.rho_min, self.rho_max, self.rho_steps)
        return [FieldPoint(z=float(z), rho=float(rho), t=self.t)
                for z in zs for rho in rhos]


def _worker_count() -> int:
    """Threads ``map`` evaluates on: always 1, it runs serially."""
    return 1


def _dispersion_from_args(args):
    kind = getattr(args, "dispersion", "vacuum")
    if kind == "vacuum":
        if args.n0 is not None or args.cauchy_a is not None:
            raise ValueError(
                "--n0/--cauchy-a only apply with --dispersion constant/cauchy")
        return vacuum()
    if kind == "constant":
        if args.n0 is None:
            raise ValueError("--dispersion constant requires --n0")
        return constant(args.n0)
    if args.cauchy_a is None:
        raise ValueError("--dispersion cauchy requires --cauchy-a")
    return cauchy(args.cauchy_a, args.cauchy_b)


def _evaluate_point(rep: str, beam: BeamParams, p: FieldPoint,
                    model=vacuum()):
    """One field value; returns (value, extras, converged)."""
    if rep == "direct":
        return eval_direct(beam, p, medium=model), {}, True
    if rep == "series":
        res = eval_series(beam, p, medium=model)
        extras = {"n_terms": res.n_terms, "tail": res.tail_estimate}
        return res.value, extras, res.converged
    q = eval_integral_rep(beam, p, medium=model)
    extras = {"n_evals": q.n_evals, "error": q.error_estimate}
    return q.value, extras, q.converged


def cmd_eval(args) -> int:
    beam = BeamParams(omega=args.omega, cos_theta=args.cos_theta)
    p = FieldPoint(z=args.z, rho=args.rho, t=args.t)
    model = _dispersion_from_args(args)
    value, extras, converged = _evaluate_point(args.rep, beam, p, model)
    parts = [f"re={value.real!r}", f"im={value.imag!r}",
             f"abs={abs(value)!r}"]
    for key, val in extras.items():
        parts.append(f"{key}={val!r}")
    print("  ".join(parts))
    if not converged:
        print("warning: result did not meet its convergence target",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _json_num(x: float):
    # strict JSON has no nan/inf
    return x if math.isfinite(x) else None


def cmd_map(args) -> int:
    grid = GridSpec(z_min=args.z_min, z_max=args.z_max, z_steps=args.z_steps,
                    rho_min=args.rho_min, rho_max=args.rho_max,
                    rho_steps=args.rho_steps, t=args.t)
    beam = BeamParams(omega=args.omega, cos_theta=args.cos_theta)

    nan = float("nan")
    rows = []
    failures = 0
    for p in grid.points():
        v, _, converged = _evaluate_point(args.rep, beam, p)
        if converged:
            rows.append((p.z, p.rho, p.t, v.real, v.imag, abs(v)))
        else:
            failures += 1
            rows.append((p.z, p.rho, p.t, nan, nan, nan))

    try:
        with open(args.out, "w") as fh:
            if args.format == "csv":
                fh.write("z,rho,t,re,im,abs\n")
                for row in rows:
                    fh.write(",".join(repr(x) for x in row) + "\n")
            else:
                payload = [{"z": z, "rho": rho, "t": t,
                            "re": _json_num(re), "im": _json_num(im),
                            "abs": _json_num(ab)}
                           for z, rho, t, re, im, ab in rows]
                json.dump(payload, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if failures:
        print(f"warning: {failures} of {len(rows)} points did not converge",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suite(args.suite)
    payload = [r.to_json_dict() for r in reports]
    text = json.dumps(payload, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    n_fail = sum(1 for r in reports if not r.ok)
    print(f"{len(reports) - n_fail}/{len(reports)} reports pass",
          file=sys.stderr)
    return EXIT_VERIFY_FAIL if n_fail else EXIT_OK


def cmd_legendre_sum(args) -> int:
    angles = ConeAngles(cos_theta=args.cos_theta, cos_eta=args.cos_eta,
                        cos_gamma=args.cos_gamma)
    res = triple_legendre_sum(angles, args.n_max, mode=args.mode)
    try:
        ref = repr(triple_sum_closed_form(angles))
    except ValueError:
        ref = "singular-boundary"
    print(f"value={res.value.real!r}  reference={ref}  mode={args.mode}  "
          f"n_max={args.n_max}  tail={res.tail_estimate!r}")
    return EXIT_OK


def cmd_xwave(args) -> int:
    p = FieldPoint(z=args.z, rho=args.rho, t=args.t)
    value = xwave_closed_form(args.cos_theta, p)
    print(f"value={value!r}")
    return EXIT_OK


def _add_beam_flags(sp):
    sp.add_argument("--omega", type=float, required=True,
                    help="angular frequency (sign allowed)")
    sp.add_argument("--cos-theta", type=float, required=True,
                    help="cosine of the cone angle, in [-1, 1]")


def _add_point_flags(sp):
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--rho", type=float, default=0.0)
    sp.add_argument("--t", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="beamkit",
        description="Bessel beam field evaluation and identity checks")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate the field at one point")
    ev.add_argument("--rep", choices=("direct", "series", "integral"),
                    required=True)
    _add_beam_flags(ev)
    _add_point_flags(ev)
    ev.add_argument("--dispersion", choices=("vacuum", "constant", "cauchy"),
                    default="vacuum")
    ev.add_argument("--n0", type=float, default=None,
                    help="index for --dispersion constant")
    ev.add_argument("--cauchy-a", type=float, default=None,
                    help="constant term of the Cauchy index")
    ev.add_argument("--cauchy-b", type=float, default=0.0,
                    help="quadratic term of the Cauchy index")

    mp = sub.add_parser("map", help="field map over a (z, rho) grid")
    mp.add_argument("--rep", choices=("direct", "series", "integral"),
                    required=True)
    _add_beam_flags(mp)
    mp.add_argument("--z-min", type=float, required=True)
    mp.add_argument("--z-max", type=float, required=True)
    mp.add_argument("--z-steps", type=int, required=True)
    mp.add_argument("--rho-min", type=float, required=True)
    mp.add_argument("--rho-max", type=float, required=True)
    mp.add_argument("--rho-steps", type=int, required=True)
    mp.add_argument("--t", type=float, default=0.0)
    mp.add_argument("--out", required=True)
    mp.add_argument("--format", choices=("csv", "json"), default="csv")

    vf = sub.add_parser("verify", help="run identity report suites")
    vf.add_argument("--suite", choices=("all",) + SUITE_NAMES,
                    default="all")
    vf.add_argument("--out", default=None,
                    help="report file; stdout when omitted")
    vf.add_argument("--format", choices=("json",), default="json")

    ls = sub.add_parser("legendre-sum",
                        help="triple-Legendre partial sums vs closed form")
    ls.add_argument("--cos-theta", type=float, required=True)
    ls.add_argument("--cos-eta", type=float, required=True)
    ls.add_argument("--cos-gamma", type=float, required=True)
    ls.add_argument("--n-max", type=int, required=True)
    ls.add_argument("--mode", choices=("raw", "cesaro", "double_average"),
                    default="cesaro")

    xw = sub.add_parser("xwave", help="X-wave closed form at a point")
    xw.add_argument("--cos-theta", type=float, required=True)
    _add_point_flags(xw)

    return ap


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # by name at call time: a cmd_* rebound after the first call must run
    command = {"eval": cmd_eval, "map": cmd_map, "verify": cmd_verify,
               "legendre-sum": cmd_legendre_sum,
               "xwave": cmd_xwave}[args.command]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
