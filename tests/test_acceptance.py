"""Acceptance gate.

One test per acceptance criterion; each prints a single pass/fail line to
the terminal (bypassing capture) so the run log shows the verdict table,
then asserts.  Budgets are wall-clock seconds.
"""
import math
import time

import numpy as np
import pytest

from beamkit.beamcore import (BeamParams, FieldPoint, cauchy, constant,
                              eval_direct, vacuum)
from beamkit.identities import run_suite
from beamkit.integralrep import eval_integral_rep
from beamkit.pwseries import eval_series
from beamkit.specfun import (legendre_p_sequence, spherical_jn_sequence)

ZS = [-2.0, -0.5, 0.0, 1.0, 3.0]
RHOS = [0.0, 0.3, 1.0, 2.0, 5.0]
TS = [-1.0, 0.0, 2.0]
OMEGAS = [0.5, 3.0, 12.0]
COS_THETAS = [-0.9, 0.0, 0.7, 1.0]


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})")


def _suite_stats(reports):
    all_ok = all(r.ok for r in reports)
    worst = max(r.abs_err for r in reports)
    return all_ok, worst


def test_criterion_1_representation_triangle(capsys):
    t0 = time.monotonic()
    worst_series = 0.0
    worst_integral = 0.0
    n_unconverged = 0
    for omega in OMEGAS:
        for ct in COS_THETAS:
            beam = BeamParams(omega=omega, cos_theta=ct)
            for z in ZS:
                for rho in RHOS:
                    for t in TS:
                        p = FieldPoint(z, rho, t)
                        ref = eval_direct(beam, p)
                        s = eval_series(beam, p)
                        worst_series = max(worst_series, abs(s.value - ref))
                        q = eval_integral_rep(beam, p)
                        if not q.converged:
                            n_unconverged += 1
                        worst_integral = max(worst_integral,
                                             abs(q.value - ref))
    elapsed = time.monotonic() - t0
    ok = (worst_series <= 1e-10 and worst_integral <= 1e-6
          and n_unconverged == 0 and elapsed < 60.0)
    _verdict(capsys, 1, "representation triangle", ok,
             f"series {worst_series:.2e} <= 1e-10, "
             f"integral {worst_integral:.2e} <= 1e-6, {elapsed:.1f}s")
    assert ok


def test_criterion_2_beam_identity(capsys):
    t0 = time.monotonic()
    reports = run_suite("beamidentity")
    elapsed = time.monotonic() - t0
    all_ok, worst = _suite_stats(reports)
    args = sorted(r.params["omega_r"] for r in reports)
    ok = (all_ok and args == [0.0, 0.5, 1.0, 5.0, 10.0, 20.0, 40.0]
          and all(r.tol == 1e-8 for r in reports) and elapsed < 10.0)
    _verdict(capsys, 2, "Bessel beam identity", ok,
             f"{len(reports)} args, worst {worst:.2e} <= 1e-8, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_cone_integral(capsys):
    t0 = time.monotonic()
    reports = run_suite("stratton")
    elapsed = time.monotonic() - t0
    all_ok, worst = _suite_stats(reports)
    orders = {r.params["n"] for r in reports}
    omegas = {r.params["omega"] for r in reports}
    ok = (all_ok and orders == set(range(13)) and omegas == {0.5, 2.0, 10.0}
          and all(r.tol == 1e-9 for r in reports) and elapsed < 30.0)
    _verdict(capsys, 3, "cone integral vs multipole", ok,
             f"{len(reports)} cases, worst {worst:.2e} <= 1e-9, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_4_addition_theorem(capsys):
    t0 = time.monotonic()
    reports = run_suite("hochstadt")
    elapsed = time.monotonic() - t0
    all_ok, worst = _suite_stats(reports)
    ok = (all_ok and len(reports) == 30
          and all(r.tol == 1e-10 for r in reports)
          and all(r.params["lam"] <= 20 and r.params["mu"] <= 20
                  for r in reports)
          and elapsed < 5.0)
    _verdict(capsys, 4, "addition-theorem sum", ok,
             f"{len(reports)} triples, worst {worst:.2e} <= 1e-10, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_triple_legendre_sum(capsys):
    t0 = time.monotonic()
    reports = run_suite("triplesum")
    elapsed = time.monotonic() - t0
    interior = [r for r in reports if abs(r.rhs) > 0]
    exterior = [r for r in reports if r.rhs == 0]
    all_ok = all(r.ok for r in reports)
    worst_rel = max((r.rel_err for r in interior), default=math.inf)
    worst_ext = max((r.abs_err for r in exterior), default=math.inf)
    ok = (all_ok and len(interior) == 20 and len(exterior) == 20
          and worst_rel <= 2e-2 and worst_ext <= 2e-2 and elapsed < 30.0)
    _verdict(capsys, 5, "triple Legendre Cesaro sum", ok,
             f"20 interior worst rel {worst_rel:.2e} <= 2e-2, "
             f"20 exterior worst mag {worst_ext:.2e} <= 2e-2, {elapsed:.1f}s")
    assert ok


def test_criterion_6_xwave_closed_form(capsys):
    t0 = time.monotonic()
    reports = run_suite("xwave")
    elapsed = time.monotonic() - t0
    interior = [r for r in reports if abs(r.rhs) > 0]
    exterior = [r for r in reports if r.rhs == 0]
    all_ok = all(r.ok for r in reports)
    worst_rel = max((r.rel_err for r in interior), default=math.inf)
    exact_zero = all(r.lhs == 0 and r.abs_err == 0.0 for r in exterior)
    ok = (all_ok and len(interior) == 10 and len(exterior) == 10
          and worst_rel <= 1e-3 and exact_zero and elapsed < 5.0)
    _verdict(capsys, 6, "X-wave closed form vs oracle", ok,
             f"10 interior worst rel {worst_rel:.2e} <= 1e-3, "
             f"10 exterior exactly 0, {elapsed:.1f}s")
    assert ok


def test_criterion_7_special_function_floor(capsys):
    t0 = time.monotonic()
    orth = run_suite("orthogonality")
    jn = run_suite("jnnorm")
    orth_ok = all(r.ok and r.tol == 1e-11 for r in orth) and len(orth) == 31
    jn_ok = all(r.ok and r.tol == 1e-7 for r in jn) and len(jn) == 21

    worst_leg = 0.0
    for x in (-0.95, -0.3, 0.0, 0.44, 0.9):
        seq = legendre_p_sequence(401, x)
        for n in range(1, 400):
            res = ((n + 1) * seq[n + 1] - (2 * n + 1) * x * seq[n]
                   + n * seq[n - 1])
            worst_leg = max(worst_leg, abs(res))

    worst_sph = 0.0
    for x in (0.7, 2.0, 9.5, 37.0, 150.0):
        seq = spherical_jn_sequence(41, x)
        for n in range(1, 40):
            if abs(seq[n]) <= 1e-200:
                continue
            lhs = seq[n - 1] + seq[n + 1]
            rhs = (2 * n + 1) / x * seq[n]
            scale = max(abs(lhs), abs(rhs))
            worst_sph = max(worst_sph, abs(lhs - rhs) / scale)

    elapsed = time.monotonic() - t0
    ok = (orth_ok and jn_ok and worst_leg <= 1e-12 and worst_sph <= 1e-11
          and elapsed < 20.0)
    _verdict(capsys, 7, "special-function floor", ok,
             f"P norms ({len(orth)}) and j norms ({len(jn)}) pass, "
             f"P recurrence {worst_leg:.2e} <= 1e-12, "
             f"j recurrence {worst_sph:.2e} <= 1e-11, {elapsed:.1f}s")
    assert ok


def test_criterion_8_dispersion_consistency(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(60541)
    points = [
        (FieldPoint(z=float(rng.uniform(-2, 2)),
                    rho=float(rng.uniform(0, 3)),
                    t=float(rng.uniform(-1, 1))),
         float(rng.uniform(0.5, 6.0)),
         float(rng.uniform(-0.95, 0.95)))
        for _ in range(10)]
    worst = 0.0
    for model in (vacuum(), constant(1.5), cauchy(1.5, 0.01)):
        for p, omega, ct in points:
            beam = BeamParams(omega=omega, cos_theta=ct)
            ref = eval_direct(beam, p, medium=model)
            s = eval_series(beam, p, medium=model)
            worst = max(worst, abs(s.value - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(capsys, 8, "dispersion consistency", ok,
             f"3 models x 10 points, worst {worst:.2e} <= 1e-10, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_negative_control(capsys):
    reports = run_suite("planewave")
    control = [r for r in reports
               if r.identity_id == "planewave_paper_coeff_negative_control"]
    good = [r for r in reports
            if r.identity_id != "planewave_paper_coeff_negative_control"]
    assert len(control) == 1
    ratio = abs(control[0].lhs)
    control_ok = control[0].ok and 1.8 <= ratio <= 2.2
    good_ok = all(r.ok and r.tol == 1e-10 for r in good) and len(good) >= 1
    ok = control_ok and good_ok
    worst_good = max(r.abs_err for r in good)
    _verdict(capsys, 9, "plane-wave coefficient control", ok,
             f"halved coefficients off by x{ratio:.3f} in [1.8, 2.2]; "
             f"(2n+1) form worst {worst_good:.2e} <= 1e-10")
    assert ok
