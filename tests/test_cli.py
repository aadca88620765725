import csv
import json
import math
import re

import pytest

import beamkit.cli as cli
from beamkit.beamcore import BeamParams, FieldPoint, constant, eval_direct
from beamkit.cli import GridSpec, main


def _parse_eval_line(line):
    out = {}
    for part in line.split():
        key, _, val = part.partition("=")
        out[key] = float(val)
    return out


class TestGridSpec:
    def test_point_order_z_major(self):
        g = GridSpec(z_min=0.0, z_max=1.0, z_steps=2,
                     rho_min=0.0, rho_max=2.0, rho_steps=3, t=0.5)
        pts = g.points()
        assert [(p.z, p.rho) for p in pts] == [
            (0.0, 0.0), (0.0, 1.0), (0.0, 2.0),
            (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]
        assert all(p.t == 0.5 for p in pts)

    def test_single_point_grid(self):
        g = GridSpec(0.0, 0.0, 1, 0.0, 0.0, 1, 0.0)
        assert len(g.points()) == 1

    @pytest.mark.parametrize("kw", [
        dict(z_steps=0), dict(z_min=2.0), dict(rho_min=-0.5),
        dict(rho_min=3.0)])
    def test_validation(self, kw):
        base = dict(z_min=0.0, z_max=1.0, z_steps=2,
                    rho_min=0.0, rho_max=1.0, rho_steps=2, t=0.0)
        base.update(kw)
        with pytest.raises(ValueError):
            GridSpec(**base)


class TestEval:
    def test_direct_on_axis(self, capsys):
        # on the axis the field is a pure phase exp(i*omega*(ct*z - t))
        rc = main(["eval", "--rep", "direct", "--omega", "2.0",
                   "--cos-theta", "1.0", "--z", "1.0"])
        assert rc == 0
        got = _parse_eval_line(capsys.readouterr().out.strip())
        assert got["re"] == pytest.approx(math.cos(2.0), abs=1e-15)
        assert got["im"] == pytest.approx(math.sin(2.0), abs=1e-15)
        assert got["abs"] == pytest.approx(1.0, abs=1e-15)

    def test_series_reports_terms(self, capsys):
        rc = main(["eval", "--rep", "series", "--omega", "3.0",
                   "--cos-theta", "0.5", "--z", "0.7", "--rho", "1.2"])
        assert rc == 0
        line = capsys.readouterr().out
        assert "n_terms=" in line
        assert "tail=" in line

    def test_integral_reports_evals(self, capsys):
        rc = main(["eval", "--rep", "integral", "--omega", "2.0",
                   "--cos-theta", "0.6", "--z", "1.0"])
        assert rc == 0
        line = capsys.readouterr().out
        assert "n_evals=0" in line  # axis goes analytic

    def test_routes_agree(self, capsys):
        argv_tail = ["--omega", "3.0", "--cos-theta", "0.5",
                     "--z", "0.7", "--rho", "1.2", "--t", "0.3"]
        vals = {}
        for rep in ("direct", "series", "integral"):
            assert main(["eval", "--rep", rep] + argv_tail) == 0
            vals[rep] = _parse_eval_line(capsys.readouterr().out.strip())
        for rep in ("series", "integral"):
            assert vals[rep]["re"] == pytest.approx(vals["direct"]["re"],
                                                    abs=1e-6)
            assert vals[rep]["im"] == pytest.approx(vals["direct"]["im"],
                                                    abs=1e-6)

    def test_floats_roundtrip_via_repr(self, capsys):
        assert main(["eval", "--rep", "direct", "--omega", "3.0",
                     "--cos-theta", "0.7071067811865476",
                     "--z", "1.0", "--rho", "2.0"]) == 0
        out = capsys.readouterr().out.strip()
        m = re.match(r"re=(\S+)\s+im=(\S+)\s+abs=(\S+)", out)
        re_v, im_v = float(m.group(1)), float(m.group(2))
        assert abs(complex(re_v, im_v)) == pytest.approx(float(m.group(3)),
                                                         abs=1e-16)

    def test_dispersion_flag_validation(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.0",
                   "--cos-theta", "0.5", "--n0", "1.5"])
        assert rc == 2

    def test_constant_dispersion_needs_n0(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.0",
                   "--cos-theta", "0.5", "--dispersion", "constant"])
        assert rc == 2

    def test_cauchy_dispersion_needs_cauchy_a(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.0",
                   "--cos-theta", "0.5", "--dispersion", "cauchy"])
        assert rc == 2
        assert "--cauchy-a" in capsys.readouterr().err

    def test_constant_dispersion_value(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.5",
                   "--cos-theta", "0.6", "--z", "0.5", "--rho", "0.8",
                   "--t", "0.3", "--dispersion", "constant", "--n0", "1.5"])
        assert rc == 0
        got = _parse_eval_line(capsys.readouterr().out.strip())
        want = eval_direct(BeamParams(omega=1.5, cos_theta=0.6),
                           FieldPoint(z=0.5, rho=0.8, t=0.3),
                           medium=constant(1.5))
        assert complex(got["re"], got["im"]) == want

    def test_cauchy_dispersion_runs(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.5",
                   "--cos-theta", "0.6", "--z", "0.5", "--rho", "0.8",
                   "--dispersion", "cauchy", "--cauchy-a", "1.5",
                   "--cauchy-b", "0.01"])
        assert rc == 0

    def test_domain_error_exit_2(self, capsys):
        rc = main(["eval", "--rep", "direct", "--omega", "1.0",
                   "--cos-theta", "1.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--rep", "bogus", "--omega", "1", "--cos-theta", "0"])
        assert exc.value.code == 2

    def test_series_beyond_hard_cap_exit_3(self, capsys):
        # omega*r = 6000 lies past the series hard cap
        rc = main(["eval", "--rep", "series", "--omega", "1200.0",
                   "--cos-theta", "0.6", "--z", "3.0", "--rho", "4.0"])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_evaluate_point",
                            lambda rep, beam, p, model=None:
                            (0.5 + 0.5j, {}, False))
        rc = main(["eval", "--rep", "series", "--omega", "1.0",
                   "--cos-theta", "0.5"])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err


class TestMap:
    def _run(self, tmp_path, fmt, extra=()):
        out = tmp_path / ("map." + fmt)
        rc = main(["map", "--rep", "direct", "--omega", "2.0",
                   "--cos-theta", "0.6", "--z-min", "-1", "--z-max", "1",
                   "--z-steps", "3", "--rho-min", "0", "--rho-max", "2",
                   "--rho-steps", "3", "--t", "0.25",
                   "--out", str(out), "--format", fmt] + list(extra))
        return rc, out

    def test_csv_header_and_shape(self, tmp_path, capsys):
        rc, out = self._run(tmp_path, "csv")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,rho,t,re,im,abs"
        assert len(lines) == 10

    def test_csv_roundtrip_and_order(self, tmp_path, capsys):
        rc, out = self._run(tmp_path, "csv")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        zs = [float(r["z"]) for r in rows]
        rhos = [float(r["rho"]) for r in rows]
        assert zs == [-1.0] * 3 + [0.0] * 3 + [1.0] * 3
        assert rhos == [0.0, 1.0, 2.0] * 3
        for r in rows:
            assert float(r["t"]) == 0.25
            v = complex(float(r["re"]), float(r["im"]))
            assert abs(v) == pytest.approx(float(r["abs"]), abs=1e-15)

    def test_json_matches_csv(self, tmp_path, capsys):
        _, csv_out = self._run(tmp_path, "csv")
        _, json_out = self._run(tmp_path, "json")
        with open(csv_out) as fh:
            csv_rows = list(csv.DictReader(fh))
        payload = json.loads(json_out.read_text())
        assert len(payload) == len(csv_rows)
        for jrow, crow in zip(payload, csv_rows):
            for key in ("z", "rho", "t", "re", "im", "abs"):
                assert jrow[key] == float(crow[key])

    def test_thread_count_invariance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BEAMKIT_THREADS", "7")
        _, a = self._run(tmp_path, "csv")
        text_a = a.read_text()
        a.unlink()
        monkeypatch.setenv("BEAMKIT_THREADS", "1")
        _, b = self._run(tmp_path, "csv")
        assert b.read_text() == text_a

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        rc = main(["map", "--rep", "direct", "--omega", "1.0",
                   "--cos-theta", "0.5", "--z-min", "0", "--z-max", "0",
                   "--z-steps", "1", "--rho-min", "0", "--rho-max", "0",
                   "--rho-steps", "1",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 2

    def test_failed_points_get_nan_and_exit_3(self, tmp_path, capsys,
                                              monkeypatch):
        def fake(rep, beam, p, model=None):
            if p.rho > 1.5:
                return 0j, {}, False
            return 1 + 0j, {}, True
        monkeypatch.setattr(cli, "_evaluate_point", fake)
        rc, out = self._run(tmp_path, "csv")
        assert rc == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        nan_rows = [ln for ln in lines[1:] if "nan" in ln]
        assert len(nan_rows) == 3  # rho = 2 column

    def test_json_failed_points_are_null(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_evaluate_point",
                            lambda rep, beam, p, model=None: (0j, {}, False))
        rc, out = self._run(tmp_path, "json")
        assert rc == 3
        payload = json.loads(out.read_text())
        assert all(row["re"] is None for row in payload)


class TestVerify:
    def test_suite_to_stdout(self, capsys):
        rc = main(["verify", "--suite", "orthogonality"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload
        assert all(r["pass"] for r in payload)
        assert re.search(r"\d+/\d+ reports pass", captured.err)

    def test_suite_to_file(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        rc = main(["verify", "--suite", "hochstadt", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        keys = {"identity_id", "params", "lhs_re", "lhs_im", "rhs_re",
                "rhs_im", "abs_err", "rel_err", "tol", "pass"}
        assert all(set(r) == keys for r in payload)

    def test_failure_exit_1(self, capsys, monkeypatch):
        import beamkit.identities as idn
        bad = idn.IdentityReport(
            identity_id="forced_failure", params={}, lhs=1 + 0j, rhs=2 + 0j,
            abs_err=1.0, rel_err=0.5, tol=1e-9, ok=False)
        monkeypatch.setattr(cli, "run_suite", lambda name: [bad])
        rc = main(["verify", "--suite", "orthogonality"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "0/1 reports pass" in captured.err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "planewave",
                   "--out", str(tmp_path / "no" / "dir" / "r.json")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestLegendreSumCmd:
    def test_prints_value_and_reference(self, capsys):
        rc = main(["legendre-sum", "--cos-theta", "0", "--cos-eta", "0",
                   "--cos-gamma", "0", "--n-max", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"value=(\S+)\s+reference=(\S+)", out)
        value, ref = float(m.group(1)), float(m.group(2))
        assert ref == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert value == pytest.approx(ref, abs=2e-2)
        assert "mode=cesaro" in out
        assert "n_max=2000" in out

    def test_singular_boundary_label(self, capsys):
        rc = main(["legendre-sum", "--cos-theta", "0", "--cos-eta", "0",
                   "--cos-gamma", "1.0", "--n-max", "50"])
        assert rc == 0
        assert "reference=singular-boundary" in capsys.readouterr().out

    def test_domain_error_exit_2(self, capsys):
        rc = main(["legendre-sum", "--cos-theta", "0", "--cos-eta", "0",
                   "--cos-gamma", "1.5", "--n-max", "50"])
        assert rc == 2


class TestXwaveCmd:
    def test_interior_value(self, capsys):
        rc = main(["xwave", "--cos-theta", "0.6", "--z", "0.5",
                   "--rho", "2.0", "--t", "0.6"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.strip().split("=")[1])
        assert value == pytest.approx(1.272569525951555544957, rel=1e-14)

    def test_exterior_zero(self, capsys):
        rc = main(["xwave", "--cos-theta", "0.0", "--rho", "1.0",
                   "--t", "1.5"])
        assert rc == 0
        assert "value=0.0" in capsys.readouterr().out

    def test_boundary_exit_2(self, capsys):
        rc = main(["xwave", "--cos-theta", "0.0", "--rho", "1.0",
                   "--t", "1.0"])
        assert rc == 2


# NaN fails both `abs(c) > 1` and `x < 0`, so each domain check is written
# to refuse it; non-finite coordinates are refused as well
@pytest.mark.parametrize("argv", [
    ["eval", "--rep", "series", "--omega", "3", "--cos-theta", "nan",
     "--z", "1", "--rho", "0.5"],
    ["eval", "--rep", "direct", "--omega", "3", "--cos-theta", "0.5",
     "--z", "nan"],
    ["eval", "--rep", "direct", "--omega", "3", "--cos-theta", "0.5",
     "--rho", "inf"],
    ["eval", "--rep", "integral", "--omega", "3", "--cos-theta", "0.5",
     "--rho", "1", "--t", "nan"],
    ["legendre-sum", "--cos-theta", "nan", "--cos-eta", "0",
     "--cos-gamma", "0", "--n-max", "50"],
    ["legendre-sum", "--cos-theta", "0", "--cos-eta", "nan",
     "--cos-gamma", "0", "--n-max", "50"],
    ["legendre-sum", "--cos-theta", "0", "--cos-eta", "0",
     "--cos-gamma", "nan", "--n-max", "50"],
    ["xwave", "--cos-theta", "nan", "--z", "0.5", "--rho", "2",
     "--t", "0.6"],
    # finite flags whose products overflow: omega*r, the phase, k_rho*rho,
    # the X-wave radicand and omega*t
    ["eval", "--rep", "series", "--omega", "1e200", "--cos-theta", "0.5",
     "--z", "1e200"],
    ["eval", "--rep", "direct", "--omega", "1e200", "--cos-theta", "0.5",
     "--z", "1e200", "--rho", "1e200"],
    ["eval", "--rep", "integral", "--omega", "1e200", "--cos-theta", "0.5",
     "--z", "1e200", "--rho", "1"],
    ["xwave", "--cos-theta", "0.5", "--z", "1e200", "--rho", "1e200",
     "--t", "1"],
    ["eval", "--rep", "series", "--omega", "1e200", "--cos-theta", "0.5",
     "--z", "1e-200", "--t", "1e200"],
    ["eval", "--rep", "integral", "--omega", "1e200", "--cos-theta", "0.5",
     "--z", "1e-200", "--t", "1e200"],
    ["eval", "--rep", "direct", "--omega", "nan", "--cos-theta", "0.5"],
])
@pytest.mark.filterwarnings("error")
def test_non_finite_input_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
