"""Smoke test of the runnable demos under ``scripts/``: each imports as a
module, and the cheapest one runs end to end."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts")
                 .glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_scripts_found():
    assert {p.stem for p in SCRIPTS} >= {"domain_sweep", "field_map_demo",
                                         "identity_suite",
                                         "triple_sum_convergence"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_with_main(path):
    assert callable(_load(path).main)


def test_identity_suite_planewave_passes(capsys):
    # the planewave suite is six partial-wave sums, a few milliseconds
    mod = _load(next(p for p in SCRIPTS if p.stem == "identity_suite"))
    assert mod.main(["--suite", "planewave"]) == 0
    out = capsys.readouterr().out
    assert "6/6 reports pass" in out
    # one summary line for the suite: reports, failures, seconds, and "-"
    # for quad_evals, since no planewave report carries any
    row = next(ln.split() for ln in out.splitlines()
               if ln.startswith("planewave "))
    assert row[:3] == ["planewave", "6", "0"] and row[4] == "-"
    assert float(row[3]) >= 0.0


def test_domain_sweep_three_draws(capsys):
    # the first three draws of the seeded domain sweep, one report line
    # per route, no silent miss and no point further off than its claim;
    # the last column, the route's total work, is a whole count
    mod = _load(next(p for p in SCRIPTS if p.stem == "domain_sweep"))
    assert mod.main(["--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 draws, seed 12345\n")
    lines = [ln.split() for ln in out.splitlines()[1:]]
    assert lines[0][:4] == ["route", "flagged", "silent", ">claim"]
    assert lines[0][-1] == "work"
    rows = {ln[0]: ln[1:4] for ln in lines[1:]}
    assert rows == {"series": ["0", "0", "0"], "integral": ["0", "0", "0"]}
    for ln in lines[1:]:
        assert ln[-1].isdigit() and int(ln[-1]) > 0
