"""Smoke tests: every demo script runs cleanly and prints its sections."""

import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demo_scripts_present():
    names = [p.name for p in DEMOS]
    assert len(names) == 5
    assert names[0].startswith("01_") and names[-1].startswith("05_")


_MARKERS = {
    "01_timescale_tour.py": ["backward jump", "closed forms", "admissible"],
    "02_feasibility_check.py": ["kappa", "feasible: yes", "feasible: no"],
    "03_simulation.py": ["integer lattice", "dense grid", "CSV export"],
    "04_certificate_and_verification.py": ["lambda = ", "violated false",
                                           "rate on this lattice: 0.046377",
                                           "t,distance,bound,margin"],
    "05_almost_periodicity.py": ["translation-number scan", "hits",
                                 "max_gap"],
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, src_env, tmp_path):
    # the demo's temporary files go under tmp_path, which it must leave empty
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=300, env={**src_env, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    for marker in _MARKERS[script.name]:
        assert marker in proc.stdout, f"{script.name}: missing {marker!r}"
    assert not any(tmp_path.iterdir()), f"{script.name} left {sorted(tmp_path.iterdir())}"
