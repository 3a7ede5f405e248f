"""The experiment scripts run end to end against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, line", [
    ("verlinde_survey.py", ["--types", "A1", "--lmax", "9", "--pmax", "10"],
     "  l=9   G B G G   (8 simples, 2 with non-unit norm)"),
    ("group_survey.py", ["--groups", "S3,A4"], "A4      |G|=12    degrees=[1, 1, 1, 3]"),
    ("group_survey.py", ["--groups", "D12xD12xD12"],
     "        p=3: good; Sylow of order 27 is normal and abelian, complement order 64"),
    ("group_survey.py", ["--groups", "C128"],
     "        p=2: good; Sylow of order 128 is normal and abelian, complement order 1"),
])
def test_script_runs(script, args, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


@pytest.mark.parametrize("script, args, cap, last_row, error", [
    ("verlinde_survey.py", ["--types", "A1,X9", "--lmax", "5"], None,
     "  l=5   G G G G G G G G G G   (4 simples, 0 with non-unit norm)",
     "error: cannot parse root-system label 'X9'"),
    ("verlinde_survey.py", ["--types", "A2", "--lmax", "21"], "100",
     "  l=15  G B B G G G G G G G   (91 simples, 79 with non-unit norm)",
     "error: the level-17 alcove of A2 has more weights than the enumeration cap 100"),
    ("group_survey.py", ["--groups", "S3,S9"], None,
     "        p=3: good; Sylow of order 3 is normal and abelian, complement order 2",
     "error: group order exceeds the enumeration cap 20000"),
])
def test_script_refusal_exits_2_after_the_rows_before_it(script, args, cap, last_row, error):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FUSCAT_ENUM_CAP", None)
    if cap:
        env["FUSCAT_ENUM_CAP"] = cap
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1] == last_row
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(error)
