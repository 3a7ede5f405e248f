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
