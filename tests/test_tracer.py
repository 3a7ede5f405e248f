"""The benchmark's span tracer still binds every function it names.

`perfbench/tracer.py` wraps a fixed list of fuscat functions; a target that
was deleted or renamed is skipped, and its metrics then read 0 in every
traced run.  Installing the tracer against the tree catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# installing rebinds fuscat's globals, so it runs in a process of its own
INSTALL = """
import importlib, importlib.util, json, sys
sys.dont_write_bytecode = True  # leave perfbench/ as it is
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
for module in dict.fromkeys(m for m, *_ in tracer.TARGETS):
    importlib.import_module(f"fuscat.{module}")
sites = tracer.install(tracer.Recorder())
print(json.dumps(sorted(name for name, n in sites.items() if n == 0)))
"""


def test_tracer_binds_every_target_but_from_elements():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "perfbench" / "tracer.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    # install raises if an unwrapped reference to a target survives
    assert proc.returncode == 0, proc.stderr
    # PermGroup.from_elements left src/ while the tracer still names it; any
    # other unbound target is a traced function deleted or renamed
    assert json.loads(proc.stdout) == ["finitegroup.from_elements"]
