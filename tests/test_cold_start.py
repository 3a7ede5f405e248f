"""`import fuscat.cli` runs in front of every invocation, so it must not
load `dataclasses` or the `inspect` that `dataclasses` pulls in: with the
decorators run at import they cost about 14 ms of every start."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules a fresh interpreter loads for `import fuscat.cli`, past
# whatever `site` loaded before it
NEW_MODULES = """
import sys
before = set(sys.modules)
import fuscat.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", NEW_MODULES], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {"fuscat.cli", "fuscat.finitegroup"} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
