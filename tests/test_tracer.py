"""The benchmark's span tracer still binds every function it names.

`perfbench/tracer.py` wraps a fixed list of fuscat functions; a target that
was deleted or renamed is skipped, and its metrics then read 0 in every
traced run.  Installing the tracer against the tree catches that here.  A
traced benchmark run also fails when a layer it lists in `TRACED_LAYERS`
records no span at all, for instance when the only traced function of that
layer a workload reached is no longer called; one request per stratum,
traced here, catches that too.
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


# the first request of every stratum of every workload, traced; prints the
# exit codes and, per workload, the listed layers that recorded no span
REACH = """
import contextlib, importlib, importlib.util, io, json, sys
sys.dont_write_bytecode = True  # leave perfbench/ as it is
spec = importlib.util.spec_from_file_location("bench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
tracer = run.tracer
for module in dict.fromkeys(m for m, *_ in tracer.TARGETS):
    importlib.import_module(f"fuscat.{module}")
recorder = tracer.Recorder()
tracer.install(recorder)
from fuscat import cli
codes, silent = [], {}
for name, layers in run.TRACED_LAYERS.items():
    first = len(recorder.name)
    for stratum in run.WORKLOADS[name].strata:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(list(stratum.entries[0])))
    reached = {recorder.names[k].split(".")[0] for k in recorder.name[first:]}
    silent[name] = [layer for layer in layers if layer not in reached]
print(json.dumps({"codes": codes, "silent": silent}))
"""


def test_every_traced_layer_records_spans_on_each_workload():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", REACH, str(ROOT / "perfbench" / "run.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report["codes"]) == {0}
    assert report["silent"] == {name: [] for name in report["silent"]}
    assert set(report["silent"]) == {"alcove-sweep", "cyclotomic-large", "group-catalog"}
