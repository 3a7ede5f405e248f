"""fuscat benchmark: one workload run, closed loop with one client.

    python3 perfbench/run.py --workload alcove-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The request stream comes from the
workload's pool and the seed (workloads.py).  A fresh interpreter
(worker.py) sends the requests to fuscat.cli.main one at a time; this
process guards it with a wall-clock limit, checks every reply against
goldens.json and prints one JSON result as the last line of stdout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs a
fixed-length traced stream and its untraced replay and reports the per-layer
metrics.  A record of every run (seed, interpreter, git SHA, nproc, each
request with its size) goes to .bench_build/perfbench/runs/.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, argv_key, request_stream  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

MIN_REQUESTS = 100          # latency_p90 then has at least ten samples above it
PLAN_LENGTH = 4000          # more than any run can finish; the clock ends the stream
SETUP_IMPORTS = 7           # setup_s is the median of this many fresh imports
GUARD_GRACE_S = 60          # untraced stream: killed at --seconds plus this
TRACE_MIN_REQUESTS = 100    # traced stream length, rounded up to whole rounds
TRACE_GUARD_S = 90          # traced stream is killed after this
REPLAY_GUARD_S = 60         # its untraced replay is killed after this

# layers (modules) a workload must reach; a traced run in which one of them
# records no call at all fails, since its wrappers cannot be bound
TRACED_LAYERS = {
    "alcove-sweep": ["cyclotomic", "rootsys", "verlinde", "cli"],
    "cyclotomic-large": ["cyclotomic", "verlinde", "amplitude", "cli"],
    "group-catalog": ["finitegroup", "gtcat", "cli"],
}


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's fuscat, fixed hashing and a
    bytecode cache owned by the benchmark, the same for every commit."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FUSCAT_ENUM_CAP"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    return env


IMPORT_PROBE = f"""
import sys, statistics, time
sys.path.insert(0, {str(HERE)!r})
import calibration
probe = statistics.median(calibration.probe() for _ in range(5))
t = time.perf_counter()
import fuscat.cli
print(time.perf_counter() - t, probe)
"""


def import_seconds(env: dict[str, str]) -> tuple[float, float]:
    """(seconds to import fuscat.cli in a fresh interpreter, probe seconds
    measured in that interpreter just before)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise RuntimeError(f"cannot import fuscat.cli: {proc.stderr.strip()[-400:]}")
    seconds, probe = proc.stdout.split()
    return float(seconds), float(probe)


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * calibration.REFERENCE_S / probe_s


def scaled_latencies(finished: list[dict]) -> list[float]:
    """Request latencies at the reference machine speed.  Each is scaled by
    the median of the four probes nearest to it, two before and two after:
    the host's speed changes from one request to the next, and one slow
    probe does not move a median."""
    probes = [d["probe_s"] for d in finished]
    return [at_reference_speed(d["latency_s"], statistics.median(probes[max(0, i - 1):i + 3]))
            for i, d in enumerate(finished)]


def run_stream(name: str, plan: list, env: dict[str, str], seconds: float, min_requests: int,
               round_length: int, guard_s: float, spans: Path | None = None) -> dict:
    """Run one worker over `plan` under the guard; returns its finished
    requests, the peak RSS and how it ended."""
    plan_path, results_path = OUT / f"{name}.plan.json", OUT / f"{name}.results.jsonl"
    plan_path.write_text(json.dumps(plan))
    results_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path), "--results", str(results_path),
           "--seconds", str(seconds), "--min-requests", str(min_requests), "--round", str(round_length),
           "--src", str(SRC)]
    if spans is not None:
        spans.unlink(missing_ok=True)
        cmd += ["--spans", str(spans)]
    with open(OUT / f"{name}.log", "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=guard_s)
            killed = False
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
            killed = True
    # a line the kill cut short has no newline yet, so only whole lines are read
    text = results_path.read_text() if results_path.exists() else ""
    lines = [json.loads(line) for line in text.split("\n")[:-1]]
    done = next((d for d in lines if d.get("done")), None)
    finished = [d for d in lines if "i" in d]
    return {"finished": finished, "done": done, "exit": code, "killed": killed}


def check(stream: dict, plan: list, goldens: dict, planned: int) -> list[dict]:
    """Per-request verdicts against the goldens; requests the guard cut off
    (up to `planned`) are added as failures."""
    out = []
    for d in stream["finished"]:
        key = argv_key(plan[d["i"]])
        gold = goldens.get(key)
        if gold is None:
            reason = "no golden reply for this request"
        elif d["error"] is not None:
            reason = d["error"]
        elif d["exit"] != gold["exit"]:
            reason = f"exit {d['exit']}, golden {gold['exit']}"
        elif d["sha256"] != gold["sha256"]:
            reason = "stdout differs from the golden reply"
        else:
            reason = None
        out.append({"i": d["i"], "key": key, "latency_s": d["latency_s"], "exit": d["exit"],
                    "bytes": d["bytes"], "failure": reason, "size": (gold or {}).get("size")})
    if cut_short(stream):
        why = "killed by the run guard" if stream["killed"] else f"worker exited with {stream['exit']}"
        for i in range(len(out), min(len(plan), max(planned, len(out) + 1))):
            out.append({"i": i, "key": argv_key(plan[i]), "latency_s": None, "exit": None, "bytes": 0,
                        "failure": why, "size": None})
    return out


def cut_short(stream: dict) -> bool:
    return stream["killed"] or stream["done"] is None or stream["exit"] != 0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def repeat_share(keys: list[str]) -> float:
    seen: set[str] = set()
    repeats = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def end_to_end(stream: dict, setup: list[tuple[float, float]], guard_s: float) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same figures as measured)."""
    finished = stream["finished"]
    lat = scaled_latencies(finished)
    raw = [d["latency_s"] for d in finished]
    if len(lat) < 2:  # the guard cut the stream at its start: report the guard's limit
        lat = raw = [guard_s, guard_s]
    peak_kb = (stream["done"] or {}).get("peak_rss_kb") or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def figures(lat: list[float], setup_s: list[float]) -> dict[str, float]:
        return {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_kb / 1024,
        }

    return (figures(lat, [at_reference_speed(s, p) for s, p in setup]),
            figures(raw, [s for s, _ in setup]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="fuscat closed-loop benchmark (see METRICS.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fuscat" / "cli.py").is_file():
        print(f"error: no fuscat sources under {SRC}; run from the root of a fuscat checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        goldens = json.loads((HERE / "goldens.json").read_text())
        (OUT / "runs").mkdir(parents=True, exist_ok=True)
        import_seconds(env)  # fills the bytecode cache, so every measured import finds it warm
        notes: list[str] = []
        if args.trace:
            rounds = -(-TRACE_MIN_REQUESTS // workload.round_length())
            plan = [list(a) for a in request_stream(workload, args.seed, rounds * workload.round_length())]
            spans_path = OUT / f"{tag}.spans"
            traced = run_stream(tag, plan, env, 0, len(plan), len(plan), TRACE_GUARD_S, spans_path)
            replay = run_stream(f"{tag}-replay", plan, env, 0, len(plan), len(plan), REPLAY_GUARD_S)
            verdicts = check(traced, plan, goldens, len(plan))
            replay_verdicts = check(replay, plan, goldens, len(plan))
            all_verdicts = verdicts + replay_verdicts
            streams = [traced, replay]
            values: dict[str, float] = {}
            if spans_path.is_file() and not cut_short(traced):
                header, cols = tracer.read_spans(str(spans_path))
                values = layers.layer_metrics(header, cols, plan[:len(traced["finished"])])
                silent = [n for n in TRACED_LAYERS[workload.name] if not values.get(f"{n}.calls")]
                if silent:
                    notes.append(f"layers with zero calls: {silent}")
                values["cli.output_bytes"] = sum(v["bytes"] for v in verdicts)
                values["trace.requests"] = len(traced["finished"])
                if not cut_short(replay):
                    values["trace.overhead_ratio"] = (sum(scaled_latencies(traced["finished"]))
                                                      / sum(scaled_latencies(replay["finished"])))
                extras = {"bound_sites": header["bound_sites"],
                          "missing_targets": [n for n, k in header["bound_sites"].items() if not k]}
            else:
                notes.append("traced stream did not finish; no spans")
                extras = {}
            wanted = spec["per_layer"]
        else:
            setup = [import_seconds(env) for _ in range(SETUP_IMPORTS)]
            plan = [list(a) for a in request_stream(workload, args.seed, PLAN_LENGTH)]
            guard_s = args.seconds + GUARD_GRACE_S
            stream = run_stream(tag, plan, env, args.seconds, MIN_REQUESTS, workload.round_length(), guard_s)
            all_verdicts = verdicts = check(stream, plan, goldens, MIN_REQUESTS)
            streams = [stream]
            values, measured = end_to_end(stream, setup, guard_s)
            extras = {"as_measured": measured, "setup_imports": setup,
                      "probe_s": [d["probe_s"] for d in stream["finished"]]}
            wanted = spec["end_to_end"]
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    notes += [f"worker ended with exit code {st['exit']}" for st in streams if st["exit"] and not st["killed"]]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        notes.append(f"metrics not measured: {missing}")
    failed = [v for v in all_verdicts if v["failure"]]
    for v in failed[:10]:
        print(f"request {v['i']} failed: {v['failure']}: {v['key'][:160]}", file=sys.stderr)
    for note in notes:
        print(f"error: {note}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not failed and not notes, "attempted": len(all_verdicts), "failed": len(failed),
              "metrics": metrics}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_sha": git_sha(), "nproc": os.cpu_count(), "machine": platform.machine(),
        "attempted": result["attempted"], "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"] if result["attempted"] else 0.0,
        "repeat_share": repeat_share([v["key"] for v in verdicts]),
        "notes": notes, "metrics": metrics, **extras,
        "requests": [{"i": v["i"], "argv": v["key"], "size": v["size"], "exit": v["exit"],
                      "latency_ms": None if v["latency_s"] is None else v["latency_s"] * 1000,
                      "failure": v["failure"]} for v in verdicts],
    }
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
