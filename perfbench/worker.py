"""One closed-loop client: sends a request stream to fuscat.cli.main.

Runs in a fresh interpreter started by run.py, in a single thread: the next
request starts only after the previous one has returned.  Each finished
request is appended to the results file at once (exit code, stdout SHA-256,
latency, and the machine-speed probe timed just before it), so a run killed
by the guard still leaves every finished request on disk.  The stream stops
at the first round boundary (every `--round` requests) where both
`--seconds` have passed and `--min-requests` have finished, or when the plan
runs out.  Stopping only between rounds keeps the request mix of every run
the same.

With `--spans`, the tracer wraps fuscat's public functions before the first
request and the spans are written to that file after the last.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def run_one(main, argv: list[str]) -> tuple[int | None, str, int, str | None, float]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback: the request failed, the stream goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    data = out.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest(), len(data), error, latency


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plan", required=True, help="JSON list of argv lists")
    ap.add_argument("--results", required=True, help="JSON-lines output, one line per request")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-requests", type=int, required=True)
    ap.add_argument("--round", type=int, required=True, help="stop only at a multiple of this many requests")
    ap.add_argument("--src", required=True, help="directory that must hold the imported fuscat")
    ap.add_argument("--spans", help="write trace spans to this file")
    args = ap.parse_args()

    import calibration
    import fuscat.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"fuscat imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if args.spans:
        import tracer
        from fuscat import cyclotomic

        # the lru_cache statistics of q_integer, taken before it is wrapped
        q_info = getattr(getattr(cyclotomic, "q_integer", None), "cache_info", None)
        recorder = tracer.Recorder()
        sites = tracer.install(recorder)
        q_before = q_info() if q_info else None

    with open(args.plan) as fh:
        plan = json.load(fh)

    with open(args.results, "w") as out:
        stream_start = perf_counter()
        for i, argv in enumerate(plan):
            if i % args.round == 0 and i >= args.min_requests and perf_counter() - stream_start >= args.seconds:
                break
            if recorder is not None:
                recorder.request_id = i
            probe_s = calibration.probe()
            code, digest, size, error, latency = run_one(cli.main, argv)
            out.write(json.dumps({"i": i, "exit": code, "sha256": digest, "bytes": size,
                                  "error": error, "latency_s": latency, "probe_s": probe_s}) + "\n")
            out.flush()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.write(json.dumps({"done": True, "peak_rss_kb": peak_kb}) + "\n")

    if recorder is not None:
        q_after = q_info() if q_info else None
        recorder.write(args.spans, {
            "bound_sites": sites,
            "q_integer_hits": q_after.hits - q_before.hits if q_info else 0,
            "q_integer_misses": q_after.misses - q_before.misses if q_info else 0,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
