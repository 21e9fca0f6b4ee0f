"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOBS.json RESULT.json OUTDIR [--trace SPANS.jsonl]

Run from the root of a checkout with ``src`` on PYTHONPATH.  The worker
imports ``wordseries.cli``, loads the job list (a JSON list of argv lists),
writes ``ready`` on stdout (the parent times set-up up to that line), then
runs every job in order with stdout captured.  Each job's stdout goes to
OUTDIR/<index>.out as soon as the job ends, so that the outputs do not pile
up in the worker's memory; RESULT.json gets per-job exit codes, latencies and
output hashes.  With ``--trace`` it first wraps
the package's public functions (see tracer.py), writes the spans to
SPANS.jsonl and adds per-layer aggregates to RESULT.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def run_job(main, argv: list[str]) -> tuple[int, float, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a job that escapes the CLI's own handlers fails
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            rc = -1
    elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue().encode("utf-8"), err.getvalue()


def main() -> int:
    jobs_path, result_path, out_dir = sys.argv[1:4]
    spans_path = sys.argv[5] if len(sys.argv) > 5 and sys.argv[4] == "--trace" else None

    import wordseries.cli as cli

    expected = os.path.join(os.getcwd(), "src", "wordseries")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"wordseries imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 1
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    print("ready", flush=True)

    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    results = []
    start = time.perf_counter()
    for argv in jobs:
        if tracer:
            tracer.job = len(results)
        rc, elapsed, out, err = run_job(cli.main, argv)
        with open(os.path.join(out_dir, f"{len(results):03d}.out"), "wb") as fh:
            fh.write(out)
        results.append(
            {"rc": rc, "s": elapsed, "bytes": len(out), "sha": hashlib.sha256(out).hexdigest(), "err": err[-2000:]}
        )
    wall = time.perf_counter() - start
    payload = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer:
        payload["layers"] = tracer.report(wall, sum(r["bytes"] for r in results))
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
