"""Record perfbench results of one or more checkouts into a BENCH file.

Usage, from the root of a checkout:

    python3 bench/record.py --out BENCH_<n>.json [--pairs P] [--seed S] \
        LABEL=CHECKOUT [LABEL=CHECKOUT ...]

Each checkout is first copied to a fresh temporary directory without its
git data, its bytecode (``__pycache__`` and ``.pyc`` files) and the
benchmark's scratch (``perfbench/_work``), as a new checkout would hold it.
For each workload (numeric, then exact) and each of P rounds, the script
runs ``python3 perfbench/run.py --workload W --seed S --seconds 50`` once in
every copy, in the copy's own directory and with ``PYTHONDONTWRITEBYTECODE``
set, so each side runs its own benchmark and program and compiles its
``src`` afresh on every run: a side whose checkout holds bytecode from
earlier runs does not start faster.  (A fresh ``PYTHONPYCACHEPREFIX`` would
do the same for ``src``, but it also recompiles the standard library and
numpy on every run, which about triples ``setup_s``.)  The order of the checkouts
alternates from round to round (the first round runs them as given, the
second reversed, and so on), so that a drift of the host's speed does not
favour one side.

The output file holds the machine (CPU model, CPU count, platform, Python
and numpy versions), each checkout's label, git commit and number of
``.pyc`` files under its ``src`` (which the copy leaves out), every result line
that perfbench printed last (with the label, workload, round and its place
in the round), and per label and workload the median and quartiles of each
end-to-end metric.  The first checkout is the base: for every other label the
summary also counts, per workload and metric, the rounds whose value was
better than the base's in the same round (``won``), worse (``lost``), and
all the rounds where both sides have a value (``pairs``; ties count for
neither side), with "better" in the direction ``BENCHMARK.json`` declares.
A run whose result line is missing is recorded with its exit status and the
tail of its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("numeric", "exact")
SECONDS = 50  # the run length BENCHMARK.json fixes
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version}


def commit(checkout: str) -> dict:
    def git(*args):
        p = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return p.stdout.strip() if p.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    pyc = sum(name.endswith(".pyc") for _, _, names in os.walk(os.path.join(checkout, "src")) for name in names)
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None,
            "src_pyc_files": pyc}


def fresh_copy(checkout: str, dest: str) -> str:
    """A copy of the checkout at ``dest`` without git data, bytecode or
    benchmark scratch."""
    shutil.copytree(checkout, dest, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.pyc", "_work"))
    return dest


def run_once(copy: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit_status": p.returncode, "stderr": p.stderr[-2000:]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def directions() -> dict:
    """End-to-end metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def summary(runs: list[dict], base: str, better: dict) -> dict:
    values: dict = {}
    rounds: dict = {}  # (workload, round) -> label -> metric -> value
    for run in runs:
        metrics = {name: m["value"] for name, m in run["result"].get("metrics", {}).items()}
        for name, v in metrics.items():
            values.setdefault(run["label"], {}).setdefault(run["workload"], {}).setdefault(name, []).append(v)
        rounds.setdefault((run["workload"], run["round"]), {})[run["label"]] = metrics
    out = {label: {w: {name: quartiles(v) for name, v in ms.items()} for w, ms in by_w.items()}
           for label, by_w in values.items()}
    for (workload, _), by_label in rounds.items():
        ref = by_label.get(base, {})
        for label, metrics in by_label.items():
            if label == base:
                continue
            for name, v in metrics.items():
                if name not in better or name not in ref:
                    continue
                gain = ref[name] - v if better[name] == "lower" else v - ref[name]
                counts = out[label][workload][name]
                counts["won"] = counts.get("won", 0) + (gain > 0)
                counts["lost"] = counts.get("lost", 0) + (gain < 0)
                counts["pairs"] = counts.get("pairs", 0) + 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=1, help="rounds per workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = ap.parse_args()
    sides = []
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        if not sep or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{spec!r} is not LABEL=CHECKOUT with perfbench/run.py in CHECKOUT")
        sides.append((label, os.path.abspath(path)))
    if len({label for label, _ in sides}) != len(sides):
        ap.error("labels must differ")

    runs = []
    with tempfile.TemporaryDirectory(prefix="record-") as tmp:
        copies = {label: fresh_copy(path, os.path.join(tmp, str(i))) for i, (label, path) in enumerate(sides)}
        for workload in WORKLOADS:
            for rnd in range(args.pairs):
                order = sides if rnd % 2 == 0 else sides[::-1]
                for place, (label, _) in enumerate(order):
                    result = run_once(copies[label], workload, args.seed)
                    runs.append({"label": label, "workload": workload, "round": rnd,
                                 "place": place, "result": result})
                    print(f"{workload} round {rnd} {label}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in result.get("metrics", {}).items()
                                     if k in ("wall_s", "job_p50_ms", "job_p90_ms", "setup_s")), flush=True)
    record = {
        "machine": machine(),
        "command": f"perfbench/run.py --seed {args.seed} --seconds {SECONDS}",
        "checkouts": {label: commit(path) for label, path in sides},
        "runs": runs,
        "summary": summary(runs, sides[0][0], directions()),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
