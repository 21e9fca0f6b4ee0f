"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_on_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = gen.generate(workload, 7)
    assert gen.generate(workload, 7) == first
    assert gen.generate(workload, 8)[0] != first[0]
    assert len(first[0]) >= 100


def test_known_defect_probes_stay_out_of_the_timed_job_list():
    jobs, _ = gen.generate("numeric", 7)
    probes = gen.probes("numeric", 7)
    assert len(probes) == len(gen.DEFECT_ZETA_WORDS) and gen.probes("exact", 7) == []
    timed = {tuple(s for s, _ in j["check"]["word"]) for j in jobs if j["kind"] == "eval.zeta"}
    assert not timed & set(gen.DEFECT_ZETA_WORDS)
    assert not {" ".join(p["argv"]) for p in probes} & {" ".join(j["argv"]) for j in jobs}


def _cli(argv: list[str]) -> str:
    from wordseries.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _corrupt(text: str) -> str:
    """Shift one value: a coefficient, a matrix entry, or a real part."""
    text = text.strip()
    if text.startswith("word,re,im,err"):
        lines = text.splitlines()
        label, re, im, err = lines[1].rsplit(",", 3)
        lines[1] = ",".join([label, repr(float(re) + 1e-6), im, err])
        return "\n".join(lines) + "\n"
    data = json.loads(text)
    if isinstance(data, dict) and "mu" in data:
        row = data["mu"]["x0"][0]
        row[0] = str(Fraction(row[0]) + 1)
    elif isinstance(data, dict):
        data["re"] = repr(float(data["re"]) + 1e-6)
    elif "coeff" in data[0]:
        data[0]["coeff"] = str(Fraction(data[0]["coeff"]) + 1)
    else:
        data[1]["re"] = repr(float(data[1]["re"]) + 1e-6)
    return json.dumps(data) + "\n"


@pytest.mark.parametrize("kind", ["mul.phi", "basis.Sigma", "rat.minimize", "eval.chen", "eval.h"])
def test_a_corrupted_output_counts_as_failed(kind, tmp_path):
    workload = "numeric" if kind.startswith("eval.") else "exact"
    jobs, files = gen.generate(workload, 3)
    job = next(j for j in jobs if j["kind"] == kind)
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    text = _cli([a.replace("{dir}", str(tmp_path)) for a in job["argv"]])
    assert checks.check(job, text) is None
    assert checks.check(job, _corrupt(text)) is not None

    (tmp_path / "000.out").write_text(text)
    (tmp_path / "001.out").write_text(_corrupt(text))
    good = {"rc": 0, "sha": "a", "err": ""}
    bad = {"rc": 0, "sha": "b", "err": ""}
    changed = dict(good, sha="c")
    bench = type("B", (), {"jobs": [job, job], "seed": 3, "workload": workload})()
    verdicts = run.gate(bench, [{"jobs": [good, bad], "dir": str(tmp_path)}, {"jobs": [changed, good]}])
    # the corrupted job fails in both passes; the first job fails where its bytes changed
    assert verdicts[0][0] is None and verdicts[1][0] is not None
    assert run.tally(verdicts) == (4, 3)


def test_a_minimize_output_that_is_not_minimal_fails():
    jobs, _ = gen.generate("exact", 3)
    job = next(j for j in jobs if j["kind"] == "rat.minimize" and j["check"]["reps"][0]["rank"] == 16)
    assert checks.check(job, json.dumps(job["check"]["reps"][0])) is not None


def test_hyperlog_binding_of_words_up_to_grading_is_traced():
    code = f"""
import sys
sys.path.insert(0, {BENCH!r})
import wordseries.cli, wordseries.hyperlog as hyperlog
import tracer
t = tracer.Tracer()
t.install()
hyperlog.words_up_to_grading(hyperlog.Alphabet.x(2), 3)
print(" ".join(t.names[i] for i in t.name))
print(t.work["words.words_enumerated"])
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    names, enumerated = out.stdout.splitlines()
    assert "words.words_up_to_grading" in names.split()
    assert enumerated == "15"
