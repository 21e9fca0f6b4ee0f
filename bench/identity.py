"""Compare the stdout bytes, stderr bytes and exit codes of two checkouts.

Usage, from the root of a checkout:

    python3 bench/identity.py BASE=<checkout> CHANGE=<checkout>

Each checkout runs the same fixed set of invocations with its own ``src``:

* every job and every probe that ``perfbench/gen.py`` builds for the exact
  and numeric workloads at seeds 0, 1 and 2, its input files written once
  to a temporary directory that both sides read;
* the four scripts in ``demos/``, each in a fresh interpreter;
* ``lyndon`` calls in text and JSON: on x1 at max 1, 2, 40, 2984 and
  2985 (the last over the letter budget), and on x2, x3, x4, y, y@2, y@3
  and y@5 at the largest grading the word budget admits and one above it;
* a fixed list of ``lyndon``, ``basis``, ``mul``, ``coprod`` and ``pi1``
  calls on x2, x3, y and y@2, in text and JSON, with the stuffle and with a
  binomial gamma file (gamma(i, j) = c C(i+j, i) for c = 2 and c = 1/2), and
  with polynomial operands read from files; ``basis --family Pi`` and
  ``Sigma`` also on Lyndon and non-Lyndon y words of weight 7 and 8 under
  the gamma file {"3,4": "2"}, which is not associative there, and ``basis
  --family Pi`` on y@2 words of weight 7 and 8 with the c = 2 file;
* a fixed list of calls on representation files (``rep_calls``): all eight
  ``rat`` operations, ``check mxstar``, ``check triangular`` and
  ``eval output``, on representations the generator never writes: rank 0,
  zero nu or eta, a denominator lcm above 10^12, x3, y with a weight bound,
  y@2, entries spelled as JSON integers or unreduced, the empty word, and
  ``rat coeff`` words with a letter beyond the weight bound; ``check
  mxstar`` also on x2 and x3 at N 5 and 6, on y with weight bound 7
  under the gamma file {"3,4": "2"} at N 6 and 7, where it FAILs, and on
  y@2 with weight bound 7 under the same file at N 5-7, where it FAILs at
  7 on a colored letter; ``check
  triangular`` also on a rank-4 chain whose order is min(N, 3), with nu at
  its first and at its last index, at N 0-4, and on a dense rank-2 x2
  representation (every coefficient nonzero) at N 9 and 10; and ``rat
  minimize`` alone on x2 shuffles of rank 20 and 30, a rank-6 file with
  nu = 0, a doubled y@2 series and a rank-8 file whose observable space
  is proper (``minimize_reps``);
* a fixed list of calls on output paths that the benchmark does not take
  (``edge_calls``): ``eval li``, ``h`` and ``zeta`` in text format,
  ``eval li`` on words ending in x0 (the shuffle regularization),
  ``eval h``, ``zeta`` and ``li`` at cutoffs 99, 100 and 101 and under
  ``--sigma "0;1"`` and ``--sigma "0;2"``, ``eval chen`` at N 0 and 1 and
  on ``--roots-of-unity 2`` in csv and json, ``eval output`` on a
  hypergeometric representation at N 0 and 1 (where the top grade is the
  only or the first grade) in csv and json, and on a nilpotent one at N 4
  (whose top grades pair to zero), ``eval li`` and ``zeta`` on x1
  and x2 words under ``--sigma "0;2;3"`` (two points, no color order),
  ``eval li`` at cutoff ``--nmax 0``, colored ``eval h``, ``zeta`` and
  ``li`` at cutoff 10000, ``eval li`` at a negative z (``--z=-0.4``),
  ``eval li`` and ``h`` under the complex point ``--sigma "0;0.6+0.8j"``,
  ``demo hypergeometric``, and requests that exit 2 (a bad word, a missing file, a malformed
  representation, ``rat star`` on a non-proper series, ``check mxstar``
  and ``check triangular`` on y representations whose weight bound w is
  below N, at N = w+1 to w+3, ``check mxstar`` on one of them at N 19 and
  40, over the word budget, ``eval zeta`` at ``--nterms`` 0 and -3,
  ``eval li`` at ``--nmax -2``, ``eval h`` at ``--n`` 0 and -1, and
  ``eval h``, ``zeta`` and ``li`` under ``--sigma "0;0.5"``, where rho = 2
  and the sums overflow double precision);
* a fixed list of ``check duality`` and ``check diagonal`` calls
  (``check_calls``) on x2, x3, y, y@2 and y@3 at N 1-6 (at most), y also
  with both binomial gamma files and with a gamma file that is associative
  only to weight 6, at N 6 and 7, and one gamma file that exits 2;
* a fixed list of requests for help and of requests that argparse rejects
  or reads its own way (``front_calls``): ``--help`` of the top parser and
  of each of the nine verbs; no arguments, ``frobnicate``, ``Lyndon`` and
  ``lyn``; an option prefix (``--alph x2``), ``--alphabet=x2``, a negative
  value (``--z -0.2``), ``--`` before a positional, a repeated ``--max``;
  a missing required option, a bad int, a bad float and a bad choice; an
  extra positional, and an unknown option before and after a positional;
* a fixed list of calls on the boundary of JSON input and output
  (``io_calls``): the rationals "+1", " 3/4", "6/8", "-0", "1/0", "1/-2",
  "1.5", "1e3", "\u0661" (an Arabic-Indic one) and a 5,000-digit numerator,
  and the JSON integers, floats, booleans and null, each as a representation
  entry (``rat sum`` and ``rat coeff``), a polynomial coefficient (``mul``
  on a file operand) and a gamma entry (``mul --law phi``); representation
  files whose "mu" keys are y10 (on y, with and without a weight bound),
  y2@1 (on y@2 and on y), "x0 x1", one letter twice (x0 and " x0", y1 and
  y1@0) and x5 on x2; gamma files of JSON integers and of unreduced "p/q"
  values; coproducts and ``pi1`` whose JSON holds the empty word, on both
  sides of a tensor; file operands without ``--alphabet`` (``mul`` with the
  file first and second, ``pi1`` and ``coprod``), which exit 2; and
  ``mul --law shuffle`` of x0^799 and x0 (passes), of x0^800 and x0 and of
  x0^990 and x0 (each refused over the 800-letter limit); representation
  files of canonical "p/q" texts (each distinct one read once) beside
  rows that mix spellings, a bad nu entry with an unknown or far "mu"
  key, a value holding a comma, y files whose weight bound leaves out or
  is below a letter, rank-0 files (x2, and y with a weight bound) and a rank-4 file
  through every ``rat`` operation, ``check triangular`` and ``check mxstar``;
* a library section (``library_cases``) for the functions that no verb
  reaches, on those representations: ``LinRep.word_matrix``,
  ``eval_truncated``, ``mu_of_poly``, ``left_shift`` and ``right_shift``
  (matrices and values as p/q entries, shifts as JSON; one y polynomial
  has two terms with letters beyond the weight bound, so the letter that
  is named is pinned), ``triangular_decompose`` on x2, x3 and y
  representations and on the two rank-4 chains at N 0-4 (the verdict, the
  detail and the rebuilt series as p/q entries; a y bound above the weight
  bound pins its refusal),
  ``lie_diagnostics`` (its basis as p/q entries and its dimension lists)
  and ``sweedler_membership`` of some of them and of windows of their
  series, changed and unchanged, with and without ``max_rank`` (verdict,
  rank, detail and the witnesses' JSON), and the verdicts of
  ``is_character`` and ``is_infinitesimal_character`` (``character_cases``)
  under conc, shuffle and phi with the stuffle and the c = 2 binomial
  table, the shuffle also given the stuffle, on series that pass and fail
  them, with the refusals of an unknown law and of phi without a table,
  and on a Chen series, exactly and within ``tol``; the same tests given
  ``bound=`` at, 1 above and 2 above the series bound, on series that pass
  and fail them; the keys and ``float.hex`` values of ``chen_series`` on
  the classical forms at N 3 and on the square roots of unity at N 2; the
  keys of ``TruncSeries.word_sum`` on y@2 at N 4; the names of
  ``words_up_to_grading`` on x1, x3, y, y@2 and y@3 at N -1 to 5, and its
  word count on x1 at N 2984 and 2985 (the letter budget's edge);
  ``is_lyndon`` and ``standard_factorization`` (value or refusal) on every
  word and on every Lyndon word of x2 and y up to grading 8; the verdict
  and detail of ``diagonal_factorization_check`` in increasing order
  (``decreasing=False``, which no verb asks for) on x2 and x3, on y with
  the stuffle and with gamma(i, j) = C(i+j, i)/2, and on y@2 with the
  stuffle, each at N 4-6; and the text
  and JSON of tensors read from JSON with the empty word on either side and
  on both;
* a numeric library section (``numeric_cases``): ``harmonic_sum``,
  ``harmonic_sum_exact``, ``polylog``, ``polyzeta``,
  ``generating_relation_check``, ``linear_independence_rank`` and the
  round trips of ``pi_Y`` and ``pi_X`` on five singularity sets (classical,
  the square and cube roots of unity, {0, 2} and {0, 2, 3}), on plain and
  colored y words of every colour order 2, 3 and 5, with cutoffs -1, 0
  and above, and the construction of a set whose colour order is not its
  number of nonzero points; values as ``float.hex``, exact values as text,
  refusals as their type and message.

The CLI invocations of one checkout run in one interpreter through
``wordseries.cli.main``, as the benchmark's worker runs them, and the
library cases in a second one.  The script prints one line per invocation
whose exit code, stdout sha256 or stderr sha256 differs, then a summary,
and exits 1 on any difference (2 on bad arguments).  It reads
``perfbench/`` and writes nothing into either checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2)
DEMOS = ("hypergeometric_flow.py", "hyperlogarithms.py", "lyndon_dual_bases.py", "rational_series.py")


# polynomial operands by alphabet, as a polynomial JSON file holds them; the
# first of each is also a file operand of ``fixed_calls``, and the last y one
# has two terms with letters beyond a weight bound of 2 or 3 (y3 and y4)
POLYS = {
    "x2": [[{"word": "x0 x1", "coeff": "1/2"}, {"word": "x1", "coeff": "-3/1"}, {"word": "x0 x0 x1", "coeff": "2/3"}],
           [{"word": "", "coeff": "1/5"}, {"word": "x1 x0", "coeff": "-2"}]],
    "x3": [[{"word": "x2 x0", "coeff": "1/2"}, {"word": "x1", "coeff": "2"}, {"word": "", "coeff": "-1/4"}]],
    "y": [[{"word": "y1 y2", "coeff": "1/2"}, {"word": "y3", "coeff": "-2/1"}, {"word": "y1", "coeff": "1/3"}],
          [{"word": "y2 y1 y1", "coeff": "3/4"}, {"word": "", "coeff": "1"}, {"word": "y1", "coeff": "-1/2"}],
          [{"word": "y4 y1", "coeff": "1"}, {"word": "y2", "coeff": "2"}, {"word": "y1 y3", "coeff": "-1/2"}]],
    "y@2": [[{"word": "y1@1 y2@0", "coeff": "1/2"}, {"word": "y2@1", "coeff": "-1/3"}]],
}
# the words of ``rat coeff`` and of ``LinRep.word_matrix`` by alphabet; the
# last y and y@2 words have a letter beyond the weight bound of some files
REP_WORDS = {"x2": ["", "ε", "x0", "x1 x0 x1", "x0 x0 x1 x1 x0"], "x3": ["", "x2 x0", "x1 x2 x2"],
             "y": ["", "y1", "y2 y1", "y3 y1 y2", "y1 y4"], "y@2": ["", "y1@1", "y2@1 y1@0", "y1@0 y3@1"]}


def binomial_gamma(c: Fraction) -> dict:
    """gamma(i, j) = c C(i+j, i) on i + j <= 12, as a gamma JSON file holds
    it.  The pairs beyond take the default 1, so the table is associative
    only to weight 12: validated to 13, it is refused at (y1, y1, y11)."""
    return {f"{i},{j}": str(c * math.comb(i + j, i)) for i in range(1, 12) for j in range(i, 13 - i)}


# the largest grading that the word budget admits, by alphabet
LYNDON_EDGES = (("x2", 17), ("x3", 10), ("x4", 8), ("y", 18), ("y@2", 11), ("y@3", 9), ("y@5", 6))


def fixed_calls(files: dict) -> list[list[str]]:
    """The fixed list of word-level calls; ``files`` maps names to payloads,
    and an argument "{dir}/name" reads the file of that name."""
    files["gamma2.json"] = binomial_gamma(Fraction(2))
    files["gammahalf.json"] = binomial_gamma(Fraction(1, 2))
    files["gamma34.json"] = {"3,4": "2"}  # associative to weight 6 only
    files["x2poly.json"], files["ypoly.json"], files["y2poly.json"] = (POLYS[a][0] for a in ("x2", "y", "y@2"))
    gammas = [[], ["--gamma", "{dir}/gamma2.json"], ["--gamma", "{dir}/gammahalf.json"]]
    words = {
        "x2": ["x0", "x0 x1", "x1 x0 x0 x1", "x0 x1 x0 x1 x1 x1", "x1 x1 x0 x0 x1 x0 x1"],
        "x3": ["x2 x0", "x0 x2 x1", "x1 x0 x2 x2 x0"],
        "y": ["y1", "y2 y1", "y3 y1 y1", "y1 y2 y2 y1", "y2 y2 y1 y1"],
        "y@2": ["y1@1", "y2@0 y1@1", "y1@0 y1@1 y2@1", "y3@1 y1@0 y1@1"],
    }
    calls = []
    # x1 up to and over its letter budget, then each budget edge and one grade over it
    lyndon = [("x2", 10), ("x3", 6), ("y", 9), ("y@2", 6)] + [("x1", n) for n in (1, 2, 40, 2984, 2985)]
    lyndon += [(alpha, edge + over) for alpha, edge in LYNDON_EDGES for over in (0, 1)]
    for alpha, top in lyndon:
        for fmt in ("text", "json"):
            calls.append(["lyndon", "--alphabet", alpha, "--max", str(top), "--format", fmt])
    for alpha, ws in words.items():
        y = alpha.startswith("y")
        for w in ws:
            for fmt in ("json", "text"):
                for family in ("P", "S", "Pi", "Sigma") if y else ("P", "S"):
                    for gamma in gammas if y else [[]]:
                        calls.append(["basis", "--family", family, "--word", w, "--alphabet", alpha,
                                      "--format", fmt] + gamma)
                for gamma in gammas if y else [[]]:
                    calls.append(["pi1", "--alphabet", alpha, "--format", fmt] + gamma + [w])
                laws = ([("phi", gamma) for gamma in gammas] + [("shuffle", [])]) if y else [("shuffle", []), ("conc", [])]
                for law, gamma in laws:
                    calls.append(["coprod", "--law", law, "--alphabet", alpha, "--format", fmt] + gamma + [w])
        for fmt in ("json", "text"):
            for u, v in zip(ws, ws[1:] + ws[:1]):
                laws = [("shuffle", []), ("conc", [])]
                if y:
                    laws += [("phi", g) for g in gammas[1:]] + [("stuffle", [])]
                for law, gamma in laws:
                    calls.append(["mul", "--law", law, "--alphabet", alpha, "--format", fmt] + gamma + [u, v])
    # Pi and Sigma at weights 7 and 8, Lyndon words first, where {"3,4": "2"} is
    # not associative, and Pi there on y@2 under a binomial file
    heavy = [("y", "gamma34.json", ("Pi", "Sigma"), ["y4 y3", "y4 y3 y1", "y4 y2 y2", "y2 y1 y2 y1 y1 y1",
                                                      "y3 y4", "y2 y1 y3 y1", "y3 y4 y1", "y4 y4"]),
             ("y@2", "gamma2.json", ("Pi",), ["y4@1 y3@0", "y4@0 y3@1 y1@1", "y3@0 y4@1", "y1@1 y3@0 y4@1"])]
    for alpha, gamma, families, ws in heavy:
        for w in ws:
            for family in families:
                for fmt in ("json", "text"):
                    calls.append(["basis", "--family", family, "--word", w, "--alphabet", alpha, "--format", fmt,
                                  "--gamma", "{dir}/" + gamma])
    for alpha, poly, w in (("x2", "x2poly.json", "x1 x0"), ("y", "ypoly.json", "y2 y1"), ("y@2", "y2poly.json", "y1@1")):
        y = alpha.startswith("y")
        for fmt in ("json", "text"):
            for law in ("conc", "shuffle") + (("stuffle",) if y else ()):
                calls.append(["mul", "--law", law, "--alphabet", alpha, "--format", fmt, "@{dir}/" + poly, w])
            calls.append(["pi1", "--alphabet", alpha, "--format", fmt] + (gammas[1] if y else []) + ["@{dir}/" + poly])
            for law in ("conc", "shuffle") + (("phi",) if y else ()):
                calls.append(["coprod", "--law", law, "--alphabet", alpha, "--format", fmt]
                             + (gammas[2] if y else []) + ["@{dir}/" + poly])
    return calls


def _rep(alphabet: str, nu: list, mu: dict, eta: list, weight=None) -> dict:
    data = {"alphabet": alphabet, "nu": nu, "mu": mu, "eta": eta}
    if weight is not None:
        data["max_letter_weight"] = weight
    return data


CHAIN_MU = {"x0": [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, -1, 1], [0, 0, 0, "1/2"]],
            "x1": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]}


def representations() -> dict:
    """The representation files of ``rep_calls`` and of the library section,
    by name, as JSON objects."""
    h, t = "1/2", "-1/3"
    return {
        "x2a": _rep("x2", [1, h], {"x0": [[h, 1], [0, t]], "x1": [["2/4", 0], [h, "3/5"]]}, [1, 1]),
        "x2b": _rep("x2", ["1/7", 0, 2], {"x0": [["1/7", 0, 1], [0, 0, "2/7"], [1, 0, 0]],
                                          "x1": [[0, 1, 0], ["-3/7", 0, 0], [0, 0, 1]]}, [1, "5/7", 0]),
        "x2big": _rep("x2", ["1/101", "-1/103"], {"x0": [["1/107", "2/109"], ["3/113", "-1/127"]],
                                                   "x1": [["5/131", 0], ["1/137", "1/139"]]}, ["1/149", "1/151"]),
        "x2zero": _rep("x2", [], {}, []),
        "x2nu0": _rep("x2", [0, 0], {"x0": [[h, 1], [0, t]], "x1": [[0, 1], [1, 0]]}, [1, h]),
        "x2eta0": _rep("x2", [1, h], {"x0": [[h, 1], [0, t]], "x1": [[0, 1], [1, 0]]}, ["0", "0/3"]),
        "x2proper": _rep("x2", [1, 0], {"x0": [[0, 1], [0, 0]], "x1": [[h, 0], [t, 1]]}, [0, 1]),
        "x2twice": _rep("x2", [1, h, 1, h], {"x0": [[h, 1, 0, 0], [0, t, 0, 0], [0, 0, h, 1], [0, 0, 0, t]],
                                             "x1": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
                        [1, 1, 1, 1]),
        "x2up": _rep("x2", [1, h, t], {"x0": [[h, 1, 0], [0, t, 2], [0, 0, 1]],
                                       "x1": [[1, 0, h], [0, 0, 1], [0, 0, "2/3"]]}, [1, 0, 1]),
        # a rank-4 chain: x0's strict part walks 0 -> 1 -> 2 -> 3, so the
        # triangular order is min(N, 3), also when nu is e_3
        "x2chain": _rep("x2", [1, 0, 0, 0], CHAIN_MU, [1, 1, 1, 1]),
        "x2chain3": _rep("x2", [0, 0, 0, 1], CHAIN_MU, [1, 1, 1, 1]),
        # both letters with a full upper triangle: every word has a nonzero coefficient
        "x2dense": _rep("x2", [1, h], {"x0": [[h, 1], [0, t]], "x1": [[1, h], [0, 2]]}, [1, 1]),
        "x3a": _rep("x3", [1, t], {"x0": [[0, 1], [h, 0]], "x2": [[t, 0], [1, 1]]}, [h, 1]),
        "x3up": _rep("x3", [1, 1], {"x0": [[h, 1], [0, 0]], "x1": [[0, 0], [0, t]], "x2": [[1, 1], [0, 1]]}, [1, h]),
        "ya": _rep("y", [1, h], {"y1": [[h, 1], [0, t]], "y3": [[0, 1], [1, 0]]}, [1, 1], 3),
        "yb": _rep("y", [h, 1], {"y1": [[1, 0], [t, h]], "y2": [["1/5", 0], [0, 1]]}, [1, "2/3"], 2),
        "yproper": _rep("y", [1, 0], {"y1": [[0, 1], [0, 0]], "y2": [[h, 0], [0, t]]}, [0, 1], 2),
        "y7": _rep("y", [h, 1], {"y1": [[h, 1], [0, t]], "y2": [[0, 1], [1, 0]], "y3": [[1, 0], [t, h]],
                                 "y4": [["1/5", 0], [0, 1]], "y7": [[t, 1], [h, 0]]}, [1, t], 7),
        "y2a": _rep("y@2", [1, h], {"y1@0": [[h, 1], [0, t]], "y1@1": [[0, 1], [1, 0]], "y2@1": [[t, 0], [0, 1]]},
                    [1, 1], 2),
        "y2b": _rep("y@2", [t, 1], {"y1@1": [[1, 0], [h, 0]], "y2@0": [[0, h], [1, 0]]}, [1, h], 2),
    }


def minimize_reps() -> dict:
    """The representation files that only ``rat minimize`` reads, by name:
    x2 shuffles (Kronecker sums) of rank 20 and 30, a rank-6 x2 file with
    nu = 0, a rank-4 y@2 series added to itself (the forward pass halves
    it), and a rank-8 x2 file whose reachable space is all of it and whose
    observable space is half of it."""
    rng = random.Random(2025)
    ratio = lambda: Fraction(rng.choice([0, -2, -1, 1, 2]), rng.randint(1, 3))
    vector = lambda n: [ratio() for _ in range(n)]

    def rand(n: int, letters: list) -> tuple:
        return vector(n), {x: [vector(n) for _ in range(n)] for x in letters}, vector(n)

    def kron_sum(a: tuple, b: tuple) -> tuple:
        (n1, m1, e1), (n2, m2, e2) = a, b
        r1, r2 = len(n1), len(n2)
        mu = {x: [[(m1[x][i][j] if k == l else 0) + (m2[x][k][l] if i == j else 0)
                   for j in range(r1) for l in range(r2)] for i in range(r1) for k in range(r2)] for x in m1}
        return [u * v for u in n1 for v in n2], mu, [u * v for u in e1 for v in e2]

    def block_sum(a: tuple, b: tuple) -> tuple:
        (n1, m1, e1), (n2, m2, e2) = a, b
        r1, r2 = len(n1), len(n2)
        mu = {x: [row + [0] * r2 for row in m1[x]] + [[0] * r1 + row for row in m2[x]] for x in m1}
        return n1 + n2, mu, e1 + e2

    def as_json(alphabet: str, rep: tuple, weight=None) -> dict:
        nu, mu, eta = rep
        text = lambda v: [str(x) for x in v]
        return _rep(alphabet, text(nu), {x: [text(row) for row in m] for x, m in mu.items()}, text(eta), weight)

    x2, y2 = ["x0", "x1"], ["y1@0", "y1@1", "y2@0", "y2@1"]
    nu0 = rand(6, x2)
    half = rand(4, y2)
    seen = rand(4, x2)
    return {
        "min20": as_json("x2", kron_sum(rand(4, x2), rand(5, x2))),
        "min30": as_json("x2", kron_sum(rand(5, x2), rand(6, x2))),
        "minnu0": as_json("x2", ([0] * 6, nu0[1], nu0[2])),
        "miny2": as_json("y@2", block_sum(half, half), 2),
        "minunseen": as_json("x2", block_sum(seen, (vector(4), seen[1], seen[2]))),
    }


def rep_calls(files: dict) -> list[list[str]]:
    """The fixed list of calls on representation files; ``files`` as in
    ``fixed_calls``."""
    reps = representations()
    files.update({f"{name}.json": data for name, data in reps.items()})

    def rep(name: str) -> list[str]:
        return ["--rep", "{dir}/" + name + ".json"]

    gammas = [[], ["--gamma", "{dir}/gamma2.json"], ["--gamma", "{dir}/gammahalf.json"]]
    calls = []
    for name, data in reps.items():
        for w in REP_WORDS[data["alphabet"]]:
            for fmt in ("json", "text"):
                calls.append(["rat", "coeff", "--word", w, "--format", fmt] + rep(name))
        for op in ("star", "minimize", "decompose"):
            calls.append(["rat", op] + rep(name))
    pairs = [("x2a", "x2b"), ("x2b", "x2a"), ("x2a", "x2zero"), ("x2zero", "x2zero"), ("x2nu0", "x2big"),
             ("x2eta0", "x2proper"), ("x3a", "x3up"), ("ya", "yb"), ("yb", "yproper"), ("y2a", "y2b"), ("x2a", "ya")]
    for a, b in pairs:
        for op in ("sum", "conc", "shuffle"):
            calls.append(["rat", op] + rep(a) + rep(b))
        for gamma in gammas:
            calls.append(["rat", "phistar"] + gamma + rep(a) + rep(b))
    for name, n in (("x2a", 3), ("x2big", 3), ("x2zero", 2), ("x3a", 2), ("ya", 3), ("yb", 2), ("y2a", 2)):
        for gamma in gammas if reps[name]["alphabet"].startswith("y") else [[]]:
            calls.append(["check", "mxstar", "--N", str(n)] + gamma + rep(name))
    # more Lyndon factors, and a gamma file that fails at weight 7, also on colored letters
    files["y2w7.json"] = _rep("y@2", ["1/2", 1], {"y1@0": [["1/2", 1], [0, "-1/3"]], "y1@1": [[0, 1], [1, 0]],
                                                  "y3@0": [[1, 0], ["-1/3", "1/2"]], "y4@1": [["1/5", 0], [0, 1]],
                                                  "y7@0": [["-1/3", 1], ["1/2", 0]]}, [1, "-1/3"], 7)
    for name, n in (("x2b", 5), ("x2b", 6), ("x3up", 5), ("x3up", 6), ("y7", 6), ("y7", 7),
                    ("y2w7", 5), ("y2w7", 6), ("y2w7", 7)):
        gamma = ["--gamma", "{dir}/gamma34.json"] if name in ("y7", "y2w7") else []
        calls.append(["check", "mxstar", "--N", str(n)] + gamma + rep(name))
    for name, n in (("x2up", 5), ("x3up", 3), ("x2zero", 3), ("x2a", 3)):
        calls.append(["check", "triangular", "--N", str(n)] + rep(name))
    for name in ("x2chain", "x2chain3"):
        for n in range(5):
            calls.append(["check", "triangular", "--N", str(n)] + rep(name))
    for n in (9, 10):  # an odd and an even top length: |u| = |v| + 1 and |u| = |v|
        calls.append(["check", "triangular", "--N", str(n)] + rep("x2dense"))
    for name in ("x2a", "x2b", "x2big", "x2zero", "x2nu0", "x2up"):
        for fmt in ("csv", "json", "text"):
            calls.append(["eval", "output", "--N", "5", "--z0", "0.1", "--z", "0.45", "--format", fmt] + rep(name))
    for name, data in minimize_reps().items():
        files[f"{name}.json"] = data
        calls.append(["rat", "minimize"] + rep(name))
    return calls


def edge_calls(files: dict) -> list[list[str]]:
    """The fixed list of calls on output paths that the benchmark's jobs do
    not take: values in text format, the demo verb, and requests that exit 2;
    ``files`` as in ``fixed_calls``."""
    files["ragged.json"] = _rep("x2", [1, 0], {"x0": [[1, 0], [0]]}, [0, 1])
    files["nomu.json"] = {"alphabet": "x2", "nu": [1], "eta": [1]}
    files["hyp.json"] = _rep("x2", [1, 0], {"x0": [[0, 0], ["-3/16", "-3/4"]], "x1": [[0, -1], [0, "-1/4"]]}, [2, -1])
    files["nilpotent.json"] = _rep("x2", [1, "-2/3", "1/2"], {"x0": [[0, "1/2", "-3/5"], [0, 0, "2/7"], [0, 0, 0]],
                                                              "x1": [[0, 1, "5/3"], [0, 0, -1], [0, 0, 0]]},
                                   ["1/3", "-5/2", 2])
    return [
        ["eval", "li", "--word", "x1", "--z", "0.5", "--format", "text"],
        ["eval", "li", "--word", "x0 x1", "--z", "0.3", "--format", "text"],
        ["eval", "li", "--word", "x1 x2", "--z", "0.4", "--roots-of-unity", "2", "--format", "text"],
        ["eval", "h", "--word", "y2 y1", "--n", "50", "--format", "text"],
        ["eval", "h", "--word", "y1@1 y2@0", "--n", "30", "--roots-of-unity", "2", "--format", "text"],
        ["eval", "zeta", "--word", "y2", "--nterms", "1000", "--format", "text"],
        ["eval", "zeta", "--word", "x0 x1", "--nterms", "1000", "--format", "text"],
        ["demo", "hypergeometric"],
        ["demo", "hypergeometric", "--N", "10", "--eta", "1,0"],
        ["eval", "li", "--word", "q9", "--z", "0.5"],
        ["mul", "--law", "shuffle", "--alphabet", "x2", "x0 x7", "x1"],
        ["basis", "--family", "P", "--word", "y1 y0"],
        ["rat", "star", "--rep", "{dir}/missing.json"],
        ["mul", "--law", "phi", "--gamma", "{dir}/missing.json", "y1", "y1"],
        ["rat", "minimize", "--rep", "{dir}/ragged.json"],
        ["rat", "coeff", "--word", "x0", "--rep", "{dir}/nomu.json"],
        ["rat", "star", "--rep", "{dir}/x2a.json"],
        ["rat", "star", "--rep", "{dir}/ya.json"],
        # Li of words ending in x0: the shuffle regularization
        ["eval", "li", "--word", "x1 x0", "--z", "0.3"],
        ["eval", "li", "--word", "x0 x1 x0 x0", "--z", "0.4", "--format", "text"],
        ["eval", "li", "--word", "x1 x1 x0", "--z", "-0.2", "--format", "json"],
        ["eval", "li", "--word", "x1 x0 x2 x0", "--z", "0.25", "--roots-of-unity", "2", "--format", "text"],
        # y representations of weight bound w: N = w passes, N above w exits 2
        ["check", "triangular", "--N", "2", "--rep", "{dir}/yproper.json"],
        ["check", "triangular", "--N", "3", "--rep", "{dir}/yproper.json"],
        ["check", "triangular", "--N", "4", "--rep", "{dir}/yproper.json"],
    ] + [
        ["check", "mxstar", "--N", str(w + k), "--rep", "{dir}/" + name + ".json"]
        for name, w in (("yb", 2), ("ya", 3), ("y2a", 2)) for k in (1, 2, 3)
    ] + [
        # over the word budget too: the missing letter is named first
        ["check", "mxstar", "--N", str(n), "--rep", "{dir}/yb.json"] for n in (19, 40)
    ] + [
        # cutoffs around 100, where numpy's complex power leaves repeated squaring
        argv + [flag, str(n)]
        for n in (99, 100, 101)
        for argv, flag in (
            (["eval", "h", "--word", "y2 y1 y1"], "--n"),
            (["eval", "h", "--word", "y1@0 y2@1 y1@0", "--roots-of-unity", "2"], "--n"),
            (["eval", "h", "--word", "y2@2 y1@0", "--roots-of-unity", "3", "--format", "json"], "--n"),
            (["eval", "zeta", "--word", "y3 y1"], "--nterms"),
            (["eval", "zeta", "--word", "y2@0 y1@1", "--roots-of-unity", "2"], "--nterms"),
            (["eval", "li", "--word", "x0 x1 x1", "--z", "0.4"], "--nmax"),
            (["eval", "li", "--word", "x2 x1 x2", "--z", "0.3", "--roots-of-unity", "2"], "--nmax"),
        )
    ] + [
        # explicit sets: rho = 1 + 0j (the real path) and rho = 1/2
        ["eval", what, "--word", word, "--sigma", sigma, *extra]
        for sigma in ("0;1", "0;2")
        for what, word, extra in (
            ("li", "x0 x1 x1", ["--z", "0.3"]),
            ("li", "x1 x0", ["--z", "0.25", "--format", "text"]),
            ("h", "y2 y1", ["--n", "500"]),
            ("h", "y1 y1 y3", ["--n", "100", "--format", "json"]),
        )
    ] + [
        # the Chen table: the empty word alone, one grade, and a colored alphabet
        ["eval", "chen", "--N", "0"],
        ["eval", "chen", "--N", "0", "--format", "json"],
        ["eval", "chen", "--N", "1"],
        ["eval", "chen", "--N", "1", "--format", "json"],
        ["eval", "chen", "--N", "4", "--roots-of-unity", "2"],
        ["eval", "chen", "--N", "4", "--roots-of-unity", "2", "--format", "json"],
    ] + [
        # the pairing at its smallest bounds, and with top grades that pair to zero
        ["eval", "output", "--N", n, "--z0", "0.15", "--z", "0.5", "--format", fmt, "--rep", "{dir}/hyp.json"]
        for n in ("0", "1") for fmt in ("csv", "json")
    ] + [
        ["eval", "output", "--N", "4", "--z0", "0.1", "--z", "0.45", "--rep", "{dir}/nilpotent.json"],
        # cutoffs at and below their least value
        ["eval", "li", "--word", "x1", "--z", "0.5", "--nmax", "0"],
        ["eval", "li", "--word", "x1", "--z", "0.5", "--nmax", "-2"],
        ["eval", "zeta", "--word", "x0 x1", "--nterms", "0"],
        ["eval", "zeta", "--word", "y2", "--nterms", "-3"],
        ["eval", "h", "--word", "y2 y1", "--n", "0"],
        ["eval", "h", "--word", "y2 y1", "--n", "-1"],
    ] + [
        # colored power tables at twice the benchmark's largest cutoff, a negative z, a complex point
        ["eval", "h", "--word", "y2@1 y1@0 y1@2", "--n", "10000", "--roots-of-unity", "3"],
        ["eval", "zeta", "--word", "y1@1 y2@0", "--nterms", "10000", "--roots-of-unity", "2"],
        ["eval", "li", "--word", "x1 x0 x2", "--z", "0.7", "--nmax", "10000", "--roots-of-unity", "4"],
        ["eval", "li", "--word", "x0 x1 x1", "--z=-0.4"],
        ["eval", "li", "--word", "x1 x0 x1", "--z", "0.45", "--nmax", "3000", "--sigma", "0;0.6+0.8j"],
        ["eval", "h", "--word", "y2 y1", "--n", "5000", "--sigma", "0;0.6+0.8j"],
        # rho = 2: the sums overflow double precision, and zeta diverges
        ["eval", "h", "--word", "y1", "--n", "2000", "--sigma", "0;0.5"],
        ["eval", "zeta", "--word", "y2", "--nterms", "3000", "--sigma", "0;0.5"],
        ["eval", "li", "--word", "x1 x1", "--z", "0.4", "--nmax", "2000", "--sigma", "0;0.5"],
    ] + [
        # a set with two nonzero points and no color order: x2 has no y letter
        ["eval", what, "--word", word, "--sigma", "0;2;3", *extra]
        for word in ("x1", "x0 x1", "x2", "x1 x2")
        for what, extra in (("li", ["--z", "0.1"]), ("zeta", ["--nterms", "500"]))
    ]


def check_calls(files: dict) -> list[list[str]]:
    """The fixed list of ``check duality`` and ``check diagonal`` calls: x2
    and y (the stuffle and both binomial gamma files) at N 1-6, x3 and y@2 at
    N 1-5, y@3 at N 1-4, y with the gamma file {"3,4": "2"} (associative to
    weight 6 only) at N 6 and 7, and with {"2,3": "2"}, which its reader
    refuses (exit 2); ``files`` as in ``fixed_calls``, which writes the
    binomial gamma files and the {"3,4": "2"} one."""
    files["gamma23.json"] = {"2,3": "2"}
    gammas = [[], ["--gamma", "{dir}/gamma2.json"], ["--gamma", "{dir}/gammahalf.json"]]
    runs = [("x2", [], range(1, 7))] + [("y", gamma, range(1, 7)) for gamma in gammas]
    runs += [("x3", [], range(1, 6)), ("y@2", [], range(1, 6)), ("y@3", [], range(1, 5)),
             ("y", ["--gamma", "{dir}/gamma34.json"], (6, 7)), ("y", ["--gamma", "{dir}/gamma23.json"], (4,))]
    return [["check", what, "--alphabet", alpha, "--N", str(n)] + gamma
            for alpha, gamma, ns in runs for n in ns for what in ("duality", "diagonal")]


def library_cases() -> list[tuple[str, tuple]]:
    """(label, case) of the library section: calls of functions that no CLI
    verb reaches, on the representations of ``rep_calls`` and on windows of
    their series, then the cases of ``numeric_cases``.  A case is
    ("word_matrix", rep, word), ("eval", rep, bound) for ``eval_truncated``
    (at each bound listed for the alphabet),
    (op, rep, i) for op "mu", "left" or "right" (``mu_of_poly``,
    ``left_shift``, ``right_shift``) and the i-th polynomial of ``POLYS`` on
    the representation's alphabet, ("triangular", rep, bound) for
    ``triangular_decompose``, ("lie", rep) for ``lie_diagnostics``,
    ("rep", rep) for the ``sweedler_membership`` verdict on the
    representation itself, ("window", rep, bound, changed, max_rank) for the
    window of its series (letters beyond its weight bound at zero; changed:
    the last word's coefficient plus 1/3), ("factorial", bound, max_rank)
    for 1/len(w)! on x2, ("zero", bound) for the zero series on x2,
    ("chen", set, bound) for the keys and values of ``chen_series``,
    ("word_sum", alphabet, bound) for the keys of ``TruncSeries.word_sum``,
    ("words", alphabet, bound) for the names of ``words_up_to_grading``,
    ("lyndon_tests", alphabet, which) for ``is_lyndon`` and
    ``standard_factorization`` on every word ("words") or every Lyndon word
    ("lyndon") of grading <= 8, ("increasing", alphabet, table, bound) for
    the verdict and detail of ``diagonal_factorization_check`` with
    ``decreasing=False`` (table None, "stuffle" or "half", the c = 1/2
    binomial table), ("word_count", alphabet, bound) for the
    number of words of ``words_up_to_grading``, ("tensor", i) for the text
    and the JSON of the i-th of ``TENSORS`` read by ``TensorPoly.from_json``,
    and the cases of ``character_cases``."""
    reps = representations()
    bounds = {"x2": (1, 3, 5), "x3": (2, 4), "y": (3, 6), "y@2": (2, 4)}
    cases = [("word_matrix", name, w) for name, data in reps.items() for w in REP_WORDS[data["alphabet"]]]
    cases += [("eval", name, n) for name, data in reps.items() for n in bounds[data["alphabet"]]]
    cases += [(op, name, i) for name, data in reps.items() for op in ("mu", "left", "right")
              for i in range(len(POLYS[data["alphabet"]]))]
    # yproper's weight bound is 2, so its bound 3 pins the refusal
    triangular = (("x2up", (0, 3, 5)), ("x3up", (2, 4)), ("yproper", (2, 3)),
                  ("x2chain", range(5)), ("x2chain3", range(5)))
    cases += [("triangular", name, n) for name, ns in triangular for n in ns]
    cases += [("lie", name) for name in reps]
    cases += [("rep", name) for name in ("x2a", "x2zero", "x2big", "ya", "y2b")]
    for name, data in reps.items():
        ns = bounds[data["alphabet"]]
        cases += [("window", name, n, False, None) for n in ns]
        cases += [("window", name, ns[-1], True, None), ("window", name, ns[-1], False, 1)]
    cases += [("factorial", n, k) for n in (3, 5, 7) for k in (None, 3)]
    cases += [("zero", n) for n in (0, 2)]
    cases += [("chen", "classical", 3), ("chen", "roots2", 2), ("word_sum", "y@2", 4)]
    cases += [("words", a, n) for a in ("x1", "x3", "y", "y@2", "y@3") for n in range(-1, 6)]
    cases += [("lyndon_tests", a, which) for a in ("x2", "y") for which in ("words", "lyndon")]
    increasing = (("x2", None), ("x3", None), ("y", "stuffle"), ("y", "half"), ("y@2", "stuffle"))
    cases += [("increasing", a, table, n) for a, table in increasing for n in (4, 5, 6)]
    cases += [("word_count", "x1", n) for n in (2984, 2985)]
    cases += [("tensor", i) for i in range(len(TENSORS))]
    cases += character_cases()
    cases += numeric_cases()
    return [("library/" + " ".join(map(str, case)), case) for case in cases]


# the series of ``character_cases`` by name: "ones" is the conc character
# of x2, "exp" and "log" the shuffle character exp(x0 + x1 / 2) on x2 and
# its primitive logarithm, "harmonic" H_w(3) on y (a stuffle character),
# "pi1 <table>" the primitive pi1(y2) of the stuffle or of the c = 2
# binomial table, "exp pi1 binomial" its exponential (a character of that
# table), and "x2a" and "ya" the series of those representations
CHARACTER_SERIES = ("ones", "exp", "log", "harmonic", "pi1 stuffle", "pi1 binomial", "exp pi1 binomial",
                    "x2a", "ya")
CHARACTER_LAWS = (("conc", None), ("shuffle", None), ("shuffle", "stuffle"), ("phi", "stuffle"),
                  ("phi", "binomial"), ("phi", None), ("bogus", None))


# (law, table, series) of the cases given ``bound=``: each series passes
# one of the two tests under the law and fails the other
CHARACTER_BOUNDS = (("conc", None, "ones"), ("shuffle", None, "exp"), ("shuffle", None, "log"),
                    ("phi", "stuffle", "harmonic"), ("phi", "stuffle", "pi1 stuffle"))


def character_cases() -> list[tuple]:
    """("character", test, law, table, series, tol) and, given ``bound=``,
    ("character", test, law, table, series, tol, offset): ``test`` is
    "is_character" or "is_infinitesimal_character", ``table`` the ``phi=``
    argument by name, ``series`` a name of ``CHARACTER_SERIES`` or "chen",
    the Chen series of the classical forms, which alone is also tested
    within tol 1e-10, and ``offset`` the amount by which ``bound`` exceeds
    the series bound."""
    tests = ("is_character", "is_infinitesimal_character")
    cases = [("character", test, law, table, name, 0)
             for test in tests for law, table in CHARACTER_LAWS for name in CHARACTER_SERIES]
    cases += [("character", test, law, None, "chen", tol)
              for test in tests for law in ("conc", "shuffle") for tol in (0, 1e-10)]
    cases += [("character", test, law, table, name, 0, offset)
              for test in tests for law, table, name in CHARACTER_BOUNDS for offset in (0, 1, 2)]
    return cases


def _character_text(reps: dict, test: str, law: str, table, name: str, tol, offset=None) -> str:
    """The verdict of one case of ``character_cases``."""
    from wordseries import ncpoly
    from wordseries.hyperlog import FormFamily, SingularitySet, chen_series
    from wordseries.linrep import exp_trunc, log_trunc
    from wordseries.ncpoly import NCPoly, PhiTable, TruncSeries, pi1
    from wordseries.words import Alphabet, words_up_to_grading

    x2, y = Alphabet.x(2), Alphabet.y()
    tables = {None: None, "stuffle": PhiTable.stuffle(),
              "binomial": PhiTable.from_json(binomial_gamma(Fraction(2)))}
    if name == "ones":
        series = TruncSeries.word_sum(x2, 4)
    elif name in ("exp", "log"):
        letters = TruncSeries(x2, 4, {x2.parse_word("x0"): Fraction(1), x2.parse_word("x1"): Fraction(1, 2)})
        series = exp_trunc(letters) if name == "exp" else log_trunc(exp_trunc(letters))
    elif name == "harmonic":
        coeffs = {}
        for w in words_up_to_grading(y, 5):
            ks = [k for k, _ in w.letters]
            terms = itertools.combinations(range(3, 0, -1), len(ks))
            coeffs[w] = sum(math.prod(Fraction(1, m**k) for m, k in zip(ms, ks)) for ms in terms)
        series = TruncSeries(y, 5, coeffs)
    elif name.startswith(("pi1", "exp pi1")):
        series = TruncSeries.from_poly(pi1(NCPoly.from_word(y.parse_word("y2")), tables[name.split()[-1]]), 4)
        series = exp_trunc(series) if name.startswith("exp") else series
    elif name == "chen":
        series = chen_series(FormFamily(SingularitySet.classical()), 0.2, 0.5, 3)
    else:
        series = reps[name].eval_truncated(3)
    bound = None if offset is None else series.bound + offset
    return str(getattr(ncpoly, test)(series, law, phi=tables[table], bound=bound, tol=tol))


# the sets of the numeric section by name ("roots<m>", or ";"-separated
# rational points), and its words: y words by alphabet, x words for every set
NUMERIC_SETS = ("classical", "roots2", "roots3", "0;2", "0;2;3")
NUMERIC_Y = {"y": ("", "y2", "y2 y1", "y1 y3 y1"), "y@2": ("y2@1", "y1@0 y2@1"), "y@3": ("y2@1", "y1@2 y2@0"),
             "y@5": ("y2@4",)}
NUMERIC_X = ("x1", "x0 x1", "x1 x1", "x0 x1 x0", "x2", "x1 x2", "x0 x3 x1")


def numeric_cases() -> list[tuple]:
    """The cases of the numeric library section, each ("numeric", kind, set,
    ...): ("h", set, alphabet, word, n) for ``harmonic_sum``, ("exact", ...)
    the same for ``harmonic_sum_exact``, ("zeta", set, alphabet, word,
    nterms) for ``polyzeta`` (alphabet "x": the set's x alphabet), ("rank",
    set, alphabet, samples) for ``linear_independence_rank`` of every word
    of the alphabet, ("li", set, word, nmax) and ("relation", set, word,
    depth) at z = 0.3, ("pi_X pi_Y", set, word) and ("pi_Y pi_X", set,
    alphabet, word), and ("set", values, color_order) for ``SingularitySet``."""
    cases = []
    for name in NUMERIC_SETS:
        for alphabet, words in NUMERIC_Y.items():
            for w in words:
                cases += [("h", name, alphabet, w, n) for n in (-1, 0, 7, 100)]
                cases += [("exact", name, alphabet, w, n) for n in (-1, 0, 7)]
                cases += [("zeta", name, alphabet, w, 100), ("pi_Y pi_X", name, alphabet, w)]
            cases += [("rank", name, alphabet, n) for n in (-1, 0, 10)]
        for w in NUMERIC_X:
            cases += [("li", name, w, n) for n in (0, 60)] + [("relation", name, w, n) for n in (-1, 0, 40)]
            cases += [("zeta", name, "x", w, 100), ("pi_X pi_Y", name, w)]
    cases += [("set", "0;1;-1", 3), ("set", "0;1;-1", 2)]
    return [("numeric",) + case for case in cases]


def _numeric_text(kind: str, name: str, *args) -> str:
    """What one numeric case returns, as text: a ComplexVal as the hex of its
    value's parts and of its error, an exact value as its text, a rank, a
    relation report's residual and tail bound in hex, words with their
    alphabets, or the set's points."""
    from wordseries import hyperlog
    from wordseries.words import alphabet_text, parse_alphabet

    if kind == "set":
        return repr(hyperlog.SingularitySet(tuple(Fraction(v) for v in name.split(";")), args[0]))
    if name == "classical":
        sigma = hyperlog.SingularitySet.classical()
    elif name.startswith("roots"):
        sigma = hyperlog.SingularitySet.roots_of_unity(int(name[5:]))
    else:
        sigma = hyperlog.SingularitySet.from_values(Fraction(v) for v in name.split(";"))

    def word(alphabet: str, text: str):
        return (sigma.x_alphabet() if alphabet == "x" else parse_alphabet(alphabet)).parse_word(text)

    def named(w) -> str:
        return f"{alphabet_text(w.alphabet)} {w}"

    def hexed(*xs: float) -> str:
        return " ".join(float.hex(float(x)) for x in xs)

    if kind == "h":
        v = hyperlog.harmonic_sum(word(*args[:2]), args[2], sigma)
    elif kind == "zeta":
        v = hyperlog.polyzeta(word(*args[:2]), args[2], sigma)
    elif kind == "li":
        v = hyperlog.polylog(word("x", args[0]), 0.3, sigma, args[1])
    elif kind == "exact":
        return str(hyperlog.harmonic_sum_exact(word(*args[:2]), args[2], sigma))
    elif kind == "rank":
        words = [word(args[0], w) for w in NUMERIC_Y[args[0]]]
        return str(hyperlog.linear_independence_rank(words, args[1], sigma))
    elif kind == "relation":
        report = hyperlog.generating_relation_check(word("x", args[0]), 0.3, args[1], sigma)
        return hexed(report.residual, report.tail_bound)
    elif kind == "pi_X pi_Y":
        image = hyperlog.pi_Y(word("x", args[0]), sigma)
        return f"{named(image)} -> {named(hyperlog.pi_X(image, sigma))}"
    else:
        image = hyperlog.pi_X(word(*args), sigma)
        return f"{named(image)} -> {named(hyperlog.pi_Y(image, sigma))}"
    return hexed(v.real, v.imag, v.err)


def _pq(m) -> str:
    """A matrix of Fractions as p/q entries, rows separated by " | "."""
    return " | ".join(" ".join(f"{c.numerator}/{c.denominator}" for c in row) for row in m)


def _outcome(f, *args) -> str:
    """What f(*args) returns, or the type and message of what it raises."""
    try:
        return str(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _library_text(case: tuple, reps: dict) -> str:
    """What one library case returns, as text: a matrix as p/q entries, the
    series as word and p/q lines, the triangular verdict and detail with the
    rebuilt series as word and p/q lines in word order, a shifted
    representation's JSON, the Lie
    basis as p/q entries and every dimension list, or the Sweedler verdict,
    rank, detail and the witnesses' JSON."""
    from wordseries.linrep import (
        left_shift,
        lie_diagnostics,
        mu_of_poly,
        right_shift,
        sweedler_membership,
        triangular_decompose,
    )
    from wordseries.ncpoly import NCPoly, TruncSeries
    from wordseries.words import (
        Alphabet,
        alphabet_text,
        is_lyndon,
        lyndon_words,
        parse_alphabet,
        standard_factorization,
        words_up_to_grading,
    )

    kind, args = case[0], case[1:]
    if kind == "numeric":
        return _numeric_text(*args)
    if kind == "character":
        return _character_text(reps, *args)
    if kind == "chen":
        from wordseries.hyperlog import FormFamily, SingularitySet, chen_series

        sigma = SingularitySet.classical() if args[0] == "classical" else SingularitySet.roots_of_unity(2)
        coeffs = chen_series(FormFamily(sigma), 0.2, 0.5, args[1]).coeffs
        return "\n".join(f"{w} {float.hex(c.real)} {float.hex(c.imag)} {float.hex(c.err)}" for w, c in coeffs.items())
    if kind == "word_sum":
        return "\n".join(map(str, TruncSeries.word_sum(parse_alphabet(args[0]), args[1]).coeffs))
    if kind == "words":
        return "\n".join(map(str, words_up_to_grading(parse_alphabet(args[0]), args[1])))
    if kind == "tensor":
        from wordseries.ncpoly import TensorPoly

        alphabet, data = TENSORS[args[0]]
        t = TensorPoly.from_json(parse_alphabet(alphabet), data)
        return f"{t}\n{json.dumps(t.to_json(), sort_keys=True)}"
    if kind == "increasing":
        from wordseries.hopf import diagonal_factorization_check
        from wordseries.ncpoly import PhiTable

        tables = {None: None, "stuffle": PhiTable.stuffle(), "half": PhiTable.from_json(binomial_gamma(Fraction(1, 2)))}
        report = diagonal_factorization_check(parse_alphabet(args[0]), tables[args[1]], args[2], decreasing=False)
        return f"{report.equal} {report.detail}"
    if kind == "word_count":
        return str(len(words_up_to_grading(parse_alphabet(args[0]), args[1])))
    if kind == "lyndon_tests":
        alphabet = parse_alphabet(args[0])
        words = (words_up_to_grading if args[1] == "words" else lyndon_words)(alphabet, 8)
        return "\n".join(f"{w} {_outcome(is_lyndon, w)} {_outcome(standard_factorization, w)}" for w in words)
    if kind == "word_matrix":
        rep = reps[args[0]]
        return _pq(rep.word_matrix(rep.alphabet.parse_word(args[1])))
    if kind == "eval":
        coeffs = reps[args[0]].eval_truncated(args[1]).coeffs
        return "\n".join(f"{w} {c.numerator}/{c.denominator}" for w, c in coeffs.items())
    if kind in ("mu", "left", "right"):
        rep = reps[args[0]]
        poly = NCPoly.from_json(rep.alphabet, POLYS[alphabet_text(rep.alphabet)][args[1]])
        if kind == "mu":
            return _pq(mu_of_poly(rep, poly))
        shifted = (left_shift if kind == "left" else right_shift)(rep, poly)
        return json.dumps(shifted.to_json(), sort_keys=True)
    if kind == "triangular":
        rep = reps[args[0]]
        series, report = triangular_decompose(rep, args[1])
        coeffs = sorted(series.coeffs.items(), key=lambda wc: rep.alphabet.sort_key(wc[0].letters))
        return "\n".join([f"{report.equal} {report.detail}"] + [f"{w} {c.numerator}/{c.denominator}" for w, c in coeffs])
    if kind == "lie":
        d = lie_diagnostics(reps[args[0]])
        lines = [f"nilpotent {d.nilpotent} {d.nilpotency_index} solvable {d.solvable} {d.solvability_index}",
                 f"lower central {d.lower_central_dims} derived {d.derived_dims}"]
        return "\n".join(lines + [_pq(m) for m in d.basis])
    max_rank = None
    if kind == "rep":
        obj = reps[args[0]]
    elif kind == "window":
        name, n, changed, max_rank = args
        rep = reps[name]
        alphabet, weight = rep.alphabet, rep.max_letter_weight or 1
        words = words_up_to_grading(alphabet, n)
        coeffs = {w: rep.coeff(w) for w in words
                  if alphabet.is_x or all(alphabet.letter_weight(a) <= weight for a in w.letters)}
        if changed:
            coeffs[words[-1]] = coeffs.get(words[-1], 0) + Fraction(1, 3)
        obj = TruncSeries(alphabet, n, coeffs)
    elif kind == "factorial":
        n, max_rank = args
        x2 = Alphabet.x(2)
        obj = TruncSeries(x2, n, {w: Fraction(1, math.factorial(len(w))) for w in words_up_to_grading(x2, n)})
    else:
        obj = TruncSeries(Alphabet.x(2), args[0], {})
    v = sweedler_membership(obj, max_rank=max_rank)
    witnesses = None if v.witnesses is None else [[a.to_json(), b.to_json()] for a, b in v.witnesses]
    return f"{v.rational} {v.rank} {v.detail}\n{json.dumps(witnesses, sort_keys=True)}"


# rationals as a JSON file may spell them, beyond the "p/q" and JSON integers
# that the generator writes: each is read by Fraction, or refused, and "1/0"
# and the 5,000-digit numerator (past int()'s digit limit) are refused
RATIONAL_SPELLINGS = ("+1", " 3/4", "6/8", "-0", "1/0", "1/-2", "1.5", "1e3", "\u0661", "1" + "0" * 4999,
                      3, -2, 0, 1.5, 2.0, True, False, None)
# tensors as a JSON file holds them, read by ``TensorPoly.from_json`` in the
# library section: the empty word on the left, on the right and on both sides
TENSORS = (("x2", [{"left": "ε", "right": "ε", "coeff": "1/2"}, {"left": "", "right": "x0", "coeff": -3},
                   {"left": "x1 x0", "right": "ε", "coeff": "4/6"}, {"left": "x0", "right": "x1", "coeff": "1"}]),
           ("y", [{"left": "ε", "right": "y10", "coeff": "1"}, {"left": "y2", "right": "eps", "coeff": "-5/3"}]))


def io_calls(files: dict) -> list[list[str]]:
    """The fixed list of calls on the spellings of JSON input that the
    benchmark never writes (``RATIONAL_SPELLINGS`` as a representation entry,
    a polynomial coefficient and a gamma entry), on representation files whose
    "mu" keys are y10 (with and without a weight bound), y2@1 on y@2 and on
    y, "x0 x1", a letter twice (x0 and " x0", y1 and y1@0) and a letter
    beyond x2, on gamma files of JSON integers and of unreduced values, on
    coproducts whose JSON holds the empty word on both sides, on file operands
    without --alphabet, and on shuffles of 800 letters in all, of 801 and of
    991; and on representation files of canonical "p/q" texts beside others:
    rows that mix canonical and other spellings, a bad nu entry together with
    an unknown or far "mu" key (which error prints first), a value holding a
    comma, y files whose weight bound leaves a letter out or is exceeded,
    rank-0 files through every ``rat`` operation and a rank-4 file through
    them and ``rat decompose``; ``files`` as in ``fixed_calls``."""
    calls = []
    for i, value in enumerate(RATIONAL_SPELLINGS):
        files[f"io_rep{i}.json"] = _rep("x2", [value, "1/2"], {"x0": [[1, value], [0, "1/3"]], "x1": [[0, 1], [1, 0]]},
                                        ["1", value])
        files[f"io_poly{i}.json"] = [{"word": "x0", "coeff": value}, {"word": "x1 x0", "coeff": "-1/3"}]
        # constant on every pair of weight <= 6: associative to the weight validated
        files[f"io_gamma{i}.json"] = {f"{a},{b}": value for a in range(1, 4) for b in range(a, 7 - a)}
        calls.append(["rat", "sum", "--rep", f"{{dir}}/io_rep{i}.json", "--rep", "{dir}/x2a.json"])
        calls.append(["rat", "coeff", "--word", "x0", "--format", "text", "--rep", f"{{dir}}/io_rep{i}.json"])
        for fmt in ("json", "text"):
            calls.append(["mul", "--law", "conc", "--alphabet", "x2", "--format", fmt,
                          f"@{{dir}}/io_poly{i}.json", "x1"])
        calls.append(["mul", "--law", "phi", "--gamma", f"{{dir}}/io_gamma{i}.json", "--format", "text", "y1 y1", "y2"])
    m = [[1, "1/2"], [0, -1]]
    keyed = {
        "y10": _rep("y", [1, 0], {"y1": m, **{f"y{k}": [[k, 0], ["1/3", 1]] for k in range(2, 11)}}, [0, 1], 10),
        "y10_only": _rep("y", [1, 0], {"y10": m, "y1": [[0, 1], [1, 0]]}, [0, 1]),
        "y2at1": _rep("y@2", [1, 0], {"y2@1": m}, [0, 1], 2),
        "y2at1_plain": _rep("y", [1, 0], {"y2@1": m}, [0, 1]),
        "x0x1": _rep("x2", [1, 0], {"x0 x1": m}, [0, 1]),
        "x0twice": _rep("x2", [1, 0], {"x0": m, " x0": m}, [0, 1]),
        "y1twice": _rep("y", [1, 0], {"y1": m, "y1@0": m}, [0, 1]),
        "x5": _rep("x2", [1, 0], {"x0": m, "x5": m}, [0, 1]),
    }
    for name, data in keyed.items():
        files[f"io_{name}.json"] = data
        calls.append(["rat", "sum", "--rep", f"{{dir}}/io_{name}.json", "--rep", f"{{dir}}/io_{name}.json"])
        calls.append(["rat", "decompose", "--rep", f"{{dir}}/io_{name}.json"])
    # files of canonical "p/q" texts, each distinct one read once, beside mixed and faulty ones
    h, t = "1/2", "-1/3"
    bulk = {
        "mixed": _rep("x2", ["1/2", 1], {"x0": [["1/2", " 3/4"], ["6/8", 2]], "x1": [["+1", "0/1"], ["1.5", t]]},
                      ["-0", "2/1"]),
        "mixed_rows": _rep("x2", [h, t], {"x0": [[h, t], ["007/014", "-2/1"]], "x1": [[1, 0], ["0/1", "3/6"]]},
                           ["1/1", "0/5"]),
        "bad_nu_bad_key": _rep("x2", ["1/0", h], {"x0": [[h, t], [t, h]], "z1": [[h, t], [t, h]]}, [h, h]),
        "bad_nu_far_letter": _rep("x2", [h, "1.5.0"], {"x0": [[h, t], [t, h]], "x5": [[h, t], [t, h]]}, [h, h]),
        "bad_row_bad_key": _rep("x2", [h, t], {"x0": [[h, "x"], [t, h]], "x0 x1": [[h, t], [t, h]]}, [h, h]),
        "comma": _rep("x2", ["1/2,1/3"], {"x0": [["1/2"]]}, ["1/1"]),
        "y_missing": _rep("y", [h, "1/1"], {"y1": [[h, "1/1"], ["0/1", t]], "y3": [["0/1", "1/1"], ["1/1", "0/1"]]},
                          ["1/1", "1/1"], 3),
        "y_beyond": _rep("y", [h, "1/1"], {"y1": [[h, "1/1"], ["0/1", t]], "y4": [["0/1", "1/1"], ["1/1", "0/1"]]},
                         ["1/1", "1/1"], 3),
        "rank0": {"rank": 0, "alphabet": "x2", "max_letter_weight": None, "nu": [], "mu": {"x0": [], "x1": []},
                  "eta": []},
        "rank0_y": {"rank": 0, "alphabet": "y", "max_letter_weight": 2, "nu": [], "mu": {"y1": [], "y2": []},
                    "eta": []},
        "rank4": _rep("x2", ["1/1", "0/1", "0/1", "0/1"],
                      {"x0": [["1/1", "1/1", "0/1", "0/1"], ["0/1", "2/1", "1/1", "0/1"], ["0/1", "0/1", "-1/1", "1/1"],
                              ["0/1", "0/1", "0/1", h]],
                       "x1": [["1/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "3/1", "0/1"],
                              ["0/1", "0/1", "0/1", "1/1"]]}, ["1/1", "1/1", "1/1", t]),
    }
    for name, data in bulk.items():
        files[f"io_{name}.json"] = data
        rep = ["--rep", f"{{dir}}/io_{name}.json"]
        word = "y2 y1" if data["alphabet"] == "y" else "x0 x1"
        calls += [["rat", "coeff", "--word", word, "--format", "text"] + rep, ["rat", "sum"] + rep + rep,
                  ["rat", "decompose"] + rep, ["check", "mxstar", "--N", "3"] + rep]
    for name in ("rank0", "rank0_y", "rank4", "y_missing"):
        rep = ["--rep", f"{{dir}}/io_{name}.json"]
        word = "y2 y1" if bulk[name]["alphabet"] == "y" else "x0 x1"
        for fmt in ("json", "text"):
            calls.append(["rat", "coeff", "--word", word, "--format", fmt] + rep)
        calls += [["rat", op] + rep for op in ("star", "minimize", "decompose")]
        calls += [["rat", op] + rep + rep for op in ("sum", "conc", "shuffle")]
        calls.append(["rat", "phistar"] + rep + rep)
        calls.append(["rat", "phistar", "--gamma", "{dir}/io_gamma_int.json"] + rep + rep)
        calls.append(["check", "triangular", "--N", "3"] + rep)
    files["io_gamma_int.json"] = {f"{i},{j}": 2 * math.comb(i + j, i) for i in range(1, 6) for j in range(i, 7 - i)}
    files["io_gamma_unreduced.json"] = {f"{i},{j}": f"{3 * math.comb(i + j, i)}/6" for i in range(1, 6)
                                        for j in range(i, 7 - i)}
    for gamma in ("io_gamma_int.json", "io_gamma_unreduced.json"):
        for fmt in ("json", "text"):
            calls.append(["mul", "--law", "phi", "--gamma", "{dir}/" + gamma, "--format", fmt, "y2 y1", "y1 y3"])
            calls.append(["coprod", "--law", "phi", "--gamma", "{dir}/" + gamma, "--format", fmt, "y3 y1"])
        calls.append(["rat", "phistar", "--gamma", "{dir}/" + gamma, "--rep", "{dir}/ya.json",
                      "--rep", "{dir}/yb.json"])
    for fmt in ("json", "text"):
        calls += [["coprod", "--law", "conc", "--alphabet", "x2", "--format", fmt, ""],
                  ["coprod", "--law", "shuffle", "--alphabet", "x2", "--format", fmt, "x0 x1"],
                  ["coprod", "--law", "phi", "--alphabet", "y", "--format", fmt, "ε"],
                  ["pi1", "--alphabet", "y", "--format", fmt, "y10 y2"]]
    # file operands need --alphabet; shuffles stop at 800 letters in all
    calls += [["mul", "--law", "shuffle", "@{dir}/x2poly.json", "x0"],
              ["mul", "--law", "shuffle", "x0", "@{dir}/x2poly.json"],
              ["pi1", "@{dir}/x2poly.json"], ["coprod", "--law", "conc", "@{dir}/ypoly.json"]]
    calls += [["mul", "--law", "shuffle", "--alphabet", "x1", " ".join(["x0"] * n), "x0"] for n in (799, 800, 990)]
    return calls


def front_calls() -> list[list[str]]:
    """The fixed list of help requests, of requests that argparse rejects,
    and of requests it takes in a form other than a verb, exact option
    strings with plain values and positionals (a prefix, ``--opt=value``,
    ``--``, a negative value), and a repeated option."""
    verbs = ("lyndon", "mul", "coprod", "pi1", "basis", "check", "rat", "eval", "demo")
    return [["--help"]] + [[verb, "--help"] for verb in verbs] + [
        [], ["frobnicate"], ["Lyndon", "--alphabet", "x2", "--max", "3"], ["lyn", "--alphabet", "x2", "--max", "3"],
        ["lyndon", "--alph", "x2", "--max", "3"],
        ["lyndon", "--alphabet=x2", "--max", "3"],
        ["eval", "li", "--word", "x1", "--z", "-0.2"],
        ["mul", "--law", "shuffle", "--", "x0", "x1"],
        ["lyndon", "--alphabet", "x2", "--max", "2", "--max", "3"],
        ["lyndon", "--alphabet", "x2"],
        ["lyndon", "--alphabet", "x2", "--max", "three"],
        ["eval", "li", "--word", "x1", "--z", "half"],
        ["mul", "--law", "bogus", "x0", "x1"],
        ["pi1", "y2", "y1"],
        ["pi1", "--bogus", "y2"],
        ["pi1", "y2", "--bogus"],
    ]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_library() -> int:
    """Worker: print [status, text sha256] of every library case as one JSON
    list; status 0, or 1 when the case raised (the text is then the error)."""
    from wordseries.linrep import LinRep

    if not _imported_here():
        return 1
    reps = {name: LinRep.from_json(data) for name, data in representations().items()}
    results = []
    for _, case in library_cases():
        try:
            text, status = _library_text(case, reps), 0
        except Exception as exc:  # an error is an outcome to compare too
            text, status = f"{type(exc).__name__}: {exc}", 1
        results.append([status, _sha(text)])
    json.dump(results, sys.stdout)
    return 0


def invocations(tmp: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every CLI invocation, input files written under tmp."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    out = []
    for workload in sorted(gen.WORKLOADS):
        for seed in SEEDS:
            jobs, files = gen.generate(workload, seed)
            jobs = jobs + gen.probes(workload, seed)
            out += _placed(tmp, f"{workload}-{seed}", files, [(job["id"], job["argv"]) for job in jobs])
    files: dict = {}
    calls = fixed_calls(files) + rep_calls(files) + edge_calls(files) + check_calls(files) + front_calls()
    calls += io_calls(files)
    out += _placed(tmp, "fixed", files, [(f"f{i:03d}", argv) for i, argv in enumerate(calls)])
    return out


def _placed(tmp: str, group: str, files: dict, jobs: list) -> list[tuple[str, list[str]]]:
    """The jobs of one group, "{dir}" replaced by the group's own directory of input files."""
    where = os.path.join(tmp, group)
    os.makedirs(where)
    for name, payload in files.items():
        with open(os.path.join(where, name), "w") as fh:
            json.dump(payload, fh)
    return [(f"{group}/{label}", [a.replace("{dir}", where) for a in argv]) for label, argv in jobs]


def _imported_here() -> bool:
    """Whether ``wordseries`` comes from the ``src`` of the current directory."""
    import wordseries

    expected = os.path.join(os.getcwd(), "src", "wordseries")
    if os.path.dirname(os.path.abspath(wordseries.__file__)) != expected:
        print(f"wordseries imported from {wordseries.__file__}, not {expected}", file=sys.stderr)
        return False
    return True


def run_cli(jobs_path: str) -> int:
    """Worker: run the argv lists of ``jobs_path`` through ``wordseries.cli.main``
    and print [exit code, stdout sha256, stderr sha256] of each as one JSON list."""
    import wordseries.cli as cli

    if not _imported_here():
        return 1
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a job that escapes the CLI's own handlers
                rc = -1
        results.append([rc, _sha(out.getvalue()), _sha(err.getvalue())])
    json.dump(results, sys.stdout)
    return 0


def _env(checkout: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    return env


def _worker(checkout: str, *args: str) -> list:
    """The JSON list that this script prints when run with ``args`` in the checkout."""
    p = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                       cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{checkout}: the {args[0]} worker failed (exit {p.returncode}): {p.stderr[-2000:]}")
    return json.loads(p.stdout)


def results(checkout: str, jobs_path: str, n_jobs: int) -> list[list]:
    """[exit code, stdout sha256, stderr sha256] of every CLI invocation,
    then [status, text sha256] of every library case, then [exit code,
    stdout sha256, stderr sha256] of every demo."""
    out = _worker(checkout, "--run", jobs_path)
    if len(out) != n_jobs:
        raise RuntimeError(f"{checkout}: {len(out)} results for {n_jobs} invocations")
    out += _worker(checkout, "--library")
    for demo in DEMOS:
        d = subprocess.run([sys.executable, os.path.join("demos", demo)], cwd=checkout, env=_env(checkout),
                           capture_output=True)
        out.append([d.returncode, hashlib.sha256(d.stdout).hexdigest(), hashlib.sha256(d.stderr).hexdigest()])
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        return run_cli(argv[1])
    if argv == ["--library"]:
        return run_library()
    sides = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    if len(argv) != 2 or set(sides) != {"BASE", "CHANGE"}:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = {k: os.path.abspath(v) for k, v in sides.items()}
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        jobs = invocations(tmp)
        jobs_path = os.path.join(tmp, "jobs.json")
        with open(jobs_path, "w") as fh:
            json.dump([argv for _, argv in jobs], fh)
        base, change = (results(checkouts[k], jobs_path, len(jobs)) for k in ("BASE", "CHANGE"))
    library = [label for label, _ in library_cases()]
    labels = [label for label, _ in jobs] + library + [f"demos/{demo}" for demo in DEMOS]
    argvs = [" ".join(argv) for _, argv in jobs] + [""] * (len(library) + len(DEMOS))
    differ = 0
    for label, args, old, new in zip(labels, argvs, base, change):
        if old != new:
            differ += 1
            what = " and ".join(name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b)
            print(f"DIFFER {label}: {what} (exit {old[0]} -> {new[0]}) {args}")
    print(f"{len(labels)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
