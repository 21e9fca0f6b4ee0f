"""The output gate: one invariant per job kind, from the benchmark's own code.

``check(job, text)`` returns None when the job's stdout satisfies its
invariant and a one-line reason otherwise.  Exact kinds are recomputed or
tested against a defining identity in plain Fractions (oracles.py); numeric
kinds require |value - reference| <= the reported err (refs.py).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import oracles as O
import refs

ZERO = Fraction(0)


# -- numeric --------------------------------------------------------------------


def _values(text: str) -> list[tuple[str, complex, float]]:
    """(label, value, err) rows from csv or json output."""
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        rows = data if isinstance(data, list) else [dict(data, word="value")]
        return [(r["word"], complex(float(r["re"]), float(r["im"])), float(r["err"])) for r in rows]
    lines = text.splitlines()
    if lines[0] != "word,re,im,err":
        raise ValueError("unexpected header")
    out = []
    for line in lines[1:]:
        label, re, im, err = line.rsplit(",", 3)
        out.append((label, complex(float(re), float(im)), float(err)))
    return out


def _single(job, text) -> tuple[complex, float]:
    """The one value of li / h / zeta / output; a csv label must echo --word."""
    (label, value, err), = _values(text)
    argv = job["argv"]
    if label != "value" and label != argv[argv.index("--word") + 1]:
        raise ValueError(f"label {label!r} does not echo the word")
    return value, err


def _within(value: complex, ref, err: float) -> str | None:
    gap = abs(value - complex(ref))
    return None if gap <= err else f"|value - reference| = {gap:.3g} > err = {err:.3g}"


def check_li(job, text):
    value, err = _single(job, text)
    c = job["check"]
    return _within(value, refs.polylog_ref(c["blocks"], c["z"], c["m"]), err)


def check_h(job, text):
    value, err = _single(job, text)
    c = job["check"]
    return _within(value, refs.harmonic_ref(c["word"], c["n"], c["m"]), err)


def check_zeta(job, text):
    value, err = _single(job, text)
    c = job["check"]
    return _within(value, refs.zeta_ref(c["word"], c["m"]), err)


def check_chen(job, text):
    c = job["check"]
    ref = refs.chen_ref(c["z0"], c["z"], c["N"])
    rows = _values(text)
    if len(rows) != len(ref):
        return f"{len(rows)} coefficients, expected {len(ref)}"
    for label, value, err in rows:
        word = O.parse_word(label)
        if word not in ref:
            return f"unexpected word {label!r}"
        bad = _within(value, ref[word], err)
        if bad:
            return f"{label}: {bad}"
    return None


def check_output(job, text):
    value, err = _single(job, text)
    c = job["check"]
    return _within(value, refs.ode_ref(c["m0"], c["m1"], c["eta"], c["z0"], c["z"]), err)


# -- algebra ----------------------------------------------------------------------


def _letter_counts(alphabet: str, top: int) -> dict[int, int]:
    if alphabet.startswith("x"):
        return {1: int(alphabet[1:])}
    colors = int(alphabet[2:]) if "@" in alphabet else 1
    return {g: colors for g in range(1, top + 1)}


def check_lyndon(job, text):
    c = job["check"]
    text = text.strip()
    names = json.loads(text) if text.startswith("[") else text.splitlines()
    words = [O.parse_word(n) for n in names]
    keys = [(O.grading(w), O.lex_key(w)) for w in words]
    if keys != sorted(set(keys)):
        return "words are not strictly increasing in (grading, lex) order"
    if not all(O.is_lyndon(w) for w in words):
        return "a listed word is not Lyndon"
    counts = [0] * (c["max"] + 1)
    for w in words:
        counts[O.grading(w)] += 1
    want = O.lyndon_counts(_letter_counts(c["alphabet"], c["max"]), c["max"])
    return None if counts == want else f"counts per grading {counts} != {want}"


def check_p(job, text):
    got = O.poly_from_json(json.loads(text))
    want = dict(O.p_basis(job["check"]["word"]))
    return None if got == want else "P_w differs from the bracketing recursion"


def check_s(job, text):
    w = job["check"]["word"]
    s = O.poly_from_json(json.loads(text))
    for v in set(itertools.permutations(w)):  # P_v and S_w are multihomogeneous
        if O.pairing(s, dict(O.p_basis(v))) != (1 if v == w else 0):
            return f"<S_w, P_v> is not the Kronecker delta at v = {v}"
    return None


def check_pi(job, text):
    w = job["check"]["word"]
    want = O.substitute(dict(O.p_basis(w)), O.log_letter)
    return None if O.poly_from_json(json.loads(text)) == want else "Pi_w differs from Phi(P_w)"


def check_sigma(job, text):
    """<Sigma_w, Phi(P_v)> = <Phi^T Sigma_w, P_v> must be delta over grade |w|."""
    w = job["check"]["word"]
    pulled = O.log_adjoint(O.poly_from_json(json.loads(text)))
    for parts in O.compositions(O.grading(w)):
        v = tuple((k, 0) for k in parts)
        if O.pairing(pulled, dict(O.p_basis(v))) != (1 if v == w else 0):
            return f"<Sigma_w, Pi_v> is not the Kronecker delta at v = {v}"
    return None


def check_pass(job, text):
    lines = text.strip().splitlines()
    return None if lines and all("PASS" in line for line in lines) else "check did not print PASS"


def check_pi1(job, text):
    """pi1 projects onto primitives: Lie polynomials on x alphabets, and on
    y (stuffle) the preimage of a Lie polynomial under the letter map Phi."""
    got = O.poly_from_json(json.loads(text))
    if job["check"]["alphabet"] == "y":
        got = O.substitute(got, O.exp_letter)
    return None if O.dynkin_is_lie(got) else "pi1 output is not primitive"


def _gamma(spec):
    return None if spec is None else O.Gamma(*spec)


def check_mul(job, text):
    c = job["check"]
    want = O.quasi_shuffle(c["u"], c["v"], _gamma(c["gamma"]))
    return None if O.poly_from_json(json.loads(text)) == want else "product differs"


def check_coprod(job, text):
    law = job["kind"].split(".")[1]
    c = job["check"]
    want = O.coproduct(law, c["word"], _gamma(c["gamma"]))
    return None if O.tensor_from_json(json.loads(text)) == want else "coproduct differs"


# -- automata ----------------------------------------------------------------------


X_WORDS = O.x_words(2, 4)
Y_WORDS = O.y_words(4, 3)


def _rep_out(job, text) -> O.Rep:
    data = json.loads(text)
    if data["alphabet"] != job["check"]["reps"][0]["alphabet"]:
        raise ValueError(f"output alphabet {data['alphabet']!r}")
    return O.Rep(data)


def check_closure(job, text):
    op = job["kind"].split(".")[1]
    reps = [O.Rep(r) for r in job["check"]["reps"]]
    out = _rep_out(job, text)
    words = Y_WORDS if op == "phistar" else X_WORDS
    a = reps[0].table(words)
    got = out.table(words)
    if op == "sum":
        b = reps[1].table(words)
        want = {w: a[w] + b[w] for w in words}
    elif op == "conc":
        b = reps[1].table(words)
        want = {w: sum((a[w[:i]] * b[w[i:]] for i in range(len(w) + 1)), ZERO) for w in words}
    elif op == "star":
        want = {}
        for w in sorted(words, key=len):
            want[w] = Fraction(1) if not w else sum((a[w[:i]] * want[w[i:]] for i in range(1, len(w) + 1)), ZERO)
    else:
        b = reps[1].table(words)
        gamma = None if op == "shuffle" else _gamma(job["check"]["gamma"])
        want = {w: ZERO for w in words}
        for u in words:
            for v in words:
                if not a[u] or not b[v] or O.grading(u) + O.grading(v) > 4:
                    continue
                for w, c in O.quasi_shuffle(u, v, gamma).items():
                    if w in want:
                        want[w] += a[u] * b[v] * c
    bad = next((w for w in words if got[w] != want[w]), None)
    return None if bad is None else f"{op} identity fails on word {bad}"


MIN_WORDS = O.x_words(2, 6)


def check_minimize(job, text):
    rep = O.Rep(job["check"]["reps"][0])
    out = _rep_out(job, text)
    if out.table(MIN_WORDS) != rep.table(MIN_WORDS):
        return "minimized series differs on a word of length <= 6"
    rank = O.hankel_rank(rep)
    return None if out.rank == rank else f"rank {out.rank}, Hankel rank {rank}"


def check_coeff(job, text):
    text = text.strip()
    got = Fraction(json.loads(text)["coeff"] if text.startswith("{") else text)
    want = O.Rep(job["check"]["reps"][0]).coeff(job["check"]["word"])
    return None if got == want else f"coefficient {got} != {want}"


def check_decompose(job, text):
    rep = O.Rep(job["check"]["reps"][0])
    pairs = [(O.Rep(p["G"]), O.Rep(p["D"])) for p in json.loads(text)]
    if len(pairs) != rep.rank:
        return f"{len(pairs)} tensor factors for rank {rep.rank}"
    short = O.x_words(2, 2)
    for u in short:
        for v in short:
            if sum((g.coeff(u) * d.coeff(v) for g, d in pairs), ZERO) != rep.coeff(u + v):
                return f"sum_i G_i(u) D_i(v) != S(uv) at u = {u}, v = {v}"
    return None


CHECKS = {
    "eval.li": check_li,
    "eval.h": check_h,
    "eval.zeta": check_zeta,
    "eval.chen": check_chen,
    "eval.output": check_output,
    "lyndon": check_lyndon,
    "basis.P": check_p,
    "basis.S": check_s,
    "basis.Pi": check_pi,
    "basis.Sigma": check_sigma,
    "check": check_pass,
    "pi1": check_pi1,
    "mul.shuffle": check_mul,
    "mul.stuffle": check_mul,
    "mul.phi": check_mul,
    "coprod.conc": check_coprod,
    "coprod.shuffle": check_coprod,
    "coprod.phi": check_coprod,
    "rat.sum": check_closure,
    "rat.conc": check_closure,
    "rat.star": check_closure,
    "rat.shuffle": check_closure,
    "rat.phistar": check_closure,
    "rat.minimize": check_minimize,
    "rat.coeff": check_coeff,
    "rat.decompose": check_decompose,
}


def check(job: dict, text: str) -> str | None:
    try:
        return CHECKS[job["kind"]](job, text)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
