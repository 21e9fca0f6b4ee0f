"""Seeded job lists for the two workloads.

A job is one CLI request: an argv list for ``wordseries.cli.main`` plus the
parameters the output gate needs.  Argv entries may name input files as
``{dir}/<name>``; the runner writes those files and substitutes ``{dir}``.
The same (workload, seed) pair always yields the same jobs and files.

Sizes are fixed per stratum (verb, grade, rank, cutoff); the seed only
varies the content (letters, points, matrix entries).  That keeps the cost
of a job list nearly independent of the seed, so runs on different seeds
are comparable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def fstr(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[dict] = []
        self.files: dict[str, object] = {}

    def add(self, kind: str, argv: list[str], **check) -> None:
        self.jobs.append(
            {"id": f"j{len(self.jobs):03d}", "kind": kind, "argv": argv, "check": check}
        )

    def file(self, stem: str, payload) -> str:
        name = f"{stem}{len(self.files):03d}.json"
        self.files[name] = payload
        return "{dir}/" + name

    def small_q(self, zero_weight: int = 1) -> Fraction:
        """A small-height rational: |numerator| <= 2, denominator <= 3, and
        zero with weight ``zero_weight`` against 4 for the nonzero numerators."""
        p = self.rng.choice([0] * zero_weight + [-2, -1, 1, 2])
        return Fraction(p, self.rng.choice([1, 2, 3]))

    def fmt(self, *choices: str) -> list[str]:
        return ["--format", self.rng.choice(choices)]


# -- words ----------------------------------------------------------------------


def x_word(rng, size: int, length: int) -> list[int]:
    return [rng.randrange(size) for _ in range(length)]


def x_text(letters) -> str:
    return " ".join(f"x{a}" for a in letters)


def y_text(letters, colored: bool = False) -> str:
    return " ".join(f"y{k}@{c}" if colored else f"y{k}" for k, c in letters)


def y_shuffled(rng, parts) -> list[tuple[int, int]]:
    """The given letter weights in random order: fixed length and grading."""
    parts = list(parts)
    rng.shuffle(parts)
    return [(k, 0) for k in parts]


# -- numeric ----------------------------------------------------------------------


# Cutoffs of the nested sums, cycled per job.  The workload's median job is
# the 51st/52nd of its 68 nested sums; with 17, 17, 28 and 6 of them at the
# four cutoffs it lies inside the 5*10^3 group, not at the edge of a group.
CUTOFFS = (1000, 2000, 5000, 5000, 1000, 2000, 5000, 10000, 1000, 2000, 5000, 5000)

# Classical multiple zeta values of depth one to four with closed forms in
# refs.zeta_ref.  polyzeta's err is a first-order tail estimate; on
# these words it covers the distance to the limit at every cutoff of CUTOFFS.
ZETA_WORDS = ((2,), (3,), (4,), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 4),
              (2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 2, 2), (3, 3, 3, 3))
# Words on which that estimate falls short of the actual distance: the sum of
# the suffix after the first letter keeps growing past the cutoff (without
# bound when the second letter is y1), so the true tail is larger than the
# estimate.  They are not part of the timed job list, whose every job must
# pass the gate; probes() runs them once per run and the runner lists them.
DEFECT_ZETA_WORDS = ((2, 1), (3, 1), (4, 1), (2, 1, 1), (3, 1, 1), (2, 1, 1, 1), (2, 2, 1))


def li_word(rng, depth: int, m: int) -> tuple[list[int], list[tuple[int, int]]]:
    """An x word not ending in x0 (so no log regularization), as blocks
    x0^(s-1) x_i, together with its (s, index) blocks."""
    blocks = [(rng.randint(1, 2), rng.randint(1, m)) for _ in range(depth)]
    if rng.random() < 0.5:
        blocks[0] = (blocks[0][0] + 1, blocks[0][1])
    letters = []
    for s, i in blocks:
        letters += [0] * (s - 1) + [i]
    return letters, blocks


def hyp_rep(rng) -> tuple[dict, dict]:
    """A seeded rank-2 hypergeometric system in the form the CLI reads."""
    quarter = lambda k: Fraction(k, 4)
    t0 = quarter(rng.choice([-3, -2, -1, 1, 2, 3]))
    t1 = quarter(rng.choice([-3, -2, -1, 1, 2, 3]))
    t2 = quarter(rng.choice([1, 2, 3, 4, 6]))
    eta = [Fraction(rng.choice([-2, -1, 1, 2])), Fraction(rng.randint(-2, 2))]
    m0 = [[0, 0], [-t0 * t1, -t2]]
    m1 = [[0, -1], [0, -(t2 - t0 - t1)]]
    rep = {
        "rank": 2,
        "alphabet": "x2",
        "nu": ["1/1", "0/1"],
        "mu": {"x0": [[fstr(c) for c in row] for row in m0], "x1": [[fstr(c) for c in row] for row in m1]},
        "eta": [fstr(e) for e in eta],
    }
    return rep, {"m0": m0, "m1": m1, "eta": eta}


def segment(rng) -> tuple[float, float]:
    z0 = round(rng.uniform(0.12, 0.3), 3)
    z = round(rng.uniform(z0 + 0.2, 0.6), 3)
    return z0, z


def numeric(b: Builder) -> None:
    rng = b.rng
    # nested sums: Li (8 classical shallow, 8 classical deeper, 8 colored)
    for i in range(24):
        m = 1 if i < 16 else rng.choice([2, 3])
        depth = 1 + i % 2 + (8 <= i < 16)
        letters, blocks = li_word(rng, depth, m)
        z = round(rng.uniform(0.2, 0.7), 3)
        nmax = CUTOFFS[i % 12]
        argv = ["eval", "li", "--word", x_text(letters), "--z", repr(z), "--nmax", str(nmax)]
        if m > 1:
            argv += ["--roots-of-unity", str(m)]
        b.add("eval.li", argv + b.fmt("csv", "json"), blocks=blocks, m=m, z=z)
    # harmonic sums: 12 classical, 12 colored; depth 1-3 and cutoff fixed per job
    for i in range(24):
        m = 1 if i < 12 else rng.choice([2, 3])
        word = [(rng.randint(1, 3), rng.randrange(m)) for _ in range(1 + i % 3)]
        n = CUTOFFS[i % 12]
        argv = ["eval", "h", "--word", y_text(word, m > 1), "--n", str(n)]
        if m > 1:
            argv += ["--roots-of-unity", str(m)]
        b.add("eval.h", argv + b.fmt("csv", "json"), word=word, m=m, n=n)
    # polyzetas: 12 classical from the closed-form table (depth 1-4), 8
    # colored of depth one
    for i in range(20):
        nterms = CUTOFFS[i % 12]
        if i < 12:
            word = [(s, 0) for s in rng.choice([w for w in ZETA_WORDS if len(w) == 1 + i % 4])]
            argv = ["eval", "zeta", "--word", y_text(word), "--nterms", str(nterms)]
            m = 1
        else:
            m = rng.choice([2, 3, 4])
            word = [(rng.choice([2, 3]), rng.randrange(1, m))]
            argv = ["eval", "zeta", "--word", y_text(word, True), "--nterms", str(nterms),
                    "--roots-of-unity", str(m)]
        b.add("eval.zeta", argv + b.fmt("csv", "json"), word=word, m=m)
    # Chen series along a real segment: 20 jobs over N = 6..10.  The 90th
    # percentile job of this workload falls inside the eight N = 9 jobs, whose
    # cost depends only on N and the panel count (4 on these segments).
    for n_grade, count in ((6, 3), (7, 3), (8, 4), (9, 8), (10, 2)):
        for _ in range(count):
            z0, z = segment(rng)
            argv = ["eval", "chen", "--z0", repr(z0), "--z", repr(z), "--N", str(n_grade)]
            b.add("eval.chen", argv + b.fmt("csv", "json"), z0=z0, z=z, N=n_grade)
    # output pairing of hypergeometric systems: 14 jobs at N = 8 and 10
    for n_grade, count in ((8, 10), (10, 4)):
        for _ in range(count):
            rep, params = hyp_rep(rng)
            z0, z = segment(rng)
            path = b.file("hyp", rep)
            argv = ["eval", "output", "--rep", path, "--z0", repr(z0), "--z", repr(z), "--N", str(n_grade)]
            b.add("eval.output", argv + b.fmt("csv", "json"), z0=z0, z=z, **params)


# -- algebra ------------------------------------------------------------------------


STUFFLE = (Fraction(1), False)  # gamma spec (c, binomial): see oracles.Gamma


def gamma_table(rng) -> tuple[dict, tuple]:
    """gamma(i, j) = c * binomial(i + j, i), which is associative for every c,
    as the CLI's JSON table, and its spec for the output gate."""
    c = rng.choice([Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1, 3)])
    table = {f"{i},{j}": fstr(c * math.comb(i + j, i)) for i in range(1, 12) for j in range(i, 13 - i)}
    return table, (c, True)


def algebra(b: Builder) -> None:
    rng = b.rng
    for alpha, top in (("x2", 9), ("x2", 10), ("x2", 11), ("x3", 7), ("y", 10), ("y", 12),
                       ("y@2", 7), ("y@3", 6)):
        b.add("lyndon", ["lyndon", "--alphabet", alpha, "--max", str(top)] + b.fmt("text", "json"),
              alphabet=alpha, max=top)
    for family, count in (("P", 12), ("S", 6)):
        for i in range(count):
            size, length = (2, 8) if i % 2 else (3, 7)
            w = x_word(rng, size, length)
            b.add(f"basis.{family}", ["basis", "--family", family, "--word", x_text(w),
                                      "--alphabet", f"x{size}"], word=tuple(w))
    for family, shapes in (("Pi", ((2, 1, 1), (3, 2, 1), (2, 2, 1, 1), (3, 2, 1, 1))),
                           ("Sigma", ((2, 1, 1), (3, 1, 1), (2, 2, 1, 1), (3, 2, 1)))):
        for parts in shapes:
            w = y_shuffled(rng, parts)
            b.add(f"basis.{family}", ["basis", "--family", family, "--word", y_text(w)], word=tuple(w))
    for alpha, n in (("x2", 5), ("x3", 3), ("y", 4), ("y", 5)):
        b.add("check", ["check", "duality", "--alphabet", alpha, "--N", str(n)])
    for alpha, n in (("x2", 5), ("y", 4), ("y", 5)):
        b.add("check", ["check", "diagonal", "--alphabet", alpha, "--N", str(n)])
    for i in range(6):
        if i < 3:
            size = 2 + i % 2
            w = x_word(rng, size, 5 + i % 2)
            b.add("pi1", ["pi1", "--format", "json", "--alphabet", f"x{size}", x_text(w)], alphabet="x")
        else:
            w = y_shuffled(rng, ((2, 1, 1), (2, 2, 1), (3, 2, 1))[i % 3])
            b.add("pi1", ["pi1", "--format", "json", y_text(w)], alphabet="y")
    for law, count in (("shuffle", 4), ("stuffle", 8), ("phi", 4)):
        for i in range(count):
            extra, gamma = [], None
            if law == "shuffle":
                size = 2 + i % 2
                u, v = x_word(rng, size, 3 + i % 3), x_word(rng, size, 5 - i % 3)
                ut, vt = x_text(u), x_text(v)
                extra = ["--alphabet", f"x{size}"]
            else:
                u, v = y_shuffled(rng, (3, 2, 1)[: 2 + i % 2]), y_shuffled(rng, (2, 2, 1, 1)[: 4 - i % 2])
                ut, vt = y_text(u), y_text(v)
                gamma = STUFFLE
                if law == "phi":
                    table, gamma = gamma_table(rng)
                    extra = ["--gamma", b.file("gamma", table)]
            b.add(f"mul.{law}", ["mul", "--law", law, "--format", "json"] + extra + [ut, vt],
                  u=tuple(u), v=tuple(v), gamma=gamma)
    for law, count in (("conc", 6), ("shuffle", 2), ("phi", 2)):
        for i in range(count):
            extra, gamma = [], None
            if law == "phi":
                w = y_shuffled(rng, ((2, 2, 1), (3, 2, 1))[i])
                text = y_text(w)
                gamma = STUFFLE
                if i % 2:
                    table, gamma = gamma_table(rng)
                    extra = ["--gamma", b.file("gamma", table)]
            else:
                w = x_word(rng, 2, 5 + i % 2)
                text = x_text(w)
                extra = ["--alphabet", "x2"]
            b.add(f"coprod.{law}", ["coprod", "--law", law, "--format", "json"] + extra + [text],
                  word=tuple(w), gamma=gamma)


# -- automata -----------------------------------------------------------------------


def rand_rep(b: Builder, rank: int, letters: list[str], *, proper=False, upper=False) -> dict:
    """A random representation with small-height entries, as CLI JSON."""
    q = b.small_q
    nu = [q(0) for _ in range(rank)]
    eta = [q(0) for _ in range(rank)]
    mu = {
        name: [[q(2) if not upper or j >= i else Fraction(0) for j in range(rank)] for i in range(rank)]
        for name in letters
    }
    if proper:
        dot = sum(a * e for a, e in zip(nu, eta))
        if dot:
            k = max(range(rank), key=lambda i: abs(eta[i]))
            nu[k] -= dot / eta[k]
    return rep_json(nu, mu, eta, letters)


def rep_json(nu, mu, eta, letters) -> dict:
    alphabet = "x2" if letters[0].startswith("x") else "y"
    out = {
        "rank": len(nu),
        "alphabet": alphabet,
        "nu": [fstr(c) for c in nu],
        "mu": {name: [[fstr(c) for c in row] for row in mu[name]] for name in letters},
        "eta": [fstr(c) for c in eta],
    }
    if alphabet == "y":
        out["max_letter_weight"] = len(letters)
    return out


def _frac_rep(rep: dict):
    f = lambda row: [Fraction(c) for c in row]
    return f(rep["nu"]), {k: [f(r) for r in m] for k, m in rep["mu"].items()}, f(rep["eta"])


def rep_sum(a: dict, c: dict) -> dict:
    """Block-diagonal sum, built here so the program only sees the result."""
    (n1, m1, e1), (n2, m2, e2) = _frac_rep(a), _frac_rep(c)
    r1, r2 = len(n1), len(n2)
    mu = {
        k: [row + [Fraction(0)] * r2 for row in m1[k]] + [[Fraction(0)] * r1 + row for row in m2[k]]
        for k in m1
    }
    return rep_json(n1 + n2, mu, e1 + e2, list(m1))


def rep_kron(a: dict, c: dict) -> dict:
    """Shuffle product by Kronecker sums, built here for the same reason."""
    (n1, m1, e1), (n2, m2, e2) = _frac_rep(a), _frac_rep(c)
    r1, r2 = len(n1), len(n2)
    mu = {}
    for k in m1:
        mu[k] = [
            [
                (m1[k][i1][j1] if i2 == j2 else 0) + (m2[k][i2][j2] if i1 == j1 else 0)
                for j1 in range(r1) for j2 in range(r2)
            ]
            for i1 in range(r1) for i2 in range(r2)
        ]
    kv = lambda u, v: [x * y for x in u for y in v]
    return rep_json(kv(n1, n2), mu, kv(e1, e2), list(m1))


X2 = ["x0", "x1"]
Y3 = ["y1", "y2", "y3"]


def automata(b: Builder) -> None:
    rng = b.rng
    pairs = ((2, 3), (3, 4), (4, 5), (5, 6), (3, 3))
    for op, count in (("sum", 12), ("conc", 6)):
        for i in range(count):
            r1, r2 = pairs[i % 5]
            a, c = rand_rep(b, r1, X2), rand_rep(b, r2, X2)
            b.add(f"rat.{op}", ["rat", op, "--rep", b.file("r", a), "--rep", b.file("r", c)], reps=[a, c])
    for i in range(6):
        a = rand_rep(b, 2 + i % 5, X2, proper=True)
        b.add("rat.star", ["rat", "star", "--rep", b.file("r", a)], reps=[a])
    for i in range(6):
        r1, r2 = ((2, 2), (2, 3), (3, 3), (2, 4))[i % 4]
        a, c = rand_rep(b, r1, X2), rand_rep(b, r2, X2)
        b.add("rat.shuffle", ["rat", "shuffle", "--rep", b.file("r", a), "--rep", b.file("r", c)], reps=[a, c])
    for i in range(4):
        r1, r2 = ((2, 2), (2, 3), (3, 3))[i % 3]
        a, c = rand_rep(b, r1, Y3), rand_rep(b, r2, Y3)
        extra, gamma = [], STUFFLE
        if i % 2:
            table, gamma = gamma_table(rng)
            extra = ["--gamma", b.file("gamma", table)]
        b.add("rat.phistar", ["rat", "phistar", "--rep", b.file("r", a), "--rep", b.file("r", c)] + extra,
              reps=[a, c], gamma=gamma)
    # minimize inputs of rank 9 (shuffle products of rank-3 series) and rank
    # 16 (a rank-8 series added to itself, so half the states are redundant)
    for i in range(5):
        if i % 2:
            a = rand_rep(b, 8, X2)
            rep = rep_sum(a, a)
        else:
            rep = rep_kron(rand_rep(b, 3, X2), rand_rep(b, 3, X2))
        b.add("rat.minimize", ["rat", "minimize", "--rep", b.file("r", rep)], reps=[rep])
    for i in range(10):
        a = rand_rep(b, 2 + i % 5, X2)
        w = x_word(rng, 2, (10, 15, 20, 25, 30)[i % 5])
        b.add("rat.coeff", ["rat", "coeff", "--rep", b.file("r", a), "--word", x_text(w)] + b.fmt("text", "json"),
              reps=[a], word=tuple(w))
    for i in range(10):
        a = rand_rep(b, 2 + i % 4, X2)
        b.add("rat.decompose", ["rat", "decompose", "--rep", b.file("r", a)], reps=[a])
    for rank, n in ((2, 4), (2, 5), (2, 5), (3, 4), (3, 4)):
        a = rand_rep(b, rank, X2)
        b.add("check", ["check", "mxstar", "--rep", b.file("r", a), "--N", str(n)])
    for rank, n in ((2, 7), (2, 7), (2, 8), (3, 6), (3, 6)):
        a = rand_rep(b, rank, X2, upper=True)
        b.add("check", ["check", "triangular", "--rep", b.file("r", a), "--N", str(n)])


def generate(workload: str, seed: int) -> tuple[list[dict], dict]:
    """The job list and the input files of one workload for one seed."""
    b = Builder(workload, seed)
    WORKLOADS[workload](b)
    return b.jobs, b.files


def probes(workload: str, seed: int) -> list[dict]:
    """Untimed jobs on which the program is known to fail the gate: one
    ``eval zeta`` per word of DEFECT_ZETA_WORDS, for numeric only, at the
    smallest cutoff, where the shortfall is largest (at 5000 and above the
    rounding term covers it for y4 y1)."""
    if workload != "numeric":
        return []
    b = Builder(f"{workload}-probes", seed)
    for word in DEFECT_ZETA_WORDS:
        letters = [(s, 0) for s in word]
        argv = ["eval", "zeta", "--word", y_text(letters), "--nterms", str(min(CUTOFFS))]
        b.add("eval.zeta", argv + b.fmt("csv", "json"), word=letters, m=1)
    return b.jobs


def exact(b: Builder) -> None:
    """The algebra jobs followed by the automata jobs: all exact work.

    The 2-3 ms jobs (basis P, stuffle products, conc coproducts, rat sum,
    rat decompose) are repeated more than the others so that the median job
    falls inside a dense band of jobs whose cost hardly depends on the
    seed; with fewer of them it fell where the 3 ms band meets the 5 ms
    band and moved with the seed.
    """
    algebra(b)
    automata(b)


WORKLOADS = {"numeric": numeric, "exact": exact}
