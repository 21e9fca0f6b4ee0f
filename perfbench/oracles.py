"""Exact word algebra written with plain tuples, dicts and Fractions.

Nothing here imports ``wordseries``: these are the benchmark's own
references for the output gate.  A word is a tuple of letters; an ``x``
letter is an int, a ``y`` letter a ``(weight, color)`` pair.  A polynomial
is a dict from words to nonzero Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

ONE = Fraction(1)


# -- words and text --------------------------------------------------------------


def parse_word(text: str) -> tuple:
    text = text.strip()
    if text in ("", "ε"):
        return ()
    out = []
    for tok in text.split():
        if tok[0] == "x":
            out.append(int(tok[1:]))
        else:
            k, _, c = tok[1:].partition("@")
            out.append((int(k), int(c or 0)))
    return tuple(out)


def letter_key(a):
    """x letters in index order; heavier y letters first (y2 < y1)."""
    return a if isinstance(a, int) else (-a[0], a[1])


def lex_key(w: tuple) -> tuple:
    return tuple(letter_key(a) for a in w)


def grading(w: tuple) -> int:
    return sum(1 if isinstance(a, int) else a[0] for a in w)


def poly_from_json(items) -> dict:
    out: dict = {}
    for item in items:
        add(out, parse_word(item["word"]), Fraction(item["coeff"]))
    return out


def tensor_from_json(items) -> dict:
    out: dict = {}
    for item in items:
        add(out, (parse_word(item["left"]), parse_word(item["right"])), Fraction(item["coeff"]))
    return out


def add(d: dict, key, c) -> None:
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def conc(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            add(out, u + v, a * b)
    return out


def lin_comb(*pairs) -> dict:
    out: dict = {}
    for scale, p in pairs:
        for w, c in p.items():
            add(out, w, scale * c)
    return out


def pairing(p: dict, q: dict) -> Fraction:
    return sum((c * q.get(w, 0) for w, c in p.items()), Fraction(0))


# -- Lyndon words -------------------------------------------------------------------


def is_lyndon(w: tuple) -> bool:
    key = lex_key(w)
    return bool(key) and all(key < key[i:] for i in range(1, len(key)))


def duval(w: tuple) -> list[tuple]:
    """Duval's algorithm: the non-increasing Lyndon factorization."""
    key = lex_key(w)
    n, i, out = len(w), 0, []
    while i < n:
        j, k = i + 1, i
        while j < n and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            out.append(w[i : i + j - k])
            i += j - k
    return out


def lyndon_counts(letter_counts: dict[int, int], top: int) -> list[int]:
    """Lyndon words per grading 0..top, for an alphabet with
    ``letter_counts[g]`` letters of weight g (the weighted Witt formula)."""
    a = [letter_counts.get(g, 0) for g in range(top + 1)]
    words = [1] + [0] * top  # words of each grading: 1 / (1 - f)
    for n in range(1, top + 1):
        words[n] = sum(a[i] * words[n - i] for i in range(1, n + 1))
    b = [0] + [sum(i * a[i] * words[n - i] for i in range(1, n + 1)) for n in range(1, top + 1)]
    counts = [0] * (top + 1)
    for n in range(1, top + 1):
        counts[n] = sum(_mobius(n // d) * b[d] for d in range(1, n + 1) if n % d == 0) // n
    return counts


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


# -- products ----------------------------------------------------------------------


def quasi_shuffle(u: tuple, v: tuple, gamma) -> dict:
    """u * v with letter merge y_i, y_j -> gamma(i, j) y_(i+j) on uncolored
    y words; ``gamma=None`` is the plain shuffle."""

    @lru_cache(maxsize=None)
    def rec(u, v):
        if not u:
            return {v: ONE}
        if not v:
            return {u: ONE}
        out: dict = {}
        for w, c in rec(u[1:], v).items():
            add(out, u[:1] + w, c)
        for w, c in rec(u, v[1:]).items():
            add(out, v[:1] + w, c)
        if gamma is not None:
            i, j = u[0][0], v[0][0]
            g = gamma(i, j)
            if g:
                for w, c in rec(u[1:], v[1:]).items():
                    add(out, ((i + j, 0),) + w, g * c)
        return out

    return rec(u, v)


class Gamma:
    """gamma(i, j) = c * binomial(i + j, i) for i + j <= 12 and 1 beyond, as
    the benchmark's gamma tables; ``binomial=False`` gives the constant c
    (c = 1 is the stuffle)."""

    def __init__(self, c, binomial: bool):
        self.c, self.binomial = Fraction(c), binomial

    def __call__(self, i: int, j: int) -> Fraction:
        if not self.binomial:
            return self.c
        return self.c * math.comb(i + j, i) if i + j <= 12 else ONE


def coproduct(kind: str, w: tuple, gamma=None) -> dict:
    """Deconcatenation, unshuffle, or the dual of the quasi-shuffle."""
    if kind == "conc":
        return {(w[:i], w[i:]): ONE for i in range(len(w) + 1)}
    acc = {((), ()): ONE}
    for a in w:
        rule = [((a,), (), ONE), ((), (a,), ONE)]
        if kind == "phi":  # plain y letters: y_k splits as gamma(i, k - i) y_i (x) y_(k-i)
            k = a[0]
            rule += [(((i, 0),), ((k - i, 0),), gamma(i, k - i)) for i in range(1, k) if gamma(i, k - i)]
        nxt: dict = {}
        for (u, v), c in acc.items():
            for lu, lv, g in rule:
                add(nxt, (u + lu, v + lv), c * g)
        acc = nxt
    return acc


# -- bracketing basis and the stuffle letter automorphism ------------------------------


@lru_cache(maxsize=None)
def p_basis(w: tuple) -> tuple:
    """P_w as a sorted tuple of (word, coeff): letters, brackets of the
    standard factorization, products over the Lyndon factorization."""
    if len(w) <= 1:
        return ((w, ONE),)
    factors = duval(w)
    if len(factors) > 1:
        out = {(): ONE}
        for f in factors:
            out = conc(out, dict(p_basis(f)))
    else:
        cut = next(i for i in range(1, len(w)) if is_lyndon(w[i:]))
        left, right = dict(p_basis(w[:cut])), dict(p_basis(w[cut:]))
        out = lin_comb((1, conc(left, right)), (-1, conc(right, left)))
    return tuple(sorted(out.items()))


def compositions(k: int):
    for cuts in itertools.product((False, True), repeat=k - 1):
        parts, last = [], 0
        for i, cut in enumerate(cuts, start=1):
            if cut:
                parts.append(i - last)
                last = i
        parts.append(k - last)
        yield parts


def log_letter(k: int) -> dict:
    """pi1(y_k) for the stuffle: sum over compositions of (-1)^(r-1)/r."""
    return {tuple((i, 0) for i in parts): Fraction((-1) ** (len(parts) - 1), len(parts))
            for parts in compositions(k)}


def exp_letter(k: int) -> dict:
    """The inverse substitution: sum over compositions of 1/r!."""
    return {tuple((i, 0) for i in parts): Fraction(1, math.factorial(len(parts)))
            for parts in compositions(k)}


def substitute(p: dict, image) -> dict:
    """The concatenation morphism sending each y letter to image(k)."""
    out: dict = {}
    for w, c in p.items():
        acc = {(): c}
        for k, _ in w:
            acc = conc(acc, image(k))
        for u, d in acc.items():
            add(out, u, d)
    return out


def log_adjoint(p: dict) -> dict:
    """Adjoint of substitute(., log_letter): contract consecutive blocks of
    r letters into one letter, weighted (-1)^(r-1)/r per block."""
    out: dict = {}
    for w, c in p.items():
        for parts in compositions(len(w)) if w else [[]]:
            word, coeff, pos = [], c, 0
            for r in parts:
                word.append((sum(k for k, _ in w[pos : pos + r]), 0))
                coeff *= Fraction((-1) ** (r - 1), r)
                pos += r
            add(out, tuple(word), coeff)
    return out


def dynkin_is_lie(p: dict) -> bool:
    """Dynkin-Specht-Wever: a length-homogeneous part q of degree n is a Lie
    polynomial iff the left-normed bracketing maps q to n q."""
    by_len: dict[int, dict] = {}
    for w, c in p.items():
        by_len.setdefault(len(w), {})[w] = c
    for n, q in by_len.items():
        if n == 0:
            return False
        image: dict = {}
        for w, c in q.items():
            acc = {w[:1]: c}
            for a in w[1:]:
                acc = lin_comb((1, conc(acc, {(a,): ONE})), (-1, conc({(a,): ONE}, acc)))
            for u, d in acc.items():
                add(image, u, d)
        if image != {u: n * c for u, c in q.items()}:
            return False
    return True


# -- linear representations ---------------------------------------------------------


class Rep:
    """nu, mu, eta read from the CLI's JSON form."""

    def __init__(self, data: dict):
        self.nu = [Fraction(c) for c in data["nu"]]
        self.eta = [Fraction(c) for c in data["eta"]]
        self.mu = {parse_word(k)[0]: [[Fraction(c) for c in row] for row in m] for k, m in data["mu"].items()}
        self.rank = len(self.nu)

    def row(self, w: tuple, start=None) -> list:
        v = self.nu if start is None else start
        for a in w:
            m = self.mu[a]
            v = [sum(v[i] * m[i][j] for i in range(self.rank) if v[i]) for j in range(self.rank)]
        return v

    def coeff(self, w: tuple) -> Fraction:
        return sum((a * b for a, b in zip(self.row(w), self.eta)), Fraction(0))

    def table(self, words) -> dict:
        """Coefficients on a prefix-closed, length-sorted word list."""
        rows, out = {(): self.nu}, {}
        for w in words:
            if w not in rows:
                rows[w] = self.row(w[-1:], rows[w[:-1]])
            out[w] = sum((a * b for a, b in zip(rows[w], self.eta)), Fraction(0))
        return out


def x_words(size: int, top: int) -> list[tuple]:
    return [w for n in range(top + 1) for w in itertools.product(range(size), repeat=n)]


def y_words(top_weight: int, max_letter: int) -> list[tuple]:
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(1, max_letter + 1):
                u = w + ((k, 0),)
                if grading(u) <= top_weight:
                    nxt.append(u)
        out += nxt
        frontier = nxt
    return out


class Echelon:
    """A row space over Q kept in echelon form, grown one vector at a time."""

    def __init__(self):
        self.pivots: dict[int, list] = {}

    def add(self, v) -> bool:
        v = list(v)
        for p, row in self.pivots.items():
            if v[p]:
                f = v[p] / row[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            return False
        self.pivots[lead] = v
        return True


def echelon_rank(vectors) -> int:
    space = Echelon()
    return sum(space.add(v) for v in vectors)


def span_basis(rep: Rep, start: list, step) -> list[list]:
    """Basis of the smallest space containing ``start`` and closed under
    ``step(v, letter)``, by breadth-first search over words."""
    space, basis, frontier = Echelon(), [], [start]
    while frontier:
        nxt = []
        for v in frontier:
            if space.add(v):
                basis.append(v)
                nxt += [step(v, a) for a in rep.mu]
        frontier = nxt
    return basis


def hankel_rank(rep: Rep) -> int:
    """Rank of the Hankel matrix: reachable rows times observable columns."""
    n = rep.rank
    rows = span_basis(rep, rep.nu, lambda v, a: [sum(v[i] * rep.mu[a][i][j] for i in range(n)) for j in range(n)])
    cols = span_basis(rep, rep.eta, lambda v, a: [sum(rep.mu[a][i][j] * v[j] for j in range(n)) for i in range(n)])
    return echelon_rank([[sum(r[i] * c[i] for i in range(n)) for c in cols] for r in rows])
