"""Rational (representative) series as linear representations.

A series is carried by a triple (nu, mu, eta): a rational row vector, a
letter-indexed family of square matrices extended multiplicatively to words,
and a column vector, with coefficient function  <S, w> = nu mu(w) eta.  The
module provides evaluation, shifts, the closure constructions (sum,
concatenation, star, and the shuffle and phi-shuffle, both built from the
letter rule of ``ncpoly``), exact minimization over Q, the
deconcatenation splitting into rank-many tensor factors, truncated log/exp,
Lie-algebra diagnostics of the matrix family, and the two series
factorizations driven by the Lyndon dual bases.

The shifts go through mu extended to polynomials: S <| P is
(nu mu(P), mu, eta) and P |> S is (nu, mu, mu(P) eta).  The grouplike and
primitive tests are ``ncpoly``'s character tests, by the duality
<Delta S, u (x) v> = <S, u*v> between each product and its coproduct.

Everything is exact rational arithmetic; no tolerances anywhere.  A
representation is stored as its integer form only: nu' = d nu, every
M(x) = d mu(x) by rows and by columns, and eta' = d eta, with d the least
common denominator of their entries, so that nu mu(w) eta =
nu' M(w) eta' / d^(|w|+2) with integer M(w) (|w| counts letters).  JSON
entries cross as integers, through ``ncpoly``'s one reader and one writer
of rationals (each distinct string of a file read once), and
``LinRep._json_text`` is the one writer of the format; closures,
shifts and splittings put their operands over one denominator, which
``LinRep._of`` reduces; minimization carries reachable vectors as integers
and transposes by swapping nu' with eta' and rows with columns.  Its
forward pass reads coordinates at the pivots of the echelon rows, and its
backward pass, whose breadth-first basis fixes the output, reads them off
the tails of the same ``exactlin.RowSpace`` elimination that decides
independence; so does ``sweedler_membership``, whose window is scaled by
one lcm so that the Hankel rows are integers.
``lie_diagnostics`` brackets the integer letter matrices d mu(x).
Evaluation walks integer rows.  ``LinRep._walk`` multiplies rows by M(w)
one letter at a time: ``coeff`` walks nu', ``word_matrix`` walks the
identity, and ``_mu_of_poly`` sums the walks of its terms from the identity,
in sorted order.  ``LinRep._eval_integers``, the series up to a grading as
numerators over d^(|w|+2), meets in the middle: nu' M(uv) eta' is the dot of
the row nu' M(u) with the column M(v) eta', both tabled by length, so each
word costs one n-term dot.  The M(X*) word sum of ``check mxstar`` holds
M(w) for every word up to a grading, walked in the grading order of
``words._graded_letters``, each from its prefix's product.  That check reads
mu of the Lyndon basis polynomials R_l off those M(w) through
``_mu_of_poly``, builds in the walk's order the term L'_w (x) mu(R'_w) of the
decreasing Lyndon product of exp(L_l (x) mu(R_l)) for each word w from those
of the two parts that ``DualBases._split`` cuts it into, and compares M(w)
with those terms collected by word, one integer matrix per word, up to the
first word that differs.  ``check triangular`` compares the series with a
lift whose blocks count strict steps (M* = (D* N)* D*); both checks answer with
``hopf.FactorizationReport``, which this module re-exports.  So ``Fraction``s
are built only at the boundary: one per value returned, and in the read-only
views ``nu``, ``mu`` and ``eta``.  Words are letter tuples throughout, as
``ncpoly`` stores them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
from operator import add, mul, sub
from typing import Sequence

from .exactlin import RowSpace
from .hopf import FactorizationReport, _bases
from .ncpoly import (
    NCPoly,
    PhiTable,
    TruncSeries,
    _SHUFFLE,
    _json_checked,
    _json_fields,
    _json_ratio,
    _ratio_texts,
    _letter_rule,
    _product,
    _reduced,
    _shuffle_law,
    is_character,
    is_infinitesimal_character,
)
from .words import Alphabet, Word, _check_word_budget, _graded_letters, alphabet_text, parse_alphabet

ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = [
    "LinRep",
    "rat_sum",
    "rat_conc",
    "rat_star",
    "rat_shuffle",
    "rat_phi_shuffle",
    "minimize",
    "left_shift",
    "right_shift",
    "delta_conc_decompose",
    "is_grouplike",
    "is_primitive",
    "log_trunc",
    "exp_trunc",
    "LieDiagnostics",
    "lie_diagnostics",
    "FactorizationReport",
    "mxstar_factorization_check",
    "triangular_decompose",
    "SweedlerVerdict",
    "sweedler_membership",
]


def _times(row: Sequence, cols: Sequence) -> tuple:
    """The row vector ``row`` times the matrix with columns ``cols``."""
    return tuple(sum(map(mul, row, col)) for col in cols)


def _identity(n: int, c: int = 1) -> tuple:
    """c times the n×n identity matrix."""
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def _fractions(m: Sequence[Sequence[int]], den: int) -> tuple:
    """The integer matrix m over the denominator den, as Fractions."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in m)


def _ratios(values) -> tuple[list[int], list[int]]:
    """Rationals, anything ``Fraction`` takes, as numerators and denominators."""
    qs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    return [q.numerator for q in qs], [q.denominator for q in qs]


def _integer_form(alphabet: Alphabet, nu: list, mu: dict, eta: list, max_letter_weight: int | None,
                  ratio_of: dict) -> tuple:
    """Check a representation whose entries e are p / q for (p, q) = ratio_of[e], and
    return (d, nu', rows, eta', max_letter_weight) over d, the lcm of the q.  On y
    alphabets the weight bound defaults to the heaviest letter of ``mu``; each
    letter up to it gets a matrix, zero where ``mu`` has none."""
    n = len(nu)
    if len(eta) != n:
        raise ValueError("nu and eta disagree on the rank")
    if alphabet.is_y and max_letter_weight is None:
        max_letter_weight = max((k for (k, _) in mu), default=0)
    matrices = {}
    for letter in alphabet.letters(max_weight=max_letter_weight):  # x: all letters
        m = matrices[letter] = mu.get(letter)
        if m is not None and (len(m) != n or any(len(row) != n for row in m)):
            raise ValueError(f"matrix for {alphabet.letter_name(letter)} is not {n}x{n}")
    for letter in mu:
        if letter not in matrices:
            alphabet.check_letter(letter)
            raise ValueError(f"unexpected letter {alphabet.letter_name(letter)} in mu: "
                             f"max_letter_weight is {max_letter_weight}")
    d = math.lcm(*{q for _, q in ratio_of.values()})
    scaled = {e: p * (d // q) for e, (p, q) in ratio_of.items()}.__getitem__
    zero = ((0,) * n,) * n
    vector = lambda v: tuple(map(scaled, v))
    rows = {letter: zero if m is None else tuple(map(vector, m)) for letter, m in matrices.items()}
    return d, vector(nu), rows, vector(eta), max_letter_weight


class LinRep:
    """Linear representation (nu, mu, eta) of a rational series, stored as
    its integer form ``_d``, ``_nu``, ``_rows``, ``_cols``, ``_eta`` (see the
    module docstring) and not changed after construction."""

    __slots__ = ("alphabet", "max_letter_weight", "_d", "_nu", "_rows", "_cols", "_eta")

    def __init__(self, alphabet: Alphabet, nu: Sequence, mu: dict, eta: Sequence,
                 max_letter_weight: int | None = None):
        """Entries are anything ``Fraction`` takes; checked by ``_integer_form``."""
        mu = {letter: None if m is None else [list(row) for row in m] for letter, m in mu.items()}
        nu, eta = list(nu), list(eta)
        entries = [*chain.from_iterable(chain.from_iterable(m for m in mu.values() if m is not None)), *nu, *eta]
        ratio_of = dict(zip(entries, zip(*_ratios(entries))))
        self._set(alphabet, *_integer_form(alphabet, nu, mu, eta, max_letter_weight, ratio_of))

    @classmethod
    def _of(cls, alphabet: Alphabet, d: int, nu: Sequence[int], rows: dict, eta: Sequence[int],
            max_letter_weight: int | None, cols: dict | None = None) -> "LinRep":
        """The representation (nu, rows, eta) / d of integers (``cols``: the
        same matrices by columns), reduced to the least denominator; unchecked."""
        r = object.__new__(cls)
        r._set(alphabet, d, nu, rows, eta, max_letter_weight, cols)
        return r

    def _set(self, alphabet, d, nu, rows, eta, max_letter_weight, cols=None) -> None:
        g = math.gcd(d, *nu, *eta, *chain.from_iterable(chain.from_iterable(rows.values()))) if d > 1 else 1
        if g > 1:
            d //= g
            nu, eta = (x // g for x in nu), (x // g for x in eta)
            rows = {letter: tuple(tuple(x // g for x in row) for row in m) for letter, m in rows.items()}
            cols = None
        self.alphabet, self.max_letter_weight = alphabet, max_letter_weight
        self._d, self._nu, self._eta, self._rows = d, tuple(nu), tuple(eta), rows
        self._cols = {letter: tuple(zip(*m)) for letter, m in rows.items()} if cols is None else cols

    @property
    def nu(self) -> tuple:
        """nu as Fractions, built on each call."""
        return tuple(Fraction(x, self._d) for x in self._nu)

    @property
    def mu(self) -> dict:
        """The letter matrices as Fractions, a fresh letter -> matrix dict."""
        return {letter: _fractions(m, self._d) for letter, m in self._rows.items()}

    @property
    def eta(self) -> tuple:
        """eta as Fractions, built on each call."""
        return tuple(Fraction(x, self._d) for x in self._eta)

    @property
    def rank(self) -> int:
        return len(self._nu)

    def matrix(self, letter) -> tuple:
        return _fractions(self._of_letter(self._rows, letter), self._d)

    def _of_letter(self, table: dict, letter):
        try:
            return table[letter]
        except KeyError:
            raise ValueError(
                f"letter {self.alphabet.letter_name(letter)} is beyond the materialized weight bound"
            ) from None

    # -- evaluation -----------------------------------------------------------

    def _walk(self, rows: tuple, letters: tuple) -> tuple:
        """The integer rows times M(w) = d^|w| mu(w), w the word of
        ``letters``, multiplied in one letter at a time."""
        for letter in letters:
            cols = self._of_letter(self._cols, letter)
            rows = tuple(_times(row, cols) for row in rows)
        return rows

    def _letters_to(self, bound: int) -> list[tuple]:
        """(x, weight, rows, columns) of M(x) for the letters x of weight <= bound, in
        letter order, once a missing letter is named (lightest first, as grading
        order meets it) and then a bound over the word budget refused."""
        alphabet = self.alphabet
        letters = alphabet.letters(max_weight=bound)
        for x in sorted(letters, key=alphabet.letter_weight):
            self._of_letter(self._cols, x)
        _check_word_budget(alphabet, bound)
        return [(x, alphabet.letter_weight(x), self._rows[x], self._cols[x]) for x in letters]

    def coeff(self, w: Word) -> Fraction:
        if w.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        return self._coeff(w.letters)

    def _coeff(self, letters: tuple) -> Fraction:
        (row,) = self._walk((self._nu,), letters)
        return Fraction(sum(map(mul, row, self._eta)), self._d ** (len(letters) + 2))

    def word_matrix(self, w: Word) -> tuple:
        if w.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        return _fractions(self._walk(_identity(self.rank), w.letters), self._d ** len(w))

    def _eval_integers(self, bound: int) -> dict:
        """The nonzero coefficients of grading <= bound, as letter tuple ->
        numerator nu' M(w) eta' over d^(|w|+2), by length and then by letter.
        A word w = uv, |u| = ceil(|w|/2), costs one n-term dot (nu' M(u)) .
        (M(v) eta'): the rows are tabled by length from their prefixes', and the
        columns as M(x) (M(v') eta') with v = x v', so both run in letter order.
        A letter weighs >= 1, so a left half of length k meets >= k - 1 more
        letters and a right half >= k: each table keeps the halves that fit."""
        if self.alphabet.is_y and (self.max_letter_weight or 0) < bound:
            raise ValueError("materialized letter weights do not cover the bound")
        steps = self._letters_to(bound)
        lefts, rights = [[((), 0, self._nu)]], [[((), 0, self._eta)]]  # per length: (half, grading, vector)
        for k in range(1, (bound + 1) // 2 + 1):
            lefts.append([(u + (x,), g + weight, _times(row, cols)) for u, g, row in lefts[-1]
                          for x, weight, _, cols in steps if g + weight <= bound - k + 1])
        for k in range(1, bound // 2 + 1):
            rights.append([((x,) + v, g + weight, _times(col, rows)) for x, weight, rows, _ in steps
                           for v, g, col in rights[-1] if g + weight <= bound - k])
        out = {}
        for length in range(bound + 1):
            halves = rights[length // 2]
            for u, g, row in lefts[(length + 1) // 2]:
                room = bound - g
                for v, h, col in halves:
                    if h <= room and (c := sum(map(mul, row, col))):
                        out[u + v] = c
        return out

    def eval_truncated(self, bound: int) -> TruncSeries:
        """All coefficients of grading <= bound by prefix-sharing traversal."""
        coeffs = self._eval_integers(bound)
        dpow = [self._d ** (k + 2) for k in range(max(map(len, coeffs), default=0) + 1)]
        return TruncSeries._of(self.alphabet, bound, {w: Fraction(c, dpow[len(w)]) for w, c in coeffs.items()})

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, max_letter_weight: int | None = None) -> "LinRep":
        return cls(alphabet, (), {}, (), max_letter_weight)

    @classmethod
    def from_poly(cls, p: NCPoly, max_letter_weight: int | None = None) -> "LinRep":
        """Representation of a polynomial on the prefix tree of its support."""
        alphabet, terms, den = p.alphabet, p._num, p._den
        prefixes = sorted({w[:i] for w in terms for i in range(len(w) + 1)} or {()}, key=alphabet.sort_key)
        index = {u: i for i, u in enumerate(prefixes)}
        n = len(prefixes)
        if max_letter_weight is None and alphabet.is_y:
            max_letter_weight = max((alphabet.letter_weight(a) for w in terms for a in w), default=1)
        letters = alphabet.letters(max_weight=max_letter_weight)
        rows = {letter: [[0] * n for _ in range(n)] for letter in letters}
        for u, i in index.items():
            for letter in letters:
                j = index.get(u + (letter,))
                if j is not None:
                    rows[letter][i][j] = den
        nu = [0] * n
        nu[index[()]] = den
        return cls._of(alphabet, den, nu, rows, [terms.get(u, 0) for u in prefixes], max_letter_weight)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return json.loads(self._json_text())

    def _json_text(self) -> str:
        """The JSON object of "alphabet", "eta", "max_letter_weight", "mu" (one
        matrix per letter name), "nu" and "rank", keys sorted: one template
        filled from one tuple, all of it ASCII."""
        n, weight = self.rank, self.max_letter_weight
        vector = "[" + ", ".join(['"%s"'] * n) + "]"
        matrix = "[" + ", ".join([vector] * n) + "]"
        named = sorted(zip(map(self.alphabet.letter_name, self._rows), self._rows.values()))  # names differ
        mu = ", ".join(f'"{name}": {matrix}' for name, _ in named)
        text = (f'{{"alphabet": "{alphabet_text(self.alphabet)}", "eta": {vector}, "max_letter_weight": '
                f'{"null" if weight is None else weight}, "mu": {{{mu}}}, "nu": {vector}, "rank": {n}}}')
        values = [*self._eta, *chain.from_iterable(chain.from_iterable(m for _, m in named)), *self._nu]
        return text % tuple(_ratio_texts(values, self._d))

    @classmethod
    def from_json(cls, data: dict) -> "LinRep":
        """The representation of a JSON object; its rationals are strings
        ("p/q", or any text ``Fraction`` takes) or integers.  The field
        "rank", which ``_json_text`` writes and a file may leave out, must be
        the integer length of nu.  Entries are read in order, each distinct
        string once."""
        kinds = {"alphabet": str, "nu": list, "mu": dict, "eta": list}
        text, nu, mu, eta = _json_fields(data, kinds, "representation")
        alphabet = parse_alphabet(text)

        ratio_of = {}  # entry -> (p, q); a string read once, an integer each time (True == 1 is refused)

        def vector(value, field: str) -> list:
            values = _json_checked(value, list, field)
            for x in values:
                if type(x) is not str or x not in ratio_of:
                    ratio_of[x] = _json_ratio(x, field)
            return values

        # _json_text writes the names of the len(mu) lightest letters: look them up, parse other keys
        colors = range(alphabet.color_order or 1)
        lightest = range(alphabet.size) if alphabet.is_x else ((k, c) for k in count(1) for c in colors)
        letter_of = {alphabet.letter_name(x): x for x in islice(lightest, len(mu))}
        matrices = {}
        for name, rows in mu.items():
            field = f"representation 'mu' {name!r}"
            letters = (letter_of[name],) if name in letter_of else alphabet.parse_word(name).letters
            if len(letters) != 1:
                raise ValueError(f"{field} is not one letter")
            if letters[0] in matrices:
                raise ValueError(f"{field} names {alphabet.letter_name(letters[0])}, as another 'mu' key does")
            matrices[letters[0]] = [vector(row, field) for row in _json_checked(rows, list, field)]
        weight = data.get("max_letter_weight")
        if weight is not None and type(weight) is not int:
            raise ValueError("representation 'max_letter_weight' must be an integer or null")
        nu, eta = vector(nu, "representation 'nu'"), vector(eta, "representation 'eta'")
        if "rank" in data:
            rank = data["rank"]
            if type(rank) is not int:
                raise ValueError("representation 'rank' must be an integer")
            if rank != len(nu):
                raise ValueError(f"representation 'rank' is {rank}, but 'nu' has {len(nu)} entries")
        return cls._of(alphabet, *_integer_form(alphabet, nu, matrices, eta, weight, ratio_of))

    def __repr__(self) -> str:
        return f"LinRep(rank={self.rank}, alphabet={alphabet_text(self.alphabet)})"


def _common_alphabet(r1: LinRep, r2: LinRep) -> Alphabet:
    if r1.alphabet != r2.alphabet:
        raise ValueError("representations over different alphabets")
    return r1.alphabet


def _common_bound(r1: LinRep, r2: LinRep) -> int | None:
    if r1.alphabet.is_x:
        return None
    return min(r1.max_letter_weight or 0, r2.max_letter_weight or 0)


def _mu_of_poly(r: LinRep, p: NCPoly, walked: dict | None = None) -> tuple[list[list[int]], int]:
    """mu extended linearly to polynomials, as an integer matrix over one
    denominator: the sum of c d^(k-|w|) M(w) over the terms c w, over the
    polynomial's denominator times d^k, k the longest term's length.  M(w)
    is read from ``walked`` (w -> M(w)) when given, and else walked from the
    identity in sorted order, so the first term with a missing letter names it."""
    terms, d = p._num, r._d
    longest = max(map(len, terms), default=0)
    identity = _identity(r.rank)
    out = [[0] * r.rank for _ in range(r.rank)]
    for w in sorted(terms):
        c = terms[w] * d ** (longest - len(w))
        for acc, row in zip(out, r._walk(identity, w) if walked is None else walked[w]):
            for j, x in enumerate(row):
                acc[j] += c * x
    return out, p._den * d ** longest


def mu_of_poly(r: LinRep, p: NCPoly) -> tuple:
    """mu extended linearly to polynomials, as Fractions."""
    if r.alphabet != p.alphabet:
        raise ValueError("polynomial over a different alphabet")
    return _fractions(*_mu_of_poly(r, p))


def _with_ends(r: LinRep, nu: Sequence[int], eta: Sequence[int], den: int = 1) -> LinRep:
    """(nu, mu, eta) with the letter matrices of r, for integer vectors nu
    and eta over d·den (d the denominator of r)."""
    rows, cols = r._rows, r._cols
    if den != 1:
        rows = {letter: tuple(tuple(den * x for x in row) for row in m) for letter, m in rows.items()}
        cols = None
    return LinRep._of(r.alphabet, r._d * den, nu, rows, eta, r.max_letter_weight, cols)


# -- shifts -------------------------------------------------------------------


def left_shift(r: LinRep, p: NCPoly) -> LinRep:
    """S <| P with <S <| P, w> = <S, P w>, realized as (nu mu(P), mu, eta)."""
    if r.alphabet != p.alphabet:
        raise ValueError("shift polynomial over a different alphabet")
    m, den = _mu_of_poly(r, p)
    return _with_ends(r, _times(r._nu, tuple(zip(*m))), [den * x for x in r._eta], den)


def right_shift(r: LinRep, p: NCPoly) -> LinRep:
    """P |> S with <P |> S, w> = <S, w P>, realized as (nu, mu, mu(P) eta)."""
    if r.alphabet != p.alphabet:
        raise ValueError("shift polynomial over a different alphabet")
    m, den = _mu_of_poly(r, p)
    return _with_ends(r, [den * x for x in r._nu], _times(r._eta, m), den)


# -- rational closures: integer forms over one denominator, reduced by LinRep._of


def rat_sum(r1: LinRep, r2: LinRep) -> LinRep:
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)
    d = math.lcm(r1._d, r2._d)
    k1, k2 = d // r1._d, d // r2._d
    z1, z2 = (0,) * r1.rank, (0,) * r2.rank
    rows = {
        letter: tuple(tuple(k1 * x for x in row) + z2 for row in r1._rows[letter])
        + tuple(z1 + tuple(k2 * x for x in row) for row in r2._rows[letter])
        for letter in alphabet.letters(max_weight=bound)
    }
    nu = tuple(k1 * x for x in r1._nu) + tuple(k2 * x for x in r2._nu)
    eta = tuple(k1 * x for x in r1._eta) + tuple(k2 * x for x in r2._eta)
    return LinRep._of(alphabet, d, nu, rows, eta, bound)


def rat_conc(r1: LinRep, r2: LinRep) -> LinRep:
    """mu(x) = [[mu1(x), eta1 nu2 mu2(x)], [0, mu2(x)]], nu = (nu1, 0) and
    eta = (eta1 <R2, 1>, eta2), all over d1 d2^2."""
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)
    d1, d2 = r1._d, r2._d
    k1, k2 = d2 * d2, d1 * d2  # the scales of d1 mu1 and d2 mu2
    z1 = (0,) * r1.rank
    rows = {}
    for letter in alphabet.letters(max_weight=bound):
        nu2b = _times(r2._nu, r2._cols[letter])  # d2^2 nu2 mu2(x)
        upper = tuple(
            tuple(k1 * x for x in row) + tuple(e * y for y in nu2b)
            for row, e in zip(r1._rows[letter], r1._eta)
        )
        rows[letter] = upper + tuple(z1 + tuple(k2 * x for x in row) for row in r2._rows[letter])
    s2 = sum(map(mul, r2._nu, r2._eta))  # d2^2 <R2, 1>
    nu = tuple(k1 * x for x in r1._nu) + (0,) * r2.rank
    eta = tuple(s2 * x for x in r1._eta) + tuple(k2 * x for x in r2._eta)
    return LinRep._of(alphabet, d1 * k1, nu, rows, eta, bound)


def rat_star(r: LinRep) -> LinRep:
    """Kleene star of a proper series (the constant term nu eta must vanish):
    mu(x) = [[mu(x) + eta nu mu(x), 0], [nu mu(x), 0]], nu = (0, 1) and
    eta = (eta, 1), all over d^3."""
    if sum(map(mul, r._nu, r._eta)):
        raise ValueError("star needs a proper series: <R, 1> = 0")
    d = r._d
    rows = {}
    for letter, m in r._rows.items():
        numu = _times(r._nu, r._cols[letter])  # d^2 nu mu(x)
        top = tuple(
            tuple(d * d * x + e * y for x, y in zip(row, numu)) + (0,)
            for row, e in zip(m, r._eta)
        )
        rows[letter] = top + (tuple(d * y for y in numu) + (0,),)
    d3 = d ** 3
    nu = (0,) * r.rank + (d3,)
    eta = tuple(d * d * x for x in r._eta) + (d3,)
    return LinRep._of(r.alphabet, d3, nu, rows, eta, r.max_letter_weight)


def _letter_rule_closure(r1: LinRep, r2: LinRep, phi: PhiTable) -> LinRep:
    """The (phi-)shuffle of two series on the tensor product of their
    representations: mu(x) = sum of g mu1(u) (x) mu2(v) over the terms
    ((u, v), g) of the letter rule of x, the coproduct of x dual to the
    product, with mu(empty word) = I; over d1 d2 q, q the lcm of the gammas' denominators."""
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)
    rules = {letter: _letter_rule(alphabet, letter, phi) for letter in alphabet.letters(max_weight=bound)}
    q = math.lcm(*(g.denominator for rule in rules.values() for g in rule.values()))
    ones = _identity(r1.rank, r1._d), _identity(r2.rank, r2._d)

    def term(u: tuple, v: tuple, c: int) -> list:
        a = r1._rows[u[0]] if u else ones[0]
        b = r2._rows[v[0]] if v else ones[1]
        return [[x * y for x in ra for y in rb] for ra in ([c * x for x in ra] for ra in a) for rb in b]

    rows = {}
    for letter, rule in rules.items():
        total = None
        for (u, v), g in rule.items():
            m = term(u, v, g.numerator * (q // g.denominator))
            total = m if total is None else [list(map(add, s, t)) for s, t in zip(total, m)]
        rows[letter] = total
    nu = tuple(q * x * y for x in r1._nu for y in r2._nu)
    eta = tuple(q * x * y for x in r1._eta for y in r2._eta)
    return LinRep._of(alphabet, r1._d * r2._d * q, nu, rows, eta, bound)


def rat_shuffle(r1: LinRep, r2: LinRep) -> LinRep:
    """Shuffle closure: the phi-shuffle closure with gamma = 0, where every
    letter is primitive and mu(x) = mu1(x) (x) I + I (x) mu2(x)."""
    return _letter_rule_closure(r1, r2, _SHUFFLE)


def rat_phi_shuffle(r1: LinRep, r2: LinRep, phi: PhiTable) -> LinRep:
    """Phi-shuffle closure: the shuffle blocks plus, for each split
    y_k -> (y_i, y_{k-i}) of the letter rule, gamma(i, k-i) mu1(y_i) (x) mu2(y_{k-i})."""
    if not _common_alphabet(r1, r2).is_y:
        raise ValueError("phi-shuffle closure needs a y alphabet")
    return _letter_rule_closure(r1, r2, phi)


# -- minimization -----------------------------------------------------------------


def _reachability_reduce(r: LinRep) -> LinRep:
    """Restrict r to the span of the vectors nu mu(w), in the basis E_i / q
    of its reduced echelon rows, E_i being q at pivot p_i and 0 at the other
    pivots.  A vector u of the span is sum_j u[p_j] E_j / q, so the result
    is mu(x)_ij = (E_i M(x))[p_j], once q E_i M(x) = sum_j z_j E_j is
    checked, nu_i = q nu'[p_i] and eta_i = E_i·eta', all over q d: no solve.
    Any basis serves the forward pass of ``minimize``: if B becomes P B for
    an invertible P, each vector B mu(w) eta of the backward pass becomes
    P B mu(w) eta, so its breadth-first search keeps the same words and the
    same coordinates, and the result is the same.
    """
    d, cols, n = r._d, r._cols, r.rank
    space, found = RowSpace(n), [r._nu]
    for v in found:  # breadth first; a full space takes no more
        if len(space) < n and space.add(v):
            found += (_times(v, c) for c in cols.values())
    if len(space) in (0, n):
        return r if space else LinRep.zero(r.alphabet, r.max_letter_weight)
    pivots = space.pivots
    q = math.lcm(*(row[p] for row, p in zip(space._rows, pivots)))
    basis = [[x * (q // row[p]) for x in row] for row, p in zip(space._rows, pivots)]
    basis_cols = list(zip(*basis))

    def coords(e: list, c: tuple) -> tuple:
        u = _times(e, c)
        z = tuple(u[p] for p in pivots)
        assert all(sum(map(mul, z, col)) == q * x for col, x in zip(basis_cols, u)), "reachable space is not invariant"
        return z

    rows = {letter: tuple(coords(e, c) for e in basis) for letter, c in cols.items()}
    eta = tuple(sum(map(mul, e, r._eta)) for e in basis)
    return LinRep._of(r.alphabet, q * d, tuple(q * r._nu[p] for p in pivots), rows, eta, r.max_letter_weight)


def _breadth_first_reduce(r: LinRep) -> LinRep:
    """Restrict r to the span of the vectors nu mu(w), in the basis of the
    first ones that a breadth-first search finds, which fixes the bytes of
    ``minimize``.  A vector is held as (V, D), V / D in lowest terms, and
    its image under x is V M(x) / (D d).  The m-th basis vector enters the
    ``RowSpace`` as [V_m | e_m], so the tails (``RowSpace.solver``) give
    each image U / E the coordinates D_j z_j / (q E) in the basis
    b_j = V_j / D_j, once z·V = q U is checked.  An image that entered the
    basis as b_j is b_j: its coordinates are e_j, with no solve.
    """
    d, cols, n = r._d, r._cols, r.rank
    space, found, basis, images = RowSpace(n), [(r._nu, d, None)], [], []
    entered = {}  # (i, letter) -> j: the image of b_i under the letter entered as b_j
    for v, den, source in found:  # breadth first, until the basis is full
        if len(basis) == n:
            break
        g = math.gcd(den, *v)
        v, den = tuple(x // g for x in v), den // g
        if space.add([*v, *(int(j == len(basis)) for j in range(n))]):
            entered[source] = len(basis)
            basis.append((v, den))
            images.append({letter: _times(v, c) for letter, c in cols.items()})  # over den·d
            found += ((u, den * d, (len(images) - 1, letter)) for letter, u in images[-1].items())
    if not basis:
        return LinRep.zero(r.alphabet, r.max_letter_weight)
    solve, q = space.solver([v for v, _ in basis])
    dens = [den for _, den in basis]
    lcm = math.lcm(*dens)
    total = q * d * lcm

    def coords(i: int, letter, k: int) -> tuple:  # of the image of b_i, over q d lcm(D_j); k = lcm(D_j) / D_i
        j = entered.get((i, letter))
        if j is not None:
            return tuple(total if t == j else 0 for t in range(len(basis)))
        z = solve(images[i][letter])
        assert z is not None, "reachable space is not invariant"
        return tuple(k * dj * zj for dj, zj in zip(dens, z))

    scales = [lcm // den for den in dens]
    rows = {letter: tuple(coords(i, letter, k) for i, k in enumerate(scales)) for letter in cols}
    nu = (total,) + (0,) * (len(basis) - 1)
    eta = tuple(q * k * sum(map(mul, v, r._eta)) for (v, _), k in zip(basis, scales))
    return LinRep._of(r.alphabet, total, nu, rows, eta, r.max_letter_weight)


def _transpose(r: LinRep) -> LinRep:
    """(eta^T, mu(x)^T, nu^T): nu' and eta' trade places, and rows and columns."""
    return LinRep._of(r.alphabet, r._d, r._eta, r._cols, r._nu, r.max_letter_weight, r._rows)


def minimize(r: LinRep) -> LinRep:
    """Minimal representation of the same series: reachability in the echelon
    basis, then the mirrored observability reduction in its breadth-first
    basis (exact, over Q)."""
    return _transpose(_breadth_first_reduce(_transpose(_reachability_reduce(r))))


# -- deconcatenation splitting -----------------------------------------------------


def delta_conc_decompose(r: LinRep) -> list[tuple[LinRep, LinRep]]:
    """The rank-many tensor factors (G_i, D_i) with <S, uv> = sum_i <G_i,u><D_i,v>."""
    out = []
    for i in range(r.rank):
        e = tuple(r._d if j == i else 0 for j in range(r.rank))  # the unit vector e_i, over d
        out.append((_with_ends(r, r._nu, e), _with_ends(r, e, r._eta)))
    return out


# -- grouplike / primitive, log / exp ------------------------------------------------

# By duality <Delta S, u (x) v> = <S, u*v>, so grouplike and primitive series
# are the characters and infinitesimal characters of the product.
is_grouplike = is_character
is_primitive = is_infinitesimal_character


def log_trunc(series: TruncSeries) -> TruncSeries:
    """log of a series with unit constant term, at the series' truncation."""
    if series._at(()) != ONE:
        raise ValueError("log needs constant term 1")
    x = series - TruncSeries._of(series.alphabet, series.bound, {(): ONE})
    out = TruncSeries._of(series.alphabet, series.bound, {})
    power = TruncSeries._of(series.alphabet, series.bound, {(): ONE})
    for k in range(1, series.bound + 1):
        power = power.conc_mul(x)
        out = out + power.scale(Fraction((-1) ** (k - 1), k))
    return out


def exp_trunc(series: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term, at the series' truncation."""
    if series._at(()) != 0:
        raise ValueError("exp needs constant term 0")
    out = TruncSeries._of(series.alphabet, series.bound, {(): ONE})
    power = TruncSeries._of(series.alphabet, series.bound, {(): ONE})
    for k in range(1, series.bound + 1):
        power = power.conc_mul(series).scale(Fraction(1, k))
        out = out + power
    return out


# -- Lie diagnostics -------------------------------------------------------------


@dataclass
class LieDiagnostics:
    basis: list[tuple]
    nilpotent: bool
    solvable: bool
    nilpotency_index: int | None
    solvability_index: int | None
    lower_central_dims: list[int] = field(default_factory=list)
    derived_dims: list[int] = field(default_factory=list)


def _flatten(m: Sequence[Sequence[int]]) -> list[int]:
    return list(chain.from_iterable(m))


def _bracket(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """The commutator ab - ba of two square integer matrices, by rows."""
    acols, bcols = tuple(zip(*a)), tuple(zip(*b))
    return tuple(tuple(map(sub, _times(ra, bcols), _times(rb, acols))) for ra, rb in zip(a, b))


def _span_basis(mats: list, n: int) -> list:
    """The matrices of ``mats`` that enlarge the span of those before them."""
    space = RowSpace(n * n)
    return [m for m in mats if space.add(_flatten(m))]


def lie_diagnostics(r: LinRep) -> LieDiagnostics:
    """Bracket closure of {mu(x)}, then lower central and derived series.

    The closure brackets the integer letter matrices d mu(x), so an element
    of bracket depth k (a letter matrix has depth 1) is d^k times the
    rational one.  Scaling changes no span test, so the same elements enter
    in the same order; ``basis`` divides each back by its d^k.
    """
    n = r.rank
    space = RowSpace(n * n)
    closure = [(m, 1) for m in r._rows.values() if space.add(_flatten(m))]
    frontier = list(closure)
    while frontier:
        nxt = []
        for a, i in frontier:
            for b, j in list(closure):
                c = _bracket(a, b)
                if space.add(_flatten(c)):
                    closure.append((c, i + j))
                    nxt.append((c, i + j))
        frontier = nxt
    algebra = [m for m, _ in closure]

    def bracket_span(left: list, right: list) -> list:
        return _span_basis([_bracket(a, b) for a in left for b in right], n)

    def descend(step) -> tuple[bool, int | None, list[int]]:
        current = algebra
        dims = [len(current)]
        index = 1
        while current:
            nxt = step(current)
            if len(nxt) == len(current):
                return False, None, dims  # stabilized above zero
            current = nxt
            dims.append(len(current))
            if not current:
                return True, index, dims
            index += 1
        return True, 0, dims  # the algebra itself is zero

    nil, nil_k, lc_dims = descend(lambda cur: bracket_span(algebra, cur))
    sol, sol_k, dv_dims = descend(lambda cur: bracket_span(cur, cur))
    return LieDiagnostics(
        basis=[_fractions(m, r._d ** k) for m, k in closure],
        nilpotent=nil,
        solvable=sol,
        nilpotency_index=nil_k,
        solvability_index=sol_k,
        lower_central_dims=lc_dims,
        derived_dims=dv_dims,
    )


# -- factorizations of the series -------------------------------------------------


def mxstar_factorization_check(r: LinRep, bound: int, *, phi: PhiTable | None = None) -> FactorizationReport:
    """Check M(X*) = decreasing Lyndon product of exp(mu(P_l) S_l) at a truncation.

    On y alphabets with a gamma table the Pi/Sigma pair and the phi-shuffle
    take the place of P/S and the shuffle.  Each side is one integer matrix
    per word, so equal sides give equal readouts nu M(w) eta: the word sum
    holds M(w), walked from the identity in the grading order of
    ``words._graded_letters``, and the product, with L/R the
    last pair of ``DualBases``, is sum_w L'_w (x) mu(R'_w), one term per
    word w = l1^k1 ... lr^kr, built in the walk's order from the terms of
    lighter words: L'_l = L_l and mu(R_l), summed by ``_mu_of_poly`` from the
    walked M(w), on a Lyndon word l (in decreasing Lyndon order), and elsewhere, with
    w = u v split before its last power (``DualBases._split``), L'_w =
    L'_u * L'_v / k and mu(R'_w) = mu(R'_u) mu(R'_v).  So L'_w is the literal product, powers
    bracketed ((L_l * L_l) * L_l) / 3! and factors taken left to right in
    the order of the exponentials, and a table that is not associative
    fails as the multiplied-out product does.  Over the lcm of their
    denominators, the terms give sum_w <L'_w, v> mu(R'_w) at each word v,
    compared in the walk's order up to the first word that differs.
    The Lyndon words and the splits read the cuts that ``DualBases._cuts`` holds.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    alphabet = r.alphabet
    if alphabet.is_y and phi is None:
        raise ValueError("a y-alphabet factorization needs the gamma table")
    bases = _bases(alphabet, phi)
    _, left_of, right_of = bases._pairs()[-1]
    shuffle = _shuffle_law(alphabet, phi)

    # w -> M(w) in grading order, each from its prefix's; the letters first name a missing one, lightest first
    letter_cols = {x: cols for x, _, _, cols in r._letters_to(bound)}
    lhs = {(): _identity(r.rank)}
    for w in chain.from_iterable(_graded_letters(alphabet, bound)[1:]):
        lhs[w] = tuple(_times(row, letter_cols[w[-1]]) for row in lhs[w[:-1]])
    factors = {(): ({(): 1}, 1, lhs[()], 1)}  # w -> L'_w, its denominator, mu(R'_w), its denominator
    for l in sorted((w for w in lhs if len(bases._cuts(w)) == 2), key=alphabet.lex_key, reverse=True):
        factors[l] = (*left_of(l), *_mu_of_poly(r, NCPoly._of(alphabet, *right_of(l)), lhs))
    for w in lhs:  # each word after the lighter ones, so after the parts that _split cuts it into
        if w not in factors:
            u, v, k = bases._split(w)
            (a, da, ma, ea), (b, db, mb, eb) = factors[u], factors[v]
            cols = tuple(zip(*mb))
            factors[w] = (*_reduced(_product(a, b, shuffle), da * db * k), [_times(row, cols) for row in ma], ea * eb)

    scale = math.lcm(*(da * ea for _, da, _, ea in factors.values()))
    rhs = {}  # v -> sum_w <L'_w, v> mu(R'_w), over scale
    for a, da, m, ea in factors.values():
        unit = scale // (da * ea)
        for w, c in a.items():
            term = [[unit * c * x for x in row] for row in m]
            rhs[w] = [list(map(add, acc, row)) for acc, row in zip(rhs[w], term)] if w in rhs else term

    dpow = [r._d ** k for k in range(bound + 1)]  # a word of grading <= bound has <= bound letters
    zero = _identity(r.rank, 0)
    for w, m in lhs.items():  # grading order is sort_key order, so the first differing word comes first
        if any(x * scale != y * dpow[len(w)] for p, q in zip(m, rhs.get(w, zero)) for x, y in zip(p, q)):
            return FactorizationReport(False, f"matrix series differ; first differing word: {alphabet.name(w)}")
    return FactorizationReport(True)


def triangular_decompose(r: LinRep, bound: int) -> tuple[TruncSeries, FactorizationReport]:
    """Split M(X) into diagonal + strictly upper parts and rebuild the series.

    Requires every mu(x) upper triangular.  By Conway's star identity
    M(X)* = (D(X)* N(X))* D(X)*, the series is rebuilt from the parts of
    M(w) whose index paths take k strict steps (see ``_triangular_check``)
    and compared against direct evaluation.
    """
    readout, report = _triangular_check(r, bound)
    rebuilt = {w: Fraction(c, r._d ** (len(w) + 2)) for w, c in readout.items()}
    return TruncSeries._of(r.alphabet, bound, rebuilt), report


def _lift(r: LinRep, blocks: int) -> tuple[LinRep, list[tuple[int, int]]]:
    """The lift of ``r`` over ``blocks`` blocks, over 1, and its states (k, i); see ``_triangular_check``."""
    states = [(k, i) for k in range(blocks) for i in range(k, r.rank)]
    rows = {
        letter: tuple(
            tuple(m[i][j] if (l, j) == (k, i) or (l == k + 1 and j > i) else 0 for l, j in states)
            for k, i in states
        )
        for letter, m in r._rows.items()
    }
    nu = (*r._nu, *[0] * (len(states) - r.rank))
    return LinRep._of(r.alphabet, 1, nu, rows, tuple(r._eta[i] for _, i in states), r.max_letter_weight), states


def _triangular_check(r: LinRep, bound: int) -> tuple[dict, FactorizationReport]:
    """The integer core of ``triangular_decompose``: the rebuilt series as
    letter tuple -> integer over d^(|w|+2), and the report.

    The lift (``_lift``) holds D(x) on each diagonal block and N(x) from block
    k to k + 1, nu' in block 0 and eta' in every block; block k of e_i Lambda(w)
    is row i of M_k(w), the part of M(w) = d^|w| mu(w) whose index paths
    take k strict steps, so block k needs only the indices k..n-1.  As
    (D* N)^k D* = sum_w M_k(w) w and D* has constant term 1, the order is the
    highest block nonzero in the span of the e_i Lambda(w) of grading <=
    bound: a ``RowSpace`` built grade by grade, the rows new at g being the
    images under x of those new at g - wt(x).  The readout is
    ``_eval_integers`` of the lift of order + 1 blocks, compared with that of r.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    n = r.rank
    for letter, m in r._rows.items():
        if any(m[i][j] for i in range(n) for j in range(i)):
            raise ValueError(f"mu({r.alphabet.letter_name(letter)}) is not upper triangular")
    series = r._eval_integers(bound)  # refuses a bound over the word budget before any work
    lift, states = _lift(r, n)
    steps = [(x, r.alphabet.letter_weight(x)) for x in r.alphabet.letters(max_weight=bound)]
    space = RowSpace(len(states))
    fresh = [[e for e in _identity(len(states))[:n] if space.add(e)]]  # the rows new at each grading
    for g in range(1, bound + 1):
        images = (v for x, wt in steps if wt <= g for v in lift._walk(fresh[g - wt], (x,)))
        fresh.append([v for v in images if space.add(v)])
    order = max((k for row in space._rows for (k, _), x in zip(states, row) if x), default=0)
    lift, _ = _lift(r, order + 1)
    readout = lift._eval_integers(bound)
    ok = readout == series
    detail = f"nilpotency order {order} (rank {n})" if ok else "reconstruction differs"
    return readout, FactorizationReport(ok, detail)


# -- Sweedler membership ------------------------------------------------------------


@dataclass
class SweedlerVerdict:
    rational: bool
    rank: int | None
    detail: str
    witnesses: list[tuple[LinRep, LinRep]] | None = None


def sweedler_membership(obj, *, max_rank: int | None = None) -> SweedlerVerdict:
    """Membership in the Sweedler dual = rationality.

    A linear representation is affirmed constructively via its
    deconcatenation splitting.  A bare truncated series gets a Hankel-style
    partial realization on its window: finite evidence, never a proof.
    """
    if isinstance(obj, LinRep):
        return SweedlerVerdict(
            True,
            obj.rank,
            "linear representation: Delta_conc splits into rank many factors",
            delta_conc_decompose(obj),
        )
    if not isinstance(obj, TruncSeries):
        raise TypeError("expected a LinRep or a TruncSeries")
    series = obj
    n = series.bound
    if n < 1:
        return SweedlerVerdict(False, None, "window too small for realization evidence")
    # budget: rows u (<= p), one letter (<= wmax), columns v (<= q) must fit
    wmax = max((series.alphabet.weight(w) for w in series._values if len(w) == 1), default=1)  # x letters weigh 1
    if n < wmax:
        return SweedlerVerdict(False, None, "window too small for realization evidence")
    p = (n - wmax) // 2
    q = n - wmax - p
    cols = list(chain.from_iterable(_graded_letters(series.alphabet, q)))
    try:
        nums, dens = _ratios(series._values.values())
    except TypeError:
        raise ValueError("sweedler_membership needs a window of exact rational values") from None
    scale = math.lcm(*dens)
    window = {w: x * (scale // den) for w, x, den in zip(series._values, nums, dens)}  # the series times scale

    def hankel_row(u: tuple) -> list[int]:
        return [window.get(u + v, 0) for v in cols]

    rows_at = list(chain.from_iterable(_graded_letters(series.alphabet, p)))
    space = RowSpace(len(cols))
    basis_words: list[tuple] = []
    basis_rows = []
    for u in rows_at:  # the m-th basis row enters with the unit tail e_m
        row = hankel_row(u)
        if space.add([*row, *(int(j == len(basis_words)) for j in range(len(rows_at)))]):
            basis_words.append(u)
            basis_rows.append(row)
    hankel_rank = len(basis_words)
    if max_rank is not None and hankel_rank > max_rank:
        return SweedlerVerdict(
            False,
            None,
            f"no realization of rank <= {max_rank} within window {n} (Hankel rank {hankel_rank})",
        )
    if hankel_rank == 0:
        rep = LinRep.zero(series.alphabet)
        return SweedlerVerdict(True, 0, f"zero series on window {n}", delta_conc_decompose(rep))

    # coordinates z / den in the basis rows; the realization is over den·scale
    solve, den = space.solver(basis_rows)
    rows = {}
    for letter in series.alphabet.letters(max_weight=wmax):
        m = []
        for u in basis_words:
            z = solve(hankel_row(u + (letter,)))
            if z is None:
                return SweedlerVerdict(
                    False,
                    None,
                    f"no rank-{hankel_rank} realization within window {n}: "
                    "shifted rows leave the span",
                )
            m.append(tuple(scale * x for x in z))
        rows[letter] = tuple(m)
    nu = solve(hankel_row(()))  # the empty word's row is a basis row or zero
    eta = [den * window.get(u, 0) for u in basis_words]
    rep = LinRep._of(series.alphabet, den * scale, [scale * x for x in nu], rows, eta,
                     None if series.alphabet.is_x else wmax)

    for w in chain.from_iterable(_graded_letters(series.alphabet, n)):
        heavier = any(series.alphabet.letter_weight(a) > wmax for a in w)
        value = ZERO if heavier else rep._coeff(w)
        if value != series._at(w):
            return SweedlerVerdict(
                False,
                None,
                f"no rank-{hankel_rank} realization reproduces the window "
                f"(first failure at {series.alphabet.name(w)})",
            )
    return SweedlerVerdict(
        True,
        hankel_rank,
        f"rational up to {n} with rank {hankel_rank}",
        delta_conc_decompose(rep),
    )
