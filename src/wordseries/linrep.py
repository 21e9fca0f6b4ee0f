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

Everything is exact rational arithmetic; no tolerances anywhere.  Evaluation
runs on integers: each representation keeps one integer form, nu, every
mu(x) and eta times their common denominator d, so that mu(w) = M(w) / d^|w|
and nu mu(w) eta = nu' M(w) eta' / d^(|w|+2) with integer M(w) (|w| counts
letters).  Coefficients, word matrices, mu of polynomials, the matrices of
polynomials of the triangular check and the two sides of the M(X*) check
(the word sum, and the Lyndon product of ``hopf`` keyed by matrix units) are
summed on integers, and one ``Fraction`` is built per output value: every
value returned is a ``Fraction``.  Words are letter tuples throughout, as
``ncpoly`` stores them: ``mu_of_poly`` and ``from_poly`` read a polynomial's
integer form, and ``eval_truncated`` and the checks store their series by
letter tuple, with no ``Word`` built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from . import exactlin
from .exactlin import Mat, RowSpace, Vec, _int_row, mat_add, mat_scale, mat_vec, vec_mat
from .hopf import DualBases, _lyndon_exp_product
from .ncpoly import (
    NCPoly,
    PhiTable,
    TruncSeries,
    _SHUFFLE,
    _add_term,
    _integer_terms,
    _json_checked,
    _json_fields,
    _json_fraction,
    _letter_rule,
    _product,
    _scaled,
    format_fraction,
    is_character,
    is_infinitesimal_character,
)
from .words import Alphabet, Word, alphabet_text, lyndon_words, parse_alphabet, words_up_to_grading

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


class _Integers(NamedTuple):
    """nu, the letter matrices and eta times their common denominator d."""

    d: int
    nu: tuple[int, ...]
    rows: dict  # letter -> the rows of M(x) = d mu(x)
    cols: dict  # letter -> the columns of M(x)
    eta: tuple[int, ...]


def _times(row: Sequence, cols: Sequence) -> tuple:
    """The row vector ``row`` times the matrix with columns ``cols``."""
    return tuple(sum(map(mul, row, col)) for col in cols)


def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _fractions(m: Sequence[Sequence[int]], den: int) -> Mat:
    """The integer matrix m over the denominator den, as Fractions."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in m)


class LinRep:
    """Linear representation (nu, mu, eta) of a rational series.

    A representation is not changed after construction: its integer form is
    built on first use and kept.
    """

    __slots__ = ("alphabet", "nu", "mu", "eta", "max_letter_weight", "_ints")

    def __init__(self, alphabet: Alphabet, nu: Sequence, mu: Mapping, eta: Sequence,
                 max_letter_weight: int | None = None):
        self.alphabet = alphabet
        self.nu = exactlin.vector(nu)
        self.eta = exactlin.vector(eta)
        n = len(self.nu)
        if len(self.eta) != n:
            raise ValueError("nu and eta disagree on the rank")
        if alphabet.is_y and max_letter_weight is None:
            max_letter_weight = max((k for (k, _) in mu), default=0)
        matrices = {}
        for letter in alphabet.letters(max_weight=max_letter_weight):  # x: all letters
            m = mu.get(letter)
            m = exactlin.zeros(n, n) if m is None else exactlin.matrix(m)
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"matrix for {alphabet.letter_name(letter)} is not {n}x{n}")
            matrices[letter] = m
        for letter in mu:
            if letter not in matrices:
                raise ValueError(f"unexpected letter {letter!r} in mu")
        self.mu = matrices
        self.max_letter_weight = max_letter_weight
        self._ints: _Integers | None = None

    @property
    def rank(self) -> int:
        return len(self.nu)

    def matrix(self, letter) -> Mat:
        return self._of_letter(self.mu, letter)

    def _of_letter(self, table: dict, letter):
        try:
            return table[letter]
        except KeyError:
            raise ValueError(
                f"letter {self.alphabet.letter_name(letter)} is beyond the materialized weight bound"
            ) from None

    def _integers(self) -> _Integers:
        """The integer form: nu' = d nu, M(x) = d mu(x) and eta' = d eta, with d
        the least common denominator of all their entries."""
        if self._ints is None:
            entries = (q for m in self.mu.values() for row in m for q in row)
            d = math.lcm(*(q.denominator for q in (*self.nu, *entries, *self.eta)))
            rows = {letter: tuple(_scaled(row, d) for row in m) for letter, m in self.mu.items()}
            cols = {letter: tuple(zip(*m)) for letter, m in rows.items()}
            self._ints = _Integers(d, _scaled(self.nu, d), rows, cols, _scaled(self.eta, d))
        return self._ints

    def _word_matrices(self) -> Callable[[tuple], tuple]:
        """M(w) = d^|w| mu(w) by letter tuple, each product built from its
        prefix's.  A word whose one-letter-shorter prefix is not in the table
        walks back to its longest known prefix and builds the prefixes in
        between shortest first, so no call nests more than one level deep,
        whatever the length of the word.  The table lives as long as the
        returned function."""
        ints = self._integers()
        table = {(): _identity(self.rank)}

        def word_matrix(letters: tuple) -> tuple:
            m = table.get(letters)
            if m is None:
                m = table.get(letters[:-1])
                if m is None:  # back to the longest known prefix, then its extensions in turn
                    k = len(letters) - 2
                    while letters[:k] not in table:
                        k -= 1
                    for k in range(k + 1, len(letters)):
                        m = word_matrix(letters[:k])  # one level deep: its prefix is known
                cols = self._of_letter(ints.cols, letters[-1])
                m = table[letters] = tuple(_times(row, cols) for row in m)
            return m

        return word_matrix

    # -- evaluation -----------------------------------------------------------

    def coeff(self, w: Word) -> Fraction:
        ints = self._integers()
        row = ints.nu
        for letter in w.letters:
            row = _times(row, self._of_letter(ints.cols, letter))
        return Fraction(sum(map(mul, row, ints.eta)), ints.d ** (len(w) + 2))

    def word_matrix(self, w: Word) -> Mat:
        return _fractions(self._word_matrices()(w.letters), self._integers().d ** len(w))

    def eval_truncated(self, bound: int) -> TruncSeries:
        """All coefficients of grading <= bound by prefix-sharing traversal."""
        alphabet = self.alphabet
        if alphabet.is_y and (self.max_letter_weight or 0) < bound:
            raise ValueError("materialized letter weights do not cover the bound")
        ints = self._integers()
        steps = [
            (letter, alphabet.letter_weight(letter), self._of_letter(ints.cols, letter))
            for letter in alphabet.letters(max_weight=bound)
        ]
        coeffs: dict[tuple, Fraction] = {}
        frontier = [((), 0, ints.nu)]  # (letters, grading, nu' M(w)) of the words of one length
        den = ints.d ** 2  # the frontier holds the words of one length k: d^(k+2)
        while frontier:
            nxt = []
            for w, grading, row in frontier:
                c = sum(map(mul, row, ints.eta))
                if c:
                    coeffs[w] = Fraction(c, den)
                for x, weight, cols in steps:
                    if grading + weight <= bound:
                        nxt.append((w + (x,), grading + weight, _times(row, cols)))
            frontier = nxt
            den *= ints.d
        return TruncSeries._of(alphabet, bound, coeffs)

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, max_letter_weight: int | None = None) -> "LinRep":
        return cls(alphabet, (), {}, (), max_letter_weight)

    @classmethod
    def from_poly(cls, p: NCPoly, max_letter_weight: int | None = None) -> "LinRep":
        """Representation of a polynomial on the prefix tree of its support."""
        alphabet, terms = p.alphabet, p._num
        prefixes = sorted({w[:i] for w in terms for i in range(len(w) + 1)} or {()}, key=alphabet.sort_key)
        index = {u: i for i, u in enumerate(prefixes)}
        n = len(prefixes)
        if max_letter_weight is None and alphabet.is_y:
            max_letter_weight = max((alphabet.letter_weight(a) for w in terms for a in w), default=1)
        letters = alphabet.letters(max_weight=max_letter_weight)
        mu = {letter: [[ZERO] * n for _ in range(n)] for letter in letters}
        for u, i in index.items():
            for letter in letters:
                j = index.get(u + (letter,))
                if j is not None:
                    mu[letter][i][j] = ONE
        nu = [ZERO] * n
        nu[index[()]] = ONE
        eta = [Fraction(terms.get(u, 0), p._den) for u in prefixes]
        return cls(alphabet, nu, mu, eta, max_letter_weight)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "alphabet": alphabet_text(self.alphabet),
            "max_letter_weight": self.max_letter_weight,
            "nu": [format_fraction(c) for c in self.nu],
            "mu": {
                self.alphabet.letter_name(letter): [
                    [format_fraction(c) for c in row] for row in m
                ]
                for letter, m in sorted(
                    self.mu.items(), key=lambda kv: self.alphabet.letter_key(kv[0])
                )
            },
            "eta": [format_fraction(c) for c in self.eta],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LinRep":
        kinds = {"alphabet": str, "nu": list, "mu": dict, "eta": list}
        text, nu, mu, eta = _json_fields(data, kinds, "representation")
        alphabet = parse_alphabet(text)

        def vector(value, field: str) -> list[Fraction]:
            return [_json_fraction(c, field) for c in _json_checked(value, list, field)]

        matrices = {}
        for name, rows in mu.items():
            field = f"representation 'mu' {name!r}"
            letters = alphabet.parse_word(name).letters
            if len(letters) != 1:
                raise ValueError(f"{field} is not one letter")
            matrices[letters[0]] = [vector(row, field) for row in _json_checked(rows, list, field)]
        weight = data.get("max_letter_weight")
        if weight is not None and type(weight) is not int:
            raise ValueError("representation 'max_letter_weight' must be an integer or null")
        nu, eta = vector(nu, "representation 'nu'"), vector(eta, "representation 'eta'")
        return cls(alphabet, nu, matrices, eta, weight)

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


def mu_of_poly(r: LinRep, p: NCPoly) -> Mat:
    """mu extended linearly to polynomials, summed on integers over the
    polynomial's denominator."""
    terms, den = p._num, p._den
    d = r._integers().d
    longest = max(map(len, terms), default=0)
    word_matrix = r._word_matrices()
    out = [[0] * r.rank for _ in range(r.rank)]
    for w, c in terms.items():
        c *= d ** (longest - len(w))
        for acc, row in zip(out, word_matrix(w)):
            for j, x in enumerate(row):
                acc[j] += c * x
    return _fractions(out, den * d ** longest)


# -- shifts -------------------------------------------------------------------


def left_shift(r: LinRep, p: NCPoly) -> LinRep:
    """S <| P with <S <| P, w> = <S, P w>, realized as (nu mu(P), mu, eta)."""
    if r.alphabet != p.alphabet:
        raise ValueError("shift polynomial over a different alphabet")
    return LinRep(r.alphabet, vec_mat(r.nu, mu_of_poly(r, p)), r.mu, r.eta, r.max_letter_weight)


def right_shift(r: LinRep, p: NCPoly) -> LinRep:
    """P |> S with <P |> S, w> = <S, w P>, realized as (nu, mu, mu(P) eta)."""
    if r.alphabet != p.alphabet:
        raise ValueError("shift polynomial over a different alphabet")
    return LinRep(r.alphabet, r.nu, r.mu, mat_vec(mu_of_poly(r, p), r.eta), r.max_letter_weight)


# -- rational closures ----------------------------------------------------------


def rat_sum(r1: LinRep, r2: LinRep) -> LinRep:
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)
    n1, n2 = r1.rank, r2.rank
    mu = {}
    for letter in alphabet.letters(max_weight=bound):
        a, b = r1.mu[letter], r2.mu[letter]
        mu[letter] = [
            [a[i][j] if i < n1 and j < n1 else ZERO for j in range(n1 + n2)]
            if i < n1
            else [b[i - n1][j - n1] if j >= n1 else ZERO for j in range(n1 + n2)]
            for i in range(n1 + n2)
        ]
    return LinRep(alphabet, r1.nu + r2.nu, mu, r1.eta + r2.eta, bound)


def rat_conc(r1: LinRep, r2: LinRep) -> LinRep:
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)
    n1, n2 = r1.rank, r2.rank
    s2 = exactlin.dot(r2.nu, r2.eta)  # <R2, 1>
    mu = {}
    for letter in alphabet.letters(max_weight=bound):
        a, b = r1.mu[letter], r2.mu[letter]
        # upper-right block: eta1 nu2 mu2(x)
        nu2b = vec_mat(r2.nu, b)
        block = [[r1.eta[i] * nu2b[j] for j in range(n2)] for i in range(n1)]
        mu[letter] = [
            list(a[i]) + block[i] if i < n1 else [ZERO] * n1 + list(b[i - n1])
            for i in range(n1 + n2)
        ]
    nu = tuple(r1.nu) + (ZERO,) * n2
    eta = tuple(c * s2 for c in r1.eta) + tuple(r2.eta)
    return LinRep(alphabet, nu, mu, eta, bound)


def rat_star(r: LinRep) -> LinRep:
    """Kleene star of a proper series (the constant term nu eta must vanish)."""
    if exactlin.dot(r.nu, r.eta) != 0:
        raise ValueError("star needs a proper series: <R, 1> = 0")
    n = r.rank
    mu = {}
    for letter, m in r.mu.items():
        numu = vec_mat(r.nu, m)  # nu mu(x)
        etanu_mu = [[r.eta[i] * numu[j] for j in range(n)] for i in range(n)]
        top = [list(mat_add(m, etanu_mu)[i]) + [ZERO] for i in range(n)]
        mu[letter] = top + [list(numu) + [ZERO]]
    nu = (ZERO,) * n + (ONE,)
    eta = tuple(r.eta) + (ONE,)
    return LinRep(r.alphabet, nu, mu, eta, r.max_letter_weight)


def _letter_rule_closure(r1: LinRep, r2: LinRep, phi: PhiTable) -> LinRep:
    """The (phi-)shuffle of two series on the tensor product of their
    representations: mu(x) = sum of g mu1(u) (x) mu2(v) over the terms
    ((u, v), g) of the letter rule of x, the coproduct of x dual to the
    product, with mu(empty word) = I."""
    alphabet = _common_alphabet(r1, r2)
    bound = _common_bound(r1, r2)

    def factor(r: LinRep, u: tuple) -> Mat:
        return r.mu[u[0]] if u else exactlin.identity(r.rank)

    mu = {
        letter: functools.reduce(mat_add, (
            exactlin.kron(mat_scale(g, factor(r1, u)), factor(r2, v))
            for (u, v), g in _letter_rule(alphabet, letter, phi).items()
        ))
        for letter in alphabet.letters(max_weight=bound)
    }
    return LinRep(
        alphabet,
        exactlin.kron_vec(r1.nu, r2.nu),
        mu,
        exactlin.kron_vec(r1.eta, r2.eta),
        bound,
    )


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
    """Restrict r to the span of the vectors nu mu(w), found breadth first.

    Vectors are carried as integer rows (w, s), v = s·w (see ``exactlin``),
    and each letter matrix as one integer matrix times a scale, so images
    are integer vector-matrix products.  Each basis vector's images are kept
    from the search and expressed in the basis by one ``coordinates`` solver,
    which inverts the basis block once.
    """
    n = r.rank
    mats = {}
    for letter, m in r.mu.items():
        flat, scale = _int_row([x for row in m for x in row])
        mats[letter] = [flat[j::n] for j in range(n)], scale  # columns
    space = RowSpace(n)
    start = _int_row(r.nu)
    basis = [start] if space.add(start[0]) else []
    images: list[dict] = []
    while len(images) < len(basis):  # breadth first: basis vectors in order of discovery
        w, s = basis[len(images)]
        row = {}
        for letter, (cols, scale) in mats.items():
            u, g = _int_row([sum(map(mul, w, col)) for col in cols])
            row[letter] = image = (u, s * scale * g)
            if space.add(u):
                basis.append(image)
        images.append(row)
    if not basis:
        return LinRep.zero(r.alphabet, r.max_letter_weight)
    solve_row = exactlin.coordinates(basis, space.pivots)

    def coords(v) -> Vec:
        x = solve_row(v)
        assert x is not None, "reachable space is not invariant"
        return x

    mu = {letter: [coords(row[letter]) for row in images] for letter in r.mu}
    e, se = _int_row(r.eta)
    eta = [t * se * sum(map(mul, w, e)) for w, t in basis]
    return LinRep(r.alphabet, coords(start), mu, eta, r.max_letter_weight)


def _transpose_rep(r: LinRep) -> LinRep:
    mu = {letter: exactlin.transpose(m) for letter, m in r.mu.items()}
    return LinRep(r.alphabet, r.eta, mu, r.nu, r.max_letter_weight)


def minimize(r: LinRep) -> LinRep:
    """Minimal representation of the same series: forward reachability basis
    extraction followed by the mirrored observability reduction (exact, over Q)."""
    reduced = _reachability_reduce(r)
    reduced = _transpose_rep(_reachability_reduce(_transpose_rep(reduced)))
    return reduced


# -- deconcatenation splitting -----------------------------------------------------


def delta_conc_decompose(r: LinRep) -> list[tuple[LinRep, LinRep]]:
    """The rank-many tensor factors (G_i, D_i) with <S, uv> = sum_i <G_i,u><D_i,v>."""
    out = []
    for i in range(r.rank):
        e = tuple(ONE if j == i else ZERO for j in range(r.rank))
        g = LinRep(r.alphabet, r.nu, r.mu, e, r.max_letter_weight)
        d = LinRep(r.alphabet, e, r.mu, r.eta, r.max_letter_weight)
        out.append((g, d))
    return out


# -- grouplike / primitive, log / exp ------------------------------------------------

# By duality <Delta S, u (x) v> = <S, u*v>, so grouplike and primitive series
# are the characters and infinitesimal characters of the product.
is_grouplike = is_character
is_primitive = is_infinitesimal_character


def log_trunc(series: TruncSeries) -> TruncSeries:
    """log of a series with unit constant term, at the series' truncation."""
    if series.coeff(series.alphabet.empty_word()) != ONE:
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
    if series.coeff(series.alphabet.empty_word()) != 0:
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
    basis: list[Mat]
    nilpotent: bool
    solvable: bool
    nilpotency_index: int | None
    solvability_index: int | None
    lower_central_dims: list[int] = field(default_factory=list)
    derived_dims: list[int] = field(default_factory=list)


def _flatten(m: Mat) -> Vec:
    return tuple(c for row in m for c in row)


def _span_basis(mats: list[Mat], n: int) -> list[Mat]:
    space = RowSpace(n * n)
    out = []
    for m in mats:
        if space.add(_flatten(m)):
            out.append(m)
    return out


def lie_diagnostics(r: LinRep) -> LieDiagnostics:
    """Bracket closure of {mu(x)}, then lower central and derived series."""
    n = r.rank
    space = RowSpace(n * n)
    closure = [m for m in r.mu.values() if space.add(_flatten(m))]
    frontier = list(closure)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closure):
                c = exactlin.bracket(a, b)
                if space.add(_flatten(c)):
                    closure.append(c)
                    nxt.append(c)
        frontier = nxt

    def bracket_span(left: list[Mat], right: list[Mat]) -> list[Mat]:
        return _span_basis(
            [exactlin.bracket(a, b) for a in left for b in right], n
        )

    def descend(step) -> tuple[bool, int | None, list[int]]:
        current = closure
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

    nil, nil_k, lc_dims = descend(lambda cur: bracket_span(closure, cur))
    sol, sol_k, dv_dims = descend(lambda cur: bracket_span(cur, cur))
    return LieDiagnostics(
        basis=closure,
        nilpotent=nil,
        solvable=sol,
        nilpotency_index=nil_k,
        solvability_index=sol_k,
        lower_central_dims=lc_dims,
        derived_dims=dv_dims,
    )


# -- factorizations of the series -------------------------------------------------


@dataclass
class FactorizationReport:
    equal: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equal


def _matpoly_mul(a: list, b: list, bound: int, grading) -> list:
    """Product of two square matrices whose entries are letter tuple ->
    coefficient maps, truncated at ``bound`` for the ``grading`` of tuples."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _product(a[i][k], b[k][j], None, bound, out[i][j], grading)
    return out


def _matpoly_readout(nu: Sequence, m: list, eta: Sequence) -> dict:
    """The word -> coefficient map nu m eta."""
    out: dict = {}
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            s = nu[i] * eta[j]
            if s:
                for w, c in entry.items():
                    _add_term(out, w, s * c)
    return out


def _unit_law(ij: tuple, kl: tuple):
    """The product of the matrix units E_ij E_kl, as terms for ``_product``."""
    return (((ij[0], kl[1]), 1),) if ij[1] == kl[0] else ()


def mxstar_factorization_check(r: LinRep, bound: int, *, phi: PhiTable | None = None) -> FactorizationReport:
    """Check M(X*) = decreasing Lyndon product of exp(mu(P_l) S_l) at a truncation.

    On y alphabets with a gamma table the Pi/Sigma pair and the phi-shuffle
    take the place of P/S and the shuffle.  Also confirms the scalar readout
    nu M(X*) eta against the evaluated series.  M(X*) is carried as integer
    numerators keyed by (word, matrix unit (i, j)): the word sum holds M(w)
    at w, over d^|w|, and the product is the diagonal series' Lyndon product
    of ``hopf`` with mu(P_l) on the right, over its one denominator.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    alphabet = r.alphabet
    if alphabet.is_y and phi is None:
        raise ValueError("a y-alphabet factorization needs the gamma table")
    bases = DualBases(alphabet, phi)
    right_basis = bases.p if phi is None else bases.pi

    ints = r._integers()
    word_matrix = r._word_matrices()
    lhs = {}
    for w in (u.letters for u in words_up_to_grading(alphabet, bound)):
        for i, row in enumerate(word_matrix(w)):
            for j, c in enumerate(row):
                if c:
                    lhs[w, (i, j)] = c

    def matrix_terms(l: Word) -> tuple[dict, int]:
        a = mu_of_poly(r, right_basis(l))
        return _integer_terms({(i, j): q for i, row in enumerate(a) for j, q in enumerate(row) if q})

    factors = lyndon_words(alphabet, bound)
    factors.sort(key=Word.lex_key, reverse=True)
    one = {(i, i): 1 for i in range(r.rank)}
    rhs, scale = _lyndon_exp_product(bases, factors, bound, matrix_terms, _unit_law, one)

    dpow = [ints.d ** k for k in range(bound + 1)]  # a word of grading <= bound has <= bound letters
    differ = [
        w
        for w, ij in lhs.keys() | rhs.keys()
        if lhs.get((w, ij), 0) * scale != rhs.get((w, ij), 0) * dpow[len(w)]
    ]
    if differ:
        first = alphabet.name(min(differ, key=alphabet.sort_key))
        return FactorizationReport(False, f"matrix series differ; first differing word: {first}")

    readout: dict = {}
    for (w, (i, j)), c in rhs.items():
        _add_term(readout, w, ints.nu[i] * c * ints.eta[j])
    den = scale * ints.d ** 2
    readout = {w: Fraction(c, den) for w, c in readout.items()}
    if TruncSeries._of(alphabet, bound, readout) != r.eval_truncated(bound):
        return FactorizationReport(False, "nu M eta readout differs from the series")
    return FactorizationReport(True)


def triangular_decompose(r: LinRep, bound: int) -> tuple[TruncSeries, FactorizationReport]:
    """Split M(X) into diagonal + strictly upper parts and rebuild the series.

    Requires every mu(x) upper triangular.  The diagonal star is an entrywise
    truncated geometric series; the strictly upper remainder makes
    D(X*) N(X) nilpotent of order at most the rank, and the series is
    reconstructed as nu (sum of its powers) D(X*) eta, then compared against
    direct evaluation.  Matrices of polynomials are n x n lists of
    letter tuple -> integer maps, built from the integer letter matrices
    d mu(x): the coefficient of w is the integer over d^|w|.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    n = r.rank
    for letter, m in r.mu.items():
        for i in range(n):
            for j in range(i):
                if m[i][j] != 0:
                    raise ValueError(
                        f"mu({r.alphabet.letter_name(letter)}) is not upper triangular"
                    )
    alphabet = r.alphabet
    ints = r._integers()
    weight = alphabet.weight
    one = ()
    diag = [{} for _ in range(n)]
    strict = [[{} for _ in range(n)] for _ in range(n)]
    for letter in sorted(r.mu, key=alphabet.letter_key):
        m = ints.rows[letter]
        lw = (letter,)
        for i in range(n):
            if m[i][i]:
                diag[i][lw] = m[i][i]
            for j in range(i + 1, n):
                if m[i][j]:
                    strict[i][j][lw] = m[i][j]

    # D(X*): entrywise star of the diagonal, a truncated geometric series
    d_star = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        acc = total = {one: 1}
        for _ in range(bound):
            acc = _product(acc, diag[i], bound=bound, grading=weight)
            if not acc:
                break
            total = {**total, **acc}  # acc holds the words of one length only
        d_star[i][i] = total

    t = _matpoly_mul(d_star, strict, bound, weight)
    power = geom = [[{one: 1} if i == j else {} for j in range(n)] for i in range(n)]
    order = 0
    while True:
        power = _matpoly_mul(power, t, bound, weight)
        if not any(entry for row in power for entry in row):
            break
        order += 1
        if order > n:
            return (
                TruncSeries(alphabet, bound),
                FactorizationReport(False, "D(X*) N(X) failed to nilpotate within the rank"),
            )
        for grow, prow in zip(geom, power):
            for g, p in zip(grow, prow):
                for w, c in p.items():
                    _add_term(g, w, c)

    full = _matpoly_mul(geom, d_star, bound, weight)
    readout = _matpoly_readout(ints.nu, full, ints.eta)
    rebuilt = TruncSeries._of(alphabet, bound, {w: Fraction(c, ints.d ** (len(w) + 2)) for w, c in readout.items()})
    direct = r.eval_truncated(bound)
    ok = rebuilt == direct
    detail = f"nilpotency order {order} (rank {n})" if ok else "reconstruction differs"
    return rebuilt, FactorizationReport(ok, detail)


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
    if series.alphabet.is_x:
        wmax = 1
    else:
        wmax = max((series.alphabet.weight(w) for w in series._values if len(w) == 1), default=1)
        wmax = max(wmax, 1)
    if n < wmax:
        return SweedlerVerdict(False, None, "window too small for realization evidence")
    p = (n - wmax) // 2
    q = n - wmax - p
    cols = words_up_to_grading(series.alphabet, q)

    def hankel_row(u: Word) -> Vec:
        return exactlin.vector(series.coeff(u * v) for v in cols)

    space = RowSpace(len(cols))
    basis_words: list[Word] = []
    basis_rows = []
    for u in words_up_to_grading(series.alphabet, p):
        row = _int_row(hankel_row(u))
        if space.add(row[0]):
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

    solve_row = exactlin.coordinates(basis_rows, space.pivots)
    mu = {}
    for letter in series.alphabet.letters(max_weight=wmax):
        rows = []
        for u in basis_words:
            shifted = u * Word(series.alphabet, (letter,))
            sol = solve_row(_int_row(hankel_row(shifted)))
            if sol is None:
                return SweedlerVerdict(
                    False,
                    None,
                    f"no rank-{hankel_rank} realization within window {n}: "
                    "shifted rows leave the span",
                )
            rows.append(sol)
        mu[letter] = rows
    nu = solve_row(_int_row(hankel_row(series.alphabet.empty_word())))
    if nu is None:
        return SweedlerVerdict(False, None, "row of the empty word leaves the span")
    eta = [series.coeff(u) for u in basis_words]
    rep = LinRep(series.alphabet, nu, mu, eta, None if series.alphabet.is_x else wmax)

    for w in words_up_to_grading(series.alphabet, n):
        heavier = any(series.alphabet.letter_weight(a) > wmax for a in w.letters)
        value = ZERO if heavier else rep.coeff(w)
        if value != series.coeff(w):
            return SweedlerVerdict(
                False,
                None,
                f"no rank-{hankel_rank} realization reproduces the window "
                f"(first failure at {w})",
            )
    return SweedlerVerdict(
        True,
        hankel_rank,
        f"rational up to {n} with rank {hankel_rank}",
        delta_conc_decompose(rep),
    )
