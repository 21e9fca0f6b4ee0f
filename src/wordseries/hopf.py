"""Dual basis pairs on the word Hopf algebras and the diagonal factorization.

For the shuffle bialgebra the classical Lyndon-indexed pair {P_w} / {S_w} is
built by the bracketing / divided-power recursions; for the phi-shuffle
bialgebra the pair {Pi_w} / {Sigma_w} is that pair moved through the
conc-automorphism Phi sending each letter y_k to its primitive projection
pi1(y_k): Pi_w = Phi(P_w), and Sigma_w = (Phi^-1)^T S_w in closed form,
contracting blocks of consecutive letters of S_w with no linear solve.

The module also verifies the factorization of the diagonal series
sum_w w (x) w as the decreasing product of exponentials exp(S_l (x) P_l)
over Lyndon words l (and its Sigma/Pi variant), exactly, at a truncation.
One routine, ``_lyndon_exp_product``, forms that product for this check
and, with mu(P_l) on the right, for the M(X*) check of ``linrep``.  It
holds each factor as integer numerators over one denominator, truncates
the left grading only (every term of exp(S_l (x) P_l) has equal left and
right grading), and is given the right-hand algebra by the product of its
basis keys: words under concatenation here, matrix units in ``linrep``.

Inside, words are letter tuples and each basis element is an integer form,
(numerators, d) with d the least common denominator: ``DualBases`` fills
and caches the four families this way, the letter images pi1(y_k) come from
``ncpoly._pi1_images`` on integers, and ``duality_check`` (a Gram matrix per
grade) and the diagonal check read these forms with tuple words.  The
public accessors ``p``, ``s``, ``pi`` and ``sigma`` wrap the cached forms
as ``NCPoly``s without a copy, since that is the form an ``NCPoly`` stores;
``Word``s and ``Fraction``s are built only for the words a failed check
reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import (
    NCPoly,
    PhiTable,
    _add_term,
    _combination,
    _pi1_images,
    _product,
    _reduced,
    _shuffle_law,
    _words,
)
from .words import Alphabet, Word, _lyndon_cuts, _standard_cut, lyndon_words, words_up_to_grading

__all__ = ["DualBases", "DiagonalReport", "diagonal_factorization_check", "duality_check"]


class DualBases:
    """Memoized access to P_w, S_w and (on y alphabets) Pi_w, Sigma_w.

    The caches are keyed by letter tuples and hold integer forms; one
    instance is pinned to one alphabet and one gamma table.  Fills are
    idempotent, so concurrent readers at worst repeat a computation.
    """

    def __init__(self, alphabet: Alphabet, phi: PhiTable | None = None):
        if phi is not None and not alphabet.is_y:
            raise ValueError("a gamma table only makes sense on a y alphabet")
        self.alphabet = alphabet
        self.phi = phi
        self._shuffle = _shuffle_law(alphabet)
        # pi1 of single words; one evaluator, so all letters share its caches
        self._pi1_image = _pi1_images(alphabet, phi) if phi is not None else None
        # the integer forms below are memoized per instance, by letter tuple
        for name in ("_p", "_s", "_pi", "_sigma", "_letter_image", "_phi_word", "_contract"):
            setattr(self, name, functools.cache(getattr(self, name)))

    # -- public accessors: the cached forms as polynomials ----------------------

    def p(self, w: Word) -> NCPoly:
        """Bracketing basis: P_x = x, P_l = [P_s, P_r], PBW products elsewhere."""
        return NCPoly._of(self.alphabet, *self._p(w.letters))

    def s(self, w: Word) -> NCPoly:
        """Dual basis: S_l = x S_l' on Lyndon l = x l', divided shuffle powers
        over the Lyndon factorization elsewhere."""
        return NCPoly._of(self.alphabet, *self._s(w.letters))

    def pi(self, w: Word) -> NCPoly:
        """Pi_w: image of P_w under the letter-wise pi1 automorphism."""
        return NCPoly._of(self.alphabet, *self._pi(w.letters))

    def sigma(self, w: Word) -> NCPoly:
        """Sigma_w = (Phi^-1)^T S_w, the graded dual of Pi, in closed form."""
        return NCPoly._of(self.alphabet, *self._sigma(w.letters))

    def _pairs(self) -> list[tuple]:
        """The dual pairs (name, left, right) on integer forms: S/P, then
        Sigma/Pi with a gamma table; the Lyndon exponential products read the last."""
        pairs = [("S/P", self._s, self._p)]
        return pairs if self.phi is None else pairs + [("Sigma/Pi", self._sigma, self._pi)]

    # -- the P / S pair, as integer forms (numerators, least denominator) ------

    def _factors(self, w: tuple) -> list[tuple]:
        """The Lyndon factorization of the word w."""
        cuts = _lyndon_cuts(self.alphabet.lex_key(w))
        return [w[i:j] for i, j in zip(cuts, cuts[1:])]

    def _p(self, w: tuple) -> tuple[dict, int]:
        factors = self._factors(w)
        if len(w) < 2:
            return {w: 1}, 1
        if len(factors) == 1:
            i = _standard_cut(self.alphabet.lex_key(w))
            (ps, _), (pr, _) = self._p(w[:i]), self._p(w[i:])
            return _product(pr, {t: -c for t, c in ps.items()}, out=_product(ps, pr)), 1
        out = {(): 1}
        for f in factors:
            out = _product(out, self._p(f)[0])
        return out, 1

    def _s(self, w: tuple) -> tuple[dict, int]:
        factors = self._factors(w)
        if len(w) < 2:
            return {w: 1}, 1
        if len(factors) == 1:
            tail, den = self._s(w[1:])
            return {w[:1] + t: c for t, c in tail.items()}, den
        out, den = {(): 1}, 1
        for l, group in itertools.groupby(factors):
            s, d = self._s(l)
            mult = len(list(group))
            power = {(): 1}
            for _ in range(mult):
                power = _product(power, s, self._shuffle)
            out = _product(out, power, self._shuffle)
            den *= d**mult * math.factorial(mult)
        return _reduced(out, den)

    # -- the Pi / Sigma pair ---------------------------------------------------

    def _require_phi(self) -> None:
        if self.phi is None:
            raise ValueError("Pi/Sigma need a y alphabet with a gamma table")

    def _letter_image(self, letter) -> tuple[dict, int]:
        """pi1(y_k)."""
        self._require_phi()
        return _reduced(*self._pi1_image((letter,)))

    def _phi_word(self, w: tuple) -> tuple[dict, int]:
        """Phi(w) = pi1(a_1) ... pi1(a_n), built on the image of its prefix."""
        if not w:
            return {(): 1}, 1
        (head, d), (last, e) = self._phi_word(w[:-1]), self._letter_image(w[-1])
        return _product(head, last), d * e

    def _phi(self, terms: dict) -> tuple[dict, int]:
        """Phi of a polynomial given by its letter-tuple terms."""
        return _combination((c, *self._phi_word(t)) for t, c in terms.items())

    def _pi(self, w: tuple) -> tuple[dict, int]:
        self._require_phi()
        return self._phi(self._p(w)[0])

    def _merged(self, block: tuple):
        """l(b): the letter of the summed weight and color (mod m) of block b."""
        m = self.alphabet.color_order or 1
        return (self.alphabet.weight(block), sum(c for _, c in block) % m)

    def _contract(self, u: tuple) -> tuple[dict, int]:
        """(Phi^-1)^T u: the sum over factorizations u = b_1 ... b_r into
        nonempty blocks of f(b_1) ... f(b_r) l(b_1) ... l(b_r).

        f(b) = <b, Phi^-1(l(b))> is the coefficient of l(b) in the
        contraction of b: 1 on a letter, and on a longer block the value that
        makes <(Phi^-1)^T b, pi1(l(b))> = <b, l(b)> vanish, that is minus the
        pairing of pi1(l(b)) with the factorizations into two or more blocks.
        """
        if len(u) < 2:
            return {u: 1}, 1
        parts = []
        for i in range(1, len(u)):  # first block u[:i], the rest contracted
            head = self._merged(u[:i])
            f, fd = self._contract(u[:i])
            if (head,) in f:
                rest, d = self._contract(u[i:])
                parts.append((f[(head,)], {(head,) + t: c for t, c in rest.items()}, fd * d))
        out, den = _combination(parts)
        whole = self._merged(u)
        target, tden = self._letter_image(whole)
        value = sum(c * target.get(v, 0) for v, c in out.items())
        out = {v: c * tden for v, c in out.items()}
        if value:
            out[(whole,)] = -value
        return _reduced(out, den * tden)

    def _sigma(self, w: tuple) -> tuple[dict, int]:
        self._require_phi()
        terms, den = self._s(w)
        return _combination(((c, *self._contract(v)) for v, c in terms.items()), den)


def duality_check(alphabet: Alphabet, phi: PhiTable | None = None, bound: int = 4) -> tuple[int, list[tuple]]:
    """<L_u, R_v> = [u = v] for each dual pair L/R of ``DualBases`` on the
    words of grade <= bound: the number of words and, pair by pair up to
    the first that fails, (name, None) or (name, what failed)."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    bases = DualBases(alphabet, phi)
    words = words_up_to_grading(alphabet, bound)
    verdicts = []
    for name, left, right in bases._pairs():
        forms = [(u, *left(u.letters), *right(u.letters)) for u in words]
        verdicts.append((name, _duality_failure(name.split("/"), forms)))
        if verdicts[-1][1]:
            break
    return len(words), verdicts


def _duality_failure(families: list[str], forms: list[tuple]) -> str | None:
    """The first failure over ``forms``, (u, L_u, d_L, R_u, d_R) in grade order:
    an element not homogeneous of its word's grade, else a pairing off [u = v]
    in a grade's Gram matrix, filled word by word and read row by row."""
    grading = {u.letters: u.grading for u, *_ in forms}  # None past the bound
    for u, a, _, b, _ in forms:
        for family, terms in zip(families, (a, b)):
            if set(map(grading.get, terms)) - {u.grading}:
                return f"{family}({u}) is not homogeneous of grade {u.grading}"
    for _, same in itertools.groupby(forms, key=lambda form: form[0].grading):
        same = list(same)
        holders: dict = {}  # word -> (row, numerator) of each left element holding it
        for i, (_, a, _, _, _) in enumerate(same):
            for w, c in a.items():
                holders.setdefault(w, []).append((i, c))
        gram = [[0] * len(same) for _ in same]
        for j, (_, _, _, b, _) in enumerate(same):
            for w, c in b.items():
                for i, x in holders.get(w, ()):
                    gram[i][j] += x * c
        for i, ((u, _, da, _, _), row) in enumerate(zip(same, gram)):
            for j, ((v, _, _, _, db), got) in enumerate(zip(same, row)):
                if got != (da * db if i == j else 0):
                    return f"at <{u}, {v}> = {Fraction(got, da * db)}"
    return None


# -- diagonal series factorization -------------------------------------------


@dataclass
class DiagonalReport:
    equal: bool
    first_difference: tuple[Word, Word, Fraction, Fraction, str] | None = None

    def __bool__(self) -> bool:
        return self.equal


def _lyndon_exp_product(bases: DualBases, factors: list[Word], bound: int,
                        right_of, right_law, one: dict) -> tuple[dict, int]:
    """exp(S_l (x) R_l) multiplied in the order of ``factors`` in
    (words, law) (x) R, truncated at left grading ``bound``: S_l and the law
    are the left family of ``bases`` and its shuffle, R_l = right_of(l) is
    an integer form (key -> numerator, d_R), and R multiplies its basis keys
    by ``right_law`` (a ``word_mul`` of ``_product``; None is concatenation
    of letter tuples), with unit ``one``.  Returns integer coefficients
    keyed by (letter tuple, right key) and their one denominator, the
    product over the factors of K! (d_S d_R)^K, with K = bound // |l| and
    d_S the common denominator of S_l.
    """
    left_of = bases._pairs()[-1][1]
    word_mul = _shuffle_law(bases.alphabet, bases.phi)
    weight = bases.alphabet.weight
    product = {(): one}  # left word -> its right element
    den = 1
    for l in factors:
        s, ds = left_of(l.letters)
        r, dr = right_of(l)
        top = bound // l.grading
        scale = math.factorial(top) * (ds * dr) ** top
        powers = [({(): 1}, one, scale)]  # S^k, R^k and scale / (k! (ds dr)^k)
        for k in range(1, top + 1):
            spow, rpow, unit = powers[-1]
            powers.append((_product(spow, s, word_mul), _product(rpow, r, right_law), unit // (k * ds * dr)))
        out: dict = {}
        for a, e in product.items():
            acc = out.setdefault(a, {})
            for b, c in e.items():
                _add_term(acc, b, scale * c)
            # only the powers that keep the left grading within the bound
            for spow, rpow, unit in powers[1: 1 + (bound - weight(a)) // l.grading]:
                m = _product(e, rpow, right_law)
                for w, x in _product({a: unit}, spow, word_mul).items():
                    acc = out.setdefault(w, {})
                    for b, y in m.items():
                        _add_term(acc, b, x * y)
        product = out
        den *= scale
    return {(w, b): c for w, e in product.items() for b, c in e.items()}, den


def _pair_law(u: tuple, v: tuple):
    """``word_mul`` sending (u, v) to the tensor u (x) v."""
    return (((u, v), 1),)


def diagonal_factorization_check(
    alphabet: Alphabet,
    phi: PhiTable | None = None,
    bound: int = 4,
    *,
    decreasing: bool = True,
) -> DiagonalReport:
    """Compare, at the given truncation, the three forms of the diagonal series:
    word sum, dual-basis sum, and the ordered Lyndon product of exponentials.

    ``decreasing=False`` multiplies the exponentials in increasing Lyndon
    order instead; that is expected to break equality (negative control).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    bases = DualBases(alphabet, phi)
    _, left_of, right_of = bases._pairs()[-1]

    words = [w.letters for w in words_up_to_grading(alphabet, bound)]
    side_words = {(w, w): 1 for w in words}

    # sum_w L_w (x) R_w, over the least common denominator of its terms
    pairs = [(left_of(w), right_of(w)) for w in words]
    side_den = math.lcm(*(da * db for (_, da), (_, db) in pairs))
    side_bases: dict = {}
    for (a, da), (b, db) in pairs:
        k = side_den // (da * db)
        _product({u: k * c for u, c in a.items()}, b, _pair_law, out=side_bases)

    factors = lyndon_words(alphabet, bound)
    factors.sort(key=Word.lex_key, reverse=decreasing)
    one = {(): 1}
    product, den = _lyndon_exp_product(bases, factors, bound, lambda l: right_of(l.letters), None, one)

    for name, other, scale in (("dual-basis sum", side_bases, side_den), ("Lyndon product", product, den)):
        differ = [k for k in side_words.keys() | other.keys() if side_words.get(k, 0) * scale != other.get(k, 0)]
        if differ:
            key = min(differ, key=lambda k: (alphabet.sort_key(k[0]), alphabet.sort_key(k[1])))
            a, b = Fraction(side_words.get(key, 0)), Fraction(other.get(key, 0), scale)
            return DiagonalReport(False, (*_words(alphabet, key), a, b, name))
    return DiagonalReport(True)
