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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import (
    NCPoly,
    PhiTable,
    _add_term,
    _integer_terms,
    _pi1_images,
    _product,
    _shuffle_law,
    conc,
    shuffle,
)
from .words import (
    Alphabet,
    Word,
    lyndon_factorization,
    lyndon_words,
    standard_factorization,
    words_up_to_grading,
)

ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = ["DualBases", "DiagonalReport", "diagonal_factorization_check"]


class DualBases:
    """Memoized access to P_w, S_w and (on y alphabets) Pi_w, Sigma_w.

    The cache key is the word; one instance is pinned to one alphabet and one
    gamma table.  Fills are idempotent, so concurrent readers at worst repeat
    a computation.
    """

    def __init__(self, alphabet: Alphabet, phi: PhiTable | None = None):
        if phi is not None and not alphabet.is_y:
            raise ValueError("a gamma table only makes sense on a y alphabet")
        self.alphabet = alphabet
        self.phi = phi
        self._p: dict[Word, NCPoly] = {}
        self._s: dict[Word, NCPoly] = {}
        self._pi: dict[Word, NCPoly] = {}
        self._sigma: dict[Word, NCPoly] = {}
        self._contracted: dict[Word, dict[Word, Fraction]] = {}
        self._pi1_letter: dict = {}
        # pi1 of single words; one evaluator, so all letters share its caches
        self._pi1_image = _pi1_images(alphabet, phi) if phi is not None else None

    # -- the P / S pair ------------------------------------------------------

    def p(self, w: Word) -> NCPoly:
        """Bracketing basis: P_x = x, P_l = [P_s, P_r], PBW products elsewhere."""
        hit = self._p.get(w)
        if hit is not None:
            return hit
        if not w:
            out = NCPoly.one(self.alphabet)
        elif len(w) == 1:
            out = NCPoly.from_word(w)
        else:
            factors = lyndon_factorization(w)
            if len(factors) == 1:
                s, r = standard_factorization(w)
                ps, pr = self.p(s), self.p(r)
                out = conc(ps, pr) - conc(pr, ps)
            else:
                out = self.p(factors[0])
                for f in factors[1:]:
                    out = conc(out, self.p(f))
        self._p[w] = out
        return out

    def s(self, w: Word) -> NCPoly:
        """Dual basis: S_l = x S_l' on Lyndon l = x l', divided shuffle powers
        over the Lyndon factorization elsewhere."""
        hit = self._s.get(w)
        if hit is not None:
            return hit
        if not w:
            out = NCPoly.one(self.alphabet)
        elif len(w) == 1:
            out = NCPoly.from_word(w)
        else:
            factors = lyndon_factorization(w)
            if len(factors) == 1:
                head = NCPoly.from_word(w[:1])
                out = conc(head, self.s(w[1:]))
            else:
                out = NCPoly.one(self.alphabet)
                for l, mult in _group_equal(factors):
                    power = NCPoly.one(self.alphabet)
                    for _ in range(mult):
                        power = shuffle(power, self.s(l))
                    out = shuffle(out, power * Fraction(1, math.factorial(mult)))
        self._s[w] = out
        return out

    def _pair(self):
        """The left and right families: (S, P), or (Sigma, Pi) with a gamma table."""
        return (self.s, self.p) if self.phi is None else (self.sigma, self.pi)

    # -- the Pi / Sigma pair ---------------------------------------------------

    def _require_phi(self) -> PhiTable:
        if self.phi is None:
            raise ValueError("Pi/Sigma need a y alphabet with a gamma table")
        return self.phi

    def _pi1_of(self, letter) -> NCPoly:
        """pi1(y_k): the image of the letter y_k under Phi."""
        img = self._pi1_letter.get(letter)
        if img is None:
            self._require_phi()
            img = NCPoly(self.alphabet, self._pi1_image(Word(self.alphabet, (letter,))))
            self._pi1_letter[letter] = img
        return img

    def _phi_pi1(self, p: NCPoly) -> NCPoly:
        """The conc-automorphism Phi sending each letter y_k to pi1(y_k)."""
        self._require_phi()
        out = NCPoly.zero(self.alphabet)
        for w, c in p.terms.items():
            acc = NCPoly.one(self.alphabet) * c
            for letter in w.letters:
                acc = conc(acc, self._pi1_of(letter))
            out = out + acc
        return out

    def pi(self, w: Word) -> NCPoly:
        """Pi_w: image of P_w under the letter-wise pi1 automorphism."""
        hit = self._pi.get(w)
        if hit is None:
            hit = self._phi_pi1(self.p(w))
            self._pi[w] = hit
        return hit

    def _merged(self, block: Word) -> Word:
        """l(b): the one-letter word of the summed weight and color (mod m) of b."""
        m = self.alphabet.color_order or 1
        return Word(self.alphabet, ((block.grading, sum(c for _, c in block.letters) % m),))

    def _contract(self, u: Word) -> dict[Word, Fraction]:
        """(Phi^-1)^T u: the sum over factorizations u = b_1 ... b_r into
        nonempty blocks of f(b_1) ... f(b_r) l(b_1) ... l(b_r).

        f(b) = <b, Phi^-1(l(b))> is the coefficient of l(b) in the
        contraction of b: 1 on a letter, and on a longer block the value that
        makes <(Phi^-1)^T b, pi1(l(b))> = <b, l(b)> vanish, that is minus the
        pairing of pi1(l(b)) with the factorizations into two or more blocks.
        """
        if len(u) < 2:
            return {u: ONE}
        hit = self._contracted.get(u)
        if hit is None:
            hit = {}
            for i in range(1, len(u)):  # first block u[:i], the rest contracted
                head = self._merged(u[:i])
                _product({head: self._contract(u[:i]).get(head, ZERO)}, self._contract(u[i:]), out=hit)
            whole = self._merged(u)
            target = self._pi1_of(whole.letters[0]).terms
            _add_term(hit, whole, -sum((c * target.get(v, ZERO) for v, c in hit.items()), ZERO))
            self._contracted[u] = hit
        return hit

    def sigma(self, w: Word) -> NCPoly:
        """Sigma_w = (Phi^-1)^T S_w, the graded dual of Pi, in closed form."""
        self._require_phi()
        hit = self._sigma.get(w)
        if hit is None:
            out: dict[Word, Fraction] = {}
            for v, c in self.s(w).terms.items():
                for u, d in self._contract(v).items():
                    _add_term(out, u, c * d)
            hit = NCPoly(self.alphabet, out)
            self._sigma[w] = hit
        return hit


def _group_equal(factors: list[Word]) -> list[tuple[Word, int]]:
    out: list[tuple[Word, int]] = []
    for f in factors:
        if out and out[-1][0] == f:
            out[-1] = (f, out[-1][1] + 1)
        else:
            out.append((f, 1))
    return out


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
    are the left family of ``bases`` and its shuffle, R_l = right_of(l) is a
    key -> Fraction map, and R multiplies its basis keys by ``right_law`` (a
    ``word_mul`` of ``_product``; None is concatenation), with unit ``one``.
    Returns integer coefficients keyed by (word, right key) and their one
    denominator, the product over the factors of K! (d_S d_R)^K, with
    K = bound // |l| and d_S, d_R the common denominators of S_l and R_l.
    """
    left_of = bases._pair()[0]
    word_mul = _shuffle_law(bases.phi)
    empty = bases.alphabet.empty_word()
    product = {empty: one}  # left word -> its right element
    den = 1
    for l in factors:
        s, ds = _integer_terms(left_of(l).terms)
        r, dr = _integer_terms(right_of(l))
        top = bound // l.grading
        scale = math.factorial(top) * (ds * dr) ** top
        powers = [({empty: 1}, one, scale)]  # S^k, R^k and scale / (k! (ds dr)^k)
        for k in range(1, top + 1):
            spow, rpow, unit = powers[-1]
            powers.append((_product(spow, s, word_mul), _product(rpow, r, right_law), unit // (k * ds * dr)))
        out: dict = {}
        for a, e in product.items():
            acc = out.setdefault(a, {})
            for b, c in e.items():
                _add_term(acc, b, scale * c)
            # only the powers that keep the left grading within the bound
            for spow, rpow, unit in powers[1: 1 + (bound - a.grading) // l.grading]:
                m = _product(e, rpow, right_law)
                for w, x in _product({a: unit}, spow, word_mul).items():
                    acc = out.setdefault(w, {})
                    for b, y in m.items():
                        _add_term(acc, b, x * y)
        product = out
        den *= scale
    return {(w, b): c for w, e in product.items() for b, c in e.items()}, den


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
    left_of, right_of = bases._pair()

    words = words_up_to_grading(alphabet, bound)
    side_words = {(w, w): ONE for w in words}

    side_bases: dict[tuple[Word, Word], Fraction] = {}
    for w in words:
        _product(left_of(w).terms, right_of(w).terms, lambda u, v: (((u, v), 1),), out=side_bases)

    factors = lyndon_words(alphabet, bound)
    factors.sort(key=Word.lex_key, reverse=decreasing)
    one = {alphabet.empty_word(): 1}
    product, den = _lyndon_exp_product(bases, factors, bound, lambda l: right_of(l).terms, None, one)

    for name, other, scale in (("dual-basis sum", side_bases, 1), ("Lyndon product", product, den)):
        for key in sorted(set(side_words) | set(other), key=lambda k: (k[0].sort_key(), k[1].sort_key())):
            a = side_words.get(key, ZERO)
            b = other.get(key, 0)
            if a * scale != b:
                return DiagonalReport(False, (key[0], key[1], a, Fraction(b, scale), name))
    return DiagonalReport(True)
