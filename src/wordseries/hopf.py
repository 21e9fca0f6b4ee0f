"""Dual basis pairs on the word Hopf algebras and the diagonal factorization.

For the shuffle bialgebra the classical Lyndon-indexed pair {P_w} / {S_w} is
built by the bracketing / divided-power recursions; for the phi-shuffle
bialgebra the pair {Pi_w} / {Sigma_w} is that pair moved through the
conc-automorphism Phi sending each letter y_k to its primitive projection
pi1(y_k): Pi_w = Phi(P_w) runs P's bracket recursion from pi1 of each
letter, as Phi is a conc morphism for every gamma table (Hoffman, 2000),
and Sigma_w = (Phi^-1)^T S_w in closed form, contracting blocks of
consecutive letters of S_w with no linear solve.

The module also verifies the factorization of the diagonal series
sum_w w (x) w as the decreasing product of exponentials exp(S_l (x) P_l)
over Lyndon words l (and its Sigma/Pi variant), exactly, at a truncation,
without forming either word (x) word tensor: the dual-basis sum is the word
sum iff the Gram matrix of the pair is the identity, and the product is the
dual-basis sum when every element is the product of the elements of its
Lyndon factors, taken in the order of the exponentials.  Off the Lyndon
words the families are built that way too: S_w = S_u * S_v / k and
P_w = P_u P_v, with w = u v split before its last Lyndon power
(``DualBases._split``).  The M(X*) check of ``linrep`` forms the product
itself, with mu(P_l) on the right, through the same split of each word.
Each split reads the Lyndon cuts of the word that ``DualBases._cuts`` holds.

Inside, words are letter tuples and each basis element is an integer form,
(numerators, d) with d the least common denominator: ``DualBases`` fills
and caches the four families this way, the letter images pi1(y_k) come from
``ncpoly._pi1_images`` on integers, and ``duality_check`` (a Gram matrix per
grade) and the diagonal check read these forms grade by grade, for the
letter tuples of ``words._graded_letters``.  The public accessors ``p``,
``s``, ``pi`` and ``sigma`` wrap the cached forms as ``NCPoly``s without a
copy, since that is the form an ``NCPoly`` stores; the checks build no
``Word``, and a ``Fraction`` only for the pairing a failure reports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import NCPoly, PhiTable, _combination, _pi1_images, _product, _reduced, _shuffle_law
from .words import Alphabet, Word, _graded_letters, _lyndon_cuts

__all__ = ["DualBases", "FactorizationReport", "diagonal_factorization_check", "duality_check"]


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
        # the cuts and the integer forms below are memoized per instance, by letter tuple
        for name in ("_cuts", "_p", "_s", "_pi", "_sigma", "_letter_image", "_contract"):
            setattr(self, name, functools.cache(getattr(self, name)))

    # -- public accessors: the cached forms as polynomials ----------------------

    def p(self, w: Word) -> NCPoly:
        """Bracketing basis: P_x = x, P_l = [P_s, P_r], PBW products elsewhere."""
        return NCPoly._of(self.alphabet, *self._p(self._letters(w)))

    def s(self, w: Word) -> NCPoly:
        """Dual basis: S_l = x S_l' on Lyndon l = x l', divided shuffle powers
        over the Lyndon factorization elsewhere."""
        return NCPoly._of(self.alphabet, *self._s(self._letters(w)))

    def pi(self, w: Word) -> NCPoly:
        """Pi_w: image of P_w under the letter-wise pi1 automorphism."""
        self._require_phi()
        return NCPoly._of(self.alphabet, *self._pi(self._letters(w)))

    def sigma(self, w: Word) -> NCPoly:
        """Sigma_w = (Phi^-1)^T S_w, the graded dual of Pi, in closed form."""
        self._require_phi()
        return NCPoly._of(self.alphabet, *self._sigma(self._letters(w)))

    def _letters(self, w: Word) -> tuple:
        """The letters of ``w``, a word that must be over the bases' alphabet."""
        if w.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        return w.letters

    def _pairs(self) -> list[tuple]:
        """The dual pairs (name, left, right) on integer forms: S/P, then
        Sigma/Pi with a gamma table; the Lyndon exponential products read the last."""
        pairs = [("S/P", self._s, self._p)]
        return pairs if self.phi is None else pairs + [("Sigma/Pi", self._sigma, self._pi)]

    # -- the P / S pair, as integer forms (numerators, least denominator) ------

    def _cuts(self, w: tuple) -> list[int]:
        return _lyndon_cuts(self.alphabet.lex_key(w))

    def _split(self, w: tuple, decreasing: bool = True) -> tuple[tuple, tuple, int] | None:
        """None on the empty word and on a Lyndon word w, else w as (u, v, k):
        v = l^k is the last power of the Lyndon factorization of w in the
        order that a product of exponentials in decreasing (or increasing)
        Lyndon order takes it, u is the rest of w, and k = 1; when that power
        is all of w, v = l and u = l^(k-1).  Off the Lyndon words S_w is
        S_u * S_v / k and P_w is P_u P_v; the diagonal check asks the same of
        Sigma and Pi."""
        if not w:
            return None
        cuts = self._cuts(w)
        if decreasing:
            l, j = w[cuts[-2]:], len(cuts) - 2
            while j and w[cuts[j - 1]:cuts[j]] == l:
                j -= 1
        else:
            l, j = w[:cuts[1]], 1
            while j < len(cuts) - 1 and w[cuts[j]:cuts[j + 1]] == l:
                j += 1
        if j in (0, len(cuts) - 1):
            return (l * (len(cuts) - 2), l, len(cuts) - 1) if len(cuts) > 2 else None
        i = cuts[j]
        return (w[:i], w[i:], 1) if decreasing else (w[i:], w[:i], 1)

    def _bracketed(self, w: tuple, own, letter) -> tuple[dict, int]:
        """The bracket recursion of P through ``own``, the family's cached
        method: ``letter(a)`` on a letter a, [own(s), own(r)] on a Lyndon
        word with standard factorization s r, and own(u) own(v) on w = u v
        split before its last Lyndon power (``_split``)."""
        if len(w) < 2:
            return letter(w[0]) if w else ({(): 1}, 1)
        split = self._split(w)
        if split is None:  # Lyndon: the right factor is the last Lyndon factor of w[1:]
            i = 1 + self._cuts(w[1:])[-2]
            (ps, ds), (pr, dr) = own(w[:i]), own(w[i:])
            return _reduced(_product(pr, {t: -c for t, c in ps.items()}, out=_product(ps, pr)), ds * dr)
        (pu, du), (pv, dv) = own(split[0]), own(split[1])
        return _reduced(_product(pu, pv), du * dv)

    def _p(self, w: tuple) -> tuple[dict, int]:
        return self._bracketed(w, self._p, lambda a: ({(a,): 1}, 1))

    def _s(self, w: tuple) -> tuple[dict, int]:
        if len(w) < 2:
            return {w: 1}, 1
        split = self._split(w)
        if split is None:
            tail, den = self._s(w[1:])
            return {w[:1] + t: c for t, c in tail.items()}, den
        u, v, k = split
        (a, da), (b, db) = self._s(u), self._s(v)
        return _reduced(_product(a, b, self._shuffle), da * db * k)

    # -- the Pi / Sigma pair ---------------------------------------------------

    def _require_phi(self) -> None:
        """The check of the public ``pi`` and ``sigma``; the fills below them
        run only with a gamma table (``_pairs`` reaches them only then)."""
        if self.phi is None:
            raise ValueError("Pi/Sigma need a y alphabet with a gamma table")

    def _letter_image(self, letter) -> tuple[dict, int]:
        """pi1(y_k)."""
        return _reduced(*self._pi1_image((letter,)))

    def _pi(self, w: tuple) -> tuple[dict, int]:
        """Phi(P_w), by P's recursion from the letter images pi1(a)."""
        return self._bracketed(w, self._pi, self._letter_image)

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
        terms, den = self._s(w)
        return _combination(((c, *self._contract(v)) for v, c in terms.items()), den)


def duality_check(alphabet: Alphabet, phi: PhiTable | None = None, bound: int = 4) -> tuple[int, list[tuple]]:
    """<L_u, R_v> = [u = v] for each dual pair L/R of ``DualBases`` on the
    words of grade <= bound: the number of words and, pair by pair up to
    the first that fails, (name, None) or (name, what failed)."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    bases = DualBases(alphabet, phi)
    grades = _graded_letters(alphabet, bound)
    verdicts = []
    for name, left, right in bases._pairs():
        forms = [[(u, *left(u), *right(u)) for u in grade] for grade in grades]
        verdicts.append((name, _duality_failure(alphabet, name.split("/"), forms)))
        if verdicts[-1][1]:
            break
    return sum(map(len, grades)), verdicts


def _duality_failure(alphabet: Alphabet, families: list[str], grades: list[list[tuple]]) -> str | None:
    """The first failure over ``grades``, the forms (u, L_u, d_L, R_u, d_R)
    of each grading's words: an element with a word not of its grade, else
    a pairing off [u = v] in a grade's Gram matrix, filled and read one row
    at a time from an index of the right elements' words."""
    for n, same in enumerate(grades):
        words = {u for u, *_ in same}
        for u, a, _, b, _ in same:
            for family, terms in zip(families, (a, b)):
                if not terms.keys() <= words:
                    return f"{family}({alphabet.name(u)}) is not homogeneous of grade {n}"
    for same in grades:
        holders: dict = {}  # word -> (column, numerator) of each right element holding it
        for j, (_, _, _, b, _) in enumerate(same):
            for w, c in b.items():
                holders.setdefault(w, []).append((j, c))
        for i, (u, a, da, _, _) in enumerate(same):
            row = [0] * len(same)
            for w, c in a.items():
                for j, x in holders.get(w, ()):
                    row[j] += c * x
            for j, ((v, _, _, _, db), got) in enumerate(zip(same, row)):
                if got != (da * db if i == j else 0):
                    return f"at <{alphabet.name(u)}, {alphabet.name(v)}> = {Fraction(got, da * db)}"
    return None


# -- diagonal series factorization -------------------------------------------


@dataclass
class FactorizationReport:
    """The verdict of a factorization check; ``detail`` says what failed."""

    equal: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equal


def diagonal_factorization_check(
    alphabet: Alphabet,
    phi: PhiTable | None = None,
    bound: int = 4,
    *,
    decreasing: bool = True,
) -> FactorizationReport:
    """Check at the truncation ``bound`` that the diagonal series
    sum_w w (x) w is the dual-basis sum sum_w L_w (x) R_w and the product of
    exp(L_l (x) R_l) over the Lyndon words l in decreasing order, for the
    last pair L/R of ``DualBases`` and its shuffle, without forming either.

    * Within a grade, with L and R the square coefficient matrices, the
      dual-basis sum is the word sum iff L^T R = I, that is iff R L^T = I:
      the Gram condition <L_u, R_v> = [u = v], read after its homogeneity
      test as ``duality_check`` reads it.
    * The product is sum_w L'_w (x) R'_w over the words w = l1^k1 ... lr^kr,
      with L'_w the shuffle product of the powers L_li^ki / ki! and R'_w the
      concatenation of the powers R_li^ki, each power formed as
      ((1 L) L) ... and the running product times each power in turn, in
      the order of the exponentials.  With w = u v split before its last
      power in that order (``DualBases._split``; k = 1 unless that power is
      all of w), L'_w = L'_u * L'_v / k and R'_w = R'_u R'_v.  Words are read in grade order and the first failure
      ends the check, so asking L_w = L_u * L_v / k and R_w = R_u R_v of
      every word that is not Lyndon asks L' = L and R' = R, by induction
      and with no associativity assumed; then the product is the dual-basis
      sum.  Conversely, given the Gram condition, the product is the word
      sum iff L'^T R' = I, which pins L' = L when R' = R, as it is for
      these bases in decreasing order (concatenation is associative and
      Pi = Phi(P)).

    ``decreasing=False`` takes the factors in increasing order, the negative
    control, which is expected to fail.  A failure's detail names the first
    Gram entry or inhomogeneous element, else the first word whose element
    is not the product of its Lyndon factors.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    bases = DualBases(alphabet, phi)
    name, left_of, right_of = bases._pairs()[-1]
    families = name.split("/")
    grades = [[(u, *left_of(u), *right_of(u)) for u in grade] for grade in _graded_letters(alphabet, bound)]
    failure = _duality_failure(alphabet, families, grades)
    if failure:
        return FactorizationReport(False, f"{name} duality {failure}")
    shuffle = _shuffle_law(alphabet, phi)
    for w, a, da, b, db in itertools.chain.from_iterable(grades):
        split = bases._split(w, decreasing)
        if split is None:
            continue  # a Lyndon word is its own product
        u, v, k = split
        (lu, du), (lv, dv), (ru, eu), (rv, ev) = left_of(u), left_of(v), right_of(u), right_of(v)
        products = (_reduced(_product(lu, lv, shuffle), du * dv * k), _reduced(_product(ru, rv), eu * ev))
        for family, got, form in zip(families, products, ((a, da), (b, db))):
            if got != form:  # both in lowest terms
                return FactorizationReport(False, f"{family}({alphabet.name(w)}) is not the product of its Lyndon factors")
    return FactorizationReport(True)
