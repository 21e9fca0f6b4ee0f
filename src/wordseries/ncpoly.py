"""Noncommutative polynomials over the rationals and their three products.

A polynomial is a finitely supported map ``Word -> Fraction``.  The module
provides the concatenation product, the shuffle product, its ``phi``
deformation on weighted alphabets (quasi-shuffle for the constant table 1),
the dual coproducts, the eulerian idempotent projecting onto primitives, and
the character / infinitesimal-character tests on truncated series.  Each
product is dual to its coproduct, <Delta S, u (x) v> = <S, u*v>, so the
character tests are also the grouplike / primitive tests: one pair loop
serves both.

The shuffle is the phi-shuffle with gamma = 0: one word recursion
(``_phi_shuffle_words``) and one letter-split rule (``_letter_rule``, which
also builds the closures of ``linrep``) serve both, on x and y alphabets.
Every bilinear product of the package, here and in ``hopf``, ``linrep`` and
``hyperlog``, goes through the one kernel ``_product``.

All identities here are exact; nothing in this module touches floating point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .words import Alphabet, Word, words_up_to_grading

ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = [
    "NCPoly",
    "TensorPoly",
    "PhiTable",
    "conc",
    "shuffle",
    "phi_shuffle",
    "delta_conc",
    "delta_shuffle",
    "delta_phi",
    "pi1",
    "TruncSeries",
    "is_character",
    "is_infinitesimal_character",
    "format_fraction",
    "parse_fraction",
]


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


# -- reading JSON input: each error names the field it rejects ---------------


def _json_checked(value, kind: type, field: str):
    """``value`` if it is of the JSON kind ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        name = {dict: "object", list: "list", str: "string"}[kind]
        raise ValueError(f"{field} must be a JSON {name}, not {type(value).__name__}")
    return value


def _json_fields(data, kinds: dict, what: str) -> list:
    """The values of the JSON object ``data`` at the keys of ``kinds``, each
    checked to be of its kind (``object``: any value)."""
    for key in kinds:
        if key not in _json_checked(data, dict, what):
            raise ValueError(f"{what} has no {key!r} field")
    return [_json_checked(data[key], kind, f"{what} {key!r}") for key, kind in kinds.items()]


def _json_fraction(value, field: str) -> Fraction:
    try:
        return parse_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{field} is not a rational number: {value!r}") from None


def _add_term(d: dict, key, coeff) -> None:
    c = d.get(key, 0) + coeff  # integer terms stay integers
    if c:
        d[key] = c
    else:
        d.pop(key, None)


def _scaled(values: Iterable[Fraction], d: int) -> tuple[int, ...]:
    """The values times d, a multiple of their denominators, as integers."""
    return tuple(q.numerator * (d // q.denominator) for q in values)


def _integer_terms(terms: Mapping) -> tuple[dict, int]:
    """A key -> Fraction map as integer coefficients over one common
    denominator d: (d·terms, d)."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return dict(zip(terms, _scaled(terms.values(), d))), d


class NCPoly:
    """Finitely supported ``Word -> Fraction`` map over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        for w, c in (terms or {}).items():
            if w.alphabet is not alphabet and w.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[w] = c
        self.alphabet = alphabet
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet, {alphabet.empty_word(): ONE})

    @classmethod
    def from_word(cls, w: Word, coeff=ONE) -> "NCPoly":
        return cls(w.alphabet, {w: Fraction(coeff)})

    # -- linear structure ------------------------------------------------

    def coeff(self, w: Word) -> Fraction:
        return self.terms.get(w, ZERO)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._same_alphabet(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return NCPoly(self.alphabet, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar) -> "NCPoly":
        if isinstance(scalar, NCPoly):
            raise TypeError("use conc/shuffle/phi_shuffle for polynomial products")
        return NCPoly(self.alphabet, {w: c * Fraction(scalar) for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def pairing(self, other: "NCPoly") -> Fraction:
        """Word-basis scalar product <self, other>."""
        self._same_alphabet(other)
        small, big = sorted((self.terms, other.terms), key=len)
        return sum((c * big.get(w, ZERO) for w, c in small.items()), ZERO)

    def max_grade(self) -> int:
        return max((w.grading for w in self.terms), default=0)

    def truncate(self, max_grade: int) -> "NCPoly":
        return NCPoly(
            self.alphabet, {w: c for w, c in self.terms.items() if w.grading <= max_grade}
        )

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def _same_alphabet(self, other: "NCPoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("polynomials over different alphabets")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda t: t[0].display_key()):
            word = str(w)
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-({word})" if parts else f"-{word}")
            else:
                parts.append(f"{c} {word}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    # -- JSON form ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"word": str(w), "coeff": format_fraction(c)} for w, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: list) -> "NCPoly":
        terms: dict[Word, Fraction] = {}
        for n, item in enumerate(_json_checked(data, list, "polynomial")):
            what = f"polynomial term {n}"
            word, coeff = _json_fields(item, {"word": str, "coeff": object}, what)
            _add_term(terms, alphabet.parse_word(word), _json_fraction(coeff, f"{what} 'coeff'"))
        return cls(alphabet, terms)


class TensorPoly:
    """Finitely supported ``(Word, Word) -> Fraction`` map (coproduct output)."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple[Word, Word], Fraction] | None = None):
        clean: dict[tuple[Word, Word], Fraction] = {}
        for (u, v), c in (terms or {}).items():
            for w in (u, v):
                if w.alphabet is not alphabet and w.alphabet != alphabet:
                    raise ValueError("term word over a different alphabet")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[(u, v)] = c
        self.alphabet = alphabet
        self.terms = clean

    def coeff(self, u: Word, v: Word) -> Fraction:
        return self.terms.get((u, v), ZERO)

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_term(out, k, c)
        return TensorPoly(self.alphabet, out)

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "TensorPoly":
        return TensorPoly(
            self.alphabet, {k: c * Fraction(scalar) for k, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key())
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (u, v), c in self.sorted_terms():
            body = f"{u}⊗{v}"
            bits.append(body if c == 1 else f"{c} {body}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        return [
            {"left": str(u), "right": str(v), "coeff": format_fraction(c)}
            for (u, v), c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: list) -> "TensorPoly":
        terms: dict[tuple[Word, Word], Fraction] = {}
        for n, item in enumerate(_json_checked(data, list, "tensor")):
            what = f"tensor term {n}"
            left, right, coeff = _json_fields(item, {"left": str, "right": str, "coeff": object}, what)
            key = (alphabet.parse_word(left), alphabet.parse_word(right))
            _add_term(terms, key, _json_fraction(coeff, f"{what} 'coeff'"))
        return cls(alphabet, terms)


# -- the deformation table ---------------------------------------------------


class PhiTable:
    """Symmetric letter-merge coefficients gamma(i, j) for the phi-shuffle.

    Only the weight pair matters: merging ``y_i`` and ``y_j`` produces
    ``gamma(i, j) * y_{i+j}``; on colored alphabets the colors add mod m.
    The phi-shuffle is associative exactly when this letter product is
    (Hoffman, *Quasi-shuffle products*, 2000, Thm 2.1), which is checked on
    all letter triples of total weight <= ``validate_to`` at construction
    (the color group is associative on its own, so plain y letters suffice).
    """

    def __init__(self, entries: Mapping[tuple[int, int], Fraction] | None = None,
                 *, default=ONE, validate_to: int = 6):
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), g in (entries or {}).items():
            key = (min(i, j), max(i, j))
            g = Fraction(g)
            if key in table and table[key] != g:
                raise ValueError(f"asymmetric gamma at {key}")
            table[key] = g
        self.entries = table
        self.default = Fraction(default)
        self._word_cache: dict = {}
        if validate_to:
            self._validate(validate_to)

    @classmethod
    def stuffle(cls) -> "PhiTable":
        """gamma identically 1: the quasi-shuffle."""
        return cls(validate_to=0)

    @classmethod
    def zero(cls) -> "PhiTable":
        """gamma identically 0: degenerates to the plain shuffle."""
        return cls(default=ZERO, validate_to=0)

    @classmethod
    def from_json(cls, data: Mapping[str, str], *, default=ONE, validate_to: int = 6) -> "PhiTable":
        entries = {}
        for key, val in _json_checked(data, dict, "gamma table").items():
            try:
                i, j = map(int, key.split(","))
            except ValueError:
                raise ValueError(f"gamma key {key!r} is not of the form 'i,j'") from None
            entries[(i, j)] = _json_fraction(val, f"gamma entry {key!r}")
        return cls(entries, default=default, validate_to=validate_to)

    def gamma(self, i: int, j: int) -> Fraction:
        return self.entries.get((min(i, j), max(i, j)), self.default)

    def _validate(self, bound: int) -> None:
        """The letter identity gamma(i,j) gamma(i+j,k) = gamma(j,k) gamma(i,j+k)
        on every letter triple of total weight <= bound."""
        g = self.gamma
        for i, j, k in itertools.product(range(1, bound), repeat=3):
            if i + j + k <= bound and g(i, j) * g(i + j, k) != g(j, k) * g(i, j + k):
                raise ValueError(f"gamma table is not associative at (y{i}, y{j}, y{k})")


# -- products ----------------------------------------------------------------


def _product(p_terms: Mapping, q_terms: Mapping, word_mul: Callable | None = None,
             bound: int | None = None, out: dict | None = None) -> dict:
    """The one bilinear loop behind every product in the package.

    For each pair of terms (u, a), (v, b) with grading(u) + grading(v) <=
    ``bound`` (every pair when ``bound`` is None), add a * b * c to ``out``
    for each (w, c) in ``word_mul(u, v)``.  ``word_mul`` None is
    concatenation, done inline.  Keys need not be words when ``bound`` is
    None: pairs of words in the coproducts and the diagonal check, color
    exponents in the cyclotomic numbers.  Terms accumulate into ``out`` when
    given, else into a fresh map, which is returned.
    """
    out = {} if out is None else out
    for u, a in p_terms.items():
        room = None if bound is None else bound - u.grading
        for v, b in q_terms.items():
            if room is not None and v.grading > room:
                continue
            if word_mul is None:
                _add_term(out, u * v, a * b)
                continue
            ab = a * b
            for w, c in word_mul(u, v):
                _add_term(out, w, ab * c)
    return out


def _phi_shuffle_words(u: Word, v: Word, phi: PhiTable) -> dict[Word, int | Fraction]:
    """The terms of the phi-shuffle of two words, cached in ``phi``.  The
    coefficients are integers where the gamma entries met are integers, so
    products of integer-valued maps stay on integers."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if u.lex_key() > v.lex_key():  # the product is commutative; normalize the key
        u, v = v, u
    key = (u, v)
    hit = phi._word_cache.get(key)
    if hit is not None:
        return hit
    alphabet = u.alphabet
    out: dict[Word, Fraction] = {}
    a, b = u.letters[0], v.letters[0]
    xu, yv = u[:1], v[:1]
    for w, c in _phi_shuffle_words(u[1:], v, phi).items():
        _add_term(out, xu * w, c)
    for w, c in _phi_shuffle_words(u, v[1:], phi).items():
        _add_term(out, yv * w, c)
    i, j = alphabet.letter_weight(a), alphabet.letter_weight(b)
    g = phi.gamma(i, j)
    if g:  # only y letters merge, so colors are read here only
        if g.denominator == 1:
            g = g.numerator
        color = (a[1] + b[1]) % alphabet.color_order if alphabet.color_order else 0
        merged = Word(alphabet, ((i + j, color),))
        for w, c in _phi_shuffle_words(u[1:], v[1:], phi).items():
            _add_term(out, merged * w, g * c)
    cache = phi._word_cache
    if len(cache) >= _WORD_CACHE_MAX:
        del cache[next(iter(cache))]  # the oldest entry
    cache[key] = out
    return out


# entries kept per PhiTable word cache: a whole pass of the benchmark's exact
# workload fills about 200; an evicted pair is recomputed when next needed
_WORD_CACHE_MAX = 1 << 12


# gamma identically 0: the plain shuffle, whose word table is shared by all calls
_SHUFFLE = PhiTable.zero()
_shuffle_cache = _SHUFFLE._word_cache


def _shuffle_law(phi: PhiTable | None = None) -> Callable:
    """``word_mul`` of the phi-shuffle for ``_product``; the shuffle when phi is None."""
    table = _SHUFFLE if phi is None else phi
    return lambda u, v: _phi_shuffle_words(u, v, table).items()


def conc(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product, extended bilinearly."""
    p._same_alphabet(q)
    return NCPoly(p.alphabet, _product(p.terms, q.terms))


def shuffle(p: NCPoly, q: NCPoly) -> NCPoly:
    """Shuffle product, extended bilinearly: the phi-shuffle with gamma = 0."""
    p._same_alphabet(q)
    return NCPoly(p.alphabet, _product(p.terms, q.terms, _shuffle_law()))


def phi_shuffle_words(u: Word, v: Word, phi: PhiTable) -> NCPoly:
    return NCPoly(u.alphabet, _phi_shuffle_words(u, v, phi))


def phi_shuffle(p: NCPoly, q: NCPoly, phi: PhiTable) -> NCPoly:
    """Deformed shuffle on a y alphabet; letters merge weights and colors."""
    p._same_alphabet(q)
    if not p.alphabet.is_y:
        raise ValueError("phi-shuffle needs a y alphabet")
    return NCPoly(p.alphabet, _product(p.terms, q.terms, _shuffle_law(phi)))


def word_product(law: str, u: Word, v: Word, phi: PhiTable | None = None) -> NCPoly:
    """Dispatch a word-level product by law name: conc | shuffle | phi."""
    if law == "conc":
        return NCPoly.from_word(u * v)
    if law == "shuffle":
        return phi_shuffle_words(u, v, _SHUFFLE)
    if law == "phi":
        if phi is None:
            raise ValueError("law 'phi' needs a PhiTable")
        return phi_shuffle_words(u, v, phi)
    raise ValueError(f"unknown law {law!r}")


# -- coproducts ---------------------------------------------------------------


def delta_conc(p: NCPoly) -> TensorPoly:
    """Deconcatenation: all splits of each word."""
    out: dict[tuple[Word, Word], Fraction] = {}
    for w, c in p.terms.items():
        for i in range(len(w) + 1):
            _add_term(out, (w[:i], w[i:]), c)
    return TensorPoly(p.alphabet, out)


def _letter_rule(alphabet: Alphabet, letter, phi: PhiTable) -> dict[tuple[Word, Word], Fraction]:
    """Coproduct of one letter, dual to the phi-shuffle: x (x) 1 + 1 (x) x plus
    the gamma-weighted splits of its weight and color (none when gamma = 0).
    It also gives the letter matrices of the closures ``linrep.rat_shuffle``
    and ``rat_phi_shuffle``."""
    one = alphabet.empty_word()
    x = Word(alphabet, (letter,))
    out = {(x, one): ONE, (one, x): ONE}
    k = alphabet.letter_weight(letter)
    for i in range(1, k):
        g = phi.gamma(i, k - i)
        if not g:
            continue
        colors = range(alphabet.color_order) if alphabet.color_order else (0,)
        for c1 in colors:
            c2 = (letter[1] - c1) % alphabet.color_order if alphabet.color_order else 0
            out[(Word(alphabet, ((i, c1),)), Word(alphabet, ((k - i, c2),)))] = g
    return out


def _tensor_conc(s: tuple[Word, Word], t: tuple[Word, Word]):
    """``word_mul`` of conc (x) conc on pairs of words."""
    return (((s[0] * t[0], s[1] * t[1]), ONE),)


def _conc_morphism_coproduct(p: NCPoly, phi: PhiTable) -> TensorPoly:
    out: dict[tuple[Word, Word], Fraction] = {}
    one = p.alphabet.empty_word()
    for w, coeff in p.terms.items():
        acc = {(one, one): coeff}
        for letter in w.letters:
            acc = _product(acc, _letter_rule(p.alphabet, letter, phi), _tensor_conc)
        for k, c in acc.items():
            _add_term(out, k, c)
    return TensorPoly(p.alphabet, out)


def delta_shuffle(p: NCPoly) -> TensorPoly:
    """Unshuffle coproduct: conc-morphism with primitive letters."""
    return _conc_morphism_coproduct(p, _SHUFFLE)


def delta_phi(p: NCPoly, phi: PhiTable) -> TensorPoly:
    """Dual of the phi-shuffle: conc-morphism with the letter-split rule."""
    if not p.alphabet.is_y:
        raise ValueError("delta_phi needs a y alphabet")
    return _conc_morphism_coproduct(p, phi)


def coproduct(law: str, p: NCPoly, phi: PhiTable | None = None) -> TensorPoly:
    if law == "conc":
        return delta_conc(p)
    if law == "shuffle":
        return delta_shuffle(p)
    if law == "phi":
        if phi is None:
            raise ValueError("law 'phi' needs a PhiTable")
        return delta_phi(p, phi)
    raise ValueError(f"unknown law {law!r}")


# -- eulerian idempotent ------------------------------------------------------


def pi1(p: NCPoly, phi: PhiTable | None = None) -> NCPoly:
    """Projector onto primitives of the (phi-)shuffle bialgebra.

    On each word it evaluates the log-of-identity convolution series: the
    k-th convolution power of (id - unit counit), taken for the coproduct
    dual to the product (plain shuffle on x alphabets, phi-shuffle on y),
    weighted by (-1)^(k-1)/k.  Output grading never exceeds input grading.
    """
    image = _pi1_images(p.alphabet, phi)
    out: dict[Word, Fraction] = {}
    for w, coeff in p.terms.items():
        for v, c in image(w).items():
            _add_term(out, v, coeff * c)
    return NCPoly(p.alphabet, out)


def _pi1_images(alphabet: Alphabet, phi: PhiTable | None = None) -> Callable[[Word], dict[Word, Fraction]]:
    """``pi1`` of single words over ``alphabet``: a function from a word to
    the terms of its image.  Its split and convolution-power caches are
    shared by every word it is given, so the images of many words (all the
    letters of a grade, say) reuse each other's convolution powers."""
    if alphabet.is_y and phi is None:
        raise ValueError("pi1 on a y alphabet needs a PhiTable")
    dual = (lambda q: delta_phi(q, phi)) if alphabet.is_y else delta_shuffle
    split_cache: dict[Word, list] = {}

    def splits(w: Word):
        hit = split_cache.get(w)
        if hit is None:
            hit = [
                (u, v, c) for (u, v), c in dual(NCPoly.from_word(w)).terms.items() if u
            ]
            split_cache[w] = hit
        return hit

    conv_cache: dict[tuple[Word, int], dict[Word, Fraction]] = {}

    def conv_power(w: Word, k: int) -> dict[Word, Fraction]:
        # k-th convolution power of (id - unit counit) at w
        if not w:
            return {}
        if k == 1:
            return {w: ONE}
        hit = conv_cache.get((w, k))
        if hit is None:
            hit = {}
            for u, v, c in splits(w):
                if v:
                    _product({u: c}, conv_power(v, k - 1), out=hit)
            conv_cache[(w, k)] = hit
        return hit

    def image(w: Word) -> dict[Word, Fraction]:
        out: dict[Word, Fraction] = {}
        for k in range(1, w.grading + 1):
            sign = ONE if k % 2 else -ONE
            for v, c in conv_power(w, k).items():
                _add_term(out, v, c * sign / k)
        return out

    return image


# -- truncated series and (infinitesimal) characters --------------------------


class TruncSeries:
    """Coefficients of a series, complete up to a stated grading bound.

    Values are exact ``Fraction`` for algebraic series; numeric series (the
    Chen series) store complex-like values instead.  Reading a coefficient
    beyond the bound raises: the window is honest about what it knows.
    """

    __slots__ = ("alphabet", "bound", "coeffs")

    def __init__(self, alphabet: Alphabet, bound: int, coeffs: Mapping[Word, object] | None = None):
        self.alphabet = alphabet
        self.bound = bound
        self.coeffs = {}
        for w, c in (coeffs or {}).items():
            if w.grading > bound:
                continue
            if c:
                self.coeffs[w] = c

    @classmethod
    def from_poly(cls, p: NCPoly, bound: int) -> "TruncSeries":
        return cls(p.alphabet, bound, dict(p.truncate(bound).terms))

    @classmethod
    def word_sum(cls, alphabet: Alphabet, bound: int) -> "TruncSeries":
        """Truncation of the sum of all words (the unital full series)."""
        return cls(alphabet, bound, {w: ONE for w in words_up_to_grading(alphabet, bound)})

    def coeff(self, w: Word):
        if w.grading > self.bound:
            raise ValueError(f"coefficient of grading {w.grading} beyond bound {self.bound}")
        return self.coeffs.get(w, ZERO)

    def pair_poly(self, p: NCPoly):
        """<series, polynomial>; the polynomial must fit inside the window."""
        total = ZERO
        for w, c in p.terms.items():
            total = total + c * self.coeff(w)
        return total

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        bound = min(self.bound, other.bound)
        out = {w: c for w, c in self.coeffs.items() if w.grading <= bound}
        for w, c in other.coeffs.items():
            if w.grading <= bound:
                _add_term(out, w, c)
        return TruncSeries(self.alphabet, bound, out)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + other.scale(-1)

    def scale(self, scalar) -> "TruncSeries":
        return TruncSeries(
            self.alphabet, self.bound, {w: c * scalar for w, c in self.coeffs.items()}
        )

    def conc_mul(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy (concatenation) product at the common bound."""
        bound = min(self.bound, other.bound)
        return TruncSeries(self.alphabet, bound, _product(self.coeffs, other.coeffs, bound=bound))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.alphabet == other.alphabet
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        body = " + ".join(
            f"{c} {w}" for w, c in sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())
        )
        return f"({body or '0'}) + O(grade {self.bound + 1})"


def _values_match(a, b, tol) -> bool:
    if tol:
        return abs(complex(a) - complex(b)) <= tol
    return a == b


def _pairs_match(series: TruncSeries, law: str, phi: PhiTable | None, bound: int | None,
                 tol, expected: Callable) -> bool:
    """<S, u*v> against ``expected(u, v)`` for every pair of words with
    (u) + (v) <= bound (default: the series bound).  ``tol`` permits a numeric
    slack for quadrature-valued series."""
    n = series.bound if bound is None else bound
    words = words_up_to_grading(series.alphabet, n)
    for u in words:
        for v in words:
            if u.grading + v.grading > n:
                continue
            lhs = series.pair_poly(word_product(law, u, v, phi))
            if not _values_match(lhs, expected(u, v), tol):
                return False
    return True


def is_character(series: TruncSeries, law: str, *, phi: PhiTable | None = None,
                 bound: int | None = None, tol=0) -> bool:
    """True iff <S,1> = 1 and <S, u*v> = <S,u><S,v> for all graded pairs.

    Since <Delta S, u (x) v> = <S, u*v> for the coproduct Delta dual to the
    product *, this is also the test of Delta S = S (x) S: ``linrep``'s
    ``is_grouplike`` is this function.
    """
    if not _values_match(series.coeff(series.alphabet.empty_word()), ONE, tol):
        return False
    return _pairs_match(series, law, phi, bound, tol,
                        lambda u, v: series.coeff(u) * series.coeff(v))


def is_infinitesimal_character(series: TruncSeries, law: str, *, phi: PhiTable | None = None,
                               bound: int | None = None, tol=0) -> bool:
    """True iff <S, u*v> = <S,u>[v empty] + [u empty]<S,v> for all pairs.

    By the same duality this is the test of Delta S = 1 (x) S + S (x) 1:
    ``linrep``'s ``is_primitive`` is this function.
    """

    def expected(u: Word, v: Word):
        rhs = ZERO
        if not v:
            rhs = rhs + series.coeff(u)
        if not u:
            rhs = rhs + series.coeff(v)
        return rhs

    return _pairs_match(series, law, phi, bound, tol, expected)
