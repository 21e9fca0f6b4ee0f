"""Noncommutative polynomials over the rationals and their three products.

A polynomial is a finitely supported map from words to the rationals.  The module
provides the concatenation product, the shuffle product, its ``phi``
deformation on weighted alphabets (quasi-shuffle for the constant table 1),
the dual coproducts, the eulerian idempotent projecting onto primitives, and
the character / infinitesimal-character tests on truncated series.  Each
product is dual to its coproduct, <Delta S, u (x) v> = <S, u*v>, so the
character tests are also the grouplike / primitive tests: one pair loop
serves both.

The shuffle is the phi-shuffle with gamma = 0: one word recursion
(``_phi_shuffle_letters``) and one letter-split rule (``_letter_rule``,
which also builds the closures of ``linrep``) serve both, on x and y
alphabets.  Every bilinear product of the package goes through the one
kernel ``_product``, the M(X*) check's too: it forms its Lyndon product one
word at a time, a shuffle of two word polynomials and one outer product of
a polynomial with a matrix per word.

Inside the kernels a word is its tuple of letters, and coefficients are
integers wherever the gamma entries met are: ``_product``, the phi-shuffle
word table, the letter rule and the split tables of a coproduct, and the
convolution powers of ``pi1``, whose images are integer numerators over
lcm(1..n).  The word table is keyed by the two letter tuples and the color
order, so colored alphabets with equal letter tuples stay apart.

That is also the one stored form: ``NCPoly`` and ``TensorPoly`` hold a map
from letter tuples (pairs of them) to integer numerators over one reduced
denominator, and ``TruncSeries`` a map from letter tuples to its values, so
kernel results are stored as they come out.  ``Word``s and ``Fraction``s
are built only at the boundary: the constructors take ``Word``-keyed maps,
``coeff`` takes words, ``terms`` and ``coeffs`` build fresh ``Word``-keyed
dicts, and every printer names letter tuples through ``Alphabet.name``.
Forms cross the JSON boundary as integers, read by the one reader of
rationals, ``_json_ratio``, and written by the one writer, ``_ratio_text``.
The JSON printers write each distinct value once (``_ratio_texts``).

All identities here are exact.  The one place floating point enters is the
character tests given a ``tol > 0`` (``_values_match``): there coefficients,
such as the ``ComplexVal``s of a Chen series, are compared as complex
numbers within ``tol``; with the default ``tol=0`` they are compared exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .words import Alphabet, Word, _check_split_budget, _graded_letters

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


def _json_ratio(value, field: str) -> tuple[int, int]:
    """The one reader of rationals in JSON input, as (numerator, denominator
    > 0): ints, and "p" or "p/q" of ASCII digits after at most one "-", are
    split into integers; ``Fraction`` reads any other string."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        p, _, q = (value if "/" in value else value + "/1").partition("/")
        try:  # int() and Fraction raise ValueError past the digit limit of int(str)
            if value.isascii() and p.removeprefix("-").isdigit() and q.isdigit() and (den := int(q)):
                return int(p), den
            return parse_fraction(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} is not a rational number: {value!r}")


def _ratio_text(c: int, den: int) -> str:
    """The one writer of rationals: c/den (den > 0) as "p/q" in lowest terms."""
    g = math.gcd(c, den)
    return f"{c // g}/{den // g}"


def _ratio_texts(values: list[int], den: int) -> list[str]:
    """``_ratio_text`` of each value over den, each distinct value written once."""
    texts = {c: _ratio_text(c, den) for c in set(values)}
    return list(map(texts.__getitem__, values))


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
    """A key -> rational map as integer coefficients over one common
    denominator d: (d·terms, d)."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return dict(zip(terms, _scaled(terms.values(), d))), d


def _reduced(terms: Mapping, den: int) -> tuple[dict, int]:
    """terms / den as integer numerators over the least common denominator.
    The terms may hold Fractions (from a rational gamma table)."""
    if any(type(c) is not int for c in terms.values()):
        terms, d = _integer_terms(terms)
        den *= d
    g = math.gcd(den, *terms.values())
    return ({t: c // g for t, c in terms.items()}, den // g) if g > 1 else (terms, den)


def _combination(parts: Iterable[tuple], den: int = 1) -> tuple[dict, int]:
    """The sum of c * terms / d over the parts (c, terms, d), all over
    ``den``, as reduced integer numerators over one denominator."""
    parts = list(parts)
    lcm = math.lcm(*(d for _, _, d in parts))
    out: dict = {}
    for c, terms, d in parts:
        k = c * (lcm // d)
        for t, x in terms.items():
            _add_term(out, t, k * x)
    return _reduced(out, lcm * den)


def _words(alphabet: Alphabet, letters: Iterable[tuple]) -> list[Word]:
    """The words of letter tuples, unchecked: where stored forms become Words."""
    trusted = Word._trusted
    weight = len if alphabet.is_x else alphabet.weight
    return [trusted(alphabet, t, weight(t)) for t in letters]


def _one_alphabet(a: Alphabet, b: Alphabet, what: str) -> None:
    """Refuse to combine ``what`` over two different alphabets."""
    if a is not b and a != b:
        raise ValueError(f"{what} over different alphabets")


def _checked_letters(alphabet: Alphabet, w: Word) -> tuple:
    """The letters of ``w``, a word that must be over ``alphabet``."""
    if w.alphabet is not alphabet and w.alphabet != alphabet:
        raise ValueError("term word over a different alphabet")
    return w.letters


class _Form:
    """A finitely supported map from keys of letter tuples to the rationals,
    stored as integer numerators over one denominator den > 0, with gcd 1
    and no numerator 0, so that equal maps have equal forms.  A subclass
    names the ``_fields`` of a key, one word or two, splits and joins keys
    (``_parts``, ``_key``), orders them (``_order``) and prints a term."""

    __slots__ = ("alphabet", "_num", "_den")

    def __init__(self, alphabet: Alphabet, terms: Mapping | None = None):
        """From a map whose keys hold ``Word``s of ``alphabet``."""
        num = {}
        for key, c in (terms or {}).items():
            key = self._key([_checked_letters(alphabet, w) for w in self._parts(key)])
            if c := Fraction(c):
                num[key] = c
        self.alphabet = alphabet
        self._num, self._den = _reduced(num, 1)

    @classmethod
    def _of(cls, alphabet: Alphabet, num: dict, den: int = 1):
        """The map num / den, reduced; ``num`` itself is kept when it already is."""
        form = object.__new__(cls)
        form.alphabet = alphabet
        form._num, form._den = _reduced(num, den)
        return form

    @property
    def terms(self) -> dict:
        """The map as a fresh ``dict`` from keys of ``Word``s to ``Fraction``s."""
        keys = (self._key(_words(self.alphabet, self._parts(k))) for k in self._num)
        return {k: Fraction(c, self._den) for k, c in zip(keys, self._num.values())}

    def coeff(self, *words: Word) -> Fraction:
        """The coefficient of the key made of these words."""
        return Fraction(self._num.get(self._key([_checked_letters(self.alphabet, w) for w in words]), 0), self._den)

    # -- linear structure ------------------------------------------------

    def _same_alphabet(self, other: "_Form") -> None:
        _one_alphabet(self.alphabet, other.alphabet, self._what + "s")

    def __add__(self, other):
        self._same_alphabet(other)
        return self._of(self.alphabet, *_combination([(1, self._num, self._den), (1, other._num, other._den)]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.alphabet, {k: -c for k, c in self._num.items()}, self._den)

    def __mul__(self, scalar):
        if isinstance(scalar, _Form):
            raise TypeError("use conc/shuffle/phi_shuffle for polynomial products")
        q = Fraction(scalar)
        num = {k: c * q.numerator for k, c in self._num.items()} if q else {}
        return self._of(self.alphabet, num, self._den * q.denominator)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.alphabet == other.alphabet
            and self._den == other._den
            and self._num == other._num
        )

    def __bool__(self) -> bool:
        return bool(self._num)

    def _sorted(self, key: Callable) -> list:
        """The keys in the order of ``key`` on their parts (``_order``)."""
        return sorted(self._num, key=self._order(key))

    def __repr__(self) -> str:
        return str(self)

    # -- JSON form ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        name, num, den = self.alphabet.name, self._num, self._den
        return [
            {**dict(zip(self._fields, map(name, self._parts(k)))), "coeff": _ratio_text(num[k], den)}
            for k in self._sorted(self.alphabet.sort_key)
        ]

    def _json_text(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True)``, one template filled from one tuple:
        "coeff" sorts first, and all of it is ASCII but the empty word's "ε"."""
        keys = self._sorted(self.alphabet.sort_key)
        coeffs = _ratio_texts([self._num[k] for k in keys], self._den)
        names = (map(self.alphabet.name, part) for part in zip(*map(self._parts, keys)))  # one column per field
        text = "[" + ", ".join([self._json_item] * len(keys)) + "]"
        return (text % tuple(itertools.chain.from_iterable(zip(coeffs, *names)))).replace("ε", "\\u03b5")

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: list):
        terms = []  # (numerator, {key: 1}, denominator) of each term, for _combination
        for n, item in enumerate(_json_checked(data, list, cls._what)):
            what = f"{cls._what} term {n}"
            *texts, coeff = _json_fields(item, {**dict.fromkeys(cls._fields, str), "coeff": object}, what)
            key = cls._key([alphabet.parse_word(text).letters for text in texts])
            num, den = _json_ratio(coeff, f"{what} 'coeff'")
            terms.append((num, {key: 1}, den))
        return cls._of(alphabet, *_combination(terms))


class NCPoly(_Form):
    """Finitely supported map from the words of one alphabet to the
    rationals, keyed by letter tuples."""

    __slots__ = ()
    _what, _fields = "polynomial", ("word",)
    _json_item = '{"coeff": "%s", "word": "%s"}'
    _parts = staticmethod(lambda key: (key,))
    _key = staticmethod(operator.itemgetter(0))
    _order = staticmethod(lambda key: key)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls._of(alphabet, {})

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NCPoly":
        return cls._of(alphabet, {(): 1})

    @classmethod
    def from_word(cls, w: Word, coeff=ONE) -> "NCPoly":
        return cls(w.alphabet, {w: coeff})

    # -- reading ------------------------------------------------------------

    def pairing(self, other: "NCPoly") -> Fraction:
        """Word-basis scalar product <self, other>."""
        self._same_alphabet(other)
        small, big = sorted((self._num, other._num), key=len)
        return Fraction(sum(c * big.get(w, 0) for w, c in small.items()), self._den * other._den)

    def max_grade(self) -> int:
        return max(map(self.alphabet.weight, self._num), default=0)

    def truncate(self, max_grade: int) -> "NCPoly":
        weight = self.alphabet.weight
        return self._of(self.alphabet, {w: c for w, c in self._num.items() if weight(w) <= max_grade}, self._den)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        name, num, den = self.alphabet.name, self._num, self._den
        parts = []
        for w in self._sorted(self.alphabet.display_key):
            c, word = num[w], name(w)
            if c == den:
                parts.append(word)
            elif c == -den:
                parts.append(f"-({word})" if parts else f"-{word}")
            else:  # "p/1" prints as "p", as str(Fraction) prints it
                parts.append(f"{_ratio_text(c, den).removesuffix('/1')} {word}")
        return " + ".join(parts).replace("+ -", "- ")


class TensorPoly(_Form):
    """Finitely supported map from pairs of words of one alphabet to the
    rationals (coproduct output), keyed by pairs of letter tuples."""

    __slots__ = ()
    _what, _fields = "tensor", ("left", "right")
    _json_item = '{"coeff": "%s", "left": "%s", "right": "%s"}'
    _parts = _key = staticmethod(tuple)
    _order = staticmethod(lambda key: lambda uv: (key(uv[0]), key(uv[1])))

    def __str__(self) -> str:
        if not self._num:
            return "0"
        name, num, den = self.alphabet.name, self._num, self._den
        bits = []
        for u, v in self._sorted(self.alphabet.sort_key):
            body, c = f"{name(u)}⊗{name(v)}", num[u, v]
            bits.append(body if c == den else f"{_ratio_text(c, den).removesuffix('/1')} {body}")
        return " + ".join(bits)


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
            if key[0] < 1:
                raise ValueError(f"gamma entry at ({i}, {j}): letter weights start at 1")
            g = g if type(g) is Fraction else Fraction(g)
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
    def from_json(cls, data: Mapping[str, str]) -> "PhiTable":
        entries = {}
        for key, val in _json_checked(data, dict, "gamma table").items():
            try:
                i, j = map(int, key.split(","))
            except ValueError:
                raise ValueError(f"gamma key {key!r} is not of the form 'i,j'") from None
            entries[(i, j)] = Fraction(*_json_ratio(val, f"gamma entry {key!r}"))
        return cls(entries)

    def gamma(self, i: int, j: int) -> Fraction:
        return self.entries.get((min(i, j), max(i, j)), self.default)

    def _validate(self, bound: int) -> None:
        """The letter identity gamma(i,j) gamma(i+j,k) = gamma(j,k) gamma(i,j+k) on
        every letter triple of total weight <= bound, cross-multiplied on integers."""
        ratio = {(i, j): self.gamma(i, j).as_integer_ratio() for i in range(1, bound) for j in range(1, bound + 1 - i)}
        for i, j, k in itertools.product(range(1, bound), repeat=3):
            if i + j + k <= bound:
                (a, p), (b, q), (c, r), (d, s) = ratio[i, j], ratio[i + j, k], ratio[j, k], ratio[i, j + k]
                if a * b * r * s != c * d * p * q:
                    raise ValueError(f"gamma table is not associative at (y{i}, y{j}, y{k})")


# -- products ----------------------------------------------------------------


def _product(p_terms: Mapping, q_terms: Mapping, word_mul: Callable | None = None,
             bound: int | None = None, out: dict | None = None, grading: Callable | None = None) -> dict:
    """The one bilinear loop behind every product in the package.

    For each pair of terms (u, a), (v, b) with grading(u) + grading(v) <=
    ``bound`` (every pair when ``bound`` is None), add a * b * c to ``out``
    for each (w, c) in ``word_mul(u, v)``.  ``word_mul`` None is
    concatenation of letter tuples, done inline.  Keys need not be words
    when ``word_mul`` is given: pairs of letter tuples in the coproducts,
    color exponents in the cyclotomic numbers.  Terms accumulate into
    ``out`` when given, else into a fresh map, which is returned.
    """
    out = {} if out is None else out
    if bound is not None:
        q_graded = [(grading(v), v, b) for v, b in q_terms.items()]
        # the terms of q of grading <= room, in q's order, listed once per room
        fitting = functools.cache(lambda room: [(v, b) for g, v, b in q_graded if g <= room])
    for u, a in p_terms.items():
        if bound is None:
            pairs = q_terms.items()
        else:
            pairs = fitting(bound - grading(u))
        if word_mul is None:
            for v, b in pairs:
                w = u + v
                c = out.get(w, 0) + a * b
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
            continue
        for v, b in pairs:
            ab = a * b
            for w, c in word_mul(u, v):
                c = out.get(w, 0) + ab * c
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out


def _color_order(alphabet: Alphabet) -> int | None:
    """The modulus of merged colors: None on x alphabets, whose letters
    never merge, and 1 on plain y."""
    return None if alphabet.is_x else alphabet.color_order or 1


def _phi_shuffle_letters(u: tuple, v: tuple, phi: PhiTable, order: int | None) -> dict[tuple, int | Fraction]:
    """The terms of the phi-shuffle of two words given as letter tuples, on
    an alphabet of color order ``order`` (``_color_order``), cached in
    ``phi`` under (u, v, order).  The coefficients are integers where the
    gamma entries met are integers, so products of integer-valued maps stay
    on integers."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if u > v:  # the product is commutative; normalize the key
        u, v = v, u
    key = (u, v, order)
    hit = phi._word_cache.get(key)
    if hit is not None:
        return hit
    out: dict[tuple, int | Fraction] = {}
    a, b = u[0], v[0]
    for w, c in _phi_shuffle_letters(u[1:], v, phi, order).items():
        _add_term(out, (a,) + w, c)
    for w, c in _phi_shuffle_letters(u, v[1:], phi, order).items():
        _add_term(out, (b,) + w, c)
    g = 0 if order is None else phi.gamma(a[0], b[0])
    if g:  # only y letters merge, so weights and colors are read here only
        if g.denominator == 1:
            g = g.numerator
        merged = (a[0] + b[0], (a[1] + b[1]) % order)
        for w, c in _phi_shuffle_letters(u[1:], v[1:], phi, order).items():
            _add_term(out, (merged,) + w, g * c)
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


def _shuffle_law(alphabet: Alphabet, phi: PhiTable | None = None) -> Callable:
    """``word_mul`` of the phi-shuffle on letter tuples of ``alphabet`` for
    ``_product``; the shuffle when phi is None."""
    table = _SHUFFLE if phi is None else phi
    order = _color_order(alphabet)
    return lambda u, v: _phi_shuffle_letters(u, v, table, order).items()


def _bilinear(p: NCPoly, q: NCPoly, word_mul: Callable | None = None) -> NCPoly:
    p._same_alphabet(q)
    n = max(map(len, p._num), default=0) + max(map(len, q._num), default=0)
    if word_mul and n > 800:  # the word recursion takes a frame per letter, of Python's 1000
        raise ValueError(f"a shuffle of words of {n} letters in all: the limit is 800")
    return NCPoly._of(p.alphabet, _product(p._num, q._num, word_mul), p._den * q._den)


def conc(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product, extended bilinearly."""
    return _bilinear(p, q)


def shuffle(p: NCPoly, q: NCPoly) -> NCPoly:
    """Shuffle product, extended bilinearly: the phi-shuffle with gamma = 0."""
    return _bilinear(p, q, _shuffle_law(p.alphabet))


def phi_shuffle(p: NCPoly, q: NCPoly, phi: PhiTable) -> NCPoly:
    """Deformed shuffle on a y alphabet; letters merge weights and colors."""
    p._same_alphabet(q)
    if not p.alphabet.is_y:
        raise ValueError("phi-shuffle needs a y alphabet")
    return _bilinear(p, q, _shuffle_law(p.alphabet, phi))


# -- coproducts ---------------------------------------------------------------


def delta_conc(p: NCPoly) -> TensorPoly:
    """Deconcatenation: all splits of each word."""
    out: dict = {}
    for w, c in p._num.items():
        for i in range(len(w) + 1):
            _add_term(out, (w[:i], w[i:]), c)
    return TensorPoly._of(p.alphabet, out, p._den)


def _letter_rule(alphabet: Alphabet, letter, phi: PhiTable) -> dict[tuple[tuple, tuple], int | Fraction]:
    """Coproduct of one letter, dual to the phi-shuffle, keyed by pairs of
    letter tuples: x (x) 1 + 1 (x) x plus the gamma-weighted splits of its
    weight and color (none when gamma = 0).  It also gives the letter
    matrices of the closures ``linrep.rat_shuffle`` and ``rat_phi_shuffle``."""
    out = {((letter,), ()): 1, ((), (letter,)): 1}
    k = alphabet.letter_weight(letter)
    for i in range(1, k):
        g = phi.gamma(i, k - i)
        if not g:
            continue
        if g.denominator == 1:
            g = g.numerator
        colors = range(alphabet.color_order) if alphabet.color_order else (0,)
        for c1 in colors:
            c2 = (letter[1] - c1) % alphabet.color_order if alphabet.color_order else 0
            out[(((i, c1),), ((k - i, c2),))] = g
    return out


def _tensor_conc(s: tuple[tuple, tuple], t: tuple[tuple, tuple]):
    """``word_mul`` of conc (x) conc on pairs of letter tuples."""
    return (((s[0] + t[0], s[1] + t[1]), 1),)


def _splits(alphabet: Alphabet, letters: tuple, phi: PhiTable) -> dict:
    """The coproduct dual to the phi-shuffle of one word, as a map from
    pairs of letter tuples: the conc (x) conc product of its letter rules."""
    acc = {((), ()): 1}
    for letter in letters:
        acc = _product(acc, _letter_rule(alphabet, letter, phi), _tensor_conc)
    return acc


def _conc_morphism_coproduct(p: NCPoly, phi: PhiTable) -> TensorPoly:
    out: dict = {}
    for w, coeff in p._num.items():
        _product({((), ()): coeff}, _splits(p.alphabet, w, phi), _tensor_conc, out=out)
    return TensorPoly._of(p.alphabet, out, p._den)


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
    Words whose split tables would pass the word budget are refused with a
    ValueError before any work (``words._check_split_budget``).
    """
    image = _pi1_images(p.alphabet, phi)
    _check_split_budget(p.alphabet, p._num)
    return NCPoly._of(p.alphabet, *_combination(((c, *image(w)) for w, c in p._num.items()), p._den))


def _pi1_images(alphabet: Alphabet, phi: PhiTable | None = None) -> Callable[[tuple], tuple[dict, int]]:
    """``pi1`` of single words over ``alphabet``: a function from the letter
    tuple of a word to the integer numerators of its image over lcm(1..n),
    n its grading (Fractions where a rational gamma entry is met).  Its split
    and convolution-power caches are shared by every word it is given, so the
    images of many words (all the letters of a grade, say) reuse each
    other's convolution powers."""
    if alphabet.is_y and phi is None:
        raise ValueError("pi1 on a y alphabet needs a PhiTable")
    table = phi if alphabet.is_y else _SHUFFLE

    @functools.cache
    def splits(w: tuple) -> dict:
        # the splits u (x) v of w into nonempty parts, as v -> {u: coefficient}
        out: dict = {}
        for (u, v), c in _splits(alphabet, w, table).items():
            if u and v:
                out.setdefault(v, {})[u] = c
        return out

    @functools.cache
    def conv_power(w: tuple, k: int) -> dict:
        # k-th convolution power of (id - unit counit) at the nonempty word w
        if k == 1:
            return {w: 1}
        out: dict = {}
        for v, lefts in splits(w).items():
            _product(lefts, conv_power(v, k - 1), out=out)
        return out

    def image(w: tuple) -> tuple[dict, int]:
        n = alphabet.weight(w)
        den = math.lcm(*range(1, n + 1))
        out: dict = {}
        for k in range(1, n + 1):
            scale = den // k if k % 2 else -(den // k)
            for v, c in conv_power(w, k).items():
                _add_term(out, v, scale * c)
        return out, den

    return image


# -- truncated series and (infinitesimal) characters --------------------------


class TruncSeries:
    """Coefficients of a series, complete up to a stated grading bound,
    keyed by letter tuples.

    Values are exact ``Fraction`` for algebraic series; numeric series (the
    Chen series) store complex-like values instead.  Reading a coefficient
    beyond the bound raises: the window is honest about what it knows.
    """

    __slots__ = ("alphabet", "bound", "_values")

    def __init__(self, alphabet: Alphabet, bound: int, coeffs: Mapping[Word, object] | None = None):
        """From a map whose keys are ``Word``s of ``alphabet``; coefficients
        beyond the bound are dropped."""
        values = {}
        for w, c in (coeffs or {}).items():
            t = _checked_letters(alphabet, w)
            if c and w.grading <= bound:
                values[t] = c
        self.alphabet = alphabet
        self.bound = bound
        self._values = values

    @classmethod
    def _of(cls, alphabet: Alphabet, bound: int, values: dict) -> "TruncSeries":
        """The series of ``values``: nonzero, keyed by letter tuples of
        gradings <= bound, and kept without a copy."""
        series = object.__new__(cls)
        series.alphabet, series.bound, series._values = alphabet, bound, values
        return series

    @classmethod
    def from_poly(cls, p: NCPoly, bound: int) -> "TruncSeries":
        weight, den = p.alphabet.weight, p._den
        return cls._of(p.alphabet, bound, {w: Fraction(c, den) for w, c in p._num.items() if weight(w) <= bound})

    @classmethod
    def word_sum(cls, alphabet: Alphabet, bound: int) -> "TruncSeries":
        """Truncation of the sum of all words (the unital full series)."""
        return cls._of(alphabet, bound, {w: ONE for grade in _graded_letters(alphabet, bound) for w in grade})

    @property
    def coeffs(self) -> dict:
        """The coefficients as a fresh ``dict`` from ``Word``s."""
        return dict(zip(_words(self.alphabet, self._values), self._values.values()))

    def _at(self, w: tuple):
        grading = self.alphabet.weight(w)
        if grading > self.bound:
            raise ValueError(f"coefficient of grading {grading} beyond bound {self.bound}")
        return self._values.get(w, ZERO)

    def coeff(self, w: Word):
        return self._at(_checked_letters(self.alphabet, w))

    def pair_poly(self, p: NCPoly):
        """<series, polynomial>; the polynomial must fit inside the window."""
        _one_alphabet(self.alphabet, p.alphabet, "series")
        total = ZERO
        for w, c in p._num.items():
            total = total + Fraction(c, p._den) * self._at(w)
        return total

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        _one_alphabet(self.alphabet, other.alphabet, "series")
        bound = min(self.bound, other.bound)
        weight = self.alphabet.weight
        out = {w: c for w, c in self._values.items() if weight(w) <= bound}
        for w, c in other._values.items():
            if weight(w) <= bound:
                _add_term(out, w, c)
        return TruncSeries._of(self.alphabet, bound, out)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + other.scale(-1)

    def scale(self, scalar) -> "TruncSeries":
        values = ((w, c * scalar) for w, c in self._values.items())
        return TruncSeries._of(self.alphabet, self.bound, {w: c for w, c in values if c})

    def conc_mul(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy (concatenation) product at the common bound."""
        _one_alphabet(self.alphabet, other.alphabet, "series")
        bound = min(self.bound, other.bound)
        terms = _product(self._values, other._values, bound=bound, grading=self.alphabet.weight)
        return TruncSeries._of(self.alphabet, bound, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.alphabet == other.alphabet
            and self.bound == other.bound
            and self._values == other._values
        )

    def __str__(self) -> str:
        name = self.alphabet.name
        terms = sorted(self._values.items(), key=lambda t: self.alphabet.sort_key(t[0]))
        body = " + ".join(f"{c} {name(w)}" for w, c in terms)
        return f"({body or '0'}) + O(grade {self.bound + 1})"


def _values_match(a, b, tol) -> bool:
    if tol:
        return abs(complex(a) - complex(b)) <= tol
    return a == b


def _word_mul(alphabet: Alphabet, law: str, phi: PhiTable | None) -> Callable:
    """The ``word_mul`` of the character tests' ``law`` (conc | shuffle |
    phi) for ``_product``; the shuffle reads no ``phi``."""
    if law == "conc":
        return lambda u, v: ((u + v, 1),)
    if law == "shuffle":
        return _shuffle_law(alphabet)
    if law == "phi":
        if phi is None:
            raise ValueError("law 'phi' needs a PhiTable")
        return _shuffle_law(alphabet, phi)
    raise ValueError(f"unknown law {law!r}")


def _pairs_match(series: TruncSeries, word_mul: Callable, bound: int | None, tol, expected: Callable) -> bool:
    """<S, u*v> against ``expected(u, v)`` for every pair of letter tuples
    with (u) + (v) <= bound (default: the series bound), u then v by
    (grading, lex), summed over the terms of ``word_mul``.  ``tol``
    permits a numeric slack for quadrature-valued series."""
    n = series.bound if bound is None else bound
    grades = _graded_letters(series.alphabet, n)
    for g, us in enumerate(grades):
        vs = [v for grade in grades[: n - g + 1] for v in grade]  # the words that fit beside a u of grade g
        for u in us:
            for v in vs:
                lhs = ZERO
                for w, c in word_mul(u, v):
                    lhs = lhs + c * series._at(w)
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
    word_mul = _word_mul(series.alphabet, law, phi)
    if not _values_match(series._at(()), ONE, tol):
        return False
    return _pairs_match(series, word_mul, bound, tol, lambda u, v: series._at(u) * series._at(v))


def is_infinitesimal_character(series: TruncSeries, law: str, *, phi: PhiTable | None = None,
                               bound: int | None = None, tol=0) -> bool:
    """True iff <S, u*v> = <S,u>[v empty] + [u empty]<S,v> for all pairs.

    By the same duality this is the test of Delta S = 1 (x) S + S (x) 1:
    ``linrep``'s ``is_primitive`` is this function.
    """
    word_mul = _word_mul(series.alphabet, law, phi)

    def expected(u: tuple, v: tuple):
        rhs = ZERO
        if not v:
            rhs = rhs + series._at(u)
        if not u:
            rhs = rhs + series._at(v)
        return rhs

    return _pairs_match(series, word_mul, bound, tol, expected)
