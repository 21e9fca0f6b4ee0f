"""Free monoids over the two working alphabets and Lyndon word machinery.

Two kinds of alphabet are supported:

* an ``x`` alphabet with letters ``x0 < x1 < ... < x_m``, every letter of
  weight 1, so the grading of a word is its length;
* a ``y`` alphabet whose letters ``y_k`` carry a weight ``k >= 1`` and are
  ordered by *decreasing* weight (``y2 < y1``), optionally refined by a color
  index living in Z/mZ (``y_k@c``), ordered by color after weight.

The ``y`` alphabet is infinite; it is never materialized beyond an explicit
weight bound.  Words are immutable, hashable, totally ordered values and are
used as dictionary keys throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Alphabet",
    "Word",
    "grading",
    "is_lyndon",
    "lyndon_words",
    "standard_factorization",
    "lyndon_factorization",
    "parse_alphabet",
    "alphabet_text",
]


@dataclass(frozen=True)
class Alphabet:
    """An ``x`` or ``y`` alphabet.

    ``x`` letters are plain integers ``0..size-1``.  ``y`` letters are pairs
    ``(weight, color)`` with ``color == 0`` whenever ``color_order`` is None.
    """

    kind: str  # "x" or "y"
    size: int | None = None  # number of x letters; None for y
    color_order: int | None = None  # modulus m of the color group; None = plain y

    def __post_init__(self):
        if self.kind == "x":
            if not self.size or self.size < 1:
                raise ValueError("x alphabet needs at least one letter")
            if self.color_order is not None:
                raise ValueError("colors only make sense on a y alphabet")
        elif self.kind == "y":
            if self.size is not None:
                raise ValueError("y alphabets are unbounded; no size")
            if self.color_order is not None and self.color_order < 1:
                raise ValueError("color group order must be >= 1")
        else:
            raise ValueError(f"unknown alphabet kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def x(size: int) -> "Alphabet":
        """Alphabet {x0, ..., x_{size-1}}."""
        return Alphabet("x", size=size)

    @staticmethod
    def y(color_order: int | None = None) -> "Alphabet":
        """Weighted alphabet {y_k}, optionally colored mod ``color_order``."""
        return Alphabet("y", color_order=color_order)

    # -- letter protocol ---------------------------------------------------

    @property
    def is_x(self) -> bool:
        return self.kind == "x"

    @property
    def is_y(self) -> bool:
        return self.kind == "y"

    def check_letter(self, letter) -> None:
        if self.is_x:
            if not isinstance(letter, int) or not 0 <= letter < self.size:
                raise ValueError(f"not a letter of {self}: {letter!r}")
        else:
            if not (isinstance(letter, tuple) and len(letter) == 2):
                raise ValueError(f"not a letter of {self}: {letter!r}")
            k, c = letter
            if k < 1:
                raise ValueError(f"y letter weight must be >= 1: {letter!r}")
            if self.color_order is None:
                if c != 0:
                    raise ValueError(f"plain y alphabet has no colors: {letter!r}")
            elif not 0 <= c < self.color_order:
                raise ValueError(f"color out of range mod {self.color_order}: {letter!r}")

    def letter_weight(self, letter) -> int:
        return 1 if self.is_x else letter[0]

    def letter_key(self, letter):
        """Sort key realizing the stored total order on letters."""
        if self.is_x:
            return letter
        k, c = letter
        return (-k, c)  # heavier letters come first: ... y2 < y1

    def letter_display_key(self, letter):
        """Natural reading order for printed output (y1 before y2)."""
        return letter  # x: index; y: the (weight, color) pair itself

    def letter_name(self, letter) -> str:
        if self.is_x:
            return f"x{letter}"
        k, c = letter
        return f"y{k}" if self.color_order is None else f"y{k}@{c}"

    def letters(self, max_weight: int | None = None) -> list:
        """Letters in increasing order; a y alphabet requires ``max_weight``."""
        if self.is_x:
            return list(range(self.size))
        if max_weight is None:
            raise ValueError("y alphabet is infinite; give a max_weight")
        colors = range(self.color_order) if self.color_order is not None else (0,)
        out = [(k, c) for k in range(1, max_weight + 1) for c in colors]
        out.sort(key=self.letter_key)
        return out

    # -- word construction and text syntax ---------------------------------

    def word(self, letters: Iterable) -> "Word":
        return Word(self, tuple(letters))

    def empty_word(self) -> "Word":
        return Word(self, ())

    def parse_word(self, text: str) -> "Word":
        """Parse ``"x0 x1"`` / ``"y2 y1"`` / ``"y2@3 y1@0"``; ``""`` or ``"ε"`` is empty."""
        text = text.strip()
        if text in ("", "ε", "eps"):
            return self.empty_word()
        letters = []
        for tok in text.split():
            if self.is_x:
                if not tok.startswith("x"):
                    raise ValueError(f"expected an x letter, got {tok!r}")
                letters.append(int(tok[1:]))
            else:
                if not tok.startswith("y"):
                    raise ValueError(f"expected a y letter, got {tok!r}")
                body = tok[1:]
                if "@" in body:
                    k, c = body.split("@")
                    letters.append((int(k), int(c)))
                else:
                    letters.append((int(body), 0))
        w = Word(self, tuple(letters))
        return w


class Word:
    """An immutable word over a fixed alphabet, ordered by (grading, lex)."""

    __slots__ = ("alphabet", "letters", "_grading", "_hash")

    def __init__(self, alphabet: Alphabet, letters: tuple):
        for a in letters:
            alphabet.check_letter(a)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(
            self, "_grading", sum(alphabet.letter_weight(a) for a in letters)
        )
        object.__setattr__(self, "_hash", hash((alphabet, self.letters)))

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple, grading: int) -> "Word":
        """Unchecked constructor for letters already drawn from ``alphabet``."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "_grading", grading)
        object.__setattr__(w, "_hash", hash((alphabet, letters)))
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator:
        return iter(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def grading(self) -> int:
        """Length for x words, total weight for y words; 0 for the empty word."""
        return self._grading

    def lex_key(self) -> tuple:
        """Pure lexicographic key (proper prefixes sort first)."""
        return tuple(self.alphabet.letter_key(a) for a in self.letters)

    def sort_key(self) -> tuple:
        """Structural order key: grading first, then lexicographic."""
        return (self._grading, self.lex_key())

    def display_key(self) -> tuple:
        """Print order: grading, then natural reading order of the letters."""
        return (
            self._grading,
            tuple(self.alphabet.letter_display_key(a) for a in self.letters),
        )

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self.sort_key() <= other.sort_key()

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __repr__(self) -> str:
        return f"Word({self})"

    def __str__(self) -> str:
        if not self.letters:
            return "ε"
        return " ".join(self.alphabet.letter_name(a) for a in self.letters)


def grading(w: Word) -> int:
    return w.grading


def parse_alphabet(text: str) -> Alphabet:
    """``"x3"`` = three x letters; ``"y"`` plain weighted; ``"y@4"`` colored mod 4."""
    text = text.strip()
    if text.startswith("x"):
        return Alphabet.x(int(text[1:]))
    if text == "y":
        return Alphabet.y()
    if text.startswith("y@"):
        return Alphabet.y(color_order=int(text[2:]))
    raise ValueError(f"cannot parse alphabet {text!r}")


def alphabet_text(a: Alphabet) -> str:
    if a.is_x:
        return f"x{a.size}"
    return "y" if a.color_order is None else f"y@{a.color_order}"


# -- Lyndon machinery ------------------------------------------------------


def is_lyndon(w: Word) -> bool:
    """True iff ``w`` is strictly smaller than all of its proper suffixes."""
    if not w:
        raise ValueError("the empty word is not eligible")
    key = w.lex_key()
    return all(key < key[i:] for i in range(1, len(key)))


def _words_of_grading(alphabet: Alphabet, n: int) -> Iterator[Word]:
    """All words of grading exactly n: lexicographic for x, unordered for y."""
    if alphabet.is_x:
        for tup in itertools.product(alphabet.letters(), repeat=n):
            yield Word._trusted(alphabet, tup, n)
        return
    colors = (
        range(alphabet.color_order) if alphabet.color_order is not None else (0,)
    )

    def rec(remaining: int, prefix: tuple):
        if remaining == 0:
            yield Word._trusted(alphabet, prefix, n)
            return
        for k in range(1, remaining + 1):
            for c in colors:
                yield from rec(remaining - k, prefix + ((k, c),))

    yield from rec(n, ())


def words_up_to_grading(alphabet: Alphabet, max_grade: int) -> list[Word]:
    """All words of grading <= max_grade, sorted by (grading, lex)."""
    out = []
    for n in range(max_grade + 1):
        out.extend(_words_of_grading(alphabet, n))
    if not alphabet.is_x:  # x words already come grade by grade in lex order
        out.sort(key=Word.sort_key)
    return out


def lyndon_words(alphabet: Alphabet, max_grade: int) -> list[Word]:
    """Lyndon words of grading <= max_grade, sorted by (grading, lex)."""
    if max_grade < 1:
        raise ValueError("max_grade must be >= 1")
    out = [
        w
        for n in range(1, max_grade + 1)
        for w in _words_of_grading(alphabet, n)
        if is_lyndon(w)
    ]
    out.sort(key=Word.sort_key)
    return out


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of grading >= 2 as ``(s, r)`` with ``r`` the
    longest proper Lyndon suffix; both parts are Lyndon and ``s r == w``."""
    if len(w) < 2:
        raise ValueError("standard factorization needs at least two letters")
    if not is_lyndon(w):
        raise ValueError(f"not a Lyndon word: {w}")
    for i in range(1, len(w)):
        r = w[i:]
        if is_lyndon(r):
            return w[:i], r
    raise AssertionError("unreachable: the last letter is always Lyndon")


def lyndon_factorization(w: Word) -> list[Word]:
    """Unique non-increasing factorization of ``w`` into Lyndon words, in
    linear time by Duval's algorithm (J. Algorithms 4, 1983)."""
    key = w.lex_key()
    n = len(key)
    out = []
    i = 0
    while i < n:
        # key[i:j] is a power of a Lyndon word of length j - k, then a prefix of it
        j, k = i + 1, i
        while j < n and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            out.append(w[i:i + j - k])
            i += j - k
    return out
