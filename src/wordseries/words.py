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

Letters are validated where words enter the package: ``Word(...)`` itself,
``Alphabet.word``, ``Alphabet.parse_word`` and the JSON readers built on it.
Words derived from validated words (slices, concatenations, enumerations)
are built unchecked through ``Word._trusted``, their grading carried over
or summed instead of recomputed.  ``lyndon_words`` wraps the letter tuples
of a walk over the prenecklaces (``_lyndon_letters``, which also names them
for the ``lyndon`` verb), so it builds no word it does not return;
``words_up_to_grading`` wraps ``_graded_letters`` so, and the other modules
read its tuples instead.  Whether a word is Lyndon, and where its standard
factorization cuts it, is read off Duval's factorization (``_lyndon_cuts``);
``hopf.DualBases._cuts`` holds those cuts for the Lyndon products.

Words print through one printer, ``Alphabet.name``, which names a tuple of
letters from a table of letter names that the alphabet fills on first use.
"""

from __future__ import annotations

import functools
import math
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

    def weight(self, letters: tuple) -> int:
        """The grading of the word with these letters."""
        return len(letters) if self.kind == "x" else sum(k for k, _ in letters)

    def lex_key(self, letters: tuple) -> tuple:
        """The lexicographic key of the word with these letters."""
        return letters if self.kind == "x" else tuple((-k, c) for k, c in letters)  # letter_key of each letter

    def letter_key(self, letter):
        """Sort key realizing the stored total order on letters."""
        if self.is_x:
            return letter
        k, c = letter
        return (-k, c)  # heavier letters come first: ... y2 < y1

    def sort_key(self, letters: tuple) -> tuple:
        """Structural order key of the word with these letters: grading, then lex."""
        return (self.weight(letters), self.lex_key(letters))

    def display_key(self, letters: tuple) -> tuple:
        """Print order: grading, then natural reading order (y1 before y2)."""
        return (self.weight(letters), letters)

    def letter_name(self, letter) -> str:
        if self.is_x:
            return f"x{letter}"
        k, c = letter
        return f"y{k}" if self.color_order is None else f"y{k}@{c}"

    @functools.cached_property
    def _letter_names(self):
        """``letter_name`` with a table of the names already made."""
        return functools.cache(self.letter_name)

    def name(self, letters: tuple) -> str:
        """The printed name of the word with these letters: its letter names
        joined by spaces, "ε" for the empty word."""
        return " ".join(map(self._letter_names, letters)) if letters else "ε"

    def letters(self, max_weight: int | None = None) -> list:
        """Letters in increasing order; a y alphabet requires ``max_weight``."""
        if self.is_x:
            return list(range(self.size))
        if max_weight is None:
            raise ValueError("y alphabet is infinite; give a max_weight")
        colors = range(self.color_order) if self.color_order is not None else (0,)
        return [(k, c) for k in range(max_weight, 0, -1) for c in colors]  # heavier first, as letter_key orders

    # -- word construction and text syntax ---------------------------------

    def word(self, letters: Iterable) -> "Word":
        w = Word(self, tuple(letters))
        return w

    def empty_word(self) -> "Word":
        return Word._trusted(self, (), 0)

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
        # the letters alone: hashing the alphabet would run the dataclass's
        # Python __hash__ on every word built, and == tells alphabets apart
        object.__setattr__(self, "_hash", hash(self.letters))

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple, grading: int) -> "Word":
        """Unchecked constructor for letters already drawn from ``alphabet``."""
        w = object.__new__(cls)
        _set_alphabet(w, alphabet)
        _set_letters(w, letters)
        _set_grading(w, grading)
        _set_hash(w, hash(letters))
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
        # alphabets by identity first: the dataclass == runs Python code
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def grading(self) -> int:
        """Length for x words, total weight for y words; 0 for the empty word."""
        return self._grading

    def lex_key(self) -> tuple:
        """Pure lexicographic key (proper prefixes sort first)."""
        return self.alphabet.lex_key(self.letters)

    def sort_key(self) -> tuple:
        """Structural order key: grading first, then lexicographic."""
        return (self._grading, self.lex_key())

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self.sort_key() <= other.sort_key()

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word._trusted(
            self.alphabet, self.letters + other.letters, self._grading + other._grading
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            letters = self.letters[i]
            return Word._trusted(self.alphabet, letters, self.alphabet.weight(letters))
        return self.letters[i]

    def __repr__(self) -> str:
        return f"Word({self})"

    def __str__(self) -> str:
        return self.alphabet.name(self.letters)


# the slot setters, which skip the refusing __setattr__ at less cost than
# object.__setattr__ does: _trusted builds most of the package's words
_set_alphabet, _set_letters, _set_grading, _set_hash = (
    slot.__set__ for slot in (Word.alphabet, Word.letters, Word._grading, Word._hash)
)


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
    """True iff ``w`` is strictly smaller than all of its proper suffixes: one Lyndon factor."""
    if not w:
        raise ValueError("the empty word is not eligible")
    return _lyndon_cuts(w.lex_key()) == [0, len(w)]


# Enumerations admit at most this many words, all gradings <= the bound together,
_WORD_BUDGET = 1 << 18
# and, on x1, at most this many letters: 2^18 words of at most 17 letters, the x2 edge
_LETTER_BUDGET = 17 * _WORD_BUDGET


def _check_word_budget(alphabet: Alphabet, bound: int) -> None:
    """Refuse, before any allocation, a bound over the budget.  Grade k >= 1
    holds size^k x words, and m (m+1)^(k-1) y words with m colors (m = 1 on
    plain y), so gradings <= bound hold (m+1)^bound y words.  On x1 the
    letters are counted too: its words x0^0..x0^bound are few, but they hold
    bound (bound+1) / 2 letters."""
    size = alphabet.size if alphabet.is_x else (alphabet.color_order or 1) + 1
    n = max(bound, 0)
    if size == 1:
        words = n + 1
    elif n > 64:  # far over the budget; no exact count needed
        words = f"more than 2^{n}"
    else:
        words = (size ** (n + 1) - 1) // (size - 1) if alphabet.is_x else size**n
    if isinstance(words, int) and words <= _WORD_BUDGET:
        if size > 1 or n * (n + 1) // 2 <= _LETTER_BUDGET:
            return
        raise ValueError(
            f"gradings <= {bound} over x1 hold {n * (n + 1) // 2} letters, over the budget of {_LETTER_BUDGET} letters"
        )
    raise ValueError(
        f"gradings <= {bound} over {alphabet_text(alphabet)} hold {words} words, "
        f"over the budget of {_WORD_BUDGET} words"
    )


def _check_split_budget(alphabet: Alphabet, words: Iterable[tuple]) -> None:
    """Refuse, before any work, letter tuples whose split tables for ``pi1``
    would together exceed the word budget.

    A word's table holds the splits into two nonempty parts of each word its
    letters can be cut down to.  It is bounded letter by letter: an x letter
    is dropped, kept or split, 3 ways, so n x letters count 3^n.  A y letter
    of weight k over m colors (m = 1 on plain y) is dropped, kept with its
    2 + (k-1) m splits, or cut to one of the (k-1) m lighter letters y_j with
    2 + (j-1) m splits each: 3 + 3 m (k-1) + m^2 (k-1)(k-2)/2 ways, that is
    (k+1)(k+2)/2 on plain y.
    """
    m = alphabet.color_order or 1

    def count(letter) -> int:
        k = alphabet.letter_weight(letter) - 1
        return 3 + 3 * m * k + m * m * k * (k - 1) // 2

    total = sum(math.prod(map(count, letters)) for letters in words)
    if total > _WORD_BUDGET:
        raise ValueError(
            f"pi1 needs split tables of {total} entries, over the budget of {_WORD_BUDGET} entries"
        )


def words_up_to_grading(alphabet: Alphabet, max_grade: int) -> list[Word]:
    """All words of grading <= max_grade, sorted by (grading, lex); a bound
    over the word budget is refused with a ValueError."""
    grades = _graded_letters(alphabet, max_grade)
    return [Word._trusted(alphabet, letters, n) for n, grade in enumerate(grades) for letters in grade]


def _graded_letters(alphabet: Alphabet, max_grade: int) -> list[list[tuple]]:
    """The letter tuples of ``words_up_to_grading``, one list per grading
    0..max_grade ([] on a negative bound).  Grade n lists each letter a, in
    increasing order, followed by each word of grade n - weight(a): as no
    word is a proper prefix of another of its grade, this is lexicographic."""
    _check_word_budget(alphabet, max_grade)
    if max_grade < 0:
        return []
    grades: list[list[tuple]] = [[()]]
    for n in range(1, max_grade + 1):
        grade = []
        for a in alphabet.letters(max_weight=n):
            grade.extend((a,) + rest for rest in grades[n - alphabet.letter_weight(a)])
        grades.append(grade)
    return grades


def lyndon_words(alphabet: Alphabet, max_grade: int) -> list[Word]:
    """Lyndon words of grading <= max_grade, sorted by (grading, lex); a
    bound over the word budget is refused with a ValueError."""
    grades = _lyndon_letters(alphabet, max_grade)
    return [Word._trusted(alphabet, letters, n) for n, grade in enumerate(grades) for letters in grade]


def _lyndon_letters(alphabet: Alphabet, max_grade: int, named: bool = False) -> list[list]:
    """The letter tuples of the Lyndon words of ``lyndon_words`` (or their
    names, ``named``), one list per grading 0..max_grade.

    A depth-first walk over the prenecklaces, the prefixes of powers of
    Lyndon words (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms
    37, 2000).  If the longest Lyndon prefix of a prenecklace w has p
    letters, w a is a prenecklace exactly when a >= w[-p]; it keeps p when
    a == w[-p], and is itself Lyndon, with p = |w| + 1, when a > w[-p].
    Children are visited in increasing letter order, so each grade comes
    out lexicographic.  Letters are compared by their index in
    ``alphabet.letters``.  A prenecklace that starts with the largest letter
    is a power of it, so that letter is listed alone and not walked.  A name
    grows by " " and a letter's name where a tuple grows by (a,).
    """
    _check_word_budget(alphabet, max_grade)
    if max_grade < 1:
        raise ValueError("max_grade must be >= 1")
    letters = alphabet.letters(max_weight=max_grade)
    firsts = list(map(alphabet.letter_name, letters)) if named else [(a,) for a in letters]
    steps = [(j, " " + f if named else f, alphabet.letter_weight(a)) for j, (a, f) in enumerate(zip(letters, firsts))]
    tails = [steps[j:] for j in range(len(steps))]  # the steps to letters >= the j-th
    found: list[list] = [[] for _ in range(max_grade + 1)]

    def walk(word, indices: tuple, grading: int, p: int) -> None:
        if p == len(indices):
            found[grading].append(word)
        least = indices[-p]  # the index of w[-p]
        for j, step, k in tails[least]:
            if grading + k <= max_grade:
                walk(word + step, indices + (j,), grading + k, p if j == least else len(indices) + 1)

    for (j, _, k), first in zip(steps[:-1], firsts):
        walk(first, (j,), k, 1)
    found[1].append(firsts[-1])
    return found


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of grading >= 2 as ``(s, r)`` with ``r`` the
    longest proper Lyndon suffix; both parts are Lyndon and ``s r == w``."""
    if len(w) < 2:
        raise ValueError("standard factorization needs at least two letters")
    i = _standard_cut(w.lex_key())
    if i is None:
        raise ValueError(f"not a Lyndon word: {w}")
    return w[:i], w[i:]


def _standard_cut(key: tuple) -> int | None:
    """Where the standard factorization of the word with lexicographic key
    ``key`` (two or more letters) cuts it, or None if the word is not Lyndon.

    The right factor is the smallest proper suffix, which is the last
    Lyndon factor of ``key[1:]``."""
    return 1 + _lyndon_cuts(key[1:])[-2] if _lyndon_cuts(key) == [0, len(key)] else None


def lyndon_factorization(w: Word) -> list[Word]:
    """Unique non-increasing factorization of ``w`` into Lyndon words, in
    linear time by Duval's algorithm (J. Algorithms 4, 1983)."""
    cuts = _lyndon_cuts(w.lex_key())
    return [w[i:j] for i, j in zip(cuts, cuts[1:])]


def _lyndon_cuts(key: tuple) -> list[int]:
    """0 and the end of each Lyndon factor of the word with lexicographic
    key ``key``, in order."""
    n = len(key)
    cuts = [0]
    i = 0
    while i < n:
        # key[i:j] is a power of a Lyndon word of length j - k, then a prefix of it
        j, k = i + 1, i
        while j < n and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
            cuts.append(i)
    return cuts
