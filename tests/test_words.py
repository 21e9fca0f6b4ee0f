"""Word and Lyndon machinery, checked against brute-force rotation oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    lyndon_by_rotations,
    lyndon_count,
    lyndon_words_by_filter,
    standard_factorization_by_suffix_scan,
    words_by_product,
)
from wordseries.words import (
    Alphabet,
    Word,
    _graded_letters,
    _lyndon_letters,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    parse_alphabet,
    standard_factorization,
    words_up_to_grading,
)

X1 = Alphabet.x(1)
X2 = Alphabet.x(2)
Y = Alphabet.y()


def w(alphabet, text):
    return alphabet.parse_word(text)


def test_grading():
    assert w(X2, "").grading == 0
    assert w(X2, "x0 x1 x1").grading == 3
    yw = w(Y, "y2 y1")
    assert yw.grading == sum(k for k, _ in yw.letters) == 3


def test_word_identity_and_order():
    a, b = w(X2, "x0 x1"), w(X2, "x0 x1")
    assert a == b and hash(a) == hash(b)
    assert w(X2, "x1") < w(X2, "x0 x0")  # grading dominates
    assert a * w(X2, "x0") == w(X2, "x0 x1 x0")
    with pytest.raises(ValueError):
        w(X2, "x2")


def test_parse_format_round_trip():
    for text in ("", "ε", "x0", "x1 x0 x1"):
        word = w(X2, text)
        assert X2.parse_word(str(word)) == word
    ym = Alphabet.y(color_order=4)
    word = ym.parse_word("y2@3 y1@0")
    assert str(word) == "y2@3 y1@0"
    assert word.grading == 3


def test_lyndon_examples():
    assert [str(u) for u in lyndon_words(X2, 2)] == ["x0", "x1", "x0 x1"]
    grade3 = [str(u) for u in lyndon_words(X2, 3)]
    assert grade3 == ["x0", "x1", "x0 x1", "x0 x0 x1", "x0 x1 x1"]
    assert is_lyndon(w(X2, "x0 x1"))
    assert not is_lyndon(w(X2, "x1 x0"))
    assert is_lyndon(w(X2, "x0"))
    with pytest.raises(ValueError):
        is_lyndon(w(X2, ""))


def test_lyndon_against_rotation_oracle():
    for n in range(1, 11):
        for tup in itertools.product(range(2), repeat=n):
            word = Word(X2, tup)
            assert is_lyndon(word) == lyndon_by_rotations(word)


def test_the_lyndon_count_oracle_gives_the_known_counts():
    binary = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]  # the binary necklace counts
    assert [lyndon_count(X2, n) for n in range(1, 11)] == binary
    assert [lyndon_count(Y, n) for n in range(1, 5)] == [1, 1, 2, 3]  # y1, y2, y3 y2 y1, ...
    assert [lyndon_count(Alphabet.y(color_order=2), n) for n in (1, 2)] == [2, 3]
    assert [lyndon_count(X1, n) for n in range(1, 7)] == [1, 0, 0, 0, 0, 0]


# the largest grading each alphabet's budget admits (on x1 its letter budget)
BUDGET_EDGES = [("x1", 2984), ("x2", 17), ("x3", 10), ("x4", 8), ("y", 18), ("y@2", 11), ("y@3", 9), ("y@5", 6)]


@pytest.mark.parametrize("alphabet, top", BUDGET_EDGES)
def test_lyndon_counts_match_the_necklace_formula(alphabet, top):
    # the count, the Lyndon test and the strict order pin each grade's set
    alphabet = parse_alphabet(alphabet)
    grades = [[] for _ in range(top + 1)]
    for l in lyndon_words(alphabet, top):
        grades[l.grading].append(l)
    for n, grade in enumerate(grades[1:], 1):
        assert len(grade) == lyndon_count(alphabet, n)
        assert all(map(lyndon_by_rotations, grade))
        keys = [l.lex_key() for l in grade]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_y_alphabet_letter_order():
    # y1 is the largest letter: Lyndon words start with their heaviest block
    assert [str(u) for u in lyndon_words(Y, 3)] == ["y1", "y2", "y3", "y2 y1"]
    got = {str(u) for u in lyndon_words(Y, 4)}
    assert got == {"y1", "y2", "y3", "y4", "y2 y1", "y3 y1", "y2 y1 y1"}


def test_colored_letter_order():
    ym = Alphabet.y(color_order=2)
    letters = ym.letters(max_weight=2)
    assert [ym.letter_name(a) for a in letters] == ["y2@0", "y2@1", "y1@0", "y1@1"]


def test_colored_lyndon_words():
    ym = Alphabet.y(color_order=2)
    got = [str(w) for w in lyndon_words(ym, 2)]
    assert got == ["y1@0", "y1@1", "y2@0", "y2@1", "y1@0 y1@1"]


def test_standard_factorization():
    s, r = standard_factorization(w(X2, "x0 x0 x1"))
    assert (str(s), str(r)) == ("x0", "x0 x1")
    s, r = standard_factorization(w(X2, "x0 x1 x1"))
    assert (str(s), str(r)) == ("x0 x1", "x1")
    s, r = standard_factorization(w(X2, "x0 x1"))
    assert (str(s), str(r)) == ("x0", "x1")
    with pytest.raises(ValueError):
        standard_factorization(w(X2, "x0"))
    with pytest.raises(ValueError):
        standard_factorization(w(X2, "x1 x0"))


# grades at which the enumerate-and-filter oracle runs in well under 1 s
ORACLE_GRADES = [
    (Alphabet.x(1), 12), (X2, 13), (Alphabet.x(3), 8), (Alphabet.x(4), 7),
    (Y, 13), (Alphabet.y(color_order=2), 9), (Alphabet.y(color_order=3), 7),
]


@pytest.mark.parametrize(
    "alphabet, top", ORACLE_GRADES + [(alphabet, top) for alphabet, _ in ORACLE_GRADES for top in (-1, 0)]
)
def test_words_up_to_grading_matches_the_product_oracle(alphabet, top):
    got = words_up_to_grading(alphabet, top)
    expected = words_by_product(alphabet, top)
    assert got == expected
    assert [u.grading for u in got] == [u.grading for u in expected]


@pytest.mark.parametrize("alphabet, top", ORACLE_GRADES)
def test_the_lyndon_oracle_filters_the_product_oracle_as_it_filtered_the_library(alphabet, top):
    filtered = [u for u in words_up_to_grading(alphabet, top) if u and is_lyndon(u)]
    assert lyndon_words_by_filter(alphabet, top) == filtered


@pytest.mark.parametrize("alphabet, top", ORACLE_GRADES)
def test_lyndon_words_and_standard_factorization_match_the_oracles(alphabet, top):
    got = lyndon_words(alphabet, top)
    assert got == lyndon_words_by_filter(alphabet, top)
    assert all(u.grading == sum(alphabet.letter_weight(a) for a in u) for u in got)
    for l in got:
        if len(l) > 1:
            assert standard_factorization(l) == standard_factorization_by_suffix_scan(l)


@pytest.fixture
def words_built(monkeypatch):
    """The letters of every ``Word`` built, checked or not, from here on."""
    built = []
    trusted = Word._trusted.__func__
    checked = Word.__init__

    def count_trusted(cls, alphabet, letters, grading):
        built.append(letters)
        return trusted(cls, alphabet, letters, grading)

    def count_checked(self, alphabet, letters):
        built.append(letters)
        checked(self, alphabet, letters)

    monkeypatch.setattr(Word, "_trusted", classmethod(count_trusted))
    monkeypatch.setattr(Word, "__init__", count_checked)
    return built


def test_lyndon_words_builds_only_the_words_it_returns(words_built):
    got = lyndon_words(Alphabet.y(color_order=3), 6)
    assert len(words_built) == len(got) == len({u.letters for u in got})


def test_internal_paths_build_no_word(words_built):
    from wordseries.hopf import diagonal_factorization_check, duality_check
    from wordseries.linrep import sweedler_membership
    from wordseries.ncpoly import NCPoly, PhiTable, TruncSeries, is_character, is_infinitesimal_character, pi1

    stuffle = PhiTable.stuffle()
    window = TruncSeries(X2, 5, {u: Fraction(1, math.factorial(len(u))) for u in words_up_to_grading(X2, 5)})
    primitive = TruncSeries.from_poly(pi1(NCPoly.from_word(w(Y, "y2")), stuffle), 4)
    checks = {
        "duality_check": lambda: duality_check(Y, stuffle, 7),
        "diagonal_factorization_check": lambda: diagonal_factorization_check(X2, None, 6),
        "is_character of word_sum": lambda: is_character(TruncSeries.word_sum(X2, 6), "conc"),
        "is_infinitesimal_character": lambda: is_infinitesimal_character(primitive, "phi", phi=stuffle),
        "sweedler_membership": lambda: sweedler_membership(window),
    }
    for name, check in checks.items():
        words_built.clear()
        assert check(), name
        assert words_built == [], name


def _parsed_words(alphabet, letters):
    return st.lists(letters, max_size=6).map(
        lambda tup: alphabet.parse_word(" ".join(alphabet.letter_name(a) for a in tup))
    )


WORD_PAIRS = st.one_of(
    st.tuples(st.just(X2), _parsed_words(X2, st.integers(0, 1)), _parsed_words(X2, st.integers(0, 1))),
    *(
        st.tuples(st.just(a), _parsed_words(a, letters), _parsed_words(a, letters))
        for a, letters in (
            (Y, st.tuples(st.integers(1, 4), st.just(0))),
            (Alphabet.y(color_order=3), st.tuples(st.integers(1, 4), st.integers(0, 2))),
        )
    ),
)


@settings(deadline=None)
@given(WORD_PAIRS, st.integers(-7, 7), st.integers(-7, 7), st.sampled_from([None, 1, 2, -1]))
def test_slices_and_products_equal_the_validated_word(pair, start, stop, step):
    alphabet, u, v = pair
    for derived in (u * v, u[start:stop:step], (u * v)[start:stop]):
        validated = Word(alphabet, derived.letters)
        assert derived == validated
        assert hash(derived) == hash(validated)
        assert derived.grading == validated.grading
        assert derived.sort_key() == validated.sort_key()


@given(WORD_PAIRS)
def test_lex_key_is_the_tuple_of_letter_keys(pair):
    alphabet, u, v = pair
    for letters in (u.letters, v.letters, (u * v).letters):
        assert alphabet.lex_key(letters) == tuple(map(alphabet.letter_key, letters))


def test_standard_factorization_properties():
    for l in lyndon_words(X2, 7):
        if len(l) < 2:
            continue
        s, r = standard_factorization(l)
        assert s * r == l
        assert is_lyndon(s) and is_lyndon(r)
        assert s.lex_key() < l.lex_key() < r.lex_key()
        # r is the *longest* proper Lyndon suffix
        longer = [l[i:] for i in range(1, len(l) - len(r))]
        assert not any(is_lyndon(u) for u in longer)


def test_lyndon_factorization_unique_non_increasing():
    words = (
        words_up_to_grading(X2, 8)
        + words_up_to_grading(Y, 7)
        + words_up_to_grading(Alphabet.y(color_order=2), 5)
    )
    for word in words:
        if not word:
            continue
        factors = lyndon_factorization(word)
        joined = factors[0]
        for f in factors[1:]:
            joined = joined * f
        assert joined == word
        keys = [f.lex_key() for f in factors]
        assert all(a >= b for a, b in zip(keys, keys[1:]))
        assert all(is_lyndon(f) for f in factors)


def test_lyndon_factorization_y():
    word = w(Y, "y1 y2 y1 y3")
    factors = lyndon_factorization(word)
    assert all(is_lyndon(f) for f in factors)
    keys = [f.lex_key() for f in factors]
    assert all(a >= b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "alphabet, top",
    [(Alphabet.x(1), 6), (X2, 6), (Alphabet.x(3), 4), (Y, 7), (Alphabet.y(color_order=2), 5),
     (Alphabet.y(color_order=3), 4)],
)
def test_word_budget_counts_exactly_the_words_enumerated(alphabet, top, monkeypatch):
    from wordseries import words

    counts = [len(words_up_to_grading(alphabet, bound)) for bound in range(top + 1)]
    for bound in range(1, top + 1):
        count = counts[bound]
        monkeypatch.setattr(words, "_WORD_BUDGET", count)
        words_up_to_grading(alphabet, bound)
        lyndon_words(alphabet, bound)
        monkeypatch.setattr(words, "_WORD_BUDGET", count - 1)
        for enumerate_words in (words_up_to_grading, lyndon_words):
            with pytest.raises(ValueError, match=f"hold {count} words, over the budget of {count - 1}"):
                enumerate_words(alphabet, bound)


def test_word_budget_edges():
    from wordseries.words import _check_word_budget

    _check_word_budget(X2, 17)  # 2^18 - 1 words
    _check_word_budget(Y, 18)  # 2^18 words
    with pytest.raises(ValueError, match="524287 words"):
        words_up_to_grading(X2, 18)
    with pytest.raises(ValueError, match="hold 524288 words"):
        lyndon_words(Y, 19)
    with pytest.raises(ValueError, match="hold more than 2\\^100 words"):
        lyndon_words(Alphabet.y(color_order=3), 100)
    with pytest.raises(ValueError, match="hold 1000001 words"):
        words_up_to_grading(Alphabet.x(1), 10**6)
    assert words_up_to_grading(X2, -2) == [] and words_up_to_grading(Y, -1) == []
    with pytest.raises(ValueError, match="more than 2\\^65 words"):
        words_up_to_grading(X2, 65)


def test_x1_letter_budget_edge(monkeypatch):
    from wordseries import hopf

    # gradings <= 2984 over x1 hold 2984 * 2985 / 2 = 4453620 letters; one more grade is over 17 * 2^18
    assert len(words_up_to_grading(X1, 2984)) == 2985
    assert [str(l) for l in lyndon_words(X1, 2984)] == ["x0"]
    refusal = "gradings <= 2985 over x1 hold 4456605 letters, over the budget of 4456448 letters"
    for enumerate_words in (words_up_to_grading, lyndon_words, lambda a, n: hopf.duality_check(a, None, n)):
        with pytest.raises(ValueError, match=refusal):
            enumerate_words(X1, 2985)
    monkeypatch.setattr(hopf.DualBases, "_pairs", lambda self: [])  # stop once the words are enumerated
    assert hopf.duality_check(X1, bound=2984) == (2985, [])


@pytest.mark.parametrize("text", ["x1", "x2", "x3", "x4", "y", "y@2", "y@3"])
def test_the_walk_names_the_lyndon_words_it_walks(text):
    alphabet = parse_alphabet(text)
    for bound in (1, 2, 5):
        letters = _lyndon_letters(alphabet, bound)
        names = _lyndon_letters(alphabet, bound, named=True)
        assert names == [[alphabet.name(w) for w in grade] for grade in letters]
    with pytest.raises(ValueError, match="max_grade must be >= 1"):
        _lyndon_letters(alphabet, 0, named=True)


@pytest.mark.parametrize("text", ["x1", "x3", "y", "y@3"])
def test_sort_keys_order_by_grading_then_letters(text):
    # grading, then the letters, heavier y letters first and colours in order
    alphabet = parse_alphabet(text)
    for w in itertools.chain.from_iterable(_graded_letters(alphabet, 5)):
        want = (len(w), w) if alphabet.is_x else (sum(k for k, _ in w), tuple((-k, c) for k, c in w))
        assert alphabet.sort_key(w) == want and alphabet.lex_key(w) == want[1] and alphabet.weight(w) == want[0]
