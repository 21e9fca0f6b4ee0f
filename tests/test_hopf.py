"""Dual bases and the diagonal-series factorization."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    binomial_gamma,
    diagonal_by_fractions,
    dual_bases_by_fractions,
    duality_by_fractions,
    phi_pi1,
    pi1_by_fractions,
    pi1_of,
    sigma_by_inverse,
)

from wordseries.hopf import DualBases, diagonal_factorization_check, duality_check
from wordseries.ncpoly import (
    NCPoly,
    PhiTable,
    TensorPoly,
    _combination,
    delta_phi,
    pi1,
    shuffle,
)
from wordseries.words import (
    Alphabet,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    parse_alphabet,
    words_up_to_grading,
)

X2 = Alphabet.x(2)
Y = Alphabet.y()
STUFFLE = PhiTable.stuffle()


def xp(text, c=1):
    return NCPoly.from_word(X2.parse_word(text), Fraction(c))


def yp(text, c=1):
    return NCPoly.from_word(Y.parse_word(text), Fraction(c))


@pytest.fixture(scope="module")
def xb():
    return DualBases(X2)


@pytest.fixture(scope="module")
def yb():
    return DualBases(Y, STUFFLE)


def test_p_examples(xb):
    assert xb.p(X2.parse_word("x0")) == xp("x0")
    assert xb.p(X2.parse_word("x0 x1")) == xp("x0 x1") - xp("x1 x0")
    assert xb.p(X2.parse_word("x1 x0")) == xp("x1 x0")


def test_s_examples(xb):
    assert xb.s(X2.parse_word("x0 x1")) == xp("x0 x1")
    assert xb.s(X2.parse_word("x0 x0")) == xp("x0 x0")
    assert xb.s(X2.parse_word("x1 x0")) == xp("x1 x0") + xp("x0 x1")


def test_p_is_homogeneous_and_lie(xb):
    # P_l for Lyndon l kills the coefficient of words that are proper shuffles
    for l in lyndon_words(X2, 5):
        p = xb.p(l)
        assert {w.grading for w in p.terms} == {l.grading}
        # a Lie element is primitive for the unshuffle coproduct; spot check
        # via the pairing with shuffle products of two nonempty words
        for u, v in itertools.product([w for w in words_up_to_grading(X2, 4) if w], repeat=2):
            if u.grading + v.grading == l.grading:
                assert shuffle(NCPoly.from_word(u), NCPoly.from_word(v)).pairing(p) == 0


def right_bracketing(p: NCPoly) -> NCPoly:
    """Dynkin map: w -> [w_1, [w_2, [... w_n]]], extended linearly."""
    from wordseries.ncpoly import conc
    from wordseries.words import Word

    out = NCPoly.zero(p.alphabet)
    for w, c in p.terms.items():
        acc = NCPoly.from_word(Word(p.alphabet, (w.letters[-1],)))
        for letter in reversed(w.letters[:-1]):
            lp = NCPoly.from_word(Word(p.alphabet, (letter,)))
            acc = conc(lp, acc) - conc(acc, lp)
        out = out + acc * c
    return out


def test_p_satisfies_dynkin_criterion(xb):
    # homogeneous degree-n Lie elements are fixed points of (Dynkin map)/n
    for l in lyndon_words(X2, 5):
        p = xb.p(l)
        assert right_bracketing(p) == p * l.grading


def test_sp_duality(xb):
    words = words_up_to_grading(X2, 4)
    for u in words:
        for v in words:
            expected = Fraction(1 if u == v else 0)
            assert xb.s(u).pairing(xb.p(v)) == expected


def test_pi_examples(yb):
    assert yb.pi(Y.parse_word("y1")) == yp("y1")
    pi_y2 = yb.pi(Y.parse_word("y2"))
    assert pi_y2 == yp("y2") - yp("y1 y1", Fraction(1, 2))
    assert pi_y2 == pi1(yp("y2"), STUFFLE)


def test_pi_lyndon_primitive(yb):
    e = Y.empty_word()
    for l in lyndon_words(Y, 4):
        p = yb.pi(l)
        d = delta_phi(p, STUFFLE)
        primitive = TensorPoly(Y, {(w, e): c for w, c in p.terms.items()}) + TensorPoly(
            Y, {(e, w): c for w, c in p.terms.items()}
        )
        assert d == primitive


def test_sigma_examples(yb):
    assert yb.sigma(Y.parse_word("y1")) == yp("y1")
    words = words_up_to_grading(Y, 4)
    for u in words:
        for v in words:
            expected = Fraction(1 if u == v else 0)
            assert yb.sigma(u).pairing(yb.pi(v)) == expected


def test_sigma_pi_duality_to_weight_five(yb):
    words = [w for w in words_up_to_grading(Y, 5) if w.grading == 5]
    for u in words:
        for v in words:
            expected = Fraction(1 if u == v else 0)
            assert yb.sigma(u).pairing(yb.pi(v)) == expected


def test_gamma_zero_degenerates_to_shuffle_pair():
    degenerate = DualBases(Y, PhiTable.zero())
    plain = DualBases(Y)
    for w in words_up_to_grading(Y, 5):
        assert degenerate.pi(w) == plain.p(w)
        assert degenerate.sigma(w) == plain.s(w)


def test_pi_requires_phi():
    with pytest.raises(ValueError):
        DualBases(Y).pi(Y.parse_word("y1"))
    with pytest.raises(ValueError):
        DualBases(X2, STUFFLE)


@pytest.mark.parametrize("family", ["pi", "sigma"])
def test_pi_and_sigma_refuse_without_a_gamma_table(family):
    bases = DualBases(Y)
    for text in ("y1", "y2 y1", "y1 y1 y2"):
        with pytest.raises(ValueError, match="^Pi/Sigma need a y alphabet with a gamma table$"):
            getattr(bases, family)(Y.parse_word(text))
    assert bases._pairs() == [("S/P", bases._s, bases._p)]  # the duality checks never reach Pi/Sigma


def test_the_accessors_refuse_a_word_over_another_alphabet():
    x3, y2 = Alphabet.x(3).parse_word("x2 x0"), Alphabet.y(2).parse_word("y1@1 y2@0")
    cases = [(DualBases(X2), ("p", "s"), (x3, Y.parse_word("y1"))),
             (DualBases(Y, STUFFLE), ("p", "s", "pi", "sigma"), (y2, X2.parse_word("x1 x0")))]
    for bases, families, words in cases:
        for family, w in itertools.product(families, words):
            with pytest.raises(ValueError, match="^word over a different alphabet$"):
                getattr(bases, family)(w)
    assert DualBases(Alphabet.x(3)).p(x3) == NCPoly.from_word(x3)  # its own alphabet is taken


def test_phi_pi1_is_triangular_with_unit_diagonal(yb):
    # on each graded piece, sorted by (letter count, lex), the automorphism
    # y_k -> pi1(y_k) has unit diagonal and only adds longer words
    for grade in range(1, 7):
        words = [w for w in words_up_to_grading(Y, grade) if w.grading == grade]
        words.sort(key=lambda w: (len(w), w.lex_key()))
        for j, w in enumerate(words):
            image = phi_pi1(yb, NCPoly.from_word(w))
            assert image.coeff(w) == 1
            for i, u in enumerate(words):
                if len(u) < len(w):
                    assert image.coeff(u) == 0


@pytest.mark.parametrize(
    "alphabet, phi",
    [(Y, STUFFLE), (Y, binomial_gamma(2)), (Y, binomial_gamma(-1)), (Alphabet.y(color_order=2), STUFFLE)],
    ids=["stuffle", "binomial-2", "binomial-minus-1", "y@2"],
)
def test_shared_letter_images_match_pi1_of_each_letter(alphabet, phi):
    # one DualBases computes every pi1(y_k) from one pair of shared caches,
    # heaviest letter first; pi1 recomputes each letter from empty caches
    bases = DualBases(alphabet, phi)
    for letter in alphabet.letters(max_weight=8):
        assert pi1_of(bases, letter) == pi1(NCPoly.from_word(alphabet.word([letter])), phi), letter


def test_radford_words_are_polynomials_in_lyndon_s(xb):
    # rewrite each word as an exact shuffle polynomial in {S_l}: the
    # triangular rewriting implicit in the divided-power construction
    import math

    from wordseries.words import lyndon_factorization

    def rewrite(p: NCPoly, budget=200) -> NCPoly:
        """Express p in the S_l shuffle algebra; returns the reconstruction."""
        recon = NCPoly.zero(X2)
        while p and budget:
            budget -= 1
            # peel the lex-largest word of the highest grading
            w = max(p.terms, key=lambda w: w.sort_key())
            c = p.coeff(w)
            factors = lyndon_factorization(w)
            prod = NCPoly.one(X2)
            denom = 1
            for l, mult in itertools.groupby(factors):
                count = len(list(mult))
                denom *= math.factorial(count)
                for _ in range(count):
                    prod = shuffle(prod, xb.s(l))
            term = prod * Fraction(1, denom)
            # term = w + lexicographically smaller words (triangularity)
            assert term.coeff(w) == 1
            recon = recon + term * c
            p = p - term * c
        assert not p, "rewriting did not terminate"
        return recon

    for w in words_up_to_grading(X2, 4):
        if w:
            rewrite(NCPoly.from_word(w))


def test_diagonal_factorization_x():
    assert diagonal_factorization_check(X2, None, 4).equal


def test_diagonal_factorization_y():
    assert diagonal_factorization_check(Y, STUFFLE, 4).equal


def test_diagonal_factorization_trivial_bound():
    assert diagonal_factorization_check(X2, None, 1).equal
    assert diagonal_factorization_check(Y, STUFFLE, 1).equal


def test_diagonal_factorization_needs_decreasing_order():
    report = diagonal_factorization_check(X2, None, 4, decreasing=False)
    assert not report.equal
    assert report.detail == "P(x1 x0) is not the product of its Lyndon factors"


@pytest.mark.parametrize("decreasing", [True, False])
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "alphabet, phi, failures",
    [
        (X2, None, {False: "P(x1 x0)"}),
        (Alphabet.x(3), None, {False: "P(x1 x0)"}),
        (Y, STUFFLE, {False: "Pi(y1 y2)"}),
        (Y, binomial_gamma(Fraction(1, 2)), {False: "Pi(y1 y2)"}),
        (Alphabet.y(color_order=2), STUFFLE, {False: "Pi(y1@1 y1@0)"}),
        (Alphabet.y(color_order=3), STUFFLE, {False: "Pi(y1@1 y1@0)"}),
        (Y, PhiTable({(1, 1): 2}, validate_to=0), {True: "Sigma(y1 y2 y1)", False: "Pi(y1 y2)"}),
    ],
    ids=["x2", "x3", "y-stuffle", "y-half-binomial", "y@2", "y@3", "y-not-associative"],
)
def test_diagonal_factorization_matches_the_fraction_oracle(alphabet, phi, failures, bound, decreasing):
    # the verdict of the literal product of exponentials, and a failure
    # names the element that is not the product of its Lyndon factors: in
    # the increasing order (the negative control) a concatenation, and on a
    # table that is not associative at weight 4 a phi-shuffle product
    got = diagonal_factorization_check(alphabet, phi, bound, decreasing=decreasing)
    assert got.equal == diagonal_by_fractions(alphabet, phi, bound, decreasing).equal
    assert got.detail == ("" if got.equal else f"{failures.get(decreasing)} is not the product of its Lyndon factors")


def _mutant(exact, target: tuple, kind: str):
    """The form method ``exact`` of ``DualBases`` with its form at the letter
    tuple ``target`` changed in one place: the first term's coefficient
    doubled ("coefficient") or negated ("sign"), or the first term that is
    not a palindrome written backwards ("reversed")."""

    def method(self, w):
        terms, den = exact(self, w)
        if w != target:
            return terms, den
        terms = dict(terms)
        if kind == "reversed":
            t = min(t for t in terms if t != t[::-1])
            terms[t[::-1]] = terms.get(t[::-1], 0) + terms.pop(t)
        else:
            t = min(terms)
            terms[t] *= 2 if kind == "coefficient" else -1
        return {t: c for t, c in terms.items() if c}, den

    return method


@pytest.mark.parametrize("kind", ["coefficient", "sign", "reversed"])
@pytest.mark.parametrize("method", ["_p", "_s", "_pi", "_sigma", "_contract"])
@pytest.mark.parametrize("alphabet, phi, target", [(X2, None, "x1 x0"), (Y, STUFFLE, "y1 y2")], ids=["x2", "y"])
def test_diagonal_factorization_agrees_with_the_fraction_oracle_on_mutants(
    monkeypatch, alphabet, phi, target, method, kind
):
    # both see the same mutated DualBases; x2 never calls the Pi/Sigma
    # methods, y's Sigma/Pi pair never calls _p (Pi runs P's recursion from
    # the letter images, test_p_mutants_on_y_fail_the_duality_check), and
    # every mutant that is called fails by N 5
    monkeypatch.setattr(DualBases, method, _mutant(getattr(DualBases, method), alphabet.parse_word(target).letters, kind))
    for bound in (3, 4, 5):
        got = diagonal_factorization_check(alphabet, phi, bound)
        assert got.equal == diagonal_by_fractions(alphabet, phi, bound).equal
    assert got.equal == (method in (("_pi", "_sigma", "_contract") if alphabet.is_x else ("_p",)))


@pytest.mark.parametrize(
    "kind, failure",
    [
        ("coefficient", "at <y1 y2, y1 y2> = 2"),
        ("sign", "at <y1 y2, y1 y2> = -1"),
        ("reversed", "at <y2 y1, y1 y2> = 1"),
    ],
    ids=["coefficient", "sign", "reversed"],
)
def test_p_mutants_on_y_fail_the_duality_check(monkeypatch, kind, failure):
    # the y diagonal check reads only Sigma/Pi; the S/P pair that duality
    # checks first still catches each mutant of P_(y1 y2)
    monkeypatch.setattr(DualBases, "_p", _mutant(DualBases._p, Y.parse_word("y1 y2").letters, kind))
    for bound in (3, 4, 5):
        assert duality_check(Y, STUFFLE, bound) == (2 ** bound, [("S/P", failure)])


def test_halved_gamma_deformation():
    # a genuine deformation that is neither the shuffle nor the quasi-shuffle:
    # constant gamma = 1/2 (associative: c*c = c*c)
    half = PhiTable(default=Fraction(1, 2), validate_to=5)
    bases = DualBases(Y, half)
    words = words_up_to_grading(Y, 3)
    for u in words:
        su = bases.sigma(u)
        for v in words:
            assert su.pairing(bases.pi(v)) == (1 if u == v else 0)
    assert diagonal_factorization_check(Y, half, 3).equal
    assert bases.pi(Y.parse_word("y2")) == yp("y2") - yp("y1 y1", Fraction(1, 4))


def test_colored_dual_bases_and_diagonal():
    # second roots of unity: letters carry colors, merges add them mod 2
    ym = Alphabet.y(color_order=2)
    bases = DualBases(ym, STUFFLE)
    words = words_up_to_grading(ym, 3)
    for u in words:
        su = bases.sigma(u)
        for v in words:
            assert su.pairing(bases.pi(v)) == (1 if u == v else 0)
    assert diagonal_factorization_check(ym, STUFFLE, 3).equal


@pytest.mark.parametrize(
    "alphabet, phi, top",
    [
        (Y, STUFFLE, 7),
        (Y, binomial_gamma(2), 6),
        (Y, binomial_gamma(-1), 6),
        (Alphabet.y(color_order=2), STUFFLE, 4),
        (Alphabet.y(color_order=3), STUFFLE, 3),
    ],
    ids=["stuffle", "binomial-2", "binomial-minus-1", "y@2", "y@3"],
)
def test_sigma_closed_form_matches_the_duality_inverse(alphabet, phi, top):
    # the oracle builds Pi on the whole grade on its own instance and
    # inverts the dense duality matrix over Fraction
    closed, dense = DualBases(alphabet, phi), DualBases(alphabet, phi)
    for grade in range(1, top + 1):
        for w, want in sigma_by_inverse(dense, grade).items():
            assert closed.sigma(w) == want, w


def test_stuffle_sigma_of_a_letter_power_is_hoffman_exp():
    # with the stuffle, Phi^-1 is Hoffman's exp: a block of l letters y1
    # contracts to y_l with weight 1/l!
    bases = DualBases(Y, STUFFLE)
    for n in range(1, 7):
        want = NCPoly.zero(Y)
        for size in range(1, n + 1):
            for parts in itertools.combinations(range(1, n), size - 1):
                lengths = [b - a for a, b in zip((0, *parts), (*parts, n))]
                word = Y.word((l, 0) for l in lengths)
                coeff = Fraction(1, math.prod(math.factorial(l) for l in lengths))
                want = want + NCPoly.from_word(word, coeff)
        assert bases.sigma(Y.word([(1, 0)] * n)) == want


# -- integer forms against the Fraction oracles ----------------------------------------

ORACLE_CASES = [
    (X2, None, 6),
    (Alphabet.x(3), None, 6),
    (Y, STUFFLE, 6),
    (Y, binomial_gamma(2), 6),
    (Y, binomial_gamma(Fraction(1, 2)), 6),
    (Alphabet.y(color_order=2), STUFFLE, 5),
    (Alphabet.y(color_order=2), binomial_gamma(2), 5),
    (Alphabet.y(color_order=2), binomial_gamma(Fraction(1, 2)), 5),
]
ORACLE_WORDS = [[w for w in words_up_to_grading(a, top) if w] for a, _, top in ORACLE_CASES]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_pi1_and_the_dual_bases_match_the_fraction_oracles(data):
    # pi1, P and S, and on y alphabets Pi and Sigma, from the integer forms
    # on letter tuples against Word-keyed Fraction recomputations; the
    # gamma table C(i+j, i) / 2 has rational entries, where the integer
    # forms must clear the denominators exactly
    case = data.draw(st.integers(0, len(ORACLE_CASES) - 1))
    alphabet, phi, _ = ORACLE_CASES[case]
    w = data.draw(st.sampled_from(ORACLE_WORDS[case]))
    bases, oracle = DualBases(alphabet, phi), dual_bases_by_fractions(alphabet, phi)
    got = pi1(NCPoly.from_word(w), phi)
    assert got == pi1_by_fractions(NCPoly.from_word(w), phi)
    families = ["p", "s"] + (["pi", "sigma"] if phi is not None else [])
    for family in families:
        element = getattr(bases, family)(w)
        assert element == getattr(oracle, family)(w), (family, w)
        assert all(type(c) is Fraction for c in element.terms.values())


def test_pi_matches_the_fraction_oracle_on_a_table_that_is_not_associative():
    # gamma(3, 4) = 2 breaks associativity at weight 7; Phi is a morphism of
    # concatenation whatever gamma is, so P's recursion from the letter
    # images still gives Phi(P_w), which the oracle builds word by word
    phi = PhiTable({(3, 4): 2}, validate_to=0)
    bases, oracle = DualBases(Y, phi), dual_bases_by_fractions(Y, phi)
    words = [w for w in words_up_to_grading(Y, 8) if w.grading >= 7]
    assert len(words) == 192
    for w in words:
        assert bases.pi(w) == oracle.pi(w), w


# the integer-form method of each family in a pair name
FAMILY_METHODS = {"S": "_s", "P": "_p", "Sigma": "_sigma", "Pi": "_pi"}


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_duality_check_matches_the_fraction_oracle(data):
    # the check on the integer forms against the same Gram on elements
    # rebuilt as NCPolys: equal word counts, verdicts and failure texts,
    # exact, with one coefficient perturbed or one term of another grade
    case = data.draw(st.integers(0, len(ORACLE_CASES) - 1))
    alphabet, phi, top = ORACLE_CASES[case]
    bound = data.draw(st.integers(0, top - 1))
    perturbation = data.draw(st.sampled_from(["none", "coefficient", "grade"]))
    words = [w for w in ORACLE_WORDS[case] if w.grading <= bound] + [alphabet.empty_word()]
    u = data.draw(st.sampled_from(words))
    same = [w for w in words if w.grading == u.grading]
    extra = data.draw(st.sampled_from(same)).letters
    if perturbation == "grade":
        extra += ORACLE_WORDS[case][0].letters
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    names = ["S", "P"] + (["Sigma", "Pi"] if phi is not None else [])
    method = FAMILY_METHODS[data.draw(st.sampled_from(names))]
    exact = getattr(DualBases, method)

    def perturbed(self, w):
        terms, den = exact(self, w)
        if perturbation != "none" and w == u.letters:
            return _combination([(1, terms, den), (c.numerator, {extra: 1}, c.denominator)])
        return terms, den

    with mock.patch.object(DualBases, method, perturbed):
        got = duality_check(alphabet, phi, bound)
        want = duality_by_fractions(alphabet, phi, bound)
    assert got == want
    assert (got[1][-1][1] is None) == (perturbation == "none"), got


@pytest.mark.parametrize("alphabet, phi", [(X2, None), (Alphabet.x(3), None), (Y, STUFFLE),
                                           (Alphabet.y(color_order=2), STUFFLE)])
def test_every_word_to_grade_six_matches_the_fraction_oracle(alphabet, phi):
    # the bracket recursion cuts each word once: P, S, and Pi and Sigma on y,
    # against the oracle's standard and Lyndon factorizations
    bases, oracle = DualBases(alphabet, phi), dual_bases_by_fractions(alphabet, phi)
    families = ["p", "s"] + (["pi", "sigma"] if phi is not None else [])
    for w in words_up_to_grading(alphabet, 6):
        for family in families:
            assert getattr(bases, family)(w) == getattr(oracle, family)(w), (family, w)


def split_by_factorization(w, decreasing):
    """(u, v, k) read off the public Lyndon factorization of w: v the power
    of the factor taken last (first) in decreasing (increasing) order."""
    runs = [(l.letters, len(list(run))) for l, run in itertools.groupby(lyndon_factorization(w))]
    if decreasing:
        runs.reverse()
    (l, k), rest = runs[0], runs[1:]
    if not rest:
        return (l * (k - 1), l, k) if k > 1 else None
    others = tuple(itertools.chain.from_iterable(f * c for f, c in (reversed(rest) if decreasing else rest)))
    return others, l * k, 1


@pytest.mark.parametrize("text", ["x2", "x3", "y", "y@2"])
def test_split_takes_the_lyndon_power_at_either_end(text):
    # every word to grade 6, in both orders of the exponentials; a Lyndon
    # word is not split, and neither is the empty word
    alphabet = parse_alphabet(text)
    bases = DualBases(alphabet)
    assert bases._split((), True) is None and bases._split((), False) is None
    for w in words_up_to_grading(alphabet, 6)[1:]:
        for decreasing in (True, False):
            split = bases._split(w.letters, decreasing)
            assert split == split_by_factorization(w, decreasing), (w, decreasing)
            assert (split is None) == is_lyndon(w), (w, decreasing)
