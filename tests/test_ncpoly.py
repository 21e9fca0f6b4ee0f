"""Products, coproducts, the eulerian idempotent, and character tests.

Oracles: shuffles are brute-forced over interleaving position choices, the
eulerian idempotent is expanded directly from its defining sum over word
tuples, and dualities are checked coefficient by coefficient.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    add_by_words,
    binomial_gamma,
    coproduct_by_words,
    json_ratio_by_fraction,
    non_associative_word_triple,
    pi1_by_fractions,
    poly_json_by_words,
    poly_str_by_words,
    product_by_words,
    scale_by_words,
    series_power_sum_by_words,
    series_str_by_words,
    tensor_json_by_words,
    tensor_str_by_words,
)

from wordseries import ncpoly
from wordseries.ncpoly import (
    NCPoly,
    PhiTable,
    TensorPoly,
    TruncSeries,
    conc,
    delta_conc,
    delta_phi,
    delta_shuffle,
    is_character,
    is_infinitesimal_character,
    phi_shuffle,
    pi1,
    shuffle,
)
from wordseries.linrep import exp_trunc, log_trunc
from wordseries.words import Alphabet, Word, words_up_to_grading

X2 = Alphabet.x(2)
Y = Alphabet.y()
STUFFLE = PhiTable.stuffle()
GAMMA0 = PhiTable.zero()


def xw(text):
    return X2.parse_word(text)


def yw(text):
    return Y.parse_word(text)


def poly(alphabet, text, coeff=1):
    return NCPoly.from_word(alphabet.parse_word(text), Fraction(coeff))


# -- oracle: shuffle by explicit interleavings ------------------------------


def shuffle_oracle(u: Word, v: Word) -> NCPoly:
    out = NCPoly.zero(u.alphabet)
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        letters = [None] * (n + m)
        ui = iter(u.letters)
        vi = iter(v.letters)
        for i in range(n + m):
            letters[i] = next(ui) if i in positions else next(vi)
        out = out + NCPoly.from_word(Word(u.alphabet, tuple(letters)))
    return out


def test_conc():
    assert conc(poly(X2, "x0"), poly(X2, "x1")) == poly(X2, "x0 x1")
    p = poly(X2, "x0") + poly(X2, "x1")
    assert conc(p, poly(X2, "x0")) == poly(X2, "x0 x0") + poly(X2, "x1 x0")
    assert conc(NCPoly.one(X2), p) == p
    with pytest.raises(ValueError):
        conc(poly(X2, "x0"), poly(Y, "y1"))


def test_shuffle_examples():
    assert shuffle(poly(X2, "x0"), poly(X2, "x1")) == poly(X2, "x0 x1") + poly(X2, "x1 x0")
    assert shuffle(poly(X2, "x0"), poly(X2, "x0")) == poly(X2, "x0 x0", 2)
    assert shuffle(poly(X2, "x0 x1"), poly(X2, "x0")) == poly(X2, "x0 x0 x1", 2) + poly(
        X2, "x0 x1 x0"
    )


def test_shuffle_against_interleaving_oracle():
    words = [w for w in words_up_to_grading(X2, 3) if w]
    for u, v in itertools.product(words, repeat=2):
        assert shuffle(NCPoly.from_word(u), NCPoly.from_word(v)) == shuffle_oracle(u, v)


def test_phi_shuffle_examples():
    y1, y1p = poly(Y, "y1"), poly(Y, "y1")
    assert phi_shuffle(y1, y1p, STUFFLE) == poly(Y, "y1 y1", 2) + poly(Y, "y2")
    assert phi_shuffle(y1, y1p, GAMMA0) == poly(Y, "y1 y1", 2)
    assert phi_shuffle(y1, y1p, GAMMA0) == shuffle(y1, y1p)
    with pytest.raises(ValueError):
        phi_shuffle(poly(X2, "x0"), poly(X2, "x0"), STUFFLE)


def test_phi_shuffle_colored():
    ym = Alphabet.y(color_order=3)
    a = NCPoly.from_word(ym.parse_word("y1@1"))
    b = NCPoly.from_word(ym.parse_word("y1@2"))
    got = phi_shuffle(a, b, STUFFLE)
    expected = (
        NCPoly.from_word(ym.parse_word("y1@1 y1@2"))
        + NCPoly.from_word(ym.parse_word("y1@2 y1@1"))
        + NCPoly.from_word(ym.parse_word("y2@0"))  # colors multiply: 1 + 2 = 0 mod 3
    )
    assert got == expected


def test_product_laws_commute_and_associate():
    # every triple of nonempty binary words with total grading <= 6
    xwords = [w for w in words_up_to_grading(X2, 4) if w]
    for u, v in itertools.combinations(xwords, 2):
        if u.grading + v.grading <= 6:
            pu, pv = NCPoly.from_word(u), NCPoly.from_word(v)
            assert shuffle(pu, pv) == shuffle(pv, pu)
    for u, v, w in itertools.product(xwords, repeat=3):
        if u.grading + v.grading + w.grading > 6:
            continue
        pu, pv, pw = map(NCPoly.from_word, (u, v, w))
        assert shuffle(shuffle(pu, pv), pw) == shuffle(pu, shuffle(pv, pw))
    ywords = [w for w in words_up_to_grading(Y, 4) if w]
    for u, v, w in itertools.product(ywords, repeat=3):
        if u.grading + v.grading + w.grading > 6:
            continue
        pu, pv, pw = map(NCPoly.from_word, (u, v, w))
        assert phi_shuffle(phi_shuffle(pu, pv, STUFFLE), pw, STUFFLE) == phi_shuffle(
            pu, phi_shuffle(pv, pw, STUFFLE), STUFFLE
        )
        assert phi_shuffle(pu, pv, STUFFLE) == phi_shuffle(pv, pu, STUFFLE)


def test_phi_table_rejects_non_associative_gamma():
    with pytest.raises(ValueError, match="not associative"):
        PhiTable({(1, 1): 0}, default=1, validate_to=5)
    # and a valid custom table passes validation
    PhiTable({(1, 1): Fraction(1, 2)}, default=0, validate_to=5)


def _seeded_tables(rng, bound):
    """(class, entries, default) for gamma tables on the merges of total
    weight <= bound + 1, four of each class; merges above the bound are
    outside the check, so a perturbation there keeps a table associative."""
    pairs = [(i, j) for i in range(1, bound + 1) for j in range(i, bound + 2 - i)]
    values = [0, 1, -1, 2, Fraction(1, 2)]
    for _ in range(4):
        yield "random", {p: rng.choice(values) for p in pairs}, rng.choice(values)
        g = {n: Fraction(rng.choice([1, -1, 2, 3])) ** rng.choice([1, -1]) for n in range(1, bound + 2)}
        c = rng.choice([1, -1, 2, Fraction(1, 2)])
        cobound = {(i, j): c * g[i + j] / (g[i] * g[j]) for i, j in pairs}
        yield "coboundary", cobound, 0
        p = rng.choice(pairs)
        yield "perturbed", {**cobound, p: cobound[p] + rng.choice([1, -1, Fraction(1, 2)])}, 0
        yield "zero-one", {p: rng.randint(0, 1) for p in pairs}, rng.randint(0, 1)


def test_letter_identity_agrees_with_the_word_triple_check():
    # Hoffman's criterion: the phi-shuffle is associative on all word triples
    # exactly when the letter product y_i . y_j = gamma(i, j) y_{i+j} is
    rng = random.Random(11)
    verdicts: dict[str, set] = {}
    for bound in (4, 5, 6):
        for kind, entries, default in _seeded_tables(rng, bound):
            by_words = non_associative_word_triple(
                PhiTable(entries, default=default, validate_to=0), bound
            ) is None
            try:
                PhiTable(entries, default=default, validate_to=bound)
                by_letters = True
            except ValueError:
                by_letters = False
            assert by_letters == by_words, (kind, bound, entries, default)
            verdicts.setdefault(kind, set()).add(by_words)
    # coboundaries c g(i+j) / (g(i) g(j)) are associative by construction;
    # every other class gives both verdicts
    assert verdicts == {
        "random": {True, False},
        "coboundary": {True},
        "perturbed": {True, False},
        "zero-one": {True, False},
    }


def test_non_associative_gamma_names_its_letter_triple():
    entries = {(1, 1): Fraction(1, 2), (1, 2): 1, (2, 2): 3, (1, 3): 1}
    with pytest.raises(ValueError) as info:
        PhiTable(entries, default=1, validate_to=4)
    assert str(info.value) == "gamma table is not associative at (y1, y1, y2)"
    # the named letters are themselves a failing word triple
    phi = PhiTable(entries, default=1, validate_to=0)
    y1, y2 = poly(Y, "y1"), poly(Y, "y2")
    left = phi_shuffle(phi_shuffle(y1, y1, phi), y2, phi)
    right = phi_shuffle(y1, phi_shuffle(y1, y2, phi), phi)
    assert left != right


def test_phi_table_symmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        PhiTable({(1, 2): 1, (2, 1): 0}, validate_to=0)
    assert PhiTable({(1, 2): 7}, validate_to=0).gamma(2, 1) == 7


@pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 2), (0, 0)])
def test_phi_table_refuses_weights_below_1(pair):
    # no letter pair has such weights, so the entry would be silently unused
    with pytest.raises(ValueError) as info:
        PhiTable({(1, 2): 3, pair: 5}, validate_to=0)
    assert str(info.value) == f"gamma entry at {pair}: letter weights start at 1"
    with pytest.raises(ValueError, match="letter weights start at 1"):
        PhiTable.from_json({"0,3": "5", "-1,2": "7"})


def test_products_unchanged_after_the_word_cache_evicts(monkeypatch):
    rng = random.Random(3)
    words = [w for w in words_up_to_grading(Y, 4) if w]
    pairs = []
    for _ in range(6):
        p, q = (
            NCPoly(Y, {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in rng.sample(words, 3)})
            for _ in range(2)
        )
        pairs.append((p, q))
    table = PhiTable.stuffle()
    want = [(phi_shuffle(p, q, table), shuffle(p, q)) for p, q in pairs]
    assert len(table._word_cache) > 8
    monkeypatch.setattr(ncpoly, "_WORD_CACHE_MAX", 8)
    monkeypatch.setattr(ncpoly, "_SHUFFLE", PhiTable.zero())
    small = PhiTable.stuffle()
    got = [(phi_shuffle(p, q, small), shuffle(p, q)) for p, q in pairs]
    assert got == want
    assert len(small._word_cache) == len(ncpoly._SHUFFLE._word_cache) == 8


def test_word_tables_hold_integers_and_results_hold_fractions():
    # integral gamma tables give integer word-product coefficients, and a
    # rational one some Fractions; every polynomial and tensor built from
    # them holds Fractions only
    u, v = yw("y1 y2"), yw("y2 y1 y1")
    p = poly(Y, "y1 y2", Fraction(1, 2)) + poly(Y, "y3", 2)
    q = poly(Y, "y2", -3) + poly(Y, "y1 y1")
    for phi, integral in ((STUFFLE, True), (GAMMA0, True), (binomial_gamma(Fraction(1, 2)), False)):
        table = ncpoly._phi_shuffle_letters(u.letters, v.letters, phi, ncpoly._color_order(Y))
        kinds = {type(c) for c in table.values()}
        assert (kinds == {int}) is integral
        results = [
            phi_shuffle(p, q, phi), phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(v), phi),
            shuffle(p, q), delta_phi(p, phi), delta_shuffle(p), delta_conc(p), pi1(p, phi),
        ]
        for result in results:
            assert all(type(c) is Fraction for c in result.terms.values())
    x = poly(X2, "x0 x1") + poly(X2, "x1", 3)
    for result in (shuffle(x, x), conc(x, x), pi1(x), delta_shuffle(x)):
        assert all(type(c) is Fraction for c in result.terms.values())


def test_delta_conc():
    one = NCPoly.one(X2)
    e = X2.empty_word()
    assert delta_conc(poly(X2, "x0")) == TensorPoly(
        X2, {(e, xw("x0")): 1, (xw("x0"), e): 1}
    )
    got = delta_conc(poly(X2, "x0 x1"))
    assert got == TensorPoly(
        X2,
        {(e, xw("x0 x1")): 1, (xw("x0"), xw("x1")): 1, (xw("x0 x1"), e): 1},
    )
    assert delta_conc(one) == TensorPoly(X2, {(e, e): 1})
    # pairing contract on all pairs: <delta_conc P, u (x) v> = <P, uv>
    p = poly(X2, "x0 x1", 3) + poly(X2, "x1 x1 x0", -2)
    dp = delta_conc(p)
    for u, v in itertools.product(words_up_to_grading(X2, 3), repeat=2):
        assert dp.coeff(u, v) == p.coeff(u * v)


def test_delta_shuffle_examples():
    e = X2.empty_word()
    assert delta_shuffle(poly(X2, "x0")) == TensorPoly(
        X2, {(e, xw("x0")): 1, (xw("x0"), e): 1}
    )
    got = delta_shuffle(poly(X2, "x0 x0"))
    assert got == TensorPoly(
        X2,
        {(e, xw("x0 x0")): 1, (xw("x0"), xw("x0")): 2, (xw("x0 x0"), e): 1},
    )
    lhs = delta_shuffle(poly(X2, "x0 x1")).coeff(xw("x0"), xw("x1"))
    rhs = shuffle(poly(X2, "x0"), poly(X2, "x1")).coeff(xw("x0 x1"))
    assert lhs == rhs == 1


def test_delta_phi_examples():
    e = Y.empty_word()
    got = delta_phi(poly(Y, "y2"), STUFFLE)
    assert got == TensorPoly(
        Y, {(yw("y2"), e): 1, (e, yw("y2")): 1, (yw("y1"), yw("y1")): 1}
    )
    assert delta_phi(poly(Y, "y1"), STUFFLE) == TensorPoly(
        Y, {(yw("y1"), e): 1, (e, yw("y1")): 1}
    )
    w = yw("y1 y1")
    lhs = delta_phi(NCPoly.from_word(w), STUFFLE).coeff(yw("y1"), yw("y1"))
    rhs = phi_shuffle(poly(Y, "y1"), poly(Y, "y1"), STUFFLE).coeff(w)
    assert lhs == rhs == 2
    with pytest.raises(ValueError):
        delta_phi(poly(X2, "x0"), STUFFLE)


def test_coproduct_product_duality():
    # <delta w, u (x) v> == <w, u * v> for every w with (w) <= 6
    for alphabet, dual, prod in (
        (X2, delta_shuffle, shuffle),
        (Y, lambda p: delta_phi(p, STUFFLE), lambda p, q: phi_shuffle(p, q, STUFFLE)),
    ):
        deltas = {
            w: dual(NCPoly.from_word(w)) for w in words_up_to_grading(alphabet, 6)
        }
        words = words_up_to_grading(alphabet, 6)
        for u, v in itertools.product(words, repeat=2):
            if u.grading + v.grading > 6:
                continue
            product = prod(NCPoly.from_word(u), NCPoly.from_word(v))
            for w, dw in deltas.items():
                if w.grading == u.grading + v.grading:
                    assert dw.coeff(u, v) == product.coeff(w)


# -- eulerian idempotent -----------------------------------------------------


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def pi1_oracle(w: Word, phi: PhiTable | None) -> NCPoly:
    """Literal expansion of the defining sum of the idempotent."""
    alphabet = w.alphabet
    if alphabet.is_y:
        prod = lambda p, q: phi_shuffle(p, q, phi)
    else:
        prod = shuffle
    nonempty = {
        n: [u for u in words_up_to_grading(alphabet, n) if u.grading == n]
        for n in range(1, w.grading + 1)
    }
    out = NCPoly.from_word(w)
    for k in range(2, w.grading + 1):
        coeff = Fraction((-1) ** (k - 1), k)
        for comp in compositions(w.grading, k):
            for tup in itertools.product(*(nonempty[n] for n in comp)):
                product = NCPoly.from_word(tup[0])
                for u in tup[1:]:
                    product = prod(product, NCPoly.from_word(u))
                c = product.coeff(w)
                if c:
                    word = tup[0]
                    for u in tup[1:]:
                        word = word * u
                    out = out + NCPoly.from_word(word, coeff * c)
    return out


def test_pi1_examples():
    assert pi1(poly(Y, "y1"), STUFFLE) == poly(Y, "y1")
    assert pi1(poly(Y, "y2"), STUFFLE) == poly(Y, "y2") - poly(Y, "y1 y1", Fraction(1, 2))
    assert pi1(poly(X2, "x0 x0")) == NCPoly.zero(X2)
    with pytest.raises(ValueError):
        pi1(poly(Y, "y2"))


def test_pi1_matches_defining_sum():
    for w in words_up_to_grading(Y, 5):
        if w:
            assert pi1(NCPoly.from_word(w), STUFFLE) == pi1_oracle(w, STUFFLE)
    for w in words_up_to_grading(X2, 4):
        if w:
            assert pi1(NCPoly.from_word(w)) == pi1_oracle(w, None)


def test_pi1_idempotent_to_grade_six():
    for w in words_up_to_grading(Y, 6):
        if not w:
            continue
        once = pi1(NCPoly.from_word(w), STUFFLE)
        assert pi1(once, STUFFLE) == once


def test_pi1_letter_images_are_primitive():
    e = Y.empty_word()
    for k in range(1, 7):
        p = pi1(poly(Y, f"y{k}"), STUFFLE)
        d = delta_phi(p, STUFFLE)
        primitive = TensorPoly(Y, {(w, e): c for w, c in p.terms.items()}) + TensorPoly(
            Y, {(e, w): c for w, c in p.terms.items()}
        )
        assert d == primitive


# -- characters ---------------------------------------------------------------


def test_is_character():
    # the all-ones series is the trivial monoid morphism: a conc character,
    # and *not* a shuffle character (<S, x0 sh x0> = 2 while <S,x0>^2 = 1)
    full = TruncSeries.word_sum(X2, 4)
    assert is_character(full, "conc")
    assert not is_character(full, "shuffle")
    s = TruncSeries(X2, 2, {X2.empty_word(): Fraction(1), xw("x0"): Fraction(1)})
    assert not is_character(s, "shuffle")
    no_unit = TruncSeries(X2, 2, {xw("x0"): Fraction(1)})
    assert not is_character(no_unit, "shuffle")


def test_exp_of_letter_is_shuffle_character():
    # exp(x0) = sum of x0^k / k! is the shuffle character generated by x0
    from math import factorial

    coeffs = {X2.word((0,) * k): Fraction(1, factorial(k)) for k in range(5)}
    s = TruncSeries(X2, 4, coeffs)
    assert is_character(s, "shuffle")


def test_is_infinitesimal_character():
    s = TruncSeries(X2, 3, {xw("x0"): Fraction(1)})
    assert is_infinitesimal_character(s, "shuffle")
    unit = TruncSeries(X2, 2, {X2.empty_word(): Fraction(1)})
    assert not is_infinitesimal_character(unit, "shuffle")
    p = pi1(poly(Y, "y2"), STUFFLE)
    s = TruncSeries.from_poly(p, 4)
    assert is_infinitesimal_character(s, "phi", phi=STUFFLE)


def harmonic_window(n, bound):
    """H_w(n) = sum over n >= n1 > ... > nr >= 1 of 1 / (n1^k1 ... nr^kr) for
    the y words w = y_k1 ... y_kr of weight <= bound: evaluation at n is a
    character of the stuffle, and not of the shuffle."""
    coeffs = {}
    for w in words_up_to_grading(Y, bound):
        ks = [k for k, _ in w.letters]
        terms = itertools.combinations(range(n, 0, -1), len(ks))
        coeffs[w] = sum(math.prod(Fraction(1, m**k) for m, k in zip(ms, ks)) for ms in terms)
    return TruncSeries(Y, bound, coeffs)


def test_character_laws_read_their_own_table():
    # one phi= argument for both laws: "shuffle" must not read it
    h = harmonic_window(3, 4)
    assert is_character(h, "phi", phi=STUFFLE)
    assert not is_character(h, "shuffle", phi=STUFFLE)
    assert not is_character(h, "phi", phi=GAMMA0)  # gamma = 0: the shuffle
    primitive = TruncSeries.from_poly(pi1(poly(Y, "y2"), STUFFLE), 4)
    assert is_infinitesimal_character(primitive, "phi", phi=STUFFLE)
    assert not is_infinitesimal_character(primitive, "shuffle", phi=STUFFLE)


def test_character_tests_refuse_unknown_laws():
    h = harmonic_window(2, 2)
    with pytest.raises(ValueError) as info:
        is_character(h, "bogus")
    assert str(info.value) == "unknown law 'bogus'"
    with pytest.raises(ValueError) as info:
        is_infinitesimal_character(h, "phi")
    assert str(info.value) == "law 'phi' needs a PhiTable"


def test_character_tests_read_the_law_before_the_unit_test():
    # <S, 1> = 0, so is_character returns False from the unit test alone
    primitive = TruncSeries.from_poly(pi1(poly(Y, "y2"), STUFFLE), 4)
    for test in (is_character, is_infinitesimal_character):
        with pytest.raises(ValueError) as info:
            test(primitive, "bogus")
        assert str(info.value) == "unknown law 'bogus'"
        with pytest.raises(ValueError) as info:
            test(primitive, "phi")
        assert str(info.value) == "law 'phi' needs a PhiTable"
    assert not is_character(primitive, "phi", phi=STUFFLE)


def test_character_tests_refuse_first_the_lightest_pair_beyond_the_window():
    # the pairs come u, then v, by (grading, lex): the first pair over the
    # series bound 3 is (ε, x0 x0 x0 x0), after every pair inside it agreed
    ones = TruncSeries.word_sum(X2, 3)
    letter = TruncSeries(X2, 3, {xw("x0"): Fraction(1)})
    for test, series, law in ((is_character, ones, "conc"), (is_infinitesimal_character, letter, "shuffle")):
        assert test(series, law, bound=3)
        with pytest.raises(ValueError) as info:
            test(series, law, bound=5)
        assert str(info.value) == "coefficient of grading 4 beyond bound 3"


def test_truncseries_window_is_honest():
    s = TruncSeries.word_sum(X2, 3)
    with pytest.raises(ValueError):
        s.coeff(xw("x0 x0 x0 x0"))


def test_poly_json_round_trip():
    p = poly(X2, "x0 x1", Fraction(3, 7)) - poly(X2, "x1", 2) + NCPoly.one(X2)
    assert NCPoly.from_json(X2, p.to_json()) == p
    t = delta_phi(poly(Y, "y2"), STUFFLE)
    assert TensorPoly.from_json(Y, t.to_json()) == t


@pytest.mark.parametrize(
    "data, field",
    [
        ("x0", "tensor must be a JSON list"),
        ({"left": "x0"}, "tensor must be a JSON list"),
        (["x0"], "tensor term 0 must be a JSON object"),
        ([{"right": "x0", "coeff": "1"}], "tensor term 0 has no 'left' field"),
        ([{"left": "x0", "coeff": "1"}], "tensor term 0 has no 'right' field"),
        ([{"left": "x0", "right": "x1"}], "tensor term 0 has no 'coeff' field"),
        ([{"left": ["x0"], "right": "x1", "coeff": "1"}], "tensor term 0 'left' must be a JSON string"),
        ([{"left": "x0", "right": {}, "coeff": "1"}], "tensor term 0 'right' must be a JSON string"),
        ([{"left": "x0", "right": "x1", "coeff": []}], "tensor term 0 'coeff' is not a rational number"),
        ([{"left": "x0", "right": "x1", "coeff": "1/0"}], "tensor term 0 'coeff' is not a rational number"),
    ],
)
def test_tensor_json_refuses_bad_shapes(data, field):
    with pytest.raises(ValueError, match=field):
        TensorPoly.from_json(X2, data)


def test_terms_over_another_alphabet_are_refused():
    y1 = Y.parse_word("y1")
    x0 = X2.parse_word("x0")
    with pytest.raises(ValueError, match="term word over a different alphabet"):
        NCPoly(X2, {y1: 1})
    for key in ((y1, y1), (x0, y1), (y1, x0)):
        with pytest.raises(ValueError, match="term word over a different alphabet"):
            TensorPoly(X2, {key: 1})
    # an equal alphabet built separately is the same alphabet
    assert TensorPoly(Alphabet.x(2), {(x0, x0): 1}).coeff(x0, x0) == 1


# -- word tables keyed by letter tuples ---------------------------------------------


def test_one_stuffle_table_keeps_colored_alphabets_apart():
    # y1@1 y1@1 has the same letters on y@2 and y@3, but the merged letter
    # is y2@0 on one and y2@2 on the other; one table serves both, in
    # either order
    y2a, y3a = Alphabet.y(color_order=2), Alphabet.y(color_order=3)
    expected = {
        y2a: poly(y2a, "y1@1 y1@1", 2) + poly(y2a, "y2@0"),
        y3a: poly(y3a, "y1@1 y1@1", 2) + poly(y3a, "y2@2"),
    }
    for order in ((y2a, y3a), (y3a, y2a)):
        table = PhiTable.stuffle()
        for alphabet in order + order:
            u = alphabet.parse_word("y1@1")
            assert phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(u), table) == expected[alphabet]
            p = poly(alphabet, "y1@1") + poly(alphabet, "y1@0 y1@1")
            q = poly(alphabet, "y1@1", 3)
            got = phi_shuffle(p, q, table)
            letters = {w.letters: c for w, c in got.terms.items() if len(w) == 1}
            assert letters == {((2, 2 % alphabet.color_order),): 3}
            assert all(w.alphabet is alphabet for w in got.terms)


def test_the_shared_shuffle_table_serves_every_alphabet():
    # x2 and x3 words with equal letter tuples, and y words, shuffled in
    # one process through the one shared gamma = 0 table, each against the
    # interleavings of its own words
    x3 = Alphabet.x(3)
    pairs = []
    for alphabet, texts in (
        (X2, ["x0", "x1 x0", "x0 x0 x1", "x1 x1 x0 x1"]),
        (x3, ["x0", "x1 x0", "x0 x0 x1", "x2 x1 x0", "x1 x1 x0 x1"]),
        (Y, ["y1", "y2 y1", "y1 y1", "y3 y1 y2"]),
    ):
        words = [alphabet.parse_word(t) for t in texts]
        pairs += itertools.product(words, repeat=2)
    for _ in range(2):  # the second round reads the filled table
        for u, v in pairs:
            got = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
            assert got == shuffle_oracle(u, v), (u, v)
            assert all(w.alphabet is u.alphabet for w in got.terms)


# -- the split budget of pi1 -------------------------------------------------------


def test_split_budget_counts_letters_and_admits_every_word_to_grade_six():
    from wordseries.words import _check_split_budget

    x2 = Alphabet.x(2)
    _check_split_budget(x2, [(0, 1) * 5 + (0,)])  # 3^11 entries
    with pytest.raises(ValueError, match=r"pi1 needs split tables of 531441 entries, over the budget of 262144 entries"):
        _check_split_budget(x2, [(0, 1) * 6])  # 3^12
    # a y letter of weight k counts (k + 1)(k + 2) / 2 on plain y
    with pytest.raises(ValueError, match=str(861**3)):
        _check_split_budget(Y, [((40, 0),) * 3])
    for alphabet, top in ((X2, 6), (Alphabet.x(3), 6), (Y, 6), (Alphabet.y(color_order=2), 6)):
        for w in words_up_to_grading(alphabet, top):
            _check_split_budget(alphabet, [w.letters])


def test_pi1_refuses_a_word_over_the_split_budget_before_any_work(monkeypatch):
    # with a budget of 100 entries, five x letters (3^5 = 243) are refused
    # at once and four (81) are admitted
    monkeypatch.setattr("wordseries.words._WORD_BUDGET", 100)
    with pytest.raises(ValueError, match="over the budget of 100 entries"):
        pi1(poly(X2, "x0 x1 x0 x1 x1"))
    assert pi1(poly(X2, "x0 x1 x0 x1")) == pi1_by_fractions(poly(X2, "x0 x1 x0 x1"))
    with pytest.raises(ValueError, match="over the budget"):
        pi1(poly(Y, "y2 y1 y2 y1"), STUFFLE)  # 6 * 3 * 6 * 3 = 324 entries


# -- the stored forms against Word-keyed Fraction oracles ----------------------------

X3 = Alphabet.x(3)
Y2 = Alphabet.y(color_order=2)
FORM_CASES = [
    (X2, None), (X3, None), (Y, STUFFLE), (Y, binomial_gamma(2)), (Y, binomial_gamma(Fraction(1, 2))),
    (Y2, STUFFLE), (Y2, binomial_gamma(2)), (Y2, binomial_gamma(Fraction(1, 2))),
]
FORM_WORDS = {alphabet: words_up_to_grading(alphabet, 3) for alphabet in (X2, X3, Y, Y2)}


def _word_maps(data, alphabet, empty=True):
    """A Word-keyed map of up to four words of grading <= 3, zeros included."""
    words = FORM_WORDS[alphabet] if empty else FORM_WORDS[alphabet][1:]
    coeffs = st.fractions(-3, 3, max_denominator=4)
    return data.draw(st.dictionaries(st.sampled_from(words), coeffs, max_size=4))


def _canonical(form):
    """The stored form is integer numerators over den > 0, with gcd 1 and no 0."""
    nums = list(form._num.values())
    assert form._den > 0 and all(type(c) is int and c for c in nums)
    assert math.gcd(form._den, *nums) == 1
    assert all(type(k) is tuple for k in form._num)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_polynomial_classes_match_the_word_fraction_oracles(data):
    alphabet, phi = data.draw(st.sampled_from(FORM_CASES))
    p, q = _word_maps(data, alphabet), _word_maps(data, alphabet)
    c = data.draw(st.fractions(-3, 3, max_denominator=5))
    P, Q = NCPoly(alphabet, p), NCPoly(alphabet, q)
    p, q = add_by_words({}, p), add_by_words({}, q)  # the zeros dropped
    for form, want in ((P, p), (Q, q), (P + Q, add_by_words(p, q)), (P - Q, add_by_words(p, q, Fraction(-1))),
                       (-P, scale_by_words(p, Fraction(-1))), (P * c, scale_by_words(p, c)),
                       (c * Q, scale_by_words(q, c))):
        _canonical(form)
        assert form.terms == want
        assert form == NCPoly(alphabet, want) and str(form) == poly_str_by_words(want)
        assert form.to_json() == poly_json_by_words(want)
        assert NCPoly.from_json(alphabet, form.to_json()) == form
    assert (P == Q) == (p == q) and bool(P) == bool(p)
    laws = ["conc", "shuffle"] + (["phi"] if alphabet.is_y else [])
    for law in laws:
        got = {"conc": conc, "shuffle": shuffle, "phi": lambda a, b: phi_shuffle(a, b, phi)}[law](P, Q)
        _canonical(got)
        assert got.terms == product_by_words(p, q, law, phi), law
        coproduct = {"conc": delta_conc, "shuffle": delta_shuffle, "phi": lambda a: delta_phi(a, phi)}[law](P)
        want = coproduct_by_words(alphabet, p, law, phi)
        _canonical(coproduct)
        assert coproduct.terms == want, law
        assert str(coproduct) == tensor_str_by_words(want) and coproduct.to_json() == tensor_json_by_words(want)
        assert TensorPoly.from_json(alphabet, coproduct.to_json()) == coproduct == TensorPoly(alphabet, want)
    assert pi1(P, phi) == pi1_by_fractions(P, phi)
    bound = data.draw(st.integers(0, 3))
    assert P.truncate(bound).terms == {w: x for w, x in p.items() if w.grading <= bound}
    assert P.pairing(Q) == sum((x * q.get(w, 0) for w, x in p.items()), Fraction(0))
    assert P.max_grade() == max((w.grading for w in p), default=0)
    for w in FORM_WORDS[alphabet][:6]:
        assert P.coeff(w) == p.get(w, 0)


# -- the one reader and the one writer of rationals --------------------------------

# pieces of rationals as a JSON string may spell them: signs, ASCII and other
# digits, decimals, exponents, padding, and numbers past int()'s digit limit
_NUMS = st.text("0123456789", min_size=1, max_size=8) | st.sampled_from(
    ["", "0", "007", "1.5", ".5", "1e3", "1_000", "\u0661", "\uff13", "\u00b2", "9" * 4301, "0" * 4300 + "1"])
_DENS = st.text("0123456789", min_size=1, max_size=4) | st.sampled_from(
    ["", "0", "00", "-2", "+3", "2.5", "\u0663", "7" * 4301])
RATIONAL_SPELLINGS = st.builds(
    lambda pad, sign, num, slash, den, end: pad + sign + num + slash + den + end,
    st.sampled_from(["", "", " ", "\t"]), st.sampled_from(["", "", "-", "+", "--", "-+"]), _NUMS,
    st.sampled_from(["", "/", "/", "//"]), _DENS, st.sampled_from(["", "", " ", "\n", "x"]),
)
JSON_SCALARS = st.one_of(RATIONAL_SPELLINGS, st.text(max_size=8), st.integers(), st.integers(-10**80, 10**80),
                         st.floats(allow_nan=True), st.booleans(), st.none(), st.lists(st.integers(), max_size=2))


@settings(deadline=None, max_examples=600)
@given(JSON_SCALARS)
def test_the_rational_reader_gives_fraction_values_or_its_error(value):
    try:
        want = json_ratio_by_fraction(value, "entry 'x'")
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ncpoly._json_ratio(value, "entry 'x'")
        assert str(info.value) == str(exc)
        return
    num, den = ncpoly._json_ratio(value, "entry 'x'")
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == want


X12 = Alphabet.x(12)


@st.composite
def printed_forms(draw):
    """An NCPoly or a TensorPoly of up to five terms over x2, x12, y or y@3,
    with letters up to x11 and y12: the empty word, the zero form, negative
    coefficients and coefficients over unequal denominators among them."""
    alphabet = draw(st.sampled_from([X2, X12, Y, Alphabet.y(color_order=3)]))
    letters = alphabet.letters() if alphabet.is_x else alphabet.letters(max_weight=12)
    words = st.lists(st.sampled_from(letters), max_size=3).map(lambda t: Word(alphabet, tuple(t)))
    coeffs = st.fractions(-9, 9, max_denominator=6)
    if draw(st.booleans()):
        return NCPoly(alphabet, draw(st.dictionaries(words, coeffs, max_size=5)))
    return TensorPoly(alphabet, draw(st.dictionaries(st.tuples(words, words), coeffs, max_size=5)))


@settings(deadline=None, max_examples=200)
@given(printed_forms())
def test_the_rational_writer_matches_json_dumps_and_the_fraction_text(form):
    assert form._json_text() == json.dumps(form.to_json(), sort_keys=True)
    if isinstance(form, NCPoly):
        assert str(form) == poly_str_by_words(form.terms) and form.to_json() == poly_json_by_words(form.terms)
        assert NCPoly.from_json(form.alphabet, form.to_json()) == form
    else:
        assert str(form) == tensor_str_by_words(form.terms) and form.to_json() == tensor_json_by_words(form.terms)
        assert TensorPoly.from_json(form.alphabet, form.to_json()) == form


def test_printed_keys_follow_the_sort_key_with_the_empty_word_on_either_side():
    y3 = Alphabet.y(color_order=3)
    word = lambda text: y3.parse_word(text)
    t = TensorPoly(y3, {(word(""), word("y2@1")): Fraction(3, 4), (word("y1@2 y1@0"), word("")): -2,
                        (word(""), word("")): Fraction(1, 6), (word("y2@1"), word("y1@0")): Fraction(-3, 4),
                        (word("y1@0"), word("y2@1")): 5})
    text = t._json_text()
    assert text == json.dumps(t.to_json(), sort_keys=True) and "\\u03b5" in text
    printed = [(y3.parse_word(item["left"]).letters, y3.parse_word(item["right"]).letters) for item in t.to_json()]
    assert printed == sorted(t._num, key=lambda uv: (y3.sort_key(uv[0]), y3.sort_key(uv[1])))
    p = NCPoly(y3, {word(w): c for w, c in (("y1@1", 2), ("", -1), ("y2@0", Fraction(1, 3)), ("y1@0 y1@2", 4))})
    assert p._json_text() == json.dumps(p.to_json(), sort_keys=True)
    assert [y3.parse_word(item["word"]).letters for item in p.to_json()] == sorted(p._num, key=y3.sort_key)


def test_forms_read_unreduced_and_repeated_terms_over_one_denominator():
    data = [{"word": "x0", "coeff": "6/8"}, {"word": "", "coeff": 2}, {"word": "x0", "coeff": "-1/4"},
            {"word": "x1", "coeff": "+1/6"}, {"word": "x1", "coeff": " -1/6"}]
    p = NCPoly.from_json(X2, data)
    assert p == NCPoly(X2, {xw(""): 2, xw("x0"): Fraction(1, 2)}) and (p._num, p._den) == ({(): 4, (0,): 1}, 2)
    assert p._json_text() == '[{"coeff": "2/1", "word": "\\u03b5"}, {"coeff": "1/2", "word": "x0"}]'
    assert NCPoly.from_json(X2, [])._json_text() == "[]" and str(NCPoly.from_json(X2, [])) == "0"


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_truncated_series_match_the_word_fraction_oracles(data):
    alphabet, _ = data.draw(st.sampled_from(FORM_CASES))
    bound = data.draw(st.integers(1, 3))
    p, q = _word_maps(data, alphabet), _word_maps(data, alphabet, empty=False)
    S, T = TruncSeries(alphabet, bound, p), TruncSeries.from_poly(NCPoly(alphabet, q), bound)
    s = {w: x for w, x in add_by_words({}, p).items() if w.grading <= bound}
    t = {w: x for w, x in add_by_words({}, q).items() if w.grading <= bound}
    assert S.coeffs == s and T.coeffs == t
    assert (S + T).coeffs == add_by_words(s, t) and (S - T).coeffs == add_by_words(s, t, Fraction(-1))
    assert S.scale(Fraction(-2, 3)).coeffs == scale_by_words(s, Fraction(-2, 3))
    assert S.conc_mul(T).coeffs == product_by_words(s, t, "conc", bound=bound)
    assert str(S) == series_str_by_words(s, bound)
    assert S == TruncSeries(alphabet, bound, s) and (S == T) == (s == t)
    one = alphabet.empty_word()
    weights = [Fraction((-1) ** (k - 1), k) if k else Fraction(0) for k in range(bound + 1)]
    assert log_trunc(T + TruncSeries(alphabet, bound, {one: 1})).coeffs == series_power_sum_by_words(
        alphabet, t, bound, weights)
    weights = [Fraction(1, math.factorial(k)) for k in range(bound + 1)]
    assert exp_trunc(T).coeffs == series_power_sum_by_words(alphabet, t, bound, weights)
    small = NCPoly(alphabet, {w: x for w, x in q.items() if w.grading <= bound})
    assert S.pair_poly(small) == sum((x * s.get(w, 0) for w, x in small.terms.items()), Fraction(0))


def test_terms_and_coeffs_are_fresh_dicts_that_change_nothing():
    p = NCPoly(Y, {yw("y2 y1"): Fraction(1, 2), yw("y3"): -2})
    terms = p.terms
    assert type(terms) is dict and terms is not p.terms
    terms[yw("y1")] = Fraction(7)
    terms.pop(yw("y3"))
    assert p.terms == {yw("y2 y1"): Fraction(1, 2), yw("y3"): Fraction(-2)}
    s = TruncSeries.from_poly(p, 3)
    coeffs = s.coeffs
    assert type(coeffs) is dict and coeffs is not s.coeffs
    coeffs.clear()
    assert s.coeff(yw("y3")) == -2
    # a DualBases accessor wraps the cached form: its terms are a copy too
    from wordseries.hopf import DualBases

    bases = DualBases(Y, STUFFLE)
    for family in (bases.p, bases.s, bases.pi, bases.sigma):
        element = family(yw("y2 y1 y1"))
        want = element.terms
        got = element.terms
        got.clear()
        assert family(yw("y2 y1 y1")).terms == want == element.terms


# -- series over different alphabets are refused -----------------------------------


def _x2_and_y_series():
    return TruncSeries(X2, 3, {xw("x0"): 1}), TruncSeries(Y, 3, {yw("y1"): 1})


def test_series_sum_over_another_alphabet_is_refused():
    a, b = _x2_and_y_series()
    with pytest.raises(ValueError, match="series over different alphabets"):
        a + b
    with pytest.raises(ValueError, match="series over different alphabets"):
        TruncSeries(X2, 3, {xw("x0"): 1}) + TruncSeries(X3, 3, {X3.parse_word("x2"): 1})


def test_series_difference_over_another_alphabet_is_refused():
    a, b = _x2_and_y_series()
    with pytest.raises(ValueError, match="series over different alphabets"):
        a - b


def test_series_conc_mul_over_another_alphabet_is_refused():
    a, b = _x2_and_y_series()
    with pytest.raises(ValueError, match="series over different alphabets"):
        a.conc_mul(b)


def test_series_pairing_with_a_polynomial_over_another_alphabet_is_refused():
    with pytest.raises(ValueError, match="series over different alphabets"):
        TruncSeries(X3, 3, {X3.parse_word("x2"): 1}).pair_poly(poly(X2, "x0"))


def test_coefficient_of_a_word_over_another_alphabet_is_refused():
    with pytest.raises(ValueError, match="over a different alphabet"):
        poly(X2, "x0").coeff(X3.parse_word("x0"))
    with pytest.raises(ValueError, match="over a different alphabet"):
        TruncSeries(X2, 3, {xw("x0"): 1}).coeff(X3.parse_word("x0"))
    # an equal alphabet built separately is the same alphabet
    assert poly(X2, "x0").coeff(Alphabet.x(2).parse_word("x0")) == 1
