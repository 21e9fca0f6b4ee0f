"""Numeric layer: nested sums, hyperlogarithms, polyzetas, Chen series.

Anchors are closed forms (log 2, pi^2/6, dilogarithm partial sums) and an
independent Taylor-stepping solver for the hypergeometric system.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordseries import hyperlog
from wordseries.hyperlog import (
    ComplexVal,
    CycloRational,
    FormFamily,
    QuadratureConfig,
    SingularitySet,
    _chen_names,
    _harmonic_arrays,
    _powers,
    chen_series,
    colored_alphabets,
    generating_relation_check,
    harmonic_sum,
    harmonic_sum_exact,
    hypergeometric_system,
    linear_independence_rank,
    pi_X,
    pi_Y,
    polylog,
    polyzeta,
    system_output,
)
from wordseries.linrep import LinRep
from wordseries.ncpoly import NCPoly, PhiTable, is_character, phi_shuffle, shuffle
from wordseries.words import Alphabet, Word, words_up_to_grading

CLASSIC = SingularitySet.classical()
X2 = CLASSIC.x_alphabet()
Y = CLASSIC.y_alphabet()
F = Fraction


def xw(text):
    return X2.parse_word(text)


def yw(text):
    return Y.parse_word(text)


# -- correspondence -----------------------------------------------------------


def test_pi_y_examples():
    assert str(pi_Y(xw("x0 x1"), CLASSIC)) == "y2"
    assert str(pi_Y(xw("x1"), CLASSIC)) == "y1"
    with pytest.raises(ValueError, match="ending"):
        pi_Y(xw("x1 x0"), CLASSIC)


def test_pi_y_colored_blocks():
    sigma = SingularitySet.roots_of_unity(2)
    x3 = sigma.x_alphabet()
    w = x3.parse_word("x0 x0 x2 x1")
    image = pi_Y(w, sigma)
    assert str(image) == "y3@0 y1@1"  # rho_2 = 1 has color 0, rho_1 = -1 color 1
    assert pi_X(image, sigma) == w


def test_pi_round_trip():
    for w in words_up_to_grading(X2, 5):
        if w and w.letters[-1] != 0:
            assert pi_X(pi_Y(w, CLASSIC), CLASSIC) == w


# two nonzero points and no color order: a y letter names s_1 only
TWO_POINTS = SingularitySet.from_values([F(0), F(2), F(3)])


def test_pi_y_without_a_color_order_maps_only_x1():
    x3 = TWO_POINTS.x_alphabet()
    assert TWO_POINTS.color_of_index(1) == 0
    assert str(pi_Y(x3.parse_word("x0 x1 x1"), TWO_POINTS)) == "y2 y1"
    for text in ("x2", "x0 x2", "x1 x2"):
        with pytest.raises(ValueError, match="index 2 has no color"):
            pi_Y(x3.parse_word(text), TWO_POINTS)


# -- harmonic sums ---------------------------------------------------------------


def test_harmonic_examples():
    assert harmonic_sum_exact(yw("y1"), 3) == F(11, 6)
    assert harmonic_sum_exact(yw("y2"), 2) == F(5, 4)
    assert harmonic_sum(yw(""), 17).value == 1
    got = harmonic_sum(yw("y1"), 3)
    assert abs(got.value - 11 / 6) <= got.err


def test_harmonic_exact_matches_float():
    for text in ("y1", "y2", "y1 y1", "y2 y1", "y3"):
        exact = harmonic_sum_exact(yw(text), 20)
        approx = harmonic_sum(yw(text), 20)
        assert abs(float(exact) - approx.value) <= max(approx.err, 1e-12)


def test_harmonic_exact_rational_sigma():
    # sigma = {0, 2}: rho = 1/2, H_y1(3) = 1/2 + 1/8 + 1/24 = 2/3
    sigma = SingularitySet.from_values([F(0), F(2)])
    got = harmonic_sum_exact(yw("y1"), 3, sigma)
    assert got == F(2, 3)


def test_polylog_complex_argument():
    z = 0.3 + 0.4j
    got = polylog(xw("x1"), z)
    assert abs(got.value - (-cmath.log(1 - z))) < 1e-12
    # and a regularized word at a complex point stays a character instance
    u, v = xw("x1"), xw("x1 x0")
    product = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
    lhs = polylog(u, z).value * polylog(v, z).value
    rhs = sum(complex(c) * polylog(w, z).value for w, c in product.terms.items())
    assert abs(lhs - rhs) < 1e-10


def test_harmonic_colored_exact():
    sigma = SingularitySet.roots_of_unity(2)
    ym = sigma.y_alphabet()
    w = ym.parse_word("y1@1")  # rho = -1: alternating harmonic numbers
    got = harmonic_sum_exact(w, 4, sigma)
    assert isinstance(got, CycloRational)
    expected = -1 + F(1, 2) - F(1, 3) + F(1, 4)
    assert abs(got.to_complex() - float(expected)) < 1e-15
    approx = harmonic_sum(w, 4, sigma)
    assert abs(approx.value - float(expected)) <= max(approx.err, 1e-13)


def test_cyclo_rational_drops_exponents_that_cancel_mod_m():
    # zeta^0 and zeta^2 are one class mod 2: their coefficients 1 and -1 sum to zero
    zero = CycloRational(2, {0: 1, 2: -1})
    assert not zero
    assert zero == CycloRational(2)
    assert repr(zero) == "(0 | ζ^m=1, m=2)"
    assert CycloRational(3, {1: 1, 4: 2}) == CycloRational(3, {1: 3})


# (sigma, y words, whether every rho is exactly 1): classical words of depth
# 1-4; colored words with repeated colours and colour 0, whose rho is
# 1 - 2.4e-16i; an explicit set whose rho is 1 + 0j, and one whose rho is 1/2
HARMONIC_CASES = [
    (None, ("y1", "y2", "y3 y1", "y1 y1 y2", "y2 y1 y1 y3"), True),
    (CLASSIC, ("y1", "y3 y1", "y1 y2 y1 y1"), True),
    (SingularitySet.roots_of_unity(2), ("y1@0", "y1@1 y1@1", "y2@0 y1@1 y1@0", "y1@1 y1@0 y1@1 y2@1"), False),
    (SingularitySet.roots_of_unity(3), ("y2@2", "y1@2 y2@2", "y1@0 y1@1 y1@0 y2@2"), False),
    (SingularitySet.roots_of_unity(4), ("y1@3 y1@0 y1@3", "y2@1 y2@2 y1@1 y1@0"), False),
    (SingularitySet.from_values([0, 1 + 0j]), ("y1", "y2 y1", "y1 y1 y3"), True),
    (SingularitySet.from_values([0, 2]), ("y1", "y2 y1 y1"), False),
]
HARMONIC_IDS = ["none", "classical", "y@2", "y@3", "y@4", "{0,1+0j}", "{0,2}"]
# numpy's complex power switches from repeated squaring to libm cpow at 100;
# 5000 is the benchmark's cutoff
HARMONIC_CUTOFFS = [0, 1, 99, 100, 101, 2000, 5000]

# rho z for the m-th roots of unity, m <= 8, and z on both sides of 0
_ROOT_POINTS = [SingularitySet.roots_of_unity(m).rho_of_color(c) * z
                for m in range(1, 9) for c in range(m) for z in (0.3, -0.45, 0.9)]
_POWER_BASES = st.one_of(
    st.builds(cmath.rect, st.floats(0, 1.2), st.floats(-math.pi, math.pi)),  # every quadrant, |b| to 1.2
    st.builds(complex, st.floats(-1.2, 1.2), st.sampled_from([0.0, -0.0])),  # real, imaginary +-0
    st.builds(complex, st.sampled_from([0.0, -0.0]), st.floats(-1.2, 1.2)),
    st.sampled_from(_ROOT_POINTS),
    st.sampled_from([0j, complex(-0.0, -0.0)]),
)


@settings(max_examples=300, deadline=None)
@given(_POWER_BASES, st.sampled_from([0, 1, 2, 3, 98, 99, 100, 101, 5000]))
def test_powers_equal_numpys_power_byte_for_byte(base, count):
    # past |b| = 1 the table overflows to inf, and both sides must agree there too
    with np.errstate(all="ignore"):
        want = np.power(base, np.arange(1, count + 1))
        got = _powers(base, count)
    assert got.dtype == want.dtype == np.complex128
    assert got.tobytes() == want.tobytes()


def _y_words(sigma, texts):
    alphabet = Y if sigma is None else sigma.y_alphabet()
    return [alphabet.parse_word(text) for text in texts]


@pytest.mark.parametrize("n", HARMONIC_CUTOFFS)
@pytest.mark.parametrize("sigma, texts, real", HARMONIC_CASES, ids=HARMONIC_IDS)
def test_harmonic_rows_equal_the_complex_mirror_bit_for_bit(sigma, texts, real, n):
    from oracles import harmonic_arrays_mirror

    for w in _y_words(sigma, texts):
        rows = _harmonic_arrays(w.letters, n, sigma)
        assert rows.dtype == (np.float64 if real else np.complex128)
        # a float row reads as imaginary +0, so the bytes compare the signs of zero too
        assert rows.astype(complex).tobytes() == harmonic_arrays_mirror(w.letters, n, sigma).tobytes(), str(w)


def _nested_sum_outcomes(sigma, w, n):
    """harmonic_sum, polylog and polyzeta of w at the cutoff n, as the hex
    texts of value and err (or the ValueError's message)."""
    s = sigma or CLASSIC
    calls = [lambda: harmonic_sum(w, n, sigma), lambda: polylog(pi_X(w, s), 0.3, s, nmax=n)]
    if n:
        calls.append(lambda: polyzeta(w, n, s))
    out = []
    for call in calls:
        try:
            v = call()
        except ValueError as exc:
            out.append(str(exc))
        else:
            out.append(tuple(float.hex(x) for x in (v.real, v.imag, v.err)))
    return out


@pytest.mark.parametrize("n", HARMONIC_CUTOFFS)
@pytest.mark.parametrize("sigma, texts, real", HARMONIC_CASES, ids=HARMONIC_IDS)
def test_nested_sum_values_equal_those_of_the_complex_mirror(monkeypatch, sigma, texts, real, n):
    from oracles import harmonic_arrays_mirror

    words = _y_words(sigma, texts)
    got = [_nested_sum_outcomes(sigma, w, n) for w in words]
    monkeypatch.setattr(hyperlog, "_harmonic_arrays", harmonic_arrays_mirror)
    assert got == [_nested_sum_outcomes(sigma, w, n) for w in words]


def test_quasi_shuffle_character_exact():
    # H_u(n) H_v(n) = <u stuffle v, .> paired with H, exactly, weights <= 3
    stuffle = PhiTable.stuffle()
    small = [w for w in words_up_to_grading(Y, 3) if w]
    cache: dict[Word, list] = {}

    def h_values(word):
        if word not in cache:
            arr = [harmonic_sum_exact(word, n) for n in range(31)]
            cache[word] = arr
        return cache[word]

    for u, v in itertools.product(small, repeat=2):
        product = phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(v), stuffle)
        for n in (1, 7, 30):
            lhs = h_values(u)[n] * h_values(v)[n]
            rhs = sum((c * h_values(w)[n] for w, c in product.terms.items()), F(0))
            assert lhs == rhs


def test_quasi_shuffle_character_colored_exact():
    sigma = SingularitySet.roots_of_unity(2)
    ym = sigma.y_alphabet()
    stuffle = PhiTable.stuffle()
    words = [ym.parse_word(t) for t in ("y1@0", "y1@1", "y2@1")]
    for u, v in itertools.product(words, repeat=2):
        product = phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(v), stuffle)
        for n in (1, 5, 12):
            lhs = harmonic_sum_exact(u, n, sigma) * harmonic_sum_exact(v, n, sigma)
            rhs = CycloRational(2)
            for w, c in product.terms.items():
                rhs = rhs + c * harmonic_sum_exact(w, n, sigma)
            assert lhs == rhs


# -- hyperlogarithms ----------------------------------------------------------------


def test_polylog_log_anchor():
    got = polylog(xw("x1"), 0.5)
    assert abs(got.value - math.log(2)) < 1e-12
    assert abs(got.value - math.log(2)) <= got.err


def test_polylog_log_convention():
    assert abs(polylog(xw("x0"), math.e).value - 1) < 1e-14
    k3 = polylog(xw("x0 x0 x0"), 2.0)
    assert abs(k3.value - math.log(2) ** 3 / 6) < 1e-14


def test_polylog_dilog_anchor():
    direct = sum(0.5**n / n**2 for n in range(1, 10**6))
    got = polylog(xw("x0 x1"), 0.5)
    assert abs(got.value - direct) < 1e-8
    assert abs(got.value - 0.5822405264650125) < 1e-12


def test_polylog_depth_two_against_mpmath():
    # Li at x0 x1 x1 is the depth-two nested sum over n > m of z^n / (n^2 m)
    import mpmath

    mpmath.mp.dps = 30
    z = mpmath.mpf(1) / 2
    partial = mpmath.mpf(0)
    for n in range(2, 400):
        inner = sum(mpmath.mpf(1) / m for m in range(1, n))
        partial += z**n / n**2 * inner
    got = polylog(xw("x0 x1 x1"), 0.5)
    assert abs(got.value - float(partial)) < 1e-12


def test_polyzeta_alternating_dilog():
    # sum of (-1)^n / n^2 = -pi^2/12
    sigma = SingularitySet.roots_of_unity(2)
    ym = sigma.y_alphabet()
    got = polyzeta(ym.parse_word("y2@1"), 10_000, sigma)
    assert abs(got.value - (-math.pi**2 / 12)) < 1e-4


def test_polylog_rejects_divergent():
    with pytest.raises(ValueError, match="divergent"):
        polylog(xw("x1"), 1.0)
    with pytest.raises(ValueError, match="divergent"):
        polylog(xw("x0 x1"), 1.5)


def test_polylog_rejects_z_beyond_the_nearest_singularity():
    sigma = SingularitySet.from_values([F(0), F(1, 2)])
    with pytest.raises(ValueError, match="divergent"):
        polylog(xw("x1"), 0.7, sigma)
    with pytest.raises(ValueError, match="divergent"):
        polylog(xw("x1"), -0.5, sigma)


def test_polylog_tail_bound_inside_a_small_radius():
    # s_1 = 1/2, so Li_x1(z) = -log(1 - 2 z); the tail decays like (2 |z|)^n
    sigma = SingularitySet.from_values([F(0), F(1, 2)])
    got = polylog(xw("x1"), 0.3, sigma, nmax=20)
    assert abs(got.value - (-math.log(1 - 0.6))) <= got.err


def test_polylog_error_field_is_a_bound():
    rng = random.Random(61)
    words = [w for w in words_up_to_grading(X2, 4) if w and any(a != 0 for a in w.letters)]
    for _ in range(100):
        w = rng.choice(words)
        z = rng.uniform(0.05, 0.8)
        short = polylog(w, z, nmax=60)
        long = polylog(w, z, nmax=600)
        assert abs(short.value - long.value) <= short.err


def test_li_shuffle_character():
    z = 0.3
    cache = {}

    def li(w):
        if w not in cache:
            cache[w] = polylog(w, z, nmax=400).value
        return cache[w]

    words = [
        w
        for w in words_up_to_grading(X2, 4)
        if w and any(a != 0 for a in w.letters)  # drop the pure x0 cases
    ]
    for u, v in itertools.product(words, repeat=2):
        if u.grading + v.grading > 4:
            continue
        product = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
        rhs = sum(float(c) * li(w) for w, c in product.terms.items())
        assert abs(li(u) * li(v) - rhs) < 1e-8


def test_generating_relation():
    r1 = generating_relation_check(xw("x1"), 0.3, 60)
    assert r1.residual < 1e-12
    r2 = generating_relation_check(xw("x0 x1"), 0.5, 120)
    assert r2.residual < 1e-9
    r0 = generating_relation_check(xw("x0 x1"), 0.0, 10)
    assert r0.residual == 0


@pytest.mark.parametrize("name, text, z", [
    ("classical", "x1", 0.5),
    ("classical", "x1", 0.9),
    ("classical", "x0 x1", 0.3),
    ("classical", "x0 x1", 0.5),
    ("roots2", "x2 x1", 0.5),
    ("0;2", "x0 x1", 0.9),
])
def test_generating_relation_tail_bound_holds_at_every_depth(name, text, z):
    # H_(pi_Y w)(n) grows past the depth (harmonic numbers for x1), so the
    # rest of the series is not bounded by the largest H up to the depth
    sigma = {"classical": CLASSIC, "roots2": SingularitySet.roots_of_unity(2),
             "0;2": SingularitySet.from_values([0, 2])}[name]
    w = sigma.x_alphabet().parse_word(text)
    for depth in range(60):
        report = generating_relation_check(w, z, depth, sigma)
        assert report.residual <= report.tail_bound, depth


def test_generating_relation_refuses_a_tail_whose_bounds_do_not_fall():
    # rho = 2 on both letters of x1 x1: H grows like 4^n, and 4 * 0.3 >= 1
    sigma = SingularitySet.from_values([0, 0.5])
    with pytest.raises(ValueError, match=r"divergent request: .* not 1\.2"):
        generating_relation_check(sigma.x_alphabet().parse_word("x1 x1"), 0.3, 10, sigma, nmax=50)


def test_generating_relation_all_words_grade_four():
    for w in words_up_to_grading(X2, 4):
        if w and w.letters[-1] != 0:
            report = generating_relation_check(w, 0.5, 120)
            assert report.residual < 1e-9


# -- polyzetas -------------------------------------------------------------------------


def test_polyzeta_zeta2():
    got = polyzeta(xw("x0 x1"), 10_000)
    assert abs(got.value - math.pi**2 / 6) < 1e-3
    assert abs(got.value - math.pi**2 / 6) <= got.err


def test_polyzeta_rejects_divergent():
    with pytest.raises(ValueError, match="admissible"):
        polyzeta(xw("x1"))
    with pytest.raises(ValueError, match="admissible"):
        polyzeta(yw("y1 y2"))


def test_polyzeta_refuses_a_leading_reciprocal_outside_the_unit_disk():
    sigma = SingularitySet.from_values([0, 0.5])  # rho = 2
    with pytest.raises(ValueError, match=r"divergent request: the leading letter's \|rho\| = 2 exceeds 1"):
        polyzeta(sigma.y_alphabet().parse_word("y2"), 10, sigma)
    # on the unit circle the sum converges, also where |rho| rounds above 1
    assert polyzeta(SingularitySet.roots_of_unity(9).y_alphabet().parse_word("y2@1"), 100,
                    SingularitySet.roots_of_unity(9)).err < 1


def test_harmonic_sum_refuses_an_overflow_by_its_cutoff():
    sigma = SingularitySet.from_values([0, 0.5])
    w = sigma.y_alphabet().parse_word("y1")
    assert math.isfinite(harmonic_sum(w, 1000, sigma).real)
    with np.errstate(all="raise"):  # the kernel ignores its own overflow
        with pytest.raises(ValueError, match="not finite in double precision at n = 1100"):
            harmonic_sum(w, 1100, sigma)


def test_generating_relation_refuses_an_overflow_by_its_depth():
    # rho = 2: the H table of x1 overflows past depth 1023, so the residual is not finite
    sigma = SingularitySet.from_values([0, 0.5])
    w = sigma.x_alphabet().parse_word("x1")
    assert generating_relation_check(w, 0.1, 1000, sigma).residual < 1e-12
    with pytest.raises(ValueError, match="overflow: .* not finite in double precision at depth = 2000"):
        generating_relation_check(w, 0.1, 2000, sigma)


@pytest.mark.parametrize("nterms", [0, -3])
def test_polyzeta_refuses_a_cutoff_below_one(nterms):
    # the tail bound divides by nterms^s1, and a negative cutoff has no sums
    for word in (xw("x0 x1"), yw("y2"), yw("")):
        with pytest.raises(ValueError, match=f"nterms must be >= 1, got {nterms}"):
            polyzeta(word, nterms)


def test_polylog_refuses_a_negative_cutoff_and_takes_zero():
    for word in (xw("x1"), xw("x0 x1 x0"), xw("x0")):
        with pytest.raises(ValueError, match="nmax must be >= 0, got -2"):
            polylog(word, 0.5, nmax=-2)
    # nmax 0 sums no term: the value is 0 and the error the whole tail r/(1-r)
    got = polylog(xw("x1"), 0.25, nmax=0)
    assert got.value == 0 and got.err == 0.25 / (1 - 0.25)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: harmonic_sum(yw("y2 y1"), -1), "n"),
        (lambda: harmonic_sum_exact(yw("y2 y1"), -1), "n"),
        (lambda: harmonic_sum_exact(yw(""), -1), "n"),
        (lambda: generating_relation_check(xw("x0 x1"), 0.3, -1), "depth"),
        (lambda: linear_independence_rank([yw("y1"), yw("y2")], -1), "samples"),
    ],
    ids=["harmonic_sum", "harmonic_sum_exact", "harmonic_sum_exact-empty", "relation-depth", "rank-samples"],
)
def test_a_negative_cutoff_is_refused_by_its_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        call()


def test_cutoff_zero_is_taken():
    assert harmonic_sum_exact(yw("y2 y1"), 0) == 0 and harmonic_sum_exact(yw(""), 0) == 1
    assert linear_independence_rank([yw("y1"), yw("y2")], 0) == 0
    assert isinstance(generating_relation_check(xw("x0 x1"), 0.3, 0), hyperlog.RelationReport)


NUMERIC_Y_ENTRIES = [
    lambda w, sigma: harmonic_sum(w, 10, sigma),
    lambda w, sigma: harmonic_sum_exact(w, 10, sigma),
    lambda w, sigma: polyzeta(w, 100, sigma),
    lambda w, sigma: linear_independence_rank([w], 10, sigma),
]


@pytest.mark.parametrize("call", NUMERIC_Y_ENTRIES, ids=["harmonic_sum", "harmonic_sum_exact", "polyzeta", "rank"])
@pytest.mark.parametrize("text, order", [("y2@1", 3), ("y2@4", 5), ("y2@0", 3)])
def test_a_colored_word_needs_a_set_of_its_colour_order(call, text, order):
    w = Alphabet.y(color_order=order).parse_word(text)
    for sigma in (SingularitySet.roots_of_unity(2), CLASSIC):
        with pytest.raises(ValueError, match="^singularity set colors disagree with the alphabet$"):
            call(w, sigma)
    call(w, SingularitySet.roots_of_unity(order))  # its own colour order is taken
    call(yw("y2 y1"), TWO_POINTS)  # a plain word reads colour 0, s_1


@pytest.mark.parametrize("values, order", [((0, 1, -1), 3), ((0, 1, -1), 1), ((0, 1), 2)])
def test_a_colour_order_must_count_the_nonzero_points(values, order):
    # colours 0 and 2 would both name s_2 of {0, 1, -1} under colour order 3
    with pytest.raises(ValueError, match=f"color order {order} must equal the number of nonzero singularities"):
        SingularitySet(values, order)
    assert SingularitySet(values, len(values) - 1).color_order == len(values) - 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pi_y_inverts_pi_x_on_colored_words(m):
    sigma = SingularitySet.roots_of_unity(m)
    for w in words_up_to_grading(sigma.y_alphabet(), 4):
        assert pi_Y(pi_X(w, sigma), sigma) == w


def test_pi_x_refuses_a_set_of_another_colour_order():
    w = Alphabet.y(color_order=3).parse_word("y1@2 y2@0")
    for sigma in (SingularitySet.roots_of_unity(2), CLASSIC, TWO_POINTS):
        with pytest.raises(ValueError, match="^singularity set colors disagree with the alphabet$"):
            pi_X(w, sigma)
    sigma = SingularitySet.roots_of_unity(3)
    assert pi_Y(pi_X(w, sigma), sigma) == w  # its own colour order is taken
    i = sigma.index_of_color(0)
    assert pi_X(yw("y2 y1"), sigma).letters == (0, i, i)  # a plain word reads colour 0


@pytest.mark.parametrize("z", [0.1, -0.5, 0.3 + 0.4j, 0.9])
def test_polylog_of_x1_on_two_points_is_the_log_at_s1(z):
    got = polylog(TWO_POINTS.x_alphabet().parse_word("x1"), z, TWO_POINTS)
    assert abs(got.value - (-cmath.log(1 - z / 2))) <= got.err


def test_polyzeta_of_x0_x1_on_two_points_is_the_dilog_at_one_half():
    got = polyzeta(TWO_POINTS.x_alphabet().parse_word("x0 x1"), 500, TWO_POINTS)
    assert abs(got.value - (math.pi**2 / 12 - math.log(2) ** 2 / 2)) <= got.err


def test_values_on_two_points_reject_x2():
    # x2 would be read as x1 if it took color 0: Li_x2(z) = -log(1 - z/3)
    x3 = TWO_POINTS.x_alphabet()
    for text in ("x2", "x1 x2", "x2 x0"):
        with pytest.raises(ValueError, match="index 2 has no color"):
            polylog(x3.parse_word(text), 0.1, TWO_POINTS)
    for text in ("x0 x2", "x2 x1"):
        with pytest.raises(ValueError, match="index 2 has no color"):
            polyzeta(x3.parse_word(text), 500, TWO_POINTS)


def test_polyzeta_alternating():
    sigma = SingularitySet.roots_of_unity(2)
    ym = sigma.y_alphabet()
    got = polyzeta(ym.parse_word("y1@1"), 100_000, sigma)
    assert abs(got.value - (-math.log(2))) < 1e-4


def test_polyzeta_zeta3():
    got = polyzeta(xw("x0 x0 x1"), 20_000)
    zeta3 = sum(1 / n**3 for n in range(1, 200_000))
    assert abs(got.value - zeta3) < 1e-6


# -- Chen series -----------------------------------------------------------------------


def test_chen_single_letter_closed_form():
    forms = FormFamily(CLASSIC)
    series = chen_series(forms, 0.1, 0.5, 1)
    a = series.coeff(xw("x1"))
    assert abs(a.value - math.log(0.9 / 0.5)) < 1e-12
    assert complex(series.coeff(xw(""))) == 1
    a0 = series.coeff(xw("x0"))
    assert abs(a0.value - math.log(0.5 / 0.1)) < 1e-12


def test_chen_validation():
    forms = FormFamily(CLASSIC)
    with pytest.raises(ValueError, match="z0 < z"):
        chen_series(forms, 0.5, 0.5, 1)
    with pytest.raises(ValueError, match="singularity"):
        chen_series(forms, 0.1, 1.1, 1)
    with pytest.raises(ValueError, match="path"):
        chen_series(forms, -0.1, 0.5, 1)


def test_chen_shuffle_identity_spot():
    forms = FormFamily(CLASSIC)
    series = chen_series(forms, 0.1, 0.5, 2)
    a0 = series.coeff(xw("x0")).value
    a1 = series.coeff(xw("x1")).value
    lhs = a0 * a1
    rhs = series.coeff(xw("x0 x1")).value + series.coeff(xw("x1 x0")).value
    assert abs(lhs - rhs) < 1e-10


def test_chen_series_is_shuffle_character():
    forms = FormFamily(CLASSIC)
    series = chen_series(forms, 0.1, 0.6, 4)
    assert is_character(series, "shuffle", tol=1e-10)


def test_chen_grouplike_for_unshuffle():
    from wordseries.linrep import is_grouplike

    forms = FormFamily(CLASSIC)
    series = chen_series(forms, 0.2, 0.5, 3)
    assert is_grouplike(series, "shuffle", tol=1e-10)


def bits(v: ComplexVal):
    """Exact bit pattern of a value and its error, signed zeros included."""
    return v.value.real.hex(), v.value.imag.hex(), float(v.err).hex()


@pytest.mark.parametrize(
    "sigma, bound",
    [(CLASSIC, 6), (SingularitySet.roots_of_unity(2), 5), (SingularitySet.roots_of_unity(3), 4), (CLASSIC, 0),
     (CLASSIC, 1)],
)
@pytest.mark.parametrize("z0, z", [(0.1, 0.5), (0.23, 0.61)])
def test_chen_series_bit_identical_to_per_word_oracle(sigma, bound, z0, z):
    from oracles import chen_series_per_word

    forms = FormFamily(sigma)
    got = chen_series(forms, z0, z, bound)
    want = chen_series_per_word(forms, z0, z, bound)
    assert len(got.coeffs) == len(want) == ((sigma.m + 1) ** (bound + 1) - 1) // sigma.m
    for w, v in want.items():
        assert got.coeff(w).value == v.value and got.coeff(w).err == v.err
        assert bits(got.coeff(w)) == bits(v)


@pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 12, 16, 20, 33])
def test_gl_reference_is_bit_identical_to_per_column_loops(g):
    # the projection and its integral are taken for all columns at once;
    # every array keeps the bits, and the layout, of one call per column
    from oracles import gl_reference_by_loops

    for got, want in zip(hyperlog._gl_reference(g), gl_reference_by_loops(g)):
        assert got.shape == want.shape and got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma, bound", [(CLASSIC, 5), (SingularitySet.roots_of_unity(3), 3)])
def test_chen_series_coefficients_come_in_sort_key_order(sigma, bound):
    # `eval chen` prints series.coeffs in iteration order without sorting
    coeffs = chen_series(FormFamily(sigma), 0.1, 0.5, bound).coeffs
    assert list(coeffs) == sorted(coeffs, key=Word.sort_key)


def test_chen_series_refuses_a_bound_over_the_word_budget():
    forms = FormFamily(CLASSIC)
    with pytest.raises(ValueError, match="2147483647 words"):
        chen_series(forms, 0.1, 0.5, 30)
    with pytest.raises(ValueError, match="budget"):
        chen_series(forms, 0.1, 0.5, 10**9)
    # 3 letters: 3^12 words of grade 11 alone are over 2^18
    with pytest.raises(ValueError, match="budget"):
        chen_series(FormFamily(SingularitySet.roots_of_unity(2)), 0.1, 0.5, 11)


def test_quadrature_that_does_not_converge_raises():
    # no delta is below 1e-300: the doublings run out, and no value comes back
    stuck = QuadratureConfig(tol=1e-300, max_doublings=2)
    forms = FormFamily(CLASSIC)
    with pytest.raises(RuntimeError, match="did not converge.*after 2 doublings"):
        chen_series(forms, 0.1, 0.5, 3, stuck)
    r, forms = hypergeometric_system(F(1, 2), F(1, 2), 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        system_output(r, forms, 0.05, 0.4, 3, stuck)
    with pytest.raises(RuntimeError, match="last delta inf after 0 doublings"):
        chen_series(forms, 0.05, 0.4, 3, QuadratureConfig(max_doublings=0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", 0.0),
        ("tol", -1e-12),
        ("tol", math.nan),
        ("tol", math.inf),
        ("nodes", 0),
        ("initial_panels", 0),
        ("max_doublings", -1),
    ],
)
def test_quadrature_config_refuses_values_no_run_can_use(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: value})


@pytest.mark.parametrize("size, bound", [(1, 4), (2, 0), (2, 6), (3, 4), (4, 3)])
def test_chen_names_are_the_word_texts_in_kernel_order(size, bound):
    alphabet = Alphabet.x(size)
    assert _chen_names(alphabet, bound) == [str(w) for w in words_up_to_grading(alphabet, bound)]


# -- the dynamical-system output --------------------------------------------------------


def test_system_output_single_word():
    p = NCPoly.from_word(xw("x1"))
    r = LinRep.from_poly(p)
    forms = FormFamily(CLASSIC)
    got = system_output(r, forms, 0.1, 0.5, 3)
    assert abs(got.value - math.log(0.9 / 0.5)) < 1e-10


def test_system_output_bound_zero():
    r, forms = hypergeometric_system(F(1, 2), F(1, 2), 1)
    got = system_output(r, forms, 0.1, 0.4, 0)
    assert got.value == complex(exact_nu_eta(r))


def exact_nu_eta(r):
    import oracles

    return oracles.dot(r.nu, r.eta)


from oracles import taylor_ode_solution


# strictly upper triangular: every word of length >= 3 maps to 0, so at
# bounds 3 and 8 the top grade pairs to zero and the last layer is 0
NILPOTENT = LinRep(X2, (1, F(-2, 3), F(1, 2)),
                   {0: [[0, F(1, 2), F(-3, 5)], [0, 0, F(2, 7)], [0, 0, 0]], 1: [[0, 1, F(5, 3)], [0, 0, -1], [0, 0, 0]]},
                   (F(1, 3), F(-5, 2), 2))
# t0 t1 has denominator 100160063, so d^(bound+2) passes 2^53 at every bound
BIG_DENOMINATOR = (F(1, 10007), F(-1, 10009), F(7, 4))


@pytest.mark.parametrize(
    "params",
    [
        (F(1, 2), F(1, 2), 1),
        (F(1, 3), F(-2, 5), F(7, 4)),
        pytest.param(BIG_DENOMINATOR, id="d-past-2^53"),
        pytest.param(NILPOTENT, id="nilpotent"),
    ],
)
@pytest.mark.parametrize("bound", [0, 1, 3, 8])
def test_system_output_bit_identical_to_word_sum_oracle(params, bound):
    from oracles import system_output_word_sum

    if isinstance(params, LinRep):
        r, forms = params, FormFamily(CLASSIC)
        if bound >= 3:
            assert all(not any(row) for w in words_up_to_grading(X2, 3) if len(w) == 3 for row in r.word_matrix(w))
    else:
        r, forms = hypergeometric_system(*params, eta=(F(1, 3), F(-5, 2)))
        if params == BIG_DENOMINATOR:
            assert r._d ** (bound + 2) > 2**53
    got = system_output(r, forms, 0.05, 0.4, bound)
    want = system_output_word_sum(r, forms, 0.05, 0.4, bound)
    assert got.value == want.value and got.err == want.err
    assert bits(got) == bits(want)


def test_system_output_bit_identical_on_three_letters():
    from oracles import system_output_word_sum

    sigma = SingularitySet.roots_of_unity(2)
    mu = {
        0: [[F(1, 2), F(-1, 3)], [0, F(2, 7)]],
        1: [[0, 1], [F(-5, 3), 0]],
        2: [[F(3, 2), 0], [F(1, 7), F(-1, 2)]],
    }
    r = LinRep(sigma.x_alphabet(), (1, F(-2, 3)), mu, (F(1, 2), 2))
    forms = FormFamily(sigma)
    got = system_output(r, forms, 0.1, 0.45, 5)
    assert bits(got) == bits(system_output_word_sum(r, forms, 0.1, 0.45, 5))


def test_system_output_bit_identical_on_complex_coefficients():
    # cube roots of unity: alpha(w) has nonzero imaginary parts, on which
    # numpy's complex abs and Python's abs (hypot) can differ in the last bit
    from oracles import system_output_word_sum

    sigma = SingularitySet.roots_of_unity(3)
    mu = {
        0: [[F(1, 2), F(-1, 3)], [0, F(2, 7)]],
        1: [[0, 1], [F(-5, 3), 0]],
        2: [[F(3, 2), 0], [F(1, 7), F(-1, 2)]],
        3: [[1, F(1, 3)], [0, 1]],
    }
    forms = FormFamily(sigma)
    # the rank-1 series x1 alone: the last layer is |alpha(x1)|, one such value
    x1 = LinRep(sigma.x_alphabet(), (1,), {1: [[1]]}, (1,))
    for r, bound in ((LinRep(sigma.x_alphabet(), (1, F(-2, 3)), mu, (F(1, 2), 2)), 4), (x1, 1)):
        got = system_output(r, forms, 0.1, 0.45, bound)
        assert bits(got) == bits(system_output_word_sum(r, forms, 0.1, 0.45, bound))


def test_system_output_refuses_a_bound_over_the_word_budget():
    r, forms = hypergeometric_system(F(1, 2), F(1, 2), 1)
    with pytest.raises(ValueError, match="budget"):
        system_output(r, forms, 0.05, 0.4, 18)


def test_system_output_of_the_zero_representation():
    got = system_output(LinRep.zero(X2), FormFamily(CLASSIC), 0.1, 0.4, 3)
    assert got.value == 0 and got.err == 0


def test_hypergeometric_system_wiring():
    r, forms = hypergeometric_system(0, 0, F(3, 2))
    assert r.mu[0] == ((F(0), F(0)), (F(0), F(-3, 2)))  # t0 t1 entry vanishes
    r2, _ = hypergeometric_system(F(1, 3), F(1, 5), F(7))
    assert r2.mu[1][0][1] == -1  # the (1,2) entry of M1 is -1 for all parameters
    assert forms.u(0, 2.0) == 0.5
    assert forms.u(1, 0.5) == pytest.approx(2.0)


def test_hypergeometric_output_against_ode_oracle():
    t0 = t1 = F(1, 2)
    t2 = F(1)
    r, forms = hypergeometric_system(t0, t1, t2)
    z0, z = 0.05, 0.4
    # q = (-y, (1-z) y'): the default eta = (1, 1) seeds y(z0) = -1,
    # y'(z0) = 1/(1-z0); the observation reads q1 = -y
    y = taylor_ode_solution(t0, t1, t2, z0, -1.0, 1.0 / (1 - z0), z)
    converged = system_output(r, forms, z0, z, 16)
    assert abs(converged.value - (-y)) < 1e-8
    # at grading 8 the pairing is still ~1e-3 away (log(z/z0) is about 2.1);
    # the truncation indicator in the error field must cover the deviation
    partial = system_output(r, forms, z0, z, 8)
    assert 1e-4 < abs(partial.value - (-y)) < 1e-2
    assert abs(partial.value - (-y)) <= partial.err


def test_colored_alphabets():
    x, y, sigma = colored_alphabets(1)
    assert x.size == 2 and y.color_order is None
    assert [complex(v) for v in sigma.values] == [0, 1]
    x, y, sigma = colored_alphabets(2)
    assert x.size == 3 and y.color_order == 2
    rhos = sorted(round(sigma.rho_of_color(c).real) for c in (0, 1))
    assert rhos == [-1, 1]
    # color product: (-1) * (-1) = 1 is color 1 + 1 = 0 mod 2
    assert (1 + 1) % 2 == 0


def test_linear_independence_rank():
    words = [yw("y1"), yw("y2"), yw("y1 y1")]
    assert linear_independence_rank(words, 12) == 3
    assert linear_independence_rank(words + [yw("y1")], 12) == 3
    assert linear_independence_rank([], 10) == 0


def test_linear_independence_rank_colored():
    sigma = SingularitySet.roots_of_unity(2)
    ym = sigma.y_alphabet()
    words = [ym.parse_word(t) for t in ("y1@0", "y1@1", "y2@1")]
    assert linear_independence_rank(words, 10, sigma) == 3


def test_complexval_arithmetic():
    a = ComplexVal(1 + 2j, 0.5)
    b = ComplexVal(3, 0.25)
    assert (a + b).value == 4 + 2j
    assert (a + b).err == 0.75
    assert (a * b).err >= abs(a.value) * b.err + abs(b.value) * a.err
    assert complex(F(1, 2) * b) == 1.5
    with pytest.raises(ValueError):
        ComplexVal(1.0, -1e-3)
