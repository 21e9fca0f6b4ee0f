"""Acceptance suite: one test per criterion, each printing a status line.

Every check runs at its stated tolerance (exact where exact) and within a
stated time budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import oracles
from oracles import (
    conc_truncated,
    phi_shuffle_truncated,
    shuffle_truncated,
    star_truncated,
    taylor_ode_solution,
)
from wordseries.hopf import DualBases, diagonal_factorization_check
from wordseries.hyperlog import (
    FormFamily,
    SingularitySet,
    chen_series,
    harmonic_sum,
    harmonic_sum_exact,
    hypergeometric_system,
    polylog,
    polyzeta,
    generating_relation_check,
    system_output,
)
from wordseries.linrep import (
    LinRep,
    delta_conc_decompose,
    minimize,
    mxstar_factorization_check,
    rat_conc,
    rat_phi_shuffle,
    rat_shuffle,
    rat_star,
    rat_sum,
    triangular_decompose,
)
from wordseries.ncpoly import (
    NCPoly,
    PhiTable,
    TensorPoly,
    delta_phi,
    is_character,
    phi_shuffle,
    pi1,
    shuffle,
)
from wordseries.words import Alphabet, words_up_to_grading

X2 = Alphabet.x(2)
Y = Alphabet.y()
STUFFLE = PhiTable.stuffle()
F = Fraction


class budget:
    """Times a criterion and prints its status line."""

    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"acceptance {self.number:02d} [{self.name}]: {status} "
            f"({elapsed:.2f}s / budget {self.seconds}s)"
        )
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(f"time budget exceeded: {elapsed:.2f}s")
        return False


def random_linrep(alphabet, rank, rng, bound=None):
    letters = alphabet.letters() if alphabet.is_x else alphabet.letters(max_weight=bound)
    pick = lambda: F(rng.randint(-2, 2))
    mu = {l: [[pick() for _ in range(rank)] for _ in range(rank)] for l in letters}
    return LinRep(
        alphabet,
        [pick() for _ in range(rank)],
        mu,
        [pick() for _ in range(rank)],
        bound,
    )


def truncation_poly(r, bound):
    return NCPoly(r.alphabet, dict(r.eval_truncated(bound).coeffs))


def test_01_hopf_duality():
    with budget(1, "exact Hopf duality", 30):
        xb = DualBases(X2)
        xwords = words_up_to_grading(X2, 5)
        for u in xwords:
            su = xb.s(u)
            for v in xwords:
                assert su.pairing(xb.p(v)) == (1 if u == v else 0)
        yb = DualBases(Y, STUFFLE)
        ywords = words_up_to_grading(Y, 5)
        for u in ywords:
            su = yb.sigma(u)
            for v in ywords:
                assert su.pairing(yb.pi(v)) == (1 if u == v else 0)


def test_02_diagonal_factorization():
    with budget(2, "diagonal-series factorization", 60):
        assert diagonal_factorization_check(X2, None, 4).equal
        assert diagonal_factorization_check(Y, STUFFLE, 4).equal


def test_03_closure_constructions_match_polynomial_oracle():
    with budget(3, "rational closure constructions", 60):
        rng = random.Random(2024)
        bound = 5
        for trial in range(20):
            if trial % 2 == 0:
                r1 = random_linrep(X2, rng.randint(1, 3), rng)
                r2 = random_linrep(X2, rng.randint(1, 3), rng)
                t1 = truncation_poly(r1, bound)
                t2 = truncation_poly(r2, bound)
                assert truncation_poly(rat_sum(r1, r2), bound) == t1 + t2
                assert truncation_poly(rat_conc(r1, r2), bound) == conc_truncated(
                    t1, t2, bound
                )
                assert truncation_poly(rat_shuffle(r1, r2), bound) == shuffle_truncated(
                    t1, t2, bound
                )
                c = oracles.dot(r1.nu, r1.eta)
                proper = rat_sum(r1, LinRep.from_poly(NCPoly.one(X2) * (-c)))
                assert truncation_poly(rat_star(proper), bound) == star_truncated(
                    t1 - NCPoly.one(X2) * c, bound
                )
            else:
                r1 = random_linrep(Y, rng.randint(1, 2), rng, bound=bound)
                r2 = random_linrep(Y, rng.randint(1, 2), rng, bound=bound)
                t1 = truncation_poly(r1, bound)
                t2 = truncation_poly(r2, bound)
                got = truncation_poly(rat_phi_shuffle(r1, r2, STUFFLE), bound)
                assert got == phi_shuffle_truncated(t1, t2, STUFFLE, bound)


def test_04_deconcatenation_splitting():
    with budget(4, "rank-many tensor factors of Delta_conc", 30):
        rng = random.Random(404)
        words6 = words_up_to_grading(X2, 6)
        for _ in range(20):
            r = random_linrep(X2, rng.randint(1, 4), rng)
            pairs = delta_conc_decompose(r)
            g_tables = [dict(g.eval_truncated(6).coeffs) for g, _ in pairs]
            d_tables = [dict(d.eval_truncated(6).coeffs) for _, d in pairs]
            full = dict(r.eval_truncated(6).coeffs)
            for u in words6:
                for v in words6:
                    if u.grading + v.grading > 6:
                        continue
                    total = sum(
                        (
                            g.get(u, F(0)) * d.get(v, F(0))
                            for g, d in zip(g_tables, d_tables)
                        ),
                        F(0),
                    )
                    assert total == full.get(u * v, F(0))


def hankel_rank(r, window):
    words = words_up_to_grading(r.alphabet, window)
    front = {words[0]: r.nu}
    back = {words[0]: r.eta}
    for w in words[1:]:
        front[w] = oracles.vec_mat(front[w[:-1]], r.mu[w.letters[-1]])
        back[w] = oracles.mat_vec(r.mu[w.letters[0]], back[w[1:]])
    rows = [
        oracles.vector(oracles.dot(front[u], back[v]) for v in words) for u in words
    ]
    space = oracles.FractionRowSpace(len(words))
    return sum(space.add(row) for row in rows)


def test_05_minimization_matches_hankel_rank():
    with budget(5, "minimization = Hankel rank", 30):
        rng = random.Random(505)
        for _ in range(20):
            base = random_linrep(X2, rng.randint(1, 3), rng)
            padded = rat_sum(base, base)  # planted redundancy
            assert minimize(padded).rank == hankel_rank(padded, padded.rank)


def test_06_mxstar_factorization():
    with budget(6, "M(X*) Lyndon exponential factorization", 60):
        r, _ = hypergeometric_system(F(1, 2), F(1, 2), 1)
        assert mxstar_factorization_check(r, 3).equal
        rng = random.Random(606)
        for _ in range(5):
            rep = random_linrep(X2, 2, rng)
            assert mxstar_factorization_check(rep, 3).equal


def test_07_triangular_decomposition():
    with budget(7, "triangular diagonal/nilpotent split", 30):
        rng = random.Random(707)
        for _ in range(5):
            n = rng.randint(2, 3)
            mu = {
                letter: [
                    [F(rng.randint(-2, 2)) if j >= i else F(0) for j in range(n)]
                    for i in range(n)
                ]
                for letter in (0, 1)
            }
            r = LinRep(
                X2,
                [F(rng.randint(-1, 1)) for _ in range(n)],
                mu,
                [F(rng.randint(-1, 1)) for _ in range(n)],
            )
            rebuilt, report = triangular_decompose(r, 4)
            assert report.equal
            assert rebuilt == r.eval_truncated(4)


def test_08_eulerian_idempotent():
    with budget(8, "eulerian idempotent and primitivity", 30):
        for w in words_up_to_grading(Y, 5):
            if not w:
                continue
            once = pi1(NCPoly.from_word(w), STUFFLE)
            assert pi1(once, STUFFLE) == once
        e = Y.empty_word()
        for k in range(1, 6):
            p = pi1(NCPoly.from_word(Y.parse_word(f"y{k}")), STUFFLE)
            d = delta_phi(p, STUFFLE)
            expected = TensorPoly(Y, {(u, e): c for u, c in p.terms.items()}) + TensorPoly(
                Y, {(e, u): c for u, c in p.terms.items()}
            )
            assert d == expected


def test_09_numeric_anchors():
    with budget(9, "closed-form numeric anchors", 60):
        li1 = polylog(X2.parse_word("x1"), 0.5)
        assert abs(li1.value - math.log(2)) < 1e-9
        direct = sum(0.5**n / n**2 for n in range(1, 10**6))
        li2 = polylog(X2.parse_word("x0 x1"), 0.5)
        assert abs(li2.value - direct) < 1e-8
        zeta2 = harmonic_sum(Y.parse_word("y2"), 10_000)
        assert abs(zeta2.value - math.pi**2 / 6) < 1e-3
        sigma2 = SingularitySet.roots_of_unity(2)
        alt = polyzeta(sigma2.y_alphabet().parse_word("y1@1"), 100_000, sigma2)
        assert abs(alt.value - (-math.log(2))) < 1e-4


def test_10_character_identities():
    with budget(10, "shuffle/quasi-shuffle character identities", 60):
        z = 0.3
        cache = {}

        def li(w):
            if w not in cache:
                cache[w] = polylog(w, z, nmax=500).value
            return cache[w]

        mixed = [
            w
            for w in words_up_to_grading(X2, 3)
            if w and any(a != 0 for a in w.letters)
        ]
        for u, v in itertools.product(mixed, repeat=2):
            if u.grading + v.grading > 4:
                continue
            product = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
            rhs = sum(float(c) * li(w) for w, c in product.terms.items())
            assert abs(li(u) * li(v) - rhs) < 1e-8

        small = [w for w in words_up_to_grading(Y, 3) if w]
        tables = {}

        def h(w):
            if w not in tables:
                tables[w] = [harmonic_sum_exact(w, n) for n in range(31)]
            return tables[w]

        for u, v in itertools.product(small, repeat=2):
            product = phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(v), STUFFLE)
            for n in range(31):
                lhs = h(u)[n] * h(v)[n]
                rhs = sum((c * h(w)[n] for w, c in product.terms.items()), F(0))
                assert lhs == rhs


def test_11_generating_relation():
    with budget(11, "Taylor-coefficient generating relation", 30):
        for w in words_up_to_grading(X2, 4):
            if w and w.letters[-1] != 0:  # the relation needs a block image
                report = generating_relation_check(w, 0.5, 120)
                assert report.residual < 1e-9


def test_12_hypergeometric_end_to_end():
    with budget(12, "hypergeometric output vs ODE oracle", 60):
        t0 = t1 = F(1, 2)
        t2 = F(1)
        r, forms = hypergeometric_system(t0, t1, t2)
        z0, z = 0.05, 0.4
        got = system_output(r, forms, z0, z, 8)
        oracle = -taylor_ode_solution(t0, t1, t2, z0, -1.0, 1.0 / (1 - z0), z)
        deviation = abs(got.value - oracle)
        assert deviation < 1e-5, (
            f"grade-8 truncation of the Chen pairing is {deviation:.3e} away from "
            "the ODE solution (log(z/z0) ~ 2.08 makes grade 8 insufficient; the "
            "pairing reaches 2e-6 at grade 12 and 8e-10 at grade 16, and the "
            "reported error estimate covers the deviation)"
        )


def test_13_chen_series_grouplike():
    with budget(13, "Chen series is a shuffle character", 30):
        forms = FormFamily(SingularitySet.classical())
        series = chen_series(forms, 0.1, 0.6, 4)
        assert is_character(series, "shuffle", tol=1e-10)
