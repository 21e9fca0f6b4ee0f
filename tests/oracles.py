"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a different route than
the library code under test: Lyndon words by filtering every word of each
grade, as words smaller than their rotations and counted grade by grade by
the necklace formula, their standard factorizations by scanning suffixes, Gauss-Jordan
elimination over ``Fraction`` and minimization with one solve per vector,
the Sweedler realization on ``Fraction`` Hankel rows and the Lie
diagnostics on ``Fraction`` brackets,
representation evaluation, word matrices and the two factorization checks of
``linrep`` on ``Fraction`` matrices, the diagonal factorization check as
its literal statement on ``Fraction`` tensors multiplied out in full (an
independent route: the library reads a Gram matrix and per-word Lyndon
products instead of forming either tensor), the duality check on basis
elements rebuilt as ``NCPoly``s, the Sigma basis from the dense
duality system of its grade, pi1 and the four dual-basis families on
``Word``-keyed ``Fraction`` maps, the associativity of a gamma table on word
triples, truncated polynomial products term by term, grouplike and
primitive series on a coproduct table built word by word, the linear
structure, products, coproducts, series products, printers and JSON of the
polynomial classes on ``Word``-keyed ``Fraction`` dicts, the rationals of JSON
input read as one ``Fraction`` each, representation files read vector by
vector (the reader that the one-pass read of canonical files must equal),
the Chen series one word at a time and its pairing as a sum over words, the
``eval chen`` table printed row by row from words and values, and an ODE
solver by recentered Taylor series.  ``pi1_of`` and ``phi_pi1`` are no
oracles: ``pi1_of`` shows as an ``NCPoly`` the letter image pi1(y_k) that a
``DualBases`` holds as an integer form, and ``phi_pi1`` extends those images
to the letter morphism Phi by concatenation.  Nor is
``harmonic_arrays_mirror``: it keeps the complex harmonic-sum recursion that
the library replaced, which the library must equal bit for bit.
"""

import functools
import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval

from wordseries import exactlin
from wordseries.hopf import DualBases
from wordseries.hyperlog import ComplexVal, QuadratureConfig, _gl_reference
from wordseries.linrep import FactorizationReport, LieDiagnostics, LinRep, SweedlerVerdict
from wordseries.ncpoly import (
    NCPoly,
    PhiTable,
    TruncSeries,
    _json_checked,
    _json_fields,
    _json_ratio,
    _values_match,
    conc,
    coproduct,
    delta_phi,
    delta_shuffle,
    phi_shuffle,
    shuffle,
)
from wordseries.words import (
    Alphabet,
    Word,
    alphabet_text,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    parse_alphabet,
    standard_factorization,
    words_up_to_grading,
)


# -- Fraction matrices: the dense helpers the library no longer needs -----------

ZERO, ONE = Fraction(0), Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(xs):
    return tuple(frac(x) for x in xs)


def matrix(rows):
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = frac(c)
    return tuple(tuple(c * x for x in r) for r in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(r, v)) for r in a)


def vec_mat(v, a):
    if a and len(v) != len(a):
        raise ValueError("dimension mismatch")
    cols = len(a[0]) if a else 0
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(cols))


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), ZERO)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def bracket(a, b):
    """Commutator [a, b] = ab - ba."""
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(mat_mul(a, b), mat_mul(b, a)))


def kron(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    return tuple(
        tuple(a[i][k] * b[j][l] for k in range(ca) for l in range(cb))
        for i in range(ra)
        for j in range(rb)
    )


def kron_vec(u, v):
    return tuple(x * y for x in u for y in v)


def word_product_terms(p, q, word_mul=None, bound=None, out=None):
    """The bilinear product of two Word-keyed maps: a b c (w) summed over
    the pairs of terms (u, a), (v, b) with grading(u) + grading(v) <= bound
    (every pair when bound is None) and the terms (w, c) of word_mul(u, v),
    concatenation when word_mul is None.  Terms that cancel are dropped."""
    out = {} if out is None else out
    for u, a in p.items():
        for v, b in q.items():
            if bound is not None and u.grading + v.grading > bound:
                continue
            for w, c in ((u * v, 1),) if word_mul is None else word_mul(u, v):
                total = out.get(w, 0) + a * b * c
                if total:
                    out[w] = total
                else:
                    out.pop(w, None)
    return out


def word_law(phi=None):
    """``word_mul`` on Words of the shuffle, or of the phi-shuffle with phi."""
    if phi is None:
        return lambda u, v: shuffle(NCPoly.from_word(u), NCPoly.from_word(v)).terms.items()
    return lambda u, v: phi_shuffle(NCPoly.from_word(u), NCPoly.from_word(v), phi).terms.items()


def words_by_product(alphabet, max_grade):
    """Every word of grading <= max_grade, sorted by (grading, lex): the
    ``itertools.product`` of the words one letter shorter with the letters
    of weight <= max_grade, one length at a time, kept when their grading
    fits.  The letters are listed here, not read from the alphabet."""
    if alphabet.is_x:
        letters = [(a, 1) for a in range(alphabet.size)]  # (letter, weight)
    else:
        letters = [((k, c), k) for k in range(1, max_grade + 1) for c in range(alphabet.color_order or 1)]
    found = []
    layer = [((), 0)] if max_grade >= 0 else []  # (letters, grading) of the words of one length
    while layer:
        found += layer
        layer = [(t + (a,), g + k) for (t, g), (a, k) in itertools.product(layer, letters) if g + k <= max_grade]
    return sorted((Word(alphabet, t) for t, _ in found), key=Word.sort_key)


def lyndon_words_by_filter(alphabet, max_grade):
    """Lyndon words of grading <= max_grade, sorted by (grading, lex): every
    nonempty word of those gradings (``words_by_product``), kept when it is
    Lyndon."""
    return [w for w in words_by_product(alphabet, max_grade) if w and is_lyndon(w)]


def lyndon_by_rotations(w):
    """True iff w is strictly smaller than each of its proper rotations."""
    key = w.lex_key()
    return all(key < key[i:] + key[:i] for i in range(1, len(key)))


def lyndon_count(alphabet, n):
    """The number of Lyndon words of grading n >= 1, (1/n) sum_(d | n)
    mu(n/d) p_d, where p_d = q^d on x_q and (m+1)^d - 1 on y with m colors
    (m = 1 on plain y).  It follows from the Chen-Fox-Lyndon factorization
    (Ann. Math. 68, 1958): prod_n (1 - t^n)^(-L_n) = 1 / (1 - f(t)) with
    f(t) = q t on x_q and m t / (1 - t) on y, whose logarithm has the
    coefficients p_d / d."""

    def mobius(k):
        sign, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign

    def p(d):
        return alphabet.size**d if alphabet.is_x else ((alphabet.color_order or 1) + 1) ** d - 1

    total = sum(mobius(n // d) * p(d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def standard_factorization_by_suffix_scan(w):
    """(s, r) with r the longest proper suffix of w that is Lyndon."""
    i = next(i for i in range(1, len(w)) if is_lyndon(w[i:]))
    return w[:i], w[i:]


def rref_gauss_jordan(rows):
    """Reduced row echelon form by Gauss-Jordan over Fraction, first nonzero
    pivot.  Returns (nonzero rows, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def solve_gauss_jordan(a, b):
    """The solution of a x = b with free variables zero, or None."""
    m = len(a[0]) if a else 0
    red, pivots = rref_gauss_jordan([tuple(a[i]) + (b[i],) for i in range(len(a))])
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return tuple(x)


def inverse_gauss_jordan(a):
    n = len(a)
    red, pivots = rref_gauss_jordan(
        [tuple(a[i]) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


class FractionRowSpace:
    """Incremental rref basis over Fraction: each new direction is scaled to
    pivot 1 and cleared from the other rows."""

    def __init__(self, ncols):
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        v = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, v):
        v = self.reduce(v)
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        v = [x / v[p] for x in v]
        for row in self.rows:
            if row[p] != 0:
                f = row[p]
                row[:] = [x - f * y for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    def contains(self, v):
        return all(x == 0 for x in self.reduce(v))


def int_row(v):
    """The integer row (w, s) of a rational row v: v = s·w, with w primitive
    (entries of gcd 1) and s > 0; the zero row has s = 0."""
    xs = [frac(x) for x in v]
    d = math.lcm(*(x.denominator for x in xs))
    w = [x.numerator * (d // x.denominator) for x in xs]
    g = math.gcd(*w)
    if g > 1:
        w = [x // g for x in w]
    return w, Fraction(g, d)


def coordinates_by_fractions(basis, pivots):
    """Solver of x·B = v for k independent rows b_i = t_i·w_i, given as
    integer rows (w_i, t_i): the k×k block of B at ``pivots`` is inverted
    once by Gauss-Jordan over Fraction (ValueError when it is singular).
    The returned function takes v as an integer row (w, s) and returns x as
    Fractions, or None when v is outside the span."""
    rows = matrix([[t * x for x in w] for w, t in basis])
    inv = inverse_gauss_jordan([[b[p] for p in pivots] for b in rows])

    def solve_row(v):
        w, s = v
        target = vector(s * x for x in w)
        x = vec_mat(tuple(target[p] for p in pivots), inv)
        combination = vec_mat(x, rows) if rows else (ZERO,) * len(target)
        return x if combination == target else None

    return solve_row


def sigma_by_inverse(bases, grade):
    """word -> Sigma_word for every word of the grade, from the dense duality
    system: B[v][u] is the coefficient of u in Pi_v, and Sigma_u is column u
    of B^-1, so that <Sigma_u, Pi_v> = (B B^-1)[v][u]."""
    words = [u for u in words_up_to_grading(bases.alphabet, grade) if u.grading == grade]
    inv = inverse_gauss_jordan([[bases.pi(v).coeff(u) for u in words] for v in words])
    return {
        u: NCPoly(bases.alphabet, dict(zip(words, col)))
        for u, col in zip(words, transpose(inv))
    }


def _outer(scale):
    """``word_mul`` sending (u, v) to scale * (u (x) v)."""
    return lambda u, v: (((u, v), scale),)


def _tensor_mul(t1, t2, word_mul, bound):
    """Product in (words, law) (x) (words, conc), truncated on both factors."""

    def pair_mul(s, t):
        (a, b), (u, v) = s, t
        if a.grading + u.grading > bound or b.grading + v.grading > bound:
            return ()
        right = b * v
        return [((w, right), c) for w, c in word_mul(a, u)]

    return word_product_terms(t1, t2, pair_mul)


def _tensor_exp(left, right, word_mul, bound):
    """exp(left (x) right) on Fractions: both factors homogeneous of equal grading."""
    grade = left.max_grade()
    one = left.alphabet.empty_word()
    out = {(one, one): Fraction(1)}
    lpow = rpow = {one: Fraction(1)}
    k = 0
    while (k + 1) * grade <= bound:
        k += 1
        lpow = word_product_terms(lpow, left.terms, word_mul)
        rpow = word_product_terms(rpow, right.terms)
        word_product_terms(lpow, rpow, _outer(Fraction(1, math.factorial(k))), out=out)
    return out


def pi1_by_fractions(p, phi=None):
    """pi1 on Word-keyed Fraction maps: for each word, the convolution
    powers of (id - unit counit) through the public coproduct, dual to the
    shuffle on x alphabets and to the phi-shuffle on y, weighted by
    (-1)^(k-1)/k."""
    dual = (lambda q: delta_phi(q, phi)) if p.alphabet.is_y else delta_shuffle
    splits = {}
    powers = {}

    def conv_power(w, k):
        if k == 1:
            return {w: Fraction(1)}
        if (w, k) not in powers:
            if w not in splits:
                splits[w] = [(u, v, c) for (u, v), c in dual(NCPoly.from_word(w)).terms.items() if u and v]
            out = {}
            for u, v, c in splits[w]:
                word_product_terms({u: c}, conv_power(v, k - 1), out=out)
            powers[w, k] = out
        return powers[w, k]

    out = {}
    for w, coeff in p.terms.items():
        for k in range(1, w.grading + 1):
            scale = coeff * Fraction((-1) ** (k - 1), k)
            word_product_terms({w.alphabet.empty_word(): scale}, conv_power(w, k), out=out)
    return NCPoly(p.alphabet, out)


def _poly_of_form(alphabet, form):
    """The NCPoly of an integer form (letter tuple -> numerator, denominator),
    built from Words and Fractions."""
    terms, den = form
    return NCPoly(alphabet, {Word(alphabet, t): Fraction(c, den) for t, c in terms.items()})


def _integer_form(p):
    """(letter tuple -> numerator, d) of an NCPoly, d the least common
    denominator of its Fraction coefficients."""
    terms = p.terms
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {w.letters: c.numerator * (d // c.denominator) for w, c in terms.items()}, d


def pi1_of(bases, letter):
    """pi1(y_k) as ``bases`` caches it: the image of the letter y_k under Phi."""
    return _poly_of_form(bases.alphabet, bases._letter_image(letter))


def phi_pi1(bases, p):
    """Phi(p), the conc-automorphism sending each letter y_k to pi1(y_k):
    each word of p as the conc product of ``pi1_of`` its letters."""
    one, out = NCPoly.one(bases.alphabet), NCPoly.zero(bases.alphabet)
    for w, c in p.terms.items():
        out += c * functools.reduce(conc, [pi1_of(bases, letter) for letter in w.letters], one)
    return out


def duality_by_fractions(alphabet, phi=None, bound=4):
    """The duality check on the public ``NCPoly`` accessors: every element
    rebuilt from ``Word``s and ``Fraction``s, homogeneity read from word
    gradings, and each grade's Gram matrix filled word by word from the
    integer forms of its elements.  Returns (word count, verdicts)
    as ``duality_check`` does."""
    bases = DualBases(alphabet, phi)
    pairs = [("S/P", bases.s, bases.p)] + ([("Sigma/Pi", bases.sigma, bases.pi)] if phi is not None else [])
    words = words_up_to_grading(alphabet, bound)
    grades = [list(same) for _, same in itertools.groupby(words, key=lambda w: w.grading)]
    verdicts = []
    for name, left, right in pairs:
        verdicts.append((name, _duality_failure_by_fractions(name, words, grades, left, right)))
        if verdicts[-1][1]:
            break
    return len(words), verdicts


def _duality_failure_by_fractions(name, words, grades, left, right):
    elements = {u: (left(u), right(u)) for u in words}
    for u, pair in elements.items():
        for family, element in zip(name.split("/"), pair):
            if any(w.grading != u.grading for w in element.terms):
                return f"{family}({u}) is not homogeneous of grade {u.grading}"
    for same in grades:
        forms = [[_integer_form(e) for e in elements[v]] for v in same]
        holders = {}
        for i, ((a, _), _) in enumerate(forms):
            for w, c in a.items():
                holders.setdefault(w, []).append((i, c))
        gram = [[0] * len(same) for _ in same]
        for j, (_, (b, _)) in enumerate(forms):
            for w, c in b.items():
                for i, x in holders.get(w, ()):
                    gram[i][j] += x * c
        for u, ((_, da), _), row in zip(same, forms, gram):
            for v, (_, (_, db)), got in zip(same, forms, row):
                if got != (da * db if u == v else 0):
                    return f"at <{u}, {v}> = {Fraction(got, da * db)}"
    return None


def dual_bases_by_fractions(alphabet, phi=None):
    """The four dual-basis families of ``FractionDualBases``."""
    return FractionDualBases(alphabet, phi)


class FractionDualBases:
    """P_w, S_w, Pi_w and Sigma_w as NCPolys built from NCPoly products:
    brackets and concatenations for P, divided shuffle powers for S, the
    letter images pi1(y_k) of ``pi1_by_fractions`` for Pi = Phi(P), and for
    Sigma = (Phi^-1)^T S the block contraction of each word of S."""

    def __init__(self, alphabet, phi=None):
        self.alphabet, self.phi = alphabet, phi
        self._contracted = {}

    def p(self, w):
        if len(w) < 2:
            return NCPoly(self.alphabet, {w: 1})
        factors = lyndon_factorization(w)
        if len(factors) == 1:
            s, r = standard_factorization(w)
            return conc(self.p(s), self.p(r)) - conc(self.p(r), self.p(s))
        out = NCPoly.one(self.alphabet)
        for f in factors:
            out = conc(out, self.p(f))
        return out

    def s(self, w):
        if len(w) < 2:
            return NCPoly(self.alphabet, {w: 1})
        factors = lyndon_factorization(w)
        if len(factors) == 1:
            return conc(NCPoly.from_word(w[:1]), self.s(w[1:]))
        out = NCPoly.one(self.alphabet)
        for l, group in itertools.groupby(factors):
            mult = len(list(group))
            power = NCPoly.one(self.alphabet)
            for _ in range(mult):
                power = shuffle(power, self.s(l))
            out = shuffle(out, power * Fraction(1, math.factorial(mult)))
        return out

    def letter_image(self, letter):
        return pi1_by_fractions(NCPoly.from_word(self.alphabet.word([letter])), self.phi)

    def pi(self, w):
        out = NCPoly.zero(self.alphabet)
        for v, c in self.p(w).terms.items():
            acc = NCPoly.one(self.alphabet) * c
            for letter in v.letters:
                acc = conc(acc, self.letter_image(letter))
            out = out + acc
        return out

    def _merged(self, block):
        m = self.alphabet.color_order or 1
        return self.alphabet.word([(block.grading, sum(c for _, c in block.letters) % m)])

    def _contract(self, u):
        if len(u) < 2:
            return NCPoly.from_word(u)
        if u not in self._contracted:
            out = NCPoly.zero(self.alphabet)
            for i in range(1, len(u)):
                head = self._merged(u[:i])
                out = out + conc(NCPoly.from_word(head, self._contract(u[:i]).coeff(head)), self._contract(u[i:]))
            whole = self._merged(u)
            value = out.pairing(self.letter_image(whole.letters[0]))
            self._contracted[u] = out - NCPoly.from_word(whole, value)
        return self._contracted[u]

    def sigma(self, w):
        out = NCPoly.zero(self.alphabet)
        for v, c in self.s(w).terms.items():
            out = out + self._contract(v) * c
        return out


def diagonal_by_fractions(alphabet, phi=None, bound=4, decreasing=True):
    """The diagonal factorization check on Fraction tensors: the word sum
    against the dual-basis sum, then against the ordered product of the
    exponentials exp(S_l (x) P_l), each multiplied out in full and truncated
    on both factors.  This is the literal statement, which the library no
    longer forms: it checks a Gram matrix and per-word Lyndon products
    instead.  Returns a ``FactorizationReport`` whose detail names the first
    differing tensor u (x) v."""
    bases = DualBases(alphabet, phi)
    word_mul = word_law(phi)
    left_of, right_of = (bases.s, bases.p) if phi is None else (bases.sigma, bases.pi)
    words = words_up_to_grading(alphabet, bound)
    side_words = {(w, w): Fraction(1) for w in words}
    side_bases = {}
    for w in words:
        word_product_terms(left_of(w).terms, right_of(w).terms, _outer(Fraction(1)), out=side_bases)
    factors = sorted(lyndon_words(alphabet, bound), key=Word.lex_key, reverse=decreasing)
    product = {(alphabet.empty_word(), alphabet.empty_word()): Fraction(1)}
    for l in factors:
        product = _tensor_mul(product, _tensor_exp(left_of(l), right_of(l), word_mul, bound), word_mul, bound)
    for name, other in (("dual-basis sum", side_bases), ("Lyndon product", product)):
        for key in sorted(set(side_words) | set(other), key=lambda k: (k[0].sort_key(), k[1].sort_key())):
            a = side_words.get(key, Fraction(0))
            b = other.get(key, Fraction(0))
            if a != b:
                return FactorizationReport(False, f"at {key[0]}⊗{key[1]}: word sum {a}, {name} {b}")
    return FactorizationReport(True)


def binomial_gamma(c):
    """gamma(i, j) = c * binomial(i + j, i) on i + j <= 12, as the CLI's
    gamma files hold it.  The pairs beyond take the default 1, so the table
    is associative only to weight 12: validated to 13, it is refused at
    (y1, y1, y11)."""
    return PhiTable(
        {(i, j): c * math.comb(i + j, i) for i in range(1, 12) for j in range(i, 13 - i)},
        validate_to=0,
    )


def non_associative_word_triple(phi, bound):
    """The first triple of y words (u, v, w) of total weight <= bound with
    (u * v) * w != u * (v * w) for the phi-shuffle *, or None: associativity
    checked on the products of words themselves."""
    words = [w for w in words_up_to_grading(Alphabet.y(), bound - 2) if w]
    for u, v, w in itertools.product(words, repeat=3):
        if u.grading + v.grading + w.grading > bound:
            continue
        p, q, r = (NCPoly.from_word(x) for x in (u, v, w))
        left = phi_shuffle(phi_shuffle(p, q, phi), r, phi)
        right = phi_shuffle(p, phi_shuffle(q, r, phi), phi)
        if left != right:
            return u, v, w
    return None


def _reachability_per_vector_solve(r):
    space = FractionRowSpace(r.rank)
    basis = []
    if space.add(r.nu):
        basis.append(r.nu)
    frontier = list(basis)
    while frontier:
        nxt = []
        for v in frontier:
            for m in r.mu.values():
                image = vec_mat(v, m)
                if space.add(image):
                    basis.append(image)
                    nxt.append(image)
        frontier = nxt
    if not basis:
        return LinRep.zero(r.alphabet, r.max_letter_weight)
    bt = transpose(basis)

    def coords(v):
        sol = solve_gauss_jordan(bt, v)
        assert sol is not None, "reachable space is not invariant"
        return sol

    mu = {letter: [coords(vec_mat(b, m)) for b in basis] for letter, m in r.mu.items()}
    eta = [dot(b, r.eta) for b in basis]
    return LinRep(r.alphabet, coords(r.nu), mu, eta, r.max_letter_weight)


def _transpose_rep(r):
    mu = {letter: transpose(m) for letter, m in r.mu.items()}
    return LinRep(r.alphabet, r.eta, mu, r.nu, r.max_letter_weight)


def minimize_per_vector_solve(r):
    """minimize with a Fraction solve for every coordinate vector: forward
    reachability, then the same on the transposed representation."""
    reduced = _reachability_per_vector_solve(r)
    return _transpose_rep(_reachability_per_vector_solve(_transpose_rep(reduced)))



# -- LinRep on Fraction matrices: closures, shifts, minimize, JSON ----------------
#
# The representation paths of the library before it stored integer forms:
# each result is built from Fraction vectors and matrices through the public
# constructor.


def rat_sum_by_fractions(r1, r2):
    bound = None if r1.alphabet.is_x else min(r1.max_letter_weight or 0, r2.max_letter_weight or 0)
    n1, n2 = r1.rank, r2.rank
    mu1, mu2 = r1.mu, r2.mu
    mu = {}
    for letter in r1.alphabet.letters(max_weight=bound):
        a, b = mu1[letter], mu2[letter]
        mu[letter] = [
            [a[i][j] if j < n1 else ZERO for j in range(n1 + n2)]
            if i < n1
            else [b[i - n1][j - n1] if j >= n1 else ZERO for j in range(n1 + n2)]
            for i in range(n1 + n2)
        ]
    return LinRep(r1.alphabet, r1.nu + r2.nu, mu, r1.eta + r2.eta, bound)


def rat_conc_by_fractions(r1, r2):
    bound = None if r1.alphabet.is_x else min(r1.max_letter_weight or 0, r2.max_letter_weight or 0)
    n1, n2 = r1.rank, r2.rank
    nu1, eta1, nu2, eta2, mu1, mu2 = r1.nu, r1.eta, r2.nu, r2.eta, r1.mu, r2.mu
    s2 = dot(nu2, eta2)
    mu = {}
    for letter in r1.alphabet.letters(max_weight=bound):
        a, b = mu1[letter], mu2[letter]
        nu2b = vec_mat(nu2, b)
        block = [[eta1[i] * nu2b[j] for j in range(n2)] for i in range(n1)]
        mu[letter] = [list(a[i]) + block[i] if i < n1 else [ZERO] * n1 + list(b[i - n1]) for i in range(n1 + n2)]
    return LinRep(r1.alphabet, nu1 + (ZERO,) * n2, mu, tuple(c * s2 for c in eta1) + eta2, bound)


def rat_star_by_fractions(r):
    nu, eta, n = r.nu, r.eta, r.rank
    if dot(nu, eta) != 0:
        raise ValueError("star needs a proper series: <R, 1> = 0")
    mu = {}
    for letter, m in r.mu.items():
        numu = vec_mat(nu, m)
        top = mat_add(m, [[eta[i] * numu[j] for j in range(n)] for i in range(n)])
        mu[letter] = [list(row) + [ZERO] for row in top] + [list(numu) + [ZERO]]
    return LinRep(r.alphabet, (ZERO,) * n + (ONE,), mu, eta + (ONE,), r.max_letter_weight)


def rat_phi_shuffle_by_fractions(r1, r2, phi=None):
    """The shuffle closure (phi None) or the phi-shuffle closure, from the
    letter coproducts of ``coproduct``: mu(x) = sum of g mu1(u) (x) mu2(v)."""
    alphabet = r1.alphabet
    bound = None if alphabet.is_x else min(r1.max_letter_weight or 0, r2.max_letter_weight or 0)
    mu1, mu2 = r1.mu, r2.mu
    factor = lambda mu, rank, u: mu[u.letters[0]] if u.letters else identity(rank)
    mu = {}
    for letter in alphabet.letters(max_weight=bound):
        x = NCPoly.from_word(Word(alphabet, (letter,)))
        rule = coproduct("shuffle", x) if phi is None else coproduct("phi", x, phi)
        mu[letter] = functools.reduce(mat_add, (
            kron(mat_scale(g, factor(mu1, r1.rank, u)), factor(mu2, r2.rank, v)) for (u, v), g in rule.terms.items()
        ))
    return LinRep(alphabet, kron_vec(r1.nu, r2.nu), mu, kron_vec(r1.eta, r2.eta), bound)


def left_shift_by_fractions(r, p):
    return LinRep(r.alphabet, vec_mat(r.nu, mu_of_poly_by_fractions(r, p)), r.mu, r.eta, r.max_letter_weight)


def right_shift_by_fractions(r, p):
    return LinRep(r.alphabet, r.nu, r.mu, mat_vec(mu_of_poly_by_fractions(r, p), r.eta), r.max_letter_weight)


def delta_conc_by_fractions(r):
    units = [tuple(ONE if j == i else ZERO for j in range(r.rank)) for i in range(r.rank)]
    return [(LinRep(r.alphabet, r.nu, r.mu, e, r.max_letter_weight), LinRep(r.alphabet, e, r.mu, r.eta, r.max_letter_weight))
            for e in units]


def _reachability_by_int_rows(r):
    """The reachable part of r: Fraction vectors as integer rows (w, s) of
    ``int_row``, coordinates by ``coordinates_by_fractions``."""
    n = r.rank
    mats = {}
    for letter, m in r.mu.items():
        flat, scale = int_row([x for row in m for x in row])
        mats[letter] = [flat[j::n] for j in range(n)], scale
    space = exactlin.RowSpace(n)
    start = int_row(r.nu)
    basis = [start] if space.add(start[0]) else []
    images = []
    while len(images) < len(basis):
        w, s = basis[len(images)]
        row = {}
        for letter, (cols, scale) in mats.items():
            u, g = int_row([sum(map(operator.mul, w, col)) for col in cols])
            row[letter] = image = (u, s * scale * g)
            if space.add(u):
                basis.append(image)
        images.append(row)
    if not basis:
        return LinRep.zero(r.alphabet, r.max_letter_weight)
    solve_row = coordinates_by_fractions(basis, space.pivots)
    mu = {letter: [solve_row(row[letter]) for row in images] for letter in r.mu}
    e, se = int_row(r.eta)
    eta = [t * se * sum(map(operator.mul, w, e)) for w, t in basis]
    return LinRep(r.alphabet, solve_row(start), mu, eta, r.max_letter_weight)


def minimize_by_fractions(r):
    """Forward reachability on integer rows with Fraction scales, then the
    same on the transposed representation."""
    reduced = _reachability_by_int_rows(r)
    return _transpose_rep(_reachability_by_int_rows(_transpose_rep(reduced)))


def linrep_from_json_by_fractions(data):
    """A representation JSON object read one ``Fraction(str)`` per entry."""
    alphabet = parse_alphabet(data["alphabet"])
    vector = lambda values: [Fraction(c) for c in values]
    mu = {alphabet.parse_word(name).letters[0]: [vector(row) for row in rows] for name, rows in data["mu"].items()}
    return LinRep(alphabet, vector(data["nu"]), mu, vector(data["eta"]), data.get("max_letter_weight"))


def linrep_from_json_per_vector(data):
    """A representation JSON object read vector by vector, each entry by
    ``ncpoly._json_ratio`` and each vector scaled by the lcm of all the
    denominators: the package's reader before it read canonical files in one
    pass, errors and their order included."""
    kinds = {"alphabet": str, "nu": list, "mu": dict, "eta": list}
    text, nu, mu, eta = _json_fields(data, kinds, "representation")
    alphabet = parse_alphabet(text)

    def vector(value, field):  # (numerators, denominators)
        return tuple(zip(*(_json_ratio(x, field) for x in _json_checked(value, list, field)))) or ((), ())

    colors = range(alphabet.color_order or 1)
    lightest = range(alphabet.size) if alphabet.is_x else ((k, c) for k in itertools.count(1) for c in colors)
    letter_of = {alphabet.letter_name(x): x for x in itertools.islice(lightest, len(mu))}
    matrices = {}
    for name, rows in mu.items():
        field = f"representation 'mu' {name!r}"
        letters = (letter_of[name],) if name in letter_of else alphabet.parse_word(name).letters
        if len(letters) != 1:
            raise ValueError(f"{field} is not one letter")
        if letters[0] in matrices:
            raise ValueError(f"{field} names {alphabet.letter_name(letters[0])}, as another 'mu' key does")
        matrices[letters[0]] = [vector(row, field) for row in _json_checked(rows, list, field)]
    weight = data.get("max_letter_weight")
    if weight is not None and type(weight) is not int:
        raise ValueError("representation 'max_letter_weight' must be an integer or null")
    nu, eta = vector(nu, "representation 'nu'"), vector(eta, "representation 'eta'")
    if "rank" in data:
        rank = data["rank"]
        if type(rank) is not int:
            raise ValueError("representation 'rank' must be an integer")
        if rank != len(nu[0]):
            raise ValueError(f"representation 'rank' is {rank}, but 'nu' has {len(nu[0])} entries")
    n = len(nu[0])
    if len(eta[0]) != n:
        raise ValueError("nu and eta disagree on the rank")
    if alphabet.is_y and weight is None:
        weight = max((k for (k, _) in matrices), default=0)
    zero = [([0] * n, [1] * n)] * n
    full = {}
    for letter in alphabet.letters(max_weight=weight):
        m = matrices.get(letter)
        if m is None:
            m = zero
        elif len(m) != n or any(len(nums) != n for nums, _ in m):
            raise ValueError(f"matrix for {alphabet.letter_name(letter)} is not {n}x{n}")
        full[letter] = m
    for letter in matrices:
        if letter not in full:
            alphabet.check_letter(letter)
            raise ValueError(f"unexpected letter {alphabet.letter_name(letter)} in mu: max_letter_weight is {weight}")
    d = math.lcm(*(q for _, dens in [nu, eta, *itertools.chain.from_iterable(full.values())] for q in dens))
    scaled = lambda v: tuple(p * (d // q) for p, q in zip(*v))
    rows = {letter: tuple(map(scaled, m)) for letter, m in full.items()}
    return LinRep._of(alphabet, d, scaled(nu), rows, scaled(eta), weight)


def linrep_to_json_by_fractions(r):
    """The JSON object of a representation, printed from its Fraction views
    as "p/q" in lowest terms."""
    texts = lambda values: [f"{c.numerator}/{c.denominator}" for c in values]
    mu = r.mu
    return {
        "rank": r.rank,
        "alphabet": alphabet_text(r.alphabet),
        "max_letter_weight": r.max_letter_weight,
        "nu": texts(r.nu),
        "mu": {r.alphabet.letter_name(x): [texts(row) for row in mu[x]] for x in sorted(mu, key=r.alphabet.letter_key)},
        "eta": texts(r.eta),
    }

def coeff_by_fractions(r, w):
    """nu mu(w) eta by Fraction row-vector products."""
    row = r.nu
    for letter in w.letters:
        row = vec_mat(row, r.matrix(letter))
    return dot(row, r.eta)


def word_matrix_by_fractions(r, w):
    """mu(w) as a Fraction matrix product, starting from the identity."""
    out = identity(r.rank)
    for letter in w.letters:
        out = mat_mul(out, r.matrix(letter))
    return out


def eval_truncated_by_fractions(r, bound):
    """All coefficients of grading <= bound, one Fraction row per prefix."""
    if r.alphabet.is_y and (r.max_letter_weight or 0) < bound:
        raise ValueError("materialized letter weights do not cover the bound")
    coeffs = {}
    frontier = [(r.alphabet.empty_word(), r.nu)]
    while frontier:
        nxt = []
        for w, row in frontier:
            c = dot(row, r.eta)
            if c:
                coeffs[w] = c
            for letter in r.alphabet.letters(max_weight=bound):
                if w.grading + r.alphabet.letter_weight(letter) <= bound:
                    nxt.append((w * Word(r.alphabet, (letter,)), vec_mat(row, r.matrix(letter))))
        frontier = nxt
    return TruncSeries(r.alphabet, bound, coeffs)


def mu_of_poly_by_fractions(r, p):
    """mu of a polynomial as a sum of scaled Fraction word matrices."""
    out = zeros(r.rank, r.rank)
    for w, c in p.terms.items():
        out = mat_add(out, mat_scale(c, word_matrix_by_fractions(r, w)))
    return out


def _matpoly_mul(a, b, word_mul=None, bound=None):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                word_product_terms(a[i][k], b[k][j], word_mul, bound, out[i][j])
    return out


def _matpoly_readout(nu, m, eta):
    out = {}
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            for w, c in entry.items():
                out[w] = out.get(w, Fraction(0)) + nu[i] * eta[j] * c
    return {w: c for w, c in out.items() if c}


def _matpoly_identity(alphabet, n):
    return [[{alphabet.empty_word(): Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]


def mxstar_by_fractions(r, bound, phi=None, mu_of_poly=mu_of_poly_by_fractions):
    """The factorization check of M(X*) with every matrix of polynomials on
    Fractions: the word sum of Fraction word matrices against the decreasing
    product of exp(mu(P_l) S_l), then the readout nu M eta against the
    series.  ``mu_of_poly`` gives mu(P_l), so a test can perturb it."""
    alphabet, n = r.alphabet, r.rank
    word_mul = word_law(phi)
    bases = DualBases(alphabet, phi)
    left_of, right_of = (bases.s, bases.p) if alphabet.is_x else (bases.sigma, bases.pi)
    lhs = [[{} for _ in range(n)] for _ in range(n)]
    for w in words_up_to_grading(alphabet, bound):
        for i, row in enumerate(word_matrix_by_fractions(r, w)):
            for j, c in enumerate(row):
                if c:
                    lhs[i][j][w] = c
    rhs = _matpoly_identity(alphabet, n)
    for l in sorted(lyndon_words(alphabet, bound), key=Word.lex_key, reverse=True):
        a = mu_of_poly(r, right_of(l))
        factor = _matpoly_identity(alphabet, n)
        apow = identity(n)
        spow = {alphabet.empty_word(): Fraction(1)}
        k = 0
        while (k + 1) * l.grading <= bound:
            k += 1
            apow = mat_mul(apow, a)
            spow = word_product_terms(spow, left_of(l).terms, word_mul)
            for i in range(n):
                for j in range(n):
                    c = apow[i][j] / math.factorial(k)
                    if c:
                        factor[i][j].update((w, c * t) for w, t in spow.items())
        rhs = _matpoly_mul(rhs, factor, word_mul, bound)
    differ = [
        w
        for lrow, rrow in zip(lhs, rhs)
        for left, right in zip(lrow, rrow)
        for w in left.keys() | right.keys()
        if left.get(w) != right.get(w)
    ]
    if differ:
        first = min(differ, key=Word.sort_key)
        return FactorizationReport(False, f"matrix series differ; first differing word: {first}")
    readout = TruncSeries(alphabet, bound, _matpoly_readout(r.nu, rhs, r.eta))
    if readout != eval_truncated_by_fractions(r, bound):
        return FactorizationReport(False, "nu M eta readout differs from the series")
    return FactorizationReport(True)


def triangular_by_fractions(r, bound):
    """The diagonal / strictly upper split of M(X) with Fraction matrices of
    polynomials: (rebuilt series, report).  An independent reference for
    ``triangular_decompose``: D(X*) as entrywise truncated geometric series,
    T = D(X*) N(X) and its matrix powers, multiplied out, where the library
    reads the order and the readout off a lifted representation."""
    alphabet, n = r.alphabet, r.rank
    one = alphabet.empty_word()
    diag = [{} for _ in range(n)]
    strict = [[{} for _ in range(n)] for _ in range(n)]
    for letter, m in r.mu.items():
        lw = Word(alphabet, (letter,))
        for i in range(n):
            if m[i][i]:
                diag[i][lw] = m[i][i]
            for j in range(i + 1, n):
                if m[i][j]:
                    strict[i][j][lw] = m[i][j]
    d_star = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        acc = total = {one: Fraction(1)}
        for _ in range(bound):
            acc = word_product_terms(acc, diag[i], bound=bound)
            total = {**total, **acc}
        d_star[i][i] = total
    t = _matpoly_mul(d_star, strict, bound=bound)
    power = geom = _matpoly_identity(alphabet, n)
    order = 0
    while True:
        power = _matpoly_mul(power, t, bound=bound)
        if not any(entry for row in power for entry in row):
            break
        order += 1
        if order > n:
            return (
                TruncSeries(alphabet, bound),
                FactorizationReport(False, "D(X*) N(X) failed to nilpotate within the rank"),
            )
        for grow, prow in zip(geom, power):
            for g, p in zip(grow, prow):
                for w, c in p.items():
                    g[w] = g.get(w, Fraction(0)) + c
    full = _matpoly_mul(geom, d_star, bound=bound)
    rebuilt = TruncSeries(alphabet, bound, _matpoly_readout(r.nu, full, r.eta))
    ok = rebuilt == eval_truncated_by_fractions(r, bound)
    detail = f"nilpotency order {order} (rank {n})" if ok else "reconstruction differs"
    return rebuilt, FactorizationReport(ok, detail)


def sweedler_by_fractions(series, max_rank=None):
    """``sweedler_membership`` of a window on Fraction Hankel rows: the
    basis rows by ``FractionRowSpace``, every coordinate vector by
    ``coordinates_by_fractions``, the realization through the public
    constructor and its witnesses by ``delta_conc_by_fractions``."""
    alphabet, n = series.alphabet, series.bound
    if n < 1:
        return SweedlerVerdict(False, None, "window too small for realization evidence")
    wmax = 1 if alphabet.is_x else max([1] + [w.grading for w in series.coeffs if len(w) == 1])
    if n < wmax:
        return SweedlerVerdict(False, None, "window too small for realization evidence")
    p = (n - wmax) // 2
    cols = words_up_to_grading(alphabet, n - wmax - p)
    hankel_row = lambda u: vector(series.coeff(u * v) for v in cols)
    space = FractionRowSpace(len(cols))
    basis_words = [u for u in words_up_to_grading(alphabet, p) if space.add(hankel_row(u))]
    rank = len(basis_words)
    if max_rank is not None and rank > max_rank:
        return SweedlerVerdict(False, None, f"no realization of rank <= {max_rank} within window {n} (Hankel rank {rank})")
    if rank == 0:
        return SweedlerVerdict(True, 0, f"zero series on window {n}", delta_conc_by_fractions(LinRep.zero(alphabet)))
    solve_row = coordinates_by_fractions([int_row(hankel_row(u)) for u in basis_words], space.pivots)
    mu = {}
    for letter in alphabet.letters(max_weight=wmax):
        mu[letter] = [solve_row(int_row(hankel_row(u * Word(alphabet, (letter,))))) for u in basis_words]
        if None in mu[letter]:
            return SweedlerVerdict(False, None, f"no rank-{rank} realization within window {n}: shifted rows leave the span")
    nu = solve_row(int_row(hankel_row(alphabet.empty_word())))
    if nu is None:
        return SweedlerVerdict(False, None, "row of the empty word leaves the span")
    rep = LinRep(alphabet, nu, mu, [series.coeff(u) for u in basis_words], None if alphabet.is_x else wmax)
    for w in words_up_to_grading(alphabet, n):
        value = ZERO if any(alphabet.letter_weight(a) > wmax for a in w.letters) else coeff_by_fractions(rep, w)
        if value != series.coeff(w):
            return SweedlerVerdict(False, None, f"no rank-{rank} realization reproduces the window (first failure at {w})")
    return SweedlerVerdict(True, rank, f"rational up to {n} with rank {rank}", delta_conc_by_fractions(rep))


def lie_by_fractions(r):
    """``lie_diagnostics`` on the Fraction letter matrices: the bracket
    closure, then the lower central and derived series, every span tested
    by ``FractionRowSpace``."""
    n = r.rank
    flat = lambda m: [c for row in m for c in row]

    def span_basis(mats):
        space = FractionRowSpace(n * n)
        return [m for m in mats if space.add(flat(m))]

    space = FractionRowSpace(n * n)
    closure = [m for m in r.mu.values() if space.add(flat(m))]
    frontier = list(closure)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closure):
                c = bracket(a, b)
                if space.add(flat(c)):
                    closure.append(c)
                    nxt.append(c)
        frontier = nxt

    def descend(step):
        current, dims, index = closure, [len(closure)], 1
        while current:
            nxt = step(current)
            if len(nxt) == len(current):
                return False, None, dims
            current = nxt
            dims.append(len(current))
            if not current:
                return True, index, dims
            index += 1
        return True, 0, dims

    def brackets(left, right):
        # one list on both sides: the pairs i < j span the same space, as
        # [b, a] = -[a, b] and [a, a] = 0
        pairs = itertools.combinations(left, 2) if left is right else itertools.product(left, right)
        return span_basis([bracket(a, b) for a, b in pairs])

    nil, nil_k, lc_dims = descend(lambda cur: brackets(closure, cur))
    sol, sol_k, dv_dims = descend(lambda cur: brackets(cur, cur))
    return LieDiagnostics(closure, nil, sol, nil_k, sol_k, lc_dims, dv_dims)


# -- Word-keyed Fraction maps: the stored forms' oracle ------------------------
#
# Plain dicts from Words (pairs of Words for tensors) to Fractions, with
# cancelled terms dropped, and the printers and JSON as they were written on
# Word keys: the reference for NCPoly, TensorPoly and TruncSeries.


def _accumulate(out, key, c):
    total = out.get(key, Fraction(0)) + c
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def add_by_words(p, q, scale=Fraction(1)):
    """p + scale q on Word-keyed maps."""
    out = dict(p)
    for key, c in q.items():
        _accumulate(out, key, scale * c)
    return out


def scale_by_words(p, c):
    return {key: c * x for key, x in p.items() if c * x}


def _merged_letter(alphabet, a, b):
    m = alphabet.color_order or 1
    return Word(alphabet, ((a[0] + b[0], (a[1] + b[1]) % m),))


def phi_shuffle_by_words(u, v, phi=None):
    """u * v for the shuffle (phi None) or the phi-shuffle, by the recursion
    a u' * b v' = a (u' * b v') + b (a u' * v') + gamma(a, b) [a + b] (u' * v')
    on Words."""
    if not u:
        return {v: Fraction(1)}
    if not v:
        return {u: Fraction(1)}
    out = {}
    for head, rest in ((u[:1], phi_shuffle_by_words(u[1:], v, phi)), (v[:1], phi_shuffle_by_words(u, v[1:], phi))):
        for w, c in rest.items():
            _accumulate(out, head * w, c)
    if phi is not None:
        (a,), (b,) = u.letters[:1], v.letters[:1]
        g = phi.gamma(a[0], b[0])
        head = _merged_letter(u.alphabet, a, b)
        for w, c in phi_shuffle_by_words(u[1:], v[1:], phi).items():
            _accumulate(out, head * w, g * c)
    return out


def product_by_words(p, q, law, phi=None, bound=None):
    """The conc, shuffle or phi product of two Word-keyed maps, truncated at
    ``bound`` on the sum of the gradings when given."""
    out = {}
    for u, a in p.items():
        for v, b in q.items():
            if bound is not None and u.grading + v.grading > bound:
                continue
            terms = {u * v: Fraction(1)} if law == "conc" else phi_shuffle_by_words(u, v, phi if law == "phi" else None)
            for w, c in terms.items():
                _accumulate(out, w, a * b * c)
    return out


def coproduct_by_words(alphabet, p, law, phi=None):
    """Delta p on Word-keyed maps: every split of each word for conc, and for
    the shuffle and phi-shuffle the dual of the product, <Delta p, u (x) v> =
    <p, u * v>, over every pair of words whose gradings add up to a word of p."""
    out = {}
    if law == "conc":
        for w, c in p.items():
            for i in range(len(w) + 1):
                _accumulate(out, (w[:i], w[i:]), c)
        return out
    top = max((w.grading for w in p), default=0)
    words = words_up_to_grading(alphabet, top)
    for u in words:
        for v in words:
            if u.grading + v.grading <= top:
                uv = phi_shuffle_by_words(u, v, phi if law == "phi" else None)
                for w, c in p.items():
                    _accumulate(out, (u, v), c * uv.get(w, Fraction(0)))
    return out


def series_power_sum_by_words(alphabet, x, bound, weights):
    """sum_k weights[k] x^k over k >= 0, the powers of the Word-keyed map x
    taken by truncated concatenation, x^0 the empty word."""
    out = {}
    power = {alphabet.empty_word(): Fraction(1)}
    for k, weight in enumerate(weights):
        if k:
            power = product_by_words(power, x, "conc", bound=bound)
        out = add_by_words(out, power, weight)
    return out


def word_name(w):
    """A word's name from its letter names."""
    return " ".join(w.alphabet.letter_name(a) for a in w.letters) or "ε"


def display_key_by_words(w):
    return (w.grading, w.letters)


def poly_str_by_words(p):
    if not p:
        return "0"
    parts = []
    for w, c in sorted(p.items(), key=lambda t: display_key_by_words(t[0])):
        word = word_name(w)
        if c == 1:
            parts.append(word)
        elif c == -1:
            parts.append(f"-({word})" if parts else f"-{word}")
        else:
            parts.append(f"{c} {word}")
    return " + ".join(parts).replace("+ -", "- ")


def tensor_str_by_words(t):
    if not t:
        return "0"
    bits = []
    for (u, v), c in sorted(t.items(), key=lambda kc: (kc[0][0].sort_key(), kc[0][1].sort_key())):
        body = f"{word_name(u)}⊗{word_name(v)}"
        bits.append(body if c == 1 else f"{c} {body}")
    return " + ".join(bits)


def series_str_by_words(coeffs, bound):
    body = " + ".join(f"{c} {word_name(w)}" for w, c in sorted(coeffs.items(), key=lambda t: t[0].sort_key()))
    return f"({body or '0'}) + O(grade {bound + 1})"


def json_ratio_by_fraction(value, field):
    """A rational of JSON input as one ``Fraction`` of the string or integer,
    the package's reader before it split "p/q" into integers."""
    if type(value) in (str, int):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} is not a rational number: {value!r}")


def poly_json_by_words(p):
    return [
        {"word": word_name(w), "coeff": f"{c.numerator}/{c.denominator}"}
        for w, c in sorted(p.items(), key=lambda t: t[0].sort_key())
    ]


def tensor_json_by_words(t):
    return [
        {"left": word_name(u), "right": word_name(v), "coeff": f"{c.numerator}/{c.denominator}"}
        for (u, v), c in sorted(t.items(), key=lambda kc: (kc[0][0].sort_key(), kc[0][1].sort_key()))
    ]


def conc_truncated(a: NCPoly, b: NCPoly, bound: int) -> NCPoly:
    out = NCPoly.zero(a.alphabet)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if u.grading + v.grading <= bound:
                out = out + NCPoly.from_word(u * v, cu * cv)
    return out


def shuffle_truncated(a: NCPoly, b: NCPoly, bound: int) -> NCPoly:
    out = NCPoly.zero(a.alphabet)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if u.grading + v.grading <= bound:
                out = out + shuffle(NCPoly.from_word(u), NCPoly.from_word(v)) * (cu * cv)
    return out


def phi_shuffle_truncated(a: NCPoly, b: NCPoly, phi: PhiTable, bound: int) -> NCPoly:
    out = NCPoly.zero(a.alphabet)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if u.grading + v.grading <= bound:
                out = out + phi_shuffle(
                    NCPoly.from_word(u), NCPoly.from_word(v), phi
                ) * (cu * cv)
    return out


def star_truncated(proper: NCPoly, bound: int) -> NCPoly:
    total = NCPoly.one(proper.alphabet)
    power = NCPoly.one(proper.alphabet)
    for _ in range(bound):
        power = conc_truncated(power, proper, bound)
        total = total + power
    return total


def _coproduct_table(series, law, bound, phi):
    """<Delta S, u (x) v> for every pair, summed from the coproduct of each
    word of grading <= bound."""
    table = {}
    for w in words_up_to_grading(series.alphabet, bound):
        c = series.coeff(w)
        if not c:
            continue
        for key, k in coproduct(law, NCPoly.from_word(w), phi).terms.items():
            table[key] = table.get(key, Fraction(0)) + c * k
    return table


def grouplike_by_coproduct(series, law, *, phi=None, bound=None, tol=0):
    """Delta S = S (x) S on all tensor coefficients with (u) + (v) <= bound."""
    n = series.bound if bound is None else bound
    if not _values_match(series.coeff(series.alphabet.empty_word()), Fraction(1), tol):
        return False
    table = _coproduct_table(series, law, n, phi)
    words = words_up_to_grading(series.alphabet, n)
    for u in words:
        for v in words:
            if u.grading + v.grading > n:
                continue
            lhs = table.get((u, v), Fraction(0))
            if not _values_match(lhs, series.coeff(u) * series.coeff(v), tol):
                return False
    return True


def primitive_by_coproduct(series, law, *, phi=None, bound=None, tol=0):
    """Delta S = 1 (x) S + S (x) 1 on the same window."""
    n = series.bound if bound is None else bound
    table = _coproduct_table(series, law, n, phi)
    words = words_up_to_grading(series.alphabet, n)
    for u in words:
        for v in words:
            if u.grading + v.grading > n:
                continue
            rhs = Fraction(0)
            if not u:
                rhs = rhs + series.coeff(v)
            if not v:
                rhs = rhs + series.coeff(u)
            if not _values_match(table.get((u, v), Fraction(0)), rhs, tol):
                return False
    return True


def gl_reference_by_loops(g):
    """Gauss-Legendre nodes, weights and the cumulative integration matrix
    cum[j, i] (the integral from -1 to x_j of the interpolant of e_i), one
    Legendre projection and one integral per column."""
    x, wts = leggauss(g)
    proj = np.empty((g, g))  # value samples -> Legendre coefficients
    for k in range(g):
        pk = np.zeros(g)
        pk[k] = 1.0
        proj[k] = (2 * k + 1) / 2 * wts * legval(x, pk)
    cum = np.empty((g, g))
    for i in range(g):
        cum[:, i] = legval(x, legint(proj[:, i], lbnd=-1))
    return x, wts, cum


def _chen_values(forms, z0, z, words, panels, g):
    """Chen coefficients of the given words, advanced word by word on the
    shared panel grid: each word integrates its head form against its tail."""
    x, wts, cum = _gl_reference(g)
    by_length = sorted(words, key=len)
    totals = {w: (1.0 + 0j if not w else 0.0j) for w in by_length}
    edges = np.linspace(z0, z, panels + 1)
    m = forms.sigma.m
    for a, b in zip(edges[:-1], edges[1:]):
        scale = (b - a) / 2
        nodes = a + (x + 1) * scale
        u_at = {i: np.array([forms.u(i, t) for t in nodes]) for i in range(m + 1)}
        vals = {}
        ends = {}
        for w in by_length:
            if not w:
                vals[w] = np.full(g, 1.0 + 0j)
                ends[w] = 1.0 + 0j
                continue
            head, tail = w.letters[0], w[1:]
            integrand = u_at[head] * vals[tail]
            vals[w] = totals[w] + scale * (cum @ integrand)
            ends[w] = totals[w] + scale * complex(wts @ integrand)
        for w in by_length:
            if w:
                totals[w] = ends[w]
    return totals


def chen_series_per_word(forms, z0, z, bound, quad=None):
    """word -> ComplexVal: the panel-doubling loop and the final evaluation
    of chen_series, one word at a time."""
    quad = quad or QuadratureConfig()
    alphabet = forms.alphabet()
    letters = [alphabet.word((i,)) for i in range(forms.sigma.m + 1)]
    grade_one = [alphabet.empty_word()] + letters
    panels = quad.initial_panels
    prev = _chen_values(forms, z0, z, grade_one, panels, quad.nodes)
    delta = math.inf
    for _ in range(quad.max_doublings):
        panels *= 2
        cur = _chen_values(forms, z0, z, grade_one, panels, quad.nodes)
        delta = max(abs(cur[l] - prev[l]) for l in letters)
        prev = cur
        if delta < quad.tol:
            break
    totals = _chen_values(forms, z0, z, words_up_to_grading(alphabet, bound), panels, quad.nodes)
    err = max(delta, quad.tol)
    return {w: ComplexVal(v, err) for w, v in totals.items()}


def system_output_word_sum(r, forms, z0, z, bound, quad=None):
    """sum over words of nu mu(w) eta times the per-word Chen coefficient,
    with the quadrature and last-layer error terms of system_output."""
    alpha = chen_series_per_word(forms, z0, z, bound, quad)
    series = eval_truncated_by_fractions(r, bound)
    total = 0j
    err = 0.0
    last_layer = 0.0
    for w in words_up_to_grading(r.alphabet, bound):
        c = series.coeff(w)
        if not c:
            continue
        a = alpha[w]
        term = complex(c) * a.value
        total += term
        err += abs(complex(c)) * a.err
        if w.grading == bound:
            last_layer += abs(term)
    return ComplexVal(total, err + last_layer)


def harmonic_arrays_mirror(letters, n, sigma):
    """Mirror of the complex suffix recursion of ``hyperlog._harmonic_arrays``
    as it was before the real path and the per-colour power tables: complex
    rows, and for every letter its own rho^1..rho^n by ``np.power``, divided
    by k^s.  A mirror, not an independent route: the library's rows must
    equal these bit for bit, signs of zero included."""
    rhos = [1.0 + 0j if sigma is None else sigma.rho_of_color(c) for _, c in letters]
    k = np.arange(1, n + 1, dtype=float)
    rows = np.empty((len(letters) + 1, n + 1), dtype=complex)
    rows[0] = 1.0
    arr = rows[0]
    for r, (letter, rho) in enumerate(zip(reversed(letters), reversed(rhos))):
        s = letter[0]
        term = np.power(complex(rho), np.arange(1, n + 1)) / k**s
        nxt = np.empty(n + 1, dtype=complex)
        nxt[0] = 0.0
        np.cumsum(term * arr[:-1], out=nxt[1:])
        rows[r + 1] = nxt
        arr = nxt
    return rows


def chen_table_by_words(series, fmt):
    """The stdout of ``eval chen`` for a Chen series, one Word and one
    ComplexVal per row, each row formatted and printed on its own: json is
    one ``json.dumps`` line, csv and text are the CSV table."""

    def fnum(x):
        return f"{x:.15g}"

    rows = series.coeffs.items()
    if fmt == "json":
        return (
            json.dumps(
                [
                    {"word": str(w), "re": fnum(v.real), "im": fnum(v.imag), "err": fnum(v.err)}
                    for w, v in rows
                ],
                sort_keys=True,
            )
            + "\n"
        )
    lines = ["word,re,im,err"] + [f"{w},{fnum(v.real)},{fnum(v.imag)},{fnum(v.err)}" for w, v in rows]
    return "".join(line + "\n" for line in lines)


def taylor_ode_solution(t0, t1, t2, z0, y0, yp0, z, order=40):
    """Hypergeometric ODE z(1-z) y'' + (t2 - (t0+t1+1) z) y' - t0 t1 y = 0,
    advanced from z0 by Taylor series recentered along the segment; steps
    stay well inside the distance to the singularities {0, 1}."""
    t0, t1, t2 = float(t0), float(t1), float(t2)
    a = z0
    y, yp = float(y0), float(yp0)
    while a < z - 1e-15:
        step = min(0.5 * min(a, 1 - a), z - a)
        a0 = a * (1 - a)
        a1 = 1 - 2 * a
        a2 = -1.0
        b0 = t2 - (t0 + t1 + 1) * a
        b1 = -(t0 + t1 + 1)
        c0 = -t0 * t1
        b = [y, yp]
        for k in range(order):
            num = (
                a1 * (k + 1) * k * b[k + 1]
                + a2 * k * (k - 1) * b[k]
                + b0 * (k + 1) * b[k + 1]
                + b1 * k * b[k]
                + c0 * b[k]
            )
            b.append(-num / (a0 * (k + 2) * (k + 1)))
        y = sum(b[k] * step**k for k in range(len(b) - 1, -1, -1))
        yp = sum(k * b[k] * step ** (k - 1) for k in range(len(b) - 1, 0, -1))
        a += step
    return y
