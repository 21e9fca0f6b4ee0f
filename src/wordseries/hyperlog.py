"""Numeric realization: hyperlogarithms, harmonic sums, polyzetas, Chen series.

Words over the x alphabet index iterated integrals of the forms
dz/z and rho_i dz/(1 - rho_i z); words over the (colored) y alphabet index
the nested sums obtained as their Taylor coefficients.  The correspondence
x0^(s-1) x_i  <->  y_(s, color i) is the block map pi_Y.

Evaluation strategy: nested sums are computed by the suffix recursion
H_(y v)(n) = sum_k rho^k k^-s H_v(k-1), vectorized over the cutoff (numpy):
in float64 when every rho is exactly 1, otherwise in complex with one power
table per colour; or exactly in rational / cyclotomic-rational arithmetic
for small cutoffs.  A power table b^1..b^n (``_powers``) is numpy's own
complex power, bit for bit: repeated squarings below exponent 100 and
exp(k log b) from 100 on, as glibc's cpow computes it.  The kernels ignore
floating-point overflow; a value or error that is not finite is refused by
the public function, and a polyzeta whose leading |rho| exceeds 1 at entry.
A numeric request is checked once, by the public function it enters; the
nested sums below (``_blocks``, ``_harmonic_arrays``, ``_nested_sum``) run
on letter tuples and check nothing again.
Hyperlogarithms at |z| < 1 are geometric-tail-bounded partial sums; words
with trailing x0 are handled by shuffle regularization against the
convention Li_(x0)(z) = log z.  The Chen series integrates all word
coefficients on one shared composite Gauss-Legendre panel grid so that
shuffle identities survive discretization.

The Chen kernel holds one array per grade instead of one entry per word.
Grade k lists the (m+1)^k x words in lexicographic order, so the word a w'
has id a (m+1)^(k-1) + id(w'), and each panel advances a whole grade from
the node values of the grade below, with one BLAS gemv and one dot per
word; the top grade needs no node values and takes only the dot.  Its
coefficients are bit-identical to integrating word by word.
``system_output`` pairs these arrays a grade at a time with the exact
coefficients nu mu(w) eta, computed in the same id order, and never builds
a word; ``_chen_names`` names the words of these arrays in the same order,
so the CLI prints the table without building one either.  Both refuse a
bound whose word count sum_(k<=N) (m+1)^k exceeds a fixed budget of 2^18
words.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval

from .linrep import LinRep
from .ncpoly import _SHUFFLE, TruncSeries, _add_term, _phi_shuffle_letters, _product
# words_up_to_grading stays bound here: the benchmark's tracer test calls hyperlog.words_up_to_grading
from .words import Alphabet, Word, _check_word_budget, _graded_letters, words_up_to_grading  # noqa: F401

ZERO = Fraction(0)
ONE = Fraction(1)
_EPS = float(np.finfo(float).eps)

__all__ = [
    "ComplexVal",
    "SingularitySet",
    "FormFamily",
    "QuadratureConfig",
    "CycloRational",
    "pi_Y",
    "pi_X",
    "harmonic_sum",
    "harmonic_sum_exact",
    "polylog",
    "RelationReport",
    "generating_relation_check",
    "polyzeta",
    "chen_series",
    "system_output",
    "hypergeometric_system",
    "colored_alphabets",
    "linear_independence_rank",
]


@dataclass(frozen=True)
class ComplexVal:
    """A double-precision value with an additive absolute error estimate."""

    value: complex
    err: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if self.err < 0:
            raise ValueError("error estimate must be >= 0")

    def __complex__(self) -> complex:
        return self.value

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag

    def _coerce(self, other) -> "ComplexVal":
        if isinstance(other, ComplexVal):
            return other
        return ComplexVal(complex(other))

    def __add__(self, other) -> "ComplexVal":
        o = self._coerce(other)
        return ComplexVal(self.value + o.value, self.err + o.err)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexVal":
        o = self._coerce(other)
        return ComplexVal(self.value - o.value, self.err + o.err)

    def __rsub__(self, other) -> "ComplexVal":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ComplexVal":
        o = self._coerce(other)
        err = abs(self.value) * o.err + abs(o.value) * self.err + self.err * o.err
        return ComplexVal(self.value * o.value, err)

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexVal":
        return ComplexVal(-self.value, self.err)

    def __bool__(self) -> bool:
        return self.value != 0

    def __abs__(self) -> float:
        return abs(self.value)

    def __str__(self) -> str:
        return f"{self.value.real:.15g}{self.value.imag:+.15g}j ± {self.err:.3g}"


class CycloRational:
    """Exact element of Q[zeta_m]: color index -> Fraction, convolution product."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction] | None = None):
        self.order = order
        self.coeffs = {}
        for c, q in (coeffs or {}).items():
            _add_term(self.coeffs, c % order, Fraction(q))

    @classmethod
    def root_power(cls, order: int, power: int) -> "CycloRational":
        return cls(order, {power % order: ONE})

    def __add__(self, other: "CycloRational") -> "CycloRational":
        out = dict(self.coeffs)
        for c, q in other.coeffs.items():
            out[c] = out.get(c, ZERO) + q
        return CycloRational(self.order, out)

    def __mul__(self, other) -> "CycloRational":
        if isinstance(other, CycloRational):
            m = self.order
            add = lambda c1, c2: (((c1 + c2) % m, ONE),)
            return CycloRational(m, _product(self.coeffs, other.coeffs, add))
        return CycloRational(self.order, {c: q * Fraction(other) for c, q in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloRational)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def to_complex(self) -> complex:
        return sum(
            (float(q) * cmath.exp(2j * cmath.pi * c / self.order) for c, q in self.coeffs.items()),
            0j,
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{q}·ζ^{c}" for c, q in sorted(self.coeffs.items())) or "0"
        return f"({body} | ζ^m=1, m={self.order})"


# -- singularities and forms ----------------------------------------------------


@dataclass(frozen=True)
class SingularitySet:
    """Singularities s_0 = 0 < index list, with reciprocals rho_i = 1/s_i.

    ``color_order`` marks the exact roots-of-unity case rho_i = exp(2 pi i/m);
    color indices then live in Z/mZ and power arithmetic stays exact.
    """

    values: tuple
    color_order: int | None = None

    def __post_init__(self):
        if not self.values or complex(self.values[0]) != 0:
            raise ValueError("s_0 = 0 is reserved and required")
        pts = [complex(v) for v in self.values]
        if not all(map(cmath.isfinite, pts)):
            raise ValueError("singularities must be finite")
        for i, a in enumerate(pts):
            for b in pts[:i]:
                if abs(a - b) < 1e-12:
                    raise ValueError("singularities must be pairwise distinct")
        if self.color_order is not None and self.color_order != self.m:
            raise ValueError(f"color order {self.color_order} must equal the number of nonzero singularities, {self.m}")

    @classmethod
    def from_values(cls, values: Iterable) -> "SingularitySet":
        return cls(tuple(values))

    @classmethod
    def classical(cls) -> "SingularitySet":
        """sigma = {0, 1}: ordinary polylogarithms and harmonic sums."""
        return cls((ZERO, ONE))

    @classmethod
    def roots_of_unity(cls, m: int) -> "SingularitySet":
        """s_i = rho_i^-1 with rho_i = exp(2 pi i i/m); exact color arithmetic."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if m == 1:
            return cls.classical()
        values = (ZERO,) + tuple(cmath.exp(-2j * cmath.pi * i / m) for i in range(1, m + 1))
        return cls(values, m)

    @property
    def m(self) -> int:
        """Number of nonzero singularities: the x alphabet has m + 1 letters."""
        return len(self.values) - 1

    def s(self, i: int):
        return self.values[i]

    def rho(self, i: int):
        if i == 0:
            raise ValueError("s_0 = 0 has no reciprocal")
        v = self.values[i]
        return 1 / v if isinstance(v, Fraction) else 1 / complex(v)

    @functools.cached_property
    def _rho_complex(self) -> tuple:
        """rho_i as a complex for i >= 1 (None at i = 0), computed once for
        the integrands that the quadrature evaluates at every node."""
        return (None,) + tuple(complex(self.rho(i)) for i in range(1, self.m + 1))

    # -- color conventions ----------------------------------------------------

    def color_of_index(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"singularity index {i} out of range")
        if self.color_order:
            return i % self.m
        if i > 1:  # color 0 names s_1, and a y letter has no other color to name s_i by
            raise ValueError(f"singularity index {i} has no color: a set without a color order colors only s_1")
        return 0

    def index_of_color(self, c: int) -> int:
        if self.color_order:
            return c if c else self.m
        if c:
            raise ValueError("plain singularity sets carry no colors")
        return 1 if self.m >= 1 else 0

    def rho_of_color(self, c: int) -> complex:
        return complex(self.rho(self.index_of_color(c)))

    def x_alphabet(self) -> Alphabet:
        return Alphabet.x(self.m + 1)

    def y_alphabet(self) -> Alphabet:
        return Alphabet.y(color_order=self.color_order)


@dataclass(frozen=True)
class FormFamily:
    """The differential forms dz/z and rho_i dz/(1 - rho_i z) for sigma."""

    sigma: SingularitySet

    def u(self, i: int, z):
        """Integrand u_0(z) = 1/z, u_i(z) = 1/(s_i - z), computed as rho_i/(1 - rho_i z)."""
        if i == 0:
            return 1.0 / z
        rho = self.sigma._rho_complex[i]
        return rho / (1 - rho * z)

    def alphabet(self) -> Alphabet:
        return self.sigma.x_alphabet()


# -- the block correspondence ---------------------------------------------------


def _blocks(letters: tuple, sigma: SingularitySet) -> tuple:
    """pi_Y on an x letter tuple, unchecked: each block x0^(s-1) x_i becomes
    the y letter (s, color i)."""
    out = []
    zeros = 0
    for letter in letters:
        if letter == 0:
            zeros += 1
        else:
            out.append((zeros + 1, sigma.color_of_index(letter)))
            zeros = 0
    return tuple(out)


def pi_Y(w: Word, sigma: SingularitySet) -> Word:
    """x0^(s-1) x_i blocks to y_(s, color i); rejects words ending in x0."""
    if not w.alphabet.is_x:
        raise ValueError("pi_Y takes an x word")
    if len(w.alphabet.letters()) != sigma.m + 1:
        raise ValueError("alphabet size does not match the singularity set")
    if w and w.letters[-1] == 0:
        raise ValueError("pi_Y is defined on words not ending in x0")
    return Word._trusted(sigma.y_alphabet(), _blocks(w.letters, sigma), len(w))  # a block's weight is its letter count


def pi_X(w: Word, sigma: SingularitySet) -> Word:
    """Inverse of pi_Y."""
    if not w.alphabet.is_y:
        raise ValueError("pi_X takes a y word")
    if w.alphabet.color_order not in (None, sigma.color_order):
        raise ValueError("singularity set colors disagree with the alphabet")
    target = sigma.x_alphabet()
    out = []
    for s, c in w.letters:
        out.extend([0] * (s - 1))
        out.append(sigma.index_of_color(c))
    return Word(target, tuple(out))


# -- harmonic sums ------------------------------------------------------------------


def _y_request(word: Word, n: int, sigma: SingularitySet | None, cutoff: str = "n", exact: bool = False) -> None:
    """The entry check of a y word and its cutoff: a y word, n >= 0, and
    colours of sigma.  A colored alphabet needs a set of its colour order;
    with no set every rho is 1, so only colour 0 has a float value (exact
    sums read colours in the cyclotomic field of the alphabet)."""
    if not word.alphabet.is_y:
        raise ValueError("harmonic sums are indexed by y words")
    if n < 0:
        raise ValueError(f"{cutoff} must be >= 0")
    if sigma is not None and word.alphabet.color_order not in (None, sigma.color_order):
        raise ValueError("singularity set colors disagree with the alphabet")
    if sigma is None and not exact and any(c for _, c in word.letters):
        raise ValueError("colored letters need a singularity set")


def _powers(base: complex, count: int) -> np.ndarray:
    """base^1..base^count, bit for bit ``np.power(base, np.arange(1, count + 1))``.

    numpy raises a complex base to an integer exponent below 100 by repeated
    squaring and from 100 up by libm's cpow, which glibc computes as
    cexp(k clog(base)); the exponents from 100 take that exp(k log(base)) as
    one vector exp, in place in the output.
    """
    if count < 100 or base == 0:  # log 0 is -inf, and numpy's 0^k is +0
        return np.power(base, np.arange(1, count + 1))
    out = np.empty(count, dtype=complex)
    out[:99] = np.power(base, np.arange(1, 100))
    tail = out[99:]
    tail[:] = np.arange(100, count + 1)
    tail *= np.log(np.complex128(base))
    np.exp(tail, out=tail)
    return out


@np.errstate(all="ignore")
def _harmonic_arrays(letters: tuple, n: int, sigma: SingularitySet | None) -> np.ndarray:
    """H values of every suffix of the letter tuple: row r is H_(last r letters)(0..n).

    The rows are float64 when every letter's rho is exactly 1 (classical
    letters, or sigma None): each step then adds 1/k^s with no power of rho.
    Otherwise they are complex, rho^1..rho^n is computed once per colour
    of the word (``_powers``: squarings below exponent 100, exp(k log rho)
    from 100, numpy's cpow), and a letter whose rho is exactly 1 again
    takes 1/k^s.
    The choice reads the value of rho, never the colour: colour 0 of
    ``roots_of_unity(m)`` has rho = 1 - 2.4e-16i and takes the complex path.
    Either way every value equals, bit for bit, the complex recursion with
    rho^k / k^s per letter, because numpy's 1+0j to the power k is exactly
    1+0j, (1+0j)/x is (1/x, +0), and products, cumulative sums and moduli of
    values with a +0 imaginary part equal those of their real parts.
    """
    rhos = [1.0 + 0j if sigma is None else sigma.rho_of_color(c) for _, c in letters]
    ones = [rho == 1 for rho in rhos]
    k = np.arange(1, n + 1, dtype=float)
    rows = np.empty((len(letters) + 1, n + 1), dtype=float if all(ones) else complex)
    rows[0] = 1.0
    rows[1:, 0] = 0.0
    powers = {}  # colour -> rho^1..rho^n
    for r, ((s, c), rho, one) in enumerate(zip(reversed(letters), reversed(rhos), reversed(ones)), 1):
        if one:
            term = 1 / k**s
        else:
            if c not in powers:
                powers[c] = _powers(rho, n)
            term = powers[c] / k**s
        np.cumsum(term * rows[r - 1, :-1], out=rows[r, 1:])
    return rows


def _finite(val: ComplexVal, cutoff: str, n: int) -> ComplexVal:
    """val, refused when its value or error overflowed double precision."""
    if not (cmath.isfinite(val.value) and math.isfinite(val.err)):
        raise ValueError(f"overflow: the nested sum is not finite in double precision at {cutoff} = {n}")
    return val


def harmonic_sum(word: Word, n: int, sigma: SingularitySet | None = None) -> ComplexVal:
    """Extended harmonic sum H_w(n) by the suffix recursion (floating point);
    a sum that overflows double precision is refused."""
    _y_request(word, n, sigma)
    rows = _harmonic_arrays(word.letters, n, sigma)
    peak = float(np.abs(rows).max())
    err = 4 * _EPS * n * len(word.letters) * max(1.0, peak)
    return _finite(ComplexVal(complex(rows[-1][n]), err), "n", n)


def harmonic_sum_exact(word: Word, n: int, sigma: SingularitySet | None = None):
    """H_w(n) in exact arithmetic: Fraction, or Q[zeta_m] for colored words."""
    _y_request(word, n, sigma, exact=True)
    order = word.alphabet.color_order
    if order:
        one = CycloRational(order, {0: ONE})
        rho_pow = lambda c, k: CycloRational.root_power(order, c * k)
    else:  # a plain word has colour 0 only
        rho = ONE if sigma is None or not word.letters else sigma.rho(sigma.index_of_color(0))
        if not isinstance(rho, Fraction):
            raise ValueError("exact sums need rational reciprocals")
        one = ONE
        rho_pow = lambda c, k: rho**k
    arr = [one for _ in range(n + 1)]
    for s, c in reversed(word.letters):
        nxt = [one * 0]
        total = one * 0
        for k in range(1, n + 1):
            total = total + (rho_pow(c, k) * Fraction(1, k**s)) * arr[k - 1]
            nxt.append(total)
        arr = nxt
    return arr[n]


# -- hyperlogarithms ------------------------------------------------------------------


def _regularize(w: tuple, cache: dict) -> dict[tuple[tuple, int], Fraction]:
    """Expand Li_w, w a letter tuple, into sum of coeff * Li_u * log^j/j!
    with u not ending in x0, keyed (u, j).

    Words with trailing x0 are rewritten against the shuffle products
    v sh x0^p, in which v x0^p occurs with coefficient one and every other
    term has strictly fewer trailing zeros.
    """
    hit = cache.get(w)
    if hit is not None:
        return hit
    v = w
    while v and v[-1] == 0:
        v = v[:-1]
    p = len(w) - len(v)
    out = {(v, p): ONE}
    if p and v:
        product = _phi_shuffle_letters(v, (0,) * p, _SHUFFLE, None)
        assert product[w] == 1
        for t, c in product.items():
            if t == w:
                continue
            for key, q in _regularize(t, cache).items():
                _add_term(out, key, -c * q)
    cache[w] = out
    return out


@np.errstate(all="ignore")
def _nested_sum(u: tuple, z: complex, sigma: SingularitySet, nmax: int) -> ComplexVal:
    """Li_u(z) for the x letter tuple u in the pi_Y domain (or empty),
    |z| < min |s_i|."""
    if not u:
        return ComplexVal(1.0)
    blocks = _blocks(u, sigma)
    (s1, c1), suffix = blocks[0], blocks[1:]
    hvals = _harmonic_arrays(suffix, nmax, sigma)[-1] if suffix else np.ones(nmax + 1, dtype=complex)
    rho = sigma.rho_of_color(c1)
    terms = _powers(rho * complex(z), nmax) / np.arange(1, nmax + 1, dtype=float) ** s1 * hvals[:-1]
    value = terms.sum()
    peak = float(np.abs(hvals).max())
    r = abs(z) * max(abs(complex(sigma.rho(i))) for i in range(1, sigma.m + 1))
    tail = r ** (nmax + 1) / (1 - r) * max(1.0, peak)
    rounding = 4 * _EPS * nmax * len(blocks) * max(1.0, peak)
    return ComplexVal(complex(value), tail + rounding)


def polylog(w: Word, z, sigma: SingularitySet | None = None, nmax: int = 2000) -> ComplexVal:
    """Hyperlogarithm Li_w(z).

    Pure x0 powers follow the convention Li_(x0^k) = log(z)^k / k! (any
    nonzero z); everything else needs |z| < min(1, min_i |s_i|) strictly and
    is evaluated by nested sums after shuffle regularization of trailing x0
    letters.  The error field carries the geometric tail bound, in
    |z| max_i |rho_i|, plus rounding.  A cutoff nmax < 0 is refused, and
    so is a value whose nested sums overflow double precision.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if sigma is None:
        sigma = SingularitySet.classical()
    if not w.alphabet.is_x or len(w.alphabet.letters()) != sigma.m + 1:
        raise ValueError("word alphabet does not match the singularity set")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    if not w:
        return ComplexVal(1.0)
    if all(a == 0 for a in w.letters):
        if z == 0:
            raise ValueError("log convention needs z != 0")
        k = len(w)
        return ComplexVal(cmath.log(z) ** k / math.factorial(k), 4 * _EPS * k)
    if abs(z) >= 1:
        raise ValueError(
            "divergent request: |z| must be < 1 (polyzeta handles the z -> 1 limit)"
        )
    radius = min(abs(complex(sigma.s(i))) for i in range(1, sigma.m + 1))
    if abs(z) >= radius:
        raise ValueError(
            f"divergent request: |z| must be < min |s_i| = {radius:.15g} for this singularity set"
        )
    expansion = _regularize(w.letters, {})
    logz = cmath.log(z) if any(j for (_, j) in expansion) else 0.0
    total = ComplexVal(0.0)
    for (u, j), c in expansion.items():
        base = _nested_sum(u, z, sigma, nmax)
        factor = logz**j / math.factorial(j)
        total = total + base * complex(factor) * float(c)
    return _finite(total, "nmax", nmax)


@dataclass(frozen=True)
class RelationReport:
    residual: float
    tail_bound: float


def generating_relation_check(
    w: Word, z: float, depth: int, sigma: SingularitySet | None = None, nmax: int = 2000
) -> RelationReport:
    """|Li_w(z)/(1-z) - sum_{n <= depth} H_(pi_Y w)(n) z^n| with a tail bound;
    a residual that overflows double precision is refused."""
    if sigma is None:
        sigma = SingularitySet.classical()
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError("the relation is a power-series identity: need |z| < 1")
    li = polylog(w, z, sigma, nmax)
    lhs = li.value / (1 - z)
    yw = pi_Y(w, sigma)
    _y_request(yw, depth, sigma, "depth")
    hvals = _harmonic_arrays(yw.letters, depth, sigma)[-1]
    powers = np.concatenate(([1 + 0j], _powers(z, depth)))
    rhs = complex((hvals * powers).sum())
    peak = float(np.abs(hvals).max())
    zabs = abs(z)
    tail = max(1.0, peak) * zabs ** (depth + 1) / (1 - zabs) + li.err / abs(1 - z)
    diff = lhs - rhs
    _finite(ComplexVal(diff, tail), "depth", depth)
    return RelationReport(abs(diff), tail)


def polyzeta(w: Word, nterms: int = 10_000, sigma: SingularitySet | None = None) -> ComplexVal:
    """Extended polyzeta: the n -> infinity limit of H_(pi_Y w)(n), estimated
    at a finite cutoff nterms >= 1 with a first-order tail bound.

    Admissibility requires the leading (weight, reciprocal) pair != (1, 1),
    and convergence |rho_1| <= 1 for the leading letter's reciprocal; a sum
    that overflows double precision is refused.
    """
    if nterms < 1:
        raise ValueError(f"nterms must be >= 1, got {nterms}")
    if sigma is None:
        sigma = SingularitySet.classical()
    yw = pi_Y(w, sigma) if w.alphabet.is_x else w
    _y_request(yw, nterms, sigma, "nterms")
    if not yw:
        return ComplexVal(1.0)
    s1, c1 = yw.letters[0]
    rho1 = sigma.rho_of_color(c1)
    if abs(rho1) > 1 + 1e-12:
        raise ValueError(f"divergent request: the leading letter's |rho| = {abs(rho1):.15g} exceeds 1")
    if s1 == 1 and abs(rho1 - 1) < 1e-12:
        raise ValueError("non-admissible word: leading pair (1, 1) diverges")
    rows = _harmonic_arrays(yw.letters, nterms, sigma)
    hvals = rows[-1]
    suffix_peak = float(np.abs(rows[-2]).max()) if rows.shape[0] >= 2 else 1.0
    last_term = abs(rho1) ** nterms / nterms**s1 * max(1.0, suffix_peak)
    if s1 >= 2:
        tail = last_term * nterms / (s1 - 1)
    else:
        tail = last_term * nterms / abs(1 - rho1)
    rounding = 4 * _EPS * nterms * len(yw.letters) * max(1.0, float(np.abs(hvals).max()))
    return _finite(ComplexVal(complex(hvals[nterms]), tail + rounding), "nterms", nterms)


# -- Chen series by shared-grid quadrature ------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 12
    tol: float = 1e-12
    initial_panels: int = 2
    max_doublings: int = 14

    def __post_init__(self):
        # a tol of 0, below 0 or nan runs every doubling and then fails; inf
        # accepts the first panel count whatever its error
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"quadrature tol must be finite and > 0, got {self.tol!r}")
        if self.nodes < 1 or self.initial_panels < 1:
            raise ValueError("quadrature nodes and initial_panels must be >= 1")
        if self.max_doublings < 0:
            raise ValueError("quadrature max_doublings must be >= 0")


@functools.lru_cache(maxsize=4)
def _gl_reference(g: int):
    """Nodes, weights, and the node-to-node cumulative integration matrix,
    each Legendre projection and integral taken for all g node samples at once.

    Cached for a few node counts; the arrays are read-only.
    """
    x, wts = leggauss(g)
    proj = ((2 * np.arange(g) + 1) / 2)[:, None] * wts * legval(x, np.eye(g))  # value samples -> Legendre coefficients
    cum = legval(x, legint(proj, lbnd=-1), tensor=True).T.copy()  # cum[j, i]: integral from -1 to x_j of interpolant e_i
    for arr in (x, wts, cum):
        arr.flags.writeable = False
    return x, wts, cum


def _integrands(forms: FormFamily, z0: float, z: float, panels: int, g: int) -> list[tuple[float, np.ndarray]]:
    """Per panel: its half width and u_i at its g Gauss nodes, row i for
    letter i, each value by the scalar ``FormFamily.u``."""
    edges = np.linspace(z0, z, panels + 1)
    scales = (edges[1:] - edges[:-1]) / 2
    nodes = edges[:-1, None] + (_gl_reference(g)[0] + 1) * scales[:, None]
    return [(scale, np.array([[forms.u(i, t) for t in row] for i in range(forms.sigma.m + 1)], dtype=complex))
            for scale, row in zip(scales, nodes.tolist())]


def _chen_kernel(table: list[tuple[float, np.ndarray]], bound: int) -> list[np.ndarray]:
    """Chen coefficients of every x word of grading <= bound, one array per
    grade, on the panels of an ``_integrands`` table.

    Grade k lists its (m+1)^k words in lexicographic order, so the word
    a w' has index a (m+1)^(k-1) + index(w').  On each panel grade k is
    advanced from the node values of grade k-1 in one step.  Every grade
    takes one stacked dot per word (``integ @ wts``, its panel end); grades
    below the bound also take one stacked gemv per word (``cum @ integ``,
    its node values), which only the grade above reads, so the top grade
    forms none.  These are the BLAS calls of a per-word integration, so
    every coefficient is bit-identical to it; a gemm would round otherwise.
    """
    letters, g = table[0][1].shape
    _, wts, cum = _gl_reference(g)
    cum_c, wts_c = cum.astype(complex), wts.astype(complex)
    totals = [np.ones(1, dtype=complex)] + [np.zeros(letters**k, dtype=complex) for k in range(1, bound + 1)]
    for scale, u in table:
        vals = np.ones((1, g), dtype=complex)
        ends = []
        for k in range(1, bound + 1):
            integ = (u[:, None, :] * vals[None, :, :]).reshape(-1, g)
            if k < bound:
                vals = totals[k][:, None] + scale * np.matmul(cum_c, integ[:, :, None])[:, :, 0]
            ends.append(totals[k] + scale * np.matmul(integ[:, None, :], wts_c[:, None])[:, 0, 0])
        totals[1:] = ends
    return totals


def _chen_grades(
    forms: FormFamily, z0: float, z: float, bound: int, quad: QuadratureConfig | None
) -> tuple[list[np.ndarray], float]:
    """Per-grade Chen coefficients and their shared quadrature error.

    The panel count doubles until the single-letter coefficients stabilize
    below the tolerance (a probe of grade 1: dots only); all gradings <=
    bound are then evaluated on the integrand table of the last probe.
    A RuntimeError reports a quadrature that has not stabilized within
    ``max_doublings`` doublings.
    """
    quad = quad or QuadratureConfig()
    sigma = forms.sigma
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not (math.isfinite(z0) and math.isfinite(z)):
        raise ValueError("path endpoints z0 and z must be finite")
    if z <= z0:
        raise ValueError("need z0 < z")
    if z0 <= 0:
        raise ValueError("the path must stay inside (0, min |s_i|)")
    radius = min(abs(complex(s)) for s in sigma.values[1:]) if sigma.m else math.inf
    if z >= radius:
        raise ValueError("path touches or passes a singularity")
    _check_word_budget(sigma.x_alphabet(), bound)
    panels = quad.initial_panels
    table = _integrands(forms, z0, z, panels, quad.nodes)
    prev = _chen_kernel(table, 1)[1]
    delta = math.inf
    for _ in range(quad.max_doublings):
        panels *= 2
        table = _integrands(forms, z0, z, panels, quad.nodes)
        cur = _chen_kernel(table, 1)[1]
        delta = max(abs(c - p) for c, p in zip(cur, prev))
        prev = cur
        if delta < quad.tol:
            break
    else:
        raise RuntimeError(
            f"quadrature did not converge: last delta {delta:.3g} after "
            f"{quad.max_doublings} doublings ({panels} panels), tol {quad.tol:g}"
        )
    return _chen_kernel(table, bound), max(delta, quad.tol)


def _chen_names(alphabet: Alphabet, bound: int) -> list[str]:
    """Names of the x words of gradings <= bound, in the Chen kernel's order.

    A grade-k name is a grade-(k-1) name, a space and a letter name, so the
    name of p b sits at index(p) (m+1) + b within its grade, as in
    ``_chen_kernel``; the empty word is "ε".  The strings equal ``str(Word)``.
    """
    letters = [alphabet.name((a,)) for a in alphabet.letters()]
    spaced = [" " + name for name in letters]
    names = [alphabet.name(())]
    grade = letters
    for k in range(1, bound + 1):
        if k > 1:
            grade = [p + s for p in grade for s in spaced]
        names += grade
    return names


def _chen_table(
    forms: FormFamily, z0: float, z: float, bound: int, quad: QuadratureConfig | None
) -> tuple[list[str], list[float], float]:
    """The ``eval chen`` table: the names of the x words of grading <= bound
    (``_chen_names``), their Chen coefficients as one list re_0, im_0,
    re_1, im_1, ... in the same order, and the shared quadrature error."""
    grades, err = _chen_grades(forms, z0, z, bound, quad)
    return _chen_names(forms.alphabet(), bound), np.concatenate(grades).view(float).tolist(), err


def chen_series(
    forms: FormFamily,
    z0: float,
    z: float,
    bound: int,
    quad: QuadratureConfig | None = None,
) -> TruncSeries:
    """Iterated-integral coefficients along the real segment z0 -> z.

    All words of grading <= bound are advanced panel by panel on one shared
    composite Gauss-Legendre grid, a whole grade at a time; the panel count
    doubles until the single letter coefficients stabilize below the
    configured tolerance, and a RuntimeError reports that they did not
    within ``max_doublings``.  Bounds with more than 2^18 words in all are
    refused with a ValueError.
    """
    grades, err = _chen_grades(forms, z0, z, bound, quad)
    alphabet = forms.alphabet()
    values = (ComplexVal(v, err) for v in np.concatenate(grades).tolist())
    words = (w for grade in _graded_letters(alphabet, bound) for w in grade)
    coeffs = {w: c for w, c in zip(words, values) if c}
    return TruncSeries._of(alphabet, bound, coeffs)


def system_output(
    r: LinRep,
    forms: FormFamily,
    z0: float,
    z: float,
    bound: int,
    quad: QuadratureConfig | None = None,
) -> ComplexVal:
    """Pair the representation with the Chen series: sum nu mu(w) eta alpha(w).

    Both factors are computed grade by grade in the word order of the Chen
    kernel (whose top grade takes dots only) and paired as arrays: nu mu(w)
    eta exactly, integers over d^(k+2) divided as Python ints; the terms,
    words with nu mu(w) eta = 0 skipped, summed in (grading, lex) order by
    a sequential ``cumsum`` from 0j, bit for bit the sum over words.  The
    error field adds the quadrature estimates and, as a truncation
    indicator, the magnitude of the last grading layer (``hypot``: numpy's
    complex ``abs`` rounds otherwise).  Bounds with more than 2^18 words in
    all are refused with a ValueError, and a quadrature that does not
    converge raises a RuntimeError.
    """
    if r.alphabet != forms.alphabet():
        raise ValueError("representation alphabet does not match the forms")
    grades, quad_err = _chen_grades(forms, z0, z, bound, quad)
    if not (n := r.rank):
        return ComplexVal(0j, 0.0)
    # the integer form of r: nu mu(w) eta = (scaled product) / d^(k+2) at grade k
    d = r._d
    mats = np.array([r._rows[a] for a in r.alphabet.letters()], dtype=object).reshape(-1, n, n)
    eta = np.array(r._eta, dtype=object)
    rows = np.array([r._nu], dtype=object)  # scaled nu mu(w) for the words of one grade, in id order
    terms, errs = [np.zeros(1, dtype=complex)], [np.zeros(1)]
    for k in range(bound + 1):
        if k:
            rows = np.matmul(rows[:, None, None, :], mats).reshape(-1, n)
        nums = rows.dot(eta)
        keep = nums != 0
        c = (nums[keep] / d ** (k + 2)).astype(float)
        terms.append(c.astype(complex) * grades[k][keep])
        errs.append(np.abs(c) * quad_err)
    top = np.hypot(terms[-1].real, terms[-1].imag)
    total, err, last_layer = (np.cumsum(np.concatenate(p))[-1] for p in (terms, errs, ([0.0], top)))
    return ComplexVal(complex(total), float(err + last_layer))


# -- demo systems ----------------------------------------------------------------------


def hypergeometric_system(
    t0, t1, t2, nu: Sequence = (1, 0), eta: Sequence = (1, 1)
) -> tuple[LinRep, FormFamily]:
    """The rank-2 system of the hypergeometric equation over sigma = {0, 1}.

    State q = (-y, (1-z) y'); the default observation reads the first
    component, the initial state at z0 is the caller's eta.
    """
    t0, t1, t2 = Fraction(t0), Fraction(t1), Fraction(t2)
    m0 = [[ZERO, ZERO], [-t0 * t1, -t2]]
    m1 = [[ZERO, -ONE], [ZERO, -(t2 - t0 - t1)]]
    sigma = SingularitySet.classical()
    rep = LinRep(sigma.x_alphabet(), nu, {0: m0, 1: m1}, eta)
    return rep, FormFamily(sigma)


def colored_alphabets(m: int) -> tuple[Alphabet, Alphabet, SingularitySet]:
    """The x / colored-y alphabet pair for the m-th roots of unity."""
    sigma = SingularitySet.roots_of_unity(m)
    return sigma.x_alphabet(), sigma.y_alphabet(), sigma


def linear_independence_rank(
    words: Sequence[Word], samples: int, sigma: SingularitySet | None = None
) -> int:
    """Numeric rank of the sample matrix [H_w(n)] for n = 1..samples.

    Full rank is finite evidence of linear independence, never a proof.
    """
    if not words:
        return 0
    rows = []
    for w in words:
        _y_request(w, samples, sigma, "samples")
        rows.append(_harmonic_arrays(w.letters, samples, sigma)[-1, 1:])
    matrix = np.array(rows)
    if np.allclose(matrix.imag, 0):
        matrix = matrix.real
    return int(np.linalg.matrix_rank(matrix))
