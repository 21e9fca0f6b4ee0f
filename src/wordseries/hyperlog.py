"""Numeric realization: hyperlogarithms, harmonic sums, polyzetas, Chen series.

Words over the x alphabet index iterated integrals of the forms
dz/z and rho_i dz/(1 - rho_i z); words over the (colored) y alphabet index
the nested sums obtained as their Taylor coefficients.  The correspondence
x0^(s-1) x_i  <->  y_(s, color i) is the block map pi_Y.

Evaluation strategy: nested sums are computed by the suffix recursion
H_(y v)(n) = sum_k rho^k k^-s H_v(k-1), vectorized over the cutoff (numpy),
or exactly in rational / cyclotomic-rational arithmetic for small cutoffs.
Hyperlogarithms at |z| < 1 are geometric-tail-bounded partial sums; words
with trailing x0 are handled by shuffle regularization against the
convention Li_(x0)(z) = log z.  The Chen series integrates all word
coefficients on one shared composite Gauss-Legendre panel grid so that
shuffle identities survive discretization.

The Chen kernel holds one array per grade instead of one entry per word.
Grade k lists the (m+1)^k x words in lexicographic order, so the word a w'
has id a (m+1)^(k-1) + id(w'), and each panel advances a whole grade from
the node values of the grade below.  Its coefficients are bit-identical to
integrating word by word.  ``system_output`` pairs these arrays with the
exact coefficients nu mu(w) eta, computed grade by grade in the same id
order, and never builds a word.  Both refuse a bound whose word count
sum_(k<=N) (m+1)^k exceeds a fixed budget of 2^18 words.
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
from .ncpoly import NCPoly, TruncSeries, _add_term, _product, shuffle
from .words import Alphabet, Word, words_up_to_grading

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
            q = Fraction(q)
            if q:
                self.coeffs[c % order] = self.coeffs.get(c % order, ZERO) + q

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
    unit_modulus: bool = False

    def __post_init__(self):
        if not self.values or complex(self.values[0]) != 0:
            raise ValueError("s_0 = 0 is reserved and required")
        pts = [complex(v) for v in self.values]
        for i, a in enumerate(pts):
            for b in pts[:i]:
                if abs(a - b) < 1e-12:
                    raise ValueError("singularities must be pairwise distinct")
        if self.unit_modulus:
            for v in pts[1:]:
                if abs(abs(v) - 1) > 1e-9:
                    raise ValueError("unit-modulus flag requires |s_i| = 1 for i >= 1")

    @classmethod
    def from_values(cls, values: Iterable, *, unit_modulus: bool = False) -> "SingularitySet":
        return cls(tuple(values), None, unit_modulus)

    @classmethod
    def classical(cls) -> "SingularitySet":
        """sigma = {0, 1}: ordinary polylogarithms and harmonic sums."""
        return cls((ZERO, ONE), None, True)

    @classmethod
    def roots_of_unity(cls, m: int) -> "SingularitySet":
        """s_i = rho_i^-1 with rho_i = exp(2 pi i i/m); exact color arithmetic."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if m == 1:
            return cls.classical()
        values = (ZERO,) + tuple(cmath.exp(-2j * cmath.pi * i / m) for i in range(1, m + 1))
        return cls(values, m, True)

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

    # -- color conventions ----------------------------------------------------

    def color_of_index(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"singularity index {i} out of range")
        return i % self.m if self.color_order else 0

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
        """Integrand u_i(z) = 1/(z - s_i)... written via rho to stay stable."""
        if i == 0:
            return 1.0 / z
        rho = complex(self.sigma.rho(i))
        return rho / (1 - rho * z)

    def alphabet(self) -> Alphabet:
        return self.sigma.x_alphabet()


# -- the block correspondence ---------------------------------------------------


def pi_Y(w: Word, sigma: SingularitySet) -> Word:
    """x0^(s-1) x_i blocks to y_(s, color i); rejects words ending in x0."""
    if not w.alphabet.is_x:
        raise ValueError("pi_Y takes an x word")
    if len(w.alphabet.letters()) != sigma.m + 1:
        raise ValueError("alphabet size does not match the singularity set")
    if w and w.letters[-1] == 0:
        raise ValueError("pi_Y is defined on words not ending in x0")
    target = sigma.y_alphabet()
    out = []
    zeros = 0
    for letter in w.letters:
        if letter == 0:
            zeros += 1
        else:
            out.append((zeros + 1, sigma.color_of_index(letter)))
            zeros = 0
    return Word(target, tuple(out))


def pi_X(w: Word, sigma: SingularitySet) -> Word:
    """Inverse of pi_Y."""
    if not w.alphabet.is_y:
        raise ValueError("pi_X takes a y word")
    target = sigma.x_alphabet()
    out = []
    for s, c in w.letters:
        out.extend([0] * (s - 1))
        out.append(sigma.index_of_color(c))
    return Word(target, tuple(out))


# -- harmonic sums ------------------------------------------------------------------


def _rho_table(word: Word, sigma: SingularitySet | None) -> list[complex]:
    out = []
    for _, c in word.letters:
        if sigma is None:
            if c:
                raise ValueError("colored letters need a singularity set")
            out.append(1.0 + 0j)
        else:
            out.append(sigma.rho_of_color(c))
    return out


def _harmonic_arrays(word: Word, n: int, sigma: SingularitySet | None) -> np.ndarray:
    """H values of every suffix: row r is H_(last r letters)(0..n)."""
    rhos = _rho_table(word, sigma)
    k = np.arange(1, n + 1, dtype=float)
    rows = np.empty((len(word.letters) + 1, n + 1), dtype=complex)
    rows[0] = 1.0
    arr = rows[0]
    for r, (letter, rho) in enumerate(zip(reversed(word.letters), reversed(rhos))):
        s = letter[0]
        term = np.power(complex(rho), np.arange(1, n + 1)) / k**s
        nxt = np.empty(n + 1, dtype=complex)
        nxt[0] = 0.0
        np.cumsum(term * arr[:-1], out=nxt[1:])
        rows[r + 1] = nxt
        arr = nxt
    return rows


def harmonic_sum(word: Word, n: int, sigma: SingularitySet | None = None) -> ComplexVal:
    """Extended harmonic sum H_w(n) by the suffix recursion (floating point)."""
    if not word.alphabet.is_y:
        raise ValueError("harmonic sums are indexed by y words")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not word.letters:
        return ComplexVal(1.0)
    rows = _harmonic_arrays(word, n, sigma)
    peak = float(np.abs(rows).max())
    err = 4 * _EPS * n * len(word.letters) * max(1.0, peak)
    return ComplexVal(complex(rows[-1][n]), err)


def harmonic_sum_exact(word: Word, n: int, sigma: SingularitySet | None = None):
    """H_w(n) in exact arithmetic: Fraction, or Q[zeta_m] for colored words."""
    if not word.alphabet.is_y:
        raise ValueError("harmonic sums are indexed by y words")
    order = word.alphabet.color_order
    if order:
        if sigma is not None and sigma.color_order != order:
            raise ValueError("singularity set colors disagree with the alphabet")
        one = CycloRational(order, {0: ONE})
        rho_pow = lambda c, k: CycloRational.root_power(order, c * k)
    else:
        rhos = {}
        for _, c in word.letters:
            if sigma is None:
                rhos[c] = ONE
            else:
                rho = sigma.rho(sigma.index_of_color(c))
                if not isinstance(rho, Fraction):
                    raise ValueError("exact sums need rational reciprocals")
                rhos[c] = rho
        one = ONE
        rho_pow = lambda c, k: rhos[c] ** k
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


def _strip_trailing_zeros(w: Word) -> tuple[Word, int]:
    letters = list(w.letters)
    p = 0
    while letters and letters[-1] == 0:
        letters.pop()
        p += 1
    return Word(w.alphabet, tuple(letters)), p


def _regularize(w: Word, cache: dict) -> dict[tuple[Word, int], Fraction]:
    """Expand Li_w into sum of coeff * Li_u * log^j/j! with u not ending in x0.

    Words with trailing x0 are rewritten against the shuffle products
    v sh x0^p, in which v x0^p occurs with coefficient one and every other
    term has strictly fewer trailing zeros.
    """
    hit = cache.get(w)
    if hit is not None:
        return hit
    v, p = _strip_trailing_zeros(w)
    if p == 0:
        out = {(w, 0): ONE}
    elif not v:
        out = {(v, p): ONE}
    else:
        x0p = Word(w.alphabet, (0,) * p)
        product = shuffle(NCPoly.from_word(v), NCPoly.from_word(x0p))
        assert product.coeff(w) == 1
        out = {(v, p): ONE}
        for t, c in product.terms.items():
            if t == w:
                continue
            for key, q in _regularize(t, cache).items():
                _add_term(out, key, -c * q)
    cache[w] = out
    return out


def _nested_sum(u: Word, z: complex, sigma: SingularitySet, nmax: int) -> ComplexVal:
    """Li_u(z) for u in the pi_Y domain (or empty), |z| < min |s_i|."""
    if not u:
        return ComplexVal(1.0)
    yw = pi_Y(u, sigma)
    (s1, c1) = yw.letters[0]
    suffix = Word(yw.alphabet, yw.letters[1:])
    rows = _harmonic_arrays(suffix, nmax, sigma) if suffix else None
    hvals = rows[-1] if rows is not None else np.ones(nmax + 1, dtype=complex)
    rho = sigma.rho_of_color(c1)
    n = np.arange(1, nmax + 1)
    terms = np.power(rho * complex(z), n) / n.astype(float) ** s1 * hvals[:-1]
    value = terms.sum()
    peak = float(np.abs(hvals).max())
    r = abs(z) * max(abs(complex(sigma.rho(i))) for i in range(1, sigma.m + 1))
    tail = r ** (nmax + 1) / (1 - r) * max(1.0, peak)
    rounding = 4 * _EPS * nmax * max(1, len(yw.letters)) * max(1.0, peak)
    return ComplexVal(complex(value), tail + rounding)


def polylog(w: Word, z, sigma: SingularitySet | None = None, nmax: int = 2000) -> ComplexVal:
    """Hyperlogarithm Li_w(z).

    Pure x0 powers follow the convention Li_(x0^k) = log(z)^k / k! (any
    nonzero z); everything else needs |z| < min(1, min_i |s_i|) strictly and
    is evaluated by nested sums after shuffle regularization of trailing x0
    letters.  The error field carries the geometric tail bound, in
    |z| max_i |rho_i|, plus rounding.
    """
    if sigma is None:
        sigma = SingularitySet.classical()
    if not w.alphabet.is_x or len(w.alphabet.letters()) != sigma.m + 1:
        raise ValueError("word alphabet does not match the singularity set")
    z = complex(z)
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
    expansion = _regularize(w, {})
    logz = cmath.log(z) if any(j for (_, j) in expansion) else 0.0
    total = ComplexVal(0.0)
    for (u, j), c in expansion.items():
        base = _nested_sum(u, z, sigma, nmax)
        factor = logz**j / math.factorial(j)
        total = total + base * complex(factor) * float(c)
    return total


@dataclass(frozen=True)
class RelationReport:
    residual: float
    tail_bound: float


def generating_relation_check(
    w: Word, z: float, depth: int, sigma: SingularitySet | None = None, nmax: int = 2000
) -> RelationReport:
    """|Li_w(z)/(1-z) - sum_{n <= depth} H_(pi_Y w)(n) z^n| with a tail bound."""
    if sigma is None:
        sigma = SingularitySet.classical()
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError("the relation is a power-series identity: need |z| < 1")
    li = polylog(w, z, sigma, nmax)
    lhs = li.value / (1 - z)
    yw = pi_Y(w, sigma)
    rows = _harmonic_arrays(yw, depth, sigma)
    hvals = rows[-1]
    powers = np.power(z, np.arange(depth + 1))
    rhs = complex((hvals * powers).sum())
    peak = float(np.abs(hvals).max())
    zabs = abs(z)
    tail = max(1.0, peak) * zabs ** (depth + 1) / (1 - zabs) + li.err / abs(1 - z)
    return RelationReport(abs(lhs - rhs), tail)


def polyzeta(w: Word, nterms: int = 10_000, sigma: SingularitySet | None = None) -> ComplexVal:
    """Extended polyzeta: the n -> infinity limit of H_(pi_Y w)(n), estimated
    at a finite cutoff with a first-order tail bound.

    Admissibility requires the leading (weight, reciprocal) pair != (1, 1).
    """
    if sigma is None:
        sigma = SingularitySet.classical()
    yw = pi_Y(w, sigma) if w.alphabet.is_x else w
    if not yw:
        return ComplexVal(1.0)
    s1, c1 = yw.letters[0]
    rho1 = sigma.rho_of_color(c1)
    if s1 == 1 and abs(rho1 - 1) < 1e-12:
        raise ValueError("non-admissible word: leading pair (1, 1) diverges")
    rows = _harmonic_arrays(yw, nterms, sigma)
    hvals = rows[-1]
    suffix_peak = float(np.abs(rows[-2]).max()) if rows.shape[0] >= 2 else 1.0
    last_term = abs(rho1) ** nterms / nterms**s1 * max(1.0, suffix_peak)
    if s1 >= 2:
        tail = last_term * nterms / (s1 - 1)
    else:
        tail = last_term * nterms / abs(1 - rho1)
    rounding = 4 * _EPS * nterms * len(yw.letters) * max(1.0, float(np.abs(hvals).max()))
    return ComplexVal(complex(hvals[nterms]), tail + rounding)


# -- Chen series by shared-grid quadrature ------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 12
    tol: float = 1e-12
    initial_panels: int = 2
    max_doublings: int = 14


@functools.lru_cache(maxsize=4)
def _gl_reference(g: int):
    """Nodes, weights, and the node-to-node cumulative integration matrix.

    Cached for a few node counts; the arrays are read-only.
    """
    x, wts = leggauss(g)
    proj = np.empty((g, g))  # value samples -> Legendre coefficients
    for k in range(g):
        pk = np.zeros(g)
        pk[k] = 1.0
        proj[k] = (2 * k + 1) / 2 * wts * legval(x, pk)
    cum = np.empty((g, g))  # cum[j, i]: integral from -1 to x_j of interpolant e_i
    for i in range(g):
        coeffs = legint(proj[:, i], lbnd=-1)
        cum[:, i] = legval(x, coeffs)
    for arr in (x, wts, cum):
        arr.flags.writeable = False
    return x, wts, cum


def _panel_edges(z0: float, z: float, panels: int) -> np.ndarray:
    return np.linspace(z0, z, panels + 1)


# Chen evaluation admits at most this many words, all gradings <= N together.
_WORD_BUDGET = 1 << 18


def _check_word_budget(letters: int, bound: int) -> None:
    """Refuse, before any allocation, a bound whose word count
    sum_(k<=bound) letters^k exceeds the budget."""
    if letters > 1 and bound > 64:  # far over the budget; no exact count needed
        words = f"more than {letters}^{bound}"
    else:
        words = bound + 1 if letters == 1 else (letters ** (bound + 1) - 1) // (letters - 1)
        if words <= _WORD_BUDGET:
            return
    raise ValueError(
        f"gradings <= {bound} over {letters} letters hold {words} words, "
        f"over the budget of {_WORD_BUDGET} words"
    )


def _chen_kernel(
    forms: FormFamily, z0: float, z: float, bound: int, panels: int, g: int
) -> list[np.ndarray]:
    """Chen coefficients of every x word of grading <= bound, one array per grade.

    Grade k lists its (m+1)^k words in lexicographic order, so the word
    a w' has index a (m+1)^(k-1) + index(w').  On each panel grade k is
    advanced from the node values of grade k-1 in one step.  The stacked
    matmuls issue one gemv / dot per word, the same BLAS calls as a per-word
    ``cum @ integrand``, so every coefficient is bit-identical to it.
    """
    x, wts, cum = _gl_reference(g)
    cum_c, wts_c = cum.astype(complex), wts.astype(complex)
    letters = forms.sigma.m + 1
    totals = [np.ones(1, dtype=complex)]
    totals += [np.zeros(letters**k, dtype=complex) for k in range(1, bound + 1)]
    edges = _panel_edges(z0, z, panels)
    for a, b in zip(edges[:-1], edges[1:]):
        scale = (b - a) / 2
        nodes = a + (x + 1) * scale
        u = np.array([[forms.u(i, t) for t in nodes] for i in range(letters)], dtype=complex)
        vals = np.ones((1, g), dtype=complex)
        ends = []
        for k in range(1, bound + 1):
            integ = (u[:, None, :] * vals[None, :, :]).reshape(-1, g)
            vals = totals[k][:, None] + scale * np.matmul(cum_c, integ[:, :, None])[:, :, 0]
            ends.append(totals[k] + scale * np.matmul(integ[:, None, :], wts_c[:, None])[:, 0, 0])
        totals[1:] = ends
    return totals


def _chen_grades(
    forms: FormFamily, z0: float, z: float, bound: int, quad: QuadratureConfig | None
) -> tuple[list[np.ndarray], float]:
    """Per-grade Chen coefficients and their shared quadrature error.

    The panel count doubles until the single-letter coefficients stabilize
    below the tolerance; all gradings <= bound are then evaluated on it.
    """
    quad = quad or QuadratureConfig()
    sigma = forms.sigma
    if z <= z0:
        raise ValueError("need z0 < z")
    if z0 <= 0:
        raise ValueError("the path must stay inside (0, min |s_i|)")
    radius = min(abs(complex(s)) for s in sigma.values[1:]) if sigma.m else math.inf
    if z >= radius:
        raise ValueError("path touches or passes a singularity")
    _check_word_budget(sigma.m + 1, bound)
    panels = quad.initial_panels
    prev = _chen_kernel(forms, z0, z, 1, panels, quad.nodes)[1]
    delta = math.inf
    for _ in range(quad.max_doublings):
        panels *= 2
        cur = _chen_kernel(forms, z0, z, 1, panels, quad.nodes)[1]
        delta = max(abs(c - p) for c, p in zip(cur, prev))
        prev = cur
        if delta < quad.tol:
            break
    return _chen_kernel(forms, z0, z, bound, panels, quad.nodes), max(delta, quad.tol)


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
    configured tolerance.  Bounds with more than 2^18 words in all are
    refused with a ValueError.
    """
    grades, err = _chen_grades(forms, z0, z, bound, quad)
    alphabet = forms.alphabet()
    values = np.concatenate(grades).tolist()
    coeffs = {w: ComplexVal(v, err) for w, v in zip(words_up_to_grading(alphabet, bound), values)}
    return TruncSeries(alphabet, bound, coeffs)


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
    kernel: nu mu(w) eta exactly, as integers over a common denominator,
    rounded once to a float; the terms are summed one by one in (grading,
    lex) order.  The error field adds the quadrature estimates and, as a
    truncation indicator, the magnitude of the last grading layer.  Bounds
    with more than 2^18 words in all are refused with a ValueError.
    """
    if r.alphabet != forms.alphabet():
        raise ValueError("representation alphabet does not match the forms")
    grades, quad_err = _chen_grades(forms, z0, z, bound, quad)
    total = 0j
    err = 0.0
    last_layer = 0.0
    n = r.rank
    if not n:
        return ComplexVal(total, err)
    # nu, the letter matrices and eta times their common denominator d, as
    # Python integers: nu mu(w) eta = (scaled product) / d^(k+2) at grade k
    matrix_entries = (q for a in r.alphabet.letters() for row in r.matrix(a) for q in row)
    entries = [*r.nu, *matrix_entries, *r.eta]
    d = math.lcm(*(q.denominator for q in entries))
    ints = np.array([q.numerator * (d // q.denominator) for q in entries], dtype=object)
    mats, eta = ints[n:-n].reshape(-1, n, n), ints[-n:]
    rows = ints[None, :n]  # scaled nu mu(w) for the words of one grade, in id order
    for k in range(bound + 1):
        if k:
            rows = np.matmul(rows[:, None, None, :], mats).reshape(-1, n)
        den = d ** (k + 2)
        for num, a in zip(rows.dot(eta).tolist(), grades[k].tolist()):
            if not num:
                continue
            c = num / den
            term = complex(c) * a
            total += term
            err += abs(c) * quad_err
            if k == bound:
                last_layer += abs(term)
    return ComplexVal(total, err + last_layer)


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
        arr = _harmonic_arrays(w, samples, sigma)[-1]
        rows.append(arr[1:])
    matrix = np.array(rows)
    if np.allclose(matrix.imag, 0):
        matrix = matrix.real
    return int(np.linalg.matrix_rank(matrix))
