"""Numeric references computed without ``wordseries``.

- hyperlogarithms: nested sums in mpmath, run until |z|^n is below 1e-25;
- harmonic sums: the nested sums in exact fixed-point integer arithmetic
  (2^-200 units), with the roots of unity rounded once by mpmath;
- polyzetas: mpmath.zeta, mpmath.polylog at roots of unity, classical
  closed forms for multiple zeta values of depth two to four, and Newton's
  identities for words of one repeated letter;
- Chen series: a Taylor-series integrator for the iterated integrals of
  dz/z and dz/(1 - z), advanced by steps a quarter of the distance to the
  nearest singularity, in float64;
- system outputs: mpmath.odefun on q' = (mu0/z + mu1/(1 - z)) q.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30


def root_of_unity(c: int, m: int):
    """rho for color c modulo m: exp(2 pi i c / m); color 0 is 1."""
    return mpmath.expjpi(mpmath.mpf(2 * c) / m) if m > 1 and c % m else mpmath.mpf(1)


def polylog_ref(blocks, z: float, m: int):
    """Li_w(z) = sum over n1 > ... > nk >= 1 of z^n1 prod rho_j^nj / nj^sj,
    for the blocks (s_j, index_j) of a word x0^(s1-1) x_i1 ... ."""
    z = mpmath.mpf(z)
    nmax = int(math.log(1e-25) / math.log(abs(float(z)))) + len(blocks) + 2
    rhos = [root_of_unity(i, m) for _, i in blocks]
    inner = [mpmath.mpf(1)] * (nmax + 1)  # empty suffix: 1 for every n
    for (s, _), rho in zip(reversed(blocks[1:]), reversed(rhos[1:])):
        nxt, acc = [mpmath.mpf(0)] * (nmax + 1), mpmath.mpf(0)
        for n in range(1, nmax + 1):
            acc += rho**n / mpmath.mpf(n) ** s * inner[n - 1]
            nxt[n] = acc
        inner = nxt
    s1, rho1 = blocks[0][0], rhos[0]
    return mpmath.fsum((rho1 * z) ** n / mpmath.mpf(n) ** s1 * inner[n - 1] for n in range(1, nmax + 1))


_BITS = 200


def harmonic_ref(word, n: int, m: int) -> complex:
    """H_w(n) = sum over n >= n1 > ... >= 1 of prod rho_j^nj / nj^sj."""
    one = 1 << _BITS
    rho_fixed = {}
    for c in range(max(m, 1)):
        r = mpmath.mpc(root_of_unity(c, m))
        rho_fixed[c] = [
            (int(mpmath.nint(mpmath.re(r**k) * one)), int(mpmath.nint(mpmath.im(r**k) * one)))
            for k in range(max(m, 1))
        ]
    re, im = [one] * (n + 1), [0] * (n + 1)
    for s, c in reversed(word):
        powers = rho_fixed[c % max(m, 1)]
        nre, nim = [0] * (n + 1), [0] * (n + 1)
        ar = ai = 0
        for k in range(1, n + 1):
            pr, pi = powers[k % len(powers)]
            ks = k**s
            tr, ti = pr // ks, pi // ks
            ar += (tr * re[k - 1] - ti * im[k - 1]) >> _BITS
            ai += (tr * im[k - 1] + ti * re[k - 1]) >> _BITS
            nre[k], nim[k] = ar, ai
        re, im = nre, nim
    return complex(re[n] / one, im[n] / one)


def _mzv_table():
    z = mpmath.zeta
    z2z3 = z(2) * z(3)
    return {
        (2, 1): z(3),
        (3, 1): mpmath.pi**4 / 360,
        (2, 1, 1): z(4),
        (4, 1): 2 * z(5) - z2z3,
        (3, 2): 3 * z2z3 - mpmath.mpf(11) / 2 * z(5),
        (2, 2, 1): 3 * z2z3 - mpmath.mpf(11) / 2 * z(5),  # dual of (3, 2)
        (2, 3): mpmath.mpf(9) / 2 * z(5) - 2 * z2z3,
        (4, 2): z(3) ** 2 - mpmath.mpf(4) / 3 * z(6),
        (2, 4): mpmath.mpf(25) / 12 * z(6) - z(3) ** 2,
        (3, 1, 1): 2 * z(5) - z2z3,
        (2, 1, 1, 1): z(5),
    }


def _repeated(s: int, k: int):
    """zeta(s, ..., s) with k letters: the k-th elementary symmetric function
    of the n^-s, from the power sums zeta(j s) by Newton's identities."""
    p = [None] + [mpmath.zeta(j * s) for j in range(1, k + 1)]
    e = [mpmath.mpf(1)]
    for n in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[n - i] * p[i] for i in range(1, n + 1)) / n)
    return e[k]


def zeta_ref(word, m: int):
    if len(word) == 1:
        s, c = word[0]
        if m > 1:
            return mpmath.polylog(s, root_of_unity(c, m))
        return mpmath.zeta(s)
    parts = tuple(s for s, _ in word)
    if len(set(parts)) == 1:
        return _repeated(parts[0], len(parts))
    return _mzv_table()[parts]


def chen_ref(z0: float, z1: float, grade: int, order: int = 30) -> dict[tuple, float]:
    """Iterated integrals alpha_w(z1) from z0, first letter outermost:
    alpha_(a w)(t) = integral from z0 to t of u_a alpha_w, u_0 = 1/t,
    u_1 = 1/(1 - t).  Returns {word tuple: value} for all words of length
    <= grade.  Rows of the level-L array follow itertools.product order."""
    levels = [np.ones(1)] + [np.zeros(2**g) for g in range(1, grade + 1)]
    t = z0
    j = np.arange(order)
    while t < z1:
        h = min(z1 - t, min(t, 1 - t) / 4)
        # Taylor coefficients in s = tau - t of u_0 and u_1 around t
        u = [(-1.0) ** j / t ** (j + 1), 1.0 / (1 - t) ** (j + 1)]
        toeplitz = [np.tril(np.array([[ua[i - k] if i >= k else 0.0 for k in range(order)] for i in range(order)]))
                    for ua in u]
        powers = h ** np.arange(order + 1)
        series = [np.ones((1, order)) * (j == 0)]  # the empty word: constant 1
        new_levels = [levels[0]]
        for g in range(1, grade + 1):
            tails = series[g - 1]
            blocks, values = [], []
            for a in (0, 1):
                prod = tails @ toeplitz[a].T
                integ = np.zeros_like(prod)
                integ[:, 1:] = prod[:, :-1] / np.arange(1, order)
                integ[:, 0] = levels[g][a * len(tails) : (a + 1) * len(tails)]
                blocks.append(integ)
                values.append(integ @ powers[:order] + prod[:, -1] * powers[order] / order)
            series.append(np.vstack(blocks))
            new_levels.append(np.concatenate(values))
        levels = new_levels
        t += h
    out = {}
    for g in range(grade + 1):
        for idx, w in enumerate(np.ndindex(*(2,) * g)):
            out[tuple(int(a) for a in w)] = float(levels[g][idx])
    return out


def ode_ref(m0, m1, eta, z0: float, z1: float) -> float:
    """First component of q(z1) for q' = (m0/z + m1/(1 - z)) q, q(z0) = eta."""
    with mpmath.workdps(20):
        a0 = [[mpmath.mpf(c.numerator) / c.denominator for c in row] for row in m0]
        a1 = [[mpmath.mpf(c.numerator) / c.denominator for c in row] for row in m1]

        def rhs(t, q):
            p, r = 1 / t, 1 / (1 - t)
            return [sum((a0[i][k] * p + a1[i][k] * r) * q[k] for k in range(2)) for i in range(2)]

        sol = mpmath.odefun(rhs, mpmath.mpf(z0), [mpmath.mpf(e.numerator) / e.denominator for e in eta])
        return float(sol(mpmath.mpf(z1))[0])
