"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a different route than
the library code under test: truncated polynomial products term by term,
the Chen series one word at a time and its pairing as a sum over words,
and an ODE solver by recentered Taylor series.
"""

import math

import numpy as np

from wordseries.hyperlog import ComplexVal, QuadratureConfig, _gl_reference, _panel_edges
from wordseries.ncpoly import NCPoly, PhiTable, phi_shuffle, shuffle
from wordseries.words import words_up_to_grading


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


def _chen_values(forms, z0, z, words, panels, g):
    """Chen coefficients of the given words, advanced word by word on the
    shared panel grid: each word integrates its head form against its tail."""
    x, wts, cum = _gl_reference(g)
    by_length = sorted(words, key=len)
    totals = {w: (1.0 + 0j if not w else 0.0j) for w in by_length}
    edges = _panel_edges(z0, z, panels)
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
    series = r.eval_truncated(bound)
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
