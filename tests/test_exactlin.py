"""Exact elimination on integer rows against Gauss-Jordan over Fraction.

``RowSpace`` must hold the oracle's reduced echelon form exactly (each row
R with pivot p read as R / R[p]) with the same pivot columns.  Fed each
independent row B_m with the unit tail e_m, its ``solver`` must give z with
z·B = q·w wherever the oracle solves x·B = w, with z / q its solution, and
None where the oracle has none; rows that the oracle finds dependent (a
singular block) must not enter.  Matrices are small and rational, built to
hold zero rows, repeated rows and combinations of earlier rows; the library
gets them as integer rows, each scaled by a nonzero integer multiple of its
least common denominator.
"""

import copy
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import FractionRowSpace, inverse_gauss_jordan, solve_gauss_jordan
from wordseries.exactlin import RowSpace

ZERO = Fraction(0)
ratios = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
entries = st.one_of(st.just(ZERO), ratios, st.integers(-3, 3))
multipliers = st.sampled_from([1, 1, -1, 2, -3, 6])


@st.composite
def matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(0, 6)):
    n, m = draw(nrows), draw(ncols)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combination"])) if rows else "fresh"
        if kind == "fresh":
            row = draw(st.lists(entries, min_size=m, max_size=m))
        elif kind == "zero":
            row = [ZERO] * m
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(ratios), draw(ratios)
            row = [c * x + d * y for x, y in zip(a, b)]
        rows.append(tuple(row))
    return tuple(rows)


def integers(v, k=1) -> list[int]:
    """The rational row v times k and the lcm of its denominators."""
    d = math.lcm(*(Fraction(x).denominator for x in v))
    return [int(k * d * Fraction(x)) for x in v]


def rref(space: RowSpace) -> list[list[Fraction]]:
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(space._rows, space.pivots)]


def tailed(space: RowSpace, rows) -> list:
    """The rows that enlarge ``space``, the m-th of them fed with the unit
    tail e_m of width len(rows)."""
    basis = []
    for v in rows:
        m = len(basis)
        if space.add([*v, *(int(j == m) for j in range(len(rows)))]):
            basis.append(v)
    return basis


def combination(z, basis) -> list:
    """z·B for a row z and the rows of B."""
    return [sum(x * y for x, y in zip(z, col)) for col in zip(*basis)]


@settings(deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(nrows=st.just(n), ncols=st.just(n))))
def test_coordinates_invert_the_pivot_block_like_gauss_jordan(a):
    # A scaled to the integer matrix B = L·A: z·B = q·e_i makes L z / q row i of A^-1
    n = len(a)
    scale = math.lcm(*(Fraction(x).denominator for row in a for x in row))
    basis = [[int(scale * Fraction(x)) for x in row] for row in a]
    space = RowSpace(n)
    entered = tailed(space, basis)
    try:
        want = inverse_gauss_jordan(a)
    except ValueError:
        assert len(entered) < n  # singular: some row is a combination of the others
        return
    assert entered == basis and space.pivots == list(range(n))
    solve, q = space.solver(basis)
    got = tuple(tuple(Fraction(scale * x, q) for x in solve(e)) for e in oracles.identity(n))
    assert got == want
    assert oracles.mat_mul(a, got) == oracles.identity(n)


@settings(deadline=None)
@given(matrices(nrows=st.integers(0, 8), ncols=st.integers(1, 5)), st.data())
def test_rowspace_matches_fraction_rowspace(vectors, data):
    ncols = len(vectors[0]) if vectors else 3
    space, oracle = RowSpace(ncols), FractionRowSpace(ncols)
    for v in vectors:
        assert space.add(integers(v, data.draw(multipliers))) == oracle.add(v)
        assert rref(space) == oracle.rows and space.pivots == oracle.pivots
        assert len(space) == len(oracle.rows)
        assert all(math.gcd(*row) == 1 for row in space._rows)
        probe = data.draw(st.sampled_from(vectors)) if data.draw(st.booleans()) else data.draw(
            st.lists(entries, min_size=ncols, max_size=ncols)
        )
        assert copy.deepcopy(space).add(integers(probe)) == (not oracle.contains(probe))


@settings(deadline=None)
@given(matrices(nrows=st.integers(1, 6), ncols=st.integers(1, 6)), st.data())
def test_coordinates_match_a_solve_in_the_basis(vectors, data):
    # inside the span z·B = q·w with z / q the oracle's solution; outside, None
    space = RowSpace(len(vectors[0]))
    basis = tailed(space, [integers(v, data.draw(multipliers)) for v in vectors])
    if not basis:
        return
    ncols = space.ncols
    assert all(row[:ncols] == combination(row[ncols:ncols + len(basis)], basis) for row in space._rows)  # R = T·B
    solve, q = space.solver(basis)
    if data.draw(st.booleans()):  # inside the span
        x = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        w = integers(combination(x, basis), data.draw(multipliers))
    else:
        w = integers(data.draw(st.lists(entries, min_size=len(basis[0]), max_size=len(basis[0]))))
    want = solve_gauss_jordan(oracles.transpose(basis), w)
    z = solve(w)
    if want is None:
        assert z is None
    else:
        assert combination(z, basis) == [q * x for x in w]
        assert tuple(Fraction(x, q) for x in z) == want


def test_empty_inputs():
    space = RowSpace(0)
    assert not space.add(()) and space.pivots == [] and len(space) == 0
    solve, q = RowSpace(2).solver([])
    assert q == 1
    assert solve([0, 0]) == []
    assert solve([0, 1]) is None


def test_zero_duplicate_and_dependent_rows():
    a = ((0, 0, 0), (1, 2, 3), (1, 2, 3), (2, 4, 7), (1, 2, 4), (-5, -10, -1))
    space = RowSpace(3)
    assert [space.add(v) for v in a] == [False, True, False, True, False, False]
    assert space.pivots == [0, 2] and len(space) == 2
    assert space._rows == [[1, 2, 0], [0, 0, 1]]
    assert space.add((0, 3, 0)) and space._rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_inconsistent_system_and_singular_inverse():
    # z·B = q·w outside the span of B is None; dependent rows do not enter,
    # and the space picks its own pivots, so no pivot block is singular
    space = RowSpace(3)
    basis = tailed(space, [(1, 2, 0), (0, 0, 1)])
    solve, q = space.solver(basis)
    assert space.pivots == [0, 2] and q == 1
    assert solve((1, 3, 5)) is None
    assert solve((2, 4, 5)) == [2, 5]
    space = RowSpace(2)
    solve, q = space.solver(tailed(space, [(2, 0), (0, 3)]))
    assert (solve((4, 1)), q) == ([12, 2], 6)
    for rows, pivots in ((((1, 2), (2, 4)), [0]), (((0,),), [])):
        space = RowSpace(len(rows[0]))
        assert tailed(space, rows) == list(rows[:len(pivots)]) and space.pivots == pivots


def test_large_heights_stay_exact():
    # entries of forty digits: the integer rows must not lose a bit
    big = Fraction(10**40 + 7, 3**30)
    a = ((big, 1, Fraction(1, 10**20)), (2, big, 5), (Fraction(-1, 7), 3, big))
    basis = [integers(row) for row in a]
    space = RowSpace(3)
    assert tailed(space, basis) == basis
    solve, q = space.solver(basis)
    for v in ((1, 2, 3), (big, -big, Fraction(1, 3**30))):
        w = integers(v)
        z = solve(w)
        assert combination(z, basis) == [q * x for x in w]
        assert tuple(Fraction(x, q) for x in z) == solve_gauss_jordan(oracles.transpose(basis), w)
