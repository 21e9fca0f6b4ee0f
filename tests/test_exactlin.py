"""Exact elimination on integer rows against Gauss-Jordan over Fraction.

Every result of ``RowSpace`` and ``coordinates`` must equal the oracle's
exactly: same Fractions, same pivot columns, same None / ValueError.
Matrices are small and rational, built to hold zero rows, repeated rows and
combinations of earlier rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import FractionRowSpace, inverse_gauss_jordan, solve_gauss_jordan
from wordseries import exactlin
from wordseries.exactlin import RowSpace

ZERO = Fraction(0)
ratios = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
entries = st.one_of(st.just(ZERO), ratios, st.integers(-3, 3))


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


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@settings(deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(nrows=st.just(n), ncols=st.just(n))))
def test_coordinates_invert_the_pivot_block_like_gauss_jordan(a):
    # x·A = e_i is row i of A^-1: the one block inverse coordinates builds
    n = len(a)
    basis = [exactlin._int_row(row) for row in a]
    try:
        want = inverse_gauss_jordan(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            exactlin.coordinates(basis, range(n))
        return
    solve_row = exactlin.coordinates(basis, range(n))
    got = tuple(solve_row(exactlin._int_row(e)) for e in oracles.identity(n))
    assert got == want and all_fractions(got)
    assert exactlin.mat_mul(a, got) == oracles.identity(n)


@settings(deadline=None)
@given(matrices(nrows=st.integers(0, 8), ncols=st.integers(1, 5)), st.data())
def test_rowspace_matches_fraction_rowspace(vectors, data):
    ncols = len(vectors[0]) if vectors else 3
    space, oracle = RowSpace(ncols), FractionRowSpace(ncols)
    for v in vectors:
        assert space.add(v) == oracle.add(v)
        assert space.rows == oracle.rows and space.pivots == oracle.pivots
        assert len(space) == len(oracle.rows)
        probe = data.draw(st.sampled_from(vectors)) if data.draw(st.booleans()) else data.draw(
            st.lists(entries, min_size=ncols, max_size=ncols)
        )
        reduced = space.reduce(probe)
        assert reduced == oracle.reduce(probe) and all_fractions([reduced])
        assert space.contains(probe) == oracle.contains(probe)


@settings(deadline=None)
@given(matrices(nrows=st.integers(1, 6), ncols=st.integers(1, 6)), st.data())
def test_coordinates_match_a_solve_in_the_basis(vectors, data):
    space = RowSpace(len(vectors[0]))
    basis = [v for v in vectors if space.add(v)]
    if not basis:
        return
    solve_row = exactlin.coordinates([exactlin._int_row(b) for b in basis], space.pivots)
    if data.draw(st.booleans()):  # inside the span
        x = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        v = oracles.vec_mat(oracles.vector(x), basis)
    else:
        v = data.draw(st.lists(entries, min_size=len(basis[0]), max_size=len(basis[0])))
    got = solve_row(exactlin._int_row(v))
    assert got == solve_gauss_jordan(oracles.transpose(basis), v)
    assert (got is None) == (not space.contains(v))


def test_empty_inputs():
    space = RowSpace(0)
    assert not space.add(()) and space.contains(()) and space.reduce(()) == []
    assert space.rows == [] and space.pivots == [] and len(space) == 0
    solve_row = exactlin.coordinates([], [])
    assert solve_row(exactlin._int_row([0, 0])) == ()
    assert solve_row(exactlin._int_row([0, 1])) is None


def test_zero_duplicate_and_dependent_rows():
    a = ((0, 0, 0), (1, 2, 3), (1, 2, 3), (2, 4, 7), (Fraction(1, 2), 1, 2))
    space = RowSpace(3)
    assert [space.add(v) for v in a] == [False, True, False, True, False]
    assert space.pivots == [0, 2] and len(space) == 2
    assert space.rows == [[1, 2, 0], [0, 0, 1]] and all_fractions(space.rows)
    assert space.reduce((0, 1, 0)) == [0, 1, 0]
    assert space.reduce((5, 10, 1)) == [0, 0, 0]


def test_inconsistent_system_and_singular_inverse():
    # x·B = v outside the span of B is None; a singular pivot block is refused
    basis = [exactlin._int_row(row) for row in ((1, 2, 0), (0, 0, 1))]
    solve_row = exactlin.coordinates(basis, [0, 2])
    assert solve_row(exactlin._int_row((1, 3, 5))) is None
    assert solve_row(exactlin._int_row((2, 4, 5))) == (2, 5)
    for rows, pivots in ((((1, 2), (2, 4)), [0, 1]), (((1, 2, 0), (0, 0, 1)), [0, 1]), (((0,),), [0])):
        with pytest.raises(ValueError, match="singular"):
            exactlin.coordinates([exactlin._int_row(row) for row in rows], pivots)


def test_large_heights_stay_exact():
    # entries of forty digits: the integer rows must not lose a bit
    big = Fraction(10**40 + 7, 3**30)
    a = ((big, 1, Fraction(1, 10**20)), (2, big, 5), (Fraction(-1, 7), 3, big))
    solve_row = exactlin.coordinates([exactlin._int_row(row) for row in a], range(3))
    for v in ((1, 2, 3), (big, -big, Fraction(1, 3**30))):
        got = solve_row(exactlin._int_row(v))
        assert got == solve_gauss_jordan(oracles.transpose(a), v)
        assert oracles.vec_mat(got, oracles.matrix(a)) == oracles.vector(v)
