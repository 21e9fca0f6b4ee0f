"""Exact linear algebra over the rationals, on Python integers.

Rows are integer vectors: a caller with rational rows scales them by one
common denominator first, which changes no span and no pivot.

* ``RowSpace`` holds the reduced row echelon basis of a span as primitive
  integer rows (entries of gcd 1), each over its own denominator: the row R
  with pivot column p stands for R / R[p].  Clearing a column
  cross-multiplies two integer rows and divides out the gcd of the result.
* ``coordinates`` is the one solver: for a basis B of k independent integer
  rows it inverts the k×k block of B at k pivot columns once
  (``_inverse_columns``, a ``RowSpace`` fed [B | I]), and then solves
  z·B = q·w for any integer row w by integer products, q the denominator
  of that inverse.

``RowSpace`` is the one elimination routine.  The reduced echelon form of a
row space is unique, so its rows are the same rationals as Gauss-Jordan
over Q would give.  Dense solves, inverses and matrix products have no
entry point here: the library needs none, and the tests keep them as
``Fraction`` oracles.
"""

from __future__ import annotations

from bisect import bisect
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence


def _primitive(w: list[int]) -> list[int]:
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


class RowSpace:
    """Incremental row-space basis: feed integer rows, keep the rref basis.

    Used for reachability/observability reductions, bracket closures and
    Hankel ranks, and behind the block inverse of ``coordinates``.  The
    basis is held as primitive integer rows sorted by pivot column; the row
    R with pivot p stands for the rref row R / R[p].
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self._rows: list[list[int]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, w: Sequence[int]) -> bool:
        """Insert the integer row ``w``; True if it enlarged the span."""
        for row, p in zip(self._rows, self.pivots):  # w minus its projection on the span
            a = w[p]
            if a:
                d = row[p]
                g = gcd(a, d)
                a, d = a // g, d // g
                w = [d * x - a * y for x, y in zip(w, row)]
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return False
        r = _primitive(list(w))
        c = r[p]
        for i, row in enumerate(self._rows):
            a = row[p]
            if a:  # clear column p; r is 0 at the other pivots
                g = gcd(a, c)
                a, d = a // g, c // g
                self._rows[i] = _primitive([d * x - a * y for x, y in zip(row, r)])
        k = bisect(self.pivots, p)
        self.pivots.insert(k, p)
        self._rows.insert(k, r)
        return True


def _inverse_columns(block: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], int]:
    """(C, q) for an invertible k×k integer block B: the columns of the
    integer matrix C = q·B^-1, from the integer rref rows of [B | I]."""
    k = len(block)
    space = RowSpace(2 * k)
    for i, row in enumerate(block):
        space.add([*row, *(int(j == i) for j in range(k))])
    if space.pivots != list(range(k)):
        raise ValueError("matrix is singular")
    inv = space._rows  # row i of B^-1 is row[k:] / row[i]
    q = lcm(*(row[i] for i, row in enumerate(inv)))
    return list(zip(*([x * (q // row[i]) for x in row[k:]] for i, row in enumerate(inv)))), q


def coordinates(basis: Sequence[Sequence[int]], pivots: Sequence[int]) -> tuple[Callable, int]:
    """(solve, q) for a basis B of k independent integer rows.

    ``pivots`` names k columns where the k×k block of B is invertible, such
    as the pivots of a ``RowSpace`` fed the same rows.  The block is inverted
    once (``_inverse_columns``), q the denominator of that inverse.
    ``solve(w)`` takes an integer row w, gets z from w at the pivot columns
    by one integer vector-matrix product with q·B^-1, checks the full
    equation z·B = q·w, and returns z as a list of integers, or None when w
    is outside the span.  The coordinates of w in the basis are z / q.
    """
    inv_cols, q = _inverse_columns([[b[p] for p in pivots] for b in basis])
    basis_cols = list(zip(*basis))  # none when the basis is empty

    def solve(w: Sequence[int]) -> list[int] | None:
        at_pivots = [w[p] for p in pivots]
        z = [sum(map(mul, at_pivots, col)) for col in inv_cols]
        if any(sum(map(mul, z, col)) != q * x for col, x in zip_longest(basis_cols, w, fillvalue=())):
            return None
        return z

    return solve, q
