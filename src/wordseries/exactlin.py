"""Exact linear algebra over the rationals, on Python integers.

Rows are integer vectors: a caller with rational rows scales them by one
common denominator first, which changes no span and no pivot.

* ``RowSpace`` holds the reduced row echelon basis of a span as primitive
  integer rows (entries of gcd 1), each over its own denominator: the row R
  with pivot column p stands for R / R[p].  Clearing a column
  cross-multiplies two integer rows and divides out the gcd of the result.
* Entries past the space's ``ncols`` columns ride along as a tail that
  holds no pivot.  Fed the m-th independent row V_m as [V_m | e_m], each
  echelon row is [R | T] with R = T·V, so ``RowSpace.solver`` reads the
  coordinates of w as sum_i w[p_i] / R_i[p_i] · T_i, with no inverse.

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
    Hankel ranks.  The basis is held as primitive integer rows (tails
    included) sorted by pivot column; the row R with pivot p stands for the
    rref row R / R[p].
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self._rows: list[list[int]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, w: Sequence[int]) -> bool:
        """Insert the integer row ``w``; True if it enlarged the span of the
        first ``ncols`` columns."""
        for row, p in zip(self._rows, self.pivots):  # w minus its projection on the span
            a = w[p]
            if a:
                d = row[p]
                g = gcd(a, d)
                a, d = a // g, d // g
                w = [d * x - a * y for x, y in zip(w, row)]
        p = next((i for i, x in enumerate(w) if x), self.ncols)
        if p >= self.ncols:
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

    def solver(self, basis: Sequence[Sequence[int]]) -> tuple[Callable, int]:
        """(solve, q) for the rows B that enlarged this space, the m-th fed
        as [B_m | e_m], and q the lcm of the pivot entries R_i[p_i].
        ``solve(w)`` takes an integer row w, gets z = sum_i w[p_i] q / R_i[p_i]
        · T_i by one integer product, checks the full equation z·B = q·w,
        and returns z as a list of integers, or None when w is outside the
        span.  The coordinates of w in the basis are z / q.
        """
        n, k = self.ncols, len(basis)
        q = lcm(*(row[p] for row, p in zip(self._rows, self.pivots)))
        tail_cols = list(zip(*([x * (q // row[p]) for x in row[n:n + k]] for row, p in zip(self._rows, self.pivots))))
        basis_cols = list(zip(*basis))  # none when the basis is empty

        def solve(w: Sequence[int]) -> list[int] | None:
            at_pivots = [w[p] for p in self.pivots]
            z = [sum(map(mul, at_pivots, col)) for col in tail_cols]
            if any(sum(map(mul, z, col)) != q * x for col, x in zip_longest(basis_cols, w, fillvalue=())):
                return None
            return z

        return solve, q
