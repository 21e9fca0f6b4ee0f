"""Exact linear algebra over the rationals, on Python integers.

* a rational row v is carried as an integer row (w, s): a primitive integer
  vector w (entries of gcd 1) and one ``Fraction`` scale s, v = s·w;
* ``RowSpace`` holds the reduced row echelon basis of a span as primitive
  integer rows, each over its own denominator: the row R with pivot column
  p stands for R / R[p].  Clearing a column cross-multiplies two integer
  rows and divides out the gcd of the result, so no ``Fraction`` is built
  inside the elimination loop.

``RowSpace`` is the one elimination routine.  The reduced echelon form of a
row space is unique, so its rows are the same Fractions as Gauss-Jordan
over Q would give.  ``_inverse_columns`` feeds a k×k integer block, next to
the identity, into one RowSpace to invert it; ``coordinates`` then solves
x·B = v for many v by integer products, and ``linrep``'s minimization uses
the inverse on integer forms directly.  Dense solves and inverses have no
other entry point: the library needs none.  The only ``Fraction`` matrices
left are those of ``bracket``, for the Lie diagnostics of ``linrep``;
representations are stored and combined as integer forms.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a
    )


def bracket(a: Mat, b: Mat) -> Mat:
    """Commutator [a, b] = ab - ba."""
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(mat_mul(a, b), mat_mul(b, a)))


def _int_row(v: Iterable) -> tuple[list[int], Fraction]:
    """The integer row (w, s) of a rational row v: v = s·w, with w primitive
    (entries of gcd 1) and s > 0; the zero row has s = 0."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in xs))
    w = [x.numerator * (d // x.denominator) for x in xs]
    g = gcd(*w)
    if g > 1:
        w = [x // g for x in w]
    return w, Fraction(g, d)


def _primitive(w: list[int]) -> list[int]:
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


class RowSpace:
    """Incremental row-space basis: feed vectors, keep the rref basis.

    Used for reachability/observability reductions and bracket closures, and
    behind the block inverse of ``coordinates``.  The basis is held as primitive
    integer rows sorted by pivot column; the row R with pivot p stands for
    the rref row R / R[p].
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self._rows: list[list[int]] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The basis in reduced row echelon form."""
        return [[Fraction(x, row[p]) for x in row] for row, p in zip(self._rows, self.pivots)]

    def _residue(self, w: list[int]) -> tuple[list[int], int]:
        """(r, f): w minus its projection on the span is r / f."""
        f = 1
        for row, p in zip(self._rows, self.pivots):
            a = w[p]
            if a:
                d = row[p]
                g = gcd(a, d)
                a, d = a // g, d // g
                w = [d * x - a * y for x, y in zip(w, row)]
                f *= d
        return w, f

    def _add(self, w: list[int]) -> bool:
        r = self._residue(w)[0]
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        r = _primitive(r)
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

    def reduce(self, v: Sequence[Fraction]) -> list[Fraction]:
        """v minus its projection on the span: zero at every pivot column."""
        w, s = _int_row(v)
        r, f = self._residue(w)
        s /= f
        return [s * x for x in r]

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert ``v``; True if it enlarged the span."""
        return self._add(_int_row(v)[0])

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self._residue(_int_row(v)[0])[0])


def _inverse_columns(block: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], int]:
    """(C, q) for an invertible k×k integer block B: the columns of the
    integer matrix C = q·B^-1, from the integer rref rows of [B | I]."""
    k = len(block)
    space = RowSpace(2 * k)
    for i, row in enumerate(block):
        space._add(_int_row((*row, *(int(j == i) for j in range(k))))[0])
    if space.pivots != list(range(k)):
        raise ValueError("matrix is singular")
    inv = space._rows  # row i of B^-1 is row[k:] / row[i]
    q = lcm(*(row[i] for i, row in enumerate(inv)))
    return list(zip(*([x * (q // row[i]) for x in row[k:]] for i, row in enumerate(inv)))), q


def coordinates(basis: Sequence[tuple[list[int], Fraction]], pivots: Sequence[int]):
    """Solver of x·B = v in one basis B of k independent rows.

    ``basis`` holds the rows as integer rows (w_i, t_i), b_i = t_i·w_i, and
    ``pivots`` names k columns where the k×k block of B is invertible, such
    as the pivots of a ``RowSpace`` fed the same rows.  The block is inverted
    once (``_inverse_columns``).  The returned function takes an integer row
    (w, s) for v = s·w, gets x from w at the pivot columns by one integer
    vector-matrix product with that inverse, checks the full equation
    x·B = v, and returns x as a tuple of Fractions, or None when v is
    outside the span.
    """
    inv_cols, q = _inverse_columns([[w[p] for p in pivots] for w, _ in basis])
    basis_cols = list(zip(*(w for w, _ in basis)))  # none when the basis is empty
    scales = [(t.numerator, t.denominator) for _, t in basis]

    def solve_row(v: tuple[list[int], Fraction]) -> Vec | None:
        w, s = v
        at_pivots = [w[p] for p in pivots]
        z = [sum(map(mul, at_pivots, col)) for col in inv_cols]  # x_i = s·z_i / (q·t_i)
        if any(sum(map(mul, z, col)) != q * x for col, x in zip_longest(basis_cols, w, fillvalue=())):
            return None
        return tuple(
            Fraction(s.numerator * zi * t_den, s.denominator * q * t_num)
            for zi, (t_num, t_den) in zip(z, scales)
        )

    return solve_row
