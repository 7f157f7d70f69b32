"""Exact linear algebra over field scalars and over polynomial entries.

Scalar matrices support rank/kernel (reduced echelon form).  The
Pfaffian of an alternating matrix of sparse polynomials, given by the
entries above its diagonal, on plain ints or Fractions, is one
first-row expansion memoized on index subsets, which stays exact in
every characteristic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .fields import Field, Scalar, same_field
from .poly import MultiPoly


class Matrix:
    """An immutable rectangular matrix of exact field scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence[Scalar]]):
        self.field = field
        self.rows: Tuple[Tuple[Scalar, ...], ...] = tuple(
            tuple(field.of(x) for x in row) for row in rows
        )
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise ValueError("ragged rows")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and its pivot column list."""
        F = self.field
        work = [list(row) for row in self.rows]
        pivots: List[int] = []
        r = 0
        for c in range(self.ncols):
            pivot = next(
                (i for i in range(r, self.nrows) if work[i][c] != F.zero), None
            )
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = F.inv(work[r][c])
            work[r] = [F.mul(x, inv) for x in work[r]]
            for i in range(self.nrows):
                if i != r and work[i][c] != F.zero:
                    factor = work[i][c]
                    work[i] = [
                        F.sub(x, F.mul(factor, y)) for x, y in zip(work[i], work[r])
                    ]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix(F, work), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def rank_and_kernel(self) -> Tuple[int, List[Tuple[Scalar, ...]]]:
        """Rank and a right-kernel basis: the vector of free column f is 1
        at f and 0 at the other free columns, free columns ascending, and
        not in general reduced.  rank + len(kernel) == ncols.
        """
        F = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [F.zero] * self.ncols
            vec[f] = F.one
            for r, c in enumerate(pivots):
                vec[c] = F.neg(red.rows[r][f])
            basis.append(tuple(vec))
        return len(pivots), basis


class PolyMatrix:
    """A square matrix with MultiPoly entries."""

    __slots__ = ("field", "nvars", "size", "entries")

    def __init__(self, field: Field, nvars: int, entries: Sequence[Sequence[MultiPoly]]):
        self.field = field
        self.nvars = nvars
        self.entries: Tuple[Tuple[MultiPoly, ...], ...] = tuple(
            tuple(row) for row in entries
        )
        self.size = len(self.entries)
        for row in self.entries:
            if len(row) != self.size:
                raise ValueError("PolyMatrix must be square")
            for p in row:
                if p.nvars != nvars:
                    raise ValueError("entry arity mismatch")
                same_field(p.field, field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.size}x{self.size}, {self.nvars} vars)"

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def render(self) -> str:
        """Aligned text rendering for CLI debugging."""
        from .poly import render_poly

        cells = [[render_poly(p) for p in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def pfaffian(upper: Sequence[Dict[int, Dict[int, object]]]) -> Dict[int, object]:
    """Pfaffian of an alternating matrix of sparse polynomials, given by
    the entries above its diagonal, by one first-row expansion on plain
    ints (or Fractions), memoized on the tuple of live indices.

    ``upper[i]`` maps each j > i whose entry (i, j) is nonzero to that
    entry, a dict {key: coefficient} of nonzero int or Fraction
    coefficients.  A key packs a monomial's exponents as the digits of one
    int, so the key of a product of monomials is the sum of their keys and
    0 is the key of the monomial 1; the digits must be wide enough for
    every exponent of the Pfaffian.

    The Pfaffian comes back as terms {key: coefficient}, zeros dropped and
    none reduced.  Odd sizes give {}, the empty matrix {0: 1}.
    """
    memo: Dict[Tuple[int, ...], Dict[int, object]] = {}

    def rec(live: Tuple[int, ...]) -> Dict[int, object]:
        if not live:
            return {0: 1}
        if live in memo:
            return memo[live]
        row, rest = upper[live[0]], live[1:]
        acc: Dict[int, object] = {}
        get = acc.get
        for pos, j in enumerate(rest):
            a = row.get(j)
            if a:
                inner = rec(rest[:pos] + rest[pos + 1 :])
                for ka, ca in a.items():
                    if pos % 2:
                        ca = -ca
                    for kb, cb in inner.items():
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
        memo[live] = acc = {k: c for k, c in acc.items() if c}
        return acc

    return rec(tuple(range(len(upper))))
