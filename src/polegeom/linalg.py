"""Exact linear algebra over field scalars and over polynomial entries.

Scalar matrices support rank/kernel (reduced echelon form), Bareiss
determinants and Pfaffians; polynomial matrices support principal
row/column deletion, cofactor determinants and Pfaffians.  Pfaffians use
first-row expansion with memoization on index subsets, which stays exact
in every characteristic (including 2, where "alternating" degenerates to
zero diagonal plus symmetry).
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

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def mul_vec(self, vec: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        F = self.field
        v = [F.of(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = F.zero
            for a, b in zip(row, v):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return tuple(out)

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

    def is_alternating(self) -> bool:
        """Zero diagonal and entry(j,k) == -entry(k,j) (symmetric in char 2)."""
        if self.nrows != self.ncols:
            return False
        F = self.field
        for i in range(self.nrows):
            if self.rows[i][i] != F.zero:
                return False
            for j in range(i + 1, self.ncols):
                if self.rows[i][j] != F.neg(self.rows[j][i]):
                    return False
        return True

    def principal_delete(self, index: int) -> "Matrix":
        """Delete row and column `index` (1-based)."""
        if not 1 <= index <= self.nrows:
            raise IndexError(f"index {index} out of range 1..{self.nrows}")
        i = index - 1
        rows = [
            [x for c, x in enumerate(row) if c != i]
            for r, row in enumerate(self.rows)
            if r != i
        ]
        return Matrix(self.field, rows)


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

    def is_alternating(self) -> bool:
        for i in range(self.size):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.size):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True

    def principal_delete(self, index: int) -> "PolyMatrix":
        """Delete row and column `index` (1-based)."""
        if not 1 <= index <= self.size:
            raise IndexError(f"index {index} out of range 1..{self.size}")
        i = index - 1
        entries = [
            [x for c, x in enumerate(row) if c != i]
            for r, row in enumerate(self.entries)
            if r != i
        ]
        return PolyMatrix(self.field, self.nvars, entries)

    def render(self) -> str:
        """Aligned text rendering for CLI debugging."""
        from .poly import render_poly

        cells = [[render_poly(p) for p in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def _pfaffian_generic(n, entry, zero, add, sub, mul, is_zero_fn):
    """Pfaffian by first-row expansion, memoized on tuples of live indices."""
    memo: Dict[Tuple[int, ...], object] = {}

    def rec(indices: Tuple[int, ...]):
        if not indices:
            return None  # empty Pfaffian handled by caller as one
        if indices in memo:
            return memo[indices]
        first = indices[0]
        rest = indices[1:]
        acc = zero
        sign = 1
        for pos, j in enumerate(rest):
            a = entry(first, j)
            if not is_zero_fn(a):
                sub_indices = rest[:pos] + rest[pos + 1 :]
                inner = rec(sub_indices)
                term = a if inner is None else mul(a, inner)
                acc = add(acc, term) if sign > 0 else sub(acc, term)
            sign = -sign
        memo[indices] = acc
        return acc

    if n == 0:
        return None
    return rec(tuple(range(n)))


def pfaffian(m):
    """Pfaffian of an alternating Matrix or PolyMatrix.

    Odd sizes give 0; the square of the result equals the determinant.
    """
    if isinstance(m, Matrix):
        if m.nrows != m.ncols:
            raise ValueError("pfaffian needs a square matrix")
        if not m.is_alternating():
            raise ValueError("pfaffian needs an alternating matrix")
        F = m.field
        if m.nrows == 0:
            return F.one
        if m.nrows % 2 == 1:
            return F.zero
        return _pfaffian_generic(
            m.nrows,
            lambda i, j: m.rows[i][j],
            F.zero,
            F.add,
            F.sub,
            F.mul,
            lambda x: x == F.zero,
        )
    if isinstance(m, PolyMatrix):
        if not m.is_alternating():
            raise ValueError("pfaffian needs an alternating matrix")
        F, nv = m.field, m.nvars
        one = MultiPoly.constant(nv, F, F.one)
        if m.size == 0:
            return one
        if m.size % 2 == 1:
            return MultiPoly.zero(nv, F)
        return _pfaffian_generic(
            m.size,
            lambda i, j: m.entries[i][j],
            MultiPoly.zero(nv, F),
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda p: p.is_zero(),
        )
    raise TypeError(f"unsupported matrix type {type(m).__name__}")


def determinant(m):
    """Exact determinant: Bareiss elimination for scalar matrices, cofactor
    expansion for polynomial matrices."""
    if isinstance(m, Matrix):
        return _det_bareiss(m)
    if isinstance(m, PolyMatrix):
        return _det_cofactor(m)
    raise TypeError(f"unsupported matrix type {type(m).__name__}")


def _det_bareiss(m: Matrix) -> Scalar:
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    F = m.field
    n = m.nrows
    if n == 0:
        return F.one
    a = [list(row) for row in m.rows]
    sign = 1
    prev = F.one
    for k in range(n - 1):
        if a[k][k] == F.zero:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != F.zero), None)
            if pivot is None:
                return F.zero
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = F.sub(F.mul(a[i][j], a[k][k]), F.mul(a[i][k], a[k][j]))
                a[i][j] = F.div(num, prev)
            a[i][k] = F.zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else F.neg(det)


def _det_cofactor(m: PolyMatrix) -> MultiPoly:
    F, nv, n = m.field, m.nvars, m.size
    if n == 0:
        return MultiPoly.constant(nv, F, F.one)
    memo: Dict[Tuple[int, ...], MultiPoly] = {}

    def rec(row: int, cols: Tuple[int, ...]) -> MultiPoly:
        if len(cols) == 1:
            return m.entries[row][cols[0]]
        if cols in memo:
            return memo[cols]
        acc = MultiPoly.zero(nv, F)
        for pos, c in enumerate(cols):
            a = m.entries[row][c]
            if a.is_zero():
                continue
            minor = rec(row + 1, cols[:pos] + cols[pos + 1 :])
            term = a * minor
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    # memo keyed on column subsets is valid because the row index is
    # determined by the number of removed columns
    return rec(0, tuple(range(n)))
