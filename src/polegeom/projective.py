"""Canonical projective points and lines of PG(n-1, K).

Points are represented by their unique vector with first nonzero
coordinate 1; a line (``Line``) is the reduced-echelon pair (r1, r2) of
its 2-space, a plain tuple that sorts and hashes as one, whose Pluecker
coordinates ``wedge2_mod_p`` computes only where a report prints them.
The enumeration order of canonical points is fixed (first-nonzero
position ascending, then the trailing coordinates as a base-p odometer).
``kernels.scan`` reaches its ``start`` index in that order with
``itertools.islice``; ``projective_point_at`` gives the point at any one
index, for ``span_points`` and the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from .fields import GF, Field, Scalar
from .linalg import Matrix

Vector = Tuple[Scalar, ...]
Line = Tuple[Vector, Vector]


def canonical_point(field: Field, vec: Sequence[Scalar]) -> Vector:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = [field.of(x) for x in vec]
    lead = next((x for x in v if x != field.zero), None)
    if lead is None:
        raise ValueError("zero vector has no projective point")
    inv = field.inv(lead)
    return tuple(field.mul(x, inv) for x in v)


def num_projective_points(p: int, n: int) -> int:
    return (p**n - 1) // (p - 1)


def projective_point_at(p: int, n: int, index: int) -> Tuple[int, ...]:
    """Random access into the canonical enumeration order."""
    if index < 0:
        raise IndexError(index)
    k = 0
    while k < n:
        block = p ** (n - k - 1)
        if index < block:
            rest = []
            for _ in range(n - k - 1):
                rest.append(index % p)
                index //= p
            rest.reverse()
            return tuple([0] * k + [1] + rest)
        index -= block
        k += 1
    raise IndexError("projective point index out of range")


def span_points(field: GF, basis: Sequence[Vector]) -> List[Vector]:
    """Canonical points of the projective subspace spanned by basis vectors."""
    p = field.p
    k = len(basis)
    n = len(basis[0]) if basis else 0
    seen = set()
    out: List[Vector] = []
    for idx in range(num_projective_points(p, k)):
        coeffs = projective_point_at(p, k, idx)
        vec = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                for i in range(n):
                    vec[i] = field.add(vec[i], field.mul(c, b[i]))
        pt = canonical_point(field, vec)
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


def span_points_mod_p(p: int, rows: Sequence[Sequence[int]]) -> List[Vector]:
    """span_points on ints: the canonical points of the span of echelon
    rows mod p with leading entries 1, in no particular order.  They are
    the sums sum c_i r_i over the coefficient vectors c whose first
    nonzero entry is 1, each already canonical: with i the first index
    where c_i = 1, every r_k with k >= i is zero before the pivot of r_i,
    and only r_i is nonzero there.
    """
    out: List[Vector] = []
    # every combination of the rows after k
    tail: List[Vector] = [(0,) * len(rows[0])] if rows else []
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        out.extend(tuple((a + b) % p for a, b in zip(row, vec)) for vec in tail)
        if k:
            tail = [
                tuple((c * a + b) % p for a, b in zip(row, vec))
                for c in range(p)
                for vec in tail
            ]
    return out


def pair_list(n: int) -> List[Tuple[int, int]]:
    """Lexicographic list of index pairs (j, k), 1 <= j < k <= n."""
    return [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def wedge2_coordinates(field: Field, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """Pluecker coordinates (x_j*y_k - x_k*y_j) of the line [x, y], pairs in
    lexicographic order; rejects dependent input."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    xv = [field.of(a) for a in x]
    yv = [field.of(a) for a in y]
    out = []
    nonzero = False
    for j in range(len(xv)):
        for k in range(j + 1, len(xv)):
            c = field.sub(field.mul(xv[j], yv[k]), field.mul(xv[k], yv[j]))
            if c != field.zero:
                nonzero = True
            out.append(c)
    if not nonzero:
        raise ValueError("dependent vectors span no line")
    return tuple(out)


@lru_cache(maxsize=None)
def _index_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


def wedge2_mod_p(p: int, x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
    """wedge2_coordinates over GF(p) on ints: (x_j*y_k - x_k*y_j) mod p,
    pairs in lexicographic order.  The caller passes independent vectors."""
    return tuple([(x[j] * y[k] - x[k] * y[j]) % p for j, k in _index_pairs(len(x))])


class PluckerLine:
    """Holds only ``from_pair``, the Field-based reference for a line's
    reduced-echelon pair.  It stays until the benchmark's tracer stops
    wrapping it by this name (ROADMAP items B and H)."""

    @classmethod
    def from_pair(cls, field: Field, x: Sequence[Scalar], y: Sequence[Scalar]) -> Line:
        red, pivots = Matrix(field, [x, y]).rref()
        if len(pivots) != 2:
            raise ValueError("dependent vectors span no line")
        return red.rows[0], red.rows[1]


def subspace_rref(field: Field, vectors: Sequence[Sequence[Scalar]]) -> Tuple[Vector, ...]:
    """Canonical (RREF, zero rows dropped) basis of a vector span."""
    red, pivots = Matrix(field, vectors).rref()
    return tuple(red.rows[i] for i in range(len(pivots)))
