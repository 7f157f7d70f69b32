"""Alternating trilinear forms on K^n and the canonical type catalog.

A form is stored on strictly increasing basis triples; every signed
permutation is derived at evaluation time.  The catalog covers the types
T1..T9, T10_1, T10_2, T11_1, T11_2 and T12 with their parameter
conditions, embedded so the radical sits on the trailing basis vectors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    QUAD_PURE,
    QUAD_SHIFTED,
    Field,
    Scalar,
    cubic_irreducible,
    parse_field,
    quadratic_irreducible,
    same_field,
)
from .linalg import Matrix
from .projective import Vector, pair_list

Triple = Tuple[int, int, int]


class CatalogConditionError(ValueError):
    """A catalog entry's special condition fails over the requested field."""


def sort_triple(i: int, j: int, k: int) -> Tuple[Optional[Triple], int]:
    """Sorted triple and permutation sign; (None, 0) on repeated indices."""
    if i == j or j == k or i == k:
        return None, 0
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b = b, a
        sign = -sign
    if b > c:
        b, c = c, b
        sign = -sign
    if a > b:
        a, b = b, a
        sign = -sign
    return (a, b, c), sign


def coefficient_in(field: Field, c, i: int, j: int, k: int) -> Scalar:
    """The coefficient c of triple i j k, as read (a literal or a Fraction),
    in ``field``: ValueError, naming both, when its denominator is 0 or
    divisible by p."""
    try:
        return field.of(c)
    except ZeroDivisionError:
        why = f"divisible by {field.p}" if field.is_finite else "of 0"
        raise ValueError(f"coefficient {c} of {i} {j} {k} has a denominator {why}") from None


class TriForm:
    """An alternating trilinear form given by coefficients on sorted triples."""

    __slots__ = ("n", "field", "coeffs", "label")

    def __init__(
        self,
        n: int,
        field: Field,
        coeffs: Dict[Triple, Scalar],
        label: Optional[str] = None,
    ):
        if n < 3:
            raise ValueError("need dimension n >= 3")
        self.n = n
        self.field = field
        clean: Dict[Triple, Scalar] = {}
        for (i, j, k), c in coeffs.items():
            if not (1 <= i < j < k <= n):
                raise ValueError(f"triple {(i, j, k)} not strictly increasing in 1..{n}")
            c = field.of(c)
            if c != field.zero:
                clean[(i, j, k)] = c
        self.coeffs = clean
        self.label = label

    @classmethod
    def from_terms(
        cls,
        n: int,
        field: Field,
        terms: Sequence[Tuple[int, int, int, Scalar]],
        label: Optional[str] = None,
    ) -> "TriForm":
        """Build from possibly unsorted (i, j, k, coeff) terms, merging with signs."""
        acc: Dict[Triple, Scalar] = {}
        for i, j, k, c in terms:
            key, sign = sort_triple(i, j, k)
            if key is None:
                continue
            c = field.of(c)
            if sign < 0:
                c = field.neg(c)
            prev = acc.get(key, field.zero)
            acc[key] = field.add(prev, c)
        return cls(n, field, acc, label=label)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> Tuple[int, ...]:
        used = set()
        for t in self.coeffs:
            used.update(t)
        return tuple(sorted(used))

    def coefficient(self, i: int, j: int, k: int) -> Scalar:
        """Signed coefficient h(e_i ^ e_j ^ e_k) for any index order."""
        key, sign = sort_triple(i, j, k)
        if key is None:
            return self.field.zero
        c = self.coeffs.get(key, self.field.zero)
        return c if sign > 0 else self.field.neg(c)

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar], z: Sequence[Scalar]) -> Scalar:
        """The value of the form on three vectors of length n."""
        F = self.field
        if len(x) != self.n or len(y) != self.n or len(z) != self.n:
            raise ValueError(f"vectors must have length {self.n}")
        xv = [F.of(a) for a in x]
        yv = [F.of(a) for a in y]
        zv = [F.of(a) for a in z]
        total = F.zero
        for (i, j, k), c in self.coeffs.items():
            a, b, cc = i - 1, j - 1, k - 1
            # 3x3 determinant of the (i, j, k) coordinate rows of (x, y, z)
            m1 = F.sub(F.mul(yv[b], zv[cc]), F.mul(yv[cc], zv[b]))
            m2 = F.sub(F.mul(yv[a], zv[cc]), F.mul(yv[cc], zv[a]))
            m3 = F.sub(F.mul(yv[a], zv[b]), F.mul(yv[b], zv[a]))
            minor = F.add(F.sub(F.mul(xv[a], m1), F.mul(xv[b], m2)), F.mul(xv[cc], m3))
            total = F.add(total, F.mul(c, minor))
        return total

    def add(self, other: "TriForm") -> "TriForm":
        same_field(self.field, other.field)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        F = self.field
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = F.add(out.get(t, F.zero), c)
            if s == F.zero:
                out.pop(t, None)
            else:
                out[t] = s
        return TriForm(self.n, F, out)

    def scale(self, c: Scalar) -> "TriForm":
        F = self.field
        c = F.of(c)
        if c == F.zero:
            raise ValueError("scaling by zero destroys the hyperplane")
        return TriForm(self.n, F, {t: F.mul(k, c) for t, k in self.coeffs.items()})

    def radical_and_rank(self) -> Tuple[List[Vector], int]:
        """Radical basis (reduced echelon) and rank = n - dim(radical)."""
        if self.is_zero():
            raise ValueError("zero form has no rank")
        F = self.field
        rows = []
        for j, k in pair_list(self.n):
            rows.append([self.coefficient(j, k, v) for v in range(1, self.n + 1)])
        rank_rows, kernel = Matrix(F, rows).rank_and_kernel()
        del rank_rows
        return kernel, self.n - len(kernel)

    def rank(self) -> int:
        return self.radical_and_rank()[1]

    def pullback(self, g: Matrix) -> "TriForm":
        """The equivalent form x, y, z -> h(g(x), g(y), g(z))."""
        same_field(self.field, g.field)
        if g.nrows != self.n or g.ncols != self.n:
            raise ValueError("map dimension mismatch")
        if g.rank() != self.n:
            raise ValueError("pullback needs an invertible map")
        cols = [tuple(g.rows[r][c] for r in range(self.n)) for c in range(self.n)]
        terms = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                for k in range(j + 1, self.n + 1):
                    c = self.evaluate(cols[i - 1], cols[j - 1], cols[k - 1])
                    if c != self.field.zero:
                        terms.append((i, j, k, c))
        return TriForm.from_terms(self.n, self.field, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TriForm)
            and self.n == other.n
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        terms = "+".join(f"{i}{j}{k}" for (i, j, k) in sorted(self.coeffs))
        name = self.label or terms or "0"
        return f"TriForm({name}, n={self.n}, {self.field!r})"

    # -- form file format --------------------------------------------------

    def to_text(self) -> str:
        lines = [f"n = {self.n}", f"field = {self.field!r}"]
        for (i, j, k) in sorted(self.coeffs):
            lines.append(f"{i} {j} {k} {self.field.format(self.coeffs[(i, j, k)])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TriForm":
        n = None
        fld: Optional[Field] = None
        terms: List[Tuple[int, int, int, Scalar]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                key = key.strip().lower()
                if key == "n":
                    n = int(value.strip())
                elif key == "field":
                    fld = parse_field(value.strip())
                else:
                    raise ValueError(f"unknown header {key!r}")
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"bad term line {raw!r}")
            if n is None or fld is None:
                raise ValueError("term line before n/field headers")
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            terms.append((i, j, k, coefficient_in(fld, parts[3], i, j, k)))
        if n is None or fld is None:
            raise ValueError("missing n or field header")
        return cls.from_terms(n, fld, terms)


# -- the catalog ------------------------------------------------------------

# Raw term lists follow the catalog's digit shorthand, unsorted triples
# carrying their permutation sign implicitly.
_PLAIN_TERMS: Dict[str, List[Triple]] = {
    "T1": [(1, 2, 3)],
    "T2": [(1, 2, 3), (1, 4, 5)],
    "T3": [(1, 2, 3), (4, 5, 6)],
    "T4": [(1, 6, 2), (2, 4, 3), (1, 3, 5)],
    "T5": [(1, 2, 3), (4, 5, 6), (1, 4, 7)],
    "T6": [(1, 5, 2), (1, 7, 4), (1, 6, 3), (2, 4, 3)],
    "T7": [(1, 4, 6), (1, 5, 7), (2, 4, 5), (3, 6, 7)],
    "T8": [(1, 2, 3), (1, 4, 5), (1, 6, 7)],
    "T9": [(1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7), (3, 6, 7)],
}

CATALOG_RANKS: Dict[str, int] = {
    "T1": 3,
    "T2": 5,
    "T3": 6,
    "T4": 6,
    "T5": 7,
    "T6": 7,
    "T7": 7,
    "T8": 7,
    "T9": 7,
    "T10_1": 6,
    "T10_2": 6,
    "T11_1": 7,
    "T11_2": 7,
    "T12": 7,
}

PARAMETRIC_TAGS = ("T10_1", "T10_2", "T11_1", "T11_2", "T12")


def check_catalog_conditions(tag: str, field: Field, param: Optional[Scalar]) -> None:
    """Validate the special conditions of a parametric catalog row."""
    if tag in ("T10_1", "T11_1"):
        lam = field.of(param)
        if not quadratic_irreducible(field, QUAD_PURE, lam):
            raise CatalogConditionError(
                f"{tag}: t^2-{field.format(lam)} is reducible over {field!r}"
            )
    elif tag in ("T10_2", "T11_2"):
        if field.characteristic != 2:
            raise CatalogConditionError(f"{tag} needs characteristic 2")
        lam = field.of(param)
        if not quadratic_irreducible(field, QUAD_SHIFTED, lam):
            raise CatalogConditionError(
                f"{tag}: t^2+{field.format(lam)}t+1 is reducible over {field!r}"
            )
    elif tag == "T12":
        mu = field.of(param)
        if not cubic_irreducible(field, mu):
            raise CatalogConditionError(
                f"T12: t^3-{field.format(mu)} is reducible over {field!r}"
            )


def _t10_terms(field: Field, lam: Scalar, variant: int) -> List[Tuple[int, int, int, Scalar]]:
    one = field.one
    if variant == 1:
        return [
            (1, 2, 3, one),
            (1, 5, 6, lam),
            (3, 4, 5, lam),
            (4, 2, 6, lam),
        ]
    lam2p1 = field.add(field.mul(lam, lam), one)
    return [
        (1, 2, 6, one),
        (1, 5, 3, one),
        (2, 3, 4, one),
        (4, 5, 6, lam2p1),
        (1, 5, 6, lam),
        (3, 4, 5, lam),
        (4, 2, 6, lam),
    ]


def catalog_form(
    tag: str,
    field: Field,
    n: Optional[int] = None,
    param: Optional[Scalar] = None,
) -> TriForm:
    """Instantiate a catalog row over a field, embedded in dimension n."""
    lam = field.of(param) if param is not None else None
    if tag not in CATALOG_RANKS:
        raise ValueError(f"unknown type tag {tag!r}")
    if (lam is not None) != (tag in PARAMETRIC_TAGS):
        raise ValueError(
            f"{tag} takes a parameter exactly when it is one of {PARAMETRIC_TAGS}"
        )
    rank = CATALOG_RANKS[tag]
    if n is None:
        n = rank
    if n < rank:
        raise ValueError(f"{tag} needs n >= {rank}, got {n}")
    check_catalog_conditions(tag, field, lam)
    if tag in _PLAIN_TERMS:
        terms = [(i, j, k, field.one) for (i, j, k) in _PLAIN_TERMS[tag]]
    elif tag == "T10_1":
        terms = _t10_terms(field, lam, 1)
    elif tag == "T10_2":
        terms = _t10_terms(field, lam, 2)
    elif tag == "T11_1":
        terms = _t10_terms(field, lam, 1) + [(1, 4, 7, field.one)]
    elif tag == "T11_2":
        terms = _t10_terms(field, lam, 2) + [(1, 4, 7, field.one)]
    elif tag == "T12":
        terms = [(i, j, k, lam) for (i, j, k) in _PLAIN_TERMS["T9"]]
    else:  # pragma: no cover - unknown tags are refused above
        raise ValueError(tag)
    label = tag if lam is None else f"{tag}({field.format(lam)})"
    form = TriForm.from_terms(n, field, terms, label=label)
    return form


def catalog_tags() -> List[str]:
    return list(CATALOG_RANKS)
