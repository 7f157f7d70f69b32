"""Sparse exact multivariate polynomials K[u_1, ..., u_n].

Terms are stored in a map from exponent tuples to nonzero coefficients.
Only the operations the Pfaffian pipeline needs are provided: ring
arithmetic, evaluation, substitution and equality up to a nonzero
scalar.  Monomials are ordered by graded lexicographic order wherever an
ordering matters.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field, FieldError, Scalar, same_field

Exponents = Tuple[int, ...]


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


class MultiPoly:
    """A polynomial over an exact field in nvars variables."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: Field, terms: Dict[Exponents, Scalar]):
        self.nvars = nvars
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c != field.zero}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field: Field) -> "MultiPoly":
        return cls(nvars, field, {})

    @classmethod
    def constant(cls, nvars: int, field: Field, c) -> "MultiPoly":
        c = field.of(c)
        return cls(nvars, field, {(0,) * nvars: c} if c != field.zero else {})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading(self) -> Tuple[Exponents, Scalar]:
        """Leading (grlex-greatest) term of a nonzero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> List[Tuple[Exponents, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.nvars, self.field, frozenset(self.terms.items()))
        )

    def __repr__(self) -> str:
        return f"MultiPoly({render_poly(self)!r})"

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")
        same_field(self.field, other.field)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero), c)
            if s == F.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.nvars, F, out)

    def __neg__(self) -> "MultiPoly":
        F = self.field
        return MultiPoly(self.nvars, F, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        F = self.field
        out: Dict[Exponents, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(out.get(e, F.zero), F.mul(c1, c2))
                if s == F.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.nvars, F, out)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact evaluation at a point of length nvars."""
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        F = self.field
        pt = [F.of(x) for x in point]
        total = F.zero
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(pt, exps):
                for _ in range(e):
                    val = F.mul(val, x)
            total = F.add(total, val)
        return total

    def substitute(self, index: int, value) -> "MultiPoly":
        """Replace variable u_index (1-based) by a field constant."""
        F = self.field
        value = F.of(value)
        i = index - 1
        out: Dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            for _ in range(exps[i]):
                c = F.mul(c, value)
            e = exps[:i] + (0,) + exps[i + 1 :]
            s = F.add(out.get(e, F.zero), c)
            if s == F.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.nvars, F, out)

    def drop_variable(self, index: int) -> "MultiPoly":
        """Remove a variable the polynomial does not use (1-based index)."""
        i = index - 1
        if any(e[i] != 0 for e in self.terms):
            raise ValueError(f"polynomial still uses variable {index}")
        return MultiPoly(
            self.nvars - 1,
            self.field,
            {e[:i] + e[i + 1 :]: c for e, c in self.terms.items()},
        )


def equal_up_to_scalar(a: MultiPoly, b: MultiPoly) -> Optional[Scalar]:
    """Return c != 0 with a = c*b when one exists, else None; (0, 0) gives 1."""
    a._check(b)
    F = a.field
    if a.is_zero() and b.is_zero():
        return F.one
    if a.is_zero() or b.is_zero():
        return None
    if set(a.terms) != set(b.terms):
        return None
    e, ca = a.leading()
    c = F.div(ca, b.terms[e])
    for exps, coeff in a.terms.items():
        if F.mul(c, b.terms[exps]) != coeff:
            return None
    return c


# -- text rendering and parsing ------------------------------------------


def default_var_names(nvars: int, prefix: str = "u") -> List[str]:
    return [f"{prefix}{i + 1}" for i in range(nvars)]


def render_poly(a: MultiPoly, names: Optional[Sequence[str]] = None) -> str:
    """Render as e.g. "u1^2*u3 + 2*u2" with grlex-descending terms."""
    if names is None:
        names = default_var_names(a.nvars)
    if a.is_zero():
        return "0"
    F = a.field
    pieces: List[str] = []
    for exps, coeff in a.sorted_terms():
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(exps)
            if e > 0
        ]
        text = F.format(coeff)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if factors and text == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([text] + factors)
        else:
            body = text
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


_TERM_SPLIT = re.compile(r"(?=[+-])")


def parse_poly(
    text: str, nvars: int, field: Field, names: Optional[Sequence[str]] = None
) -> MultiPoly:
    """Parse the rendering syntax: sums of '*'-joined factors, each factor a
    variable name, 'name^exp' or a scalar literal."""
    if names is None:
        names = default_var_names(nvars)
    index = {name: i for i, name in enumerate(names)}
    F = field
    stripped = text.replace(" ", "")
    if stripped in ("", "0"):
        return MultiPoly.zero(nvars, field)
    result = MultiPoly.zero(nvars, field)
    for chunk in _TERM_SPLIT.split(stripped):
        if not chunk:
            continue
        sign = F.one
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = F.neg(F.one)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            base, _, power = factor.partition("^")
            if base in index:
                exps[index[base]] += int(power) if power else 1
            else:
                try:
                    coeff = F.mul(coeff, F.of(base))
                except (ValueError, FieldError) as exc:
                    raise ValueError(
                        f"unknown factor {factor!r} in {text!r}"
                    ) from exc
                if power:
                    raise ValueError(f"scalar with exponent in {text!r}")
        result = result + MultiPoly(nvars, field, {tuple(exps): coeff})
    return result
