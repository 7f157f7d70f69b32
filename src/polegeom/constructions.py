"""Hyperplane builders: trivial extension, expansion of a bilinear form,
block decomposition, the single-shared-index reducible join, and the
recursive chain whose pole set is a union of coordinate hyperplanes.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .fields import Field, Scalar, same_field
from .forms import TriForm

Pair = Tuple[int, int]


class BilinearAltForm:
    """An alternating bilinear form stored on pairs j < k of 1..n."""

    __slots__ = ("n", "field", "coeffs")

    def __init__(self, n: int, field: Field, coeffs: Dict[Pair, Scalar]):
        if n < 2:
            raise ValueError("need dimension n >= 2")
        self.n = n
        self.field = field
        clean: Dict[Pair, Scalar] = {}
        for (j, k), c in coeffs.items():
            if j >= k:
                raise ValueError(f"pair {(j, k)} not strictly increasing in 1..{n}")
            if j < 1 or k > n:
                raise ValueError(f"pair {(j, k)} outside 1..{n}")
            c = field.of(c)
            if c != field.zero:
                clean[(j, k)] = c
        self.coeffs = clean

    def coefficient(self, j: int, k: int) -> Scalar:
        if j == k:
            return self.field.zero
        if j < k:
            return self.coeffs.get((j, k), self.field.zero)
        return self.field.neg(self.coeffs.get((k, j), self.field.zero))

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
        F = self.field
        xv = [F.of(a) for a in x]
        yv = [F.of(a) for a in y]
        total = F.zero
        for (j, k), c in self.coeffs.items():
            minor = F.sub(
                F.mul(xv[j - 1], yv[k - 1]), F.mul(xv[k - 1], yv[j - 1])
            )
            total = F.add(total, F.mul(c, minor))
        return total

    def support(self) -> Tuple[int, ...]:
        used = set()
        for pair in self.coeffs:
            used.update(pair)
        return tuple(sorted(used))

def trivial_extension(h0: TriForm, extra: int) -> TriForm:
    """Zero-pad a form by `extra` fresh trailing dimensions."""
    if extra < 1:
        raise ValueError("extra must be >= 1")
    return TriForm(h0.n + extra, h0.field, h0.coeffs, label=h0.label)


def expansion(h0: BilinearAltForm, direction: int) -> TriForm:
    """Lift a bilinear form along a fresh direction index.

    Every resulting term contains the direction; the coefficient on the
    triple (j, k, direction) equals the bilinear coefficient on (j, k).
    """
    if not 1 <= direction <= h0.n:
        raise ValueError(f"direction {direction} outside 1..{h0.n}")
    if direction in h0.support():
        raise ValueError(f"direction {direction} already used by the bilinear form")
    terms = []
    for (j, k), c in h0.coeffs.items():
        terms.append((j, k, direction, c))
    return TriForm.from_terms(h0.n, h0.field, terms)


def block_decompose(
    h0: TriForm, h1: TriForm, alpha: Scalar = 1, beta: Scalar = 1
) -> TriForm:
    """Sum of two forms with disjoint index supports: alpha*h0 + beta*h1."""
    same_field(h0.field, h1.field)
    if h0.n != h1.n:
        raise ValueError("forms must live in the same dimension")
    F = h0.field
    alpha, beta = F.of(alpha), F.of(beta)
    if alpha == F.zero or beta == F.zero:
        raise ValueError("block scalars must be nonzero")
    if set(h0.support()) & set(h1.support()):
        raise ValueError("supports overlap")
    return h0.scale(alpha).add(h1.scale(beta))


def reducible_join(h1: TriForm, h2: TriForm) -> TriForm:
    """Couple two forms sharing exactly one basis index.

    The shared index must be the top of h1's support and the bottom of
    h2's; the pole variety of the sum is u_shared * f1 * f2 up to scalar.
    """
    same_field(h1.field, h2.field)
    if h1.n != h2.n:
        raise ValueError("forms must live in the same dimension")
    s1, s2 = set(h1.support()), set(h2.support())
    shared = s1 & s2
    if len(shared) != 1:
        raise ValueError(f"supports must overlap in exactly one index, got {sorted(shared)}")
    n1 = shared.pop()
    if max(s1) != n1 or min(s2) != n1:
        raise ValueError(
            f"shared index {n1} must close the first support and open the second"
        )
    return h1.add(h2)


def cch_hyperplane(n: int, field: Field) -> TriForm:
    """The chain 123 + 345 + 567 + ... on odd n >= 5.

    Its pole set is the union of the hyperplanes u_3 = u_5 = ... = u_{n-2} = 0,
    one factor per link beyond the first.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("need odd n >= 5")
    form = TriForm.from_terms(n, field, [(1, 2, 3, field.one)])
    for start in range(3, n - 1, 2):
        link = TriForm.from_terms(
            n, field, [(start, start + 1, start + 2, field.one)]
        )
        form = reducible_join(form, link)
    return form
