"""Shared test helpers."""

import itertools
import sys

from polegeom.fields import GF, QQ
from polegeom.forms import TriForm, catalog_tags
from polegeom.linalg import Matrix, PolyMatrix
from polegeom.poly import MultiPoly

# parameter choices satisfying each parametric row's condition per field
CATALOG_PARAMS = {
    "T10_1": {GF(3): 2, GF(5): 2, GF(7): 3, QQ: 2},
    "T11_1": {GF(3): 2, GF(5): 2, GF(7): 3, QQ: 2},
    "T10_2": {GF(2): 1},
    "T11_2": {GF(2): 1},
    "T12": {GF(7): 2, QQ: 2},
}


def desk_instances(fields=(GF(2), GF(3))):
    """All (tag, field, param) triples whose catalog conditions hold."""
    out = []
    for tag in catalog_tags():
        if tag in CATALOG_PARAMS:
            for field, lam in CATALOG_PARAMS[tag].items():
                if field in fields:
                    out.append((tag, field, lam))
        else:
            for field in fields:
                out.append((tag, field, None))
    return out


def random_form(n, field, rng, density=0.5):
    """A seeded random form: each triple gets a coefficient in -2..2 with
    probability ``density`` (zero coefficients drop out)."""
    coeffs = {
        t: rng.randint(-2, 2)
        for t in itertools.combinations(range(1, n + 1), 3)
        if rng.random() < density
    }
    return TriForm(n, field, coeffs)


def random_invertible(field, n, rng):
    """A seeded uniform invertible n x n matrix (entries from a bounded box
    over Q), drawn row by row until one has full rank."""
    while True:
        if field.is_finite:
            m = Matrix(field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)])
        else:
            m = Matrix(field, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def random_alternating(field, n, rng):
    """A seeded alternating n x n matrix: each entry above the diagonal
    uniform (from a bounded box over Q), its mirror the negative."""
    F = field
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = F.of(rng.randrange(F.order)) if F.is_finite else F.of(rng.randint(-9, 9))
            rows[i][j] = x
            rows[j][i] = F.neg(x)
    return Matrix(F, rows)


def forbid_everywhere(monkeypatch, name):
    """Make every polegeom module's binding of ``name`` raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called on the integer path")

    bound = [
        mod
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "polegeom" and hasattr(mod, name)
    ]
    assert bound, name
    for mod in bound:
        monkeypatch.setattr(mod, name, forbidden)


def principal_delete(m, index):
    """The PolyMatrix m without row and column ``index`` (1-based)."""
    if not 1 <= index <= m.size:
        raise IndexError(f"index {index} out of range 1..{m.size}")
    i = index - 1
    entries = [
        [x for c, x in enumerate(row) if c != i] for r, row in enumerate(m.entries) if r != i
    ]
    return PolyMatrix(m.field, m.nvars, entries)


def strip_variable_power(a, index):
    """Write the MultiPoly a = u_index^e * cofactor with u_index not
    dividing the cofactor: e is the least power of u_index over a's terms."""
    if a.is_zero():
        raise ValueError("cannot strip a variable from the zero polynomial")
    i = index - 1
    e = min(exps[i] for exps in a.terms)
    cofactor = MultiPoly(
        a.nvars,
        a.field,
        {exps[:i] + (exps[i] - e,) + exps[i + 1 :]: c for exps, c in a.terms.items()},
    )
    return e, cofactor


def multipoly_pfaffian(m):
    """The Pfaffian of an alternating PolyMatrix by first-row expansion in
    MultiPoly arithmetic, memoized on the live indices: the reference for
    ``linalg.pfaffian``'s sparse expansion on ints."""
    memo = {}

    def rec(live):
        if not live:
            return MultiPoly.constant(m.nvars, m.field, 1)
        if live not in memo:
            row, rest = m.entries[live[0]], live[1:]
            acc = MultiPoly.zero(m.nvars, m.field)
            for pos, j in enumerate(rest):
                if row[j]:
                    term = row[j] * rec(rest[:pos] + rest[pos + 1 :])
                    acc = acc - term if pos % 2 else acc + term
            memo[live] = acc
        return memo[live]

    return rec(tuple(range(m.size)))
