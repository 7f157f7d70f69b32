"""Shared test helpers."""

import itertools
import math
import random
import sys

from polegeom.fields import GF, QQ
from polegeom.forms import TriForm, catalog_tags
from polegeom.linalg import Matrix, PolyMatrix, pfaffian
from polegeom.poles import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _entries,
    _line_bases,
    _require_enumerable,
    over_field,
    upper_radical_system,
)
from polegeom.poly import MultiPoly
from polegeom.projective import wedge2_mod_p

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


def is_alternating(m):
    """Zero diagonal and entry(j,k) == -entry(k,j) (symmetric in char 2)."""
    if m.nrows != m.ncols:
        return False
    F = m.field
    for i in range(m.nrows):
        if m.rows[i][i] != F.zero:
            return False
        for j in range(i + 1, m.ncols):
            if m.rows[i][j] != F.neg(m.rows[j][i]):
                return False
    return True


def scalar_pfaffian(m):
    """The Pfaffian of an alternating scalar Matrix by ``linalg.pfaffian``,
    each entry the constant {0: x}: GF(p) scalars are expanded as plain
    ints and reduced once at the end, which is exact, since the Pfaffian
    is an integer polynomial in the entries."""
    if m.nrows != m.ncols:
        raise ValueError("pfaffian needs a square matrix")
    if not is_alternating(m):
        raise ValueError("pfaffian needs an alternating matrix")
    rows = m.rows
    upper = [
        {j: {0: rows[i][j]} for j in range(i + 1, m.ncols) if rows[i][j]}
        for i in range(m.nrows)
    ]
    return m.field.of(pfaffian(upper).get(0, 0))


def _expansion_ring(m):
    """The rows of a Matrix or PolyMatrix, the zero the determinant sums
    from, and the map from its result to the answer, where None is the
    empty product, one.  GF(p) scalars are expanded as plain ints and
    reduced once at the end, which is exact: the determinant is an integer
    polynomial in the entries."""
    if isinstance(m, Matrix):
        if m.nrows != m.ncols:
            raise ValueError("determinant needs a square matrix")
        F = m.field
        return m.rows, 0, lambda x: F.one if x is None else F.of(x)
    if isinstance(m, PolyMatrix):
        zero, one = (MultiPoly.constant(m.nvars, m.field, c) for c in (0, 1))
        return m.entries, zero, lambda x: one if x is None else x
    raise TypeError(f"unsupported matrix type {type(m).__name__}")


def determinant(m):
    """Exact determinant of a square Matrix or PolyMatrix, by cofactor
    expansion along the rows memoized on the columns left (which fix the
    row: the number of columns removed)."""
    rows, zero, finish = _expansion_ring(m)
    n = len(rows)
    memo = {}

    def rec(cols):
        if not cols:
            return None
        if cols in memo:
            return memo[cols]
        row = rows[n - len(cols)]
        acc = zero
        for pos, c in enumerate(cols):
            a = row[c]
            if a:
                inner = rec(cols[:pos] + cols[pos + 1 :])
                term = a if inner is None else a * inner
                acc = acc - term if pos % 2 else acc + term
        memo[cols] = acc
        return acc

    return finish(rec(tuple(range(n))))


def num_projective_lines(p, n):
    """The Gaussian binomial [n choose 2]_p: the lines of PG(n-1, p)."""
    return (p**n - 1) * (p ** (n - 1) - 1) // ((p * p - 1) * (p - 1))


def annihilated_mod_p(rows, p, vec):
    """Whether every row of ``rows`` times ``vec`` is 0 mod p."""
    return not any(sum(a * b for a, b in zip(row, vec)) % p for row in rows)


def upper_radical_by_wedge(h, field=None, budget=None):
    """The upper radical by the reference route: every line of PG(n-1, p)
    filtered through the linear system ``upper_radical_system``, applied
    mod p to the line's Pluecker coordinates.  It cross-checks
    ``enumerate_upper_radical``.  The lines it walks are charged to the
    budget, as well as p^n."""
    h = over_field(h, field)
    field = h.field
    _require_enumerable(field, h.n, budget)
    limit = DEFAULT_BUDGET if budget is None else budget
    count = num_projective_lines(field.p, h.n)
    if count > limit:
        raise BudgetExceededError(
            f"{count} lines of PG({h.n - 1}, {field.p}) exceed budget {limit}"
        )
    rows = upper_radical_system(h).equations.rows
    return sorted(
        line
        for line in _line_bases(field.p, h.n)
        if annihilated_mod_p(rows, field.p, wedge2_mod_p(field.p, *line))
    )


# -- sampled witnesses of a pole equation ------------------------------------
#
# The library decides a pole equation from G's terms alone.  These oracles
# check a candidate g point by point instead: against a scan's degrees over
# GF(p), and against the degrees of a grid of integer points over Q.


def rational_sample_points(n):
    """A deterministic spread of 240 small integer points."""
    rng = random.Random(0xC0FFEE + n)
    seen = set()
    # include the standard basis and all 0/1 vectors of low weight first
    for i in range(n):
        vec = tuple(1 if j == i else 0 for j in range(n))
        seen.add(vec)
        yield vec
    while len(seen) < 240:
        vec = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in vec) or vec in seen:
            continue
        seen.add(vec)
        yield vec


def integer_rank(rows):
    """The rank of an integer matrix by fraction-free (Bareiss) elimination.

    After a pivot every remaining entry is a minor of the input on the
    pivot rows and columns so far, so dividing by the previous pivot is
    exact and the entries stay as small as those minors.
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    rank, prev = 0, 1
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, nrows) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        a = top[c]
        for row in work[rank + 1 :]:
            b = row[c]
            for j in range(c + 1, len(row)):
                row[j] = (a * row[j] - b * top[j]) // prev
            row[c] = 0
        prev = a
        rank += 1
    return rank


def cleared(terms):
    """Rational coefficients times the least common multiple of their
    denominators: integers with the same ratios."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {key: int(c * scale) for key, c in terms.items()}


def grid_degrees(h):
    """(point, degree) at each sample point of a rational form, on
    integers: M_u is scaled once to integer coefficients, which does not
    change its rank, and each integer M_u is ranked by ``integer_rank``.
    The degrees are those of ``point_degree``."""
    n = h.n
    entries = cleared({(a - 1, b - 1, v - 1): c for a, b, v, c in _entries(h)})
    for pt in rational_sample_points(n):
        m = [[0] * n for _ in range(n)]
        for (a, b, v), c in entries.items():
            x = c * pt[v]
            m[a][b] += x
            m[b][a] -= x
        yield pt, n - 1 - integer_rank(m)


def zero_set_matches(field, g_terms, degrees):
    """Pointwise check that {g = 0} equals the pole set, for g given by its
    terms {exponents: coefficient} and ``degrees`` yielding (point, degree)
    on integer points: a scan's over GF(p), ``grid_degrees`` over Q.

    Each term is evaluated on ints as (coefficient, its variables each
    repeated by its exponent).  Over GF(p) the coefficients are taken mod p
    and each value is reduced mod p; over Q g is scaled once to integer
    coefficients, which does not change its zeros, and each value is exact.
    """
    finite = field.is_finite
    ints = {e: field.of(c) for e, c in g_terms.items()} if finite else cleared(g_terms)
    terms = [(c, [i for i, e in enumerate(es) for _ in range(e)]) for es, c in ints.items() if c]
    p = field.p if finite else 0
    for pt, deg in degrees:
        total = 0
        for c, factors in terms:
            for i in factors:
                c *= pt[i]
            total += c
        if ((total % p if p else total) == 0) != (deg >= 1):
            return False
    return True
