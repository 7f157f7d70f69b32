"""The geometry of poles: contraction matrices, point degrees, pole
enumeration, pole-variety equations via Pfaffians, and the upper radical.

For a form h on K^n and a point u, the contraction M_u has entries
M_u[j,k] = sum_i u_i * h(e_i, e_j, e_k); the degree of [u] is
(n-1) - rank(M_u) and [u] is a pole when the degree is positive.  For
odd n the pole set is cut out by stripping powers of u_i from the
Pfaffian of the i-th principal submatrix of the symbolic M_u.  These n
Pfaffians are one polynomial: the signed sub-Pfaffian vector of an odd
alternating matrix lies in its kernel (Buchsbaum-Eisenbud) and M_u u = 0,
so Pf(M_u^(i)) = (-1)^(i+1) u_i G(u) over every field, and only
Pf(M_u^(1)) is expanded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import kernels
from .fields import GF, Field, Scalar
from .forms import TriForm
from .linalg import Matrix, PolyMatrix, SparseAlternating, pfaffian
from .poly import MultiPoly
from .projective import (
    Line,
    Vector,
    num_projective_lines,
    num_projective_points,
    pair_list,
    span_points_mod_p,
    wedge2_mod_p,
)

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget (p^n, or the line
    count of a walk over every line)."""


class VarietyError(RuntimeError):
    """No principal Pfaffian index produced a verified pole equation."""


def _require_enumerable(field: GF, n: int, budget: Optional[int]) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if field.order**n > limit:
        raise BudgetExceededError(
            f"{field!r}^{n} = {field.order ** n} exceeds budget {limit}"
        )


def over_field(h: TriForm, field: Optional[Field] = None) -> TriForm:
    """h over the GF(p) it is scanned over: ``field``, or h's own field
    when None.  A rational form is reduced mod p (``TriForm.reduce_mod``);
    a form over another finite field, or a field that is not finite,
    raises ValueError."""
    field = h.field if field is None else field
    if not field.is_finite:
        raise ValueError(f"the pole scan needs a finite field gf(p), not {field!r}")
    return h.reduce_mod(field)


def symbolic_matrix(h: TriForm) -> PolyMatrix:
    """The alternating matrix of linear entries sum_i h(e_i,e_j,e_k) u_i."""
    if h.is_zero():
        raise ValueError("zero form has no contraction matrix")
    n, F = h.n, h.field
    units = [tuple(int(v == w) for w in range(n)) for v in range(n)]
    terms: List[List[Dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in h.coeffs.items():
        # coefficient c on the sorted triple (i, j, k) gives M[j,k] = c*u_i,
        # M[i,k] = -c*u_j, M[i,j] = c*u_k, antisymmetric; each (entry,
        # variable) pair comes from exactly one triple, so it is set once
        neg = F.neg(c)
        for (a, b, v, x, y) in ((j, k, i, c, neg), (i, k, j, neg, c), (i, j, k, c, neg)):
            terms[a - 1][b - 1][units[v - 1]] = x
            terms[b - 1][a - 1][units[v - 1]] = y
    return PolyMatrix(F, n, [[MultiPoly(n, F, t) for t in row] for row in terms])


def contraction_matrix(h: TriForm, u: Sequence[Scalar]) -> Matrix:
    """M_u at a concrete point u."""
    F, n = h.field, h.n
    uv = [F.of(x) for x in u]
    if len(uv) != n:
        raise ValueError(f"point must have length {n}")
    rows = [[F.zero] * n for _ in range(n)]
    for (i, j, k), c in h.coeffs.items():
        for (a, b, v, s) in ((j, k, i, 1), (i, k, j, -1), (i, j, k, 1)):
            x = F.mul(c, uv[v - 1])
            if x == F.zero:
                continue
            if s < 0:
                x = F.neg(x)
            rows[a - 1][b - 1] = F.add(rows[a - 1][b - 1], x)
            rows[b - 1][a - 1] = F.sub(rows[b - 1][a - 1], x)
    return Matrix(F, rows)


def point_degree(h: TriForm, u: Sequence[Scalar]) -> Tuple[int, List[Vector]]:
    """Degree (n-1) - rank(M_u) and Rad(chi_u) from ``Matrix.rank_and_kernel``."""
    F = h.field
    uv = [F.of(x) for x in u]
    if all(x == F.zero for x in uv):
        raise ValueError("zero vector has no degree")
    m = contraction_matrix(h, uv)
    rank, kernel = m.rank_and_kernel()
    return h.n - 1 - rank, kernel


def structure_cube(h: TriForm, field: GF) -> List[List[List[int]]]:
    """The n x n x n tensor h(e_i, e_j, e_k) mod p for the scan kernels."""
    n = h.n
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in h.coeffs.items():
        v = field.of(c)
        neg = (-v) % field.p
        for (a, b, cc, s) in (
            (i, j, k, 1),
            (j, k, i, 1),
            (k, i, j, 1),
            (j, i, k, -1),
            (i, k, j, -1),
            (k, j, i, -1),
        ):
            cube[a - 1][b - 1][cc - 1] = v if s > 0 else neg
    return cube


@dataclass
class PoleReport:
    """One scan of PG(n-1, p): the three aligned columns of ``kernels.scan``.

    ``points`` is every point in the canonical order, so a point's position
    is its enumeration index.  ``degrees[i]`` is the degree of
    ``points[i]``.  ``radicals`` is None for a scan without radicals;
    otherwise ``radicals[i]`` is the reduced row echelon basis of
    Rad(chi_u), as the scan produces it, at a pole that leads a radical
    line (r1 of a line of ``_radical_lines``), and None at every other
    point.  ``lines_through_point`` and ``point_degree`` give the radical
    of any one point.
    """

    field: GF
    n: int
    points: List[Vector]
    degrees: List[int]
    radicals: Optional[List[Optional[List[Vector]]]]
    histogram: Dict[int, int]


def enumerate_poles(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
    with_radicals: bool = True,
) -> PoleReport:
    """Scan every canonical projective point of h over ``over_field(h,
    field)`` and record its degree and, on request, the radical of each
    pole that leads a radical line (None at every other point; see
    ``PoleReport``).
    """
    return _scan_report(over_field(h, field), budget, with_radicals, guarded=False)


def _scan_report(
    hf: TriForm, budget: Optional[int], with_radicals: bool, guarded: bool
) -> PoleReport:
    """One ``kernels.scan`` of hf over its finite field.  ``guarded`` is
    for the paths that verify nothing (``build_geometry`` and
    ``enumerate_upper_radical``): at odd n the scan then gets the terms of
    G and eliminates only where G(u) = 0."""
    field = hf.field
    p, n = field.p, hf.n
    _require_enumerable(field, n, budget)
    # G = 0, every point a pole, leaves nothing to guard
    guard = (_pfaffian_quotient(hf) or None) if guarded and n % 2 else None
    cube = structure_cube(hf, field)
    total = num_projective_points(p, n)
    points, degrees, radicals = kernels.scan(cube, n, p, 0, total, with_radicals, guard)
    histogram = dict(sorted(Counter(degrees).items()))
    return PoleReport(field, n, points, degrees, radicals, histogram)


@dataclass
class VarietyResult:
    """Outcome of the principal-Pfaffian pole-variety pipeline."""

    all_points: bool
    index: Optional[int] = None
    d: Optional[MultiPoly] = None
    alpha: Optional[int] = None
    g: Optional[MultiPoly] = None
    verified_over: Optional[str] = None


def _pfaffian_quotient(h: TriForm) -> Dict[Tuple[int, ...], Scalar]:
    """The terms of G, read off Pf(M_u^(1)) = u_1 G: the one Pfaffian that
    is expanded for the pole equation, and the only place it is.  Empty
    when that Pfaffian vanishes identically (every point a pole, or even n).

    M_u^(1) is read straight off h's coefficients as in
    ``symbolic_matrix``, each entry a linear form {key of u_v: c} with u_v
    keyed 1 << width*(v-1): every exponent of the Pfaffian, of degree
    (n-1)/2, fits in ``width`` bits.  It is expanded on plain ints (or
    Fractions over Q), reduced in h's field once, and divided by u_1.
    """
    if h.is_zero():
        raise ValueError("zero form has no contraction matrix")
    n, F = h.n, h.field
    width = ((n - 1) // 2).bit_length()
    upper: List[Dict[int, Dict[int, Scalar]]] = [{} for _ in range(n - 1)]
    for (i, j, k), c in h.coeffs.items():
        for a, b, v, x in ((j, k, i, c), (i, k, j, -c), (i, j, k, c)):
            if a > 1:  # row and column 1 are deleted
                upper[a - 2].setdefault(b - 2, {})[1 << width * (v - 1)] = x
    mask = (1 << width) - 1
    out: Dict[Tuple[int, ...], Scalar] = {}
    for key, c in pfaffian(SparseAlternating(upper)).items():
        c = F.of(c)
        if c == F.zero:
            continue
        if not key & mask:
            raise RuntimeError(
                f"Pf(M_u^(1)) of {h.label or h!r} is not divisible by u_1: "
                "the sub-Pfaffian identity is broken"
            )
        key -= 1  # divided by u_1, keyed 1
        out[tuple(key >> width * v & mask for v in range(n))] = c
    return out


def _stripped(g_terms: Dict[Tuple[int, ...], Scalar], i: int):
    """v_i(G), the power of u_i (0-based i) that divides G, and the terms
    of G / u_i^v_i(G)."""
    v = min(e[i] for e in g_terms)
    return v, {e[:i] + (e[i] - v,) + e[i + 1 :]: c for e, c in g_terms.items()}


def variety_candidates(h: TriForm) -> Dict[int, Tuple[MultiPoly, int, MultiPoly]]:
    """All nonzero principal-Pfaffian candidates i -> (d_i, alpha_i, g_i),
    from one Pfaffian.

    For odd n the signed sub-Pfaffian vector of M_u spans its kernel where
    rank M_u = n-1 and vanishes elsewhere (Buchsbaum-Eisenbud), and
    M_u u = 0, so Pf(M_u^(i)) = (-1)^(i+1) u_i G(u) for one polynomial G,
    over every field.  G is read off Pf(M_u^(1)) = u_1 G, and every d_i is
    rebuilt from its terms: alpha_i = 1 + v_i(G) and
    g_i = +-G / u_i^(v_i(G)).  The candidates are therefore all of 1..n or
    none (G = 0, every point a pole; also every even n).
    """
    n, F = h.n, h.field
    g_terms = _pfaffian_quotient(h)
    out: Dict[int, Tuple[MultiPoly, int, MultiPoly]] = {}
    if not g_terms:
        return out
    for i in range(n):
        sign = F.one if i % 2 == 0 else F.neg(F.one)
        v, stripped = _stripped(g_terms, i)
        d = {e[:i] + (e[i] + 1,) + e[i + 1 :]: F.mul(sign, c) for e, c in g_terms.items()}
        g = {e: F.mul(sign, c) for e, c in stripped.items()}
        out[i + 1] = (MultiPoly(n, F, d), v + 1, MultiPoly(n, F, g))
    return out


def _rational_sample_points(n: int) -> Iterable[Tuple[int, ...]]:
    """A deterministic spread of 240 small integer points."""
    import random

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


def _factored(terms: Iterable[Tuple[Tuple[int, ...], int]]) -> List[Tuple[int, List[int]]]:
    """Integer terms (exponents, c) as (c, its variables each repeated by
    its exponent), zero coefficients dropped: a polynomial evaluated on
    ints by one product per term."""
    return [(c, [i for i, e in enumerate(exps) for _ in range(e)]) for exps, c in terms if c]


def _zero_set_matches(
    field: GF, g_terms: Dict[Tuple[int, ...], Scalar], degrees: Iterable[Tuple[Vector, int]]
) -> bool:
    """Pointwise check that {g = 0} equals the pole set of a scan, for g
    given by its terms {exponents: coefficient}.

    ``degrees`` yields (point, degree) for every point of PG(n-1, p), with
    integer coordinates.  g is evaluated on ints: each term becomes
    (coefficient mod p, its variables each repeated by its exponent) once,
    and the sum is reduced mod p once per point.
    """
    p = field.p
    terms = _factored((exps, field.of(c)) for exps, c in g_terms.items())
    for pt, deg in degrees:
        total = 0
        for c, factors in terms:
            for i in factors:
                c *= pt[i]
            total += c
        if (total % p == 0) != (deg >= 1):
            return False
    return True


def _integer_rank(rows: List[List[int]]) -> int:
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


def _cleared(terms: Dict) -> Dict:
    """Rational coefficients times the least common multiple of their
    denominators: integers with the same ratios."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {key: int(c * scale) for key, c in terms.items()}


def _grid_degrees(h: TriForm) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """(point, degree) at each sample point of a rational form, on
    integers: h is scaled once to integer coefficients, which does not
    change the rank of M_u, and each integer M_u is ranked by
    ``_integer_rank``.  The degrees are those of ``point_degree``."""
    n = h.n
    coeffs = [(i - 1, j - 1, k - 1, c) for (i, j, k), c in _cleared(h.coeffs).items()]
    for pt in _rational_sample_points(n):
        # M_u as contraction_matrix builds it
        m = [[0] * n for _ in range(n)]
        for i, j, k, c in coeffs:
            for a, b, x in ((j, k, c * pt[i]), (i, k, -c * pt[j]), (i, j, c * pt[k])):
                m[a][b] += x
                m[b][a] -= x
        yield pt, n - 1 - _integer_rank(m)


def _grid_matches(h: TriForm, g_terms: Dict[Tuple[int, ...], Scalar]) -> bool:
    """Pointwise check of {g = 0}, for g given by its terms, against the
    poles of a rational form on a sampled grid, on integers: g is scaled
    once to integer coefficients, which does not change its zeros, and the
    degrees are ``_grid_degrees``."""
    terms = _factored(_cleared(g_terms).items())
    for pt, degree in _grid_degrees(h):
        value = 0
        for c, factors in terms:
            for v in factors:
                c *= pt[v]
            value += c
        if (value == 0) != (degree >= 1):
            return False
    return True


def pole_variety(
    h: TriForm,
    i: Optional[int] = None,
    budget: Optional[int] = None,
    report: Optional[PoleReport] = None,
) -> VarietyResult:
    """Equation of the pole set per the principal-Pfaffian pipeline.

    Even n (or identically vanishing candidates) yields the designated
    all-points result.  Otherwise candidate indices are tried in
    ascending order; the first whose stripped polynomial has the correct
    zero set is returned.  A finite form is checked against one scan of
    itself, or against ``report`` when the caller already holds that scan
    (``verified_over`` is its field); a rational form is checked on a
    sampled grid (``verified_over`` is "grid").  An index i outside 1..n
    raises ValueError, for even n too.
    """
    if h.is_zero():
        raise ValueError("zero form")
    if i is not None and not 1 <= i <= h.n:
        raise ValueError(f"index {i} out of range 1..{h.n}")
    if h.n % 2 == 0:
        return VarietyResult(all_points=True)
    candidates = variety_candidates(h)
    if not candidates:
        # every principal Pfaffian vanishes identically: for any u pick i
        # with u_i != 0, then rank M_u = rank M_u^(i) <= n-3, a pole
        return VarietyResult(all_points=True)
    order = [i] if i is not None else sorted(candidates)
    finite = h.field.is_finite
    if finite and report is None:
        report = enumerate_poles(h, budget=budget, with_radicals=False)
    failed: List[int] = []
    for idx in order:
        d, alpha, g = candidates[idx]
        if finite:
            ok = _zero_set_matches(report.field, g.terms, zip(report.points, report.degrees))
        else:
            ok = _grid_matches(h, g.terms)
        if ok:
            return VarietyResult(
                all_points=False,
                index=idx,
                d=d,
                alpha=alpha,
                g=g,
                verified_over=repr(h.field) if finite else "grid",
            )
        failed.append(idx)
    raise VarietyError(
        f"no candidate index verified (tried {failed}); candidates degenerate"
    )


@dataclass
class PluckerSystem:
    """Linear conditions on Pluecker coordinates cutting out the upper radical."""

    n: int
    pairs: List[Tuple[int, int]]
    equations: Matrix
    solution: List[Vector]

    def contains(self, wedge: Sequence[Scalar]) -> bool:
        F = self.equations.field
        return all(x == F.zero for x in self.equations.mul_vec(wedge))


def upper_radical_system(h: TriForm) -> PluckerSystem:
    """For each i the equation sum_{j<k} h(e_i,e_j,e_k) w_jk = 0."""
    if h.is_zero():
        raise ValueError("zero form")
    n, F = h.n, h.field
    pairs = pair_list(n)
    rows = [
        [h.coefficient(i, j, k) for (j, k) in pairs] for i in range(1, n + 1)
    ]
    eq = Matrix(F, rows)
    _, kernel = eq.rank_and_kernel()
    return PluckerSystem(n=n, pairs=pairs, equations=eq, solution=kernel)


def _line_rref(p: int, u: Vector, y: Sequence[int]) -> Line:
    """Reduced-echelon basis (r1, r2) of the line [u, y] mod p, for a
    canonical point u and a vector y outside <u>."""
    a = next(i for i, x in enumerate(u) if x)
    t = y[a]
    if t:
        y = [(x - t * w) % p for x, w in zip(y, u)]
    b = next(i for i, x in enumerate(y) if x)
    s = pow(y[b], p - 2, p)
    y = tuple(x * s % p for x in y)
    if b < a:
        return y, u  # u[b] == 0 and y[a] == 0 already
    t = u[b]
    if t:
        return tuple((w - t * x) % p for w, x in zip(u, y)), y
    return u, y


def _least_point_lines(
    p: int, spaces: Iterable[Tuple[Vector, Sequence[Vector]]]
) -> List[Line]:
    """For each pair (u, space), in the order given, the lines [u, y] with
    y in the span of ``space`` whose least point (in the canonical order)
    is u, sorted by y.

    ``space`` is the reduced-echelon basis of a subspace containing the
    canonical point u, with lead index a.  Those lines are the [u, y] with
    y a canonical point of W = span ∩ {y_0 = ... = y_a = 0} and
    u[lead(y)] = 0, and y = r2 is the only such point of its line: (u, y)
    is then reduced, and conversely r2 of a line with r1 = u is zero up to
    and including a, with u zero at its lead.  W is spanned by the rows
    whose pivot exceeds a, and a point of W is led by the pivot of the
    first row in its combination, so the span is listed from the first of
    those rows whose pivot u is zero at.
    """
    lines: List[Line] = []
    for u, space in spaces:
        a = u.index(1)
        pivots = [row.index(1) for row in space]
        first = next((k for k, c in enumerate(pivots) if c > a and not u[c]), None)
        if first is None:
            continue
        ys = sorted(y for y in span_points_mod_p(p, space[first:]) if not u[y.index(1)])
        lines.extend((u, y) for y in ys)
    return lines


def _radical_lines(report: PoleReport) -> List[Line]:
    """The upper-radical lines of a scan with radicals, sorted, each once:
    ``_least_point_lines`` over each pole u that leads a line and its
    radical Rad(chi_u), which the scan hands over in reduced echelon form
    at those poles alone.

    No line is missed: h(u, y, .) = 0 is symmetric in u and y and survives
    a change of basis of the line, so for every radical line r1 is a pole
    and the whole line lies in Rad(chi_r1).  Poles are visited in tuple
    order and each pole's lines come sorted, so the list comes out sorted.
    """
    columns = zip(report.points, report.radicals)
    return _least_point_lines(report.field.p, sorted((u, r) for u, r in columns if r))


def lines_through_point(
    h: TriForm, u: Sequence[Scalar], field: Optional[GF] = None
) -> List[Line]:
    """The upper-radical lines through [u] of h over ``over_field(h,
    field)``, sorted: all [u, y] with y in Rad(chi_u).

    Works on ints mod p and reads no scan: M_u from ``structure_cube``,
    then Rad(chi_u) = ker M_u in reduced echelon form from
    ``kernel_mod_p``.  The canonical u is the sum of u[c] times the row of
    pivot c, with coefficient 1 on the row at its lead, so the other rows
    span a complement of <u> in Rad(chi_u).  The points y of that
    complement are the directions of the lines through [u], one each.
    """
    h = over_field(h, field)
    F = h.field
    p, n = F.p, h.n
    if len(u) != n:
        raise ValueError(f"point must have length {n}")
    uv = [F.of(x) for x in u]
    a = next((i for i, x in enumerate(uv) if x), None)
    if a is None:
        raise ValueError("zero vector has no degree")
    scale = pow(uv[a], p - 2, p)
    u_pt = tuple(x * scale % p for x in uv)
    cube = structure_cube(h, F)
    m = [
        [sum(x * c[j][k] for x, c in zip(u_pt, cube)) % p for k in range(n)]
        for j in range(n)
    ]
    complement = [y for y in kernels.kernel_mod_p(m, p) if y.index(1) != a]
    return sorted(_line_rref(p, u_pt, y) for y in span_points_mod_p(p, complement))


def _line_bases(p: int, n: int) -> Iterator[Line]:
    """The reduced-echelon basis of every line of PG(n-1, p), on ints, by
    echelon shape: pivots i < j, then the free entries as a base-p odometer."""
    for i in range(n):
        for j in range(i + 1, n):
            free1 = [c for c in range(i + 1, n) if c != j]
            free2 = [c for c in range(j + 1, n)]
            slots = free1 + free2
            total = p ** len(slots)
            for code in range(total):
                vals = []
                rem = code
                for _ in slots:
                    vals.append(rem % p)
                    rem //= p
                row1 = [0] * n
                row2 = [0] * n
                row1[i] = 1
                row2[j] = 1
                for c, v in zip(free1, vals[: len(free1)]):
                    row1[c] = v
                for c, v in zip(free2, vals[len(free1) :]):
                    row2[c] = v
                yield tuple(row1), tuple(row2)


def enumerate_upper_radical(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
) -> List[Line]:
    """All lines of the upper radical of h over ``over_field(h, field)``,
    canonical and sorted: one scan, guarded by G at odd n, each line
    assembled at its least pole."""
    return _radical_lines(_scan_report(over_field(h, field), budget, True, guarded=True))


def _upper_radical_by_wedge(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
) -> List[Line]:
    """The upper radical by the reference route: every line of PG(n-1, p)
    filtered through the linear system ``upper_radical_system``.  The
    tests cross-check ``enumerate_upper_radical`` against it.  The lines it
    walks are charged to the budget, as well as p^n."""
    h = over_field(h, field)
    field = h.field
    _require_enumerable(field, h.n, budget)
    limit = DEFAULT_BUDGET if budget is None else budget
    count = num_projective_lines(field.p, h.n)
    if count > limit:
        raise BudgetExceededError(
            f"{count} lines of PG({h.n - 1}, {field.p}) exceed budget {limit}"
        )
    system = upper_radical_system(h)
    return sorted(
        line
        for line in _line_bases(field.p, h.n)
        if system.contains(wedge2_mod_p(field.p, *line))
    )


def full_report(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
) -> dict:
    """The module's JSON report of h over ``over_field(h, field)``: poles,
    histogram, upper radical, variety.  ``form`` names h as given."""
    hf = over_field(h, field)
    field = hf.field
    report = enumerate_poles(hf, budget=budget)
    lines = _radical_lines(report)
    from .poly import render_poly

    if hf.n % 2 == 0:
        variety = {"i": None, "g": "all-points", "verified": "parity"}
    else:
        v = pole_variety(hf, budget=budget, report=report)
        if v.all_points:
            variety = {"i": None, "g": "all-points", "verified": "symbolic"}
        else:
            names = [f"x{i + 1}" for i in range(hf.n)]
            variety = {
                "i": v.index,
                "g": render_poly(v.g, names),
                "verified": v.verified_over,
            }
    return {
        "form": h.label or repr(h),
        "field": repr(field),
        "n": hf.n,
        "poles": [
            {"point": list(u), "degree": deg}
            for u, deg in zip(report.points, report.degrees)
            if deg >= 1
        ],
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "upper_radical": [
            {
                "basis": [list(b) for b in line],
                "plucker": list(wedge2_mod_p(field.p, *line)),
            }
            for line in lines
        ],
        "variety": variety,
    }
