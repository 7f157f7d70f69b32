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
Pf(M_u^(1)) is expanded.  Only this module knows the layout of M_u
(``_entries``).  The pole set is Z(G) exactly, so a pole equation is
decided from G's terms alone (``_cuts_out``), with no scan.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import kernels
from .fields import GF, Field, Scalar
from .forms import TriForm, coefficient_in
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
    """h over the GF(p) it is scanned over, ``field`` or else h's own: h
    itself when over it already, a rational h with each coefficient
    reduced mod p.  ValueError for a field that is not finite, a form over
    another finite field, whose residues mean nothing mod p, and a
    coefficient whose denominator p divides."""
    field = h.field if field is None else field
    if not field.is_finite:
        raise ValueError(f"the pole scan needs a finite field gf(p), not {field!r}")
    if h.field == field:
        return h
    if h.field.is_finite:
        raise ValueError(f"a form over {h.field!r} is not a form over {field!r}")
    coeffs = {t: coefficient_in(field, c, *t) for t, c in h.coeffs.items()}
    return TriForm(h.n, field, coeffs, label=h.label)


def _entries(h: TriForm) -> Iterator[Tuple[int, int, int, Scalar]]:
    """M_u above its diagonal as (a, b, v, c), 1-based: the entry (a, b)
    gets c*u_v, with c in h's field.  The coefficient c on the sorted
    triple (i, j, k) gives M[j,k] = c*u_i, M[i,k] = -c*u_j, M[i,j] = c*u_k,
    so each (entry, variable) pair comes from exactly one triple."""
    neg = h.field.neg
    for (i, j, k), c in h.coeffs.items():
        yield j, k, i, c
        yield i, k, j, neg(c)
        yield i, j, k, c


def symbolic_matrix(h: TriForm) -> PolyMatrix:
    """The alternating matrix of linear entries sum_i h(e_i,e_j,e_k) u_i."""
    if h.is_zero():
        raise ValueError("zero form has no contraction matrix")
    n, F = h.n, h.field
    units = [tuple(int(v == w) for w in range(n)) for v in range(n)]
    terms: List[List[Dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for a, b, v, c in _entries(h):
        terms[a - 1][b - 1][units[v - 1]] = c
        terms[b - 1][a - 1][units[v - 1]] = F.neg(c)
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


def structure_cube(h: TriForm) -> List[List[List[int]]]:
    """The n x n x n tensor h(e_i, e_j, e_k) of a form over GF(p), on ints
    mod p, for the scan kernels: cube[v][a][b] is the coefficient of u_v
    in M_u[a, b]."""
    n, p = h.n, h.field.p
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, v, c in _entries(h):
        cube[v - 1][a - 1][b - 1] = c
        cube[v - 1][b - 1][a - 1] = -c % p
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
    return _scan_report(over_field(h, field), budget, with_radicals, {})


def _scan_report(
    hf: TriForm,
    budget: Optional[int],
    with_radicals: bool,
    g_terms: Dict[Tuple[int, ...], Scalar],
) -> PoleReport:
    """One ``kernels.scan`` of hf over its finite field, guarded by G's
    terms ``g_terms`` when there are any.  Every caller but
    ``enumerate_poles`` passes ``_pfaffian_quotient(hf)``, which is empty
    exactly at even n and where G = 0, so those scans are guarded exactly
    when n is odd and G != 0; ``enumerate_poles`` passes {}, the
    unguarded scan."""
    field = hf.field
    p, n = field.p, hf.n
    _require_enumerable(field, n, budget)
    # The guard gives degree 0 with no elimination wherever G(u) != 0.
    # The scan evaluates G once, packed, and walks only Z(G) in Python, so
    # the guard pays at GF(2) too, where G vanishes at about half the points.
    cube = structure_cube(hf)
    total = num_projective_points(p, n)
    points, degrees, radicals = kernels.scan(
        cube, n, p, 0, total, with_radicals, g_terms or None
    )
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
    is expanded for the pole equation and the scan's guard, and the only
    place it is.  Empty at even n and when that Pfaffian vanishes
    identically (every point a pole, as for the zero form), and only
    then, so a scan handed these terms is guarded exactly when n is odd
    and G != 0.  Even n and the zero form expand nothing.

    M_u^(1) is read straight off ``_entries``, each entry a linear form
    {key of u_v: c} with u_v keyed 1 << width*(v-1): every exponent of the
    Pfaffian, of degree (n-1)/2, fits in ``width`` bits.  It is expanded
    on plain ints (or Fractions over Q), reduced in h's field once, and
    divided by u_1.
    """
    n, F = h.n, h.field
    if n % 2 == 0 or h.is_zero():
        return {}
    width = ((n - 1) // 2).bit_length()
    upper: List[Dict[int, Dict[int, Scalar]]] = [{} for _ in range(n - 1)]
    for a, b, v, c in _entries(h):
        if a > 1:  # row and column 1 are deleted
            upper[a - 2].setdefault(b - 2, {})[1 << width * (v - 1)] = c
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


def _cuts_out(field: Field, v: int, g: Dict[Tuple[int, ...], Scalar], i: int) -> bool:
    """Whether g = G / u_i^v (0-based i, from ``_stripped``) has the zero
    set of G, which is the pole set.  Z(G) = {u_i = 0} ∪ Z(g), so it does
    exactly when v = 0 or g vanishes on the hyperplane u_i = 0.  Over Q
    the latter never holds: u_i does not divide g, so g with u_i = 0 is a
    nonzero polynomial, which has a non-root.  Over GF(p) it holds exactly
    when g with u_i = 0 reduces to 0 modulo the field equations x^p - x,
    each exponent k >= 1 becoming ((k - 1) mod (p - 1)) + 1 (Lidl and
    Niederreiter, Finite Fields, the reduced form of a polynomial
    function)."""
    if v == 0:
        return True
    if not field.is_finite:
        return False
    p = field.p
    reduced: Dict[Tuple[int, ...], int] = {}
    for e, c in g.items():
        if not e[i]:
            key = tuple((k - 1) % (p - 1) + 1 if k else 0 for k in e)
            reduced[key] = (reduced.get(key, 0) + c) % p
    return not any(reduced.values())


def pole_variety(h: TriForm, i: Optional[int] = None) -> VarietyResult:
    """Equation of the pole set per the principal-Pfaffian pipeline.

    The candidate at index i is d_i = Pf(M_u^(i)) = (-1)^(i+1) u_i G, with
    alpha_i = 1 + v_i(G) and g_i = +-G / u_i^v_i(G), for the G of
    ``_pfaffian_quotient``.  Even n, or G = 0, yields the designated
    all-points result.  Otherwise the index i, or 1..n in ascending order,
    is tried; the first whose g_i cuts out the pole set (``_cuts_out``) is
    returned, with ``verified_over`` the field.  An index i outside 1..n
    raises ValueError, for even n too.
    """
    if h.is_zero():
        raise ValueError("zero form")
    if i is not None and not 1 <= i <= h.n:
        raise ValueError(f"index {i} out of range 1..{h.n}")
    return _variety(h.field, h.n, _pfaffian_quotient(h), i)


def _variety(
    F: Field, n: int, g_terms: Dict[Tuple[int, ...], Scalar], i: Optional[int] = None
) -> VarietyResult:
    """``pole_variety`` for G given by its terms."""
    if not g_terms:
        # even n, or every principal Pfaffian vanishes identically: for any
        # u pick i with u_i != 0, then rank M_u = rank M_u^(i) <= n-3, a pole
        return VarietyResult(all_points=True)
    order = [i] if i is not None else range(1, n + 1)
    for idx in order:
        v, stripped = _stripped(g_terms, idx - 1)
        if _cuts_out(F, v, stripped, idx - 1):
            sign = F.one if idx % 2 else F.neg(F.one)
            g = {e: F.mul(sign, c) for e, c in stripped.items()}
            # d_i = u_i^alpha_i g_i
            d = {e[: idx - 1] + (e[idx - 1] + v + 1,) + e[idx:]: c for e, c in g.items()}
            return VarietyResult(
                all_points=False,
                index=idx,
                d=MultiPoly(n, F, d),
                alpha=v + 1,
                g=MultiPoly(n, F, g),
                verified_over=repr(F),
            )
    raise VarietyError(
        f"no candidate index verified (tried {list(order)}); candidates degenerate"
    )


def _variety_degree(hf: TriForm, g_terms: Dict[Tuple[int, ...], Scalar]) -> Optional[int]:
    """Minimal degree among the verified per-index pole equations of hf,
    for its G given by its terms: None when there are none (even n, or
    every point a pole).

    The minimum is the invariant content: the variety is a set, and any
    verified equation bounds its degree from above.
    """
    if not g_terms:
        return None
    # g_i = +-G / u_i^v_i(G) has degree deg G - v_i(G); in ascending
    # degree, the first verified candidate realizes the minimum
    top = max(sum(e) for e in g_terms)
    stripped = sorted(((_stripped(g_terms, i), i) for i in range(hf.n)), key=lambda c: -c[0][0])
    for (v, g), i in stripped:
        if _cuts_out(hf.field, v, g, i):
            return top - v
    return None


@dataclass
class PluckerSystem:
    """Linear conditions on Pluecker coordinates cutting out the upper radical."""

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
    return PluckerSystem(pairs=pairs, equations=eq, solution=kernel)


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
    complement are the directions of the lines through [u], one each, and
    ``kernels._rref_mod_p`` reduces each pair [u, y] to the line's basis.
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
    cube = structure_cube(h)
    m = [
        [sum(x * c[j][k] for x, c in zip(u_pt, cube)) % p for k in range(n)]
        for j in range(n)
    ]
    complement = [y for y in kernels.kernel_mod_p(m, p) if y.index(1) != a]
    lines: List[Line] = []
    for y in span_points_mod_p(p, complement):
        pair = [list(u_pt), list(y)]
        kernels._rref_mod_p(pair, p)
        lines.append((tuple(pair[0]), tuple(pair[1])))
    return sorted(lines)


def _line_bases(p: int, n: int) -> Iterator[Line]:
    """The reduced-echelon basis of every line of PG(n-1, p), on ints, by
    echelon shape: pivots i < j, then every choice of the free entries,
    row 1's after i but at j and row 2's after j."""
    ps = range(p)
    for i, j in itertools.combinations(range(n), 2):
        for head in itertools.product(ps, repeat=j - i - 1):
            for tail1 in itertools.product(ps, repeat=n - j - 1):
                row1 = (0,) * i + (1,) + head + (0,) + tail1
                for tail2 in itertools.product(ps, repeat=n - j - 1):
                    yield row1, (0,) * j + (1,) + tail2


def enumerate_upper_radical(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
) -> List[Line]:
    """All lines of the upper radical of h over ``over_field(h, field)``,
    canonical and sorted: one scan, guarded by G, each line assembled at
    its least pole."""
    hf = over_field(h, field)
    return _radical_lines(_scan_report(hf, budget, True, _pfaffian_quotient(hf)))


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
    histogram, upper radical, variety.  ``form`` names h as given.  G is
    expanded once, for the scan's guard and the variety both."""
    hf = over_field(h, field)
    field = hf.field
    g_terms = _pfaffian_quotient(hf)
    report = _scan_report(hf, budget, True, g_terms)
    lines = _radical_lines(report)
    from .poly import render_poly

    if hf.n % 2 == 0:
        variety = {"i": None, "g": "all-points", "verified": "parity"}
    else:
        v = _variety(field, hf.n, g_terms)
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
