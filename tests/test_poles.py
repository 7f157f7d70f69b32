"""Pole enumeration, degrees, the variety pipeline and the upper radical."""

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from polegeom import geometry, kernels, poles
from polegeom.fields import GF, QQ
from polegeom.forms import CatalogConditionError, TriForm, catalog_form
from polegeom.geometry import build_geometry, fingerprint
from polegeom.linalg import Matrix
from polegeom.poles import (
    BudgetExceededError,
    VarietyError,
    _cuts_out,
    _pfaffian_quotient,
    _radical_lines,
    _stripped,
    _upper_radical_by_wedge,
    _variety,
    _variety_degree,
    contraction_matrix,
    enumerate_poles,
    structure_cube,
    enumerate_upper_radical,
    full_report,
    lines_through_point,
    over_field,
    point_degree,
    pole_variety,
    symbolic_matrix,
    upper_radical_system,
)
from polegeom.poly import MultiPoly, equal_up_to_scalar, parse_poly, render_poly
from polegeom.projective import (
    num_projective_points,
    projective_point_at,
    span_points,
    subspace_rref,
    wedge2_coordinates,
    wedge2_mod_p,
)
from conftest import (
    desk_instances,
    forbid_everywhere,
    grid_degrees,
    integer_rank,
    multipoly_pfaffian,
    principal_delete,
    random_form,
    random_invertible,
    rational_sample_points,
    strip_variable_power,
    zero_set_matches,
)


def test_symbolic_matrix_t1():
    sym = symbolic_matrix(catalog_form("T1", QQ))
    expected = [
        ["0", "u3", "-u2"],
        ["-u3", "0", "u1"],
        ["u2", "-u1", "0"],
    ]
    for i in range(3):
        for j in range(3):
            assert sym.entry(i, j) == parse_poly(expected[i][j], 3, QQ)


def test_symbolic_matrix_t8_first_row():
    sym = symbolic_matrix(catalog_form("T8", QQ))
    row = ["0", "u3", "-u2", "u5", "-u4", "u7", "-u6"]
    for j, text in enumerate(row):
        assert sym.entry(0, j) == parse_poly(text, 7, QQ)


def test_symbolic_matrix_embedded_zero_rows():
    sym = symbolic_matrix(catalog_form("T2", QQ, n=6))
    for j in range(6):
        assert sym.entry(5, j).is_zero()
        assert sym.entry(j, 5).is_zero()


@pytest.mark.parametrize("tag,field,lam", desk_instances((GF(2),)))
def test_symbolic_numeric_coherence_gf2(tag, field, lam):
    h = catalog_form(tag, field, param=lam)
    sym = symbolic_matrix(h)
    for i in range(num_projective_points(2, h.n)):
        u = projective_point_at(2, h.n, i)
        values = [[entry.evaluate(u) for entry in row] for row in sym.entries]
        assert Matrix(field, values) == contraction_matrix(h, u)


def test_symbolic_numeric_coherence_rational():
    rng = random.Random(17)
    for tag in ("T4", "T9"):
        h = catalog_form(tag, QQ)
        sym = symbolic_matrix(h)
        for _ in range(100):
            u = [rng.randint(-9, 9) for _ in range(h.n)]
            values = [[entry.evaluate(u) for entry in row] for row in sym.entries]
            assert Matrix(QQ, values) == contraction_matrix(h, u)


def test_point_degree_t9():
    h = catalog_form("T9", GF(2))
    e1 = (1, 0, 0, 0, 0, 0, 0)
    e7 = (0, 0, 0, 0, 0, 0, 1)
    delta1, rad1 = point_degree(h, e1)
    assert delta1 == 2
    delta7, _ = point_degree(h, e7)
    assert delta7 == 0
    # the quadric equation vanishes at e1 but not at e7
    g = parse_poly("u7^2-u3*u6-u2*u5-u1*u4", 7, GF(2))
    assert g.evaluate(e1) == 0
    assert g.evaluate(e7) == 1


def test_point_degree_t4_e5():
    h = catalog_form("T4", GF(2))
    delta, _ = point_degree(h, (0, 0, 0, 0, 1, 0))
    assert delta == 3


def test_point_degree_zero_vector():
    with pytest.raises(ValueError):
        point_degree(catalog_form("T1", GF(2)), (0, 0, 0))


def test_enumerate_t8_gf2():
    report = enumerate_poles(catalog_form("T8", GF(2)))
    assert report.histogram == {0: 64, 4: 63}
    for u, deg in zip(report.points, report.degrees):
        if deg == 4:
            assert u[0] == 0  # poles fill the hyperplane u1 = 0


def test_enumerate_t5_gf2():
    report = enumerate_poles(catalog_form("T5", GF(2)))
    poles = [(u, deg) for u, deg in zip(report.points, report.degrees) if deg >= 1]
    assert len(poles) == 95  # two hyperplanes of PG(6,2): 63 + 63 - 31
    degree4 = [u for u, deg in poles if deg == 4]
    assert len(degree4) == 13  # two planes meeting in a point: 7 + 7 - 1
    for u, _ in poles:
        assert u[0] == 0 or u[3] == 0


def test_enumerate_t3_all_points():
    report = enumerate_poles(catalog_form("T3", GF(2)))
    assert len(report.points) == len(report.degrees) == 63
    assert all(deg >= 1 for deg in report.degrees)


@pytest.mark.parametrize("tag,p", [("T9", 3), ("T10_1", 5)], ids=["T9-gf3", "T10_1-gf5"])
def test_report_columns(tag, p):
    """The report holds the scan's aligned columns: a point's position is
    its enumeration index, and a scan without radicals has none."""
    field = GF(p)
    h = catalog_form(tag, field, param=2 if tag == "T10_1" else None)
    full = enumerate_poles(h, field)
    bare = enumerate_poles(h, field, with_radicals=False)
    assert bare.radicals is None
    assert (bare.points, bare.degrees, bare.histogram) == (full.points, full.degrees, full.histogram)
    assert len(full.points) == len(full.degrees) == len(full.radicals)
    for idx in (0, 1, len(full.points) // 2, len(full.points) - 1):
        assert full.points[idx] == projective_point_at(p, h.n, idx)
    # a radical is handed over only at a pole, and only where it leads a line
    handed = [u for u, rad in zip(full.points, full.radicals) if rad is not None]
    assert all(deg for deg, rad in zip(full.degrees, full.radicals) if rad is not None)
    assert handed and set(handed) == {r1 for r1, _ in _radical_lines(full)}


def _radicals_or_rebuilt(report):
    """The report's radicals, with Rad(chi_u) rebuilt at every pole where
    the scan hands over None: the reduced echelon basis of u together with
    the lines through u in ``_radical_lines(report)``.  Every y of
    Rad(chi_u) off <u> spans a radical line [u, y], so those lines span it.
    None stays at the points of degree 0."""
    p = report.field.p
    through = collections.defaultdict(list)
    for line in _radical_lines(report):
        r1, r2 = line
        for t in range(p):
            through[tuple((a + t * b) % p for a, b in zip(r1, r2))].extend(line)
        through[r2].extend(line)
    return [
        subspace_rref(report.field, [u, *through[u]]) if deg and radical is None else radical
        for u, deg, radical in zip(report.points, report.degrees, report.radicals)
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_scan_hands_over_radicals_exactly_at_leading_poles(p):
    """radicals[i] is not None exactly where points[i] is r1 of a line of
    ``_radical_lines``, for guarded and unguarded scans of every desk
    instance and a seeded pullback of it.  The rule reads u alone, so a
    scan split into start/stop pieces hands over the same radicals."""
    field = GF(p)
    rng = random.Random(f"leading/{p}")
    dropped = 0
    for tag, _, lam in desk_instances((field,)):
        h = catalog_form(tag, field, param=lam)
        for form in (h, h.pullback(random_invertible(field, h.n, rng))):
            n = form.n
            report = enumerate_poles(form)
            g_terms = _pfaffian_quotient(form)
            guard = g_terms or None
            cube = structure_cube(form)
            total = len(report.points)
            cuts = [0, 1, total // 3, total // 2 + 1, total - 1, total]
            for guarded in (False, True):
                scanned = poles._scan_report(form, None, True, g_terms if guarded else {})
                leading = {r1 for r1, _ in _radical_lines(scanned)}
                assert [rad is not None for rad in scanned.radicals] == [
                    u in leading for u in scanned.points
                ], (tag, guarded)
                assert scanned.radicals == report.radicals
                pieces = [
                    kernels.scan(cube, n, p, lo, hi, True, guard if guarded else None)[2]
                    for lo, hi in zip(cuts, cuts[1:])
                ]
                assert [rad for piece in pieces for rad in piece] == report.radicals
            dropped += sum(
                1 for deg, rad in zip(report.degrees, report.radicals) if deg and rad is None
            )
    # the rule drops the radicals of some poles, not only those of degree 0
    assert dropped


@pytest.mark.parametrize("p", [2, 3])
def test_degree_laws(p):
    """degree = (n-1) - rank(M_u) = dim Rad(chi_u) - 1, with parity n-1;
    at a pole, the report's radical (or, where the scan hands over None,
    the one its lines rebuild) is the reduced echelon basis of the Field
    kernel of M_u."""
    field = GF(p)
    for tag, _, lam in desk_instances((field,)):
        h = catalog_form(tag, field, param=lam)
        report = enumerate_poles(h, field)
        n = h.n
        assert len(report.points) == len(report.degrees) == len(report.radicals)
        radicals = _radicals_or_rebuilt(report)
        for u, deg, radical in zip(report.points, report.degrees, radicals):
            m = contraction_matrix(h, u)
            rank, kernel = m.rank_and_kernel()
            assert deg == (n - 1) - rank
            assert deg == len(kernel) - 1
            assert deg % 2 == (n - 1) % 2
            if deg:
                assert tuple(radical) == subspace_rref(field, kernel)
            else:
                assert radical is None
            # the point itself lies in the radical of its contraction
            assert all(x == field.zero for x in m.mul_vec(u))


@functools.lru_cache(maxsize=None)
def _adjoint_terms(n):
    """(sign, S) per coordinate of ``_adjoint_vector`` at dimension n."""
    out = []
    for t in itertools.combinations(range(n), n - 4):
        s = tuple(x for x in range(n) if x not in t)
        inversions = sum(x > y for x, y in itertools.combinations(t + s, 2))
        out.append(((-1) ** inversions, s))
    return tuple(out)


def _adjoint_vector(m, p):
    """The signed 4x4 sub-Pfaffians of an alternating n x n matrix mod p,
    indexed by the (n-4)-subsets T of range(n) in lexicographic order: at
    T, the sign of the permutation (T, S), both ascending, times the
    Pfaffian on the complement S.  For n = 6 the sign is (-1)^(i+j+1) at
    the pair (i, j), in the pair order of ``wedge2_mod_p``."""
    return tuple(
        sign * (m[a][b] * m[c][d] - m[a][c] * m[b][d] + m[a][d] * m[b][c]) % p
        for sign, (a, b, c, d) in _adjoint_terms(len(m))
    )


def _contraction_mod_p(cube, u, p):
    """M_u = sum of u_i C_i mod p, as lists of ints."""
    n = len(u)
    return [[sum(x * c[j][k] for x, c in zip(u, cube)) % p for k in range(n)]
            for j in range(n)]


def _is_multiple(v, w, p):
    """Whether v = c*w mod p for some c != 0, with w nonzero."""
    k = next(i for i, x in enumerate(w) if x)
    c = v[k] * pow(w[k], p - 2, p) % p
    return c != 0 and all(x == c * y % p for x, y in zip(v, w))


@pytest.mark.parametrize(
    "tag,lam,p",
    [("T10_1", 2, 3), ("T10_2", 1, 2), ("T4", None, 3), ("T4", None, 5),
     ("T3", None, 5), ("T10_1", 3, 7)],
)
def test_scan_radicals_match_the_pfaffian_adjoint(tag, lam, p):
    """An oracle for the scan's radicals at n = 6 without elimination: the
    signed 4x4 sub-Pfaffians of M_u vanish exactly at the points of degree
    >= 3, and at a degree-1 point they are a nonzero multiple of the
    Pluecker vector of its radical line (as the scan hands it over, or as
    the lines rebuild it).  On the catalog row and one seeded pullback of
    it."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    pulled = h.pullback(random_invertible(field, 6, random.Random(f"adjoint/{tag}-{p}")))
    for form in (h, pulled):
        report = enumerate_poles(form)
        cube = structure_cube(form)
        assert {1, 3} & set(report.histogram)
        radicals = _radicals_or_rebuilt(report)
        for u, deg, radical in zip(report.points, report.degrees, radicals):
            v = _adjoint_vector(_contraction_mod_p(cube, u, p), p)
            if deg == 1:
                assert _is_multiple(v, wedge2_mod_p(p, *radical), p), u
            else:
                assert not any(v), u


def _plane_minors(rows, p):
    """The 3x3 minors mod p of a 3 x 7 basis at the column triples of
    ``itertools.combinations(range(7), 3)``: its Pluecker vector in L^3."""
    a, b, c = rows
    return tuple(
        (a[i] * (b[j] * c[k] - b[k] * c[j]) - a[j] * (b[i] * c[k] - b[k] * c[i])
         + a[k] * (b[i] * c[j] - b[j] * c[i])) % p
        for i, j, k in itertools.combinations(range(7), 3)
    )


@pytest.mark.parametrize(
    "tag,lam,p",
    [("T7", None, 3), ("T7", None, 5), ("T5", None, 3), ("T6", None, 3),
     ("T11_1", 2, 3), ("T8", None, 3), ("T9", None, 3), ("T9", None, 2),
     ("T11_2", 1, 2)],
)
def test_scan_radicals_match_the_pfaffian_adjoint_n7(tag, lam, p):
    """The n = 7 half of the oracle: the 35 signed 4x4 sub-Pfaffians of
    M_u vanish exactly at the points of degree >= 4, and at a degree-2
    pole they are a nonzero multiple of the Pluecker vector in L^3 of its
    radical plane Rad(chi_u) (as the scan hands it over, or as the lines
    rebuild it).  On the catalog row and one seeded pullback of it."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    pulled = h.pullback(random_invertible(field, 7, random.Random(f"adjoint/{tag}-{p}")))
    for form in (h, pulled):
        report = enumerate_poles(form)
        cube = structure_cube(form)
        assert {2, 4} & set(report.histogram)
        radicals = _radicals_or_rebuilt(report)
        for u, deg, radical in zip(report.points, report.degrees, radicals):
            v = _adjoint_vector(_contraction_mod_p(cube, u, p), p)
            if deg == 2:
                assert _is_multiple(v, _plane_minors(radical, p), p), u
            else:
                assert any(v) == (deg == 0), u


def test_column_dependence_when_coordinate_nonzero():
    """Columns at nonzero coordinates of u never raise the rank."""
    for p in (2, 3):
        field = GF(p)
        for tag, _, lam in desk_instances((field,)):
            h = catalog_form(tag, field, param=lam)
            for i in range(num_projective_points(p, h.n)):
                u = projective_point_at(p, h.n, i)
                m = contraction_matrix(h, u)
                cols = list(zip(*m.rows))
                full_rank = m.rank()
                for i, ui in enumerate(u):
                    if ui != 0:
                        others = [c for j, c in enumerate(cols) if j != i]
                        assert Matrix(field, others).rank() == full_rank
                        assert full_rank <= h.n - 1
                break  # one point per form suffices here; the scan is heavy


def test_column_dependence_full_scan_one_form():
    field = GF(3)
    h = catalog_form("T5", field)
    for i in range(num_projective_points(3, 7)):
        u = projective_point_at(3, 7, i)
        m = contraction_matrix(h, u)
        cols = list(zip(*m.rows))
        full_rank = m.rank()
        assert full_rank <= 6
        for i, ui in enumerate(u):
            if ui != 0:
                others = [c for j, c in enumerate(cols) if j != i]
                assert Matrix(field, others).rank() == full_rank


def test_variety_chain_n5():
    h = TriForm.from_terms(5, GF(3), [(1, 2, 3, 1), (3, 4, 5, 1)])
    result = pole_variety(h)
    assert not result.all_points
    u3 = parse_poly("u3", 5, GF(3))
    assert equal_up_to_scalar(result.g, u3) is not None


def test_variety_t9_matches_quadric():
    result = pole_variety(catalog_form("T9", QQ))
    want = parse_poly("u7^2-u3*u6-u2*u5-u1*u4", 7, QQ)
    assert equal_up_to_scalar(result.g, want) is not None
    assert result.verified_over == "q"


def test_variety_t6_zero_set():
    for p in (2, 3):
        field = GF(p)
        h = catalog_form("T6", field)
        result = pole_variety(h)
        report = enumerate_poles(h, field)
        for u, deg in zip(report.points, report.degrees):
            assert (result.g.evaluate(u) == 0) == (deg >= 1)


def test_variety_rank3_no_poles():
    # the basic rank-3 form on n=3 has no poles; its equation is a unit
    result = pole_variety(catalog_form("T1", GF(3)))
    assert not result.all_points
    assert list(result.g.terms) == [(0, 0, 0)]


def test_variety_t2_n5():
    result = pole_variety(catalog_form("T2", GF(3)))
    want = parse_poly("u1", 5, GF(3))
    assert equal_up_to_scalar(result.g, want) is not None
    assert result.index == 2  # index 1 strips to a unit and is rejected


def test_variety_even_dimension_marker():
    result = pole_variety(catalog_form("T3", GF(2)))
    assert result.all_points
    assert result.index is None


def test_variety_odd_low_rank_all_points():
    # rank 5 embedded in n = 7: every point is a pole, all Pfaffians vanish
    result = pole_variety(catalog_form("T2", GF(3), n=7))
    assert result.all_points


def test_variety_explicit_bad_index():
    h = catalog_form("T2", GF(3))
    with pytest.raises(VarietyError):
        pole_variety(h, i=1)


@pytest.mark.parametrize("tag", ["T9", "T3"], ids=["odd-n", "even-n"])
def test_variety_index_out_of_range(monkeypatch, tag):
    """An index outside 1..n is refused before any Pfaffian is expanded,
    for odd n (where it used to read as an identically zero Pfaffian) and
    for even n (where it used to be ignored)."""
    h = catalog_form(tag, GF(2))
    forbid_everywhere(monkeypatch, "pfaffian")
    for i in (0, h.n + 1):
        with pytest.raises(ValueError, match=rf"^index {i} out of range 1\.\.{h.n}$"):
            pole_variety(h, i=i)


def test_variety_index_at_the_ends_of_the_range():
    h = catalog_form("T9", GF(2))
    assert pole_variety(h, i=1).index == 1
    assert pole_variety(h, i=h.n).index == h.n
    assert pole_variety(catalog_form("T3", GF(2)), i=6).all_points


def _candidates_from_every_pfaffian(h):
    """The reference route: expand all n principal Pfaffians of the
    symbolic M_u in MultiPoly arithmetic, skip the identically zero ones
    and strip u_i from each."""
    sym = symbolic_matrix(h)
    out = {}
    for i in range(1, h.n + 1):
        d = multipoly_pfaffian(principal_delete(sym, i))
        if not d.is_zero():
            out[i] = (d, *strip_variable_power(d, i))
    return out


def _quotient_by_multipoly(h):
    """G by the MultiPoly route: Pf(M_u^(1)) of ``symbolic_matrix``,
    expanded in MultiPoly arithmetic, divided by u_1."""
    first = multipoly_pfaffian(principal_delete(symbolic_matrix(h), 1))
    assert all(e[0] >= 1 for e in first.terms)
    return {(e[0] - 1,) + e[1:]: c for e, c in first.terms.items()}


QUOTIENT_CASES = (
    [
        pytest.param(catalog_form(tag, field, param=lam), id=f"{tag}-{field!r}")
        for tag, field, lam in desk_instances((GF(2), GF(3), GF(5), GF(7), QQ))
    ]
    + [
        pytest.param(
            catalog_form("T9", field).pullback(
                random_invertible(field, 7, random.Random(f"quotient/{field!r}"))
            ),
            id=f"T9-{field!r}-pullback",
        )
        for field in (GF(2), GF(3), GF(5), GF(7))
    ]
    + [pytest.param(random_form(9, GF(3), random.Random("quotient/9")), id="n9-gf(3)")]
)


@pytest.mark.parametrize("h", QUOTIENT_CASES)
def test_pfaffian_quotient_matches_the_multipoly_route(h):
    """G read off the coefficients and expanded on ints equals G expanded
    from the MultiPoly matrix of ``symbolic_matrix``: on every desk
    instance over GF(2), GF(3), GF(5), GF(7) and Q, on a seeded pullback
    over each GF(p), and at n = 9, where the exponents need 3 bits."""
    assert _pfaffian_quotient(h) == _quotient_by_multipoly(h)


VARIETY_REFERENCE_CASES = (
    [
        pytest.param(tag, field, lam, pulled, id=f"{tag}-{field!r}{'-pullback' if pulled else ''}")
        for tag, field, lam in desk_instances((GF(2), GF(3), GF(5), GF(7)))
        if catalog_form(tag, field, param=lam).n % 2
        for pulled in (False, True)
    ]
    + [
        pytest.param(tag, QQ, lam, False, id=f"{tag}-q")
        for tag, _, lam in desk_instances((QQ,))
        if catalog_form(tag, QQ, param=lam).n % 2
    ]
)


def _candidates_from_the_quotient(h):
    """Every candidate i -> (d_i, alpha_i, g_i) rebuilt from the one
    Pfaffian Pf(M_u^(1)) = u_1*G: G from ``_pfaffian_quotient``, then
    d_i = (-1)^(i+1) u_i G, and alpha_i = 1 + v_i(G) and
    g_i = (-1)^(i+1) G / u_i^v_i(G) from ``_stripped``.  Empty when G = 0."""
    n, field = h.n, h.field
    g_terms = _pfaffian_quotient(h)
    out = {}
    for i in range(1, n + 1) if g_terms else ():
        sign = MultiPoly.constant(n, field, 1 if i % 2 else -1)
        ui = MultiPoly(n, field, {tuple(int(v == i - 1) for v in range(n)): 1})
        v, stripped = _stripped(g_terms, i - 1)
        d = sign * ui * MultiPoly(n, field, g_terms)
        out[i] = (d, v + 1, sign * MultiPoly(n, field, stripped))
    return out


def _oracle_degrees(h):
    """(point, degree) pairs for ``zero_set_matches``: every point of one
    unguarded scan over GF(p), the integer grid over Q."""
    if h.field.is_finite:
        report = enumerate_poles(h, with_radicals=False)
        return list(zip(report.points, report.degrees))
    return list(grid_degrees(h))


def _assert_rule_matches_oracle(h):
    """At every index i, ``pole_variety(h, i=i)`` verifies exactly when the
    sampled oracle finds that g_i has the pole set as its zero set, and
    with no index given it picks the oracle's first such index.  Returns
    the indices that verify."""
    g_terms = _pfaffian_quotient(h)
    degrees = _oracle_degrees(h)
    matching = []
    for i in range(1, h.n + 1):
        try:
            pole_variety(h, i=i)
            verified = True
        except VarietyError:
            verified = False
        assert verified == zero_set_matches(h.field, _stripped(g_terms, i - 1)[1], degrees), i
        if verified:
            matching.append(i)
    assert pole_variety(h).index == matching[0]
    return matching


@pytest.mark.parametrize("tag, field, lam, pulled", VARIETY_REFERENCE_CASES)
def test_variety_candidates_match_every_pfaffian(tag, field, lam, pulled):
    """The candidates derived from the one Pfaffian Pf(M_u^(1)) = u_1*G
    equal those of the all-Pfaffians route, on every odd-n desk instance
    over GF(2), GF(3), GF(5) and GF(7), as catalogued and pulled back by a
    seeded map, and on the odd-n catalog forms over Q; ``pole_variety(h,
    i=i)`` returns the reference's (d_i, alpha_i, g_i) at each index that
    verifies; and, below PG(6, 7), the rule and the sampled oracle verify
    the same indices."""
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"{tag}/{field!r}")))
    want = _candidates_from_every_pfaffian(h)
    assert _candidates_from_the_quotient(h) == want
    verified = 0
    for i, candidate in want.items():
        try:
            result = pole_variety(h, i=i)
        except VarietyError:
            continue
        verified += 1
        assert (result.index, result.d, result.alpha, result.g) == (i, *candidate)
        assert result.verified_over == repr(field)
    assert verified or not want
    if want and not (field.is_finite and field.order**h.n > 5**7):
        # n oracle checks of the 137,257 points of PG(6, 7) take seconds per
        # form; test_pole_set_is_the_zero_set_of_g covers G there
        assert len(_assert_rule_matches_oracle(h)) == verified


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), QQ], ids=repr)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_variety_candidates_match_every_pfaffian_random(n, field):
    rng = random.Random(f"{n}/{field!r}")
    for _ in range(4 if n == 7 else 8):
        h = random_form(n, field, rng)
        if not h.is_zero():
            assert _candidates_from_the_quotient(h) == _candidates_from_every_pfaffian(h)


def test_variety_candidates_guard_the_identity(monkeypatch):
    """A first Pfaffian with a term free of u_1 breaks Pf(M_u^(1)) = u_1*G
    and is refused rather than turned into a pole equation."""
    h = catalog_form("T9", GF(3))
    real = poles.pfaffian
    # Pf(M_u^(1)) plus the constant 1, keyed 0, a term free of u_1
    monkeypatch.setattr(poles, "pfaffian", lambda m: {**real(m), 0: 1})
    with pytest.raises(RuntimeError, match="not divisible by u_1"):
        pole_variety(h)


def test_variety_candidates_strip():
    h = catalog_form("T6", GF(3))
    for i, (d, alpha, g) in _candidates_from_the_quotient(h).items():
        assert alpha >= 1
        rebuilt = g
        ui = parse_poly(f"u{i}", 7, GF(3))
        for _ in range(alpha):
            rebuilt = rebuilt * ui
        assert rebuilt == d


def test_variety_exact_index_that_fails_over_q():
    """T5 over Q verifies at index 2; index 1 alone, asked for, does not
    verify and raises.  u_1 divides G there, and over Q a stripped
    candidate never verifies: the grid oracle agrees at every index."""
    h = catalog_form("T5", QQ)
    assert pole_variety(h).index == 2
    with pytest.raises(VarietyError, match=r"tried \[1\]"):
        pole_variety(h, i=1)
    assert _stripped(_pfaffian_quotient(h), 0)[0] >= 1
    assert _assert_rule_matches_oracle(h)[0] == 2


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_rule_matches_the_oracle_on_random_forms(n, field):
    """Seeded random forms, which strip u_i from G more often than the
    catalog rows do: the rule and the sampled oracle verify the same
    indices."""
    rng = random.Random(f"rule/{n}/{field!r}")
    for _ in range(2 if n == 7 and field == GF(5) else 4):
        h = random_form(n, field, rng)
        if not h.is_zero() and _pfaffian_quotient(h):
            _assert_rule_matches_oracle(h)


def _reduces_to_zero_by_brute_force(p, g, i):
    """Whether g vanishes at every point of GF(p)^m with u_i = 0."""
    m = len(next(iter(g)))
    for u in itertools.product(range(p), repeat=m):
        if u[i] == 0 and sum(c * math.prod(x**k for x, k in zip(u, e)) for e, c in g.items()) % p:
            return False
    return True


def test_stripped_candidate_that_vanishes_on_its_hyperplane():
    """The v >= 1 branch, which no catalog row reaches at n <= 7: g = G / z
    cuts out Z(G) when g is 0 at every point of z = 0."""
    x2y, xy2 = (2, 1, 0), (1, 2, 0)
    # x^2*y + x*y^2 is 0 at every point of GF(2)^2; over Q it is not
    assert _cuts_out(GF(2), 1, {x2y: 1, xy2: 1}, 2)
    assert not _cuts_out(QQ, 1, {x2y: 1, xy2: 1}, 2)
    # x^2*y is not 0 at (1, 1) over GF(3)
    assert not _cuts_out(GF(3), 1, {x2y: 1}, 2)
    # exponents above p: x^5*y = x^3*y = x*y as functions on GF(3)
    assert _cuts_out(GF(3), 1, {(5, 1, 0): 1, (3, 1, 0): 2}, 2)
    assert not _cuts_out(GF(3), 1, {(5, 1, 0): 1, (2, 1, 0): 2}, 2)
    # a term with z in it is 0 on z = 0
    assert _cuts_out(GF(2), 1, {x2y: 1, xy2: 1, (1, 0, 1): 1}, 2)
    # v = 0: g = +-G, over every field
    assert _cuts_out(GF(3), 0, {x2y: 1}, 2) and _cuts_out(QQ, 0, {x2y: 1}, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stripped_candidate_rule_matches_brute_force(p):
    """The reduction modulo x^p - x against evaluation at every point of
    the hyperplane, for seeded polynomials with exponents up to 2p + 1."""
    rng = random.Random(f"reduce/{p}")
    field = GF(p)
    verdicts = collections.Counter()
    for _ in range(60):
        i = rng.randrange(3)
        g = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2 * p + 1) for _ in range(3))
            if rng.random() < 0.7:  # a term that survives on u_i = 0
                e = e[:i] + (0,) + e[i + 1 :]
            g[e] = rng.randrange(1, p)
            # often cancel it by its reduced form, so both verdicts occur
            reduced = tuple((k - 1) % (p - 1) + 1 if k else 0 for k in e)
            if reduced not in g and rng.random() < 0.7:
                g[reduced] = -g[e] % p
        verdict = _cuts_out(field, 1, g, i)
        assert verdict == _reduces_to_zero_by_brute_force(p, g, i), (g, i)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_variety_of_g_that_every_variable_divides_but_one_strips_to_zero():
    """G = z*(x^2*y + x*y^2) over GF(2): u_x and u_y leave z*(x*y + y^2)
    and z*(x^2 + x*y), not 0 at (0, 1, 1) and (1, 0, 1) on their
    hyperplanes, and u_z leaves x^2*y + x*y^2, 0 on z = 0: index 3,
    alpha 2, variety degree 3."""
    field = GF(2)
    g_terms = {(2, 1, 1): 1, (1, 2, 1): 1}
    result = _variety(field, 3, g_terms)
    assert (result.index, result.alpha) == (3, 2)
    assert result.g.terms == {(2, 1, 0): 1, (1, 2, 0): 1}
    assert _variety_degree(TriForm(3, field, {(1, 2, 3): 1}), g_terms) == 3
    with pytest.raises(VarietyError, match=r"tried \[1\]"):
        _variety(field, 3, g_terms, 1)
    with pytest.raises(VarietyError):
        _variety(QQ, 3, g_terms)


def test_zero_form_guards():
    zero = TriForm(3, GF(2), {})
    with pytest.raises(ValueError):
        upper_radical_system(zero)
    with pytest.raises(ValueError):
        symbolic_matrix(zero)
    with pytest.raises(ValueError):
        pole_variety(zero)


def test_upper_radical_system_t1():
    system = upper_radical_system(catalog_form("T1", GF(2), n=6))
    # solutions: w12 = w13 = w23 = 0
    zero_pairs = {(1, 2), (1, 3), (2, 3)}
    for vec in system.solution:
        for idx, pair in enumerate(system.pairs):
            if pair in zero_pairs:
                assert vec[idx] == 0
    assert len(system.solution) == 12


def test_upper_radical_system_t9():
    F = GF(3)
    system = upper_radical_system(catalog_form("T9", F))
    idx = {pair: i for i, pair in enumerate(system.pairs)}
    # spot equation: w14 + w25 + w36 = 0 appears in the row span
    row = [0] * len(system.pairs)
    row[idx[(1, 4)]] = 1
    row[idx[(2, 5)]] = 1
    row[idx[(3, 6)]] = 1
    span = subspace_rref(F, [list(r) for r in system.equations.rows])
    aug = subspace_rref(F, list(span) + [row])
    assert len(aug) == len(span)


def test_lines_through_point_spread():
    h = catalog_form("T10_2", GF(2), param=1)
    for u in [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0), (1, 1, 1, 1, 1, 1)]:
        lines = lines_through_point(h, u)
        assert len(lines) == 1
        assert u in span_points(GF(2), list(lines[0]))


def test_lines_through_point_hexagon():
    h = catalog_form("T9", GF(2))
    e1 = (1, 0, 0, 0, 0, 0, 0)
    lines = lines_through_point(h, e1)
    assert len(lines) == 3
    for line in lines:
        assert e1 in span_points(GF(2), list(line))


def test_lines_through_smooth_point():
    h = catalog_form("T9", GF(2))
    assert lines_through_point(h, (0, 0, 0, 0, 0, 0, 1)) == []


def test_enumerate_upper_radical_t1():
    field = GF(2)
    h = catalog_form("T1", field, n=6)
    lines = enumerate_upper_radical(h)
    radical_plane = [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    span = subspace_rref(field, radical_plane)
    for line in lines:
        meets = any(
            all(x == 0 for x in pt[:3]) for pt in span_points(field, list(line))
        )
        assert meets, line
    # count: lines meeting the plane [span] in PG(5,2)
    del span
    expected = sum(
        1
        for line in _upper_radical_by_wedge(h)
    )
    assert len(lines) == expected


def test_enumerate_upper_radical_spread_counts():
    lines = enumerate_upper_radical(catalog_form("T10_2", GF(2), param=1))
    assert len(lines) == 21  # (2^6-1)/(2^2-1)
    covered = set()
    for line in lines:
        pts = span_points(GF(2), list(line))
        assert len(pts) == 3
        assert covered.isdisjoint(pts)
        covered.update(pts)
    assert len(covered) == 63


def test_enumerate_upper_radical_hexagon_count():
    assert len(enumerate_upper_radical(catalog_form("T9", GF(2)))) == 63


@pytest.mark.parametrize(
    "tag,lam,p",
    [
        pytest.param("T9", None, 2, id="T9-None"),
        pytest.param("T5", None, 2, id="T5-None"),
        pytest.param("T10_2", 1, 2, id="T10_2-1"),
        pytest.param("T1", None, 2, id="T1-None"),
        pytest.param("T4", None, 2, id="T4-None"),
        # odd p reaches the pivot scaling of the integer line assembly,
        # which GF(2) never does; the wedge route filters all 11,011
        # lines of PG(5, 3)
        pytest.param("T10_1", 2, 3, id="T10_1-2-gf3"),
        pytest.param("T4", None, 3, id="T4-None-gf3"),
        # radicals of dimension 3 and 5 (both forms have degree-2 and
        # degree-4 poles); PG(6, 2) has only 2,667 lines for the wedge route
        pytest.param("T7", None, 2, id="T7-None"),
        pytest.param("T11_2", 1, 2, id="T11_2-1"),
    ],
)
def test_methods_agree(tag, lam, p):
    field = GF(p)
    n = 6 if tag in ("T1", "T4") else None
    h = catalog_form(tag, field, param=lam, n=n)
    by_points = enumerate_upper_radical(h)
    by_wedge = _upper_radical_by_wedge(h)
    assert by_points == by_wedge


@pytest.mark.parametrize(
    "tag,lam,p",
    [
        pytest.param("T7", None, 3, id="T7-gf3"),
        pytest.param("T11_1", 2, 3, id="T11_1-2-gf3"),
        pytest.param("T9", None, 3, id="T9-gf3"),
        pytest.param("T4", None, 3, id="T4-gf3"),
        # odd p > 3 reaches pivot scaling that GF(2) and GF(3) never do
        pytest.param("T10_1", 3, 7, id="T10_1-3-gf7"),
    ],
)
def test_radical_lines_match_lines_through_each_pole(tag, lam, p):
    """The lines built at their least pole are exactly the lines through
    every pole, each once: lines_through_point is an independent route,
    which reads no scan."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    h = h.pullback(random_invertible(field, h.n, random.Random(f"{tag}/{p}")))
    report = enumerate_poles(h)
    if tag == "T7":
        assert {2, 4} <= set(report.histogram)
    bases = {
        line
        for u, deg in zip(report.points, report.degrees)
        if deg
        for line in lines_through_point(h, u)
    }
    assert bases
    assert _radical_lines(report) == sorted(bases)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_wedge2_mod_p_matches_field_wedge(p):
    rng = random.Random(p)
    field = GF(p)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 8)
        x = [rng.randrange(-p, 2 * p) for _ in range(n)]
        y = [rng.randrange(-p, 2 * p) for _ in range(n)]
        try:
            want = wedge2_coordinates(field, x, y)
        except ValueError:  # dependent pair
            continue
        assert wedge2_mod_p(p, x, y) == want
        checked += 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: full_report(catalog_form("T9", GF(3))),
        lambda: full_report(catalog_form("T4", GF(3))),
        lambda: build_geometry(catalog_form("T7", GF(3))),
        lambda: fingerprint(catalog_form("T11_1", GF(3), param=2), GF(3)),
    ],
    ids=["full_report-odd-n", "full_report-even-n", "build_geometry", "fingerprint"],
)
def test_line_assembly_stays_on_ints(monkeypatch, call):
    """Reports, geometries and fingerprints over GF(p) build their lines
    without the Field-based Pluecker map or any echelon reduction."""
    forbid_everywhere(monkeypatch, "wedge2_coordinates")
    forbid_everywhere(monkeypatch, "_rref_mod_p")
    call()


def test_report_reads_radicals_as_scanned(monkeypatch):
    """The scan hands each radical over in reduced echelon form, so the
    report reduces none of them again."""
    h = catalog_form("T7", GF(3))
    want = full_report(h)
    assert {2, 4} <= {int(d) for d in want["histogram"]}
    forbid_everywhere(monkeypatch, "_rref_mod_p")
    assert full_report(h) == want


def test_lines_through_point_stays_on_ints(monkeypatch):
    """lines_through_point takes M_u and its kernel on ints mod p, for
    canonical and scaled points alike."""
    field = GF(5)
    h = catalog_form("T7", field)
    # degrees 4 (on the conic), 2 (scaled), 2 (in the vertex plane, off
    # the conic) and 0
    points = [
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 2, 0, 0, 0),
        (2, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 3, 0, 4, 0),
    ]
    want = [lines_through_point(h, u) for u in points]
    assert [len(lines) for lines in want] == [156, 6, 6, 0]

    def forbidden(*args, **kwargs):
        raise AssertionError("Field arithmetic in lines_through_point")

    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(GF, name, forbidden)
    assert [lines_through_point(h, u) for u in points] == want


def test_lines_through_point_rejects_bad_points():
    h = catalog_form("T7", GF(3))
    with pytest.raises(ValueError, match="^zero vector has no degree$"):
        lines_through_point(h, (0,) * 7)
    with pytest.raises(ValueError, match="^point must have length 7$"):
        lines_through_point(h, (1, 0, 0))


@pytest.mark.parametrize(
    "tag, lam, lines",
    [("T9", None, 364), ("T10_1", 2, 91)],
    ids=["odd-n", "even-n"],
)
def test_fingerprint_reads_degrees_only(monkeypatch, tag, lam, lines):
    """A fingerprint is one scan without radicals: no line is assembled and
    no incidence structure is built."""
    forbid_everywhere(monkeypatch, "_radical_lines")
    forbid_everywhere(monkeypatch, "build_geometry")
    want_kernels = []
    real_scan = kernels.scan

    def recording_scan(*args):
        want_kernels.append(args[5])
        return real_scan(*args)

    monkeypatch.setattr(kernels, "scan", recording_scan)
    fp = fingerprint(catalog_form(tag, GF(3), param=lam), GF(3))
    assert want_kernels == [False]
    assert fp.line_count == lines


def test_fingerprint_rejects_inconsistent_degrees(monkeypatch):
    """One pole of degree 1 too many on T4/GF(3) (1 and 13 lines per pole)
    leaves a pole-line incidence count that p+1 = 4 does not divide."""
    real = geometry._scan_report

    def one_pole_too_many(*args, **kwargs):
        report = real(*args, **kwargs)
        report.histogram[1] += 1
        return report

    monkeypatch.setattr(geometry, "_scan_report", one_pole_too_many)
    with pytest.raises(RuntimeError, match="not a multiple of 4"):
        fingerprint(catalog_form("T4", GF(3)), GF(3))


def test_system_membership_matches_lines():
    field = GF(3)
    h = catalog_form("T5", field)
    system = upper_radical_system(h)
    lines = enumerate_upper_radical(h)
    for line in lines[:50]:
        assert system.contains(wedge2_coordinates(field, *line))


# One top-level call each; every one of them must scan PG(n-1, p) once.
ONE_SCAN_CALLS = {
    "full_report-odd-n": lambda: full_report(catalog_form("T2", GF(3))),
    "full_report-even-n": lambda: full_report(catalog_form("T10_1", GF(3), param=2)),
    "build_geometry": lambda: build_geometry(catalog_form("T7", GF(3))),
    "fingerprint": lambda: fingerprint(catalog_form("T9", GF(3)), GF(3)),
    "enumerate_upper_radical": lambda: enumerate_upper_radical(catalog_form("T5", GF(3))),
}


@pytest.mark.parametrize("name", sorted(ONE_SCAN_CALLS))
def test_one_scan_per_call(monkeypatch, name):
    calls = []
    real_scan = kernels.scan

    def counting_scan(*args):
        calls.append(args[3:5])
        return real_scan(*args)

    monkeypatch.setattr(kernels, "scan", counting_scan)
    ONE_SCAN_CALLS[name]()
    assert len(calls) == 1


def test_rational_pole_variety_makes_no_scan(monkeypatch):
    """A rational form's equation is decided from G alone."""
    forbid_everywhere(monkeypatch, "scan")
    result = pole_variety(catalog_form("T9", QQ))
    assert result.verified_over == "q"


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7)], ids=repr)
def test_finite_pole_variety_makes_no_scan(monkeypatch, field):
    """Over GF(p) too, and with no budget to charge: T2, whose index 1
    strips to a unit and is rejected, and T9, whose PG(6, 7) has 137,257
    points."""
    forbid_everywhere(monkeypatch, "scan")
    assert pole_variety(catalog_form("T2", field)).index == 2
    assert pole_variety(catalog_form("T9", field)).verified_over == repr(field)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_poles(catalog_form("T9", GF(7)), budget=1000)


def test_wedge_route_charges_its_lines_to_the_budget():
    # p^7 = 2,187 is under the budget, the 99,463 lines of PG(6, 3) are not
    with pytest.raises(BudgetExceededError, match="99463 lines"):
        _upper_radical_by_wedge(catalog_form("T9", GF(3)), budget=10_000)


@pytest.mark.parametrize("p", [5, 7, pytest.param(None, id="q")])
@pytest.mark.parametrize("pulled", [False, True], ids=["catalog", "pullback"])
def test_zero_set_matches_both_verdicts(p, pulled):
    """Over GF(p) against a scan's degrees, over Q against
    ``grid_degrees``: the real g matches, g + 1 does not, and neither does
    g against degrees with one pole flipped."""
    field = GF(p) if p else QQ
    h = catalog_form("T9", field)
    if pulled:
        rows = [[1 if j >= i else 0 for j in range(7)] for i in range(7)]
        rows[6][0] = 2  # unit upper triangular plus a corner: invertible
        h = h.pullback(Matrix(field, [[field.of(x) for x in row] for row in rows]))
    pairs = _oracle_degrees(h)
    eq = pole_variety(h).g
    assert zero_set_matches(field, eq.terms, pairs)
    assert not zero_set_matches(field, (eq + MultiPoly.constant(7, field, 1)).terms, pairs)
    first_pole = next(pos for pos, (_, deg) in enumerate(pairs) if deg >= 1)
    pairs[first_pole] = (pairs[first_pole][0], 0)
    assert not zero_set_matches(field, eq.terms, pairs)


def test_infinite_field_rejected():
    with pytest.raises(ValueError):
        enumerate_poles(catalog_form("T9", QQ))


# every entry point that scans, asked for the form over GF(7)
OVER_GF7 = {
    "enumerate_poles": lambda h: enumerate_poles(h, GF(7)),
    "enumerate_upper_radical": lambda h: enumerate_upper_radical(h, GF(7)),
    "full_report": lambda h: full_report(h, GF(7)),
    "lines_through_point": lambda h: lines_through_point(h, (1, 0, 0, 0, 0, 0), GF(7)),
    "build_geometry": lambda h: build_geometry(h, GF(7)),
    "fingerprint": lambda h: fingerprint(h, GF(7)),
}


@pytest.mark.parametrize("entry", sorted(OVER_GF7))
def test_finite_form_over_another_field_rejected(entry):
    """The residues of T10_1(2) over GF(3) are no form over GF(7), where
    that catalog row does not even exist."""
    with pytest.raises(CatalogConditionError):
        catalog_form("T10_1", GF(7), param=2)
    h = catalog_form("T10_1", GF(3), param=2)
    with pytest.raises(ValueError, match=r"a form over gf\(3\) is not a form over gf\(7\)"):
        OVER_GF7[entry](h)


def test_over_field_reduces_a_rational_form():
    h = TriForm(5, QQ, {(1, 2, 3): Fraction(1, 5), (1, 4, 5): Fraction(-2, 3)})
    assert over_field(h, GF(7)) == TriForm(5, GF(7), {(1, 2, 3): 3, (1, 4, 5): 4})
    with pytest.raises(ValueError, match="coefficient 1/5 of 1 2 3 has a denominator divisible by 5"):
        over_field(h, GF(5))
    with pytest.raises(ValueError, match="needs a finite field gf\\(p\\), not q"):
        over_field(h)
    g = catalog_form("T9", GF(3))
    assert over_field(g) is g and over_field(g, GF(3)) is g


def test_full_report_schema():
    payload = full_report(catalog_form("T9", GF(2)))
    assert list(payload) == [
        "form",
        "field",
        "n",
        "poles",
        "histogram",
        "upper_radical",
        "variety",
    ]
    assert payload["histogram"] == {"0": 64, "2": 63}
    assert len(payload["poles"]) == 63
    assert len(payload["upper_radical"]) == 63
    assert payload["variety"]["i"] == 1
    assert list(payload["variety"]) == ["i", "g", "verified"]


def test_full_report_even_marker():
    payload = full_report(catalog_form("T3", GF(2)))
    assert payload["variety"] == {"i": None, "g": "all-points", "verified": "parity"}


def test_render_variety_names():
    result = pole_variety(catalog_form("T9", GF(2)))
    names = [f"x{i}" for i in range(1, 8)]
    assert render_poly(result.g, names) == "x1*x4 + x2*x5 + x3*x6 + x7^2"


# -- the integer grid check of a rational form -------------------------------


def _random_rational_form(n, rng):
    coeffs = {}
    for t in itertools.combinations(range(1, n + 1), 3):
        if rng.random() < 0.5:
            num = rng.randint(-4, 4)
            if num:
                coeffs[t] = Fraction(num, rng.choice((1, 2, 3, 6, 7)))
    return TriForm(n, QQ, coeffs)


GRID_FORMS = [
    (f"{tag}{'' if lam is None else f'({lam})'}", catalog_form(tag, QQ, param=lam))
    for tag, _, lam in desk_instances(fields=(QQ,))
] + [
    (f"random-n{n}-{seed}", _random_rational_form(n, random.Random(f"grid/{n}/{seed}")))
    for n in (4, 5, 6, 7)
    for seed in range(2)
]


@pytest.mark.parametrize("name,h", GRID_FORMS, ids=[name for name, _ in GRID_FORMS])
def test_grid_degrees_match_point_degree(name, h):
    """The integer route gives the Field route's degree at every one of the
    240 sample points of a rational form."""
    assert h.field is QQ and not h.is_zero()
    want = [(pt, point_degree(h, pt)[0]) for pt in rational_sample_points(h.n)]
    assert len(want) == 240
    assert list(grid_degrees(h)) == want


def test_integer_rank_matches_field_rank():
    """Fraction-free elimination against ``Matrix.rank`` over Q, on
    matrices of full and deficient rank, zero columns included."""
    rng = random.Random(91)
    cases = []
    for r, c in ((1, 1), (3, 3), (4, 6), (6, 4), (7, 7)):
        for _ in range(10):
            cases.append([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
    for r, k, c in ((5, 2, 5), (6, 3, 7), (7, 4, 7), (4, 1, 3)):
        for _ in range(10):
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            for row in rows:
                row[rng.randrange(c)] = 0 if rng.random() < 0.3 else row[0]
            cases.append(rows)
    cases += [[[0] * 4 for _ in range(3)], [[0, 0, 2], [0, 0, 4]]]
    for rows in cases:
        assert integer_rank(rows) == Matrix(QQ, [[QQ.of(x) for x in row] for row in rows]).rank()


# -- the G-guarded scan of build_geometry and enumerate_upper_radical ---------


def _scan_windows(p, n):
    """Index ranges of PG(n-1, p) to compare a guarded and a full scan on:
    the whole space when it is small, else the first points, the points
    around the first two changes of the leading coordinate, and the last."""
    total = num_projective_points(p, n)
    if total <= 3000:
        return [(0, total)]
    first, second = p ** (n - 1), p ** (n - 1) + p ** (n - 2)
    return [
        (0, 600),
        (first - 300, first + 300),
        (second - 300, second + 300),
        (total - 600, total),
    ]


def _assert_guard_agrees(h):
    """The guarded scan gives the full scan's points, degrees and radicals,
    window by window."""
    p, n = h.field.p, h.n
    cube = structure_cube(h)
    guard = _pfaffian_quotient(h) or None
    for lo, hi in _scan_windows(p, n):
        want = kernels.scan(cube, n, p, lo, hi, True)
        assert kernels.scan(cube, n, p, lo, hi, True, guard) == want, (lo, hi)
        if guard is not None:
            # without radicals too, the degrees alone
            assert kernels.scan(cube, n, p, lo, hi, False, guard)[1] == want[1]
    return guard


ODD_DESK = [
    (tag, field, lam)
    for tag, field, lam in desk_instances(fields=(GF(2), GF(3), GF(5), GF(7)))
    if catalog_form(tag, field, param=lam).n % 2
]


@pytest.mark.parametrize("pulled", [False, True], ids=["catalog", "pullback"])
@pytest.mark.parametrize(
    "tag,field,lam",
    ODD_DESK,
    ids=[f"{tag}{'' if lam is None else f'({lam})'}-{field!r}" for tag, field, lam in ODD_DESK],
)
def test_guarded_scan_matches_full_scan(tag, field, lam, pulled):
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"guard/{tag}/{field!r}")))
    assert _assert_guard_agrees(h) is not None


RANDOM_GUARD_FORMS = [(n, p, seed) for n in (3, 5, 7) for p in (2, 3, 5, 7) for seed in range(2)]


@pytest.mark.parametrize(
    "n,p,seed", RANDOM_GUARD_FORMS, ids=[f"n{n}-gf{p}-{s}" for n, p, s in RANDOM_GUARD_FORMS]
)
def test_guarded_scan_matches_full_scan_random(n, p, seed):
    rng = random.Random(f"guard/{n}/{p}/{seed}")
    h = random_form(n, GF(p), rng, density=0.7)
    while h.is_zero():
        h = random_form(n, GF(p), rng, density=0.7)
    _assert_guard_agrees(h)


def test_guarded_scan_matches_full_scan_n9():
    """n = 9 over GF(2): G is a cubic."""
    h = random_form(9, GF(2), random.Random("guard/9"), density=0.6)
    guard = _assert_guard_agrees(h)
    assert guard is not None and {sum(e) for e in guard} == {3}


CUT_CASES = [(n, p, seed) for n in (5, 7) for p in (2, 3) for seed in range(2)]


@pytest.mark.parametrize("n,p,seed", CUT_CASES, ids=[f"n{n}-gf{p}-{s}" for n, p, s in CUT_CASES])
def test_guarded_scan_matches_full_scan_on_random_cuts(n, p, seed):
    """Seeded random [start, stop) pieces, most of them ending inside a
    lead block, scanned with and without the guard: each guarded piece
    is the unguarded one, and the pieces put together are the whole
    scan, with and without radicals."""
    rng = random.Random(f"cuts/{n}/{p}/{seed}")
    h = random_form(n, GF(p), rng, density=0.7)
    while not _pfaffian_quotient(h):
        h = random_form(n, GF(p), rng, density=0.7)
    guard = _pfaffian_quotient(h)
    cube = structure_cube(h)
    total = num_projective_points(p, n)
    cuts = [0, *sorted(rng.sample(range(1, total), 12)), total]
    for want_kernels in (False, True):
        whole = kernels.scan(cube, n, p, 0, total, want_kernels)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            piece = kernels.scan(cube, n, p, lo, hi, want_kernels, guard)
            assert piece == kernels.scan(cube, n, p, lo, hi, want_kernels), (lo, hi)
            pieces.append(piece)
        for part in range(2 + want_kernels):
            assert [x for piece in pieces for x in piece[part]] == whole[part]


@pytest.mark.parametrize(
    "tag,n,p",
    [("T2", 7, 3), ("T9", 9, 2), ("T1", 5, 5)],
    ids=["T2-n7-gf3", "T9-n9-gf2", "T1-n5-gf5"],
)
def test_guard_vanishes_with_a_radical(tag, n, p):
    """A form with a nonzero radical has every point a pole, so G = 0:
    a guarded path scans unguarded and gives enumerate_poles' answer."""
    h = catalog_form(tag, GF(p), n=n)
    assert _pfaffian_quotient(h) == {}
    assert _assert_guard_agrees(h) is None
    assert poles._scan_report(h, None, True, _pfaffian_quotient(h)) == enumerate_poles(h)
    assert enumerate_poles(h, with_radicals=False).histogram.get(0) is None


def test_guard_with_extra_zeros_raises():
    """u_1 G vanishes where G does not: the scan eliminates there, finds
    full rank and refuses the guard."""
    field = GF(3)
    h = catalog_form("T9", field).pullback(random_invertible(field, 7, random.Random(5)))
    g_terms = _pfaffian_quotient(h)
    g = MultiPoly(7, field, g_terms)
    u1 = MultiPoly(7, field, {(1, 0, 0, 0, 0, 0, 0): 1})
    assert any(e[0] == 0 for e in g_terms)  # u_1 does not divide G
    bad = (g * u1).terms
    cube = structure_cube(h)
    total = num_projective_points(3, 7)
    assert kernels.scan(cube, 7, 3, 0, total, False, g_terms)
    with pytest.raises(RuntimeError, match="not the pole equation"):
        kernels.scan(cube, 7, 3, 0, total, True, bad)


GUARD_CALLS = {
    "build_geometry": build_geometry,
    "enumerate_upper_radical": enumerate_upper_radical,
    "full_report": full_report,
    "pole_variety": pole_variety,
    "fingerprint": lambda h: fingerprint(h, h.field),
    "enumerate_poles": enumerate_poles,
}


@pytest.mark.parametrize("name", sorted(GUARD_CALLS))
@pytest.mark.parametrize(
    "tag,n,p,guarded",
    [("T9", None, 3, True), ("T10_1", None, 3, False), ("T9", None, 2, True), ("T2", 7, 3, False)],
    ids=["odd-n", "even-n", "odd-n-gf2", "odd-n-g0"],
)
def test_guard_reaches_only_the_unverifying_paths(monkeypatch, name, tag, n, p, guarded):
    """No path verifies a pole equation against a scan, so one rule guards
    every scan but the public one: pole_variety never scans,
    enumerate_poles never guards, and every other path guards with G
    exactly when n is odd and G != 0, over GF(2) as over GF(3)."""
    seen = []
    real_scan = kernels.scan

    def recording_scan(*args):
        seen.append(args[6] if len(args) > 6 else None)
        return real_scan(*args)

    monkeypatch.setattr(kernels, "scan", recording_scan)
    h = catalog_form(tag, GF(p), n=n, param=2 if tag == "T10_1" else None)
    GUARD_CALLS[name](h)
    if name == "pole_variety":
        assert seen == []
    elif name == "enumerate_poles" or not guarded:
        assert seen == [None]
    else:
        assert seen == [_pfaffian_quotient(h)] and seen[0]


# -- Z(G) is the pole set: the witness the library no longer runs ------------

WITNESS_CASES = [
    pytest.param(tag, field, lam, False, id=f"{tag}{'' if lam is None else f'({lam})'}-{field!r}")
    for tag, field, lam in ODD_DESK
] + [
    pytest.param("T9", field, None, True, id=f"T9-{field!r}-pullback")
    for field in (GF(2), GF(3), GF(5), GF(7))
]


@pytest.mark.parametrize("tag,field,lam,pulled", WITNESS_CASES)
def test_pole_set_is_the_zero_set_of_g(tag, field, lam, pulled):
    """On every odd-n desk instance and a seeded pullback, over GF(2),
    GF(3), GF(5) and GF(7), the whole of PG(n-1, p):
    - Z(G) is the pole set of the unguarded scan, the check that
      ``pole_variety`` and ``fingerprint`` no longer make at run time;
    - the scan of ``fingerprint``, ``full_report`` and ``build_geometry``
      gives the unguarded scan's degrees, and its radicals;
    - ``pole_variety`` verifies deg G at the least index that u_i does not
      divide G, and that is the variety degree of ``fingerprint``."""
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"witness/{field!r}")))
    g_terms = _pfaffian_quotient(h)
    unguarded = enumerate_poles(h)
    assert zero_set_matches(field, g_terms, zip(unguarded.points, unguarded.degrees))
    assert poles._scan_report(h, None, True, g_terms) == unguarded
    assert poles._scan_report(h, None, False, g_terms).degrees == unguarded.degrees
    if g_terms:
        top = max(sum(e) for e in g_terms)
        first = next(i for i in range(h.n) if _stripped(g_terms, i)[0] == 0)
        assert pole_variety(h).index == first + 1
        assert _variety_degree(h, g_terms) == top
