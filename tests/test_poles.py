"""Pole enumeration, degrees, the variety pipeline and the upper radical."""

import itertools
import random
from fractions import Fraction

import pytest

from polegeom import geometry, kernels, poles
from polegeom.fields import GF, QQ
from polegeom.forms import CatalogConditionError, TriForm, catalog_form
from polegeom.geometry import build_geometry, fingerprint
from polegeom.linalg import Matrix, pfaffian
from polegeom.poles import (
    BudgetExceededError,
    VarietyError,
    _grid_degrees,
    _integer_rank,
    _pfaffian_quotient,
    _radical_lines,
    _rational_sample_points,
    _upper_radical_by_wedge,
    _zero_set_matches,
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
    variety_candidates,
)
from polegeom.poly import (
    MultiPoly,
    equal_up_to_scalar,
    parse_poly,
    render_poly,
    strip_variable_power,
)
from polegeom.projective import (
    num_projective_points,
    projective_point_at,
    span_points,
    subspace_rref,
    wedge2_coordinates,
    wedge2_mod_p,
)
from conftest import desk_instances, forbid_everywhere, random_form, random_invertible


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
    assert [deg for deg, rad in zip(full.degrees, full.radicals) if rad is None] == [
        deg for deg in full.degrees if deg == 0
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_degree_laws(p):
    """degree = (n-1) - rank(M_u) = dim Rad(chi_u) - 1, with parity n-1;
    the report's radical is the reduced echelon basis of the Field kernel
    of M_u at a pole and None at degree 0."""
    field = GF(p)
    for tag, _, lam in desk_instances((field,)):
        h = catalog_form(tag, field, param=lam)
        report = enumerate_poles(h, field)
        n = h.n
        assert len(report.points) == len(report.degrees) == len(report.radicals)
        for u, deg, radical in zip(report.points, report.degrees, report.radicals):
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


def _adjoint_vector(m, p):
    """The 15 signed 4x4 sub-Pfaffians of an alternating 6x6 matrix mod p,
    in the lexicographic pair order of ``wedge2_mod_p``: at the pair (i, j)
    (0-based), (-1)^(i+j+1) times the Pfaffian on the other four indices."""
    out = []
    for i, j in itertools.combinations(range(6), 2):
        a, b, c, d = (x for x in range(6) if x not in (i, j))
        pf = m[a][b] * m[c][d] - m[a][c] * m[b][d] + m[a][d] * m[b][c]
        out.append((-1) ** (i + j + 1) * pf % p)
    return tuple(out)


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
    Pluecker vector of its radical line.  On the catalog row and one
    seeded pullback of it."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    pulled = h.pullback(random_invertible(field, 6, random.Random(f"adjoint/{tag}-{p}")))
    for form in (h, pulled):
        report = enumerate_poles(form)
        cube = structure_cube(form, field)
        assert {1, 3} & set(report.histogram)
        for u, deg, radical in zip(report.points, report.degrees, report.radicals):
            m = [[sum(x * c[j][k] for x, c in zip(u, cube)) % p for k in range(6)]
                 for j in range(6)]
            v = _adjoint_vector(m, p)
            if deg == 1:
                assert _is_multiple(v, wedge2_mod_p(p, *radical), p), u
            else:
                assert not any(v), u


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
    assert result.verified_over == "grid"


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
    assert result.g.degree() == 0


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
    symbolic M_u, skip the identically zero ones and strip u_i from each."""
    sym = symbolic_matrix(h)
    out = {}
    for i in range(1, h.n + 1):
        d = pfaffian(sym.principal_delete(i))
        if not d.is_zero():
            out[i] = (d, *strip_variable_power(d, i))
    return out


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


@pytest.mark.parametrize("tag, field, lam, pulled", VARIETY_REFERENCE_CASES)
def test_variety_candidates_match_every_pfaffian(tag, field, lam, pulled):
    """The candidates derived from the one Pfaffian Pf(M_u^(1)) = u_1*G
    equal those of the all-Pfaffians route, on every odd-n desk instance
    over GF(2), GF(3), GF(5) and GF(7), as catalogued and pulled back by a
    seeded map, and on the odd-n catalog forms over Q."""
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"{tag}/{field!r}")))
    assert variety_candidates(h) == _candidates_from_every_pfaffian(h)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), QQ], ids=repr)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_variety_candidates_match_every_pfaffian_random(n, field):
    rng = random.Random(f"{n}/{field!r}")
    for _ in range(4 if n == 7 else 8):
        h = random_form(n, field, rng)
        if not h.is_zero():
            assert variety_candidates(h) == _candidates_from_every_pfaffian(h)


def test_variety_candidates_guard_the_identity(monkeypatch):
    """A first Pfaffian with a term free of u_1 breaks Pf(M_u^(1)) = u_1*G
    and is refused rather than turned into candidates."""
    h = catalog_form("T9", GF(3))
    monkeypatch.setattr(
        poles, "pfaffian", lambda m: parse_poly("u1^2*u4 + u2*u5*u7", 7, GF(3))
    )
    with pytest.raises(RuntimeError, match="not divisible by u_1"):
        variety_candidates(h)


def test_variety_candidates_strip():
    h = catalog_form("T6", GF(3))
    for i, (d, alpha, g) in variety_candidates(h).items():
        assert alpha >= 1
        rebuilt = g
        ui = parse_poly(f"u{i}", 7, GF(3))
        for _ in range(alpha):
            rebuilt = rebuilt * ui
        assert rebuilt == d


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
    without the Field-based Pluecker map or a per-line reduction."""
    forbid_everywhere(monkeypatch, "wedge2_coordinates")
    forbid_everywhere(monkeypatch, "_line_rref")
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
    real = geometry.enumerate_poles

    def one_pole_too_many(*args, **kwargs):
        report = real(*args, **kwargs)
        report.histogram[1] += 1
        return report

    monkeypatch.setattr(geometry, "enumerate_poles", one_pole_too_many)
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
# T2/GF(3) has a first variety candidate that fails verification, so its
# cases also try a second candidate against the same scan.
ONE_SCAN_CALLS = {
    "full_report-odd-n": lambda: full_report(catalog_form("T2", GF(3))),
    "full_report-even-n": lambda: full_report(catalog_form("T10_1", GF(3), param=2)),
    "build_geometry": lambda: build_geometry(catalog_form("T7", GF(3))),
    "fingerprint": lambda: fingerprint(catalog_form("T9", GF(3)), GF(3)),
    "enumerate_upper_radical": lambda: enumerate_upper_radical(catalog_form("T5", GF(3))),
    "pole_variety-gf": lambda: pole_variety(catalog_form("T2", GF(3))),
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
    """A rational form's equation is verified on the grid alone."""
    forbid_everywhere(monkeypatch, "scan")
    result = pole_variety(catalog_form("T9", QQ))
    assert result.verified_over == "grid"


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_poles(catalog_form("T9", GF(7)), budget=1000)


def test_wedge_route_charges_its_lines_to_the_budget():
    # p^7 = 2,187 is under the budget, the 99,463 lines of PG(6, 3) are not
    with pytest.raises(BudgetExceededError, match="99463 lines"):
        _upper_radical_by_wedge(catalog_form("T9", GF(3)), budget=10_000)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("pulled", [False, True], ids=["catalog", "pullback"])
def test_zero_set_matches_both_verdicts(p, pulled):
    field = GF(p)
    h = catalog_form("T9", field)
    if pulled:
        rows = [[1 if j >= i else 0 for j in range(7)] for i in range(7)]
        rows[6][0] = 2  # unit upper triangular plus a corner: invertible
        h = h.pullback(Matrix(field, rows))
    report = enumerate_poles(h, field, with_radicals=False)
    pairs = list(zip(report.points, report.degrees))
    eq = pole_variety(h, report=report).g
    assert _zero_set_matches(field, eq, pairs)
    assert not _zero_set_matches(field, eq + MultiPoly.constant(7, field, 1), pairs)
    first_pole = next(pos for pos, (_, deg) in enumerate(pairs) if deg >= 1)
    pairs[first_pole] = (pairs[first_pole][0], 0)
    assert not _zero_set_matches(field, eq, pairs)


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
    want = [(pt, point_degree(h, pt)[0]) for pt in _rational_sample_points(h.n)]
    assert len(want) == 240
    assert list(_grid_degrees(h)) == want


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
        assert _integer_rank(rows) == Matrix(QQ, [[QQ.of(x) for x in row] for row in rows]).rank()


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
    cube = structure_cube(h, h.field)
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


@pytest.mark.parametrize(
    "tag,n,p",
    [("T2", 7, 3), ("T9", 9, 2), ("T1", 5, 5)],
    ids=["T2-n7-gf3", "T9-n9-gf2", "T1-n5-gf5"],
)
def test_guard_vanishes_with_a_radical(tag, n, p):
    """A form with a nonzero radical has every point a pole, so G = 0:
    the guarded path scans unguarded and gives enumerate_poles' answer."""
    h = catalog_form(tag, GF(p), n=n)
    assert _pfaffian_quotient(h) == {}
    assert _assert_guard_agrees(h) is None
    assert poles._scan_report(h, None, True, guarded=True) == enumerate_poles(h)
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
    cube = structure_cube(h, field)
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
GUARDED = {"build_geometry", "enumerate_upper_radical"}


@pytest.mark.parametrize("name", sorted(GUARD_CALLS))
@pytest.mark.parametrize("tag,lam", [("T9", None), ("T10_1", 2)], ids=["odd-n", "even-n"])
def test_guard_reaches_only_the_unverifying_paths(monkeypatch, name, tag, lam):
    """Only build_geometry and enumerate_upper_radical guard their scan,
    and only at odd n; full_report, pole_variety and fingerprint verify the
    pole equation against a full scan."""
    seen = []
    real_scan = kernels.scan

    def recording_scan(*args):
        seen.append(args[6] if len(args) > 6 else None)
        return real_scan(*args)

    monkeypatch.setattr(kernels, "scan", recording_scan)
    h = catalog_form(tag, GF(3), param=lam)
    GUARD_CALLS[name](h)
    if name in GUARDED and h.n % 2:
        assert seen == [_pfaffian_quotient(h)]
    elif name == "pole_variety" and h.n % 2 == 0:
        assert seen == []  # even n: all points, by parity
    else:
        assert seen == [None]
