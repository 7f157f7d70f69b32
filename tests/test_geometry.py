"""Incidence-structure analytics: spreads, polar spaces, cone, hexagon."""

import dataclasses
import functools
import random
from collections import Counter

import pytest

from conftest import desk_instances, forbid_everywhere, random_form, random_invertible
from polegeom import geometry
from polegeom.constructions import BilinearAltForm
from polegeom.fields import GF
from polegeom.forms import TriForm, catalog_form
from polegeom.geometry import (
    POLAR_CONFIGS,
    _lines_inside,
    _pencil_plane,
    build_geometry,
    cone_structure_check,
    expected_polar_lines,
    fingerprint,
    hexagon_check,
    incidence_graph_stats,
    normal_spread_check,
    polar_space_lines,
    spread_check,
    t4_line_check,
    t11_structure_check,
    unit_equation,
)
from polegeom.kernels import _inverse_table, _rref_mod_p
from polegeom.linalg import Matrix
from polegeom.poles import (
    PoleReport,
    _line_bases,
    enumerate_upper_radical,
    lines_through_point,
)
from polegeom.projective import (
    PluckerLine,
    num_projective_points,
    projective_point_at,
    span_points,
    span_points_mod_p,
    subspace_rref,
)


def test_build_geometry_t9_counts():
    geom = build_geometry(catalog_form("T9", GF(2)))
    assert len(geom.points) == 63
    assert len(geom.lines) == 63
    assert all(len(pts) == 3 for pts in geom.points_by_line)


def test_build_geometry_t1_counts():
    geom = build_geometry(catalog_form("T1", GF(2), n=6))
    assert len(geom.points) == 63  # every point is a pole
    for pts in geom.points_by_line:
        assert any(all(x == 0 for x in p[:3]) for p in pts)


def test_build_geometry_t8_polar():
    field = GF(2)
    geom = build_geometry(catalog_form("T8", field))
    assert len(geom.points) == 63
    beta = BilinearAltForm(7, field, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    assert list(geom.lines) == polar_space_lines(field, 7, beta, [unit_equation(7, 1)])


def test_spread_check_t10_2():
    geom = build_geometry(catalog_form("T10_2", GF(2), param=1))
    result = spread_check(geom)
    assert result.is_spread
    assert result.cover_histogram == {1: 63}
    assert normal_spread_check(geom)


def test_spread_check_t3_false():
    geom = build_geometry(catalog_form("T3", GF(2)))
    result = spread_check(geom)
    assert not result.is_spread
    assert set(result.cover_histogram) != {1}


def test_spread_check_empty_lines():
    geom = build_geometry(catalog_form("T1", GF(2)))  # n = 3: no radical lines
    result = spread_check(geom)
    assert not result.is_spread


@functools.lru_cache(maxsize=None)
def _spread_geometry(tag, p, lam, pulled=False):
    """The spread of the catalog row over GF(p), or its pullback by a
    seeded element of GL(6, p), built once per session."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"spread/{tag}-{p}")))
    return build_geometry(h)


def test_normal_spread_gf3_and_gf7():
    for tag, p, lam in (("T10_1", 3, 2), ("T10_1", 5, 2), ("T10_1", 7, 3)):
        geom = _spread_geometry(tag, p, lam)
        assert spread_check(geom).is_spread
        assert normal_spread_check(geom)


def test_perturbed_spread_rejected():
    field = GF(2)
    geom = build_geometry(catalog_form("T10_2", field, param=1))
    other = PluckerLine.from_pair(field, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    assert other not in set(geom.lines)
    lines = (other,) + tuple(geom.lines[1:])
    perturbed = dataclasses.replace(geom, lines=lines)
    assert not spread_check(perturbed).is_spread
    with pytest.raises(ValueError):
        normal_spread_check(perturbed)


def _regulus_switched(geom):
    """The spread with the regulus through three of its lines in the span of
    its first two replaced by the opposite regulus: still a spread, but no
    longer normal."""
    field = geom.field

    def rank(rows):
        return Matrix(field, rows).rank()

    def transversals(x, y, z):
        # through each point P of x, the line meeting y and z: P and the
        # point where the plane <P, y> meets z
        out = []
        z_points = span_points(field, list(z))
        for pt in span_points(field, list(x)):
            hit = next(c for c in z_points if rank([pt, c, *y]) == 3)
            out.append(PluckerLine.from_pair(field, pt, hit))
        return out

    a, b = geom.lines[:2]
    span = [*a, *b]
    c = next(l for l in geom.lines[2:] if rank(span + list(l)) == 4)
    opposite = transversals(a, b, c)
    regulus = set(transversals(*opposite[:3]))
    assert regulus <= set(geom.lines)
    lines = tuple(l for l in geom.lines if l not in regulus) + tuple(opposite)
    return dataclasses.replace(geom, lines=lines)


def test_incidence_maps_follow_the_lines():
    """The maps are derived from the lines: ``replace`` rebuilds them for new
    lines and refuses them as arguments."""
    field = GF(3)
    geom = build_geometry(catalog_form("T7", field))
    lines = geom.lines[::-1][:50]
    moved = dataclasses.replace(geom, lines=lines)
    points = [span_points(field, list(line)) for line in lines]
    assert [sorted(pts) for pts in moved.points_by_line] == [sorted(pts) for pts in points]
    want = {}
    for idx, pts in enumerate(points):
        for pt in pts:
            want[pt] = want.get(pt, ()) + (idx,)
    assert moved.lines_by_point == want
    for name in ("points", "lines_by_point", "points_by_line"):
        with pytest.raises(ValueError):
            dataclasses.replace(geom, **{name: {}})


def test_points_follow_the_degrees():
    """The poles are derived from the degrees: ``replace`` with new degrees
    gives the points of positive degree, in the order of the degrees."""
    geom = build_geometry(catalog_form("T7", GF(3)))
    assert geom.points == tuple(u for u, d in geom.degrees.items() if d >= 1)
    degrees = {u: 0 if d == 4 else d for u, d in geom.degrees.items()}
    moved = dataclasses.replace(geom, degrees=degrees)
    assert moved.points == tuple(u for u in geom.points if geom.degrees[u] != 4)
    assert len(moved.points) == len(geom.points) - 4  # the conic of PG(2, 3)
    assert moved.lines_by_point == geom.lines_by_point


def _is_line_pair(line):
    return (
        type(line) is tuple
        and len(line) == 2
        and all(type(row) is tuple and all(type(x) is int for x in row) for row in line)
    )


def test_lines_are_plain_pairs():
    """Every line the library hands out is the reduced-echelon pair (r1, r2)
    itself: a tuple of two tuples of ints."""
    field = GF(3)
    h = catalog_form("T7", field)
    geom = build_geometry(h)
    u = next(u for u, d in geom.degrees.items() if d == 2)
    beta = BilinearAltForm(7, field, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    routes = {
        "build_geometry": geom.lines,
        "enumerate_upper_radical": enumerate_upper_radical(h),
        "lines_through_point": lines_through_point(h, u),
        "polar_space_lines": polar_space_lines(field, 7, beta, [unit_equation(7, 1)]),
        "expected_polar_lines": expected_polar_lines("T5", field),
        "from_pair": [PluckerLine.from_pair(field, (1, 2, 0), (2, 0, 1))],
    }
    for name, lines in routes.items():
        assert lines, name
        assert all(_is_line_pair(line) for line in lines), name
    assert routes["from_pair"] == [((1, 0, 2), (0, 1, 2))]


def _histogram_by_points(geom):
    """The cover histogram counted off ``points_by_line``, point by point."""
    counts = Counter(pt for pts in geom.points_by_line for pt in pts)
    histogram = Counter(counts.values())
    histogram[0] = num_projective_points(geom.field.p, geom.n) - len(counts)
    return {k: v for k, v in sorted(histogram.items()) if v}


@pytest.mark.parametrize("tag,p,lam", [("T10_2", 2, 1), ("T10_1", 3, 2)])
def test_spread_histogram_matches_points_by_line(tag, p, lam):
    """``spread_check`` reads its cover counts off ``lines_by_point``; they
    equal the counts over ``points_by_line`` on a spread, a perturbed
    spread and a regulus-switched spread."""
    field = GF(p)
    geom = _spread_geometry(tag, p, lam)
    other = PluckerLine.from_pair(field, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    lines = tuple(line for line in geom.lines if line != other)
    perturbed = dataclasses.replace(geom, lines=(other,) + lines[1:])
    for g in (geom, perturbed, _regulus_switched(geom), build_geometry(catalog_form("T3", field))):
        assert spread_check(g).cover_histogram == _histogram_by_points(g)
    assert set(spread_check(perturbed).cover_histogram) == {0, 1, 2}


@pytest.mark.parametrize("tag,p,lam", [("T10_2", 2, 1), ("T10_1", 3, 2), ("T10_1", 5, 2)])
def test_regulus_switched_spread_not_normal(tag, p, lam):
    switched = _regulus_switched(_spread_geometry(tag, p, lam))
    assert spread_check(switched).is_spread
    assert not normal_spread_check(switched)


def _normal_by_points(geom):
    """Normality by the point route: the span of each line pair listed
    point by point, and the spread lines through its points counted.
    q^2+1 pairwise disjoint lines of q+1 points cover the span exactly, so
    more distinct lines means some line leaves it.  Pairs inside a span
    already verified are skipped by the same bitmask bookkeeping as
    ``normal_spread_check``."""
    q = geom.field.p
    inv = _inverse_table(q)
    lines = geom.lines
    count = len(lines)
    masks = [1 << i for i in range(count)]  # pair (i, j) done when bit j of masks[i]
    full = (1 << count) - 1
    for i in range(count):
        todo = full & ~masks[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            basis = [list(row) for row in lines[i] + lines[j]]
            if len(_rref_mod_p(basis, geom.n, q, inv)) != 4:
                return False
            members = {geom.lines_by_point[pt][0] for pt in span_points_mod_p(q, basis)}
            if len(members) != q * q + 1:
                return False
            group = 0
            for m in members:
                group |= 1 << m
            for m in members:
                masks[m] |= group
            todo = full & ~masks[i]
    return True


SPREAD_ROWS = [("T10_2", 2, 1), ("T10_1", 3, 2), ("T10_1", 5, 2), ("T10_1", 7, 3)]
SPREAD_ROUTE_CASES = (
    [("normal", *row) for row in SPREAD_ROWS]
    + [("pullback", *row) for row in SPREAD_ROWS]
    + [("switched", *row) for row in SPREAD_ROWS[:3]]
)


@pytest.mark.parametrize(
    "kind, tag, p, lam",
    SPREAD_ROUTE_CASES,
    ids=[f"{kind}-{tag}({lam})-gf{p}" for kind, tag, p, lam in SPREAD_ROUTE_CASES],
)
def test_normal_spread_matches_point_route(kind, tag, p, lam):
    """``normal_spread_check`` gives the point route's verdict on the
    normal spreads, on their seeded GL(6, p) pullbacks and on the spreads
    with one regulus switched."""
    geom = _spread_geometry(tag, p, lam, pulled=kind == "pullback")
    if kind == "switched":
        geom = _regulus_switched(geom)
    assert spread_check(geom).is_spread
    want = _normal_by_points(geom)
    assert want == (kind != "switched")
    assert normal_spread_check(geom) == want


@pytest.mark.parametrize("p", [2, 3])
def test_polar_t6(p):
    field = GF(p)
    geom = build_geometry(catalog_form("T6", field))
    beta = BilinearAltForm(7, field, {(2, 5): 1, (3, 6): 1, (4, 7): 1})
    carrier = [unit_equation(7, 1)]
    apex = [unit_equation(7, i) for i in (1, 2, 3, 4)]
    assert list(geom.lines) == polar_space_lines(field, 7, beta, carrier, apex)
    # dropping the apex admits more isotropic lines, so the check fails
    assert list(geom.lines) != polar_space_lines(field, 7, beta, carrier)


@pytest.mark.parametrize("p", [2, 3])
def test_polar_t5_union(p):
    field = GF(p)
    geom = build_geometry(catalog_form("T5", field))
    assert list(geom.lines) == expected_polar_lines("T5", field)


@pytest.mark.parametrize("p", [2, 3])
def test_polar_t8(p):
    field = GF(p)
    geom = build_geometry(catalog_form("T8", field))
    assert list(geom.lines) == expected_polar_lines("T8", field)


def test_polar_configs_cover_expected_tags():
    assert set(POLAR_CONFIGS) == {"T5", "T6", "T8"}


@pytest.mark.parametrize("p", [2, 3])
def test_cone_t7_clauses(p):
    field = GF(p)
    h = catalog_form("T7", field)
    geom = build_geometry(h)
    report = cone_structure_check(geom, h)
    assert report.pole_set_ok
    assert report.degree4_is_conic
    assert len(report.conic_points) == p + 1
    # the conic in the canonical enumeration order of PG(6, p)
    order = [projective_point_at(p, 7, i) for i in range(num_projective_points(p, 7))]
    assert report.conic_points == tuple(pt for pt in order if pt in set(report.conic_points))
    assert report.off_vertex_ok
    # the fully-radical-plane clause fails: the opposite regulus of the
    # base quadric consists of radical lines lying in no such plane
    assert not report.line_planes_ok
    assert not report.passed
    assert "fully-radical" in report.witness


@pytest.mark.parametrize(
    "tag, witness",
    [
        ("T9", "pencil plane of (1, 0, 0, 0, 0, 1, 0) misses the conic"),
        ("T8", "off-vertex pole (0, 1, 0, 0, 0, 0, 1) has degree 4"),
    ],
    ids=["T9", "T8"],
)
def test_cone_check_refutes_other_families(tag, witness):
    """Clause (d) fails on the rank-7 families that are not cones, at the
    first off-vertex pole in canonical order."""
    field = GF(3)
    h = catalog_form(tag, field)
    report = cone_structure_check(build_geometry(h), h)
    assert not report.off_vertex_ok
    assert not report.passed
    assert report.witness == witness


@pytest.mark.parametrize(
    "check, tag, want",
    [
        (
            "t11",
            "T9",
            {
                "partition_ok": False,
                "witness": "plane ((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), "
                "(0, 0, 0, 0, 0, 1, 0)) misses [e7]",
            },
        ),
        (
            "t11",
            "T8",
            {"partition_ok": False, "witness": "point (0, 1, 0, 0, 0, 0, 0) has degree 4"},
        ),
        (
            "t4",
            "T3",
            {
                "lines_ok": False,
                "histogram_ok": False,
                "witness": "point (1, 0, 0, 0, 0, 0) has degree 3, expected 1",
            },
        ),
    ],
)
def test_t11_and_t4_checks_refute_other_families(check, tag, want):
    """The failing branches of the t11 and t4 checks, with exact witnesses:
    the T9 one names a pencil plane by its reduced basis."""
    field = GF(3)
    h = catalog_form(tag, field)
    geom = build_geometry(h)
    report = t11_structure_check(geom, h) if check == "t11" else t4_line_check(geom)
    assert not report.passed
    assert {k: getattr(report, k) for k in want} == want


def test_t11_check_rejects_wrong_dimension():
    h = catalog_form("T1", GF(2))
    with pytest.raises(ValueError, match="n = 7"):
        t11_structure_check(build_geometry(h), h)


@pytest.mark.parametrize(
    "check, tag, lam",
    [
        ("cone", "T7", None),
        ("cone", "T9", None),
        ("t11", "T11_1", 2),
        ("t4", "T4", None),
    ],
)
def test_checks_stay_on_ints(monkeypatch, check, tag, lam):
    """Once the geometry is built, the cone, t11 and t4 checks read it on
    ints mod p: no GF arithmetic, no Field-based radical, span or line."""
    field = GF(3)
    h = catalog_form(tag, field, param=lam)
    geom = build_geometry(h)
    run = {
        "cone": lambda: cone_structure_check(geom, h),
        "t11": lambda: t11_structure_check(geom, h),
        "t4": lambda: t4_line_check(geom),
    }[check]
    want = run()

    def forbidden(*args, **kwargs):
        raise AssertionError("Field-based call in an integer check")

    for name in ("of", "add", "sub", "mul", "neg", "inv"):
        monkeypatch.setattr(GF, name, forbidden)
    monkeypatch.setattr(PluckerLine, "from_pair", forbidden)
    forbid_everywhere(monkeypatch, "point_degree")
    forbid_everywhere(monkeypatch, "span_points")
    assert run() == want


def test_lines_carry_no_pluecker_vector(monkeypatch):
    """A line is its echelon basis: building the geometry, every check and
    ``lines_through_point`` run with ``wedge2_mod_p`` made to raise, and
    give their usual verdicts."""
    field = GF(3)
    forms = {
        tag: catalog_form(tag, field, param=lam)
        for tag, lam in (("T10_1", 2), ("T8", None), ("T7", None), ("T9", None),
                         ("T11_1", 2), ("T4", None))
    }
    forbid_everywhere(monkeypatch, "wedge2_mod_p")
    geoms = {tag: build_geometry(h) for tag, h in forms.items()}
    assert spread_check(geoms["T10_1"]).is_spread
    assert normal_spread_check(geoms["T10_1"])
    assert list(geoms["T8"].lines) == expected_polar_lines("T8", field)
    assert not cone_structure_check(geoms["T7"], forms["T7"]).passed  # the known-red clause
    stats = hexagon_check(geoms["T9"])
    assert stats.as_tuple() == (stats.points, stats.points, 4, 4, 12, 6)
    assert t11_structure_check(geoms["T11_1"], forms["T11_1"]).passed
    assert t4_line_check(geoms["T4"]).passed
    u = max(geoms["T7"].degrees, key=geoms["T7"].degrees.get)
    assert len(lines_through_point(forms["T7"], u)) == 40  # a pole of degree 4


def test_cone_t7_pole_count_gf3():
    geom = build_geometry(catalog_form("T7", GF(3)))
    # cone with plane vertex (13 points) over a hyperbolic quadric:
    # affine zero count 3^3 * 33, projectivized
    assert len(geom.points) == (27 * 33 - 1) // 2


def test_hexagon_t9_gf2():
    stats = hexagon_check(build_geometry(catalog_form("T9", GF(2))))
    assert stats.as_tuple() == (63, 63, 3, 3, 12, 6)


def test_hexagon_t9_gf3():
    stats = hexagon_check(build_geometry(catalog_form("T9", GF(3))))
    assert stats.as_tuple() == (364, 364, 4, 4, 12, 6)


def test_hexagon_t9_gf5():
    """The split Cayley hexagon H(5): (q^6-1)/(q-1) = 3906 points and as many
    lines, s = t = 5, girth 12, diameter 6."""
    stats = hexagon_check(build_geometry(catalog_form("T9", GF(5))))
    assert stats.as_tuple() == (3906, 3906, 6, 6, 12, 6)


def test_hexagon_t12_matches_t9():
    """Scaling by a non-cube leaves the whole incidence structure fixed, so
    every hexagon statistic coincides."""
    field = GF(7)
    budget = 10**6
    g9 = build_geometry(catalog_form("T9", field), budget=budget)
    g12 = build_geometry(catalog_form("T12", field, param=2), budget=budget)
    assert g9.points == g12.points
    assert len(g9.points) == 19608
    assert g9.lines == g12.lines
    assert g9.degrees == g12.degrees
    assert {len(p) for p in g9.points_by_line} == {8}
    assert Counter(len(g9.lines_by_point.get(pt, ())) for pt in g9.points) == {8: 19608}


def test_hexagon_rejects_wrong_type():
    geom = build_geometry(catalog_form("T8", GF(2)))
    with pytest.raises(ValueError):
        hexagon_check(geom)


def test_incidence_stats_non_hexagon():
    # the rank-3 symplectic polar space contains triangles of collinear
    # points (isotropic planes), so the incidence graph has girth 6
    stats = incidence_graph_stats(build_geometry(catalog_form("T8", GF(2))))
    assert stats.points == 63
    assert stats.lines == 315
    assert (stats.points_per_line, stats.lines_per_point) == (3, 15)
    assert (stats.girth, stats.diameter) == (6, 4)


@pytest.mark.parametrize(
    "tag,p,lam", [("T11_2", 2, 1), ("T11_1", 3, 2)]
)
def test_t11_structure(tag, p, lam):
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    geom = build_geometry(h)
    report = t11_structure_check(geom, h)
    assert report.pole_set_ok
    assert report.unique_degree4_ok
    assert report.partition_ok
    assert report.passed


def test_t11_check_refutes_a_missing_line():
    """With one radical line taken out, its pencil plane is no longer made
    entirely of radical lines, and the t11 check says so."""
    h = catalog_form("T11_1", GF(3), param=2)
    geom = build_geometry(h)
    report = t11_structure_check(dataclasses.replace(geom, lines=geom.lines[1:]), h)
    assert not report.partition_ok
    assert report.witness == "upper radical differs from the union of pencil planes"


@pytest.mark.parametrize("p", [2, 3])
def test_t4_line_description(p):
    field = GF(p)
    geom = build_geometry(catalog_form("T4", field))
    report = t4_line_check(geom)
    assert report.lines_ok
    assert report.histogram_ok


def test_lines_consist_of_poles_everywhere():
    for tag, field, lam in desk_instances((GF(2), GF(3))):
        geom = build_geometry(catalog_form(tag, field, param=lam))
        pole_set = set(geom.points)
        assert all(set(pts) <= pole_set for pts in geom.points_by_line), (tag, field)


def test_pole_iff_on_radical_line():
    """Positive degree exactly when some radical line passes through."""
    for tag, field, lam in desk_instances((GF(2),)):
        geom = build_geometry(catalog_form(tag, field, param=lam))
        covered = set()
        for pts in geom.points_by_line:
            covered.update(pts)
        assert covered == set(geom.points), (tag,)


def test_fingerprint_scale_invariance():
    field = GF(7)
    budget = 10**6
    h = catalog_form("T9", field)
    fp1 = fingerprint(h, field, budget=budget)
    fp2 = fingerprint(h.scale(2), field, budget=budget)
    assert fp1 == fp2
    assert fp1.variety_degree == 2


def test_fingerprint_pullback_invariance_sample():
    import random

    rng = random.Random(424242)
    field = GF(3)
    h = catalog_form("T5", field)
    fp = fingerprint(h, field)
    for _ in range(5):
        g = random_invertible(field, 7, rng)
        assert fingerprint(h.pullback(g), field) == fp


def test_fingerprints_separate_types_gf2():
    # observed separation at a common ambient dimension, not a theorem
    seen = {}
    for tag, field, lam in desk_instances((GF(2),)):
        h = catalog_form(tag, field, param=lam, n=7)
        fp = fingerprint(h, field)
        key = fp.as_tuple()
        assert key not in seen, (tag, seen[key])
        seen[key] = tag


# every desk instance over GF(2) and GF(3), as catalogued and pulled back
# by one seeded invertible map, then three cases over GF(5) and GF(7)
FINGERPRINT_CROSS_CASES = [
    (tag, field, lam, pulled)
    for tag, field, lam in desk_instances()
    for pulled in (False, True)
] + [
    ("T9", GF(5), None, False),
    ("T10_1", GF(5), 2, False),
    ("T10_1", GF(7), 3, False),
]


@pytest.mark.parametrize(
    "tag, field, lam, pulled",
    FINGERPRINT_CROSS_CASES,
    ids=[
        f"{tag}{'' if lam is None else f'({lam})'}-gf{field.p}{'-pullback' if pulled else ''}"
        for tag, field, lam, pulled in FINGERPRINT_CROSS_CASES
    ],
)
def test_fingerprint_counts_match_assembled_lines(tag, field, lam, pulled):
    """The closed-form line counts of ``fingerprint`` equal the lines that
    ``build_geometry`` assembles one by one."""
    h = catalog_form(tag, field, param=lam)
    if pulled:
        h = h.pullback(random_invertible(field, h.n, random.Random(f"{tag}-{field.p}")))
    fp = fingerprint(h, field)
    geom = build_geometry(h, field)
    assert fp.line_count == len(geom.lines)
    lines_per_point = Counter(len(geom.lines_by_point.get(pt, ())) for pt in geom.points)
    assert dict(fp.lines_per_point_histogram) == lines_per_point
    degrees = Counter(d for d in geom.degrees.values() if d >= 1)
    assert fp.degree_histogram == tuple(sorted(degrees.items()))
    assert fp.pole_count == len(geom.points)


def _fingerprint_rank_cases():
    """Forms of full and of lower rank: the desk instances over GF(2) and
    GF(3) and their seeded pullbacks, embedded forms with a radical, and
    seeded sparse random forms over GF(2), GF(3), GF(5) and GF(7)."""
    cases = []
    for tag, field, lam in desk_instances():
        h = catalog_form(tag, field, param=lam)
        cases.append(h)
        cases.append(h.pullback(random_invertible(field, h.n, random.Random(f"rank/{tag}-{field.p}"))))
    cases += [
        catalog_form("T2", GF(3), n=7),
        catalog_form("T1", GF(2), n=6),
        catalog_form("T1", GF(5), n=5),
        catalog_form("T3", GF(3), n=7),
    ]
    for p, sizes in ((2, (4, 5, 6, 7)), (3, (4, 5, 6)), (5, (4, 5)), (7, (4, 5))):
        rng = random.Random(f"rank/{p}")
        for n in sizes:
            for density in (0.2, 0.35, 0.5):
                h = random_form(n, GF(p), rng, density)
                if not h.is_zero():
                    cases.append(h)
    return cases


def test_fingerprint_reads_rank_off_the_scan(monkeypatch):
    """The rank n - dim Rad(h) comes from the points of degree n-1, with
    ``TriForm.rank`` made to raise, and equals ``TriForm.rank``."""
    cases = _fingerprint_rank_cases()
    expected = [h.rank() for h in cases]
    assert {h.n - r for h, r in zip(cases, expected)} >= {0, 1, 2, 3}

    def forbidden(self):
        raise AssertionError("TriForm.rank called by fingerprint")

    monkeypatch.setattr(TriForm, "rank", forbidden)
    for h, rank in zip(cases, expected):
        assert fingerprint(h, h.field).rank == rank, h


def test_fingerprint_zero_form_has_no_rank():
    with pytest.raises(ValueError, match="^zero form has no rank$"):
        fingerprint(TriForm(4, GF(3), {}), GF(3))


def test_fingerprint_refuses_a_radical_count_of_no_projective_space(monkeypatch):
    """Two points of degree n-1 over GF(3) are no PG(r-1, 3) (1, 4, 13, ...
    points), so the scan's degrees are inconsistent."""
    field = GF(3)
    report = PoleReport(field, 7, [], [], None, {0: 1089, 6: 2})
    monkeypatch.setattr(geometry, "enumerate_poles", lambda *args, **kwargs: report)
    with pytest.raises(RuntimeError, match="not a projective space"):
        fingerprint(catalog_form("T9", field), field)


def _plane_lines_by_field(field, rows):
    """The lines of the plane spanned by ``rows`` by the Field route: each
    line of PG(2, p) combined over the rows with Field operations, then
    reduced by ``PluckerLine.from_pair``."""
    n = len(rows[0])

    def combine(coeffs):
        vec = [field.zero] * n
        for c, b in zip(coeffs, rows):
            if c != field.zero:
                for i in range(n):
                    vec[i] = field.add(vec[i], field.mul(c, b[i]))
        return tuple(vec)

    return {
        PluckerLine.from_pair(field, combine(inner[0]), combine(inner[1]))
        for inner in _line_bases(field.p, 3)
    }


def _random_planes(p, count):
    """``count`` seeded random planes of PG(6, p) as (reduced basis, rows)."""
    rng = random.Random(1000 + p)
    field = GF(p)
    out = []
    while len(out) < count:
        rows = [tuple(rng.randrange(p) for _ in range(7)) for _ in range(3)]
        basis = subspace_rref(field, rows)
        if len(basis) == 3:
            out.append((basis, rows))
    return out


LINES_INSIDE_CASES = [
    ("T5", 3, None, "pencils"),
    ("T7", 3, None, "pencils"),
    ("T9", 3, None, "pencils"),
    ("T11_1", 3, 2, "pencils"),
    ("T7", 2, None, "pencils"),
    ("T7", 2, None, "random"),
    ("T7", 3, None, "random"),
]


@pytest.mark.parametrize(
    "tag, p, lam, planes",
    LINES_INSIDE_CASES,
    ids=[f"{planes}-{tag}-gf{p}" for tag, p, lam, planes in LINES_INSIDE_CASES],
)
def test_lines_inside_matches_field_route(tag, p, lam, planes):
    """The lines counted p+1 times over a plane's points are the radical
    lines among the Field route's lines of the plane: on the pencil plane
    of every degree-2 pole, and on 60 seeded random planes of PG(6, p)."""
    field = GF(p)
    geom = build_geometry(catalog_form(tag, field, param=lam))
    if planes == "pencils":
        bases = {_pencil_plane(geom, u) for u in geom.points if geom.degrees[u] == 2}
        cases = [(basis, basis) for basis in sorted(bases)]
        assert cases
    else:
        cases = _random_planes(p, 60)
    for basis, rows in cases:
        want = _plane_lines_by_field(field, rows)
        got = _lines_inside(geom, span_points_mod_p(p, basis))
        assert got == {i for i, line in enumerate(geom.lines) if line in want}


def _polar_cases():
    """Seeded random (beta, carrier, apex) inputs over GF(2), GF(3) and
    GF(5), n from 3 to 6 (to 5 over GF(5)), plus an all-zero carrier row,
    an empty carrier and cases with no apex."""
    rng = random.Random(4242)
    cases = []
    for p, top in ((2, 6), (3, 6), (5, 5)):
        for n in range(3, top + 1):
            for k in range(3):
                beta = {
                    (j, l): rng.randrange(p)
                    for j in range(1, n + 1)
                    for l in range(j + 1, n + 1)
                }
                carrier = [
                    [rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 2))
                ]
                if k == 1:
                    carrier.append([0] * n)
                apex = (
                    None
                    if k == 2
                    else [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
                )
                cases.append((p, n, beta, carrier, apex))
    return cases


def _polar_apex_cases():
    """Seeded cases whose apex meets the carrier in some of its points and
    misses others: the apex equations are made to vanish at one random
    carrier point, and a case is kept only when some carrier point lies
    off the apex.  GF(2) and GF(3) with n from 4 to 6, GF(5) with n = 4, 5."""
    rng = random.Random(4343)
    cases = []
    for p, top in ((2, 6), (3, 6), (5, 5)):
        for n in range(4, top + 1):
            kept = 0
            while kept < 2:
                carrier = [
                    [rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 2))
                ]
                total = num_projective_points(p, n)
                inside = [
                    pt
                    for pt in (projective_point_at(p, n, i) for i in range(total))
                    if all(sum(e * x for e, x in zip(eq, pt)) % p == 0 for eq in carrier)
                ]
                v = rng.choice(inside)
                lead = v.index(1)
                apex = []
                for _ in range(rng.randint(1, n - 2)):
                    row = [rng.randrange(p) for _ in range(n)]
                    row[lead] = (row[lead] - sum(e * x for e, x in zip(row, v))) % p
                    apex.append(row)
                off = [
                    pt
                    for pt in inside
                    if any(sum(e * x for e, x in zip(eq, pt)) % p for eq in apex)
                ]
                if not off:
                    continue
                beta = {
                    (j, l): rng.randrange(p)
                    for j in range(1, n + 1)
                    for l in range(j + 1, n + 1)
                }
                cases.append((p, n, beta, carrier, apex))
                kept += 1
    return cases


POLAR_CASES = _polar_cases() + _polar_apex_cases()


@pytest.mark.parametrize(
    "p, n, beta, carrier, apex",
    POLAR_CASES,
    ids=[f"gf{c[0]}-n{c[1]}-{i}" for i, c in enumerate(POLAR_CASES)],
)
def test_polar_space_lines_by_definition(p, n, beta, carrier, apex):
    """Every line of PG(n-1, p) inside the carrier, isotropic for beta and
    with a point on the apex, and no other, in sorted order."""
    field = GF(p)
    form = BilinearAltForm(n, field, beta)

    def zero_on(eqs, vec):
        return all(sum(e * x for e, x in zip(eq, vec)) % p == 0 for eq in eqs)

    want = sorted(
        line
        for line in _line_bases(field.p, n)
        if all(zero_on(carrier, row) for row in line)
        and form.evaluate(*line) == field.zero
        and (apex is None or any(zero_on(apex, pt) for pt in span_points(field, list(line))))
    )
    assert polar_space_lines(field, n, form, carrier, apex) == want
