"""Acceptance suite: every criterion runs at its stated tolerance (exact
equality throughout) and prints one pass/fail line.  Criterion 5 prints one
line per rank-7 family and field, and its single assertion names every
failing family; for T7 it asserts the cone check's exact red verdict.

Desk scale is GF(2)/GF(3)/GF(5)/GF(7) with n <= 7.  Forms whose catalog
conditions exclude a stated field run over their nearest admissible desk
field (characteristic-2 rows over GF(2); the scaled hexagonal row over
GF(7), where cubing is not onto).
"""

import itertools
import random

from conftest import (
    desk_instances,
    determinant,
    random_alternating,
    random_invertible,
    scalar_pfaffian,
    upper_radical_by_wedge,
)
from polegeom.constructions import cch_hyperplane
from polegeom.fields import GF, QQ
from polegeom.forms import TriForm, catalog_form
from polegeom.geometry import (
    build_geometry,
    cone_structure_check,
    expected_polar_lines,
    fingerprint,
    hexagon_check,
    normal_spread_check,
    spread_check,
    t4_line_check,
    t11_structure_check,
)
from polegeom.linalg import Matrix
from polegeom.poles import (
    contraction_matrix,
    enumerate_poles,
    enumerate_upper_radical,
    pole_variety,
)
from polegeom.poly import equal_up_to_scalar, parse_poly
from polegeom.projective import PluckerLine, span_points
from polegeom.tables import tables_fixture


def acceptance_line(number, name, passed, detail=""):
    """Print one pass/fail line and return the failure message."""
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")
    return f"criterion {number} {name}{suffix}"


def record(number, name, passed, detail=""):
    message = acceptance_line(number, name, passed, detail)
    assert passed, message


def test_criterion_1_table_fixtures():
    problems = []
    for which in (2, 3, 4, 5):
        report = tables_fixture(which)
        for row in report["rows"]:
            if not row["ok"]:
                problems.append((which, row["tag"], row["diff"][:1]))
    record(1, "table fixtures exact", not problems, detail=str(problems[:2]))


def test_criterion_2_pfaffian_identity():
    rng = random.Random(0xF00D)
    checked = 0
    ok = True
    for field in (GF(7), QQ):
        for n in (2, 3, 4, 5, 6):
            for _ in range(25):
                m = random_alternating(field, n, rng)
                pf = scalar_pfaffian(m)
                if field.mul(pf, pf) != determinant(m):
                    ok = False
                checked += 1
    record(2, "pfaffian squares to determinant", ok and checked >= 200, detail=f"{checked} samples")


def test_criterion_3_degree_laws():
    bad = []
    for tag, field, lam in desk_instances((GF(2), GF(3), GF(7))):
        if field == GF(7) and tag != "T12":
            continue  # GF(7) only substitutes for the cube-condition row
        h = catalog_form(tag, field, param=lam)
        n = h.n
        report = enumerate_poles(h, field)
        for u, deg in zip(report.points, report.degrees):
            rank, kernel = contraction_matrix(h, u).rank_and_kernel()
            if not (
                deg == (n - 1) - rank
                and deg == len(kernel) - 1
                and deg % 2 == (n - 1) % 2
            ):
                bad.append((tag, field, u))
                break
    record(3, "degree laws on every point", not bad, detail=str(bad[:3]))


def _t1_expected_lines(field):
    h = catalog_form("T1", field, n=6)
    lines = enumerate_upper_radical(h, field)
    for line in lines:
        pts = span_points(field, list(line))
        if not any(all(x == field.zero for x in pt[:3]) for pt in pts):
            return False
    by_wedge = upper_radical_by_wedge(h, field)
    return lines == by_wedge and len(lines) > 0


def _t3_expected_lines(field):
    h = catalog_form("T3", field)
    for line in enumerate_upper_radical(h, field):
        pts = span_points(field, list(line))
        if not any(all(x == field.zero for x in pt[3:]) for pt in pts):
            return False
        if not any(all(x == field.zero for x in pt[:3]) for pt in pts):
            return False
    return True


def test_criterion_4_rank_at_most_6_reproductions():
    failures = []
    for p in (2, 3):
        field = GF(p)
        if not _t1_expected_lines(field):
            failures.append(("T1", p))
        if not _t3_expected_lines(field):
            failures.append(("T3", p))
        report = t4_line_check(build_geometry(catalog_form("T4", field)))
        if not report.passed:
            failures.append(("T4", p))
    for tag, field, lam in (
        ("T10_2", GF(2), 1),
        ("T10_1", GF(3), 2),
        ("T10_1", GF(7), 3),
    ):
        geom = build_geometry(catalog_form(tag, field, param=lam))
        if not spread_check(geom).is_spread or not normal_spread_check(geom):
            failures.append((tag, field.p))
    record(4, "rank<=6 geometries and spreads", not failures, detail=str(failures))


def _t5_verdict(field):
    # two symplectic hyperplanes with apexes
    geom = build_geometry(catalog_form("T5", field))
    pole_ok = all(pt[0] == field.zero or pt[3] == field.zero for pt in geom.points)
    degree4 = sum(1 for pt in geom.points if geom.degrees[pt] == 4)
    if field.p == 2:
        pole_ok = pole_ok and len(geom.points) == 95 and degree4 == 13
    lines_ok = list(geom.lines) == expected_polar_lines("T5", field)
    return pole_ok and lines_ok, (
        f"{len(geom.points)} poles, {degree4} of degree 4, "
        f"pole set {'ok' if pole_ok else 'wrong'}, "
        f"{len(geom.lines)} lines {'match' if lines_ok else 'differ from'} the polar lines"
    )


def _t6_verdict(field):
    # polar space
    geom = build_geometry(catalog_form("T6", field))
    expected = expected_polar_lines("T6", field)
    lines_ok = list(geom.lines) == expected
    return lines_ok, (
        f"{len(geom.lines)} lines {'match' if lines_ok else 'differ from'} "
        f"the {len(expected)} polar lines"
    )


def _t7_regulus(field):
    """The opposite regulus of the base quadric u4*u6 + u5*u7 = 0:
    <l*e4 + e5, e6 - l*e7> for l in GF(p), and <e4, e7>."""
    pairs = [
        ((0, 0, 0, lam, 1, 0, 0), (0, 0, 0, 0, 0, 1, field.neg(lam)))
        for lam in range(field.p)
    ]
    pairs.append(((0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)))
    return pairs


def _common_radical_dim(h, x, y):
    """dim(Rad(chi_x) & Rad(chi_y)), from the kernels of M_x and M_y."""
    _, kx = contraction_matrix(h, x).rank_and_kernel()
    _, ky = contraction_matrix(h, y).rank_and_kernel()
    return len(kx) + len(ky) - Matrix(h.field, list(kx) + list(ky)).rank()


def _t7_verdict(field):
    """The cone check is red on T7, and its verdict is checked exactly.

    Clauses (a), (b) and (d) hold.  Clause (c), "every radical line lies in
    a fully-radical plane through a conic point", fails: only the q^2+q+1
    lines of the vertex plane <e1,e2,e3> are covered.  The independent proof
    uses the opposite regulus of the base quadric.  Its lines <x,y> are
    radical: the terms 146 and 157 give h(x,y,e1) = l - l = 0, and no term of
    146+157+245+367 contains both indices 4,7 or 5,6.  A fully-radical plane
    through <x,y> lies in Rad(chi_x) & Rad(chi_y), which is the line itself
    (dimension 2), so no such plane exists.
    """
    q = field.p
    h = catalog_form("T7", field)
    geom = build_geometry(h)
    cone = cone_structure_check(geom, h)
    total = len(geom.lines)
    vertex_lines = sum(
        1
        for line in geom.lines
        if all(v[i] == field.zero for v in line for i in range(3, 7))
    )
    uncovered = f"{total - (q * q + q + 1)} of {total} radical lines"
    line_set = set(geom.lines)
    regulus = _t7_regulus(field)
    regulus_radical = sum(
        PluckerLine.from_pair(field, x, y) in line_set for x, y in regulus
    )
    regulus_dims = [_common_radical_dim(h, x, y) for x, y in regulus]
    checks = {
        "pole set": cone.pole_set_ok,
        "degree-4 conic": cone.degree4_is_conic,
        "off-vertex planes": cone.off_vertex_ok,
        "q+1 conic points": len(cone.conic_points) == q + 1,
        "plane clause red": not cone.line_planes_ok,
        "line count": total == {2: 91, 3: 481}[q],
        "fully-radical vertex plane": vertex_lines == q * q + q + 1,
        "witness": (cone.witness or "").startswith(uncovered),
        "regulus lines radical": regulus_radical == q + 1,
        "regulus common radicals": regulus_dims == [2] * (q + 1),
    }
    broken = [name for name, ok in checks.items() if not ok]
    return not broken, (
        f"cone witness: {cone.witness}; "
        f"{vertex_lines} vertex-plane lines; "
        f"regulus: {regulus_radical} radical lines, common radical dims {regulus_dims}"
        + (f"; wrong: {', '.join(broken)}" if broken else "")
    )


def _t8_verdict(field):
    # symplectic, with all degrees 4
    geom = build_geometry(catalog_form("T8", field))
    lines_ok = list(geom.lines) == expected_polar_lines("T8", field)
    degrees = sorted({geom.degrees[pt] for pt in geom.points})
    return lines_ok and degrees == [4], (
        f"{len(geom.lines)} lines {'match' if lines_ok else 'differ from'} "
        f"the polar lines, degrees {degrees}"
    )


def _t9_verdict(field):
    # split Cayley hexagon statistics
    stats = hexagon_check(build_geometry(catalog_form("T9", field)))
    want = (63, 63, 3, 3, 12, 6) if field.p == 2 else (364, 364, 4, 4, 12, 6)
    return stats.as_tuple() == want, f"stats {stats.as_tuple()}, want {want}"


def _t11_verdict(tag, field, lam):
    h = catalog_form(tag, field, param=lam)
    report = t11_structure_check(build_geometry(h), h)
    return report.passed, (
        f"pole set {report.pole_set_ok}, unique degree-4 point "
        f"{report.unique_degree4_ok}, partition {report.partition_ok}"
        + (f"; {report.witness}" if report.witness else "")
    )


def test_criterion_5_rank_7_reproductions():
    verdicts = []
    for p in (2, 3):
        field = GF(p)
        for tag, verdict in (
            ("T5", _t5_verdict),
            ("T6", _t6_verdict),
            ("T7", _t7_verdict),
            ("T8", _t8_verdict),
            ("T9", _t9_verdict),
        ):
            verdicts.append((f"{tag}/gf({p})", *verdict(field)))
    for tag, field, lam in (("T11_2", GF(2), 1), ("T11_1", GF(3), 2)):
        verdicts.append((f"{tag}/gf({field.p})", *_t11_verdict(tag, field, lam)))
    failing = []
    for name, passed, detail in verdicts:
        message = acceptance_line(5, name, passed, detail)
        if not passed:
            failing.append(message)
    assert not failing, "; ".join(failing)


def test_criterion_6_variety_zero_sets():
    failures = []
    instances = [
        (tag, field, lam)
        for tag, field, lam in desk_instances((GF(2), GF(3), GF(7)))
        if (field == GF(7)) == (tag == "T12")
    ]
    for tag, field, lam in instances:
        h = catalog_form(tag, field, param=lam)
        if h.n % 2 == 0:
            continue
        result = pole_variety(h)
        if result.all_points:
            continue
        report = enumerate_poles(h, field)
        for u, deg in zip(report.points, report.degrees):
            if (result.g.evaluate(u) == field.zero) != (deg >= 1):
                failures.append((tag, field.p, u))
                break
    for p in (2, 3):
        field = GF(p)
        h = TriForm.from_terms(5, field, [(1, 2, 3, 1), (3, 4, 5, 1)])
        result = pole_variety(h)
        report = enumerate_poles(h, field)
        for u, deg in zip(report.points, report.degrees):
            if (result.g.evaluate(u) == field.zero) != (deg >= 1):
                failures.append(("chain", p, u))
                break
    record(6, "variety equals brute-force pole set", not failures, detail=str(failures[:3]))


def test_criterion_7_reducible_chains():
    field = GF(3)
    ok = True
    for n, factors in ((5, "u3"), (7, "u3*u5"), (9, "u3*u5*u7")):
        h = cch_hyperplane(n, field)
        result = pole_variety(h)
        want = parse_poly(factors, n, field)
        if equal_up_to_scalar(result.g, want) is None:
            ok = False
            continue
        report = enumerate_poles(h, field)
        for u, deg in zip(report.points, report.degrees):
            if (want.evaluate(u) == field.zero) != (deg >= 1):
                ok = False
                break
    record(7, "chained hyperplane varieties", ok)


def test_criterion_8_rank_gap():
    field = GF(2)
    triples = list(itertools.combinations(range(1, 5), 3))
    ranks = set()
    for mask in range(1, 16):
        coeffs = {t: 1 for i, t in enumerate(triples) if (mask >> i) & 1}
        ranks.add(TriForm(4, field, coeffs).rank())
    record(8, "rank gap on GF(2)^4", ranks == {3}, detail=f"ranks={sorted(ranks)}")


def test_criterion_9_fingerprint_invariance():
    rng = random.Random(0xBEEF)
    failures = []
    for tag, field, lam in desk_instances((GF(2), GF(3), GF(7))):
        if field == GF(2) and tag not in ("T10_2", "T11_2"):
            continue  # characteristic-2 rows only; the rest run over GF(3)
        if field == GF(7) and tag != "T12":
            continue
        if tag == "T12":
            continue  # covered by the scale clause below at GF(7)
        h = catalog_form(tag, field, param=lam)
        base = fingerprint(h, field)
        for _ in range(20):
            g = random_invertible(field, h.n, rng)
            if fingerprint(h.pullback(g), field) != base:
                failures.append((tag, field.p, "pullback"))
                break
        for c in (2, field.p - 1):
            if c % field.p and fingerprint(h.scale(c), field) != base:
                failures.append((tag, field.p, f"scale {c}"))
    # near equivalence of the hexagonal rows: scaling by a non-cube
    f7 = GF(7)
    budget = 10**6
    if fingerprint(catalog_form("T9", f7), f7, budget=budget) != fingerprint(
        catalog_form("T12", f7, param=2), f7, budget=budget
    ):
        failures.append(("T12", 7, "scale"))
    record(9, "fingerprint invariance", not failures, detail=str(failures[:3]))


def test_rank_column_against_catalog():
    """Every instantiable catalog row reproduces its rank."""
    from polegeom.forms import CATALOG_RANKS

    ok = all(
        catalog_form(tag, field, param=lam).rank() == CATALOG_RANKS[tag]
        for tag, field, lam in desk_instances((GF(2), GF(3), GF(7), QQ))
    )
    record("1b", "catalog rank column", ok)


def test_radical_system_solution_spaces():
    """Solution spaces of the recomputed radical systems match the fixture
    spans over alternate admissible fields as well."""
    from polegeom.tables import compare_system

    checks = [
        ("T1", GF(2), None),
        ("T2", GF(3), None),
        ("T3", GF(2), None),
        ("T4", GF(3), None),
        ("T10_1", GF(3), 2),
        ("T10_2", GF(2), 1),
        ("T5", GF(2), None),
        ("T6", GF(3), None),
        ("T7", GF(2), None),
        ("T8", GF(3), None),
        ("T9", GF(2), None),
        ("T11_1", GF(3), 2),
        ("T11_2", GF(2), 1),
    ]
    bad = [
        (tag, field.p)
        for tag, field, lam in checks
        if compare_system(tag, field, lam) is not None
    ]
    record("1c", "radical systems over prime fields", not bad, detail=str(bad))
