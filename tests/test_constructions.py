"""The hyperplane builders and their pole-geometry behavior."""

import pytest

from conftest import upper_radical_by_wedge
from polegeom.constructions import (
    BilinearAltForm,
    block_decompose,
    cch_hyperplane,
    expansion,
    reducible_join,
    trivial_extension,
)
from polegeom.fields import GF, QQ
from polegeom.forms import TriForm, catalog_form
from polegeom.poles import (
    enumerate_poles,
    enumerate_upper_radical,
    pole_variety,
    point_degree,
)
from polegeom.poly import equal_up_to_scalar, parse_poly
from polegeom.projective import (
    num_projective_points,
    pair_list,
    projective_point_at,
    span_points,
    subspace_rref,
    wedge2_coordinates,
)


def test_trivial_extension_matches_catalog():
    base = catalog_form("T1", GF(2))
    ext = trivial_extension(base, 3)
    assert ext == catalog_form("T1", GF(2), n=6)
    with pytest.raises(ValueError):
        trivial_extension(base, 0)


def test_trivial_extension_preserves_rank():
    for tag in ("T1", "T2", "T4", "T9"):
        h = catalog_form(tag, GF(3))
        ext = trivial_extension(h, 2)
        assert ext.rank() == h.rank()
        radical, _ = ext.radical_and_rank()
        assert len(radical) == (h.n - h.rank()) + 2


def test_trivial_extension_degree_law():
    """Off the new radical, degrees rise by exactly the extension size."""
    field = GF(2)
    h0 = catalog_form("T9", field)
    extra = 1
    ext = trivial_extension(h0, extra)
    for i in range(num_projective_points(2, 8)):
        u = projective_point_at(2, 8, i)
        head = u[:7]
        if all(x == 0 for x in head):
            delta, _ = point_degree(ext, u)
            assert delta == 7  # new radical points have degree n-1
            continue
        d_ext, _ = point_degree(ext, u)
        d_base, _ = point_degree(h0, head)
        assert d_ext == d_base + extra


def test_expansion_t8():
    field = GF(2)
    h0 = BilinearAltForm(7, field, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    h = expansion(h0, 1)
    assert h == catalog_form("T8", field)


def test_expansion_t2():
    field = GF(3)
    h0 = BilinearAltForm(5, field, {(2, 3): 1, (4, 5): 1})
    h = expansion(h0, 1)
    assert h == catalog_form("T2", field)


def test_expansion_direction_validation():
    field = GF(2)
    h0 = BilinearAltForm(7, field, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    with pytest.raises(ValueError):
        expansion(h0, 2)  # already used
    with pytest.raises(ValueError):
        expansion(h0, 9)  # out of range


def test_expansion_last_direction_convention():
    field = QQ
    h0 = BilinearAltForm(5, field, {(1, 2): 1, (3, 4): 1})
    h = expansion(h0, 5)
    assert set(h.coeffs) == {(1, 2, 5), (3, 4, 5)}
    assert h.coeffs[(1, 2, 5)] == field.one


def test_symplectic_expansion_pole_geometry():
    """Poles of the expanded form fill the bilinear carrier hyperplane and
    its radical lines are exactly the totally isotropic lines there."""
    field = GF(2)
    h0 = BilinearAltForm(7, field, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    h = expansion(h0, 1)
    report = enumerate_poles(h, field)
    for u, deg in zip(report.points, report.degrees):
        if u[0] == 0:
            assert deg == 4  # n - 3
        else:
            assert deg == 0
    lines = enumerate_upper_radical(h, field)
    for line in lines:
        x, y = line
        assert x[0] == 0 and y[0] == 0
        assert h0.evaluate(x, y) == field.zero
    # every totally isotropic line of the carrier occurs
    count = 0
    for line in upper_radical_by_wedge(h, field):
        count += 1
    assert len(lines) == count == 315


def test_trivial_extension_upper_radical_description():
    """Radical lines of an extension either meet the new radical point or
    project onto radical lines of the base form."""
    field = GF(2)
    h0 = catalog_form("T9", field)
    ext = trivial_extension(h0, 1)
    base_lines = set(enumerate_upper_radical(h0, field))
    e8 = (0,) * 7 + (1,)

    def projects_to_base_line(line):
        shadows = {pt[:7] for pt in span_points(field, list(line))}
        if any(all(x == 0 for x in s) for s in shadows):
            return False  # collapses onto the new direction
        reps = {s for s in shadows if any(s)}
        if len(reps) == 1:
            return False  # projection is a single point
        x, y = sorted(reps)[:2]
        from polegeom.projective import PluckerLine

        return PluckerLine.from_pair(field, x, y) in base_lines

    expected = set()
    from polegeom.poles import _line_bases

    for line in _line_bases(field.p, 8):
        if e8 in span_points(field, list(line)) or projects_to_base_line(line):
            expected.add(line)
    got = set(enumerate_upper_radical(ext, field))
    assert got == expected
    assert len(got) == 127 + 4 * len(base_lines)


def test_expansion_rank5_pole_geometry():
    # rank-5 symplectic expansion at n = 5: poles fill the carrier
    # hyperplane with degree n-3 = 2
    field = GF(3)
    h = catalog_form("T2", field)
    report = enumerate_poles(h, field)
    for u, deg in zip(report.points, report.degrees):
        assert deg == (2 if u[0] == 0 else 0)
    h0 = BilinearAltForm(5, field, {(2, 3): 1, (4, 5): 1})
    for line in enumerate_upper_radical(h, field):
        x, y = line
        assert x[0] == 0 and y[0] == 0
        assert h0.evaluate(x, y) == field.zero


def test_block_decompose_t3():
    field = GF(2)
    a = catalog_form("T1", field, n=6)
    b = TriForm.from_terms(6, field, [(4, 5, 6, 1)])
    assert block_decompose(a, b) == catalog_form("T3", field)


def test_block_decompose_validation():
    field = GF(2)
    a = catalog_form("T1", field, n=6)
    with pytest.raises(ValueError):
        block_decompose(a, a)
    with pytest.raises(ValueError):
        block_decompose(a, TriForm.from_terms(6, field, [(4, 5, 6, 1)]), alpha=0)


def test_block_decompose_all_points_are_poles():
    field = GF(3)
    a = catalog_form("T1", field, n=6)
    b = TriForm.from_terms(6, field, [(4, 5, 6, 1)])
    h = block_decompose(a, b, alpha=2, beta=1)
    report = enumerate_poles(h, field)
    assert all(deg >= 1 for deg in report.degrees)


def test_block_lines_meet_both_summands():
    field = GF(2)
    h = catalog_form("T3", field)
    for line in enumerate_upper_radical(h, field):
        pts = span_points(field, list(line))
        assert any(all(x == 0 for x in pt[3:]) for pt in pts)  # meets [V0]
        assert any(all(x == 0 for x in pt[:3]) for pt in pts)  # meets [V1]


def test_block_scalars_give_same_geometry():
    field = GF(3)
    a = catalog_form("T1", field, n=6)
    b = TriForm.from_terms(6, field, [(4, 5, 6, 1)])
    base_lines = enumerate_upper_radical(block_decompose(a, b), field)
    for alpha, beta in ((2, 1), (1, 2), (2, 2)):
        h = block_decompose(a, b, alpha, beta)
        assert enumerate_upper_radical(h, field) == base_lines
        assert enumerate_poles(h, field).histogram == enumerate_poles(
            block_decompose(a, b), field
        ).histogram


def test_block_wedge_span_identity():
    """The Pluecker span of the block lines equals the combined span of the
    summand lines and the mixed-wedge space, cut to decomposable vectors."""
    field = GF(2)
    h = catalog_form("T3", field)
    lines = enumerate_upper_radical(h, field)
    lhs = subspace_rref(field, [wedge2_coordinates(field, *line) for line in lines])
    # unit wedges e_a ^ e_b, a in V_0 = <e1, e2, e3>, b in V_1 = <e4, e5, e6>
    mixed = [tuple(int(pq == (a, b)) for pq in pair_list(6)) for a in (1, 2, 3) for b in (4, 5, 6)]
    # the two summands have empty upper radicals on their own parts
    rhs = subspace_rref(field, mixed)
    assert lhs == rhs


def test_reducible_join_chain():
    field = GF(3)
    a = TriForm.from_terms(5, field, [(1, 2, 3, 1)])
    b = TriForm.from_terms(5, field, [(3, 4, 5, 1)])
    h = reducible_join(a, b)
    assert set(h.coeffs) == {(1, 2, 3), (3, 4, 5)}
    result = pole_variety(h)
    assert equal_up_to_scalar(result.g, parse_poly("u3", 5, field)) is not None


def test_reducible_join_validation():
    field = GF(3)
    a = TriForm.from_terms(7, field, [(1, 2, 3, 1)])
    b = TriForm.from_terms(7, field, [(5, 6, 7, 1)])
    with pytest.raises(ValueError):
        reducible_join(a, b)  # no shared index
    c = TriForm.from_terms(7, field, [(2, 3, 4, 1)])
    with pytest.raises(ValueError):
        reducible_join(a, c)  # shares two indices
    d = TriForm.from_terms(7, field, [(3, 4, 5, 1)])
    reducible_join(a, d)  # single shared index 3 is fine


def test_join_hyperplane_contained_in_poles():
    for p in (2, 3):
        field = GF(p)
        a = TriForm.from_terms(7, field, [(1, 2, 3, 1), (3, 4, 5, 1)])
        b = TriForm.from_terms(7, field, [(5, 6, 7, 1)])
        h = reducible_join(a, b)
        for i in range(num_projective_points(p, 7)):
            u = projective_point_at(p, 7, i)
            if u[4] == 0:  # the shared index: u5 = 0
                delta, _ = point_degree(h, u)
                assert delta >= 1


def test_cch_base_case():
    h = cch_hyperplane(5, GF(3))
    assert set(h.coeffs) == {(1, 2, 3), (3, 4, 5)}


def test_cch_chain_structure():
    h = cch_hyperplane(9, QQ)
    assert set(h.coeffs) == {(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9)}
    with pytest.raises(ValueError):
        cch_hyperplane(6, QQ)
    with pytest.raises(ValueError):
        cch_hyperplane(3, QQ)


@pytest.mark.parametrize(
    "n,factors",
    [(5, "u3"), (7, "u3*u5"), (9, "u3*u5*u7")],
)
def test_cch_variety_products(n, factors):
    field = GF(3)
    h = cch_hyperplane(n, field)
    result = pole_variety(h)
    want = parse_poly(factors, n, field)
    assert equal_up_to_scalar(result.g, want) is not None
    # pointwise double-check
    report = enumerate_poles(h, field)
    for u, deg in zip(report.points, report.degrees):
        assert (want.evaluate(u) == 0) == (deg >= 1)


def test_bilinear_form_evaluate():
    field = GF(5)
    beta = BilinearAltForm(4, field, {(1, 2): 1, (3, 4): 2})
    assert beta.evaluate((1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert beta.evaluate((0, 1, 0, 0), (1, 0, 0, 0)) == 4
    assert beta.evaluate((0, 0, 1, 0), (0, 0, 0, 1)) == 2
    assert beta.coefficient(2, 1) == 4
