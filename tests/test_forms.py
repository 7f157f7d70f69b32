"""Trilinear forms: evaluation, radical/rank, pullback, the catalog."""

import itertools
import random
import re

import pytest

from polegeom.fields import GF, QQ
from polegeom.forms import (
    CATALOG_RANKS,
    CatalogConditionError,
    TriForm,
    catalog_form,
)
from polegeom.linalg import Matrix
from polegeom.projective import wedge2_coordinates
from conftest import desk_instances, random_invertible


def test_catalog_t1_coeffs():
    h = catalog_form("T1", GF(2), n=6)
    assert h.coeffs == {(1, 2, 3): 1}
    assert h.n == 6


def test_catalog_t10_2_char2_vanishing_term():
    # lam = 1 makes the lam^2+1 coefficient vanish in characteristic 2
    h = catalog_form("T10_2", GF(2), n=6, param=1)
    assert (4, 5, 6) not in h.coeffs
    assert h.coeffs[(1, 2, 6)] == 1
    assert h.coeffs[(1, 5, 6)] == 1
    assert h.coeffs[(2, 4, 6)] == 1  # -1 == 1 mod 2


def test_catalog_condition_errors():
    with pytest.raises(CatalogConditionError):
        catalog_form("T10_1", GF(3), param=1)  # 1 is a square mod 3
    with pytest.raises(CatalogConditionError):
        catalog_form("T10_2", GF(3), param=1)  # wrong characteristic
    with pytest.raises(CatalogConditionError):
        catalog_form("T12", GF(3), param=2)  # cubing is onto mod 3
    with pytest.raises(ValueError):
        catalog_form("T9", GF(2), n=5)  # below the rank
    takes = re.escape(
        "takes a parameter exactly when it is one of "
        "('T10_1', 'T10_2', 'T11_1', 'T11_2', 'T12')"
    )
    with pytest.raises(ValueError, match=f"^T9 {takes}$"):
        catalog_form("T9", GF(2), param=1)
    with pytest.raises(ValueError, match=f"^T12 {takes}$"):
        catalog_form("T12", GF(7))
    with pytest.raises(ValueError, match=r"^unknown type tag 'T99'$"):
        catalog_form("T99", GF(2))


def test_evaluate_form_signs():
    h = catalog_form("T1", GF(5))
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert h.evaluate(e1, e2, e3) == 1
    assert h.evaluate(e2, e1, e3) == 4  # antisymmetry
    assert h.evaluate(e1, e1, e3) == 0  # repeated argument


def test_trilinearity_random():
    rng = random.Random(11)
    h = catalog_form("T9", GF(7))
    F = GF(7)
    for _ in range(25):
        x = [rng.randrange(7) for _ in range(7)]
        y = [rng.randrange(7) for _ in range(7)]
        z = [rng.randrange(7) for _ in range(7)]
        w = [rng.randrange(7) for _ in range(7)]
        c = rng.randrange(1, 7)
        lhs = h.evaluate([F.add(a, F.mul(c, b)) for a, b in zip(x, w)], y, z)
        rhs = F.add(h.evaluate(x, y, z), F.mul(c, h.evaluate(w, y, z)))
        assert lhs == rhs
        assert h.evaluate(x, y, z) == F.neg(h.evaluate(y, x, z))
        assert h.evaluate(x, y, z) == h.evaluate(z, x, y)


def test_radical_t2_embedded():
    h = catalog_form("T2", GF(2), n=6)
    radical, rank = h.radical_and_rank()
    assert rank == 5
    assert radical == [(0, 0, 0, 0, 0, 1)]


def test_radical_t9_trivial():
    radical, rank = catalog_form("T9", GF(3)).radical_and_rank()
    assert rank == 7
    assert radical == []


def test_radical_t1_n6():
    radical, rank = catalog_form("T1", GF(3), n=6).radical_and_rank()
    assert rank == 3
    assert radical == [
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ]


def test_catalog_ranks_match():
    for tag, field, lam in desk_instances((GF(2), GF(3), GF(7), QQ)):
        h = catalog_form(tag, field, param=lam)
        assert h.rank() == CATALOG_RANKS[tag], (tag, field)


def test_pullback_identity():
    h = catalog_form("T5", GF(3))
    assert h.pullback(Matrix(GF(3), [[int(i == j) for j in range(7)] for i in range(7)])) == h


def test_pullback_swap_permutation():
    F = GF(5)
    h = catalog_form("T1", F, n=6)
    rows = [[0] * 6 for _ in range(6)]
    perm = {0: 3, 3: 0, 1: 1, 2: 2, 4: 4, 5: 5}
    for a, b in perm.items():
        rows[b][a] = 1
    g = Matrix(F, rows)
    back = h.pullback(g)
    assert set(back.coeffs) == {(2, 3, 4)}
    assert back.coeffs[(2, 3, 4)] in (1, 4)


def test_pullback_rank_invariant():
    rng = random.Random(3001)
    F = GF(3)
    for tag, field, lam in desk_instances((F,)):
        h = catalog_form(tag, F, param=lam)
        for _ in range(6):
            g = random_invertible(F, h.n, rng)
            assert h.pullback(g).rank() == h.rank()


def test_pullback_requires_invertible():
    h = catalog_form("T1", GF(2))
    with pytest.raises(ValueError):
        h.pullback(Matrix(GF(2), [[0] * 3] * 3))


def test_scale():
    F = GF(7)
    h = catalog_form("T9", F)
    s = h.scale(3)
    assert set(s.coeffs) == set(h.coeffs)
    assert h.scale(1) == h
    assert s.scale(F.inv(3)) == h
    with pytest.raises(ValueError):
        h.scale(0)


def test_t12_is_scaled_t9():
    F = GF(7)
    t9 = catalog_form("T9", F)
    t12 = catalog_form("T12", F, param=2)
    assert t12 == t9.scale(2)


def test_wedge2_coordinates():
    F = GF(5)
    w = wedge2_coordinates(F, (1, 0, 0), (0, 1, 0))
    assert w == (1, 0, 0)  # pairs (1,2), (1,3), (2,3)
    a = wedge2_coordinates(F, (1, 1, 0), (0, 1, 1))
    assert a == (1, 1, 1)
    b = wedge2_coordinates(F, (0, 1, 1), (1, 1, 0))
    assert b == tuple(F.neg(x) for x in a)
    with pytest.raises(ValueError):
        wedge2_coordinates(F, (1, 2, 0), (2, 4, 0))


def test_rank_gap_exhaustive_gf2_dim4():
    """All 15 nonzero forms on GF(2)^4 have rank exactly 3."""
    F = GF(2)
    triples = list(itertools.combinations(range(1, 5), 3))
    ranks = set()
    for mask in range(1, 16):
        coeffs = {t: 1 for i, t in enumerate(triples) if (mask >> i) & 1}
        h = TriForm(4, F, coeffs)
        ranks.add(h.rank())
    assert ranks == {3}


def test_form_file_roundtrip():
    for tag, field, lam in desk_instances((GF(2), GF(3), QQ)):
        h = catalog_form(tag, field, param=lam)
        text = h.to_text()
        back = TriForm.from_text(text)
        assert back == h
        assert back.to_text() == text


def test_form_file_format_shape():
    h = catalog_form("T3", GF(2))
    text = h.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n = 6"
    assert lines[1] == "field = gf(2)"
    assert lines[2] == "1 2 3 1"
    assert lines[3] == "4 5 6 1"


def test_form_file_errors():
    with pytest.raises(ValueError):
        TriForm.from_text("1 2 3 1\n")
    with pytest.raises(ValueError):
        TriForm.from_text("n = 4\nfield = gf(2)\n1 2\n")


def test_form_file_denominator_divisible_by_p():
    with pytest.raises(ValueError, match="coefficient 1/5 of 1 2 3 has a denominator divisible by 5"):
        TriForm.from_text("n = 5\nfield = gf(5)\n1 2 3 1/5\n")
    with pytest.raises(ValueError, match="coefficient 2/0 of 1 2 3 has a denominator of 0"):
        TriForm.from_text("n = 5\nfield = q\n1 2 3 2/0\n")


def test_from_terms_merges_signs():
    F = GF(7)
    h = TriForm.from_terms(3, F, [(1, 6, 2, 1)][:0] + [(2, 1, 3, 1), (1, 2, 3, 1)])
    # 213 = -123, so the sum cancels... 213+123 = 0
    assert h.is_zero()
    g = TriForm.from_terms(3, F, [(1, 6, 2, 1)][:0] + [(3, 1, 2, 1)])
    assert g.coeffs == {(1, 2, 3): 1}  # cyclic, even permutation


def test_support():
    assert TriForm.from_terms(6, GF(2), [(4, 5, 6, 1)]).support() == (4, 5, 6)
    assert TriForm.from_terms(7, GF(3), [(6, 2, 5, 1), (5, 6, 7, 2)]).support() == (2, 5, 6, 7)
