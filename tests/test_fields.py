"""Exact field arithmetic and the small irreducibility predicates."""

from fractions import Fraction

import pytest

from polegeom.fields import (
    GF,
    QQ,
    QUAD_PURE,
    QUAD_SHIFTED,
    FieldError,
    cubic_irreducible,
    parse_field,
    quadratic_irreducible,
)


def test_division_gf7():
    F = GF(7)
    assert F.div(1, 3) == 5
    assert F.mul(3, 5) == 1


def test_rational_add():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_gf2_identity():
    F = GF(2)
    assert F.mul(1, 1) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)


def test_non_prime_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(FieldError):
            GF(bad)


def test_canonical_residues():
    F = GF(7)
    assert F.of(-1) == 6
    assert F.of(Fraction(1, 3)) == 5
    assert F.of("10") == 3
    assert F.of("1/3") == 5


def test_parse_field():
    assert parse_field("gf(7)") == GF(7)
    assert parse_field("q") == QQ
    assert parse_field("GF(2)") == GF(2)
    with pytest.raises(FieldError):
        parse_field("gf(6)")
    with pytest.raises(FieldError):
        parse_field("r")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    F = GF(p)
    elems = list(range(p))
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        if a != 0:
            assert F.mul(a, F.inv(a)) == F.one
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_quadratic_gf2():
    assert quadratic_irreducible(GF(2), QUAD_SHIFTED, 1) is True
    assert quadratic_irreducible(GF(2), QUAD_SHIFTED, 0) is False


def test_quadratic_gf7_nonsquare():
    # squares mod 7 by exhaustion: {0, 1, 2, 4}
    squares = {(x * x) % 7 for x in range(7)}
    assert squares == {0, 1, 2, 4}
    assert 3 not in squares
    assert quadratic_irreducible(GF(7), QUAD_PURE, 3) is True


def test_quadratic_rational_square():
    assert quadratic_irreducible(QQ, QUAD_PURE, 4) is False
    assert quadratic_irreducible(QQ, QUAD_PURE, 2) is True
    assert quadratic_irreducible(QQ, QUAD_PURE, Fraction(4, 9)) is False
    assert quadratic_irreducible(QQ, QUAD_PURE, -1) is True


def test_cubic_gf7():
    cubes = {(x**3) % 7 for x in range(7)}
    assert cubes == {0, 1, 6}
    assert cubic_irreducible(GF(7), 2) is True
    assert cubic_irreducible(GF(7), 6) is False


def test_cubic_trivial_roots():
    assert cubic_irreducible(GF(2), 1) is False
    assert cubic_irreducible(QQ, 8) is False
    assert cubic_irreducible(QQ, 2) is True
    assert cubic_irreducible(QQ, Fraction(-27, 8)) is False
    assert cubic_irreducible(QQ, Fraction(2, 3)) is True


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratic_matches_root_search(p):
    """t^2 - lam is reducible exactly when lam is a square, checked by
    exhaustive residue search."""
    F = GF(p)
    for lam in range(p):
        has_root = any((t * t - lam) % p == 0 for t in range(p))
        assert quadratic_irreducible(F, QUAD_PURE, lam) == (not has_root)
        has_root_shifted = any((t * t + lam * t + 1) % p == 0 for t in range(p))
        assert quadratic_irreducible(F, QUAD_SHIFTED, lam) == (not has_root_shifted)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cubic_matches_root_search(p):
    F = GF(p)
    for mu in range(p):
        has_root = any((t**3 - mu) % p == 0 for t in range(p))
        assert cubic_irreducible(F, mu) == (not has_root)


def test_scalar_format_roundtrip():
    F = GF(5)
    for a in range(F.p):
        assert F.of(F.format(a)) == a
    for a in (Fraction(3, 7), Fraction(-2), Fraction(0)):
        assert QQ.of(QQ.format(a)) == a
