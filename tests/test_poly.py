"""Sparse polynomial ring: arithmetic, stripping, evaluation."""

import random

import pytest

from conftest import strip_variable_power
from polegeom.fields import GF, QQ
from polegeom.poly import MultiPoly, equal_up_to_scalar, parse_poly, render_poly


def P(text, nvars=3, field=QQ):
    return parse_poly(text, nvars, field)


def random_poly(rng, nvars, field, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        if field.is_finite:
            coeff = rng.randrange(field.order)
        else:
            coeff = rng.randint(-5, 5)
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, field.zero), field.of(coeff))
    return MultiPoly(nvars, field, terms)


def test_product_difference_of_squares():
    a = P("u1+u2") * P("u1-u2")
    assert a == P("u1^2-u2^2")


def test_additive_identity():
    a = P("u1*u3+2*u2")
    assert a + MultiPoly.zero(3, QQ) == a


def test_frobenius_gf2():
    F = GF(2)
    a = parse_poly("u1+u2", 3, F)
    assert a * a == parse_poly("u1^2+u2^2", 3, F)


def test_strip_variable_power():
    e, cof = strip_variable_power(P("u3^2*u1+u3^2*u2"), 3)
    assert (e, cof) == (2, P("u1+u2"))
    e, cof = strip_variable_power(P("u1+u2"), 3)
    assert (e, cof) == (0, P("u1+u2"))
    e, cof = strip_variable_power(P("u3^3"), 3)
    assert (e, cof) == (3, P("1"))
    with pytest.raises(ValueError):
        strip_variable_power(MultiPoly.zero(3, QQ), 1)


def test_evaluate_quadric_row():
    F = GF(2)
    g = parse_poly(
        "u7^2-u3*u6-u2*u5-u1*u4", 7, F
    )
    e7 = (0, 0, 0, 0, 0, 0, 1)
    e1 = (1, 0, 0, 0, 0, 0, 0)
    assert g.evaluate(e7) == 1
    assert g.evaluate(e1) == 0
    assert P("u3", nvars=5).evaluate((1, 1, 0, 1, 1)) == 0


def test_equal_up_to_scalar():
    F5 = GF(5)
    a = parse_poly("2*u1*u2", 3, F5)
    b = parse_poly("u1*u2", 3, F5)
    assert equal_up_to_scalar(a, b) == 2
    assert equal_up_to_scalar(P("u1"), P("u2")) is None
    c = P("u3*u2", nvars=5)
    d = P("3*u3*u2", nvars=5)
    assert equal_up_to_scalar(c, d) == QQ.of("1/3")
    z = MultiPoly.zero(3, QQ)
    assert equal_up_to_scalar(z, z) == 1
    assert equal_up_to_scalar(z, P("u1")) is None


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
def test_ring_axioms_random(field):
    rng = random.Random(31337)
    for _ in range(60):
        a = random_poly(rng, 4, field)
        b = random_poly(rng, 4, field)
        c = random_poly(rng, 4, field)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.zero(4, field)


def test_strip_roundtrip():
    rng = random.Random(7)
    u3 = P("u3", 4)
    for _ in range(40):
        a = random_poly(rng, 4, QQ)
        if a.is_zero():
            continue
        e, cof = strip_variable_power(a, 3)
        back = cof
        for _ in range(e):
            back = back * u3
        assert back == a
        assert strip_variable_power(cof, 3)[0] == 0 or cof.is_zero()


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(5150)
    F = GF(7)
    for _ in range(40):
        a = random_poly(rng, 5, F)
        b = random_poly(rng, 5, F)
        x = tuple(rng.randrange(7) for _ in range(5))
        assert (a * b).evaluate(x) == F.mul(a.evaluate(x), b.evaluate(x))
        assert (a + b).evaluate(x) == F.add(a.evaluate(x), b.evaluate(x))


def test_render_parse_roundtrip():
    rng = random.Random(123)
    for field in (GF(3), QQ):
        for _ in range(30):
            a = random_poly(rng, 4, field)
            assert parse_poly(render_poly(a), 4, field) == a


def test_render_style():
    assert render_poly(P("u3^2*u1 + 2*u2")) == "u1*u3^2 + 2*u2"
    assert render_poly(MultiPoly.zero(2, QQ)) == "0"
    assert render_poly(P("-u1+u2")) == "u2 - u1" or render_poly(P("-u1+u2")) == "-u1 + u2"


def test_substitute_and_drop():
    a = P("u1*u3+u2", nvars=3)
    b = a.substitute(3, 2)
    assert b == P("2*u1+u2", nvars=3)
    c = b.drop_variable(3)
    assert c == P("2*u1+u2", nvars=2)
    with pytest.raises(ValueError):
        a.drop_variable(3)


def test_mismatch_errors():
    with pytest.raises(ValueError):
        P("u1", nvars=2) + P("u1", nvars=3)
    with pytest.raises(Exception):
        parse_poly("u1", 2, GF(2)) + parse_poly("u1", 2, GF(3))
