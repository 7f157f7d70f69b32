"""Exact matrices: rank/kernel, principal deletion, and the Pfaffian and
determinant expansions, checked against each other and against the
Leibniz sum over permutations."""

import itertools
import random

import pytest

from conftest import (
    multipoly_pfaffian,
    principal_delete,
    random_alternating,
    random_invertible,
)
from polegeom.fields import GF, QQ
from polegeom.forms import catalog_form
from polegeom.linalg import Matrix, PolyMatrix, SparseAlternating, determinant, pfaffian
from polegeom.poles import contraction_matrix, symbolic_matrix
from polegeom.poly import MultiPoly, parse_poly


def test_zero_matrix_rank():
    m = Matrix(GF(5), [[0] * 3] * 3)
    rank, kernel = m.rank_and_kernel()
    assert rank == 0
    assert len(kernel) == 3


def test_identity_rank():
    m = Matrix(QQ, [[int(i == j) for j in range(4)] for i in range(4)])
    rank, kernel = m.rank_and_kernel()
    assert rank == 4
    assert kernel == []


def test_t1_contraction_at_e1():
    # contraction of the rank-3 basic form at u = e1 has rank 2, kernel <e1>
    h = catalog_form("T1", GF(3))
    m = contraction_matrix(h, (1, 0, 0))
    assert m.rows == ((0, 0, 0), (0, 0, 1), (0, 2, 0))
    rank, kernel = m.rank_and_kernel()
    assert rank == 2
    assert kernel == [(1, 0, 0)]


def test_kernel_annihilates():
    rng = random.Random(4242)
    for field in (GF(7), QQ):
        for _ in range(25):
            rows = [
                [rng.randint(-4, 4) for _ in range(5)] for _ in range(rng.randint(1, 6))
            ]
            m = Matrix(field, rows)
            rank, kernel = m.rank_and_kernel()
            assert rank + len(kernel) == 5
            for v in kernel:
                assert all(x == field.zero for x in m.mul_vec(v))


def test_principal_delete_2x2():
    F = QQ
    a = parse_poly("u1", 2, F)
    m = PolyMatrix(F, 2, [[MultiPoly.zero(2, F), a], [-a, MultiPoly.zero(2, F)]])
    d = principal_delete(m, 1)
    assert d.size == 1
    assert d.entry(0, 0).is_zero()
    with pytest.raises(IndexError):
        principal_delete(m, 3)


def test_principal_delete_t9_block():
    sym = symbolic_matrix(catalog_form("T9", QQ))
    top = principal_delete(sym, 7)
    assert top.size == 6
    for i in range(6):
        for j in range(6):
            assert top.entry(i, j) == sym.entry(i, j)


def test_pfaffian_2x2():
    a = {1: 3, 4: -1}  # 3*u1 - u2, with u_v keyed 1 << 2*(v-1)
    assert pfaffian(SparseAlternating([{1: a}, {}])) == a


def test_pfaffian_4x4_classic():
    # Pf = a12*a34 - a13*a24 + a14*a23
    F = GF(7)
    rows = [[0] * 4 for _ in range(4)]
    rows[0][1], rows[1][0] = 1, 6
    rows[2][3], rows[3][2] = 1, 6
    assert pfaffian(Matrix(F, rows)) == 1


def test_pfaffian_odd_is_zero():
    m = random_alternating(GF(5), 5, random.Random(1))
    assert pfaffian(m) == 0
    # M_u of the rank-3 form on n = 3, with u_v keyed 1 << (v-1)
    assert pfaffian(SparseAlternating([{1: {4: 1}, 2: {2: -1}}, {2: {1: 1}}, {}])) == {}
    sym = symbolic_matrix(catalog_form("T1", QQ))
    assert determinant(sym).is_zero()


def test_pfaffian_rejects_non_alternating():
    with pytest.raises(ValueError):
        pfaffian(Matrix(GF(3), [[int(i == j) for j in range(4)] for i in range(4)]))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(777)
    for field in (GF(7), QQ):
        for n in (2, 3, 4, 5, 6):
            for _ in range(10):
                m = random_alternating(field, n, rng)
                pf = pfaffian(m)
                assert field.mul(pf, pf) == determinant(m)


def _sparse_and_multipoly(field, size, nvars, rng):
    """A seeded alternating matrix of linear forms in nvars variables, as a
    SparseAlternating (u_v keyed 1 << 4*(v-1)) and as a PolyMatrix."""
    F = field
    upper = [{} for _ in range(size)]
    rows = [[MultiPoly.zero(nvars, F)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            coeffs = [F.of(rng.randint(-3, 3) if rng.random() < 0.6 else 0) for _ in range(nvars)]
            if any(coeffs):
                upper[i][j] = {1 << 4 * v: c for v, c in enumerate(coeffs) if c}
            units = [tuple(int(w == v) for w in range(nvars)) for v in range(nvars)]
            entry = MultiPoly(nvars, F, {units[v]: c for v, c in enumerate(coeffs)})
            rows[i][j], rows[j][i] = entry, -entry
    return SparseAlternating(upper), PolyMatrix(F, nvars, rows)


def _unpacked(terms, field, nvars):
    """Packed terms {key: c}, 4 bits per exponent, as a MultiPoly."""
    return MultiPoly(
        nvars,
        field,
        {tuple(k >> 4 * v & 15 for v in range(nvars)): field.of(c) for k, c in terms.items()},
    )


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_sparse_pfaffian_matches_multipoly_and_squares_to_determinant(field):
    """The sparse expansion on ints equals the first-row expansion in
    MultiPoly arithmetic, and its square is the determinant, for seeded
    alternating matrices of linear forms of every size up to 6."""
    rng = random.Random(f"sparse/{field!r}")
    for size in range(7):
        for _ in range(3):
            sparse, poly = _sparse_and_multipoly(field, size, 3, rng)
            pf = _unpacked(pfaffian(sparse), field, 3)
            assert pf == multipoly_pfaffian(poly)
            assert pf * pf == determinant(poly)


def test_char2_alternating():
    # in characteristic 2 alternating means symmetric with zero diagonal
    F = GF(2)
    rows = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    m = Matrix(F, rows)
    assert m.is_alternating()
    pf = pfaffian(m)
    assert F.mul(pf, pf) == determinant(m)


def test_determinant_2x2_symbolic():
    F = QQ
    m = PolyMatrix(
        F,
        4,
        [
            [parse_poly("u1", 4, F), parse_poly("u2", 4, F)],
            [parse_poly("u3", 4, F), parse_poly("u4", 4, F)],
        ],
    )
    assert determinant(m) == parse_poly("u1*u4-u2*u3", 4, F)


def test_determinant_matches_on_scalars_and_constants():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = Matrix(QQ, rows)
        poly_m = PolyMatrix(
            QQ, 1, [[MultiPoly.constant(1, QQ, x) for x in row] for row in rows]
        )
        det_poly = determinant(poly_m)
        expected = det_poly.evaluate((0,))
        assert determinant(m) == expected


def _leibniz(field, rows):
    """The determinant as the sum over permutations, signed by inversions."""
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, rows[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = field.sub(total, term) if inversions % 2 else field.add(total, term)
    return total


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=repr)
def test_determinant_matches_leibniz(field):
    rng = random.Random(f"leibniz/{field!r}")
    for n in range(0, 6):
        for _ in range(6):
            rows = [[field.of(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            want = _leibniz(field, rows)
            assert determinant(Matrix(field, rows)) == want
            consts = [[MultiPoly.constant(2, field, x) for x in row] for row in rows]
            assert determinant(PolyMatrix(field, 2, consts)) == MultiPoly.constant(
                2, field, want
            )


def test_empty_pfaffian_and_determinant_are_one():
    for field in (GF(2), GF(5), QQ):
        one = MultiPoly.constant(3, field, 1)
        for f in (pfaffian, determinant):
            assert f(Matrix(field, [])) == field.one
        assert pfaffian(SparseAlternating([])) == {0: 1}
        assert determinant(PolyMatrix(field, 3, [])) == one


def test_gf_pfaffian_is_a_residue():
    # the integer expansion -a13*a24 = -1 comes back as 4 in GF(5)
    F = GF(5)
    rows = [[0] * 4 for _ in range(4)]
    for i, j in ((0, 2), (1, 3)):
        rows[i][j], rows[j][i] = 1, 4
    assert pfaffian(Matrix(F, rows)) == 4


def test_pfaffian_rejects_other_types():
    with pytest.raises(TypeError, match="unsupported matrix type list"):
        pfaffian([[0, 1], [-1, 0]])
    with pytest.raises(TypeError, match="unsupported matrix type PolyMatrix"):
        pfaffian(symbolic_matrix(catalog_form("T9", QQ)))
    with pytest.raises(ValueError, match="pfaffian needs a square matrix"):
        pfaffian(Matrix(GF(3), [[0, 1, 2]]))


def test_multipoly_truth_is_nonzero():
    assert not MultiPoly.zero(2, GF(3))
    assert MultiPoly.constant(2, GF(3), 2)
    assert parse_poly("u1*u2", 2, QQ)


def test_alternating_rank_is_even():
    for p in (2, 3):
        F = GF(p)
        rng = random.Random(p)
        for _ in range(30):
            m = random_alternating(F, 6, rng)
            assert m.rank() % 2 == 0


def test_random_invertible_is_invertible():
    rng = random.Random(55)
    for field in (GF(2), GF(3), QQ):
        g = random_invertible(field, 5, rng)
        assert g.rank() == 5
