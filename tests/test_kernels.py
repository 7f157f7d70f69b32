"""The GF(p) scan against a by-definition reference, and the incidence-graph
statistics against networkx."""

import itertools
import math
import random

import pytest

from conftest import random_invertible

from polegeom import kernels
from polegeom.fields import GF
from polegeom.linalg import Matrix
from polegeom.projective import num_projective_points, projective_point_at, subspace_rref


def test_backend_reports_name():
    assert kernels.BACKEND == "python"


def test_enumeration_order_matches_random_access():
    for p, n in ((2, 4), (3, 3), (5, 2)):
        # lead position ascending, then the tail as a base-p odometer
        listed = [
            (0,) * k + (1,) + tail
            for k in range(n)
            for tail in itertools.product(range(p), repeat=n - k - 1)
        ]
        assert len(listed) == num_projective_points(p, n)
        assert [projective_point_at(p, n, idx) for idx in range(len(listed))] == listed


def _alternating_cube(rng, n, p):
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if rng.random() < 0.6:
                    v = rng.randrange(p)
                    for a, b, c, s in (
                        (i, j, k, 1), (j, k, i, 1), (k, i, j, 1),
                        (j, i, k, -1), (i, k, j, -1), (k, j, i, -1),
                    ):
                        cube[a][b][c] = s * v % p
    return cube


def _reference_scan(cube, n, p):
    """The whole scan with radicals by the definition: M_u = sum_i u_i C_i
    at every point, then kernel_mod_p.  None stands for the radical of a
    point that leads no line: one whose basis has no free column (the
    first nonzero of a basis row) after the lead of u where u is zero,
    every point of degree 0 among them."""
    points, degrees, radicals = [], [], []
    for idx in range(num_projective_points(p, n)):
        u = projective_point_at(p, n, idx)
        m = [
            [sum(u[i] * cube[i][j][k] for i in range(n)) % p for k in range(n)]
            for j in range(n)
        ]
        basis = kernels.kernel_mod_p(m, p)
        lead = u.index(1)
        free = [row.index(1) for row in basis]
        points.append(u)
        degrees.append(len(basis) - 1)
        radicals.append(basis if any(c > lead and not u[c] for c in free) else None)
    return points, degrees, radicals


@pytest.mark.parametrize(
    "p,n",
    [(2, 3), (2, 5), (2, 8), (3, 4), (3, 6), (3, 7), (3, 8), (5, 4), (5, 5),
     (7, 4), (7, 5), (11, 3), (11, 4), (13, 3), (211, 3)],
)
def test_scan_matches_reference(p, n):
    rng = random.Random(1000 * p + n)
    cube = _alternating_cube(rng, n, p)
    total = num_projective_points(p, n)
    block = p ** (n - 1)  # the points with leading 1 in the first coordinate
    # an empty range, a single point, a range inside a lead block, a range
    # across blocks and the last point
    cuts = [0, 1, 1, block // 3, 2 * block // 3 + 1, total - 1, total]
    points, degrees, radicals = _reference_scan(cube, n, p)
    for want_kernels in (False, True):
        want = (points, degrees, radicals if want_kernels else None)
        assert kernels.scan(cube, n, p, 0, total, want_kernels) == want
        pieces = [
            kernels.scan(cube, n, p, lo, hi, want_kernels)
            for lo, hi in zip(cuts, cuts[1:])
        ]
        assert pieces[1] == ([], [], [] if want_kernels else None)
        for part in range(2 + want_kernels):
            assert [x for piece in pieces for x in piece[part]] == want[part]


def _random_rows(rng, nrows, ncols, p):
    return [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 211])
def test_kernel_mod_p_matches_field_route(p):
    """kernel_mod_p is the reduced echelon basis of the kernel, as the Field
    route computes it: the scan's reference stands on this oracle."""
    rng = random.Random(p)
    field = GF(p)
    shapes = [(4, 4), (5, 5), (3, 6), (2, 7), (6, 3), (7, 2), (1, 5), (5, 1)]
    cases = [_random_rows(rng, r, c, p) for r, c in shapes for _ in range(15)]
    # rank deficient: a product through an inner dimension below both sides
    for r, k, c in ((5, 2, 6), (6, 3, 4), (4, 1, 4), (7, 4, 7)):
        for _ in range(10):
            left, right = _random_rows(rng, r, k, p), _random_rows(rng, k, c, p)
            cases.append(
                [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            )
    cases += [[[0] * c for _ in range(r)] for r, c in ((3, 5), (1, 1), (4, 2))]
    cases += [[list(row) for row in random_invertible(field, m, rng).rows] for m in (1, 3, 6)]
    for rows in cases:
        _, kernel = Matrix(field, rows).rank_and_kernel()
        want = list(subspace_rref(field, kernel)) if kernel else []
        basis = kernels.kernel_mod_p(rows, p)
        assert basis == want, rows
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in rows)


def test_packed_reducer_takes_the_elimination_bound():
    # the lane bound of the scan; _packed_reducer raises ArithmeticError
    # where multiply-shift fails
    for p in range(2, 256):
        if not all(p % d for d in range(2, p)):
            continue
        for bound in {max(n, 2 * p - 1) * (p - 1) for n in range(3, 9)}:
            w, m, s = kernels._packed_reducer(p, bound)
            assert bound * m < 1 << w


def _random_guard(rng, n, p):
    """A seeded random polynomial in n variables, exponents up to p + 2 and
    coefficients from -2p .. 2p, so some exponents reach p and beyond and
    some coefficients vanish mod p."""
    return {
        tuple(rng.randrange(p + 3) for _ in range(n)): rng.randint(-2 * p, 2 * p)
        for _ in range(rng.randint(1, 8))
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 8))
def test_zero_marks_match_brute_force(n, p):
    """Byte L of the mask is nonzero exactly where G vanishes at the
    vector whose base-p digits spell L, checked by evaluating G at that
    vector term by term: random G with exponents >= p, a nonzero
    constant and the zero polynomial.  Every lane is checked when there
    are at most 5,000, else a seeded sample of 3,000."""
    rng = random.Random(f"marks/{n}/{p}")
    count = 2 * p ** (n - 1)
    lanes = range(count) if count <= 5000 else rng.sample(range(count), 3000)
    guards = [_random_guard(rng, n, p) for _ in range(3)]
    guards += [{(0,) * n: 1 - p}, {}]
    for guard in guards:
        marks = kernels._zero_marks(guard, n, p)
        assert len(marks) == count
        for lane in lanes:
            u = [lane // p ** (n - 1 - i) % p for i in range(n)]
            value = sum(c * math.prod(x**e for x, e in zip(u, exps)) for exps, c in guard.items())
            assert bool(marks[lane]) == (value % p == 0), (guard, u)


def test_scan_refuses_a_guard_of_another_length():
    cube = _alternating_cube(random.Random(4), 4, 3)
    with pytest.raises(ValueError, match="exponent tuples of length 4"):
        kernels.scan(cube, 4, 3, 0, 1, False, {(1, 0, 0): 1})


def test_scan_rejects_non_alternating_cube():
    rng = random.Random(77)
    for p in (2, 3, 5):
        cube = _alternating_cube(rng, 4, p)
        total = num_projective_points(p, 4)
        assert len(kernels.scan(cube, 4, p, 0, total, True)[1]) == total
        # every single-entry corruption breaks alternation
        for i, j, k in itertools.product(range(4), repeat=3):
            for delta in range(1, p):
                broken = [[list(row) for row in plane] for plane in cube]
                broken[i][j][k] += delta
                with pytest.raises(ValueError):
                    kernels.scan(broken, 4, p, 0, 1, False)
    # symmetric in a pair but not alternating: a diagonal entry over GF(2)
    cube = _alternating_cube(rng, 4, 2)
    cube[0][0][1] = cube[0][1][0] = cube[1][0][0] = 1
    with pytest.raises(ValueError):
        kernels.scan(cube, 4, 2, 0, 5, True)


def _csr(nv, edges):
    adj = [[] for _ in range(nv)]
    for a, b in sorted(edges):
        adj[a].append(b)
        adj[b].append(a)
    offsets = [0]
    neighbors = []
    for row in adj:
        neighbors.extend(row)
        offsets.append(len(neighbors))
    return offsets, neighbors


def test_graph_stats_matches_networkx():
    import networkx as nx  # a test-only reference
    rng = random.Random(4040)
    kinds = set()
    for _ in range(400):
        nv = rng.randint(1, 16)
        left = rng.randint(0, nv)
        density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.8))
        edges = [(a, b) for a in range(left) for b in range(left, nv) if rng.random() < density]
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        graph.add_edges_from(edges)
        connected = nx.is_connected(graph)
        girth = nx.girth(graph)
        want = (
            -1 if girth == float("inf") else girth,
            nx.diameter(graph) if connected else -1,
            connected,
        )
        assert kernels.graph_stats(*_csr(nv, edges), left) == want, (nv, left, edges)
        kinds.add("empty side" if left in (0, nv) else "two sides")
        kinds.add("forest" if want[0] < 0 else "cycle")
        kinds.add("connected" if connected else "disconnected")
        if nv > 1 and min(d for _, d in graph.degree) == 0:
            kinds.add("isolated vertex")
    assert len(kinds) == 7, kinds


def test_graph_stats_known_values():
    # a 6-cycle, its sides {0, 1, 2} and {3, 4, 5} alternating: girth 6, diameter 3
    cycle = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    assert kernels.graph_stats(*_csr(6, cycle), 3) == (6, 3, True)
    # a path through vertex 0: acyclic
    assert kernels.graph_stats(*_csr(3, [(0, 1), (0, 2)]), 1) == (-1, 2, True)
    # two isolated vertices: disconnected
    assert kernels.graph_stats([0, 0, 0], [], 1) == (-1, -1, False)
    # the girth of a disconnected graph is the least over its components,
    # whether the isolated vertex comes first or last
    square = [(1, 3), (3, 2), (2, 4), (4, 1)]
    assert kernels.graph_stats(*_csr(5, square), 3) == (4, -1, False)
    square_first = [(0, 2), (2, 1), (1, 3), (3, 0)]
    assert kernels.graph_stats(*_csr(5, square_first), 2) == (4, -1, False)


@pytest.mark.parametrize(
    "nv, edges, left",
    [
        (4, [(1, 2), (2, 3), (1, 3)], 2),  # a triangle: edge (2, 3) inside [2, 4)
        (4, [(0, 1), (1, 2), (0, 2)], 1),  # a triangle: edge (1, 2) inside [1, 4)
        (3, [(0, 1), (1, 2)], 2),  # edge (0, 1) inside [0, 2)
        (2, [], 3),  # the split lies past the last vertex
        (2, [], -1),
    ],
)
def test_graph_stats_needs_a_bipartite_split(nv, edges, left):
    with pytest.raises(ValueError):
        kernels.graph_stats(*_csr(nv, edges), left)

