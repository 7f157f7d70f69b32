"""Backend parity of the scan kernels, and the incidence-graph statistics."""

import random

import pytest

from polegeom import _kernels_py, kernels
from polegeom.fields import GF
from polegeom.forms import catalog_form
from polegeom.poles import structure_cube
from polegeom.projective import num_projective_points, projective_point_at, projective_points

try:
    from polegeom import _gfkernels
except ImportError:
    _gfkernels = None

needs_ext = pytest.mark.skipif(_gfkernels is None, reason="compiled kernels not built")


def test_backend_reports_name():
    assert kernels.backend_name() in ("python", "cython")


def test_enumeration_order_matches_random_access():
    for p, n in ((2, 4), (3, 3), (5, 2)):
        field = GF(p)
        listed = list(projective_points(field, n))
        assert len(listed) == num_projective_points(p, n)
        for idx, pt in enumerate(listed):
            assert projective_point_at(p, n, idx) == pt
        assert len(set(listed)) == len(listed)


@needs_ext
def test_rank_parity():
    rng = random.Random(808)
    for p in (2, 3, 7):
        for _ in range(40):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            assert _gfkernels.rank_mod_p(rows, p) == _kernels_py.rank_mod_p(rows, p)


@needs_ext
def test_kernel_parity():
    rng = random.Random(809)
    for p in (2, 3, 7):
        for _ in range(40):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            assert _gfkernels.kernel_mod_p(rows, p) == _kernels_py.kernel_mod_p(rows, p)


@needs_ext
@pytest.mark.parametrize(
    "tag,p,lam",
    [("T9", 2, None), ("T9", 3, None), ("T4", 2, None), ("T10_1", 3, 2), ("T5", 3, None)],
)
def test_scan_parity(tag, p, lam):
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    cube = structure_cube(h, field)
    total = num_projective_points(p, h.n)
    for want_kernels in (False, True):
        fast = _gfkernels.scan(cube, h.n, p, 0, total, want_kernels)
        pure = _kernels_py.scan(cube, h.n, p, 0, total, want_kernels)
        assert fast == pure


@needs_ext
def test_scan_range_parity():
    field = GF(3)
    h = catalog_form("T9", field)
    cube = structure_cube(h, field)
    total = num_projective_points(3, 7)
    cuts = [0, total // 3, total // 2, total]
    pieces = [
        _gfkernels.scan(cube, 7, 3, lo, hi, True)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    merged_points = [pt for piece in pieces for pt in piece[0]]
    whole = _kernels_py.scan(cube, 7, 3, 0, total, True)
    assert merged_points == whole[0]


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
    for _ in range(400):
        nv = rng.randint(1, 16)
        density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.8))
        edges = [(a, b) for a in range(nv) for b in range(a + 1, nv) if rng.random() < density]
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
        assert kernels.graph_stats(*_csr(nv, edges)) == want, (nv, edges)


def test_graph_stats_known_values():
    # a 6-cycle: girth 6, diameter 3
    cycle = [(i, (i + 1) % 6) for i in range(6)]
    assert kernels.graph_stats(*_csr(6, cycle)) == (6, 3, True)
    # a path: acyclic
    assert kernels.graph_stats(*_csr(3, [(0, 1), (1, 2)])) == (-1, 2, True)
    # two isolated vertices: disconnected
    assert kernels.graph_stats([0, 0, 0], []) == (-1, -1, False)
    # the girth of a disconnected graph is the least over its components,
    # whichever vertex comes first
    triangle = [(1, 2), (2, 3), (1, 3)]
    assert kernels.graph_stats(*_csr(4, triangle)) == (3, -1, False)
    triangle_first = [(0, 1), (1, 2), (0, 2)]
    assert kernels.graph_stats(*_csr(4, triangle_first)) == (3, -1, False)


def test_pure_env_override(monkeypatch):
    import importlib
    import polegeom.kernels as kmod

    monkeypatch.setenv("POLEGEOM_PURE", "1")
    reloaded = importlib.reload(kmod)
    assert reloaded.backend_name() == "python"
    monkeypatch.delenv("POLEGEOM_PURE")
    importlib.reload(kmod)
