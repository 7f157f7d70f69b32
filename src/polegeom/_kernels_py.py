"""Pure-Python hot kernels for GF(p) scans, and incidence-graph statistics.

scan/rank_mod_p/kernel_mod_p mirror the compiled extension's API and must
produce identical output (same enumeration order, same reduced-echelon
kernel convention) so the backends are interchangeable.  graph_stats has
no compiled twin: both backends use the one here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

BACKEND = "python"


def _rref_mod_p(work: List[List[int]], ncols: int, p: int, inv: List[int]):
    """In-place reduced row echelon form mod p; returns pivot columns."""
    nrows = len(work)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if work[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
        piv_inv = inv[work[r][c]]
        if piv_inv != 1:
            row = work[r]
            for j in range(c, ncols):
                row[j] = (row[j] * piv_inv) % p
        row_r = work[r]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                row_i = work[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _inverse_table(p: int) -> List[int]:
    inv = [0] * p
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def rank_mod_p(rows: List[List[int]], p: int) -> int:
    if not rows:
        return 0
    work = [[x % p for x in row] for row in rows]
    return len(_rref_mod_p(work, len(rows[0]), p, _inverse_table(p)))


def kernel_mod_p(rows: List[List[int]], p: int) -> List[Tuple[int, ...]]:
    """Reduced-echelon right-kernel basis, free columns ascending."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [[x % p for x in row] for row in rows]
    pivots = _rref_mod_p(work, ncols, p, _inverse_table(p))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-work[r][f]) % p
        basis.append(tuple(vec))
    return basis


def graph_stats(offsets: List[int], neighbors: List[int]) -> Tuple[int, int, bool]:
    """Exact girth and diameter of a simple undirected graph in CSR form.

    Returns (girth, diameter, connected); girth is -1 for a forest and the
    diameter is -1 for a disconnected graph.  The girth is the least over
    all components.

    Works on balls kept as int bitsets: R_d(v), the vertices within
    distance d of v, is R_{d-1}(v) OR the R_{d-1}(u) of every neighbour u.
    The diameter is the first d at which every ball is full; if no ball
    grows and some ball is not full, the graph is disconnected.  Only two
    generations of balls are held, about V^2/8 bytes each.

    The girth comes from the same balls.  At radius d, for a vertex v and
    two distinct neighbours u1, u2, a vertex w outside R_{d-1}(v) lying in
    R_{d-1}(u1) and R_{d-1}(u2) shows a cycle of length <= 2d (even test),
    and one lying in R_{d-1}(u1) and R_d(u2) a cycle of length <= 2d+1
    (odd test).  Sound: shortest paths u1..w and u2..w avoid v, as w is
    farther from v than their lengths allow, so the closed walk
    v, u1..w..u2, v passes v once between distinct neighbours and contains
    a cycle through v no longer than itself.  Complete: a shortest cycle is
    isometric, so with v on it, u1 and u2 its neighbours on it and w the
    vertex (or one of the two vertices) opposite v, it passes the test at
    exactly half its length.  So the first radius with a hit gives the
    girth, and every cycle shows by the radius of its component's diameter.
    """
    nv = len(offsets) - 1
    if nv <= 1:
        return -1, 0, True
    adj = [neighbors[offsets[v] : offsets[v + 1]] for v in range(nv)]
    full = (1 << nv) - 1
    cur = [1 << v for v in range(nv)]
    girth = -1
    d = 0
    while True:
        d += 1
        nxt = []
        for v, nbrs in enumerate(adj):
            ball = cur[v]
            for u in nbrs:
                ball |= cur[u]
            nxt.append(ball)
        if girth < 0:
            odd = False
            for v, nbrs in enumerate(adj):
                # seen*: union over the neighbours so far; dup: in two of the
                # R_{d-1}; hit: in R_{d-1} of one and R_d of another
                seen_in = seen_out = dup = hit = 0
                for u in nbrs:
                    inner, outer = cur[u], nxt[u]
                    dup |= seen_in & inner
                    hit |= (seen_in & outer) | (seen_out & inner)
                    seen_in |= inner
                    seen_out |= outer
                if dup & ~cur[v]:
                    girth = 2 * d
                    break
                if not odd and hit & ~cur[v]:
                    odd = True
            if girth < 0 and odd:
                girth = 2 * d + 1
        if all(ball == full for ball in nxt):
            return girth, d, True
        if nxt == cur:
            return girth, -1, False
        cur = nxt


def scan(
    cube: List[List[List[int]]],
    n: int,
    p: int,
    start: int,
    stop: int,
    want_kernels: bool,
) -> Tuple[List[Tuple[int, ...]], List[int], Optional[List[List[Tuple[int, ...]]]]]:
    """Degrees (and optionally radical bases) of canonical projective points
    with enumeration indices in [start, stop)."""
    from .projective import projective_point_at

    inv = _inverse_table(p)
    points: List[Tuple[int, ...]] = []
    degrees: List[int] = []
    kernels: Optional[List[List[Tuple[int, ...]]]] = [] if want_kernels else None
    for idx in range(start, stop):
        u = projective_point_at(p, n, idx)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            ui = u[i]
            if not ui:
                continue
            plane = cube[i]
            for j in range(n):
                row = plane[j]
                mj = m[j]
                for k in range(n):
                    v = row[k]
                    if v:
                        mj[k] = (mj[k] + ui * v) % p
        if want_kernels:
            basis = kernel_mod_p(m, p)
            rank = n - len(basis)
            kernels.append(basis)
        else:
            rank = len(_rref_mod_p(m, n, p, inv))
        points.append(u)
        degrees.append(n - 1 - rank)
    return points, degrees, kernels
