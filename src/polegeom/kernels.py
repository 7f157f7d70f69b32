"""GF(p) kernels: the point scan, kernel bases mod p, and incidence-graph statistics.

scan walks PG(n-1, p) in the canonical order, one lead block at a time
through ``itertools.product``, and returns every point's degree and, on
request, the radical of each pole that leads a radical line as its
reduced row echelon basis, the one radical format, which line assembly
reads as it is.  M_u is one packed int, and each pivot of the
forward elimination updates all of it with one product and one
lane-wise reduction mod p.  It eliminates only as far as a caller
reads: to the even maximal rank of M_u, and back-substitutes only at
the poles that lead a line; at odd n a guard, the pole polynomial G,
evaluated once per scan on one packed int, hands it only the points
where G(u) = 0.  kernel_mod_p gives the same basis for any matrix mod p.
graph_stats gives girth, diameter and connectivity of a bipartite graph,
such as a point-line incidence graph, from int-bitset balls.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

BACKEND = "python"


def _rref_mod_p(work: List[List[int]], p: int):
    """In-place reduced row echelon form mod p of nonempty rows; returns pivot columns."""
    nrows, ncols = len(work), len(work[0])
    inv = _inverse_table(p)
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


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> Tuple[int, ...]:
    return (0,) + tuple(pow(a, p - 2, p) for a in range(1, p))


def kernel_mod_p(rows: List[List[int]], p: int) -> List[Tuple[int, ...]]:
    """The reduced row echelon basis of the right kernel of ``rows`` mod p.

    Reducing on the reversed columns pivots each row on its last nonzero
    column, so the kernel vector of a free column f is 1 at f, 0 at the
    other free columns and nonzero only after f.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    last = ncols - 1
    work = [[x % p for x in reversed(row)] for row in rows]
    pivots = [last - c for c in _rref_mod_p(work, p)]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-work[r][last - f]) % p
        basis.append(tuple(vec))
    return basis


def graph_stats(offsets: List[int], neighbors: List[int], left: int) -> Tuple[int, int, bool]:
    """Exact girth and diameter of a simple bipartite graph in CSR form,
    every edge joining [0, left) to [left, V) (ValueError otherwise).

    Returns (girth, diameter, connected); girth is -1 for a forest and the
    diameter is -1 for a disconnected graph.  The girth is the least over
    all components.

    Works on balls kept as int bitsets: R_d(v), the vertices within
    distance d of v, is R_{d-1}(v) OR the R_{d-1}(u) of every neighbour u.
    The diameter is the first d at which every ball is full; if no ball
    grows and some ball is not full, the graph is disconnected.  Only two
    generations of balls are held, about V^2/8 bytes each.

    The girth comes from the same pass.  Every cycle of a bipartite graph
    is even.  At radius d, for a vertex v and two distinct neighbours u1,
    u2, a vertex w outside R_{d-1}(v) lying in R_{d-1}(u1) and R_{d-1}(u2)
    shows a cycle of length <= 2d.  Sound: shortest paths u1..w and u2..w
    avoid v, as w is farther from v than their lengths allow, so the
    closed walk v, u1..w..u2, v contains a cycle through v no longer than
    itself.  Complete: a shortest cycle, of length 2k, is isometric, so
    with v on it, u1 and u2 its neighbours on it and w opposite v, it
    passes the test at radius k.  So the first radius with a hit gives the
    girth, and every cycle shows by the radius of its component's diameter.
    """
    nv = len(offsets) - 1
    # two C-level passes: the rows of [0, left) reach only [left, V), and back
    split = offsets[left] if 0 <= left <= nv else -1
    if (
        split < 0
        or min(neighbors[:split], default=left) < left
        or max(neighbors[split:], default=-1) >= left
    ):
        raise ValueError(f"graph_stats needs every edge to join [0, {left}) to [{left}, {nv})")
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
            # seen: union of the neighbours' R_{d-1} so far; dup: in two of them
            seen = dup = 0
            for u in nbrs:
                ball = cur[u]
                dup |= seen & ball
                seen |= ball
            if girth < 0 and dup & ~cur[v]:
                girth = 2 * d
            nxt.append(cur[v] | seen)
        if all(ball == full for ball in nxt):
            return girth, d, True
        if nxt == cur:
            return girth, -1, False
        cur = nxt


@lru_cache(maxsize=None)
def _packed_reducer(p: int, bound: int) -> Tuple[int, int, int]:
    """Lane width w, multiplier m and shift s such that, for every lane
    value x in [0, bound], (x * m) >> s == x // p and x * m < 2**w.

    A packed int X with values x in lanes of w bits is then reduced mod p in
    all lanes at once by X - p * (((X * m) >> s) & LOW), LOW holding the low
    w - s bits of every lane: x * m stays inside its lane, and the bits that
    the shift moves down from the lane above land above the LOW mask.  So
    does any lane wider than w, with LOW its low bits above s.
    """
    s = bound.bit_length() + p.bit_length()
    m = (1 << s) // p + 1
    w = max((bound * m).bit_length(), s + 1)
    for x in range(bound + 1):
        if (x * m) >> s != x // p:
            raise ArithmeticError(f"multiply-shift fails mod {p} at {x}")
    return w, m, s


def _require_alternating(cube: List[List[List[int]]], n: int, p: int) -> None:
    """ValueError unless the cube is alternating mod p: zero wherever an
    index repeats, and each triple i < j < k read once with its five
    permutations, equal up to the permutation's sign."""
    for i in range(n):
        plane = cube[i]
        if any(v % p for v in plane[i]) or any(
            plane[k][i] % p or cube[k][i][i] % p for k in range(n)
        ):
            raise ValueError("scan needs an alternating cube")
    for i, j, k in itertools.combinations(range(n), 3):
        v = cube[i][j][k]
        if (
            (cube[j][k][i] - v) % p
            or (cube[k][i][j] - v) % p
            or (cube[j][i][k] + v) % p
            or (cube[i][k][j] + v) % p
            or (cube[k][j][i] + v) % p
        ):
            raise ValueError("scan needs an alternating cube")


def _zero_marks(guard: Dict[Tuple[int, ...], int], n: int, p: int) -> bytes:
    """Z(G) on {0, 1} x F_p^(n-1): byte L is nonzero exactly where G
    vanishes at the vector whose base-p digits, u_0 first, spell L, so the
    points of lead a are bytes p^m .. 2p^m - 1 (m = n-1-a) in scan order.

    G's values are the whole-byte lanes of one packed int.  Its variables
    go in one at a time, the last first: each term prefix over u_0 ..
    u_{j-1} holds its values over F_p^(n-j), and u_j = a puts block a, the
    sum of a^e times the values of the prefix's terms, at the a-th place.
    With exponents taken to 0 .. p-1 (a^e = a^(((e-1) mod (p-1)) + 1) for
    e >= 1), a lane sums at most p products below p^2.
    """
    w, mul, shift = _packed_reducer(p, p * (p - 1) ** 2)
    size = -(-w // 8)  # bytes per lane
    width = 8 * size
    count = 2 * p ** (n - 1)
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")
    low = ones * ((1 << (width - shift)) - 1)
    powers = [[pow(a, e, p) for e in range(p)] for a in range(p)]
    values: Dict[Tuple[int, ...], int] = {}
    fold = [0]
    for e, c in guard.items():
        if len(e) != n:
            raise ValueError(f"the guard needs exponent tuples of length {n}")
        if max(e, default=0) >= len(fold):
            fold += [(k - 1) % (p - 1) + 1 for k in range(len(fold), max(e) + 1)]
        key = tuple(map(fold.__getitem__, e))
        values[key] = (values.get(key, 0) + c) % p
    span = 1
    for j in range(n - 1, -1, -1):
        # u_0 is 0 or 1 on the lanes that hold canonical points
        digits = powers[:2] if j == 0 else powers
        groups: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        for key, v in values.items():
            groups.setdefault(key[:-1], []).append((key[-1], v))
        bits = span * width
        values = {}
        for rest, items in groups.items():
            x = 0
            for t, row in enumerate(digits):
                block = 0
                for e, v in items:
                    block += row[e] * v
                x |= block << (t * bits)
            values[rest] = x - p * (((x * mul) >> shift) & low)
        span *= len(digits)
    high = ones << (width - 1)
    # a lane below p is 0 exactly where high - lane keeps its top bit
    return ((high - values.get((), 0)) & high).to_bytes(count * size, "little")[size - 1 :: size]


def _leads_line(u: Tuple[int, ...], lead: int, piv_lanes: List[int], w: int) -> bool:
    """Whether some zero of u after its lead is off the pivot columns: with
    every pivot found, the test by which line assembly
    (``poles._least_point_lines``) picks the poles it reads, and with some
    of them, a condition for it."""
    last = len(u) - 1
    free = u.count(0) - lead  # u is 0 before its lead and 1 at it
    for at in piv_lanes:
        c = last - at // w
        if c > lead and not u[c]:
            free -= 1
    return free > 0


def scan(
    cube: List[List[List[int]]],
    n: int,
    p: int,
    start: int,
    stop: int,
    want_kernels: bool,
    guard: Optional[Dict[Tuple[int, ...], int]] = None,
) -> Tuple[List[Tuple[int, ...]], List[int], Optional[List[Optional[List[Tuple[int, ...]]]]]]:
    """Degrees (and optionally the radical bases of the poles that lead a
    line) of canonical projective points with enumeration indices in
    [start, stop).

    The cube must be alternating (ValueError otherwise).  M_u = sum_i u_i
    C_i is one packed int: the n*n entries are lanes of w bits, row j at
    lanes j*n .. j*n+n-1 with column k in lane j*n + n-1-k, so the last
    nonzero column of a row is its lowest lane, read off r & -r.  Each
    lead block, the points of lead a, is walked in the canonical order by
    ``itertools.product`` over the tables a*C_i mod p of the coordinates
    after the lead, so M_u is one sum, reduced mod p in all lanes at once
    by multiply-shift (_packed_reducer).  Forward elimination gives the rank, one product
    per pivot on the whole packed M_u: with r the top nonzero row, a its
    lowest lane (its last nonzero column) and c_j that lane of row j,
    moved to lane 0 of every row, M_u becomes a * M_u + (p - c) * r, which
    clears that column in every row and r itself, and one multiply-shift
    reduces every lane (simultaneous modular reduction, Dumas, Fousse and
    Salvy, J. Symbolic Comput. 46, 2011); pivot rows are kept unscaled.
    M_u is alternating, so its rank is even and at most n-1: elimination
    stops two pivots short of that even maximum if a nonzero row is left,
    as the rank is then the maximum (the parity stop).  At even n with
    radicals wanted it goes on only while the pivots so far leave a free
    column after u's lead where u is 0.  Back-substitution runs only when radicals are wanted and u leads a
    line: some free column c after u's lead has u[c] = 0, the test by
    which line assembly (``poles._least_point_lines``) picks the poles it
    reads; it scales each pivot row to 1 at its pivot first.  The kernel
    vector of a free column f is then 1 at f, 0 at the other free columns
    and nonzero only after f: the reduced row echelon basis of the
    radical, as kernel_mod_p returns it.  At every other point, degree 0
    included, None stands in its place; the rule reads u alone, so any
    split into [start, stop) pieces agrees with the whole scan.

    ``guard``, for odd n, is the pole polynomial G of the cube mod p as
    {exponents: coefficient}, with Pf(M_u^(1)) = u_1 G.  The signed
    sub-Pfaffian vector of M_u is +-G(u) u, so rank M_u = n-1 exactly
    where G(u) != 0: such a point gets degree 0 (radical None) with no
    elimination.  Z(G) is computed once per scan (_zero_marks), and
    ``itertools.compress`` walks only its points, eliminated as without a
    guard; a full rank there raises RuntimeError: the guard is not G.
    ``poles._scan_report`` passes the terms of G that its caller hands it.
    """
    from .projective import num_projective_points

    count = stop - start
    _require_alternating(cube, n, p)
    if count <= 0:
        return [], [], [] if want_kernels else None
    if stop > num_projective_points(p, n):
        raise IndexError("projective point index out of range")
    marks = None if guard is None else _zero_marks(guard, n, p)
    inv = _inverse_table(p)
    # lanes hold at most n entries below p before reduction, and
    # a * x + (p - c) * y with a, c, x, y below p during elimination;
    # back-substitution stays below that
    w, mul, shift = _packed_reducer(p, max(n, 2 * p - 1) * (p - 1))
    lane = (1 << w) - 1
    low = (1 << (w - shift)) - 1
    row_bits = n * w
    row_mask = (1 << row_bits) - 1
    row_low = sum(low << (k * w) for k in range(n))
    all_low = sum(row_low << (j * row_bits) for j in range(n))
    # col0: lane 0 of every row; p_ones: p in lane 0 of every row
    col0 = sum(lane << (j * row_bits) for j in range(n))
    p_ones = sum(p << (j * row_bits) for j in range(n))
    # tables[i][a]: a * C_i mod p, packed
    lanes = [(j * n + n - 1 - k) * w for j in range(n) for k in range(n)]
    tables = []
    for plane in cube:
        one = sum([x % p << at for at, x in zip(lanes, itertools.chain(*plane)) if x % p])
        scaled = [a * one for a in range(p)]
        tables.append([x - p * (((x * mul) >> shift) & all_low) for x in scaled])

    last = n - 1
    # the parity stop: M_u is alternating, so a nonzero row left two pivots
    # short of the largest even rank `top` makes the rank top.  At even n
    # that is degree 1: with radicals wanted, elimination goes on past the
    # stop while such a pole may still lead a line
    top = last - last % 2
    short = top - 2
    finish = want_kernels and top != last
    points: List[Tuple[int, ...]] = []
    degrees = [0] * count
    kernels: Optional[list] = [None] * count if want_kernels else None
    offset = 0  # the index of the first point of lead `lead`
    for lead in range(n):
        block = p ** (last - lead)
        lo, hi = max(start - offset, 0), min(stop - offset, block)
        offset += block
        if lo >= hi:
            continue
        first = len(points)
        tails = itertools.product(range(p), repeat=last - lead)
        points.extend(map(((0,) * lead + (1,)).__add__, itertools.islice(tails, lo, hi)))
        where = range(first, len(points))
        sums = itertools.islice(itertools.product(*tables[lead + 1 :]), lo, hi)
        if marks is not None:
            # G(u) != 0: degree 0 and no radical, the defaults, with no elimination
            zeros = marks[block + lo : block + hi]
            where, sums = itertools.compress(where, zeros), itertools.compress(sums, zeros)
        base = tables[lead][1]
        keep = ~(row_mask << (lead * row_bits))
        for idx, parts in zip(where, sums):
            x = sum(parts, base)
            x -= p * (((x * mul) >> shift) & all_low)
            # u^T M_u = h(u, u, .) = 0 for an alternating cube, so row `lead`
            # (u_lead = 1) is minus the sum of u_j times the other rows: it
            # changes neither the row space nor its reduced echelon form
            x &= keep
            # forward elimination on the whole packed matrix, pivoting on
            # the top nonzero row r at its last nonzero column, its lowest
            # lane `at` with value a: with c_j the lane `at` of row j, one
            # product makes row j a * row_j + (p - c_j) * r, zero at `at`
            # and, for r itself, zero everywhere.  Rows taken in any order
            # leave every pivot row zero below its own pivot lane and at the
            # pivot lanes before it, so the pivots are those of the echelon
            # form on reversed columns; pivot rows stay unscaled
            piv_rows: List[int] = []
            piv_lanes: List[int] = []
            while x:
                if len(piv_rows) == short and not (
                    finish and _leads_line(points[idx], lead, piv_lanes, w)
                ):
                    break
                r = x >> (x.bit_length() - 1) // row_bits * row_bits  # top row
                at = ((r & -r).bit_length() - 1) // w * w
                a = (r >> at) & lane
                x = a * x + (p_ones - ((x >> at) & col0)) * r
                x -= p * (((x * mul) >> shift) & all_low)
                piv_rows.append(r)
                piv_lanes.append(at)
            rank = top if x else len(piv_rows)  # rows left: the parity stop
            if marks is not None and rank == last:
                raise RuntimeError(
                    f"the guard vanishes at {points[idx]}, where M_u has full rank "
                    f"{rank}: it is not the pole equation G of this cube mod {p}"
                )
            degrees[idx] = last - rank
            if not want_kernels or rank == last or not _leads_line(points[idx], lead, piv_lanes, w):
                continue
            # back-substitution: each pivot row is zero at the earlier pivot
            # lanes; clear the later ones, last first, each pivot row scaled
            # to 1 at its pivot lane first
            for t in range(rank - 1, -1, -1):
                r, at = piv_rows[t], piv_lanes[t]
                a = (r >> at) & lane
                if a != 1:
                    r *= inv[a]
                    r = piv_rows[t] = r - p * (((r * mul) >> shift) & row_low)
                for q in range(t):
                    y = piv_rows[q]
                    a = (y >> at) & lane
                    if a:
                        y += (p - a) * r
                        piv_rows[q] = y - p * (((y * mul) >> shift) & row_low)
            pivot_cols = [last - at // w for at in piv_lanes]
            basis = []
            for f in range(n):
                if f in pivot_cols:
                    continue
                vec = [0] * n
                vec[f] = 1
                at = (last - f) * w
                for r, c in zip(piv_rows, pivot_cols):
                    vec[c] = -((r >> at) & lane) % p
                basis.append(tuple(vec))
            kernels[idx] = basis
    return points, degrees, kernels
