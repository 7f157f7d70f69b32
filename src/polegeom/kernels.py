"""GF(p) kernels: the point scan, kernel bases mod p, and incidence-graph statistics.

scan walks PG(n-1, p) in the canonical order and returns every point's
degree and, on request, the radical of each pole that leads a radical
line as its reduced row echelon basis, the one radical format, which
every line builder reads as it is.  M_u is one packed int, and each
pivot of the forward elimination updates all of it with one product and
one lane-wise reduction mod p.  It eliminates only as far as a
caller reads: to the even maximal rank of M_u, and back-substitutes only
at the poles that lead a line; at odd n a guard, the pole polynomial G,
lets it skip the elimination wherever G(u) != 0.  kernel_mod_p gives the
same basis for any matrix mod p.
graph_stats gives girth, diameter and connectivity from int-bitset balls.
"""

from __future__ import annotations

import itertools
import operator
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


def _packed_reducer(p: int, bound: int) -> Tuple[int, int, int]:
    """Lane width w, multiplier m and shift s such that, for every lane
    value x in [0, bound], (x * m) >> s == x // p and x * m < 2**w.

    A packed int X with values x in lanes of w bits is then reduced mod p in
    all lanes at once by X - p * (((X * m) >> s) & LOW), LOW holding the low
    w - s bits of every lane: x * m stays inside its lane, and the bits that
    the shift moves down from the lane above land above the LOW mask.
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


def _guard_levels(guard: Dict[Tuple[int, ...], int], n: int, p: int):
    """The tables that evaluate G along the odometer, one digit at a time.

    keys[i] lists the distinct exponent tuples of the variables u_i ..
    u_{n-1} among G's terms, so keys[0] is G's terms themselves.  Putting
    u_i = a into a coefficient vector over keys[i] adds c * a^e at position
    k of one over keys[i+1], for each (j, e, k) of steps[i]: j is a
    position in keys[i], e its exponent of u_i, k the position of its rest.
    Returns G's coefficients mod p over keys[0], steps, the sizes of the
    keys, a^e mod p as powers[a][e], and last_powers[t] listing t^e for
    the exponents e of u_{n-1} over keys[n-1].
    """
    if any(len(e) != n for e in guard):
        raise ValueError(f"the guard needs exponent tuples of length {n}")
    keys = [sorted(guard)]
    steps = []
    for i in range(n - 1):
        rest = sorted({e[1:] for e in keys[i]})
        at = {e: k for k, e in enumerate(rest)}
        steps.append([(j, e[0], at[e[1:]]) for j, e in enumerate(keys[i])])
        keys.append(rest)
    degree = max((sum(e) for e in guard), default=0)
    powers = [[pow(a, e, p) for e in range(degree + 1)] for a in range(p)]
    coeffs = [guard[e] % p for e in keys[0]]
    last_powers = [[row[e[0]] for e in keys[-1]] for row in powers]
    return coeffs, steps, [len(k) for k in keys], powers, last_powers


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

    The cube must be alternating (ValueError otherwise).  The points are
    walked as an odometer in the canonical order, and M_u = sum_i u_i C_i is
    kept as one packed int: the n*n entries are lanes of w bits, row j at
    lanes j*n .. j*n+n-1 with column k in lane j*n + n-1-k, so the last
    nonzero column of a row is its lowest lane, read off r & -r.  The tables
    a*C_i mod p are built once, with a prefix sum per odometer digit, so
    each point costs one addition; all lanes are then reduced mod p at once
    by multiply-shift (_packed_reducer).  Forward elimination gives the
    rank, one product per pivot on the whole packed M_u: with r the top
    nonzero row, a its lowest lane (its last nonzero column) and c_j that
    lane of row j, moved to lane 0 of every row, M_u becomes
    a * M_u + (p - c) * r, which clears that column in every row and r
    itself, and one multiply-shift reduces every lane (simultaneous modular
    reduction, Dumas, Fousse and Salvy, J. Symbolic Comput. 46, 2011);
    pivot rows are kept unscaled.  M_u is alternating, so its rank is even
    and at most n-1: elimination stops two pivots short of that even
    maximum if a nonzero row is left, as the rank is then the maximum (the
    parity stop), except at even n with radicals wanted.  Back-substitution runs only when radicals
    are wanted and u leads a line: some free column c after u's lead has
    u[c] = 0, the test by which line assembly (``poles._least_point_lines``)
    picks the poles it reads; it scales each pivot row to 1 at its pivot
    first.  The kernel vector of a free column f is then 1 at f, 0 at the
    other free columns and nonzero only after f: the reduced row echelon
    basis of the radical, as kernel_mod_p returns it.  At every other point,
    degree 0 included, None stands in its place; the rule reads u alone, so
    any split into [start, stop) pieces agrees with the whole scan.

    ``guard``, for odd n, is the pole polynomial G of the cube mod p as
    {exponents: coefficient}, with Pf(M_u^(1)) = u_1 G.  The signed
    sub-Pfaffian vector of M_u is +-G(u) u, so rank M_u = n-1 exactly
    where G(u) != 0: such a point gets degree 0 (radical None) with no
    elimination.  G is evaluated digit by digit as acc is: the state
    after the digits before the last is refreshed only when one of them
    turns, and then tabulates G != 0 over the p values of the last digit
    (_guard_levels).  Where G(u) = 0 the point is eliminated as without a
    guard, and a full rank there raises RuntimeError: the guard is not G.
    ``poles._scan_report`` decides which scans pass a guard.
    """
    from .projective import num_projective_points, projective_point_at

    points: List[Tuple[int, ...]] = []
    degrees: List[int] = []
    kernels: Optional[List[List[Tuple[int, ...]]]] = [] if want_kernels else None
    _require_alternating(cube, n, p)
    if start >= stop:
        return points, degrees, kernels
    if stop > num_projective_points(p, n):
        raise IndexError("projective point index out of range")
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
    tables = []
    for i in range(n):
        plane = cube[i]
        packed = [0] * p
        for a in range(1, p):
            x = 0
            for j in range(n):
                row = plane[j]
                for k in range(n):
                    x |= (a * row[k] % p) << ((j * n + n - 1 - k) * w)
            packed[a] = x
        tables.append(packed)

    u = list(projective_point_at(p, n, start))
    lead = u.index(1)
    keep = ~(row_mask << (lead * row_bits))
    # acc[i]: the packed sum of u_i' C_i' over i' <= i
    acc = [0] * n
    acc[lead] = tables[lead][1]
    for i in range(lead + 1, n):
        acc[i] = acc[i - 1] + tables[i][u[i]]
    last = n - 1
    # the parity stop: M_u is alternating, so a nonzero row left two pivots
    # short of the largest even rank `top` makes the rank top.  Not at even
    # n with radicals wanted, where a pole of degree 1 may lead a line
    top = last - last % 2
    short = top - 2 if n % 2 or not want_kernels else -1
    if guard is not None:
        coeffs, steps, sizes, powers, last_powers = _guard_levels(guard, n, p)
        # state[i]: the coefficients of G with u_0 .. u_{i-1} put in, over
        # keys[i] of _guard_levels; refresh(0) fills all but state[0]
        state = [coeffs] * n
        live = [False] * p

        def refresh(level: int) -> None:
            # put in u_level .. u_{last-1}, then tabulate G(u) != 0 over
            # the values of the last digit
            for i in range(level, last):
                prev, row = state[i], powers[u[i]]
                nxt = [0] * sizes[i + 1]
                for j, e, k in steps[i]:
                    nxt[k] += prev[j] * row[e]
                state[i + 1] = nxt
            rest = state[last]
            live[:] = [sum(map(operator.mul, rest, row)) % p != 0 for row in last_powers]

        refresh(0)
    for _ in range(stop - start):
        points.append(tuple(u))
        if guard is not None and live[u[last]]:
            # G(u) != 0: rank M_u = n-1, degree 0
            degrees.append(0)
            if want_kernels:
                kernels.append(None)
        else:
            x = acc[last]
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
            while x and len(piv_rows) != short:
                r = x >> (x.bit_length() - 1) // row_bits * row_bits  # top row
                at = ((r & -r).bit_length() - 1) // w * w
                a = (r >> at) & lane
                x = a * x + (p_ones - ((x >> at) & col0)) * r
                x -= p * (((x * mul) >> shift) & all_low)
                piv_rows.append(r)
                piv_lanes.append(at)
            rank = top if x else len(piv_rows)  # rows left: the parity stop
            if guard is not None and rank == last:
                raise RuntimeError(
                    f"the guard vanishes at {tuple(u)}, where M_u has full rank "
                    f"{rank}: it is not the pole equation G of this cube mod {p}"
                )
            degrees.append(last - rank)
            if want_kernels:
                if rank == last or all(
                    u[c] or (last - c) * w in piv_lanes for c in range(lead + 1, n)
                ):
                    # u leads no line: no free column after its lead has u
                    # zero there (the test of poles._least_point_lines)
                    kernels.append(None)
                else:
                    # back-substitution: each pivot row is zero at the
                    # earlier pivot lanes; clear the later ones, last first,
                    # each pivot row scaled to 1 at its pivot lane first
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
                    kernels.append(basis)
        # advance the odometer: the last coordinate turns fastest
        i = last
        while i > lead and u[i] == p - 1:
            u[i] = 0
            i -= 1
        if i > lead:
            u[i] += 1
            x = acc[i - 1] + tables[i][u[i]]
        elif lead < last:
            u[lead] = 0
            lead += 1
            u[lead] = 1
            keep = ~(row_mask << (lead * row_bits))
            i = lead
            x = tables[lead][1]
        else:
            break
        for j in range(i, n):
            acc[j] = x
        if guard is not None:
            if i == lead:
                # the lead moved: the digit before it went from 1 to 0
                refresh(i - 1)
            elif i < last:
                refresh(i)
    return points, degrees, kernels
