"""Incidence analytics on the geometry of poles over finite fields.

Builds the point-line structure (poles, upper-radical lines), then runs
the classification checks: spread and normality, symplectic polar-space
conformance, the vertex-plane cone of T7, generalized-hexagon statistics
for T9/T12, the T11 residue partition and the T4 line description, plus
a deterministic fingerprint used as a near-equivalence proxy.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import astuple, dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .constructions import BilinearAltForm
from .fields import GF
from .forms import TriForm
from .kernels import _rref_mod_p, kernel_mod_p
from .poles import (
    _least_point_lines,
    _line_bases,
    _pfaffian_quotient,
    _radical_lines,
    _scan_report,
    _variety_degree,
    over_field,
)
from .projective import (
    Line,
    Vector,
    num_projective_points,
    span_points_mod_p,
)


@dataclass
class IncidenceStructure:
    """Poles and upper-radical lines with exact incidence, built from the
    scan's degrees and the lines alone: the poles and both incidence maps
    are derived from them on construction (and on replace)."""

    field: GF
    n: int
    # every point of PG(n-1, p), degree 0 included, in canonical order
    degrees: Dict[Vector, int]
    # reduced-echelon pairs (r1, r2)
    lines: Tuple[Line, ...]
    # the points of positive degree, in the order of ``degrees``
    points: Tuple[Vector, ...] = dc_field(init=False)
    points_by_line: Tuple[Tuple[Vector, ...], ...] = dc_field(init=False)
    lines_by_point: Dict[Vector, Tuple[int, ...]] = dc_field(init=False)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        p = self.field.p
        self.points = tuple(u for u, d in self.degrees.items() if d >= 1)
        # the points of each line from its reduced-echelon basis (r1, r2),
        # in the order span_points gives: r1 + t*r2 for t = 0..p-1, then r2
        self.points_by_line = tuple(
            tuple(tuple((a + t * b) % p for a, b in zip(r1, r2)) for t in range(p)) + (r2,)
            for r1, r2 in self.lines
        )
        lines_by_point: Dict[Vector, List[int]] = {}
        for idx, pts in enumerate(self.points_by_line):
            for pt in pts:
                lines_by_point.setdefault(pt, []).append(idx)
        self.lines_by_point = {k: tuple(v) for k, v in lines_by_point.items()}


def build_geometry(
    h: TriForm,
    field: Optional[GF] = None,
    budget: Optional[int] = None,
) -> IncidenceStructure:
    """Enumerate the poles and radical lines of h over ``over_field(h,
    field)`` and compute exact incidence, from one scan guarded by G
    (``poles._scan_report``)."""
    hf = over_field(h, field)
    report = _scan_report(hf, budget, True, _pfaffian_quotient(hf))
    return IncidenceStructure(
        field=hf.field,
        n=hf.n,
        degrees=dict(zip(report.points, report.degrees)),
        lines=tuple(_radical_lines(report)),
        label=h.label,
    )


# the checks written for one n: (n, the check's name in the error)
_CHECK_N = {
    "polar": (7, "polar"),
    "cone": (7, "cone structure"),
    "t11": (7, "t11"),
    "t4": (6, "T4"),
}


def check_scope(name: str, label: Optional[str], n: int) -> None:
    """Raise ValueError when the check ``name`` cannot apply to a form of
    this label and n.  The checks below call it first, and ``polegeom
    check`` calls it before the scan: it reads no geometry."""
    if name == "hexagon" and label is not None and not label.startswith(("T9", "T12")):
        raise ValueError(f"hexagon check applies to T9/T12, not {label}")
    if name in _CHECK_N and n != _CHECK_N[name][0]:
        want, title = _CHECK_N[name]
        raise ValueError(f"{title} check applies to n = {want}")


@dataclass
class SpreadResult:
    is_spread: bool
    cover_histogram: Dict[int, int]


def spread_check(geom: IncidenceStructure) -> SpreadResult:
    """Whether the line set partitions all points of PG(n-1, q)."""
    total = num_projective_points(geom.field.p, geom.n)
    histogram = Counter(len(ids) for ids in geom.lines_by_point.values())
    histogram[0] = total - len(geom.lines_by_point)
    if histogram[0] == 0:
        del histogram[0]
    is_spread = bool(geom.lines) and set(histogram) == {1}
    return SpreadResult(is_spread=is_spread, cover_histogram=dict(sorted(histogram.items())))


def normal_spread_check(geom: IncidenceStructure) -> bool:
    """Whether the spread induces a spread on the span of every line pair.

    For spread lines L_i, L_j with span S, a 3-space since spread lines
    are disjoint, the plane pi = <L_i, r1(L_j)> meets every line of S.  So
    S is partitioned by spread lines iff the spread line M through each
    point z of pi off L_i lies in S, which is tested by putting the basis
    row of M other than z into the n - 4 equations of S.  No two such z
    lie on one spread line, which would then lie in pi and meet L_i, so
    the M and L_i are q^2 + 1 distinct lines and cover S.  Pairs spanning
    an already-verified 3-space are skipped via bitmask bookkeeping.
    """
    if not spread_check(geom).is_spread:
        raise ValueError("normality is only defined for spreads")
    q = geom.field.p
    lines = geom.lines
    count = len(lines)
    masks = [1 << i for i in range(count)]  # pair (i, j) done when bit j of masks[i]
    full = (1 << count) - 1
    for i in range(count):
        todo = full & ~masks[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            eqs = kernel_mod_p([list(row) for row in lines[i] + lines[j]], q)
            plane = [list(row) for row in lines[i] + lines[j][:1]]
            _rref_mod_p(plane, q)
            members, group = [i], 1 << i
            for z in span_points_mod_p(q, plane):
                m = geom.lines_by_point[z][0]
                if m == i:
                    continue
                r1, r2 = lines[m]
                w = r2 if z == r1 else r1
                if any(sum(e * x for e, x in zip(eq, w)) % q for eq in eqs):
                    return False
                members.append(m)
                group |= 1 << m
            for m in members:
                masks[m] |= group
            todo = full & ~masks[i]
    return True


def unit_equation(n: int, index: int) -> Tuple[int, ...]:
    return tuple(1 if i == index - 1 else 0 for i in range(n))


def polar_space_lines(
    field: GF,
    n: int,
    beta: BilinearAltForm,
    carrier_eqs: Sequence[Sequence[int]],
    apex_eqs: Optional[Sequence[Sequence[int]]] = None,
) -> List[Line]:
    """Lines inside the carrier subspace, totally isotropic for beta, and
    meeting the apex subspace A non-trivially when one is given; sorted.

    Built on ints mod p from each canonical point x of the carrier in
    sorted order.  Lying in the carrier, beta(x, y) = 0 and, for x off A,
    y in <x> + A (the apex rows combined to vanish at x) are linear in y
    and unchanged by y -> y + c*x.  So the kept lines through x are the
    [x, y] with y in the subspace W_x they cut out (``kernel_mod_p``),
    each emitted once, at its least point, by ``_least_point_lines``.
    """
    p = field.p
    carrier = [list(e) for e in carrier_eqs] or [[0] * n]
    apex = apex_eqs or []

    def spaces():
        for x in sorted(span_points_mod_p(p, kernel_mod_p(carrier, p))):
            isotropic = [0] * n  # the row of beta(x, .)
            for (j, k), c in beta.coeffs.items():
                isotropic[k - 1] += c * x[j - 1]
                isotropic[j - 1] -= c * x[k - 1]
            rows = carrier + [isotropic]
            values = [sum(e * v for e, v in zip(eq, x)) % p for eq in apex]
            lead = next((i for i, v in enumerate(values) if v), None)
            if lead is not None:  # x off A; the lead's own row comes out zero
                c0, e0 = values[lead], apex[lead]
                rows += [[c0 * e - c * f for e, f in zip(eq, e0)] for c, eq in zip(values, apex)]
            yield x, kernel_mod_p(rows, p)

    return _least_point_lines(p, spaces())


POLAR_CONFIGS: Dict[str, List[dict]] = {
    # carrier/apex given by coordinate equations, beta by signed pair
    # coefficients; the second T5 component carries w56 - w17
    "T5": [
        {
            "carrier": [1],
            "beta": {(2, 3): 1, (4, 7): 1, (5, 6): 1},
            "apex": [1, 4, 5, 6],
        },
        {
            "carrier": [4],
            "beta": {(1, 7): -1, (2, 3): 1, (5, 6): 1},
            "apex": [1, 2, 3, 4],
        },
    ],
    "T6": [
        {
            "carrier": [1],
            "beta": {(2, 5): 1, (3, 6): 1, (4, 7): 1},
            "apex": [1, 2, 3, 4],
        }
    ],
    "T8": [
        {"carrier": [1], "beta": {(2, 3): 1, (4, 5): 1, (6, 7): 1}, "apex": None}
    ],
}


def expected_polar_lines(tag: str, field: GF) -> List[Line]:
    """The polar-space line set of PG(6, p) (union over components for
    T5): ``POLAR_CONFIGS`` are coordinates of n = 7."""
    n = 7
    if tag not in POLAR_CONFIGS:
        raise ValueError("polar check applies to T5, T6 or T8")
    out: Set[Line] = set()
    for cfg in POLAR_CONFIGS[tag]:
        beta = BilinearAltForm(
            n, field, {p: field.of(c) for p, c in cfg["beta"].items()}
        )
        carrier = [unit_equation(n, i) for i in cfg["carrier"]]
        apex = [unit_equation(n, i) for i in cfg["apex"]] if cfg["apex"] else None
        out.update(polar_space_lines(field, n, beta, carrier, apex))
    return sorted(out)


@dataclass
class ConeReport:
    pole_set_ok: bool
    degree4_is_conic: bool
    line_planes_ok: bool
    off_vertex_ok: bool
    conic_points: Tuple[Vector, ...] = ()
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.pole_set_ok
            and self.degree4_is_conic
            and self.line_planes_ok
            and self.off_vertex_ok
        )


def _lines_inside(geom: IncidenceStructure, plane_points: Sequence[Vector]) -> Set[int]:
    """The ids of the lines of ``geom`` inside a plane, from its points: a
    line meeting the plane twice lies in it, so each id counts 0, 1 or p+1."""
    counts: Counter = Counter()
    for pt in plane_points:
        counts.update(geom.lines_by_point.get(pt, ()))
    full = geom.field.p + 1
    return {idx for idx, c in counts.items() if c == full}


def _pencil_plane(geom: IncidenceStructure, u: Vector) -> Tuple[Vector, ...]:
    """The reduced-echelon basis of the pencil plane [Rad(chi_u)] of a pole
    u of degree 2, read off the radical lines on ints mod p.

    The radical lines through u are the [u, y] with y in the 3-space
    Rad(chi_u), p+1 >= 3 of them, so the first two span the plane.
    """
    p = geom.field.p
    i, j = geom.lines_by_point[u][:2]
    work = [list(row) for row in geom.lines[i] + geom.lines[j]]
    rank = len(_rref_mod_p(work, p))
    return tuple(tuple(row) for row in work[:rank])


def cone_structure_check(geom: IncidenceStructure, h: TriForm) -> ConeReport:
    """Verify the vertex-plane cone description of the T7 pole geometry.

    Reads only ``geom``, on ints mod p: the scan's degree of every point of
    PG(6, p) and the pencil planes off the radical lines.  ``h`` is kept
    for callers and not read.
    """
    p = geom.field.p
    n = geom.n
    check_scope("cone", geom.label, n)
    # (a) pole set is the quadric u5*u7 + u4*u6 = 0
    pole_set_ok = all(
        ((u[4] * u[6] + u[3] * u[5]) % p == 0) == (d >= 1) for u, d in geom.degrees.items()
    )
    # (b) degree-4 points form the conic u1^2 = u2*u3 of the vertex plane
    conic = tuple(
        u
        for u in geom.degrees
        if not any(u[3:]) and (u[0] * u[0] - u[1] * u[2]) % p == 0
    )
    degree4 = tuple(pt for pt in geom.points if geom.degrees[pt] == 4)
    degree4_is_conic = set(degree4) == set(conic)
    # (c) every radical line lies in a plane made entirely of radical lines
    # and touching the conic.  A plane whose lines are all radical and which
    # contains a degree-2 point p must equal the pencil plane [Rad(chi_p)],
    # so the pencil planes (plus any plane of degree-4 points, none here:
    # the degree-4 locus is a conic) exhaust the candidates.
    conic_set = set(conic)
    witness = None
    # the pencil plane of each degree-2 pole, read again in (d)
    pencils = {pt: _pencil_plane(geom, pt) for pt in geom.points if geom.degrees[pt] == 2}
    meets_conic: Dict[Tuple, bool] = {}
    covered: Set[int] = set()
    for basis in pencils.values():
        if basis in meets_conic:
            continue
        plane = span_points_mod_p(p, basis)
        meets_conic[basis] = not conic_set.isdisjoint(plane)
        if meets_conic[basis]:
            inside = _lines_inside(geom, plane)
            if len(inside) == p * p + p + 1:
                covered |= inside
    uncovered = len(geom.lines) - len(covered)
    line_planes_ok = not uncovered
    if uncovered:
        least = min(line for idx, line in enumerate(geom.lines) if idx not in covered)
        witness = (
            f"{uncovered} of {len(geom.lines)} radical lines lie in no "
            f"fully-radical plane through a conic point, e.g. {least}"
        )
    # (d) poles off the vertex plane have degree 2 and their pencil plane
    # meets the conic
    off_vertex_ok = True
    for pt in geom.points:
        if not any(pt[3:]):
            continue
        d = geom.degrees[pt]
        if d != 2:
            off_vertex_ok = False
            witness = f"off-vertex pole {pt} has degree {d}"
            break
        if not meets_conic[pencils[pt]]:
            off_vertex_ok = False
            witness = f"pencil plane of {pt} misses the conic"
            break
    return ConeReport(
        pole_set_ok=pole_set_ok,
        degree4_is_conic=degree4_is_conic,
        line_planes_ok=line_planes_ok,
        off_vertex_ok=off_vertex_ok,
        conic_points=conic,
        witness=witness,
    )


@dataclass
class HexagonStats:
    points: int
    lines: int
    points_per_line: Optional[int]
    lines_per_point: Optional[int]
    girth: Optional[int]
    diameter: Optional[int]

    def as_tuple(self) -> Tuple:
        return astuple(self)


def incidence_graph_stats(geom: IncidenceStructure) -> HexagonStats:
    """Exact statistics of the bipartite point-line incidence graph.

    The graph goes to ``kernels.graph_stats`` in CSR form, the poles'
    rows (``lines_by_point``) first and then the lines' rows
    (``points_by_line``); girth and diameter come from its int-bitset
    balls, and are None for an acyclic or a disconnected graph
    respectively."""
    from . import kernels

    np_, nl = len(geom.points), len(geom.lines)
    point_ids = {pt: i for i, pt in enumerate(geom.points)}
    offsets = [0]
    neighbors: List[int] = []
    for pt in geom.points:
        neighbors.extend(map(np_.__add__, geom.lines_by_point.get(pt, ())))
        offsets.append(len(neighbors))
    for pts in geom.points_by_line:
        neighbors.extend(map(point_ids.__getitem__, pts))
        offsets.append(len(neighbors))
    sizes = [b - a for a, b in zip(offsets, offsets[1:])]
    lpp, ppl = set(sizes[:np_]), set(sizes[np_:])
    girth, diameter, connected = kernels.graph_stats(offsets, neighbors, np_)
    return HexagonStats(
        points=np_,
        lines=nl,
        points_per_line=ppl.pop() if len(ppl) == 1 else None,
        lines_per_point=lpp.pop() if len(lpp) == 1 else None,
        girth=girth if girth >= 0 else None,
        diameter=diameter if connected else None,
    )


def hexagon_check(geom: IncidenceStructure) -> HexagonStats:
    """Statistics for the hexagonal types; the generalized-hexagon profile is
    (girth 12, diameter 6) with regular parameters."""
    check_scope("hexagon", geom.label, geom.n)
    return incidence_graph_stats(geom)


@dataclass
class T11Report:
    pole_set_ok: bool
    unique_degree4_ok: bool
    partition_ok: bool
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.pole_set_ok and self.unique_degree4_ok and self.partition_ok


def t11_structure_check(geom: IncidenceStructure, h: TriForm) -> T11Report:
    """Pole set u1 = u4 = 0, a unique degree-4 point [e7], and pencil planes
    through [e7] partitioning the rest.

    Reads only ``geom``, on ints mod p, as ``cone_structure_check`` does;
    ``h`` is kept for callers and not read.
    """
    p = geom.field.p
    n = geom.n
    check_scope("t11", geom.label, n)
    expected_points = {u for u in geom.degrees if u[0] == 0 and u[3] == 0}
    pole_set_ok = set(geom.points) == expected_points
    e7 = (0,) * (n - 1) + (1,)
    degree4 = [pt for pt in geom.points if geom.degrees[pt] == 4]
    unique_degree4_ok = degree4 == [e7]
    planes: Dict[Tuple, List[Vector]] = {}
    witness = None
    partition_ok = True
    for pt in geom.points:
        if pt == e7:
            continue
        d = geom.degrees[pt]
        if d != 2:
            partition_ok = False
            witness = f"point {pt} has degree {d}"
            break
        basis = _pencil_plane(geom, pt)
        if basis not in planes:
            planes[basis] = span_points_mod_p(p, basis)
    if partition_ok:
        covered: Counter = Counter()
        for basis, pts in planes.items():
            if e7 not in pts:
                partition_ok = False
                witness = f"plane {basis} misses [e7]"
                break
            covered.update(pt for pt in pts if pt != e7)
        if partition_ok:
            expected_rest = expected_points - {e7}
            if set(covered) != expected_rest or set(covered.values()) != {1}:
                partition_ok = False
                witness = "pencil planes do not partition the residue"
    if partition_ok:
        # every line of each plane is radical, and every radical line is in one
        inside = [_lines_inside(geom, pts) for pts in planes.values()]
        all_radical = all(len(ids) == p * p + p + 1 for ids in inside)
        if not all_radical or len(set().union(*inside)) != len(geom.lines):
            partition_ok = False
            witness = "upper radical differs from the union of pencil planes"
    return T11Report(
        pole_set_ok=pole_set_ok,
        unique_degree4_ok=unique_degree4_ok,
        partition_ok=partition_ok,
        witness=witness,
    )


@dataclass
class T4Report:
    lines_ok: bool
    histogram_ok: bool
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.lines_ok and self.histogram_ok


def t4_line_check(geom: IncidenceStructure) -> T4Report:
    """Line set {[a+b, omega(a)]} union {lines of V1} with omega the
    half-coordinate swap, and degrees 3 on [V1], 1 elsewhere."""
    p = geom.field.p
    n = geom.n
    check_scope("t4", geom.label, n)
    # the lines of V1 = <e4, e5, e6>: the lines of PG(2, p) after three zeros
    zero = (0, 0, 0)
    expected = {(zero + s, zero + t) for s, t in _line_bases(p, 3)}
    for a in span_points_mod_p(p, [unit_equation(n, i) for i in (1, 2, 3)]):
        omega_a = a[3:] + a[:3]
        for b in itertools.product(range(p), repeat=3):
            pair = [list(a[:3] + b), list(omega_a)]
            _rref_mod_p(pair, p)
            expected.add((tuple(pair[0]), tuple(pair[1])))
    lines_ok = set(geom.lines) == expected
    hist_ok = True
    witness = None
    for pt, d in geom.degrees.items():
        want = 1 if any(pt[:3]) else 3
        if d != want:
            hist_ok = False
            witness = f"point {pt} has degree {d}, expected {want}"
            break
    return T4Report(lines_ok=lines_ok, histogram_ok=hist_ok, witness=witness)


@dataclass(frozen=True)
class GeometryFingerprint:
    """Deterministic near-equivalence proxy for a form over a finite field.

    Every field is read off one scan of the point degrees: the rank from
    the number of points of degree n-1, the pole count and degree
    histogram directly, the line counts by the closed form in
    ``fingerprint``.  The variety degree is read off G's terms alone
    (``poles._variety_degree``)."""

    rank: int
    n: int
    pole_count: int
    degree_histogram: Tuple[Tuple[int, int], ...]
    line_count: int
    lines_per_point_histogram: Tuple[Tuple[int, int], ...]
    variety_degree: Optional[int]

    def as_tuple(self) -> Tuple:
        return astuple(self)


def fingerprint(h: TriForm, field: GF, budget: Optional[int] = None) -> GeometryFingerprint:
    """The fingerprint of h over field, from one scan without radicals,
    guarded by the same terms of G that give the variety degree.

    The degrees alone fix every line count.  A pole u of degree d has
    Rad(chi_u) of dimension d+1 containing u, and every [u, y] with y in
    it is radical, so the lines through u are the points of
    PG(Rad(chi_u)/<u>): (p^d - 1)/(p - 1) of them.  Each radical line
    has p+1 points, all poles, so the line count is the sum of these over
    the poles divided by p+1.  ``build_geometry`` assembles the same lines
    one by one, and the tests hold the two counts equal.

    The rank is n - r with r = dim Rad(h): u lies in Rad(h) exactly when
    M_u = 0, that is when [u] has degree n-1, so the scan finds the
    (p^r - 1)/(p - 1) points of PG(Rad(h)) at that degree.
    """
    hf = over_field(h, field)
    g_terms = _pfaffian_quotient(hf)
    report = _scan_report(hf, budget, False, g_terms)
    p, n = field.p, hf.n
    radical_points = report.histogram.get(n - 1, 0)
    r = count = 0
    while count < radical_points:
        r, count = r + 1, count * p + 1
    if count != radical_points:
        raise RuntimeError(
            f"{radical_points} points of degree {n - 1} for {h.label or h!r} over "
            f"{field!r} are not a projective space: the scan's degrees are inconsistent"
        )
    if r == n:
        raise ValueError("zero form has no rank")
    deg_hist = {d: c for d, c in report.histogram.items() if d >= 1}
    lines_per_point: Counter = Counter()
    for d, c in deg_hist.items():
        lines_per_point[(p**d - 1) // (p - 1)] += c
    line_count, rest = divmod(sum(k * c for k, c in lines_per_point.items()), p + 1)
    if rest:
        raise RuntimeError(
            f"pole-line incidences of {h.label or h!r} over {field!r} are not "
            f"a multiple of {p + 1}: the scan's degrees are inconsistent"
        )
    return GeometryFingerprint(
        rank=n - r,
        n=n,
        pole_count=sum(deg_hist.values()),
        degree_histogram=tuple(sorted(deg_hist.items())),
        line_count=line_count,
        lines_per_point_histogram=tuple(sorted(lines_per_point.items())),
        variety_degree=_variety_degree(hf, g_terms),
    )


__all__ = [
    "IncidenceStructure",
    "build_geometry",
    "check_scope",
    "spread_check",
    "normal_spread_check",
    "polar_space_lines",
    "expected_polar_lines",
    "cone_structure_check",
    "hexagon_check",
    "incidence_graph_stats",
    "t11_structure_check",
    "t4_line_check",
    "fingerprint",
    "GeometryFingerprint",
    "POLAR_CONFIGS",
    "unit_equation",
]
