"""Machine-readable transcriptions of the reference tables and diffs
against recomputed output.

Matrix fixtures hold one entry string per cell in the variables
u1..un plus the parameter symbol L; radical-system fixtures are linear
forms in the pair variables w{jk}; pole equations use x1..xn.  The diff
helpers substitute a concrete parameter, rebuild the same object from
the catalog form, and report any located mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .fields import GF, QQ, Field, Scalar
from .forms import catalog_form
from .poles import pole_variety, symbolic_matrix, upper_radical_system
from .poly import MultiPoly, equal_up_to_scalar, parse_poly
from .projective import pair_list, subspace_rref

# -- fixtures ---------------------------------------------------------------

MATRIX_TABLE_SMALL: Dict[str, List[List[str]]] = {
    "T1": [
        ["0", "u3", "-u2"],
        ["-u3", "0", "u1"],
        ["u2", "-u1", "0"],
    ],
    "T2": [
        ["0", "u3", "-u2", "u5", "-u4"],
        ["-u3", "0", "u1", "0", "0"],
        ["u2", "-u1", "0", "0", "0"],
        ["-u5", "0", "0", "0", "u1"],
        ["u4", "0", "0", "-u1", "0"],
    ],
    "T3": [
        ["0", "u3", "-u2", "0", "0", "0"],
        ["-u3", "0", "u1", "0", "0", "0"],
        ["u2", "-u1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "u6", "-u5"],
        ["0", "0", "0", "-u6", "0", "u4"],
        ["0", "0", "0", "u5", "-u4", "0"],
    ],
    "T4": [
        ["0", "-u6", "u5", "0", "-u3", "u2"],
        ["u6", "0", "-u4", "u3", "0", "-u1"],
        ["-u5", "u4", "0", "-u2", "u1", "0"],
        ["0", "-u3", "u2", "0", "0", "0"],
        ["u3", "0", "-u1", "0", "0", "0"],
        ["-u2", "u1", "0", "0", "0", "0"],
    ],
    "T10_1": [
        ["0", "u3", "-u2", "0", "L*u6", "-L*u5"],
        ["-u3", "0", "u1", "-L*u6", "0", "L*u4"],
        ["u2", "-u1", "0", "L*u5", "-L*u4", "0"],
        ["0", "L*u6", "-L*u5", "0", "L*u3", "-L*u2"],
        ["-L*u6", "0", "L*u4", "-L*u3", "0", "L*u1"],
        ["L*u5", "-L*u4", "0", "L*u2", "-L*u1", "0"],
    ],
    "T10_2": [
        ["0", "u6", "-u5", "0", "L*u6+u3", "-L*u5-u2"],
        ["-u6", "0", "u4", "-L*u6-u3", "0", "L*u4+u1"],
        ["u5", "-u4", "0", "L*u5+u2", "-L*u4-u1", "0"],
        ["0", "L*u6+u3", "-L*u5-u2", "0", "L^2*u6+u6+L*u3", "-L^2*u5-u5-L*u2"],
        ["-L*u6-u3", "0", "L*u4+u1", "-L^2*u6-u6-L*u3", "0", "L^2*u4+u4+L*u1"],
        ["L*u5+u2", "-L*u4-u1", "0", "L^2*u5+u5+L*u2", "-L^2*u4-u4-L*u1", "0"],
    ],
}

MATRIX_TABLE_RANK7: Dict[str, List[List[str]]] = {
    "T5": [
        ["0", "u3", "-u2", "u7", "0", "0", "-u4"],
        ["-u3", "0", "u1", "0", "0", "0", "0"],
        ["u2", "-u1", "0", "0", "0", "0", "0"],
        ["-u7", "0", "0", "0", "u6", "-u5", "u1"],
        ["0", "0", "0", "-u6", "0", "u4", "0"],
        ["0", "0", "0", "u5", "-u4", "0", "0"],
        ["u4", "0", "0", "-u1", "0", "0", "0"],
    ],
    "T6": [
        ["0", "-u5", "-u6", "-u7", "u2", "u3", "u4"],
        ["u5", "0", "-u4", "u3", "-u1", "0", "0"],
        ["u6", "u4", "0", "-u2", "0", "-u1", "0"],
        ["u7", "-u3", "u2", "0", "0", "0", "-u1"],
        ["-u2", "u1", "0", "0", "0", "0", "0"],
        ["-u3", "0", "u1", "0", "0", "0", "0"],
        ["-u4", "0", "0", "u1", "0", "0", "0"],
    ],
    "T7": [
        ["0", "0", "0", "u6", "u7", "-u4", "-u5"],
        ["0", "0", "0", "u5", "-u4", "0", "0"],
        ["0", "0", "0", "0", "0", "u7", "-u6"],
        ["-u6", "-u5", "0", "0", "u2", "u1", "0"],
        ["-u7", "u4", "0", "-u2", "0", "0", "u1"],
        ["u4", "0", "-u7", "-u1", "0", "0", "u3"],
        ["u5", "0", "u6", "0", "-u1", "-u3", "0"],
    ],
    "T8": [
        ["0", "u3", "-u2", "u5", "-u4", "u7", "-u6"],
        ["-u3", "0", "u1", "0", "0", "0", "0"],
        ["u2", "-u1", "0", "0", "0", "0", "0"],
        ["-u5", "0", "0", "0", "u1", "0", "0"],
        ["u4", "0", "0", "-u1", "0", "0", "0"],
        ["-u7", "0", "0", "0", "0", "0", "u1"],
        ["u6", "0", "0", "0", "0", "-u1", "0"],
    ],
    "T9": [
        ["0", "u3", "-u2", "u7", "0", "0", "-u4"],
        ["-u3", "0", "u1", "0", "u7", "0", "-u5"],
        ["u2", "-u1", "0", "0", "0", "u7", "-u6"],
        ["-u7", "0", "0", "0", "u6", "-u5", "u1"],
        ["0", "-u7", "0", "-u6", "0", "u4", "u2"],
        ["0", "0", "-u7", "u5", "-u4", "0", "u3"],
        ["u4", "u5", "u6", "-u1", "-u2", "-u3", "0"],
    ],
    "T11_1": [
        ["0", "u3", "-u2", "u7", "L*u6", "-L*u5", "-u4"],
        ["-u3", "0", "u1", "-L*u6", "0", "L*u4", "0"],
        ["u2", "-u1", "0", "L*u5", "-L*u4", "0", "0"],
        ["-u7", "L*u6", "-L*u5", "0", "L*u3", "-L*u2", "u1"],
        ["-L*u6", "0", "L*u4", "-L*u3", "0", "L*u1", "0"],
        ["L*u5", "-L*u4", "0", "L*u2", "-L*u1", "0", "0"],
        ["u4", "0", "0", "-u1", "0", "0", "0"],
    ],
    "T11_2": [
        ["0", "u6", "-u5", "u7", "L*u6+u3", "-L*u5-u2", "-u4"],
        ["-u6", "0", "u4", "-L*u6-u3", "0", "L*u4+u1", "0"],
        ["u5", "-u4", "0", "L*u5+u2", "-L*u4-u1", "0", "0"],
        ["-u7", "L*u6+u3", "-L*u5-u2", "0", "L^2*u6+u6+L*u3", "-L^2*u5-u5-L*u2", "u1"],
        ["-L*u6-u3", "0", "L*u4+u1", "-L^2*u6-u6-L*u3", "0", "L^2*u4+u4+L*u1", "0"],
        ["L*u5+u2", "-L*u4-u1", "0", "L^2*u5+u5+L*u2", "-L^2*u4-u4-L*u1", "0", "0"],
        ["u4", "0", "0", "-u1", "0", "0", "0"],
    ],
}

# the geometries of poles for rank <= 6: every point is a pole, plus the
# radical-line systems
GEOMETRY_TABLE_SMALL: Dict[str, List[str]] = {
    "T1": ["w12", "w13", "w23"],
    "T2": ["w12", "w13", "w15", "w14", "w23+w45"],
    "T3": ["w12", "w13", "w23", "w45", "w46", "w56"],
    "T4": ["w26-w35", "w16-w34", "w24-w15", "w23", "w13", "w12"],
    "T10_1": [
        "w23+L*w56",
        "w26-w35",
        "w13+L*w46",
        "w16-w34",
        "w12+L*w45",
        "w15-w24",
    ],
    "T10_2": [
        "w26-w35+L*w56",
        "-w16+w34-L*w46",
        "w15-w24+L*w45",
        "w23+L*w26-L*w35+L^2*w56+w56",
        "-w13-L*w16+L*w34-w46-L^2*w46",
        "w12+L*w15-L*w24+w45+L^2*w45",
    ],
}

POLE_EQUATION_RANK7: Dict[str, str] = {
    "T5": "x1*x4",
    "T6": "x1^2",
    "T7": "x5*x7+x4*x6",
    "T8": "x1^2",
    "T9": "x7^2-x3*x6-x2*x5-x1*x4",
    "T11_1": "L*x4^2-x1^2",
    "T11_2": "x4^2+L*x1*x4+x1^2",
}

GEOMETRY_TABLE_RANK7: Dict[str, List[str]] = {
    "T5": ["w23+w47", "w13", "w12", "w56-w17", "w14", "w45", "w46"],
    "T6": [
        "w25+w36+w47",
        "w14",
        "w15-w34",
        "w16+w24",
        "w17-w23",
        "w12",
        "w13",
    ],
    "T7": [
        "w46+w57",
        "w45",
        "w67",
        "w16+w25",
        "w24-w17",
        "w14-w37",
        "w15+w36",
    ],
    "T8": ["w23+w45+w67", "w13", "w12", "w14", "w15", "w16", "w17"],
    "T9": [
        "w23+w47",
        "w57-w13",
        "w12+w67",
        "w56-w17",
        "w27+w46",
        "w45-w37",
        "w14+w25+w36",
    ],
    "T11_1": [
        "w13+L*w46",
        "w12+L*w45",
        "w23+w47+L*w56",
        "w14",
        "-w17+L*w26-L*w35",
        "w15-w24",
        "w16-w34",
    ],
    "T11_2": [
        "w26-w35+w47+L*w56",
        "w16-w34+L*w46",
        "w14",
        "w15-w24+L*w45",
        "w17-w23-L*w26+L*w35-L^2*w56-w56",
        "w13+L*w16-L*w34+L^2*w46+w46",
        "w12+L*w15-L*w24+L^2*w45+w45",
    ],
}

TABLE2_TAGS = ["T1", "T2", "T3", "T4", "T10_1", "T10_2"]
TABLE3_TAGS = ["T5", "T6", "T7", "T8", "T9", "T11_1", "T11_2"]
TABLE4_TAGS = TABLE2_TAGS
TABLE5_TAGS = TABLE3_TAGS

# Default instantiation contexts satisfying each row's parameter condition.
DEFAULT_CONTEXT: Dict[str, Tuple[Field, Optional[Scalar]]] = {
    "T10_1": (QQ, 2),
    "T10_2": (GF(2), 1),
    "T11_1": (QQ, 2),
    "T11_2": (GF(2), 1),
}


def _parse_entry(
    text: str, nvars: int, field: Field, names: Sequence[str], lam: Optional[Scalar]
) -> MultiPoly:
    """Parse an entry in nvars variables plus trailing L, substituting L."""
    poly = parse_poly(text, nvars + 1, field, list(names) + ["L"])
    value = field.zero if lam is None else field.of(lam)
    return poly.substitute(nvars + 1, value).drop_variable(nvars + 1)


def fixture_matrix_rows(tag: str) -> List[List[str]]:
    if tag in MATRIX_TABLE_SMALL:
        return MATRIX_TABLE_SMALL[tag]
    return MATRIX_TABLE_RANK7[tag]


def compare_matrix(
    tag: str, field: Field, param: Optional[Scalar] = None
) -> List[Tuple[int, int, str, str]]:
    """Cell-level diff between the transcribed matrix and the recomputed
    symbolic contraction; empty means exact equality."""
    from .poly import render_poly

    rows = fixture_matrix_rows(tag)
    n = len(rows)
    h = catalog_form(tag, field, n=n, param=param)
    computed = symbolic_matrix(h)
    names = [f"u{i + 1}" for i in range(n)]
    diffs = []
    for r in range(n):
        for c in range(n):
            want = _parse_entry(rows[r][c], n, field, names, param)
            got = computed.entry(r, c)
            if want != got:
                diffs.append((r + 1, c + 1, render_poly(want), render_poly(got)))
    return diffs


def _system_rows(
    tag: str, n: int, field: Field, param: Optional[Scalar]
) -> List[Tuple[Scalar, ...]]:
    source = GEOMETRY_TABLE_SMALL if tag in GEOMETRY_TABLE_SMALL else GEOMETRY_TABLE_RANK7
    pairs = pair_list(n)
    names = [f"w{j}{k}" for (j, k) in pairs]
    rows = []
    for text in source[tag]:
        poly = _parse_entry(text, len(pairs), field, names, param)
        row = [field.zero] * len(pairs)
        for exps, coeff in poly.terms.items():
            if sum(exps) != 1:
                raise ValueError(f"fixture equation {text!r} is not linear")
            row[exps.index(1)] = coeff
        rows.append(tuple(row))
    return rows


def compare_system(
    tag: str, field: Field, param: Optional[Scalar] = None
) -> Optional[str]:
    """None when the fixture equations span the same solution space as the
    recomputed radical system, else a description of the difference."""
    n = 6 if tag in GEOMETRY_TABLE_SMALL else 7
    h = catalog_form(tag, field, n=n, param=param)
    system = upper_radical_system(h)
    computed_span = subspace_rref(field, [list(r) for r in system.equations.rows])
    fixture_rows = _system_rows(tag, n, field, param)
    fixture_span = subspace_rref(field, [list(r) for r in fixture_rows])
    if computed_span == fixture_span:
        return None
    return (
        f"row spans differ: fixture rank {len(fixture_span)}, "
        f"computed rank {len(computed_span)}"
        if len(fixture_span) != len(computed_span)
        else "row spans differ at equal rank"
    )


def compare_pole_equation(
    tag: str, field: Field, param: Optional[Scalar] = None
) -> Optional[str]:
    """None when the recomputed variety equation is a nonzero scalar multiple
    of the transcribed one (or both agree that every point is a pole)."""
    if tag in GEOMETRY_TABLE_SMALL:
        h = catalog_form(tag, field, n=6, param=param)
        result = pole_variety(h)
        return None if result.all_points else "expected the all-points marker"
    h = catalog_form(tag, field, n=7, param=param)
    result = pole_variety(h)
    if result.all_points:
        return "unexpected all-points marker"
    names = [f"x{i + 1}" for i in range(7)]
    want = _parse_entry(POLE_EQUATION_RANK7[tag], 7, field, names, param)
    scale = equal_up_to_scalar(result.g, want)
    if scale is None:
        from .poly import render_poly

        return (
            f"no scalar matches: fixture {render_poly(want, names)}, "
            f"computed {render_poly(result.g, names)} (index {result.index})"
        )
    return None


def tables_fixture(which: int) -> dict:
    """Recompute one appendix table and diff it against the transcription."""
    tags = {2: TABLE2_TAGS, 3: TABLE3_TAGS, 4: TABLE4_TAGS, 5: TABLE5_TAGS}.get(which)
    if tags is None:
        raise ValueError("table number must be 2, 3, 4 or 5")
    rows = []
    for tag in tags:
        field, param = DEFAULT_CONTEXT.get(tag, (QQ, None))
        if which in (2, 3):
            diff = [
                {"row": r, "col": c, "fixture": w, "computed": g}
                for (r, c, w, g) in compare_matrix(tag, field, param)
            ]
        else:
            system_diff = compare_system(tag, field, param)
            pole_diff = compare_pole_equation(tag, field, param)
            diff = [d for d in (system_diff, pole_diff) if d]
        rows.append({"tag": tag, "field": repr(field), "ok": not diff, "diff": diff})
    return {"table": which, "ok": all(r["ok"] for r in rows), "rows": rows}
