"""Command-line front end.

Subcommands load a form (catalog tag or form file), run the pole and
radical computations or a geometry check, and emit deterministic text or
JSON.  Exit codes: 0 success, 1 check failed (a witness is printed),
2 usage or environment errors (bad flags, unreadable file, budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from . import constructions, geometry, tables
from .fields import Field, FieldError, parse_field
from .forms import (
    CATALOG_RANKS,
    CatalogConditionError,
    TriForm,
    catalog_form,
)
from .poles import (
    BudgetExceededError,
    VarietyError,
    enumerate_upper_radical,
    full_report,
    lines_through_point,
    over_field,
    pole_variety,
    symbolic_matrix,
    upper_radical_system,
)
from .poly import render_poly
from .projective import canonical_point, wedge2_mod_p


class UsageError(Exception):
    pass


# The record lists of the `poles` and `radical-lines` reports, written
# without the pure-Python `indent=2` encoder: every record of a list has
# the shape of its first one (n ints per point or basis row, n(n-1)/2 per
# Pluecker vector), so the list's text is one template filled by a single
# `%` over the flattened ints.
RECORD_LISTS = ("poles", "upper_radical", "lines")


def _emit(payload: dict, output: str) -> None:
    """Print the payload as text, or as ``json.dumps(payload, indent=2)``
    byte for byte, written one top-level item at a time so that the whole
    document is never held at once."""
    if output != "json":
        _emit_text(payload)
        return
    write = sys.stdout.write
    if not any(payload.get(key) for key in RECORD_LISTS):
        write(json.dumps(payload, indent=2) + "\n")
        return
    sep = "{\n"
    for key, value in payload.items():
        text = _record_list_text(value) if key in RECORD_LISTS and value else None
        if text is None:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        write(f"{sep}  {json.dumps(key)}: ")
        write(text)
        sep = ",\n"
    write("\n}\n")


def _template(value, pad: str) -> Optional[str]:
    """The ``indent=2`` text of ``value`` at indent ``pad`` with every int
    replaced by ``%d``, or None unless it is made of ints and nonempty lists
    and dicts.  Dict keys are written unescaped: they are the records' own
    plain names."""
    inner = pad + "  "
    if type(value) is int:
        return "%d"
    if isinstance(value, list) and value:
        heads, values, brackets = [inner] * len(value), value, "[]"
    elif isinstance(value, dict) and value:
        heads = [f'{inner}"{key}": ' for key in value]
        values, brackets = list(value.values()), "{}"
    else:
        return None
    texts = [_template(v, inner) for v in values]
    if None in texts:
        return None
    body = ",\n".join(head + text for head, text in zip(heads, texts))
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"


def _record_list_text(records: list) -> Optional[str]:
    """The indented text of a top-level list of pole or line records, or
    None for a list of any other shape.  Only the first record is
    inspected; the rest are assumed to share its shape."""
    first = records[0]
    if isinstance(first, dict):
        shape = list(first)
    elif isinstance(first, list) and first and isinstance(first[0], list):
        shape = "rows"
    else:
        return None
    if shape not in ("rows", ["point", "degree"], ["basis", "plucker"]):
        return None
    record = _template(first, "    ")
    if record is None:
        return None
    flat: List[int] = []
    if shape == "rows":  # the basis of each line through a point
        for basis in records:
            for row in basis:
                flat += row
    elif shape == ["point", "degree"]:
        for r in records:
            flat += r["point"]
            flat.append(r["degree"])
    else:
        for r in records:
            for row in r["basis"]:
                flat += row
            flat += r["plucker"]
    # one join builds the whole template, brackets included
    template = [",\n    " + record] * len(records)
    template[0] = "[\n    " + record
    template.append("\n  ]")
    return "".join(template) % tuple(flat)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}: [{len(value)} entries]")
            for item in value[:20]:
                print(f"{pad}  {json.dumps(item)}")
            if len(value) > 20:
                print(f"{pad}  ... ({len(value) - 20} more)")
        else:
            print(f"{pad}{key}: {value}")


# the flags a command takes only when it reads them
_FLAGS = {
    "budget": dict(type=int, help="enumeration budget (p^n cap, default 10^7)"),
    "output": dict(choices=("text", "json"), default="text", help="report format"),
}


def _add_form_source(parser: argparse.ArgumentParser, *flags: str) -> None:
    parser.add_argument("--catalog", help="catalog type tag, e.g. T9 or T10_1")
    parser.add_argument("--file", help="path of a form file")
    parser.add_argument("--param", help="parameter for the parametric types")
    parser.add_argument("--field", help="field spec: gf(p) or q")
    parser.add_argument("--dim", type=int, help="ambient dimension")
    for flag in flags:
        parser.add_argument(f"--{flag}", **_FLAGS[flag])


def _read_form(path: str) -> TriForm:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return TriForm.from_text(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read form file: {exc}") from exc


def _load_form(args) -> Tuple[TriForm, Field]:
    """The form as read and the field every command takes it over:
    --field, else a form file's own field.  A finite form file fixes its
    field, so a different --field contradicts it."""
    if bool(args.catalog) == bool(args.file):
        raise UsageError("exactly one form source (--catalog or --file) is required")
    field = parse_field(args.field) if args.field else None
    if args.catalog:
        if field is None:
            raise UsageError("--catalog needs --field")
        return catalog_form(args.catalog, field, n=args.dim, param=args.param), field
    form = _read_form(args.file)
    if field is None:
        return form, form.field
    if form.field.is_finite and field != form.field:
        raise UsageError(f"--field {field!r} contradicts the form's field {form.field!r}")
    return form, field


def _form_over(form: TriForm, field: Field) -> TriForm:
    """A form of ``_load_form`` over its field: as read over q, else
    reduced to gf(p) by ``over_field``."""
    return over_field(form, field) if field.is_finite else form


def _parse_vector(text: str, field, n: int):
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    if len(parts) != n:
        raise UsageError(f"vector needs {n} components, got {len(parts)}")
    return [field.of(p) for p in parts]


def _cmd_catalog(args) -> int:
    if args.list:
        for tag, rank in CATALOG_RANKS.items():
            print(f"{tag}\trank {rank}")
        return 0
    form = _form_over(*_load_form(args))
    sys.stdout.write(form.to_text())
    return 0


def _cmd_eval(args) -> int:
    form = _form_over(*_load_form(args))
    x = _parse_vector(args.x, form.field, form.n)
    y = _parse_vector(args.y, form.field, form.n)
    z = _parse_vector(args.z, form.field, form.n)
    print(form.field.format(form.evaluate(x, y, z)))
    return 0


def _cmd_radical(args) -> int:
    form = _form_over(*_load_form(args))
    radical, rank = form.radical_and_rank()
    payload = {
        "form": form.label or "file",
        "rank": rank,
        "radical_dim": len(radical),
        "radical_basis": [[form.field.format(x) for x in v] for v in radical],
    }
    _emit(payload, args.output)
    return 0


def _cmd_matrix(args) -> int:
    form = _form_over(*_load_form(args))
    sym = symbolic_matrix(form)
    if args.output == "json":
        payload = {
            "form": form.label or "file",
            "n": form.n,
            "entries": [[render_poly(p) for p in row] for row in sym.entries],
        }
        _emit(payload, "json")
    else:
        print(sym.render())
    return 0


def _cmd_poles(args) -> int:
    form, field = _load_form(args)
    payload = full_report(form, field, budget=args.budget)
    _emit(payload, args.output)
    return 0


def _cmd_variety(args) -> int:
    form = _form_over(*_load_form(args))
    result = pole_variety(form, i=args.index, budget=args.budget)
    names = [f"x{i + 1}" for i in range(form.n)]
    if result.all_points:
        payload = {"form": form.label or "file", "i": None, "g": "all-points"}
    else:
        payload = {
            "form": form.label or "file",
            "i": result.index,
            "alpha": result.alpha,
            "d": render_poly(result.d, names),
            "g": render_poly(result.g, names),
            "verified": result.verified_over,
        }
    _emit(payload, args.output)
    return 0


def _cmd_radical_lines(args) -> int:
    form, field = _load_form(args)
    if args.point:
        u = _parse_vector(args.point, field, form.n)
        lines = lines_through_point(form, u, field)
        # degree d <=> (p^d - 1)/(p - 1) lines, strictly increasing in d
        delta = on = 0
        while on < len(lines):
            delta, on = delta + 1, on * field.p + 1
        payload = {
            "form": form.label or "file",
            "point": list(canonical_point(field, u)),
            "degree": delta,
            "count": len(lines),
            "lines": [[list(b) for b in line] for line in lines],
        }
    else:
        lines = enumerate_upper_radical(form, field, budget=args.budget)
        system = upper_radical_system(over_field(form, field))
        payload = {
            "form": form.label or "file",
            "count": len(lines),
            "solution_dim": len(system.solution),
            "lines": [
                {
                    "basis": [list(b) for b in line],
                    "plucker": list(wedge2_mod_p(field.p, *line)),
                }
                for line in lines
            ],
        }
    _emit(payload, args.output)
    return 0


def _cmd_construct(args) -> int:
    if args.what == "cch":
        if not args.field or args.dim is None:
            raise UsageError("construct cch needs --field and --dim")
        form = constructions.cch_hyperplane(args.dim, parse_field(args.field))
    elif args.what == "extend":
        base = _form_over(*_load_form(args))
        if args.extra is None:
            raise UsageError("construct extend needs --extra")
        form = constructions.trivial_extension(base, args.extra)
    elif args.what == "expand":
        if not (args.pairs and args.field) or args.dim is None or args.direction is None:
            raise UsageError(
                "construct expand needs --pairs, --direction, --dim, --field"
            )
        field = parse_field(args.field)
        coeffs = {}
        for chunk in args.pairs.split(","):
            chunk = chunk.strip()
            if len(chunk) != 2:
                raise UsageError(f"bad pair {chunk!r} (expected two digits, e.g. 23)")
            j, k = int(chunk[0]), int(chunk[1])
            coeffs[(j, k)] = field.one
        bilinear = constructions.BilinearAltForm(args.dim, field, coeffs)
        form = constructions.expansion(bilinear, args.direction)
    else:  # block or join
        first, field = _load_form(args)
        if not args.file2:
            raise UsageError(f"construct {args.what} needs --file2")
        first, second = _form_over(first, field), _form_over(_read_form(args.file2), field)
        if args.what == "block":
            form = constructions.block_decompose(
                first,
                second,
                first.field.of(args.alpha or "1"),
                first.field.of(args.beta or "1"),
            )
        else:
            form = constructions.reducible_join(first, second)
    sys.stdout.write(form.to_text())
    return 0


CHECKS = ("spread", "normal-spread", "polar", "cone", "hexagon", "t11", "t4")


# the catalog rows each labelled check describes, and how its error names them
CHECK_ROWS = {
    "polar": (tuple(geometry.POLAR_CONFIGS), "T5, T6 or T8"),
    "cone": (("T7",), "T7"),
    "t11": (("T11_1", "T11_2"), "T11_1/T11_2"),
    "t4": (("T4",), "T4"),
}


def _cmd_check(args) -> int:
    form, field = _load_form(args)
    name = args.what
    tag_root = (form.label or "").split("(")[0]
    # refuse what the label and n alone rule out before the scan
    if name in CHECK_ROWS and tag_root not in CHECK_ROWS[name][0]:
        raise UsageError(f"{name} check applies to {CHECK_ROWS[name][1]}")
    geometry.check_scope(name, form.label, form.n)
    geom = geometry.build_geometry(form, field, budget=args.budget)
    passed = False
    witnesses: List = []
    if name == "spread":
        result = geometry.spread_check(geom)
        passed = result.is_spread
        witnesses = [{"cover_histogram": result.cover_histogram}]
    elif name == "normal-spread":
        if not geometry.spread_check(geom).is_spread:
            witnesses = [{"error": "not a spread"}]
        else:
            passed = geometry.normal_spread_check(geom)
            if not passed:
                witnesses = [{"error": "a line-pair span is not partitioned"}]
    elif name == "polar":
        passed = list(geom.lines) == geometry.expected_polar_lines(tag_root, field)
        if not passed:
            witnesses = [{"error": "line set differs from the polar-space lines"}]
    elif name == "cone":
        report = geometry.cone_structure_check(geom, form)
        passed = report.passed
        witnesses = [
            {
                "pole_set_ok": report.pole_set_ok,
                "degree4_is_conic": report.degree4_is_conic,
                "line_planes_ok": report.line_planes_ok,
                "off_vertex_ok": report.off_vertex_ok,
                "witness": report.witness,
            }
        ]
    elif name == "hexagon":
        stats = geometry.hexagon_check(geom)
        q = field.p
        passed = stats.as_tuple() == (
            stats.points,
            stats.points,
            q + 1,
            q + 1,
            12,
            6,
        )
        witnesses = [{"stats": list(stats.as_tuple())}]
    elif name == "t11":
        report = geometry.t11_structure_check(geom, form)
        passed = report.passed
        witnesses = [{"witness": report.witness}] if report.witness else []
    else:  # t4
        report = geometry.t4_line_check(geom)
        passed = report.passed
        witnesses = [{"witness": report.witness}] if report.witness else []
    payload = {
        "check": name,
        "form": form.label or "file",
        "field": repr(field),
        "pass": passed,
        "witnesses": witnesses,
    }
    _emit(payload, args.output)
    return 0 if passed else 1


def _cmd_fingerprint(args) -> int:
    form, field = _load_form(args)
    fp = geometry.fingerprint(form, field, budget=args.budget)
    payload = {
        "form": form.label or "file",
        "field": repr(field),
        "rank": fp.rank,
        "n": fp.n,
        "pole_count": fp.pole_count,
        "degree_histogram": [list(t) for t in fp.degree_histogram],
        "line_count": fp.line_count,
        "lines_per_point_histogram": [list(t) for t in fp.lines_per_point_histogram],
        "variety_degree": fp.variety_degree,
    }
    _emit(payload, args.output)
    return 0


def _cmd_tables(args) -> int:
    which = [2, 3, 4, 5] if args.which == "all" else [int(args.which)]
    reports = [tables.tables_fixture(w) for w in which]
    ok = all(report["ok"] for report in reports)
    if args.output == "json":
        # one JSON document: a single table's report, or all of them in one object
        _emit(reports[0] if len(reports) == 1 else {"ok": ok, "tables": reports}, "json")
    else:
        for w, report in zip(which, reports):
            for row in report["rows"]:
                status = "ok" if row["ok"] else "DIFF"
                print(f"table {w}\t{row['tag']}\t{status}")
                for diff in row["diff"]:
                    print(f"  {diff}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polegeom",
        description="exact pole geometries of alternating trilinear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a catalog form (or --list the tags)")
    _add_form_source(p)
    p.add_argument("--list", action="store_true", help="list the catalog tags")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("eval", help="evaluate the form on three vectors")
    _add_form_source(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("radical", help="radical and rank of the form")
    _add_form_source(p, "output")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("matrix", help="symbolic contraction matrix")
    _add_form_source(p, "output")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("poles", help="full pole report over a finite field")
    _add_form_source(p, "budget", "output")
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("variety", help="pole-variety equation")
    _add_form_source(p, "budget", "output")
    p.add_argument("--index", type=int, help="principal index to use")
    p.set_defaults(func=_cmd_variety)

    p = sub.add_parser("radical-lines", help="upper-radical lines")
    _add_form_source(p, "budget", "output")
    p.add_argument("--point", help="restrict to lines through this point")
    p.set_defaults(func=_cmd_radical_lines)

    p = sub.add_parser("construct", help="build a form and print its file")
    p.add_argument("what", choices=("cch", "extend", "expand", "block", "join"))
    _add_form_source(p)
    p.add_argument("--extra", type=int, help="extension dimensions")
    p.add_argument("--pairs", help="bilinear pairs, e.g. 23,45,67")
    p.add_argument("--direction", type=int, help="expansion direction index")
    p.add_argument("--file2", help="second operand form file")
    p.add_argument("--alpha", help="first block scalar")
    p.add_argument("--beta", help="second block scalar")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="run a geometry check (exit 1 on failure)")
    p.add_argument("what", choices=CHECKS)
    _add_form_source(p, "budget", "output")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fingerprint", help="deterministic geometry fingerprint")
    _add_form_source(p, "budget", "output")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("tables", help="recompute and diff the reference tables")
    p.add_argument("--which", default="all", choices=("2", "3", "4", "5", "all"))
    p.add_argument("--output", **_FLAGS["output"])
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (
        UsageError,
        CatalogConditionError,
        FieldError,
        VarietyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
