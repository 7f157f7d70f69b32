"""CLI subcommands, exit codes and output determinism."""

import gzip
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import desk_instances, forbid_everywhere, random_invertible
from polegeom import cli
from polegeom.cli import main
from polegeom.fields import GF
from polegeom.forms import catalog_form
from polegeom.projective import wedge2_coordinates


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list")
    assert code == 0
    assert "T9" in out and "T10_1" in out


def test_catalog_emits_form_file(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--catalog", "T3", "--field", "gf(2)")
    assert code == 0
    assert out.splitlines()[0] == "n = 6"
    assert "1 2 3 1" in out


def test_eval(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--catalog",
        "T1",
        "--field",
        "gf(2)",
        "--x",
        "1,0,0",
        "--y",
        "0,1,0",
        "--z",
        "0,0,1",
    )
    assert code == 0
    assert out.strip() == "1"


def test_poles_json_histogram(capsys):
    code, out, _ = run_cli(
        capsys, "poles", "--catalog", "T9", "--field", "gf(2)", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["histogram"] == {"0": 64, "2": 63}
    assert len(payload["poles"]) == 63
    assert len(payload["upper_radical"]) == 63


def test_variety_quadric(capsys):
    code, out, _ = run_cli(capsys, "variety", "--catalog", "T9", "--field", "q")
    assert code == 0
    assert "x1*x4 + x2*x5 + x3*x6 - x7^2" in out


def test_variety_even_dimension(capsys):
    code, out, _ = run_cli(capsys, "variety", "--catalog", "T3", "--field", "gf(2)")
    assert code == 0
    assert "all-points" in out


def test_matrix_text(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--catalog", "T1", "--field", "q")
    assert code == 0
    assert "u3" in out and "-u2" in out


def test_radical_lines_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "radical-lines",
        "--catalog",
        "T9",
        "--field",
        "gf(2)",
        "--point",
        "1,0,0,0,0,0,0",
        "--output",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [1, 0, 0, 0, 0, 0, 0]
    assert payload["degree"] == 2
    assert payload["count"] == 3


def test_check_hexagon_pass(capsys):
    code, out, _ = run_cli(
        capsys, "check", "hexagon", "--catalog", "T9", "--field", "gf(2)"
    )
    assert code == 0
    assert "pass: True" in out


def test_check_spread_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "check", "spread", "--catalog", "T3", "--field", "gf(2)"
    )
    assert code == 1
    assert "pass: False" in out


def test_check_polar_needs_n_7(capsys):
    """The polar descriptions are of PG(6, p): a form of another n is
    refused, as the cone and t4 checks refuse theirs."""
    code, out, err = run_cli(
        capsys, "check", "polar", "--catalog", "T8", "--field", "gf(2)", "--dim", "8"
    )
    assert code == 2
    assert out == ""
    assert err == "error: polar check applies to n = 7\n"


# checks that the label or n alone rule out, with the error each gives
REFUSED_CHECKS = {
    "polar-T9": (("polar", "--catalog", "T9", "--field", "gf(2)"),
                 "polar check applies to T5, T6 or T8"),
    "polar-T8-n8": (("polar", "--catalog", "T8", "--field", "gf(5)", "--dim", "8"),
                    "polar check applies to n = 7"),
    "cone-T9": (("cone", "--catalog", "T9", "--field", "gf(2)"), "cone check applies to T7"),
    "cone-T7-n8": (("cone", "--catalog", "T7", "--field", "gf(3)", "--dim", "8"),
                   "cone structure check applies to n = 7"),
    "t11-T9": (("t11", "--catalog", "T9", "--field", "gf(2)"),
               "t11 check applies to T11_1/T11_2"),
    "t11-T11_2-n8": (("t11", "--catalog", "T11_2", "--param", "1", "--field", "gf(2)",
                      "--dim", "8"), "t11 check applies to n = 7"),
    "t4-T9": (("t4", "--catalog", "T9", "--field", "gf(2)"), "t4 check applies to T4"),
    "t4-T4-n7": (("t4", "--catalog", "T4", "--field", "gf(3)", "--dim", "7"),
                 "T4 check applies to n = 6"),
    "hexagon-T7": (("hexagon", "--catalog", "T7", "--field", "gf(2)"),
                   "hexagon check applies to T9/T12, not T7"),
    "cone-file": (("cone", "--file", str(Path(__file__).resolve().parent / "forms/n5_gf3.form")),
                  "cone check applies to T7"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CHECKS))
def test_check_refuses_before_the_scan(capsys, monkeypatch, case):
    """A check that the form's label or n rules out exits 2 with its error
    line and scans no point."""
    forbid_everywhere(monkeypatch, "scan")
    argv, message = REFUSED_CHECKS[case]
    assert run_cli(capsys, "check", *argv) == (2, "", f"error: {message}\n")


def test_check_cone_reports_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "cone",
        "--catalog",
        "T7",
        "--field",
        "gf(2)",
        "--output",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    witness = payload["witnesses"][0]
    assert witness["pole_set_ok"] is True
    assert witness["degree4_is_conic"] is True
    assert witness["off_vertex_ok"] is True
    assert witness["line_planes_ok"] is False
    assert "fully-radical" in witness["witness"]


def test_fingerprint_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "fingerprint",
        "--catalog",
        "T8",
        "--field",
        "gf(2)",
        "--output",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 7
    assert payload["pole_count"] == 63
    assert payload["variety_degree"] == 2


def test_tables_subcommand(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "2")
    assert code == 0
    assert "T10_2" in out and "DIFF" not in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "poles", "--catalog", "T9")
    assert code == 2  # missing --field
    code, _, err = run_cli(capsys, "poles", "--field", "gf(2)")
    assert code == 2  # no form source
    code, _, err = run_cli(
        capsys, "poles", "--catalog", "T9", "--file", "x", "--field", "gf(2)"
    )
    assert code == 2  # two sources
    code, _, err = run_cli(capsys, "radical", "--file", "/nonexistent.form")
    assert code == 2
    assert "cannot read" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_condition_violation_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "catalog", "--catalog", "T10_1", "--field", "gf(3)", "--param", "1"
    )
    assert code == 2
    assert "reducible" in err


def test_degenerate_variety_index_exit_2(capsys):
    # index 1 of the rank-5 expansion strips to a unit and fails verification
    code, _, err = run_cli(
        capsys, "variety", "--catalog", "T2", "--field", "gf(3)", "--index", "1"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("tag,n", [("T9", 7), ("T3", 6)], ids=["odd-n", "even-n"])
@pytest.mark.parametrize("which", ["zero", "n+1"])
def test_variety_index_out_of_range_exit_2(capsys, tag, n, which):
    index = 0 if which == "zero" else n + 1
    code, out, err = run_cli(
        capsys, "variety", "--catalog", tag, "--field", "gf(2)", "--index", str(index)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: index {index} out of range 1..{n}\n"


def test_radical_lines_zero_point_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "radical-lines",
        "--catalog",
        "T7",
        "--field",
        "gf(3)",
        "--point",
        "0,0,0,0,0,0,0",
    )
    assert code == 2
    assert out == ""
    assert err == "error: zero vector has no degree\n"


# vector components that are not elements of the field, with the error each gives
BAD_COMPONENTS = {
    "eval-third-in-gf3": (
        ("eval", "--catalog", "T1", "--field", "gf(3)",
         "--x", "1/3,0,0", "--y", "0,1,0", "--z", "0,0,1"),
        "component 1 of --x, 1/3, is not an element of gf(3)",
    ),
    "point-third-in-gf3": (
        ("radical-lines", "--catalog", "T7", "--field", "gf(3)", "--point", "1/3,0,0,0,0,0,0"),
        "component 1 of --point, 1/3, is not an element of gf(3)",
    ),
    "eval-over-zero-in-q": (
        ("eval", "--catalog", "T1", "--field", "q",
         "--x", "1/0,0,0", "--y", "0,1,0", "--z", "0,0,1"),
        "component 1 of --x, 1/0, is not an element of q",
    ),
    "eval-letter-in-q": (
        ("eval", "--catalog", "T1", "--field", "q",
         "--x", "1,0,0", "--y", "0,x,0", "--z", "0,0,1"),
        "component 2 of --y, x, is not an element of q",
    ),
    "eval-letter-in-gf3": (
        ("eval", "--catalog", "T1", "--field", "gf(3)",
         "--x", "1,0,0", "--y", "0,1,0", "--z", "0,0,x"),
        "component 3 of --z, x, is not an element of gf(3)",
    ),
    "point-letter-in-gf3": (
        ("radical-lines", "--catalog", "T7", "--field", "gf(3)", "--point", "1,0,0,0,0,0,y"),
        "component 7 of --point, y, is not an element of gf(3)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COMPONENTS))
def test_bad_vector_component_exit_2(capsys, case):
    """A vector component that is not an element of the field, a zero
    denominator or a non-number, exits 2 naming the component and the
    field."""
    argv, message = BAD_COMPONENTS[case]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# scalar flags whose value is not an element of the field, with the error each gives
BAD_SCALARS = {
    "catalog-param-third-in-gf3": (
        ("catalog", "--catalog", "T10_1", "--field", "gf(3)", "--param", "1/3"),
        "--param, 1/3, is not an element of gf(3)",
    ),
    "fingerprint-param-third-in-gf3": (
        ("fingerprint", "--catalog", "T10_1", "--field", "gf(3)", "--param", "1/3"),
        "--param, 1/3, is not an element of gf(3)",
    ),
    "check-param-third-in-gf3": (
        ("check", "spread", "--catalog", "T10_1", "--field", "gf(3)", "--param", "1/3"),
        "--param, 1/3, is not an element of gf(3)",
    ),
    "catalog-param-over-zero-in-q": (
        ("catalog", "--catalog", "T10_1", "--field", "q", "--param", "1/0"),
        "--param, 1/0, is not an element of q",
    ),
    "catalog-param-letter-in-gf3": (
        ("catalog", "--catalog", "T10_1", "--field", "gf(3)", "--param", "x"),
        "--param, x, is not an element of gf(3)",
    ),
    "block-alpha-third-in-gf3": (
        ("construct", "block", "--catalog", "T1", "--field", "gf(3)",
         "--file2", str(Path(__file__).resolve().parent / "forms/n5_gf3.form"), "--alpha", "1/3"),
        "--alpha, 1/3, is not an element of gf(3)",
    ),
    "block-beta-letter-in-gf3": (
        ("construct", "block", "--catalog", "T1", "--field", "gf(3)",
         "--file2", str(Path(__file__).resolve().parent / "forms/n5_gf3.form"), "--beta", "y"),
        "--beta, y, is not an element of gf(3)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_bad_scalar_flag_exit_2(capsys, case):
    """A --param, --alpha or --beta value that is not an element of the
    field, a zero denominator or a non-number, exits 2 naming the flag,
    the value and the field."""
    argv, message = BAD_SCALARS[case]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_valid_param_keeps_its_label(capsys):
    """A valid --param, a fraction included, parses to the field element
    it names, so the catalog label reads as before, in GF(p) and over Q."""
    for field, param, label in (
        ("gf(3)", "2", "T10_1(2)"),
        ("gf(3)", "1/2", "T10_1(2)"),
        ("q", "4/2", "T10_1(2)"),
    ):
        code, out, _ = run_cli(
            capsys, "radical", "--catalog", "T10_1", "--field", field, "--param", param
        )
        assert code == 0 and out.startswith(f"form: {label}\n"), out


def test_budget_exceeded_message(capsys):
    code, _, err = run_cli(
        capsys,
        "poles",
        "--catalog",
        "T9",
        "--field",
        "gf(7)",
        "--budget",
        "100",
    )
    assert code == 2
    assert err.startswith("budget exceeded")


# each command that reads neither --budget nor --output, with valid arguments
UNREAD_FLAG_COMMANDS = {
    "catalog": ("catalog", "--catalog", "T1", "--field", "gf(2)"),
    "eval": ("eval", "--catalog", "T1", "--field", "gf(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--z", "0,0,1"),
    "radical": ("radical", "--catalog", "T1", "--field", "gf(2)"),
    "matrix": ("matrix", "--catalog", "T1", "--field", "gf(2)"),
    "construct": ("construct", "cch", "--dim", "5", "--field", "gf(2)"),
}
UNREAD_FLAGS = [
    (command, flag, value)
    for command in UNREAD_FLAG_COMMANDS
    for flag, value in (("--budget", "1"), ("--output", "json"))
    if flag == "--budget" or command in ("catalog", "eval", "construct")
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_unread_flag_is_refused(capsys, command, flag, value):
    """A command takes only the flags it reads: the rest exit 2."""
    argv = UNREAD_FLAG_COMMANDS[command]
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_deterministic_output(capsys):
    args = ("poles", "--catalog", "T5", "--field", "gf(2)", "--output", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_construct_cch(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "cch", "--dim", "7", "--field", "gf(3)"
    )
    assert code == 0
    assert "1 2 3 1" in out and "3 4 5 1" in out and "5 6 7 1" in out


def test_construct_extend_roundtrip(tmp_path, capsys):
    base = tmp_path / "t1.form"
    code, out, _ = run_cli(capsys, "catalog", "--catalog", "T1", "--field", "gf(2)")
    base.write_text(out)
    code, out, _ = run_cli(
        capsys, "construct", "extend", "--file", str(base), "--extra", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "n = 6"


def test_construct_expand_t8(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct",
        "expand",
        "--pairs",
        "23,45,67",
        "--direction",
        "1",
        "--dim",
        "7",
        "--field",
        "gf(2)",
    )
    assert code == 0
    assert "1 2 3 1" in out and "1 4 5 1" in out and "1 6 7 1" in out


def test_construct_join(tmp_path, capsys):
    a = tmp_path / "a.form"
    b = tmp_path / "b.form"
    a.write_text("n = 5\nfield = gf(3)\n1 2 3 1\n")
    b.write_text("n = 5\nfield = gf(3)\n3 4 5 1\n")
    code, out, _ = run_cli(
        capsys, "construct", "join", "--file", str(a), "--file2", str(b)
    )
    assert code == 0
    assert "1 2 3 1" in out and "3 4 5 1" in out


# a given 0 is a value, not a missing flag: the library's own error shows
ZERO_FLAG_CASES = {
    "extend-extra": (
        ("construct", "extend", "--catalog", "T1", "--field", "gf(2)", "--extra", "0"),
        "error: extra must be >= 1\n",
    ),
    "expand-direction": (
        ("construct", "expand", "--pairs", "23", "--direction", "0", "--dim", "4",
         "--field", "gf(2)"),
        "error: direction 0 outside 1..4\n",
    ),
    "cch-dim": (
        ("construct", "cch", "--dim", "0", "--field", "gf(2)"),
        "error: need odd n >= 5\n",
    ),
    # the dimension is refused in its own words, not blamed on a pair
    "expand-dim": (
        ("construct", "expand", "--pairs", "23", "--direction", "1", "--dim", "0",
         "--field", "gf(2)"),
        "error: need dimension n >= 2\n",
    ),
    # a repeated or malformed pair is refused by name, never merged or crashed on
    "expand-repeated-pair": (
        ("construct", "expand", "--pairs", "23,23", "--direction", "1", "--dim", "4",
         "--field", "gf(2)"),
        "error: repeated pair '23'\n",
    ),
    "expand-bad-pair": (
        ("construct", "expand", "--pairs", "2a", "--direction", "1", "--dim", "4",
         "--field", "gf(2)"),
        "error: bad pair '2a' (expected two digits, e.g. 23)\n",
    ),
    "expand-pair-beyond-dim": (
        ("construct", "expand", "--pairs", "23", "--direction", "1", "--dim", "2",
         "--field", "gf(2)"),
        "error: pair (2, 3) outside 1..2\n",
    ),
}


@pytest.mark.parametrize("case", sorted(ZERO_FLAG_CASES))
def test_construct_zero_flag_reaches_library(capsys, case):
    argv, want_err = ZERO_FLAG_CASES[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == want_err


@pytest.mark.parametrize("command", ["check", "construct"])
def test_unknown_subcommand_choice_exit_2(capsys, command):
    code, out, err = run_cli(capsys, command, "bogus", "--catalog", "T1", "--field", "gf(2)")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'bogus'" in err


def test_check_with_file_source(tmp_path, capsys):
    form_file = tmp_path / "t9.form"
    _, out, _ = run_cli(capsys, "catalog", "--catalog", "T9", "--field", "gf(2)")
    form_file.write_text(out)
    code, out, _ = run_cli(capsys, "check", "hexagon", "--file", str(form_file))
    assert code == 0


def test_contradictory_field_exit_2(tmp_path, capsys):
    form_file = tmp_path / "t9.form"
    _, out, _ = run_cli(capsys, "catalog", "--catalog", "T9", "--field", "gf(3)")
    form_file.write_text(out)
    unit = "1,0,0,0,0,0,0"
    for command in (
        "poles", "radical-lines", "fingerprint", "check", "variety", "radical", "matrix", "eval"
    ):
        argv = [command, "--file", str(form_file), "--field", "gf(5)"]
        if command == "check":
            argv.insert(1, "hexagon")
        if command == "eval":
            argv += ["--x", unit, "--y", unit, "--z", unit]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, command
        assert out == ""
        assert err == "error: --field gf(5) contradicts the form's field gf(3)\n"
    # naming the form's own field is no contradiction
    code, out, _ = run_cli(
        capsys, "fingerprint", "--file", str(form_file), "--field", "gf(3)", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["field"] == "gf(3)"


def test_rational_form_file_reduces_to_field(tmp_path, capsys):
    form_file = tmp_path / "t9.form"
    _, out, _ = run_cli(capsys, "catalog", "--catalog", "T9", "--field", "q")
    form_file.write_text(out)
    code, out, _ = run_cli(
        capsys, "fingerprint", "--file", str(form_file), "--field", "gf(3)", "--output", "json"
    )
    assert code == 0
    got = json.loads(out)
    _, out, _ = run_cli(
        capsys, "fingerprint", "--catalog", "T9", "--field", "gf(3)", "--output", "json"
    )
    want = json.loads(out)
    assert got.pop("form") == "file" and want.pop("form") == "T9"
    assert got == want
    code, _, err = run_cli(capsys, "fingerprint", "--file", str(form_file))
    assert code == 2
    assert err == "error: the pole scan needs a finite field gf(p), not q\n"


# tests/forms/n5_q.form reduced mod 3: 1/2 = 2, -1 = 2 and 2/5 = 1
N5_Q_MOD_3 = "n = 5\nfield = gf(3)\n1 2 3 1\n1 4 5 2\n2 4 5 2\n3 4 5 1\n"
# each command with its own arguments; eval reads h(e2, e4, e5) = -1
FILE_COMMANDS = {
    "catalog": (),
    "eval": ("--x", "0,1,0,0,0", "--y", "0,0,0,1,0", "--z", "0,0,0,0,1"),
    "radical": (),
    "matrix": (),
    "poles": (),
    "variety": (),
    "radical-lines": (),
    "check": ("spread",),
    "fingerprint": (),
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_rational_file_is_reduced_for_every_command(tmp_path, capsys, command):
    """A rational form file with --field gf(3) answers as its reduction
    mod 3 does, for every command that reads a form."""
    reduced = tmp_path / "n5_gf3.form"
    reduced.write_text(N5_Q_MOD_3)
    argv = (command, *FILE_COMMANDS[command], "--file")
    code, got, _ = run_cli(capsys, *argv, str(FORMS_DIR / "n5_q.form"), "--field", "gf(3)")
    want_code, want, _ = run_cli(capsys, *argv, str(reduced))
    assert code == want_code
    if command == "poles":  # the report names the form as read
        assert got.startswith("form: TriForm(123+145+245+345, n=5, q)\n")
        got, want = got.split("\n", 1)[1], want.split("\n", 1)[1]
    assert got == want


def test_denominator_divisible_by_p_exit_2(tmp_path, capsys):
    form_file = tmp_path / "fifth.form"
    form_file.write_text("n = 5\nfield = q\n1 2 3 1/5\n3 4 5 1\n")
    for command in ("poles", "radical-lines", "fingerprint", "check", "variety", "matrix"):
        argv = [command, "--file", str(form_file), "--field", "gf(5)"]
        if command == "check":
            argv.insert(1, "spread")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, command
        assert out == ""
        assert err == "error: coefficient 1/5 of 1 2 3 has a denominator divisible by 5\n"


def test_finite_file_denominator_divisible_by_p_exit_2(tmp_path, capsys):
    """A finite form file is parsed over its own field, before any field
    rule applies: a coefficient 1/5 over gf(5) is a usage error there."""
    form_file = tmp_path / "fifth_gf5.form"
    form_file.write_text("n = 5\nfield = gf(5)\n1 2 3 1/5\n")
    code, out, err = run_cli(capsys, "poles", "--file", str(form_file))
    assert code == 2
    assert out == ""
    assert err == "error: coefficient 1/5 of 1 2 3 has a denominator divisible by 5\n"


# Byte-for-byte locks on the JSON output of the pipeline commands.  The
# files under tests/golden/ are the stdout of `polegeom <argv>` as
# recorded before the one-scan pipeline landed; regenerate one only for a
# deliberate change of output, with `python tests/test_cli.py`.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_INSTANCES = {
    "T9_gf2": ("--catalog", "T9", "--field", "gf(2)"),
    "T7_gf3": ("--catalog", "T7", "--field", "gf(3)"),
    "T10_1-2_gf3": ("--catalog", "T10_1", "--param", "2", "--field", "gf(3)"),
    "T4_gf3": ("--catalog", "T4", "--field", "gf(3)"),
}
GOLDEN_CASES = {
    f"{command}_{name}": ((command, *source, "--output", "json"), 0)
    for command in ("poles", "radical-lines", "fingerprint")
    for name, source in GOLDEN_INSTANCES.items()
}
# the known-red T7 cone check: exit 1 with its "468 of 481" witness
GOLDEN_CASES["check-cone_T7_gf3"] = (
    ("check", "cone", *GOLDEN_INSTANCES["T7_gf3"], "--output", "json"),
    1,
)
# the checks whose inner loops run on ints: the H(3) incidence graph, the
# polar-space lines of T5, T6 and T8, and the normal spread of T10_1(2)
# over GF(3) and GF(5)
GOLDEN_CASES["check-hexagon_T9_gf3"] = (
    ("check", "hexagon", "--catalog", "T9", "--field", "gf(3)", "--output", "json"),
    0,
)
for _family in ("T5", "T6", "T8"):
    GOLDEN_CASES[f"check-polar_{_family}_gf3"] = (
        ("check", "polar", "--catalog", _family, "--field", "gf(3)", "--output", "json"),
        0,
    )
GOLDEN_CASES["check-normal-spread_T10_1-2_gf3"] = (
    ("check", "normal-spread", *GOLDEN_INSTANCES["T10_1-2_gf3"], "--output", "json"),
    0,
)
GOLDEN_CASES["check-normal-spread_T10_1-2_gf5"] = (
    ("check", "normal-spread", "--catalog", "T10_1", "--param", "2", "--field", "gf(5)",
     "--output", "json"),
    0,
)
# fingerprints over primes above 3, where the scan's lane widths and
# reduction constants differ from those of GF(2) and GF(3)
GOLDEN_CASES["fingerprint_T9_gf5"] = (
    ("fingerprint", "--catalog", "T9", "--field", "gf(5)", "--output", "json"),
    0,
)
GOLDEN_CASES["fingerprint_T10_1-3_gf7"] = (
    ("fingerprint", "--catalog", "T10_1", "--param", "3", "--field", "gf(7)", "--output", "json"),
    0,
)
# mixed degrees above p = 3, where the lines through a pole of degree d,
# (p^d - 1)/(p - 1), are not trivial: T7 has degrees 2 and 4 (6 and 156
# lines per point), T4 degrees 1 and 3 (1 and 31)
for _family in ("T7", "T4"):
    GOLDEN_CASES[f"fingerprint_{_family}_gf5"] = (
        ("fingerprint", "--catalog", _family, "--field", "gf(5)", "--output", "json"),
        0,
    )
# `radical-lines --point` on T7/GF(3): a pole of degree 4 (40 lines), a
# non-canonical input of a pole of degree 2 (4 lines), a point of degree 0
for _point in ("0,1,0,0,0,0,0", "0,0,0,2,0,0,0", "0,0,0,1,0,1,0"):
    GOLDEN_CASES[f"radical-lines-point_T7_gf3_{_point.replace(',', '')}"] = (
        ("radical-lines", *GOLDEN_INSTANCES["T7_gf3"], "--point", _point, "--output", "json"),
        0,
    )
# pole-variety equations: T9 over Q (grid-verified), T9 at the even index 2,
# whose d carries the sign (-1)^(i+1), and T11_1(2) over GF(3)
GOLDEN_CASES["variety_T9_q"] = (
    ("variety", "--catalog", "T9", "--field", "q", "--output", "json"),
    0,
)
GOLDEN_CASES["variety_T9_q_i2"] = (
    ("variety", "--catalog", "T9", "--field", "q", "--index", "2", "--output", "json"),
    0,
)
GOLDEN_CASES["variety_T11_1-2_gf3"] = (
    ("variety", "--catalog", "T11_1", "--param", "2", "--field", "gf(3)", "--output", "json"),
    0,
)

# the JSON writer's edge cases: T1 has no poles and no lines, so `poles`,
# `upper_radical` and `lines` are all []; a form file has no label, so
# `form` is the form's repr; and the text report of T7/GF(3)
FORMS_DIR = Path(__file__).resolve().parent / "forms"
for _command in ("poles", "radical-lines"):
    GOLDEN_CASES[f"{_command}_T1_gf2"] = (
        (_command, "--catalog", "T1", "--field", "gf(2)", "--output", "json"),
        0,
    )
GOLDEN_CASES["poles_file-n5_gf3"] = (
    ("poles", "--file", str(FORMS_DIR / "n5_gf3.form"), "--output", "json"),
    0,
)
GOLDEN_CASES["poles-text_T7_gf3"] = (
    ("poles", *GOLDEN_INSTANCES["T7_gf3"], "--output", "text"),
    0,
)
# form files through the commands that take the form's own field, and a
# rational file reduced to --field gf(3): its `form` names the form as read
for _command in ("variety", "radical"):
    GOLDEN_CASES[f"{_command}_file-n5_gf3"] = (
        (_command, "--file", str(FORMS_DIR / "n5_gf3.form"), "--output", "json"),
        0,
    )
GOLDEN_CASES["poles_file-n5_q_gf3"] = (
    ("poles", "--file", str(FORMS_DIR / "n5_q.form"), "--field", "gf(3)", "--output", "json"),
    0,
)
# the remaining checks on their catalog rows
GOLDEN_CASES["check-t4_T4_gf3"] = (
    ("check", "t4", *GOLDEN_INSTANCES["T4_gf3"], "--output", "json"),
    0,
)
GOLDEN_CASES["check-t11_T11_1-2_gf3"] = (
    ("check", "t11", "--catalog", "T11_1", "--param", "2", "--field", "gf(3)", "--output", "json"),
    0,
)
GOLDEN_CASES["check-spread_T10_1-2_gf3"] = (
    ("check", "spread", *GOLDEN_INSTANCES["T10_1-2_gf3"], "--output", "json"),
    0,
)
# the scans that `check` and `radical-lines` guard by G, beyond n = 7 over
# GF(2) and GF(3): the known-red T7 cone and T11_1(2) over GF(5), the
# radical lines of T5 over GF(5), and a form file with n = 5, whose G is
# linear
GOLDEN_CASES["check-cone_T7_gf5"] = (
    ("check", "cone", "--catalog", "T7", "--field", "gf(5)", "--output", "json"),
    1,
)
GOLDEN_CASES["check-t11_T11_1-2_gf5"] = (
    ("check", "t11", "--catalog", "T11_1", "--param", "2", "--field", "gf(5)", "--output", "json"),
    0,
)
GOLDEN_CASES["radical-lines_T5_gf5"] = (
    ("radical-lines", "--catalog", "T5", "--field", "gf(5)", "--output", "json"),
    0,
)
GOLDEN_CASES["radical-lines_file-n5_gf3"] = (
    ("radical-lines", "--file", str(FORMS_DIR / "n5_gf3.form"), "--output", "json"),
    0,
)
# the JSON of `matrix` and `tables`
GOLDEN_CASES["matrix_T9_q"] = (
    ("matrix", "--catalog", "T9", "--field", "q", "--output", "json"),
    0,
)
GOLDEN_CASES["tables-2"] = (("tables", "--which", "2", "--output", "json"), 0)
GOLDEN_CASES["tables-all"] = (("tables", "--output", "json"), 0)


# outputs of a megabyte or more are kept gzipped (mtime 0, so recording twice
# gives the same bytes)
GZIPPED_GOLDENS = {"radical-lines_T5_gf5"}


def golden_path(name: str) -> Path:
    argv, _ = GOLDEN_CASES[name]
    suffix = ".txt" if argv[-1] == "text" else ".json"
    if name in GZIPPED_GOLDENS:
        suffix += ".gz"
    return GOLDEN_DIR / f"{name}{suffix}"


def golden_text(name: str) -> str:
    path = golden_path(name)
    if name in GZIPPED_GOLDENS:
        return gzip.decompress(path.read_bytes()).decode()
    return path.read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs(capsys, name):
    argv, want_code = GOLDEN_CASES[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == want_code
    assert out == golden_text(name)


def test_tables_all_json_is_one_document():
    """`tables --output json` over all four tables is one JSON object
    holding each table's report, the first of them that of `--which 2`."""
    payload = json.loads(golden_text("tables-all"))
    assert list(payload) == ["ok", "tables"]
    assert payload["ok"] is True
    assert [report["table"] for report in payload["tables"]] == [2, 3, 4, 5]
    assert payload["tables"][0] == json.loads(golden_text("tables-2"))


def test_radical_lines_point_reads_degree_off_line_count(capsys, monkeypatch):
    """`radical-lines --point` gives the three point goldens with the
    Field-based ``point_degree`` made to raise: the degree is read off the
    number of lines through the point."""
    forbid_everywhere(monkeypatch, "point_degree")
    names = sorted(name for name in GOLDEN_CASES if name.startswith("radical-lines-point_"))
    assert len(names) == 3
    for name in names:
        argv, want_code = GOLDEN_CASES[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == want_code
        assert out == golden_text(name)


# The JSON writer against its reference: `_emit` prints
# `json.dumps(payload, indent=2)` byte for byte, with the record lists of
# `poles` and `radical-lines` written from their templates.  Every
# GF(2)/GF(3) desk instance, seeded pullbacks of T7/GF(3) and T9/GF(3),
# and T9/GF(5): n = 3..7, odd and even, and empty lists.
EMIT_CASES = [(tag, field, lam, False) for tag, field, lam in desk_instances()] + [
    ("T7", GF(3), None, True),
    ("T9", GF(3), None, True),
    ("T9", GF(5), None, False),
]


@pytest.mark.parametrize(
    "tag,field,lam,pulled",
    EMIT_CASES,
    ids=[
        f"{tag}{'' if lam is None else f'({lam})'}-{field!r}{'-pullback' if pulled else ''}"
        for tag, field, lam, pulled in EMIT_CASES
    ],
)
def test_emit_json_matches_json_dumps(tmp_path, capsys, monkeypatch, tag, field, lam, pulled):
    if pulled:
        h = catalog_form(tag, field, param=lam)
        h = h.pullback(random_invertible(field, h.n, random.Random(f"emit/{tag}/{field!r}")))
        form_file = tmp_path / "h.form"
        form_file.write_text(h.to_text())
        source = ("--file", str(form_file))
    else:
        source = ("--catalog", tag, "--field", repr(field))
        if lam is not None:
            source += ("--param", str(lam))
    payloads = []
    real_emit = cli._emit

    def recording_emit(payload, output):
        payloads.append(payload)
        real_emit(payload, output)

    monkeypatch.setattr(cli, "_emit", recording_emit)

    def emitted(*argv):
        code, out, _ = run_cli(capsys, *argv, *source, "--output", "json")
        assert code == 0
        payload = payloads[-1]
        assert out == json.dumps(payload, indent=2) + "\n"
        for key in cli.RECORD_LISTS:
            if payload.get(key):  # written from a template, not by json.dumps
                assert cli._record_list_text(payload[key]) is not None, key
        return payload

    report = emitted("poles")
    emitted("radical-lines")
    poles = [pole["point"] for pole in report["poles"]]
    points = [max(report["poles"], key=lambda pole: pole["degree"])["point"]] if poles else []
    if "0" in report["histogram"]:  # a point of degree 0: no line through it
        n, p = report["n"], field.p
        points.append(next(
            [0] * k + [1, *rest]
            for k in range(n)
            for rest in itertools.product(range(p), repeat=n - k - 1)
            if [0] * k + [1, *rest] not in poles
        ))
    for point in points:
        lines = emitted("radical-lines", "--point", ",".join(map(str, point)))["lines"]
        assert bool(lines) == (point in poles)


@pytest.mark.parametrize(
    "tag,lam,p",
    [("T7", None, 3), ("T4", None, 5), ("T10_1", 3, 7)],
    ids=["T7-gf3", "T4-gf5", "T10_1-3-gf7"],
)
def test_plucker_arrays_are_wedges_of_their_bases(tmp_path, capsys, tag, lam, p):
    """Every `plucker` array that `poles` and `radical-lines` print is the
    Field-based ``wedge2_coordinates`` of the basis printed next to it, on
    seeded pullbacks."""
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    h = h.pullback(random_invertible(field, h.n, random.Random(f"plucker/{tag}/{p}")))
    form_file = tmp_path / "h.form"
    form_file.write_text(h.to_text())
    for command, key in (("poles", "upper_radical"), ("radical-lines", "lines")):
        code, out, _ = run_cli(capsys, command, "--file", str(form_file), "--output", "json")
        assert code == 0
        records = json.loads(out)[key]
        assert records
        for record in records:
            assert record["plucker"] == list(wedge2_coordinates(field, *record["basis"]))


@pytest.mark.parametrize(
    "payload",
    [
        {"poles": [1, 2]},
        {"lines": [[]]},
        {"lines": [[1, 2]]},
        {"lines": [["0", "1"]]},
        {"lines": [[[True, 0]]]},
        {"poles": [{"point": [1, 0], "degree": 2.0}]},
        {"lines": [{"point": [1, 0]}]},
        {"upper_radical": [{"basis": [[1, 0, 0], [0, 1, 0]], "plucker": [1, 0, 0]}],
         "form": 'a "%d" form\n', "histogram": {"0": 1}},
        {"poles": [], "variety": None},
        {},
    ],
)
def test_json_text_of_other_shapes(capsys, payload):
    """A record list of any other shape falls back to ``json.dumps``, and
    the values around a templated list keep their escapes."""
    cli._emit(payload, "json")
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _record_golden() -> None:
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_code) in sorted(GOLDEN_CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        assert code == want_code, (name, code)
        data = buf.getvalue().encode()
        if name in GZIPPED_GOLDENS:
            data = gzip.compress(data, mtime=0)
        golden_path(name).write_bytes(data)


if __name__ == "__main__":
    _record_golden()
