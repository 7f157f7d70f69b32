"""The names that the traced benchmark (`perfbench/run.py --trace 1`) wraps
still exist in polegeom, with the argument order its hooks read.

`perfbench/spans.py` is loaded by path and only read: its SPANS, COUNTS
and FIELD_COUNTS tables name (module, attribute path) targets, and a
refactor that renames or moves one of them breaks a traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import polegeom.cli  # noqa: F401  the tracer wraps cli._emit, so cli must be loaded
from polegeom import geometry, kernels, poles, projective
from polegeom.fields import GF
from polegeom.forms import catalog_form

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TARGETS = {
    name: target
    for table in (SPANS.SPANS, SPANS.COUNTS, SPANS.FIELD_COUNTS)
    for name, target in table.items()
}


def test_target_tables_are_read():
    assert len(TARGETS) == len(SPANS.SPANS) + len(SPANS.COUNTS) + len(SPANS.FIELD_COUNTS)
    assert len(TARGETS) >= 27


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    module_name, path = TARGETS[name]
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # the tracer patches a method in the class's own __dict__
        owner = getattr(module, owner_name)
        assert attr in vars(owner), f"{name}: {path} not defined on {owner_name}"
    else:
        assert callable(getattr(module, attr, None)), f"{name}: {module_name}.{path} missing"


def _leading_parameters(fn, count):
    return list(inspect.signature(fn).parameters)[:count]


def test_hook_argument_order():
    # _scan_points reads args[3] and args[4]; _graph_size reads args[0] and args[1]
    assert _leading_parameters(kernels.scan, 5) == ["cube", "n", "p", "start", "stop"]
    assert _leading_parameters(kernels.graph_stats, 2) == ["offsets", "neighbors"]


def test_traced_scan_counts_its_points():
    original = poles.enumerate_poles
    with SPANS.Tracer() as tracer:
        poles.enumerate_poles(catalog_form("T9", GF(2)))
    assert poles.enumerate_poles is original
    assert tracer.counts["kernels.points_scanned"] == 127  # PG(6, 2)
    assert [span[0] for span in tracer.spans] == [
        "poles.enumerate_poles",
        "forms.cube",
        "kernels.scan",
    ]


def test_traced_fingerprint_expands_one_pfaffian():
    """An odd-n fingerprint expands the one Pfaffian Pf(M_u^(1)), from
    which every pole-variety candidate follows."""
    with SPANS.Tracer() as tracer:
        geometry.fingerprint(catalog_form("T9", GF(2)), GF(2))
    assert [span[0] for span in tracer.spans].count("linalg.pfaffian") == 1


@pytest.mark.parametrize(
    "tag,lam,count", [("T9", None, 1), ("T10_1", 2, 0)], ids=["odd-n", "even-n"]
)
def test_traced_build_expands_the_guard_pfaffian(tag, lam, count):
    """``build_geometry`` guards its scan by G at odd n: one Pfaffian, and
    none at even n."""
    with SPANS.Tracer() as tracer:
        geometry.build_geometry(catalog_form(tag, GF(3), param=lam))
    assert [span[0] for span in tracer.spans].count("linalg.pfaffian") == count


def test_traced_build_counts_every_incidence():
    """``_incidences`` reads ``points_by_line`` off the built geometry: on
    the hexagon T9/GF(3), p + 1 = 4 points on each of its 364 lines."""
    with SPANS.Tracer() as tracer:
        geom = geometry.build_geometry(catalog_form("T9", GF(3)))
    assert len(geom.lines) == 364
    assert tracer.counts["geometry.incidences"] == 4 * len(geom.lines) == 1456


def test_traced_upper_radical_counts_its_lines():
    """``_lines_emitted`` reads the length of the returned line list."""
    with SPANS.Tracer() as tracer:
        lines = poles.enumerate_upper_radical(catalog_form("T7", GF(3)))
    assert lines
    assert tracer.counts["poles.lines_emitted"] == len(lines)


def test_traced_from_pair_returns_a_pair():
    """The tracer counts ``PluckerLine.from_pair`` in the class and keeps it
    a classmethod, whose result is the plain reduced-echelon pair."""
    field = GF(3)
    with SPANS.Tracer() as tracer:
        line = projective.PluckerLine.from_pair(field, (2, 1, 0), (0, 1, 1))
    assert tracer.counts["projective.from_pair_calls"] == 1
    assert line == ((1, 0, 1), (0, 1, 1))
    assert type(line) is tuple and all(type(row) is tuple for row in line)
