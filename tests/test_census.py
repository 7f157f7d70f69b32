"""A census of the catalog: the pole geometry of every form, exhaustively
over GF(2)^5 and in seeded uniform samples at n = 5, 6 and 7, is the
geometry of a catalog row embedded at the same n.  A miss means a missing
row, a fingerprint collision or a bug, never a test to relax."""

import itertools
import random
from collections import Counter

import pytest

from conftest import desk_instances
from polegeom.fields import GF
from polegeom.forms import CATALOG_RANKS, TriForm, catalog_form
from polegeom.geometry import build_geometry, fingerprint, normal_spread_check
from polegeom.projective import num_projective_points


def _catalog_fingerprints(n, field):
    """Fingerprint -> tag over the catalog rows that embed at dimension n."""
    rows = {}
    for tag, _, lam in desk_instances((field,)):
        if CATALOG_RANKS[tag] <= n:
            fp = fingerprint(catalog_form(tag, field, n=n, param=lam), field)
            assert fp not in rows, (tag, rows.get(fp))  # the rows stay distinct
            rows[fp] = tag
    return rows


def _census(forms, n, field):
    """Count the forms per catalog row; every form must match one."""
    rows = _catalog_fingerprints(n, field)
    counts = Counter()
    for h in forms:
        fp = fingerprint(h, field)
        assert fp in rows, f"no catalog row for {h.to_text()!r}: {fp}"
        counts[rows[fp]] += 1
    return counts


def _uniform_forms(n, field, count, rng):
    """Seeded forms with every coefficient uniform in GF(p), zero form skipped."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    forms = []
    while len(forms) < count:
        h = TriForm(n, field, {t: rng.randrange(field.p) for t in triples})
        if not h.is_zero():
            forms.append(h)
    return forms


def test_exhaustive_gf2_n5_counts():
    """All 1,023 nonzero forms on GF(2)^5: T1 155 = [5 choose 3]_2, T2 868."""
    field = GF(2)
    triples = list(itertools.combinations(range(1, 6), 3))
    forms = [
        TriForm(5, field, dict(zip(triples, bits)))
        for bits in itertools.product((0, 1), repeat=len(triples))
        if any(bits)
    ]
    assert _census(forms, 5, field) == {"T1": 155, "T2": 868}


@pytest.mark.parametrize(
    "n, p, count", [(5, 3, 300), (6, 2, 300), (6, 3, 100), (7, 2, 300), (7, 3, 60)]
)
def test_uniform_sample_matches_catalog(n, p, count):
    field = GF(p)
    forms = _uniform_forms(n, field, count, random.Random(f"census/{n}/{p}"))
    assert sum(_census(forms, n, field).values()) == count


@pytest.mark.parametrize("p, count", [(2, 300), (3, 100)])
def test_sampled_n6_spreads_are_normal(p, count):
    """Every sampled n = 6 form with one radical line through every point
    (degree 1 everywhere) is a normal spread."""
    field = GF(p)
    total = num_projective_points(p, 6)
    spreads = [
        h
        for h in _uniform_forms(6, field, count, random.Random(f"census/6/{p}"))
        if fingerprint(h, field).degree_histogram == ((1, total),)
    ]
    assert spreads
    for h in spreads:
        assert normal_spread_check(build_geometry(h, field)), h.to_text()
