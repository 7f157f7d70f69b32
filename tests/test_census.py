"""A census of the catalog: the pole geometry of every form, exhaustively
over GF(2)^5 and in seeded uniform samples at n = 5, 6 and 7, is the
geometry of a catalog row embedded at the same n.  A miss means a missing
row, a fingerprint collision or a bug, never a test to relax."""

import itertools
import math
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


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _gl_order(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


def _exact(a, b):
    quotient, rest = divmod(a, b)
    assert rest == 0, (a, b)
    return quotient


def _n6_orbit_sizes(q):
    """The number of nonzero forms on GF(q)^6 in each row: T1 counts the
    decomposable forms, T2 a radical point times the rank-5 forms of the
    quotient, and the others are |GL(6, q)| over their stabilizers
    (SL(3, q)^2 x| 2 for T3, SL(3, q^2) x| 2 for the twisted row T10,
    which is T10_2 at q = 2 and T10_1 at odd q, and GL(3, q) with a unipotent
    radical of order q^8 for T4)."""
    gl6, gl3 = _gl_order(6, q), _gl_order(3, q)
    sl3 = _exact(gl3, q - 1)
    sl3_q2 = _exact(_gl_order(3, q * q), q * q - 1)
    return {
        "T1": (q - 1) * _gaussian_binomial(6, 3, q),
        "T2": _gaussian_binomial(6, 1, q)
        * (q ** 10 - 1 - (q - 1) * _gaussian_binomial(5, 3, q)),
        "T3": _exact(gl6, 2 * sl3 ** 2),
        "T10": _exact(gl6, 2 * sl3_q2),
        "T4": _exact(gl6, gl3 * q ** 8),
    }


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_n6_orbit_sizes_sum_to_every_nonzero_form(q):
    """The five rows' orbit sizes partition the q^20 - 1 nonzero forms."""
    assert sum(_n6_orbit_sizes(q).values()) == q ** 20 - 1


def test_n6_orbit_sizes_at_q2_are_the_census_counts():
    """At q = 2 the orbit sizes are the counts that the exhaustive census
    of GF(2)^6 (``census_gf2_n6.py``) expects."""
    # that script imports this module at its top, so it is imported here
    from census_gf2_n6 import EXPECTED

    sizes = _n6_orbit_sizes(2)
    sizes["T10_2"] = sizes.pop("T10")
    assert sizes == EXPECTED


def test_n6_census_at_q5_within_binomial_bounds():
    """300 seeded uniform forms on GF(5)^6 each match a catalog row, and
    the row counts lie within 4 sigma of the binomial means that the orbit
    sizes give: T4 (19.96%, 59.9 +- 6.9 forms) and T3 + T10_1 (80.0%)
    each, and T1 + T2 (mean 0.12 forms) at most 3.

    T3 (41.9%) and T10_1 (38.1%) are not bounded apart: their means differ
    by 11.4 forms, under 1.4 sigma of either count, so a 4 sigma bound on
    each would still pass with the two rows' fingerprints swapped and
    would catch nothing that their sum misses.  Eight other seeded draws
    (``census/6/5/0`` to ``/7``) read T3 112 to 138 and T10_1 105 to 141,
    ranges that overlap."""
    q, count = 5, 300
    field = GF(q)
    forms = _uniform_forms(6, field, count, random.Random(f"census/6/{q}"))
    counts = _census(forms, 6, field)
    assert sum(counts.values()) == count
    sizes = _n6_orbit_sizes(q)

    def within_4_sigma(rows, observed):
        share = sum(sizes[r] for r in rows) / (q ** 20 - 1)
        return abs(observed - count * share) <= 4 * math.sqrt(count * share * (1 - share))

    assert within_4_sigma(["T4"], counts["T4"]), counts
    assert within_4_sigma(["T3", "T10"], counts["T3"] + counts["T10_1"]), counts
    assert counts["T1"] + counts["T2"] <= 3, counts
