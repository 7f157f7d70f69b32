"""Shared test helpers."""

import itertools
import sys

from polegeom.fields import GF, QQ
from polegeom.forms import TriForm, catalog_tags

# parameter choices satisfying each parametric row's condition per field
CATALOG_PARAMS = {
    "T10_1": {GF(3): 2, GF(5): 2, GF(7): 3, QQ: 2},
    "T11_1": {GF(3): 2, GF(5): 2, GF(7): 3, QQ: 2},
    "T10_2": {GF(2): 1},
    "T11_2": {GF(2): 1},
    "T12": {GF(7): 2, QQ: 2},
}


def desk_instances(fields=(GF(2), GF(3))):
    """All (tag, field, param) triples whose catalog conditions hold."""
    out = []
    for tag in catalog_tags():
        if tag in CATALOG_PARAMS:
            for field, lam in CATALOG_PARAMS[tag].items():
                if field in fields:
                    out.append((tag, field, lam))
        else:
            for field in fields:
                out.append((tag, field, None))
    return out


def random_form(n, field, rng, density=0.5):
    """A seeded random form: each triple gets a coefficient in -2..2 with
    probability ``density`` (zero coefficients drop out)."""
    coeffs = {
        t: rng.randint(-2, 2)
        for t in itertools.combinations(range(1, n + 1), 3)
        if rng.random() < density
    }
    return TriForm(n, field, coeffs)


def forbid_everywhere(monkeypatch, name):
    """Make every polegeom module's binding of ``name`` raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called on the integer path")

    bound = [
        mod
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "polegeom" and hasattr(mod, name)
    ]
    assert bound, name
    for mod in bound:
        monkeypatch.setattr(mod, name, forbidden)
