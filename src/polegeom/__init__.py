"""polegeom: exact geometries of poles of alternating trilinear forms.

Forms h on K^n (GF(p) or the rationals) are realized as hyperplane
functionals on the third exterior power; the package computes their pole
sets, point degrees, upper radicals, Pfaffian pole-variety equations,
the standard hyperplane constructions, and the incidence-geometry checks
that classify the resulting point-line geometries over small fields.
"""

from .fields import GF, QQ, parse_field, quadratic_irreducible, cubic_irreducible
from .forms import TriForm, catalog_form, catalog_tags
from .poles import (
    enumerate_poles,
    enumerate_upper_radical,
    lines_through_point,
    point_degree,
    pole_variety,
    symbolic_matrix,
    upper_radical_system,
)
from .geometry import build_geometry, fingerprint, hexagon_check, spread_check

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "parse_field",
    "quadratic_irreducible",
    "cubic_irreducible",
    "TriForm",
    "catalog_form",
    "catalog_tags",
    "enumerate_poles",
    "enumerate_upper_radical",
    "lines_through_point",
    "point_degree",
    "pole_variety",
    "symbolic_matrix",
    "upper_radical_system",
    "build_geometry",
    "fingerprint",
    "hexagon_check",
    "spread_check",
    "__version__",
]
