"""Escobar isoperimetric constants of planar domains.

Exact values for disks and regular polygons, constructions realising them,
numerical search with certified bound kinds, and symmetrization utilities.
"""

__version__ = "0.1.0"

from .errors import (
    ConstructionFailedError,
    EscobarError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
)
from .exact import Bound, BoundKind, ik_disk, ik_exact, ik_regular_polygon
from .geometry import (
    Arc,
    PlanarDomain,
    Segment,
    domain_from_json,
    domain_to_json,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
)
from .regions import (
    Cap,
    Strip,
    TupleCandidate,
    eta_partial,
    max_eta,
    tuple_from_json,
    tuple_to_json,
    validate_tuple,
)
from .search import BoundReport, SearchConfig, corner_family_bound, enumerate_caps, estimate_ik, refine_caps
from .symmetry import audit_symmetrization, crossover_threshold, symmetrize

__all__ = [
    "__version__",
    "Arc",
    "Bound",
    "BoundKind",
    "BoundReport",
    "Cap",
    "ConstructionFailedError",
    "EscobarError",
    "InvalidGeometryError",
    "InvalidParameterError",
    "NotApplicableError",
    "PlanarDomain",
    "SearchConfig",
    "Segment",
    "Strip",
    "TupleCandidate",
    "audit_symmetrization",
    "corner_family_bound",
    "crossover_threshold",
    "domain_from_json",
    "domain_to_json",
    "enumerate_caps",
    "estimate_ik",
    "eta_partial",
    "ik_disk",
    "ik_exact",
    "ik_regular_polygon",
    "make_disk",
    "make_domain",
    "make_polygon",
    "make_regular_polygon",
    "max_eta",
    "refine_caps",
    "symmetrize",
    "tuple_from_json",
    "tuple_to_json",
    "validate_tuple",
]
