"""Discrete verification lab for the metric on the moduli space of
pairs (surface, flat unitary bundle): center-point operator calculus on
triangulated surfaces and the first/second variations of the metric in
two coordinate systems."""

__version__ = "0.1.0"

from .surface import (
    HalfEdgeMesh,
    ConformalSurface,
    build_polygon_gluing,
    refine,
    equip_conformal,
    save_mesh,
    load_mesh,
)
from .bundle import Scene, UnitaryCocycle, from_generators, trivial_cocycle, su2_preset
from .tangent import ks_center, random_tangent
from .variation import (
    VariationReport,
    QuadrupleReport,
    metric_g,
    first_variation,
    evaluate_quadruple,
    positivity_certificate,
)

__all__ = [
    "HalfEdgeMesh",
    "ConformalSurface",
    "build_polygon_gluing",
    "refine",
    "equip_conformal",
    "save_mesh",
    "load_mesh",
    "Scene",
    "UnitaryCocycle",
    "from_generators",
    "trivial_cocycle",
    "su2_preset",
    "ks_center",
    "random_tangent",
    "VariationReport",
    "QuadrupleReport",
    "metric_g",
    "first_variation",
    "evaluate_quadruple",
    "positivity_certificate",
]
