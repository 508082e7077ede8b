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
from .bundle import UnitaryCocycle, BundleCochain, from_generators, trivial_cocycle, su2_preset
from .calculus import Scalar0Cochain, FormP0, Beltrami
from .tangent import TangentVector, ks_center, random_tangent
from .variation import (
    VariationReport,
    metric_g,
    first_variation,
    evaluate_quadruple,
    second_variation_universal,
    second_variation_fibered,
    difference_report,
    positivity_certificate,
    projector_derivative_check,
)

__all__ = [
    "HalfEdgeMesh",
    "ConformalSurface",
    "build_polygon_gluing",
    "refine",
    "equip_conformal",
    "save_mesh",
    "load_mesh",
    "UnitaryCocycle",
    "BundleCochain",
    "from_generators",
    "trivial_cocycle",
    "su2_preset",
    "Scalar0Cochain",
    "FormP0",
    "Beltrami",
    "TangentVector",
    "ks_center",
    "random_tangent",
    "VariationReport",
    "metric_g",
    "first_variation",
    "evaluate_quadruple",
    "second_variation_universal",
    "second_variation_fibered",
    "difference_report",
    "positivity_certificate",
    "projector_derivative_check",
]
