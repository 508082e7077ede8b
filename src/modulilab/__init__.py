"""Discrete verification lab for the metric on the moduli space of
pairs (surface, flat unitary bundle): center-point operator calculus on
triangulated surfaces and the first/second variations of the metric in
two coordinate systems."""

__version__ = "0.1.0"


def _keep_numpy_submodules_lazy():
    """Bind each numpy submodule not yet imported as a lazy module, which
    runs on its first attribute access, as numpy's own ``__getattr__``
    would.  scipy's ``array_api_compat`` clones numpy by ``hasattr`` on
    every name ``dir(numpy)`` lists, which ran all of them (``numpy.f2py``,
    ``numpy.testing``, ...); both process entries import this package, and
    scipy with it, before ``cli.run``.  The ``setattr`` keeps ``import
    numpy.testing as t`` from recursing through ``numpy.__getattr__``."""
    import importlib.util
    import sys

    import numpy

    for name in sorted(set(dir(numpy)) - set(vars(numpy))):
        full = f"numpy.{name}"
        if full in sys.modules or (spec := importlib.util.find_spec(full)) is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(numpy, name, module)


_keep_numpy_submodules_lazy()

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
