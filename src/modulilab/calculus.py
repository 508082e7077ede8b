"""Beltrami coefficients on a conformal surface, (F,) complex arrays of
per-face coefficients of dzbar (x) d/dz: their density-weighted pairing
and their face-wise d/dz.

Scalar functions and forms need no calculus of their own: they are the
End(E)-valued cochains of the trivial line bundle (see :mod:`modulilab.bundle`).
The normalization constants all come from :mod:`modulilab.conventions`.
"""

from __future__ import annotations

import numpy as np

from ._complexes import DolbeaultComplex
from .surface import ConformalSurface


def ip_beltrami(mu1: np.ndarray, mu2: np.ndarray, surface: ConformalSurface) -> complex:
    """Density-weighted pairing sum rho_f A_f mu1 conj(mu2)."""
    w = surface.density * surface.area
    return complex(np.sum(w * mu1 * np.conj(mu2)))


def beltrami_d_hol(mu: np.ndarray, cx: DolbeaultComplex) -> np.ndarray:
    """Face-wise d/dz of a Beltrami coefficient (tensor weight 2).

    Deterministic two-step stencil on the spin-2 complex ``cx`` (a
    scene's ``beltrami``): lift to the vertex frames by transported
    area-weighted averaging, then P1-differentiate in each face chart.
    Exact on fields that are restrictions of linear functions in a flat
    chart patch.
    """
    return cx.dhol @ (cx.lift @ mu)
