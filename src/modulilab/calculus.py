"""Beltrami coefficients on a conformal surface: the per-face type, its
density-weighted pairing and its face-wise d/dz.

Scalar functions and forms need no calculus of their own: they are the
End(E)-valued cochains of the trivial line bundle (see :mod:`modulilab.bundle`).
The normalization constants all come from :mod:`modulilab.conventions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complexes import DolbeaultComplex
from .surface import ConformalSurface


@dataclass(frozen=True)
class Beltrami:
    """Per-face coefficient of dzbar (x) d/dz; sup-norm >= 1 is legal here
    (only finite deformations would need the bound) and merely flagged."""

    values: np.ndarray  # (F,) complex

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite Beltrami entries")

    @property
    def sup_norm_warning(self) -> bool:
        return bool(np.max(np.abs(self.values), initial=0.0) >= 1.0)


def ip_beltrami(mu1: Beltrami, mu2: Beltrami, surface: ConformalSurface) -> complex:
    """Density-weighted pairing sum rho_f A_f mu1 conj(mu2)."""
    w = surface.density * surface.area
    return complex(np.sum(w * mu1.values * np.conj(mu2.values)))


def beltrami_d_hol(mu: Beltrami, cx: DolbeaultComplex) -> np.ndarray:
    """Face-wise d/dz of a Beltrami coefficient (tensor weight 2).

    Deterministic two-step stencil on the spin-2 complex ``cx`` (a
    scene's ``beltrami``): lift to the vertex frames by transported
    area-weighted averaging, then P1-differentiate in each face chart.
    Exact on fields that are restrictions of linear functions in a flat
    chart patch.
    """
    return cx.dhol @ (cx.lift @ mu.values)
