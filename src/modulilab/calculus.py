"""Beltrami coefficients on a conformal surface, (F,) complex arrays of
per-face coefficients of dzbar (x) d/dz: their face-wise d/dz.  Their
density-weighted pairing is the ``inner`` of the scene's tangent complex.

Scalar functions and forms need no calculus of their own: they are the
End(E)-valued cochains of the trivial line bundle (see :mod:`modulilab.bundle`).
The normalization constants all come from :mod:`modulilab.conventions`.
"""

from __future__ import annotations

import numpy as np

from ._complexes import _layout, lift_to_vertices
from .bundle import Scene


def beltrami_d_hol(mu: np.ndarray, scene: Scene) -> np.ndarray:
    """Face-wise d/dz of a Beltrami coefficient (tensor weight 2), of an
    (F,) vector or each column of an (F, k) block, in its layout.

    Deterministic two-step stencil: lift to the vertex frames by
    transported area-weighted averaging, then P1-differentiate in each
    face chart.  Exact on fields that are restrictions of linear
    functions in a flat chart patch.

    It runs on the spin-1 tangent complex of the scene, with D its
    ``dhol`` and L its lift (``lift_to_vertices``).  A spin-2 corner
    weight is fs[f]^2 with fs = face_spin, while D and L carry fs[f] and
    conj(fs[f]) once each, so the spin-2 operator is fs D L (conj(fs) mu).
    """
    tangent, fs = scene.tangent, scene.surface.face_spin[:, None]
    M = tangent._read(mu, tangent.n_faces)
    lifted = lift_to_vertices(tangent, scene.surface, np.conj(fs) * M)
    return _layout(fs * tangent.apply(tangent.dhol, lifted), mu)
