"""Tangents to the moduli of (surface, flat bundle) pairs at the center
point, with the center-point deformation map.  A tangent is the pair of
arrays ``(mu, nu)``: mu (F,) complex Beltrami coefficients and nu
(F, n, n) complex End(E)-valued (0,1)-form coefficients in the face
frames."""

from __future__ import annotations

import numpy as np

from ._complexes import SolverError
from .bundle import Scene


def ks_center(mu: np.ndarray, nu: np.ndarray, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Center-point deformation map: the pair of harmonic projections,
    onto ker D* of the scene's tangent complex and ker dbar* of its
    End(E) complex.

    Complex-linear, annihilates exact inputs, fixes harmonic ones.
    """
    out = []
    for slot, cx, x in (("mu", scene.tangent, mu), ("nu", scene.endo, nu)):
        try:
            out.append(cx.harmonic_project(x))
        except SolverError as e:
            raise SolverError(f"{slot} projection: {e}") from e
    return tuple(out)


def random_tangent(
    scene: Scene,
    seed: int,
    mu_scale: float = 1.0,
    nu_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible harmonic tangent (projected Gaussian data)."""
    rng = np.random.default_rng(seed)
    F, n = scene.surface.n_faces, scene.cocycle.rank
    raw_mu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    raw_nu = rng.standard_normal((F, n, n)) + 1j * rng.standard_normal((F, n, n))
    return ks_center(mu_scale * raw_mu, nu_scale * raw_nu, scene)
