"""Tangents to the moduli of (surface, flat bundle) pairs at the center
point, with the center-point deformation map.  A tangent is the pair of
arrays ``(mu, nu)``: mu (F,) complex Beltrami coefficients and nu
(F, n, n) complex End(E)-valued (0,1)-form coefficients in the face
frames."""

from __future__ import annotations

import numpy as np

from .bundle import Scene


def ks_center(mu: np.ndarray, nu: np.ndarray, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Center-point deformation map: the pair of harmonic projections,
    onto ker D* of the scene's tangent complex and ker dbar* of its
    End(E) complex.

    Complex-linear, annihilates exact inputs, fixes harmonic ones.
    """
    mu_h = scene.tangent.harmonic_project(mu)
    nu_h = scene.endo.harmonic_project(nu.reshape(-1)).reshape(nu.shape)
    return mu_h, nu_h


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
