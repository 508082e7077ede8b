"""Tangent vectors to the moduli of (surface, flat bundle) pairs at the
center point: harmonic Beltrami differentials paired with harmonic
End(E)-valued (0,1)-forms, with the center-point deformation maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._complexes import DolbeaultComplex
from .bundle import BundleCochain, Scene
from .calculus import Beltrami


@dataclass(frozen=True)
class TangentVector:
    mu: Beltrami
    nu: BundleCochain
    harmonic: bool = False

    def __post_init__(self):
        if self.nu.degree != (0, 1):
            raise ValueError("nu must be a (0,1)-form cochain")


def project_harmonic_mu(mu: Beltrami, cx: DolbeaultComplex) -> Beltrami:
    """Orthogonal projection onto harmonic Beltrami coefficients under
    the density-weighted pairing, via I - D Delta0^{-1} D* for the
    chart-rotation-twisted vector-field complex ``cx`` (a scene's
    ``tangent``)."""
    return Beltrami(cx.harmonic_project(mu.values))


def ks_center(mu_t: Beltrami, nu_t: BundleCochain, scene: Scene) -> TangentVector:
    """Center-point deformation map: the pair of harmonic projections,
    onto ker D* of the scene's tangent complex and ker dbar* of its
    End(E) complex.

    Complex-linear, annihilates exact inputs, fixes harmonic ones.
    """
    mu = project_harmonic_mu(mu_t, scene.tangent)
    nu = scene.endo.harmonic_project(nu_t.values.reshape(-1))
    return TangentVector(mu=mu, nu=BundleCochain(nu.reshape(nu_t.values.shape), (0, 1)), harmonic=True)


def random_tangent(
    scene: Scene,
    seed: int,
    mu_scale: float = 1.0,
    nu_scale: float = 1.0,
) -> TangentVector:
    """Reproducible harmonic tangent vector (projected Gaussian data)."""
    rng = np.random.default_rng(seed)
    F, n = scene.surface.n_faces, scene.cocycle.rank
    raw_mu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    raw_nu = rng.standard_normal((F, n, n)) + 1j * rng.standard_normal((F, n, n))
    return ks_center(Beltrami(mu_scale * raw_mu), BundleCochain(nu_scale * raw_nu, (0, 1)), scene)

