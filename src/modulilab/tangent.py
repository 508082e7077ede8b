"""Tangents to the moduli of (surface, flat bundle) pairs at the center
point, with the center-point deformation map.  A tangent is the pair of
arrays ``(mu, nu)``: mu (F,) complex Beltrami coefficients and nu
(F, n, n) complex End(E)-valued (0,1)-form coefficients in the face
frames.  A block of k tangents is the pair mu (F, k), nu (F, n, n, k),
column j holding tangent j."""

from __future__ import annotations

import numpy as np

from ._complexes import SolverError
from .bundle import Scene


def ks_center(mu: np.ndarray, nu: np.ndarray, scene: Scene, names: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Center-point deformation map: the pair of harmonic projections,
    onto ker D* of the scene's tangent complex and ker dbar* of its
    End(E) complex, of a tangent or a block of tangents.

    Complex-linear, annihilates exact inputs, fixes harmonic ones.  A
    failure names its failing column ``names[column]``.
    """
    out = []
    for slot, cx, x in (("mu", scene.tangent, mu), ("nu", scene.endo, nu)):
        try:
            out.append(cx.harmonic_project(x))
        except SolverError as e:
            where = "" if names is None or e.column is None else f" of {names[e.column]}"
            raise SolverError(f"{slot} projection{where}: {e}", column=e.column) from e
    return tuple(out)


def random_tangent(
    scene: Scene, seeds: list[int], mu_scale: float = 1.0, nu_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible block of harmonic tangents (projected Gaussian data):
    column j is drawn from its own ``default_rng(seeds[j])``, mu real,
    mu imag, nu real, nu imag, so it does not depend on the other seeds.
    Both LUs are factored first, so no block is alive while they are."""
    scene.tangent.lu, scene.endo.lu
    F, n, k = scene.surface.n_faces, scene.cocycle.rank, len(seeds)
    mu, nu = np.empty((F, k), dtype=complex), np.empty((F, n, n, k), dtype=complex)
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        mu[:, j] = rng.standard_normal(F) + 1j * rng.standard_normal(F)
        nu[..., j] = rng.standard_normal((F, n, n)) + 1j * rng.standard_normal((F, n, n))
    mu *= mu_scale  # in place: no second copy of the block
    nu *= nu_scale
    return ks_center(mu, nu, scene, [f"tangent seed {s}" for s in seeds])
