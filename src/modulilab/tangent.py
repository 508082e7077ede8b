"""Tangent vectors to the moduli of (surface, flat bundle) pairs at the
center point: harmonic Beltrami differentials paired with harmonic
End(E)-valued (0,1)-forms, with the center-point deformation maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._complexes import DolbeaultComplex
from .bundle import BundleCochain, Scene
from .calculus import Beltrami

HARMONIC_TOL = 1e-8


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


def is_harmonic(v: TangentVector, scene: Scene, tol: float = HARMONIC_TOL) -> bool:
    pm = project_harmonic_mu(v.mu, scene.tangent)
    pn = scene.endo.harmonic_project(v.nu.values.reshape(-1))
    dm = np.linalg.norm(pm.values - v.mu.values)
    dn = np.linalg.norm(pn - v.nu.values.reshape(-1))
    scale = max(np.linalg.norm(v.mu.values), np.linalg.norm(v.nu.values), 1.0)
    return bool(max(dm, dn) <= tol * scale)


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


# -- serialization of tangent vectors (experiment manifests) ----------------


class TangentFileError(ValueError):
    """Malformed tangent-vector file."""


def save_tangent(v: TangentVector, path) -> None:
    with open(path, "w") as fh:
        for f, z in enumerate(v.mu.values):
            fh.write(f"mu {f} {float(z.real)!r} {float(z.imag)!r}\n")
        for f in range(v.nu.values.shape[0]):
            nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in v.nu.values[f].ravel())
            fh.write(f"nu {f} {nums}\n")


def load_tangent(path, scene: Scene) -> TangentVector:
    """Read a tangent vector of ``scene`` written by ``save_tangent``.

    Every face needs exactly one ``mu f re im`` record and one
    ``nu f re im ...`` record (2 n^2 reals, row-major).  Unknown records,
    wrong entry counts, non-numeric or non-finite entries, and face ids
    that are out of range or repeated raise TangentFileError naming the
    line; a missing face raises it naming the face.  ``harmonic`` is
    computed by ``is_harmonic``, not read.
    """
    F, n = scene.surface.n_faces, scene.cocycle.rank
    reals = {"mu": 2, "nu": 2 * n * n}
    vals = {kind: np.zeros((F, k // 2), dtype=complex) for kind, k in reals.items()}
    seen = {kind: np.zeros(F, dtype=bool) for kind in reals}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            kind = parts[0]
            if kind not in reals:
                raise TangentFileError(f"line {lineno}: unknown record {kind!r}")
            if len(parts) != 2 + reals[kind]:
                raise TangentFileError(
                    f"line {lineno}: {kind} record needs a face id and {reals[kind]} reals, "
                    f"got {len(parts) - 1} fields"
                )
            try:
                f = int(parts[1])
                x = [float(p) for p in parts[2:]]
            except ValueError:
                raise TangentFileError(f"line {lineno}: non-numeric entry in {kind} record") from None
            if not all(math.isfinite(r) for r in x):
                raise TangentFileError(f"line {lineno}: non-finite entry in {kind} record")
            if not 0 <= f < F:
                raise TangentFileError(f"line {lineno}: face id {f} out of range 0..{F - 1}")
            if seen[kind][f]:
                raise TangentFileError(f"line {lineno}: duplicate {kind} record for face {f}")
            seen[kind][f] = True
            vals[kind][f] = np.array(x[0::2]) + 1j * np.array(x[1::2])
    for kind, got in seen.items():
        if not got.all():
            raise TangentFileError(f"missing {kind} record for face {int(np.argmin(got))}")
    v = TangentVector(mu=Beltrami(vals["mu"][:, 0]), nu=BundleCochain(vals["nu"].reshape(F, n, n), (0, 1)))
    return TangentVector(mu=v.mu, nu=v.nu, harmonic=is_harmonic(v, scene))
