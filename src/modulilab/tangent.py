"""Tangent vectors to the moduli of (surface, flat bundle) pairs at the
center point: harmonic Beltrami differentials paired with harmonic
End(E)-valued (0,1)-forms, with the center-point deformation maps."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import bundle as bnd
from ._complexes import tangent_complex
from .bundle import BundleCochain, UnitaryCocycle
from .calculus import Beltrami, ip_beltrami
from .oracle import DenseCapError
from .surface import ConformalSurface

logger = logging.getLogger(__name__)

HARMONIC_TOL = 1e-8


@dataclass(frozen=True)
class TangentVector:
    mu: Beltrami
    nu: BundleCochain
    harmonic: bool = False

    def __post_init__(self):
        if self.nu.degree != (0, 1):
            raise ValueError("nu must be a (0,1)-form cochain")


@dataclass(frozen=True)
class HarmonicBases:
    mu_basis: list
    nu_basis: list
    mu_gram: np.ndarray
    nu_gram: np.ndarray


def project_harmonic_mu(mu: Beltrami, S: ConformalSurface) -> Beltrami:
    """Orthogonal projection onto harmonic Beltrami coefficients under
    the density-weighted pairing, via I - D Delta0^{-1} D* for the
    chart-rotation-twisted vector-field complex."""
    cx = tangent_complex(S)
    return Beltrami(cx.harmonic_project(mu.values))


def project_harmonic_nu(nu: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    return bnd.harmonic_projection(nu, c, S)


def ks_center(
    mu_t: Beltrami, nu_t: BundleCochain, c: UnitaryCocycle, S: ConformalSurface
) -> TangentVector:
    """Center-point deformation map: the pair of harmonic projections.

    Complex-linear, annihilates exact inputs, fixes harmonic ones.
    """
    return TangentVector(
        mu=project_harmonic_mu(mu_t, S),
        nu=project_harmonic_nu(nu_t, c, S),
        harmonic=True,
    )


def is_harmonic(v: TangentVector, c: UnitaryCocycle, S: ConformalSurface, tol: float = HARMONIC_TOL) -> bool:
    pm = project_harmonic_mu(v.mu, S)
    pn = project_harmonic_nu(v.nu, c, S)
    dm = np.linalg.norm(pm.values - v.mu.values)
    dn = np.linalg.norm(pn.values - v.nu.values)
    scale = max(np.linalg.norm(v.mu.values), np.linalg.norm(v.nu.values), 1.0)
    return bool(max(dm, dn) <= tol * scale)


def project_traceless(nu: BundleCochain) -> BundleCochain:
    """Pointwise nu - (tr nu / n) I."""
    n = nu.rank
    tr = np.trace(nu.values, axis1=1, axis2=2) / n
    vals = nu.values - tr[:, None, None] * np.eye(n)
    return BundleCochain(vals, nu.degree)


def random_tangent(
    S: ConformalSurface,
    c: UnitaryCocycle,
    seed: int,
    scale: float = 1.0,
    mu_scale: float = 1.0,
    nu_scale: float = 1.0,
) -> TangentVector:
    """Reproducible harmonic tangent vector (projected Gaussian data)."""
    rng = np.random.default_rng(seed)
    F, n = S.n_faces, c.rank
    raw_mu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    raw_nu = rng.standard_normal((F, n, n)) + 1j * rng.standard_normal((F, n, n))
    mu = project_harmonic_mu(Beltrami(scale * mu_scale * raw_mu), S)
    nu = project_harmonic_nu(
        BundleCochain(scale * nu_scale * raw_nu, (0, 1)), c, S
    )
    return TangentVector(mu=mu, nu=nu, harmonic=True)


def _harmonic_columns(cx, dense_cap: int) -> np.ndarray:
    """Columns spanning ker(dbar*) of a complex, orthonormal under w1, by
    dense SVD of the weight-orthonormalized dbar."""
    if sum(cx.dbar.shape) > dense_cap:
        raise DenseCapError(f"dense basis computation exceeds dense_cap {dense_cap}")
    Dt = (np.sqrt(cx.w1)[:, None] * cx.dbar.toarray()) / np.sqrt(cx.w0)[None, :]
    u, s, _ = np.linalg.svd(Dt, full_matrices=True)
    tol = max(Dt.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > max(tol, 1e-10)))
    return u[:, rank:] / np.sqrt(cx.w1)[:, None]


def harmonic_nu_basis(c: UnitaryCocycle, S: ConformalSurface, dense_cap: int = 6000) -> list:
    """Orthonormal basis of ker(twisted_dbar_star) by dense SVD."""
    irred, cdim = bnd.is_irreducible(c)
    if not irred:
        logger.warning("cocycle is reducible (commutant dimension %d)", cdim)
    basis = _harmonic_columns(bnd.operators(S, c), dense_cap)
    return [BundleCochain(basis[:, k].reshape(-1, c.rank, c.rank), (0, 1)) for k in range(basis.shape[1])]


def harmonic_mu_basis(S: ConformalSurface, dense_cap: int = 6000) -> list:
    basis = _harmonic_columns(tangent_complex(S), dense_cap)
    return [Beltrami(basis[:, k]) for k in range(basis.shape[1])]


def harmonic_bases(c: UnitaryCocycle, S: ConformalSurface, dense_cap: int = 6000) -> HarmonicBases:
    """Bases plus Gram matrices; dimensions are diagnostics, logged only."""
    mus = harmonic_mu_basis(S, dense_cap)
    nus = harmonic_nu_basis(c, S, dense_cap)
    mg = np.array([[ip_beltrami(a, b, S) for b in mus] for a in mus])
    ng = np.array(
        [
            [
                bnd.ip_bundle(a, b, c, S)
                for b in nus
            ]
            for a in nus
        ]
    )
    logger.info(
        "harmonic dimensions: beltrami %d, endo (0,1) %d (genus %d, rank %d)",
        len(mus),
        len(nus),
        S.mesh.genus,
        c.rank,
    )
    return HarmonicBases(mu_basis=mus, nu_basis=nus, mu_gram=mg, nu_gram=ng)


# -- serialization of tangent vectors (experiment manifests) ----------------


def save_tangent(v: TangentVector, path) -> None:
    n = v.nu.rank
    with open(path, "w") as fh:
        for f, z in enumerate(v.mu.values):
            fh.write(f"mu {f} {float(z.real)!r} {float(z.imag)!r}\n")
        for f in range(v.nu.values.shape[0]):
            nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in v.nu.values[f].ravel())
            fh.write(f"nu {f} {nums}\n")


def load_tangent(path, n: int, n_faces: int, harmonic: bool = False) -> TangentVector:
    mu = np.zeros(n_faces, dtype=complex)
    nu = np.zeros((n_faces, n, n), dtype=complex)
    with open(path) as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "mu":
                mu[int(parts[1])] = complex(float(parts[2]), float(parts[3]))
            elif parts[0] == "nu":
                vals = [float(p) for p in parts[2:]]
                M = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
                nu[int(parts[1])] = M.reshape(n, n)
    return TangentVector(mu=Beltrami(mu), nu=BundleCochain(nu, (0, 1)), harmonic=harmonic)
