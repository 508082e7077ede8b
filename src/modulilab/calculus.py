"""Scalar discrete Dolbeault calculus on a conformal surface.

0-cochains live on vertices, form coefficients on faces (P1/P0).  The
normalization constants all come from :mod:`modulilab.conventions`; see
that module for the full table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conventions
from ._complexes import geometry, scalar_complex
from .surface import ConformalSurface


class TypeMismatchError(Exception):
    """Operands with incompatible cochain types or sites."""


@dataclass(frozen=True)
class Scalar0Cochain:
    values: np.ndarray  # (V,) complex

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite cochain entries")


@dataclass(frozen=True)
class FormP0:
    """Per-face coefficient of dz, dzbar, or dzbar^dz in the face chart."""

    values: np.ndarray  # (F,) complex
    type_tag: tuple  # (1,0), (0,1) or (1,1)

    def __post_init__(self):
        if tuple(self.type_tag) not in ((1, 0), (0, 1), (1, 1)):
            raise TypeMismatchError(f"unsupported form type {self.type_tag}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite form entries")


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


def dbar(f: Scalar0Cochain, surface: ConformalSurface) -> FormP0:
    cx = scalar_complex(surface)
    return FormP0(cx.dbar @ f.values, (0, 1))


def d_hol(f: Scalar0Cochain, surface: ConformalSurface) -> FormP0:
    cx = scalar_complex(surface)
    return FormP0(cx.dhol @ f.values, (1, 0))


def dbar_star(alpha: FormP0, surface: ConformalSurface) -> Scalar0Cochain:
    if alpha.type_tag != (0, 1):
        raise TypeMismatchError("dbar_star expects a (0,1)-form")
    cx = scalar_complex(surface)
    return Scalar0Cochain(cx.dbar_star @ alpha.values)


def d_star(beta: FormP0, surface: ConformalSurface) -> Scalar0Cochain:
    if beta.type_tag != (1, 0):
        raise TypeMismatchError("d_star expects a (1,0)-form")
    cx = scalar_complex(surface)
    return Scalar0Cochain(cx.dhol_star @ beta.values)


def hodge_star(omega: FormP0, surface: ConformalSurface | None = None) -> FormP0:
    """Conformal rotation on 1-forms; on (1,1)-forms divides by the
    area density so the volume form maps to the constant 1 (a (1,1)
    result is returned with the same tag holding per-face scalars)."""
    if omega.type_tag == (0, 1):
        return FormP0(conventions.STAR_DZBAR * omega.values, (0, 1))
    if omega.type_tag == (1, 0):
        return FormP0(conventions.STAR_DZ * omega.values, (1, 0))
    if surface is None:
        raise TypeMismatchError("hodge_star on (1,1)-forms needs the surface")
    return FormP0(2j * omega.values / surface.density, (1, 1))


def volume_form(surface: ConformalSurface) -> FormP0:
    """rho dx^dy as a (1,1)-form (dzbar^dz coefficient rho/(2i))."""
    return FormP0(surface.density / 2j, (1, 1))


def ip_scalar(
    f: Scalar0Cochain,
    g: Scalar0Cochain,
    surface: ConformalSurface,
    weight: str = "density",
) -> complex:
    geom = geometry(surface)
    if weight == "density":
        w = conventions.L2_GLOBAL_FACTOR * geom.mass_rho
    elif weight == "uniform":
        w = conventions.L2_GLOBAL_FACTOR * geom.mass_area
    else:
        raise TypeMismatchError(f"unknown weight {weight!r}")
    return complex(np.sum(w * f.values * np.conj(g.values)))


def ip_form(alpha: FormP0, beta: FormP0, surface: ConformalSurface) -> complex:
    if alpha.type_tag != beta.type_tag or alpha.type_tag == (1, 1):
        raise TypeMismatchError("ip_form needs two 1-forms of equal type")
    w = conventions.L2_GLOBAL_FACTOR * surface.area
    return complex(np.sum(w * alpha.values * np.conj(beta.values)))


def ip_beltrami(mu1: Beltrami, mu2: Beltrami, surface: ConformalSurface) -> complex:
    """Density-weighted pairing sum rho_f A_f mu1 conj(mu2)."""
    w = surface.density * surface.area
    return complex(np.sum(w * mu1.values * np.conj(mu2.values)))


def mu_contract(mu: Beltrami, omega: FormP0) -> FormP0:
    """(f dz) . (mu dzbar (x) d/dz) = f mu dzbar, per face."""
    if omega.type_tag != (1, 0):
        raise TypeMismatchError("mu_contract expects a (1,0)-form")
    if mu.values.shape != omega.values.shape:
        raise TypeMismatchError("face count mismatch")
    return FormP0(mu.values * omega.values, (0, 1))


def mu_bar_contract(mu: Beltrami, alpha: FormP0) -> FormP0:
    if alpha.type_tag != (0, 1):
        raise TypeMismatchError("mu_bar_contract expects a (0,1)-form")
    if mu.values.shape != alpha.values.shape:
        raise TypeMismatchError("face count mismatch")
    return FormP0(np.conj(mu.values) * alpha.values, (1, 0))


def wedge_trace_integrate(alpha, beta, surface: ConformalSurface) -> complex:
    """Integrate tr(alpha ^ beta) for alpha a (0,1)- and beta a (1,0)-form.

    Per the conventions table the dzbar^dz coefficient integrates to
    2*Area_f, so for beta = star(conj(alpha)^T) the result is -i times
    the positive square norm of alpha.  Accepts scalar (F,) or
    matrix-valued (F,n,n) coefficients.
    """
    a_vals, a_tag = (alpha.values, alpha.type_tag) if isinstance(alpha, FormP0) else alpha
    b_vals, b_tag = (beta.values, beta.type_tag) if isinstance(beta, FormP0) else beta
    if a_tag != (0, 1) or b_tag != (1, 0):
        raise TypeMismatchError("wedge_trace_integrate expects ((0,1), (1,0))")
    if a_vals.shape[0] != b_vals.shape[0]:
        raise TypeMismatchError("face count mismatch")
    w = conventions.WEDGE_AREA_FACTOR * surface.area
    if a_vals.ndim == 1:
        return complex(np.sum(w * a_vals * b_vals))
    if a_vals.shape[1:] != b_vals.shape[1:]:
        raise TypeMismatchError("matrix size mismatch")
    return complex(np.einsum("f,fab,fba->", w, a_vals, b_vals))


def _spin_power(surface: ConformalSurface, power: int) -> np.ndarray:
    geom = geometry(surface)
    return geom.corner_spin**power


def lift_face_field(
    values: np.ndarray, surface: ConformalSurface, spin_power: int
) -> np.ndarray:
    """Area-weighted average of a scalar face field onto vertices.

    ``spin_power`` is the chart-rotation weight of the field's tensor
    type (0 for functions, 1 for (0,1)/vector coefficients, -1 for
    (1,0), 2 for Beltrami); values are transported into the reference
    chart of each vertex before averaging.
    """
    geom = geometry(surface)
    spin = _spin_power(surface, spin_power)
    out = np.zeros(geom.mass_area.shape[0], dtype=complex)
    np.add.at(out, geom.corner_vertex, (geom.area / 3.0 * values)[:, None] / spin)
    return out / geom.mass_area


def face_derivative(
    values: np.ndarray, surface: ConformalSurface, spin_power: int, holomorphic: bool
) -> np.ndarray:
    """d or dbar of a face-constant scalar field of given tensor weight.

    Deterministic two-step stencil: lift to vertices by transported
    area-weighted averaging, then P1-differentiate in each face chart.
    Exact on fields that are restrictions of linear functions in a flat
    chart patch.
    """
    geom = geometry(surface)
    lifted = lift_face_field(values, surface, spin_power)
    spin = _spin_power(surface, spin_power)
    grad = geom.grad_hol if holomorphic else geom.grad_bar
    cv = geom.corner_vertex
    vals = lifted[cv] * spin  # transported back into face charts
    return np.sum(grad * vals, axis=1)


def beltrami_d_hol(mu: Beltrami, surface: ConformalSurface) -> np.ndarray:
    """Face-wise d/dz of a Beltrami coefficient (tensor weight 2)."""
    return face_derivative(mu.values, surface, spin_power=2, holomorphic=True)
