"""Normalization table for the discrete conformal calculus.

Every constant that enters an inner product, a Hodge star, or a wedge
integral is fixed here once, so that no formula in the variation module
can drift against another.  The table:

* local coordinate dz = dx + i dy, positively oriented charts;
* star dz = -i dz, star dzbar = +i dzbar (so star^2 = -1 on 1-forms);
* on (1,1)-forms, star divides the dzbar^dz coefficient by the area
  density: c -> 2i c / rho, so the volume form rho dx^dy maps to 1;
* volume form rho dx^dy; all L2 pairings carry a global factor 2
  relative to that volume, i.e. <1,1> on functions is 2*rho-area and
  <dzbar,dzbar> = 2/rho.  With this choice the assembled adjoint of
  dbar is the discretization of -rho^{-1} d on (0,1)-coefficients;
* wedge integration maps the dzbar^dz coefficient on a face to
  2*Area_f, which equals (-i) times the geometric integral of
  dzbar^dz = 2i dx^dy.  So a wedge integral of a with b *is* the w1
  pairing ``DolbeaultComplex.inner(a, b^H)``, and i times that of a with
  star(conj(a)^T) is <a, a> exactly;
* Beltrami differentials pair with weight rho*Area_f per face;
* `ad_star` is the exact formal adjoint of the pointwise commutator
  action; under the weights above it equals -rho^{-1}[alpha, conj(nu)^T]
  averaged onto vertices.  The -1 follows from the adjoint itself, so no
  constant here carries it.
"""

from __future__ import annotations

STAR_DZ = -1j
STAR_DZBAR = 1j

#: wedge integration sends the per-face dzbar^dz coefficient to this
#: multiple of the chart area; equal to L2_GLOBAL_FACTOR.
WEDGE_AREA_FACTOR = 2.0

#: global factor on every L2 weight relative to the rho dx^dy volume.
L2_GLOBAL_FACTOR = 2.0

#: the gauge-Hessian source keeps the derivation constant +1 on
#: rho^{-1}([nu1, conj(nu2)^T] - (d mu1) conj(nu2)^T - conj(d mu2) nu1).
GAUGE_SOURCE_CALIBRATION = 1.0


def digest(density_policy: str) -> dict:
    """Conventions record, written once at the top of the
    ``second-variation`` report."""
    return {
        "star_dz": "-i",
        "star_dzbar": "+i",
        "wedge_area_factor": WEDGE_AREA_FACTOR,
        "l2_global_factor": L2_GLOBAL_FACTOR,
        "gauge_source_calibration": GAUGE_SOURCE_CALIBRATION,
        "scalar_weight": "2 * rho * area / 3 per corner",
        "form_weight": "2 * area",
        "beltrami_weight": "rho * area",
        "variation_laplacian": "dbar*dbar (= d*d on flat bundles), kernel-restricted",
        "mu4_terms": "exact Hermitian mirrors of the mu3 terms",
        "density_policy": density_policy,
    }
