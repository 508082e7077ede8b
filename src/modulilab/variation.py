"""Metric on the moduli of (surface, flat bundle) pairs and its first and
second variations in the two coordinate systems, with per-term reports,
and the finite-difference check of the projector derivative along the
operator variation.  Tangents are ``(mu, nu)`` pairs of arrays (see
:mod:`modulilab.tangent`).

Term calculus
-------------
Every displayed integral of the form  -i * integral tr(alpha ^ beta)
with alpha a (0,1)- and beta a (1,0)-coefficient field equals, under the
conventions table,  sum_f 2 Area_f tr(alpha_f beta_f),  which *is* the
w1 pairing  ``scene.endo.inner(alpha, beta^H)``  of the End(E) complex;
"+i" integrals flip the sign.  The second variations are multilinear in
four independent slots: C-linear in slots 1 and 3, conjugate-linear in
slots 2 and 4.

The operator variation in direction (mu, nu) acting on 0-cochains is
``ad(nu) - mu d``; the companion variation acting on (0,1)-forms is the
composite ``d*(mu-bar .) - ad_star(nu, .)`` built from exact adjoints.
Gauge-Hessian solves use the vertex-lifted source
``rho^{-1}([nu_a, conj(nu_b)^T] - (d mu_a) conj(nu_b)^T - conj(d mu_b) nu_a)``.
Every solve uses the one End(E) Laplacian dbar* dbar and its one LU.  On
a flat bundle it equals d* d to roundoff (the discrete Kaehler identity,
certified by ``check-operators`` as ``kahler_identity``), so the
Hermitian symmetry of the totals holds to roundoff.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import conventions
from ._complexes import SOLVE_RTOL, DolbeaultComplex, SolverError, _commutator, _norms, ad, ad_star, lift_to_vertices
from .bundle import Scene
from .calculus import beltrami_d_hol
from .surface import ConformalSurface
from .tangent import random_tangent

logger = logging.getLogger(__name__)


class VariationInputError(Exception):
    """Mismatched or non-harmonic inputs to a variation formula."""


@dataclass(frozen=True)
class VariationReport:
    """One coordinate system's view of a quadruple: its named terms and
    their sum."""

    coordinate_system: str
    terms: tuple  # ((name, complex), ...)

    @property
    def total(self) -> complex:
        return complex(sum(val for _, val in self.terms))

    def to_json_dict(self) -> dict:
        total = self.total
        return {
            "terms": [
                {"name": name, "re": float(val.real), "im": float(val.imag)}
                for name, val in self.terms
            ],
            "total": {"re": float(total.real), "im": float(total.imag)},
        }


@dataclass(frozen=True)
class QuadrupleReport:
    """The three systems of one tangent quadruple and the stats of the one
    term solve that all three share, labelled with the nine terms of its
    columns."""

    universal: VariationReport
    fibered: VariationReport
    difference: VariationReport
    solver_stats: dict

    @property
    def systems(self) -> tuple[VariationReport, VariationReport, VariationReport]:
        return self.universal, self.fibered, self.difference

    def to_json_dict(self) -> dict:
        d = {rep.coordinate_system: rep.to_json_dict() for rep in self.systems}
        d["solver_stats"] = self.solver_stats
        return d


def _ct(x: np.ndarray) -> np.ndarray:
    """Pointwise conjugate transpose of (sites, n, n) values or a block."""
    return np.conj(np.swapaxes(x, 1, 2))


# -- operator variations and the gauge source --------------------------------
# Each takes per-site values or a block of them and answers in that layout.


def _dD(cx: DolbeaultComplex, v: tuple, f_vert: np.ndarray) -> np.ndarray:
    """(ad(nu) - mu d) applied to a vertex 0-cochain or a block of them."""
    mu, nu = v
    return ad(cx, nu, f_vert) - mu.reshape((-1,) + (1,) * (f_vert.ndim - 1)) * cx.apply(cx.dhol, f_vert)


def _xi(cx: DolbeaultComplex, v: tuple, alpha: np.ndarray) -> np.ndarray:
    """d*(mu-bar alpha) - ad_star(nu, alpha) on a (0,1)-form or a block."""
    mu, nu = v
    return cx.star(cx.dhol, np.conj(mu).reshape((-1,) + (1,) * (alpha.ndim - 1)) * alpha) - ad_star(cx, nu, alpha)


def _gauge_source(cx: DolbeaultComplex, S: ConformalSurface, nua, nub, dmu_a, dmu_b) -> np.ndarray:
    """The lifted gauge-Hessian source for slot pair (a, b), or a block of
    pairs (nu (F, n, n, k), dmu (F, k)), from each slot's nu and the spin-2
    derivative of its mu; Delta0^{-1} of it is the gauge potential G_ab."""
    ctb = _ct(nub)
    src = _commutator(nua, ctb) - dmu_a[:, None, None] * ctb - np.conj(dmu_b)[:, None, None] * nua
    src *= conventions.GAUGE_SOURCE_CALIBRATION / S.density.reshape((-1,) + (1,) * (src.ndim - 1))
    return lift_to_vertices(cx, S, src)


def _harmonic_defect(cx: DolbeaultComplex, x: np.ndarray, abs_dbar) -> np.ndarray:
    """|dbar* x| / |(|dbar*| |x|)| of each column of a vector or (N, k)
    block x, with ``abs_dbar`` = |dbar|: roundoff for x in ker dbar*, of
    order one for raw data, 0 for x = 0 and NaN for non-finite x."""
    X = x.reshape(len(x), -1)
    scale = _norms(cx.star(abs_dbar, np.abs(X)))
    return _norms(cx.star(cx.dbar, X)) / np.maximum(scale, 1e-300)


def _check_inputs(scene: Scene, vectors, harmonic: bool = False):
    """Shapes of the (mu, nu) pairs; with ``harmonic``, each mu must be in
    ker D* of ``scene.tangent`` and each nu in ker dbar* of ``scene.endo``.
    The slots are checked as one block per complex, and the first
    non-harmonic slot is named, its mu before its nu."""
    F, n = scene.surface.n_faces, scene.cocycle.rank
    if any(np.shape(mu) != (F,) or np.shape(nu) != (F, n, n) for mu, nu in vectors):
        raise VariationInputError("tangent vector does not match surface/rank")
    if not harmonic:
        return
    defects = [
        _harmonic_defect(cx, np.stack([v[i] for v in vectors], axis=-1).reshape(-1, len(vectors)), abs(cx.dbar))
        for i, cx in enumerate((scene.tangent, scene.endo))
    ]
    for slot, slot_defects in enumerate(zip(*defects), start=1):
        for name, defect in zip(("mu", "nu"), slot_defects):
            if not (defect <= SOLVE_RTOL):
                raise VariationInputError(f"slot {slot}: {name} is not harmonic (defect {defect:.1e})")


# ---------------------------------------------------------------------------
# metric and first variation


def metric_g(v1: tuple, v2: tuple, scene: Scene) -> complex:
    """Density-weighted Beltrami pairing plus the bundle form pairing,
    each the ``inner`` of its complex.  The blocks are orthogonal: there
    is no mu-nu cross term."""
    _check_inputs(scene, (v1, v2))
    (mu1, nu1), (mu2, nu2) = v1, v2
    return scene.tangent.inner(mu1, mu2) + scene.endo.inner(nu1, nu2)


def first_variation(v_dir: tuple, v1: tuple, v2: tuple, scene: Scene) -> tuple[complex, complex]:
    """Holomorphic and antiholomorphic first derivatives of the metric
    at the center, in direction ``v_dir``, each one wedge integral
    (``scene.endo.inner``).  The two coordinate systems give the same
    integrals.
    """
    _check_inputs(scene, (v_dir, v1, v2))
    cx, nu = scene.endo, v_dir[1]
    (mu1, nu1), (mu2, nu2) = v1, v2
    d_eps = cx.inner(nu, mu2[:, None, None] * _ct(nu1))
    d_eps_bar = cx.inner(mu1[:, None, None] * _ct(nu), nu2)
    return d_eps, d_eps_bar


# ---------------------------------------------------------------------------
# second variations

# The nine restricted solves of a quadruple, in the column order of its one
# solve block: the five of the universal terms, then the four fibered-only.
_TERM_SOLVES = ("gauge_12", "gauge_21", "opvar_proj", "opvar_mu3", "opvar_mu4",
                "new_tei_mu3", "new_tei_mu4", "new_opvar_mu3_bar", "new_opvar_mu4_bar")


def _term_sources(scene: Scene, vectors):
    """Yield the (V, n, n) right-hand side of each term solve, in the
    order of ``_TERM_SOLVES``."""
    (mu1, nu1), (mu2, nu2), (mu3, nu3), (mu4, nu4) = vectors
    S, cx = scene.surface, scene.endo
    nus, dmus = np.stack((nu1, nu2), axis=-1), beltrami_d_hol(np.stack((mu1, mu2), axis=-1), scene)
    yield from np.moveaxis(_gauge_source(cx, S, nus, nus[..., ::-1], dmus, dmus[:, ::-1]), -1, 0)
    yield _xi(cx, vectors[1], nu3)
    yield cx.star(cx.dbar, mu3[:, None, None] * _ct(nu2))
    yield cx.star(cx.dbar, mu4[:, None, None] * _ct(nu1))
    yield cx.star(cx.dhol, np.conj(mu2)[:, None, None] * nu1)
    yield cx.star(cx.dhol, np.conj(mu1)[:, None, None] * nu2)
    yield cx.star(cx.dbar, mu1[:, None, None] * _ct(nu2))
    yield cx.star(cx.dbar, mu2[:, None, None] * _ct(nu1))


def _terms(scene: Scene, vectors, y: dict) -> tuple[list, list]:
    """The ten universal terms and the four integrals present only in the
    fibered coordinates, from the term solves ``y`` by label."""
    (mu1, nu1), (mu2, nu2), (mu3, nu3), (mu4, nu4) = vectors
    cx = scene.endo

    def d(label):
        return cx.apply(cx.dhol, y[label])

    universal = [
        ("opvar_proj", cx.inner(_dD(cx, vectors[0], y["opvar_proj"]), nu4)),
        # [B G12, nu3] = -ad(nu3) G12
        ("gauge_ad", cx.inner(-ad(cx, nu3, y["gauge_12"]), nu4)),
        ("density_cross", -cx.inner((mu1 * np.conj(mu2))[:, None, None] * nu3, nu4)),
        ("opvar_mu3", cx.inner(_dD(cx, vectors[0], y["opvar_mu3"]), nu4)),
        ("gauge_mu3", cx.inner(mu3[:, None, None] * d("gauge_12"), nu4)),
        ("cross_mu3", cx.inner((np.conj(mu2) * mu3)[:, None, None] * nu1, nu4)),
        ("opvar_mu4", cx.inner(nu3, _dD(cx, vectors[1], y["opvar_mu4"]))),
        ("gauge_mu4", cx.inner(nu3, mu4[:, None, None] * d("gauge_21"))),
        ("cross_mu4", cx.inner(nu3, (np.conj(mu1) * mu4)[:, None, None] * nu2)),
        # tr(mu3 nu2^H conj(mu4) nu1) = mu3 conj(mu4) tr(nu1 nu2^H) per face
        ("bilinear", cx.inner((mu3 * np.conj(mu4))[:, None, None] * nu1, nu2)),
    ]
    extra = [
        ("new_tei_mu3", -cx.inner(mu3[:, None, None] * d("new_tei_mu3"), nu4)),
        ("new_tei_mu4", -cx.inner(nu3, mu4[:, None, None] * d("new_tei_mu4"))),
        ("new_opvar_mu3_bar", -cx.inner(mu3[:, None, None] * d("new_opvar_mu3_bar"), nu4)),
        ("new_opvar_mu4_bar", -cx.inner(nu3, mu4[:, None, None] * d("new_opvar_mu4_bar"))),
    ]
    return universal, extra


_REMOVED_IN_FIBERED = ("cross_mu3", "cross_mu4")


def evaluate_quadruple(v1: tuple, v2: tuple, v3: tuple, v4: tuple, scene: Scene) -> QuadrupleReport:
    """Mixed second derivative of the metric in both coordinate systems,
    and their difference, for one tangent quadruple.

    The ten universal (joint-coordinate) and four fibered-only terms are
    evaluated once, from one solve of the nine columns of ``_TERM_SOLVES``
    (a failure names the term of its column), and the three systems are
    views of that term table.  The fibered system drops the two cross
    terms and adds the four solve-based integrals; the difference
    (universal minus fibered) lists the removed cross terms with plus
    sign and the four new terms with minus.  Every total is C-linear in
    slots 1 and 3, conjugate-linear in slots 2 and 4, and Hermitian under
    (1<->2, 3<->4) with conjugation.  Every slot must be harmonic to
    SOLVE_RTOL (see ``_harmonic_defect``).
    """
    vectors = (v1, v2, v3, v4)
    _check_inputs(scene, vectors, harmonic=True)
    cx = scene.endo
    h = np.empty((cx.n_vertices, cx.m, cx.m, len(_TERM_SOLVES)), dtype=complex)
    for j, src in enumerate(_term_sources(scene, vectors)):
        h[..., j] = src
    try:
        x, stats = cx.delta0_solve(h)
    except SolverError as e:
        raise SolverError(f"{_TERM_SOLVES[e.column or 0]}: {e}", column=e.column) from e
    universal, extra = _terms(scene, vectors, dict(zip(_TERM_SOLVES, np.moveaxis(x, -1, 0))))
    table = dict(universal)
    fibered = [(name, val) for name, val in universal if name not in _REMOVED_IN_FIBERED] + extra
    difference = [(f"removed_{name}", table[name]) for name in _REMOVED_IN_FIBERED]
    difference += [(f"added_{name}", -val) for name, val in extra]
    return QuadrupleReport(
        universal=VariationReport("universal", tuple(universal)),
        fibered=VariationReport("fibered", tuple(fibered)),
        difference=VariationReport("difference", tuple(difference)),
        solver_stats={"terms": list(_TERM_SOLVES), **stats},
    )


# ---------------------------------------------------------------------------
# positivity certificate


def positivity_certificate(mu2: np.ndarray, nu1: np.ndarray, scene: Scene) -> tuple[float, float, float]:
    """Split of the restricted coordinate difference into two manifestly
    nonnegative pieces.

    term_a = <Delta0^{-1} h, h>, the w0 pairing, with h = d*(mu2-bar nu1)
    (PSD solve); term_b = <|mu2|^2 nu1, nu1>, the w1 pairing
    (sum 2 A |mu2|^2 |nu1|^2).  Their sum equals the difference
    total of ``evaluate_quadruple`` on the restriction nu4 = nu1,
    mu3 = mu2, rest zero.
    """
    _check_inputs(scene, [(mu2, nu1)])
    cx = scene.endo
    h = cx.star(cx.dhol, np.conj(mu2)[:, None, None] * nu1)
    try:
        x, _ = cx.delta0_solve(h)
    except SolverError as e:
        raise SolverError(f"term_a: {e}", column=e.column) from e
    term_a = cx.inner(x, h)
    term_b = cx.inner((np.abs(mu2) ** 2)[:, None, None] * nu1, nu1)
    scale = max(abs(term_a), abs(term_b), 1e-300)
    if abs(term_a.imag) > 1e-10 * scale or abs(term_b.imag) > 1e-10 * scale:
        logger.warning(
            "positivity terms have imaginary parts %.3e / %.3e", term_a.imag, term_b.imag
        )
    return float(term_a.real), float(term_b.real), float(term_a.real + term_b.real)


# ---------------------------------------------------------------------------
# projector derivative along the deformation


FD_STEPS = (1e-2, 1e-3, 1e-4)  # the sweep's steps; the CLI gates the error at the last one
PROBE_COLUMNS = 8


def _deformation_matrix(cx: DolbeaultComplex, v: tuple) -> sp.csr_matrix:
    """The sparse matrix of ``_dD(cx, v, .)``: blockdiag_f(nu_f (x) I -
    I (x) nu_f^T) B - diag(mu) d, with B = ``corner_avg``, on the row-major
    vec of each face's m x m value."""
    mu, nu = v
    F, m = cx.n_faces, cx.m
    eye = np.eye(m)
    blocks = np.einsum("fac,bd->fabcd", nu, eye) - np.einsum("ac,fdb->fabcd", eye, nu)
    ad_nu = sp.bsr_matrix((blocks.reshape(F, m * m, m * m), np.arange(F), np.arange(F + 1)))
    return (ad_nu @ cx.corner_avg - sp.diags(np.repeat(mu, m * m)) @ cx.dhol).tocsr()


def _weighted_frobenius(cx: DolbeaultComplex, M: sp.csr_matrix) -> float:
    """(sum_ij w1_i |M_ij|^2 / w0_j)^(1/2): the Frobenius norm of a
    face-valued operator M of ``cx`` between its weighted spaces."""
    return math.sqrt(float(cx.w1 @ (abs(M).power(2) @ (1.0 / cx.w0))))


def _sweep_inputs(scene: Scene, seed: int) -> tuple:
    """The tangent v, the matrix A of ``_dD(cx, v, .)`` and the probe
    block Z of ``projector_derivative_sweep`` at ``seed`` (see there)."""
    cx = scene.endo
    mu, nu = random_tangent(scene, [seed])
    v = (mu[:, 0], nu[..., 0])
    A = _deformation_matrix(cx, v)
    scale = _weighted_frobenius(cx, cx.dbar) / max(_weighted_frobenius(cx, A), 1e-300)
    rng = np.random.default_rng((1, seed))  # a stream apart from the tangent's default_rng(seed)
    shape = (cx.n_faces, cx.m, cx.m, PROBE_COLUMNS)
    Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (scale * v[0], scale * v[1]), scale * A, Z


def projector_derivative_sweep(scene: Scene, seed: int) -> dict:
    """Finite-difference check of the projector derivative identity
    dP = -P A Delta0^+ D* - D Delta0^+ A* P  (Golub and Pereyra, SIAM J.
    Numer. Anal. 10, 1973) along the paper's deformation of the center,
    D(t) = dbar + t A with A the sparse matrix of ``_dD(cx, v, .)``: the
    relative error of the central difference at each of ``FD_STEPS``, on
    a probe block, plus the fitted log-log slope (expect 2).  ``cx`` is
    the scene's End(E) complex.

    The tangent v is ``random_tangent(scene, [seed])`` at unit scales,
    rescaled so that A has the weighted Frobenius norm of dbar
    (``_weighted_frobenius``).  The probe Z is a Gaussian
    (F, m, m, ``PROBE_COLUMNS``) block from its own stream of the seed.

    Both sides use the production operators only.  The Leibniz side is
    -P(0) ``_dD``(v, Delta0^+ dbar* Z) + dbar Delta0^+ ``_xi``(v, P(0) Z),
    as A* = -``_xi``(v, .), with Delta0^+ = ``delta0_solve`` and P(0) =
    ``harmonic_project``.  P(+-h) Z is ``harmonic_project`` of the complex
    with dbar replaced by D(+-h): the same bordered LU, kernel border and
    residual gate as every other solve.  The replaced complex's ``dhol``
    is not deformed, and none of its methods used here reads it.  For an
    irreducible center the kernel persists along D(t): ad(nu) kills the
    scalars and d the constants.  For a reducible one the kernel border
    restricts every solve to K^perp, so P(t) is the projector of D(t) on
    K^perp, whose derivative at 0 is the same Leibniz expression.

    The error at step h is |FD(h) - Leibniz| / |Leibniz|, each norm that
    of ``cx.inner`` over the whole probe block.
    """
    cx = scene.endo
    v, A, Z = _sweep_inputs(scene, seed)
    x, _ = cx.delta0_solve(cx.star(cx.dbar, Z))
    # P(0) Z = Z - dbar x is ``harmonic_project(Z)`` from the solve it would repeat
    y, _ = cx.delta0_solve(_xi(cx, v, Z - cx.apply(cx.dbar, x)))
    leibniz = cx.apply(cx.dbar, y) - cx.harmonic_project(_dD(cx, v, x))
    denom = math.sqrt(cx.inner(leibniz, leibniz).real)
    errors = {}
    for h in FD_STEPS:
        plus, minus = (dataclasses.replace(cx, dbar=(cx.dbar + t * A).tocsr()).harmonic_project(Z) for t in (h, -h))
        fd = (plus - minus) / (2.0 * h) - leibniz
        err = math.sqrt(cx.inner(fd, fd).real)
        errors[h] = err / denom if denom else (0.0 if err == 0.0 else math.inf)
    hs = np.array(sorted(errors))
    es = np.array([errors[h] for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(np.maximum(es, 1e-300)), 1)[0])
    return {"errors": errors, "slope": slope}
