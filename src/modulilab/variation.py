"""Metric on the moduli of (surface, flat bundle) pairs and its first and
second variations in the two coordinate systems, with per-term reports.

Term calculus
-------------
Every displayed integral of the form  -i * integral tr(alpha ^ beta)
with alpha a (0,1)- and beta a (1,0)-coefficient field equals, under the
conventions table,  sum_f 2 Area_f tr(alpha_f beta_f)  (the helper
``_pair``); "+i" integrals flip the sign.  The second variations are
multilinear in four independent slots: C-linear in slots 1 and 3,
conjugate-linear in slots 2 and 4.

The operator variation in direction (mu, nu) acting on 0-cochains is
``ad(nu) - mu d``; the companion variation acting on (0,1)-forms is the
composite ``d*(mu-bar .) - ad_star(nu, .)`` built from exact adjoints.
Gauge-Hessian solves use the vertex-lifted source
``rho^{-1}([nu_a, conj(nu_b)^T] - (d mu_a) conj(nu_b)^T - conj(d mu_b) nu_a)``
and the conjugation-equivariant symmetrized Laplacian, which keeps the
Hermitian symmetry of the totals exact at the discrete level.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import conventions
from ._complexes import ad, ad_star, lift_to_vertices
from .bundle import BundleCochain, UnitaryCocycle, operators
from .calculus import Beltrami, beltrami_d_hol, ip_beltrami
from .oracle import DenseCapError, spectral_norm
from .surface import ConformalSurface
from .tangent import TangentVector

logger = logging.getLogger(__name__)


class VariationInputError(Exception):
    """Mismatched or non-harmonic inputs to a variation formula."""


@dataclass(frozen=True)
class VariationReport:
    coordinate_system: str
    terms: tuple  # ((name, complex), ...)
    total: complex
    inputs: dict  # norms of the four slots plus a content digest
    conventions_digest: dict
    solver_stats: tuple

    @property
    def inputs_digest(self) -> str:
        return self.inputs["digest"]

    def to_json_dict(self) -> dict:
        return {
            "system": self.coordinate_system,
            "terms": [
                {"name": name, "re": float(val.real), "im": float(val.imag)}
                for name, val in self.terms
            ],
            "total": {"re": float(self.total.real), "im": float(self.total.imag)},
            "inputs_digest": self.inputs["digest"],
            "inputs_manifest": {k: v for k, v in self.inputs.items() if k != "digest"},
            "conventions_digest": self.conventions_digest,
            "solver_stats": list(self.solver_stats),
        }


def _inputs_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.round(np.asarray(a, dtype=complex), 12)).tobytes())
    return h.hexdigest()[:16]


class _Workspace:
    """Shared operator state for one variation evaluation."""

    def __init__(self, S: ConformalSurface, c: UnitaryCocycle):
        self.S = S
        self.cx = operators(S, c)
        self.n = c.rank
        self.stats: list = []

    # -- array plumbing ------------------------------------------------------
    def _mat(self, flat: np.ndarray, sites: str) -> np.ndarray:
        n = self.n
        count = self.cx.n_vertices if sites == "v" else self.cx.n_faces
        return flat.reshape(count, n, n)

    def dhol(self, vert: np.ndarray) -> np.ndarray:
        return self._mat(self.cx.dhol @ vert.reshape(-1), "f")

    def dbar(self, vert: np.ndarray) -> np.ndarray:
        return self._mat(self.cx.dbar @ vert.reshape(-1), "f")

    def dbar_star(self, form: np.ndarray) -> np.ndarray:
        return self._mat(self.cx.dbar_star @ form.reshape(-1), "v")

    def dhol_star(self, form: np.ndarray) -> np.ndarray:
        return self._mat(self.cx.dhol_star @ form.reshape(-1), "v")

    def solve(self, h_vert: np.ndarray, label: str) -> np.ndarray:
        x, st = self.cx.delta0_solve(h_vert.reshape(-1), which="sym")
        st["term"] = label
        self.stats.append(st)
        return self._mat(x, "v")

    def pair(self, a01: np.ndarray, b10: np.ndarray) -> complex:
        """-i * integral tr(a ^ b) under the conventions table."""
        w = conventions.WEDGE_AREA_FACTOR * self.S.area
        return complex(np.einsum("f,fab,fba->", w, a01, b10))

    @staticmethod
    def ct(x: np.ndarray) -> np.ndarray:
        return np.conj(np.swapaxes(x, 1, 2))

    # -- operator variations ---------------------------------------------
    def dD(self, v: TangentVector, f_vert: np.ndarray) -> np.ndarray:
        """(ad(nu) - mu d) applied to a vertex 0-cochain."""
        return ad(self.cx, v.nu.values, f_vert) - v.mu.values[:, None, None] * self.dhol(f_vert)

    def xi(self, v: TangentVector, alpha: np.ndarray) -> np.ndarray:
        """d*(mu-bar alpha) - ad_star(nu, alpha) on a (0,1)-form."""
        first = self.dhol_star(np.conj(v.mu.values)[:, None, None] * alpha)
        return first - ad_star(self.cx, v.nu.values, alpha)

    def gauge_potential(self, va: TangentVector, vb: TangentVector, label: str) -> np.ndarray:
        """Delta0^{-1} of the lifted gauge-Hessian source for slot pair (a, b)."""
        rho = self.S.density
        nua, nub = va.nu.values, vb.nu.values
        ctb = self.ct(nub)
        dmu_a = beltrami_d_hol(va.mu, self.S)
        dmu_b = beltrami_d_hol(vb.mu, self.S)
        src = (
            nua @ ctb
            - ctb @ nua
            - dmu_a[:, None, None] * ctb
            - np.conj(dmu_b)[:, None, None] * nua
        )
        src *= conventions.GAUGE_SOURCE_CALIBRATION / rho[:, None, None]
        lifted = lift_to_vertices(self.cx, src)
        return self.solve(lifted, label)

    def ad_of(self, g_vert: np.ndarray, form: np.ndarray) -> np.ndarray:
        """[B g, form] = -ad(form) g."""
        return -ad(self.cx, form, g_vert)


def _check_inputs(S: ConformalSurface, c: UnitaryCocycle, vectors, need_harmonic: bool):
    F, n = S.n_faces, c.rank
    for v in vectors:
        if v.mu.values.shape != (F,) or v.nu.values.shape != (F, n, n):
            raise VariationInputError("tangent vector does not match surface/rank")
        if need_harmonic and not v.harmonic:
            raise VariationInputError("second variations require harmonic-flagged inputs")


# ---------------------------------------------------------------------------
# metric and first variation


def metric_g(v1: TangentVector, v2: TangentVector, S: ConformalSurface, c: UnitaryCocycle) -> complex:
    """Density-weighted Beltrami pairing plus the bundle form pairing.

    The blocks are orthogonal: there is no mu-nu cross term.
    """
    _check_inputs(S, c, (v1, v2), need_harmonic=False)
    w = conventions.WEDGE_AREA_FACTOR * S.area
    # i * wedge_trace_integrate(nu1, star(conj(nu2)^T)) with star dz = -i dz
    bundle_term = complex(
        1j * np.einsum("f,fab,fba->", w, v1.nu.values, conventions.STAR_DZ * _Workspace.ct(v2.nu.values))
    )
    return ip_beltrami(v1.mu, v2.mu, S) + bundle_term


def first_variation(
    v_dir: TangentVector,
    v1: TangentVector,
    v2: TangentVector,
    S: ConformalSurface,
    c: UnitaryCocycle,
    system: str = "universal",
) -> tuple[complex, complex]:
    """Holomorphic and antiholomorphic first derivatives of the metric
    at the center, in direction ``v_dir``.

    The two coordinate systems give the same integrals; they are summed
    in different orders here so the comparison is not vacuous.
    """
    _check_inputs(S, c, (v_dir, v1, v2), need_harmonic=False)
    w = conventions.WEDGE_AREA_FACTOR * S.area
    nu = v_dir.nu.values
    nu1, nu2 = v1.nu.values, v2.nu.values
    mu1, mu2 = v1.mu.values, v2.mu.values
    if system == "universal":
        d_eps = complex(np.einsum("f,fab,fba->", w, nu, np.conj(mu2)[:, None, None] * nu1))
        d_eps_bar = complex(
            np.einsum(
                "f,fab,fba->",
                w,
                mu1[:, None, None] * _Workspace.ct(nu),
                _Workspace.ct(nu2),
            )
        )
    elif system == "fibered":
        d_eps = complex(np.sum(w * np.conj(mu2) * np.einsum("fab,fba->f", nu1, nu)))
        d_eps_bar = complex(
            np.sum(w * mu1 * np.einsum("fab,fba->f", _Workspace.ct(nu), _Workspace.ct(nu2)))
        )
    else:
        raise VariationInputError(f"unknown coordinate system {system!r}")
    return d_eps, d_eps_bar


# ---------------------------------------------------------------------------
# second variations


def _universal_terms(ws: _Workspace, v1, v2, v3, v4) -> list:
    mu1, mu2, mu3, mu4 = (v.mu.values for v in (v1, v2, v3, v4))
    nu1, nu2, nu3, nu4 = (v.nu.values for v in (v1, v2, v3, v4))
    ct = ws.ct
    G12 = ws.gauge_potential(v1, v2, "gauge_12")
    G21 = ws.gauge_potential(v2, v1, "gauge_21")
    y_xi = ws.solve(ws.xi(v2, nu3), "opvar_proj")
    y_m3 = ws.solve(ws.dbar_star(mu3[:, None, None] * ct(nu2)), "opvar_mu3")
    y_m4 = ws.solve(ws.dbar_star(mu4[:, None, None] * ct(nu1)), "opvar_mu4")
    terms = [
        ("opvar_proj", ws.pair(ws.dD(v1, y_xi), ct(nu4))),
        ("gauge_ad", ws.pair(ws.ad_of(G12, nu3), ct(nu4))),
        ("density_cross", -ws.pair((mu1 * np.conj(mu2))[:, None, None] * nu3, ct(nu4))),
        ("opvar_mu3", ws.pair(ws.dD(v1, y_m3), ct(nu4))),
        ("gauge_mu3", ws.pair(mu3[:, None, None] * ws.dhol(G12), ct(nu4))),
        ("cross_mu3", ws.pair((np.conj(mu2) * mu3)[:, None, None] * nu1, ct(nu4))),
        ("opvar_mu4", ws.pair(nu3, ct(ws.dD(v2, y_m4)))),
        ("gauge_mu4", ws.pair(nu3, ct(mu4[:, None, None] * ws.dhol(G21)))),
        ("cross_mu4", ws.pair(nu3, ct((np.conj(mu1) * mu4)[:, None, None] * nu2))),
        ("bilinear", ws.pair(mu3[:, None, None] * ct(nu2), np.conj(mu4)[:, None, None] * nu1)),
    ]
    return terms


def _fibered_extra_terms(ws: _Workspace, v1, v2, v3, v4) -> list:
    """The four integrals present only in the fibered coordinates."""
    mu1, mu2, mu3, mu4 = (v.mu.values for v in (v1, v2, v3, v4))
    nu1, nu2, nu3, nu4 = (v.nu.values for v in (v1, v2, v3, v4))
    ct = ws.ct
    y_t3 = ws.solve(ws.dhol_star(np.conj(mu2)[:, None, None] * nu1), "new_tei_mu3")
    y_t4 = ws.solve(ws.dhol_star(np.conj(mu1)[:, None, None] * nu2), "new_tei_mu4")
    y_b3 = ws.solve(ws.dbar_star(mu1[:, None, None] * ct(nu2)), "new_opvar_mu3_bar")
    y_b4 = ws.solve(ws.dbar_star(mu2[:, None, None] * ct(nu1)), "new_opvar_mu4_bar")
    return [
        ("new_tei_mu3", -ws.pair(mu3[:, None, None] * ws.dhol(y_t3), ct(nu4))),
        ("new_tei_mu4", -ws.pair(nu3, ct(mu4[:, None, None] * ws.dhol(y_t4)))),
        ("new_opvar_mu3_bar", -ws.pair(mu3[:, None, None] * ws.dhol(y_b3), ct(nu4))),
        ("new_opvar_mu4_bar", -ws.pair(nu3, ct(mu4[:, None, None] * ws.dhol(y_b4)))),
    ]


_REMOVED_IN_FIBERED = ("cross_mu3", "cross_mu4")


def _report(system, terms, stats, S, inputs) -> VariationReport:
    return VariationReport(
        coordinate_system=system,
        terms=tuple(terms),
        total=complex(sum(val for _, val in terms)),
        inputs=inputs,
        conventions_digest=conventions.digest(S.density_policy),
        solver_stats=tuple(stats),
    )


def evaluate_quadruple(
    v1: TangentVector,
    v2: TangentVector,
    v3: TangentVector,
    v4: TangentVector,
    S: ConformalSurface,
    c: UnitaryCocycle,
) -> tuple[VariationReport, VariationReport, VariationReport]:
    """Universal, fibered and difference reports of one tangent quadruple.

    The ten universal and four fibered-only terms are evaluated once, with
    one solve per term label (nine), and each report is a view of that
    term table.  The universal report carries the stats of its five
    solves; the fibered and difference reports those of all nine.
    """
    vectors = (v1, v2, v3, v4)
    _check_inputs(S, c, vectors, need_harmonic=True)
    ws = _Workspace(S, c)
    universal = _universal_terms(ws, *vectors)
    n_universal = len(ws.stats)
    extra = _fibered_extra_terms(ws, *vectors)
    inputs = {
        "digest": _inputs_digest([v.mu.values for v in vectors] + [v.nu.values for v in vectors]),
        "mu_norms": [float(np.linalg.norm(v.mu.values)) for v in vectors],
        "nu_norms": [float(np.linalg.norm(v.nu.values)) for v in vectors],
        "harmonic": [bool(v.harmonic) for v in vectors],
    }
    table = dict(universal)
    fibered = [(name, val) for name, val in universal if name not in _REMOVED_IN_FIBERED] + extra
    # universal minus fibered: the removed cross terms with plus sign, the
    # four fibered-only terms with minus
    difference = [(f"removed_{name}", table[name]) for name in _REMOVED_IN_FIBERED]
    difference += [(f"added_{name}", -val) for name, val in extra]
    return (
        _report("universal", universal, ws.stats[:n_universal], S, inputs),
        _report("fibered", fibered, ws.stats, S, inputs),
        _report("difference", difference, ws.stats, S, inputs),
    )


def second_variation_universal(
    v1: TangentVector,
    v2: TangentVector,
    v3: TangentVector,
    v4: TangentVector,
    S: ConformalSurface,
    c: UnitaryCocycle,
) -> VariationReport:
    """Mixed second derivative of the metric, joint-coordinate system.

    Ten named terms; C-linear in slots 1 and 3, conjugate-linear in
    slots 2 and 4; Hermitian under (1<->2, 3<->4) with conjugation.
    """
    return evaluate_quadruple(v1, v2, v3, v4, S, c)[0]


def second_variation_fibered(
    v1: TangentVector,
    v2: TangentVector,
    v3: TangentVector,
    v4: TangentVector,
    S: ConformalSurface,
    c: UnitaryCocycle,
) -> VariationReport:
    """Mixed second derivative in the fibered coordinate system: the
    shared terms evaluated by the same code path, minus the two cross
    terms, plus four new solve-based integrals."""
    return evaluate_quadruple(v1, v2, v3, v4, S, c)[1]


def difference_report(
    v1: TangentVector,
    v2: TangentVector,
    v3: TangentVector,
    v4: TangentVector,
    S: ConformalSurface,
    c: UnitaryCocycle,
) -> VariationReport:
    """Universal minus fibered as a signed term list: the two removed
    cross terms enter with plus sign, the four new terms with minus."""
    return evaluate_quadruple(v1, v2, v3, v4, S, c)[2]


# ---------------------------------------------------------------------------
# positivity certificate


def positivity_certificate(
    mu2: Beltrami,
    nu1: BundleCochain,
    S: ConformalSurface,
    c: UnitaryCocycle,
) -> tuple[float, float, float]:
    """Split of the restricted coordinate difference into two manifestly
    nonnegative pieces.

    term_a = <Delta0^{-1} h, h> with h = d*(mu2-bar nu1) (PSD solve);
    term_b = sum 2 A |mu2|^2 |nu1|^2.  Their sum equals the difference
    report's total on the restriction nu4 = nu1, mu3 = mu2, rest zero.
    """
    if nu1.degree != (0, 1) or nu1.rank != c.rank:
        raise VariationInputError("nu1 must be a (0,1) cochain of the cocycle rank")
    ws = _Workspace(S, c)
    h = ws.dhol_star(np.conj(mu2.values)[:, None, None] * nu1.values)
    x = ws.solve(h, "positivity_a")
    term_a = complex(np.sum(ws.cx.w0 * x.reshape(-1) * np.conj(h.reshape(-1))))
    w = conventions.WEDGE_AREA_FACTOR * S.area
    term_b = complex(
        np.einsum(
            "f,fab,fba->",
            w * np.abs(mu2.values) ** 2,
            nu1.values,
            _Workspace.ct(nu1.values),
        )
    )
    scale = max(abs(term_a), abs(term_b), 1e-300)
    if abs(term_a.imag) > 1e-10 * scale or abs(term_b.imag) > 1e-10 * scale:
        logger.warning(
            "positivity terms have imaginary parts %.3e / %.3e", term_a.imag, term_b.imag
        )
    return float(term_a.real), float(term_b.real), float(term_a.real + term_b.real)


# ---------------------------------------------------------------------------
# projector-derivative identity


def _nonzero(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues of M^H M above the numerical kernel threshold."""
    return lam > 1e-10 * max(lam[-1], 1.0)


def _range_complement(M: np.ndarray, lam: np.ndarray, V: np.ndarray):
    """(M^H M)^+ from the eigendecomposition (lam, V) of M^H M, and the
    orthogonal projector I - M (M^H M)^+ M^H onto the complement of range M."""
    inv = np.where(_nonzero(lam), 1.0 / np.maximum(lam, 1e-300), 0.0)
    pinv = (V * inv[None, :]) @ V.conj().T
    return pinv, np.eye(M.shape[0]) - M @ pinv @ M.conj().T


def _projector_errors(
    S: ConformalSurface,
    c: UnitaryCocycle,
    steps,
    seed: int,
    perturbation: np.ndarray | None,
    dense_cap: int,
) -> list[float]:
    """Relative operator-norm error of the central difference of the
    projector at each of ``steps``, all against one frame: the weighted D,
    its eigendecomposition, the perturbation A and the Leibniz matrix are
    built once, and only P(+-h) depends on the step."""
    cx = operators(S, c)
    dim = cx.dbar.shape[0] + cx.dbar.shape[1]
    if dim > dense_cap:
        raise DenseCapError(f"projector check needs dense operators ({dim} > dense_cap {dense_cap})")
    s0 = np.sqrt(cx.w0)
    s1 = np.sqrt(cx.w1)
    D = (cx.dbar.toarray() * (1.0 / s0)[None, :]) * s1[:, None]
    lam, V = np.linalg.eigh(D.conj().T @ D)
    K = V[:, ~_nonzero(lam)]
    if perturbation is None:
        rng = np.random.default_rng(seed)
        A = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
        # sized so the h^2 truncation term stays above the roundoff floor
        # over the whole step sweep; the scale stays on the SVD norm
        # because an ulp change in A moves the error at 1e-4 by about
        # 1e-5 relative, and recorded errors must reproduce
        A *= 2.0 * np.linalg.norm(D, 2) / max(np.linalg.norm(A, 2), 1e-300)
    else:
        A = np.asarray(perturbation, dtype=complex)
    A = A - (A @ K) @ K.conj().T

    def projector(t: float) -> np.ndarray:
        M = D + t * A
        return _range_complement(M, *np.linalg.eigh(M.conj().T @ M))[1]

    pinv0, P0 = _range_complement(D, lam, V)
    leibniz = -P0 @ A @ pinv0 @ D.conj().T - D @ pinv0 @ A.conj().T @ P0
    # frees and in-place updates keep at most two dense projectors alive
    # at a time next to the Leibniz matrix, which sets the peak memory
    del pinv0, P0
    denom = spectral_norm(leibniz)
    errors = []
    for h in steps:
        fd = projector(h)
        fd -= projector(-h)
        fd /= 2.0 * h
        fd -= leibniz
        err = spectral_norm(fd)
        del fd
        if denom == 0.0:
            errors.append(0.0 if err == 0.0 else float("inf"))
        else:
            errors.append(float(err / denom))
    return errors


def projector_derivative_check(
    S: ConformalSurface,
    c: UnitaryCocycle,
    h_step: float = 1e-4,
    seed: int = 0,
    perturbation: np.ndarray | None = None,
    dense_cap: int = 6000,
) -> float:
    """Finite-difference check of the projector derivative identity
    dP = -P A Delta0^{-1} D* - D Delta0^{-1} A* P  for D(t) = D + t A.

    Works in the weight-orthonormalized frame, where adjoints are plain
    conjugate transposes.  The random perturbation is composed with
    (I - kernel projector) so the covariant-constant kernel persists
    along the family, matching the geometric deformations.  Returns the
    relative operator-norm error of the central difference at ``h_step``.
    """
    return _projector_errors(S, c, (h_step,), seed, perturbation, dense_cap)[0]


def projector_derivative_sweep(
    S: ConformalSurface,
    c: UnitaryCocycle,
    steps=(1e-3, 1e-4, 1e-5),
    seed: int = 0,
    dense_cap: int = 6000,
) -> dict:
    """Error against step size plus the fitted log-log slope (expect 2).

    Raises ValueError unless ``steps`` are positive and at least two of
    them are distinct: a slope needs two points.
    """
    steps = [float(h) for h in steps]
    if not all(h > 0 and math.isfinite(h) for h in steps) or len(set(steps)) < 2:
        raise ValueError(f"projector sweep needs at least two distinct positive finite steps, got {steps}")
    errors = dict(zip(steps, _projector_errors(S, c, steps, seed, None, dense_cap)))
    hs = np.array(sorted(errors))
    es = np.array([errors[h] for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(np.maximum(es, 1e-300)), 1)[0])
    return {"errors": errors, "slope": slope}
