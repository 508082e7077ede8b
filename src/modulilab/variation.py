"""Metric on the moduli of (surface, flat bundle) pairs and its first and
second variations in the two coordinate systems, with per-term reports.
Tangents are ``(mu, nu)`` pairs of arrays (see :mod:`modulilab.tangent`).

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
``rho^{-1}([nu_a, conj(nu_b)^T] - (d mu_a) conj(nu_b)^T - conj(d mu_b) nu_a)``.
Every solve uses the one End(E) Laplacian dbar* dbar and its one LU.  On
a flat bundle it equals d* d to roundoff (the discrete Kaehler identity,
certified by ``check-operators`` as ``kahler_identity``), so the
Hermitian symmetry of the totals holds to roundoff.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from . import conventions
from ._complexes import SOLVE_RTOL, DolbeaultComplex, SolverError, ad, ad_star, lift_to_vertices
from .bundle import Scene
from .calculus import beltrami_d_hol, ip_beltrami
from .surface import ConformalSurface

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
    """The three systems of one tangent quadruple, with the inputs (the
    norms of the four slots plus a content digest) and the nine labelled
    solver stats that all three share."""

    universal: VariationReport
    fibered: VariationReport
    difference: VariationReport
    inputs: dict
    solver_stats: tuple

    @property
    def systems(self) -> tuple[VariationReport, VariationReport, VariationReport]:
        return self.universal, self.fibered, self.difference

    def to_json_dict(self) -> dict:
        d = {rep.coordinate_system: rep.to_json_dict() for rep in self.systems}
        d["inputs_digest"] = self.inputs["digest"]
        d["inputs_manifest"] = {k: v for k, v in self.inputs.items() if k != "digest"}
        d["solver_stats"] = list(self.solver_stats)
        return d


def _inputs_digest(arrays) -> str:
    """First 16 hex digits of the SHA-256 of the exact complex128 bytes of
    ``arrays``: equal inputs give equal digests, and a change of one ulp
    in any entry changes the digest (no tolerance for roundoff)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=complex).tobytes())
    return h.hexdigest()[:16]


def _pair(S: ConformalSurface, a01: np.ndarray, b10: np.ndarray) -> complex:
    """-i * integral tr(a ^ b) for (F,n,n) (0,1)- and (1,0)-coefficient
    fields: sum_f WEDGE_AREA_FACTOR Area_f tr(a_f b_f)."""
    w = conventions.WEDGE_AREA_FACTOR * S.area
    return complex(np.einsum("f,fab,fba->", w, a01, b10))


class _Workspace:
    """Shared operator state for one variation evaluation."""

    def __init__(self, scene: Scene):
        self.scene = scene
        self.S = scene.surface
        self.cx = scene.endo
        self.stats: list = []

    def dhol(self, vert: np.ndarray) -> np.ndarray:
        return self.cx.apply(self.cx.dhol, vert)

    def solve(self, h_vert: np.ndarray, label: str) -> np.ndarray:
        try:
            x, st = self.cx.delta0_solve(h_vert)
        except SolverError as e:
            raise SolverError(f"{label}: {e}") from e
        st["term"] = label
        self.stats.append(st)
        return x

    def pair(self, a01: np.ndarray, b10: np.ndarray) -> complex:
        return _pair(self.S, a01, b10)

    @staticmethod
    def ct(x: np.ndarray) -> np.ndarray:
        return np.conj(np.swapaxes(x, 1, 2))

    # -- operator variations ---------------------------------------------
    def dD(self, v: tuple, f_vert: np.ndarray) -> np.ndarray:
        """(ad(nu) - mu d) applied to a vertex 0-cochain."""
        mu, nu = v
        return ad(self.cx, nu, f_vert) - mu[:, None, None] * self.dhol(f_vert)

    def xi(self, v: tuple, alpha: np.ndarray) -> np.ndarray:
        """d*(mu-bar alpha) - ad_star(nu, alpha) on a (0,1)-form."""
        mu, nu = v
        return self.cx.star(self.cx.dhol, np.conj(mu)[:, None, None] * alpha) - ad_star(self.cx, nu, alpha)

    def gauge_potential(self, nua, nub, dmu_a, dmu_b, label: str) -> np.ndarray:
        """Delta0^{-1} of the lifted gauge-Hessian source for slot pair (a, b),
        from each slot's nu and the spin-2 derivative of its mu."""
        rho = self.S.density
        ctb = self.ct(nub)
        src = (
            nua @ ctb
            - ctb @ nua
            - dmu_a[:, None, None] * ctb
            - np.conj(dmu_b)[:, None, None] * nua
        )
        src *= conventions.GAUGE_SOURCE_CALIBRATION / rho[:, None, None]
        lifted = lift_to_vertices(self.cx, self.S, src)
        return self.solve(lifted, label)


def _harmonic_defect(cx: DolbeaultComplex, x: np.ndarray, abs_dbar) -> float:
    """|dbar* x| / |(|dbar*| |x|)| with ``abs_dbar`` = |dbar|: roundoff for
    x in ker dbar*, of order one for raw data, 0 for x = 0 and NaN for
    non-finite x."""
    scale = np.linalg.norm(cx.star(abs_dbar, np.abs(x)))
    return float(np.linalg.norm(cx.star(cx.dbar, x)) / max(scale, 1e-300))


def _check_inputs(scene: Scene, vectors, harmonic: bool = False):
    """Shapes of the (mu, nu) pairs; with ``harmonic``, each mu must be in
    ker D* of ``scene.tangent`` and each nu in ker dbar* of ``scene.endo``."""
    F, n = scene.surface.n_faces, scene.cocycle.rank
    if any(np.shape(mu) != (F,) or np.shape(nu) != (F, n, n) for mu, nu in vectors):
        raise VariationInputError("tangent vector does not match surface/rank")
    kernels = [("mu", scene.tangent), ("nu", scene.endo)] if harmonic else []
    abs_dbar = [abs(cx.dbar) for _, cx in kernels]  # once per complex, not per slot
    for slot, (mu, nu) in enumerate(vectors, start=1):
        for (name, cx), a, x in zip(kernels, abs_dbar, (mu, nu)):
            defect = _harmonic_defect(cx, x, a)
            if not (defect <= SOLVE_RTOL):
                raise VariationInputError(f"slot {slot}: {name} is not harmonic (defect {defect:.1e})")


# ---------------------------------------------------------------------------
# metric and first variation


def metric_g(v1: tuple, v2: tuple, scene: Scene) -> complex:
    """Density-weighted Beltrami pairing plus the bundle form pairing.

    The blocks are orthogonal: there is no mu-nu cross term.
    """
    _check_inputs(scene, (v1, v2))
    (mu1, nu1), (mu2, nu2) = v1, v2
    S = scene.surface
    # i * (wedge pairing of nu1 with star(conj(nu2)^T)), star dz = -i dz
    bundle_term = 1j * _pair(S, nu1, conventions.STAR_DZ * _Workspace.ct(nu2))
    return ip_beltrami(mu1, mu2, S) + bundle_term


def first_variation(
    v_dir: tuple,
    v1: tuple,
    v2: tuple,
    scene: Scene,
    system: str = "universal",
) -> tuple[complex, complex]:
    """Holomorphic and antiholomorphic first derivatives of the metric
    at the center, in direction ``v_dir``.

    The two coordinate systems give the same integrals; they are summed
    in different orders here so the comparison is not vacuous.
    """
    _check_inputs(scene, (v_dir, v1, v2))
    S = scene.surface
    nu = v_dir[1]
    (mu1, nu1), (mu2, nu2) = v1, v2
    if system == "universal":
        d_eps = _pair(S, nu, np.conj(mu2)[:, None, None] * nu1)
        d_eps_bar = _pair(S, mu1[:, None, None] * _Workspace.ct(nu), _Workspace.ct(nu2))
    elif system == "fibered":
        w = conventions.WEDGE_AREA_FACTOR * S.area
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
    (mu1, nu1), (mu2, nu2), (mu3, nu3), (mu4, nu4) = v1, v2, v3, v4
    ct = ws.ct
    dmu1, dmu2 = (beltrami_d_hol(mu, ws.scene) for mu in (mu1, mu2))
    G12 = ws.gauge_potential(nu1, nu2, dmu1, dmu2, "gauge_12")
    G21 = ws.gauge_potential(nu2, nu1, dmu2, dmu1, "gauge_21")
    y_xi = ws.solve(ws.xi(v2, nu3), "opvar_proj")
    y_m3 = ws.solve(ws.cx.star(ws.cx.dbar, mu3[:, None, None] * ct(nu2)), "opvar_mu3")
    y_m4 = ws.solve(ws.cx.star(ws.cx.dbar, mu4[:, None, None] * ct(nu1)), "opvar_mu4")
    terms = [
        ("opvar_proj", ws.pair(ws.dD(v1, y_xi), ct(nu4))),
        # [B G12, nu3] = -ad(nu3) G12
        ("gauge_ad", ws.pair(-ad(ws.cx, nu3, G12), ct(nu4))),
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
    (mu1, nu1), (mu2, nu2), (mu3, nu3), (mu4, nu4) = v1, v2, v3, v4
    ct = ws.ct
    y_t3 = ws.solve(ws.cx.star(ws.cx.dhol, np.conj(mu2)[:, None, None] * nu1), "new_tei_mu3")
    y_t4 = ws.solve(ws.cx.star(ws.cx.dhol, np.conj(mu1)[:, None, None] * nu2), "new_tei_mu4")
    y_b3 = ws.solve(ws.cx.star(ws.cx.dbar, mu1[:, None, None] * ct(nu2)), "new_opvar_mu3_bar")
    y_b4 = ws.solve(ws.cx.star(ws.cx.dbar, mu2[:, None, None] * ct(nu1)), "new_opvar_mu4_bar")
    return [
        ("new_tei_mu3", -ws.pair(mu3[:, None, None] * ws.dhol(y_t3), ct(nu4))),
        ("new_tei_mu4", -ws.pair(nu3, ct(mu4[:, None, None] * ws.dhol(y_t4)))),
        ("new_opvar_mu3_bar", -ws.pair(mu3[:, None, None] * ws.dhol(y_b3), ct(nu4))),
        ("new_opvar_mu4_bar", -ws.pair(nu3, ct(mu4[:, None, None] * ws.dhol(y_b4)))),
    ]


_REMOVED_IN_FIBERED = ("cross_mu3", "cross_mu4")


def evaluate_quadruple(
    v1: tuple,
    v2: tuple,
    v3: tuple,
    v4: tuple,
    scene: Scene,
) -> QuadrupleReport:
    """Mixed second derivative of the metric in both coordinate systems,
    and their difference, for one tangent quadruple.

    The ten universal (joint-coordinate) and four fibered-only terms are
    evaluated once, with one solve per term label (nine), and the three
    systems are views of that term table.  The fibered system drops the
    two cross terms and adds the four solve-based integrals; the
    difference (universal minus fibered) lists the removed cross terms
    with plus sign and the four new terms with minus.  Every total is
    C-linear in slots 1 and 3, conjugate-linear in slots 2 and 4, and
    Hermitian under (1<->2, 3<->4) with conjugation.  Every slot must be
    harmonic to SOLVE_RTOL (see ``_harmonic_defect``).
    """
    vectors = (v1, v2, v3, v4)
    _check_inputs(scene, vectors, harmonic=True)
    ws = _Workspace(scene)
    universal = _universal_terms(ws, *vectors)
    extra = _fibered_extra_terms(ws, *vectors)
    inputs = {
        "digest": _inputs_digest([mu for mu, _ in vectors] + [nu for _, nu in vectors]),
        "mu_norms": [float(np.linalg.norm(mu)) for mu, _ in vectors],
        "nu_norms": [float(np.linalg.norm(nu)) for _, nu in vectors],
    }
    table = dict(universal)
    fibered = [(name, val) for name, val in universal if name not in _REMOVED_IN_FIBERED] + extra
    difference = [(f"removed_{name}", table[name]) for name in _REMOVED_IN_FIBERED]
    difference += [(f"added_{name}", -val) for name, val in extra]
    return QuadrupleReport(
        universal=VariationReport("universal", tuple(universal)),
        fibered=VariationReport("fibered", tuple(fibered)),
        difference=VariationReport("difference", tuple(difference)),
        inputs=inputs,
        solver_stats=tuple(ws.stats),
    )


# ---------------------------------------------------------------------------
# positivity certificate


def positivity_certificate(
    mu2: np.ndarray,
    nu1: np.ndarray,
    scene: Scene,
) -> tuple[float, float, float]:
    """Split of the restricted coordinate difference into two manifestly
    nonnegative pieces.

    term_a = <Delta0^{-1} h, h> with h = d*(mu2-bar nu1) (PSD solve);
    term_b = sum 2 A |mu2|^2 |nu1|^2.  Their sum equals the difference
    total of ``evaluate_quadruple`` on the restriction nu4 = nu1,
    mu3 = mu2, rest zero.
    """
    _check_inputs(scene, [(mu2, nu1)])
    ws = _Workspace(scene)
    h = ws.cx.star(ws.cx.dhol, np.conj(mu2)[:, None, None] * nu1)
    x = ws.solve(h, "positivity_a")
    term_a = complex(np.sum(ws.cx.w0.reshape(x.shape) * x * np.conj(h)))
    term_b = _pair(ws.S, (np.abs(mu2) ** 2)[:, None, None] * nu1, _Workspace.ct(nu1))
    scale = max(abs(term_a), abs(term_b), 1e-300)
    if abs(term_a.imag) > 1e-10 * scale or abs(term_b.imag) > 1e-10 * scale:
        logger.warning(
            "positivity terms have imaginary parts %.3e / %.3e", term_a.imag, term_b.imag
        )
    return float(term_a.real), float(term_b.real), float(term_a.real + term_b.real)
