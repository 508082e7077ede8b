"""Dense brute-force materializations: ground truth for equivalence tests.

Operators are materialized column by column through the functional path,
independently of the internal sparse assembly, and inverses are
recomputed from scratch by eigendecomposition.  A flat-torus harness
cross-checks the End(E) operator algebra against closed-form continuum
answers (the torus is a degenerate geometry used only for this check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import bundle as bnd
from .bundle import BundleCochain, UnitaryCocycle, trivial_cocycle
from .surface import ConformalSurface, HalfEdgeMesh, equip_conformal, mesh_from_faces


class DenseCapError(ValueError):
    """Requested dense computation exceeds the configured dense cap."""


@dataclass(frozen=True)
class DenseOperator:
    matrix: np.ndarray
    domain: dict  # {"degree": ..., "rank": n, "sites": count}
    codomain: dict
    domain_weight: np.ndarray
    codomain_weight: np.ndarray

    def adjoint(self) -> np.ndarray:
        return (
            self.matrix.conj().T * self.codomain_weight[None, :]
        ) / self.domain_weight[:, None]


_VERTEX = "vertex"
_FORM01 = (0, 1)
_FORM10 = (1, 0)


def _apply(op_name: str, c: UnitaryCocycle, S: ConformalSurface, x: BundleCochain, aux):
    if op_name == "dbar":
        return bnd.twisted_dbar(x, c, S)
    if op_name == "d_hol":
        return bnd.twisted_d_hol(x, c, S)
    if op_name == "dbar_star":
        return bnd.twisted_dbar_star(x, c, S)
    if op_name == "d_star":
        return bnd.twisted_d_star(x, c, S)
    if op_name == "laplacian":
        return bnd.laplacian(x, c, S)
    if op_name == "delta0_inverse":
        return bnd.delta0_inverse(x, c, S)
    if op_name == "projection":
        return bnd.harmonic_projection(x, c, S)
    if op_name == "ad":
        return bnd.ad_on_scalar(aux, x, c, S)
    if op_name == "ad_star":
        return bnd.ad_star(aux, x, c, S)
    if op_name == "mu_contract":
        vals = aux.values[:, None, None] * x.values
        return BundleCochain(vals, (0, 1))
    raise ValueError(f"unknown operator {op_name!r}")


_SIGNATURES = {
    "dbar": (_VERTEX, _FORM01),
    "d_hol": (_VERTEX, _FORM10),
    "dbar_star": (_FORM01, _VERTEX),
    "d_star": (_FORM10, _VERTEX),
    "laplacian": (_VERTEX, _VERTEX),
    "delta0_inverse": (_VERTEX, _VERTEX),
    "projection": (_FORM01, _FORM01),
    "ad": (_VERTEX, _FORM01),
    "ad_star": (_FORM01, _VERTEX),
    "mu_contract": (_FORM10, _FORM01),
}


def materialize(
    op_name: str,
    c: UnitaryCocycle,
    S: ConformalSurface,
    aux=None,
    dense_cap: int = 6000,
) -> DenseOperator:
    """Column-by-column dense matrix of a functional-path operator."""
    if op_name not in _SIGNATURES:
        raise ValueError(f"unknown operator {op_name!r}")
    dom_deg, cod_deg = _SIGNATURES[op_name]
    n = c.rank
    V, F = S.n_vertices, S.n_faces
    dom_sites = V if dom_deg == _VERTEX else F
    cod_sites = V if cod_deg == _VERTEX else F
    dom_dim = dom_sites * n * n
    cod_dim = cod_sites * n * n
    if dom_dim + cod_dim > dense_cap:
        raise DenseCapError(
            f"materialize({op_name}): dimension {dom_dim + cod_dim} exceeds dense_cap {dense_cap}"
        )
    M = np.zeros((cod_dim, dom_dim), dtype=complex)
    basis = np.zeros(dom_dim, dtype=complex)
    for j in range(dom_dim):
        basis[:] = 0.0
        basis[j] = 1.0
        x = BundleCochain(basis.reshape(dom_sites, n, n), dom_deg)
        M[:, j] = _apply(op_name, c, S, x, aux).values.reshape(-1)
    cx = bnd.operators(S, c)
    wv, wf = cx.w0, cx.w1
    return DenseOperator(
        matrix=M,
        domain={"degree": dom_deg, "rank": n, "sites": dom_sites},
        codomain={"degree": cod_deg, "rank": n, "sites": cod_sites},
        domain_weight=wv if dom_deg == _VERTEX else wf,
        codomain_weight=wv if cod_deg == _VERTEX else wf,
    )


def spectral_norm(X: np.ndarray) -> float:
    """Operator 2-norm of a dense matrix: the square root of the top
    eigenvalue of the smaller Gram matrix (X^H X or X X^H).

    The top eigenvalue of the Gram matrix carries the relative accuracy
    of a backward-stable eigensolver, so this agrees with the SVD norm
    to roundoff at a fraction of its cost, for norms between about
    1e-150 and 1e150 (the Gram entries are squares)."""
    G = X.conj().T @ X if X.shape[0] >= X.shape[1] else X @ X.conj().T
    k = G.shape[0]
    top = scipy.linalg.eigh(G, eigvals_only=True, subset_by_index=[k - 1, k - 1])[0]
    return float(np.sqrt(max(top, 0.0)))


def _weighted_eigh(delta: DenseOperator):
    """Eigendecomposition of the weight-symmetrized operator
    W^{1/2} M W^{-1/2}, with the square-root weights s."""
    s = np.sqrt(delta.domain_weight)
    Ssym = (delta.matrix * (1.0 / s)[None, :]) * s[:, None]
    lam, U = np.linalg.eigh(0.5 * (Ssym + Ssym.conj().T))
    return lam, U, s


def restricted_inverse_dense(
    delta: DenseOperator, kernel_rel_tol: float = 1e-10
) -> DenseOperator:
    """Eigendecomposition inverse on the complement of the numerical kernel."""
    lam, U, s = _weighted_eigh(delta)
    lam_max = max(float(lam[-1]), 1.0)
    inv = np.where(lam > kernel_rel_tol * lam_max, 1.0 / np.maximum(lam, 1e-300), 0.0)
    M = (U * inv[None, :]) @ U.conj().T
    M = (M * s[None, :]) / s[:, None]
    return DenseOperator(
        matrix=M,
        domain=delta.domain,
        codomain=delta.codomain,
        domain_weight=delta.domain_weight,
        codomain_weight=delta.codomain_weight,
    )


def kernel_dimension_dense(delta: DenseOperator, kernel_rel_tol: float = 1e-10) -> int:
    lam = _weighted_eigh(delta)[0]
    return int(np.sum(lam <= kernel_rel_tol * max(float(lam[-1]), 1.0)))


# ---------------------------------------------------------------------------
# flat-torus harness


def build_torus(m: int) -> HalfEdgeMesh:
    """Regular m x m triangulated flat torus with planar charts."""
    if m < 2:
        raise ValueError("torus grid needs m >= 2")

    def vid(i: int, j: int) -> int:
        return (i % m) * m + (j % m)

    faces = []
    layout_rows = []
    for i in range(m):
        for j in range(m):
            z00 = complex(i, j)
            z10 = complex(i + 1, j)
            z01 = complex(i, j + 1)
            z11 = complex(i + 1, j + 1)
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            layout_rows.append((z00, z10, z11))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
            layout_rows.append((z00, z11, z01))
    layout = np.array(layout_rows, dtype=complex)
    return mesh_from_faces(faces, genus=1, layout=layout)


def torus_surface(m: int) -> ConformalSurface:
    return equip_conformal(build_torus(m), layout="stored", density="uniform")


def torus_spectral_crosscheck(rank: int = 1, sizes=(4, 8, 16), dense_cap: int = 6000) -> dict:
    """Compare the mesh harmonic projector with the continuum answer.

    On the flat torus with the trivial bundle the continuum harmonic
    (0,1)-forms are the constants.  The report carries the projector
    idempotency residual, the residual of the constant form under
    dbar_star and the projector error on a sampled smooth form for each
    refinement level (the error must decrease).
    """
    report: dict = {"levels": []}
    for m in sizes:
        S = torus_surface(m)
        c = trivial_cocycle(S.mesh, rank)
        cx = bnd.operators(S, c)
        F, n = S.n_faces, rank
        if (F + S.n_vertices) * n * n > dense_cap:
            raise DenseCapError(f"torus cross-check exceeds dense_cap {dense_cap}")
        # constant (0,1)-form is discretely harmonic on the regular torus
        const = BundleCochain(np.broadcast_to(np.eye(n), (F, n, n)).copy(), (0, 1))
        r_const = np.linalg.norm(bnd.twisted_dbar_star(const, c, S).values)
        # projector algebra on the dense materialization
        P = materialize("projection", c, S, dense_cap=dense_cap).matrix
        r_idem = spectral_norm(P @ P - P)
        # smooth test form: coefficient exp(2 pi i (x+y)/m) sampled at barycenters;
        # its continuum harmonic projection is zero (nonzero Fourier mode).
        bary = np.mean(S.chart, axis=1)
        coeff = np.exp(2j * np.pi * (bary.real + bary.imag) / m)
        alpha = BundleCochain(
            coeff[:, None, None] * np.broadcast_to(np.eye(n), (F, n, n)), (0, 1)
        )
        proj = bnd.harmonic_projection(alpha, c, S)
        num = np.sqrt(abs(bnd.ip_bundle(proj, proj, c, S)))
        den = np.sqrt(abs(bnd.ip_bundle(alpha, alpha, c, S)))
        report["levels"].append(
            {
                "m": m,
                "idempotency": float(r_idem),
                "constant_form_residual": float(r_const),
                "smooth_projection_error": float(num / den),
            }
        )
    errs = [lvl["smooth_projection_error"] for lvl in report["levels"]]
    report["monotone_decrease"] = all(b < a for a, b in zip(errs, errs[1:]))
    return report
