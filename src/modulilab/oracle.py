"""Dense brute-force materializations: ground truth for equivalence tests.

Operators are materialized column by column, by applying the operators of
a scene's End(E) complex to unit vectors; inverses are recomputed from
scratch by eigendecomposition, and harmonic bases by dense SVD.  This is
the only module that does dense linear algebra.  A flat-torus harness
cross-checks the End(E) operator algebra against closed-form continuum
answers (the torus is a degenerate geometry used only for this check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._complexes import DolbeaultComplex, ad, ad_star
from .bundle import Scene, trivial_cocycle
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

# name -> (domain degree, codomain degree, action on a flat cochain of the
# End(E) complex cx); ``aux`` is the face field nu (F,n,n) of ad/ad_star
# or the Beltrami values mu (F,) of mu_contract
_OPERATORS = {
    "dbar": (_VERTEX, _FORM01, lambda cx, x, aux: cx.dbar @ x),
    "d_hol": (_VERTEX, _FORM10, lambda cx, x, aux: cx.dhol @ x),
    "dbar_star": (_FORM01, _VERTEX, lambda cx, x, aux: cx.dbar_star @ x),
    "d_star": (_FORM10, _VERTEX, lambda cx, x, aux: cx.dhol_star @ x),
    "laplacian": (_VERTEX, _VERTEX, lambda cx, x, aux: cx.laplacian @ x),
    "delta0_inverse": (_VERTEX, _VERTEX, lambda cx, x, aux: cx.delta0_solve(x)[0]),
    "projection": (_FORM01, _FORM01, lambda cx, x, aux: cx.harmonic_project(x)),
    "ad": (_VERTEX, _FORM01, lambda cx, x, aux: ad(cx, aux, x.reshape(-1, cx.m, cx.m))),
    "ad_star": (_FORM01, _VERTEX, lambda cx, x, aux: ad_star(cx, aux, x.reshape(-1, cx.m, cx.m))),
    "mu_contract": (_FORM10, _FORM01, lambda cx, x, aux: aux[:, None, None] * x.reshape(-1, cx.m, cx.m)),
}


def materialize(op_name: str, scene: Scene, aux=None, dense_cap: int = 6000) -> DenseOperator:
    """Column-by-column dense matrix of an operator of the scene's End(E)
    complex: column j is the operator applied to the j-th unit vector."""
    if op_name not in _OPERATORS:
        raise ValueError(f"unknown operator {op_name!r}")
    dom_deg, cod_deg, apply = _OPERATORS[op_name]
    cx = scene.endo
    n = cx.m
    dom_sites = cx.n_vertices if dom_deg == _VERTEX else cx.n_faces
    cod_sites = cx.n_vertices if cod_deg == _VERTEX else cx.n_faces
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
        M[:, j] = apply(cx, basis, aux).reshape(-1)
    wv, wf = cx.w0, cx.w1
    return DenseOperator(
        matrix=M,
        domain={"degree": dom_deg, "rank": n, "sites": dom_sites},
        codomain={"degree": cod_deg, "rank": n, "sites": cod_sites},
        domain_weight=wv if dom_deg == _VERTEX else wf,
        codomain_weight=wv if cod_deg == _VERTEX else wf,
    )


def harmonic_basis(cx: DolbeaultComplex, dense_cap: int = 6000) -> np.ndarray:
    """Columns spanning ker(dbar*) of a complex, orthonormal under w1, by
    dense SVD of the weight-orthonormalized dbar."""
    if sum(cx.dbar.shape) > dense_cap:
        raise DenseCapError(f"dense basis computation exceeds dense_cap {dense_cap}")
    Dt = (np.sqrt(cx.w1)[:, None] * cx.dbar.toarray()) / np.sqrt(cx.w0)[None, :]
    u, s, _ = np.linalg.svd(Dt, full_matrices=True)
    tol = max(Dt.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > max(tol, 1e-10)))
    return u[:, rank:] / np.sqrt(cx.w1)[:, None]


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
        scene = Scene(S, trivial_cocycle(S.mesh, rank))
        cx = scene.endo
        F, n = S.n_faces, rank
        if (F + S.n_vertices) * n * n > dense_cap:
            raise DenseCapError(f"torus cross-check exceeds dense_cap {dense_cap}")
        # constant (0,1)-form is discretely harmonic on the regular torus
        const = np.broadcast_to(np.eye(n), (F, n, n)).reshape(-1)
        r_const = np.linalg.norm(cx.dbar_star @ const)
        # projector algebra on the dense materialization
        P = materialize("projection", scene, dense_cap=dense_cap).matrix
        r_idem = spectral_norm(P @ P - P)
        # smooth test form: coefficient exp(2 pi i (x+y)/m) sampled at barycenters;
        # its continuum harmonic projection is zero (nonzero Fourier mode).
        bary = np.mean(S.chart, axis=1)
        coeff = np.exp(2j * np.pi * (bary.real + bary.imag) / m)
        alpha = (coeff[:, None, None] * np.broadcast_to(np.eye(n), (F, n, n))).reshape(-1)
        proj = cx.harmonic_project(alpha)
        num = np.sqrt(abs(np.sum(cx.w1 * proj * np.conj(proj))))
        den = np.sqrt(abs(np.sum(cx.w1 * alpha * np.conj(alpha))))
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
