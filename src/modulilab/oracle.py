"""Dense brute-force materializations: ground truth for equivalence tests.

Operators are materialized by applying the production operators of a
scene's End(E) complex to blocks of unit vectors.  Every dense spectral
computation goes through one weight-orthonormal frame per complex
(``DenseFrame``), in which weighted adjoints are conjugate transposes:
the eigendecomposition of D^H D there, with one kernel rule, gives the
pseudo-inverse of the Laplacian, the harmonic projector, the kernel
count and the singular values of D; no SVD is taken.  This is the only
module that does dense linear algebra; ``certify_operators`` is the
dense certification the CLI runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._complexes import DolbeaultComplex
from .bundle import Scene
from .surface import InputError


class DenseCapError(InputError, ValueError):
    """Requested dense computation exceeds the configured dense cap."""


DENSE_CAP = 6000  # default bound on dim C^0 + dim C^{0,1}; DenseFrame alone checks it


@dataclass(frozen=True)
class DenseOperator:
    matrix: np.ndarray
    domain_weight: np.ndarray
    codomain_weight: np.ndarray

    def framed_in_place(self) -> np.ndarray:
        """W_cod^{1/2} M W_dom^{-1/2}, written over ``matrix`` and returned:
        the matrix in the weight-orthonormal frames, where its weighted
        adjoint is the conjugate transpose."""
        M = self.matrix
        M *= (1.0 / np.sqrt(self.domain_weight))[None, :]
        M *= np.sqrt(self.codomain_weight)[:, None]
        return M


# name -> (domain weight, codomain weight, action on a flat cochain of the
# End(E) complex cx): the three operators certify_operators materializes
_OPERATORS = {
    "dbar_star": ("w1", "w0", lambda cx, x: cx.star(cx.dbar, x)),
    "delta0_inverse": ("w0", "w0", lambda cx, x: cx.delta0_solve(x)[0]),
    "projection": ("w1", "w1", lambda cx, x: cx.harmonic_project(x)),
}


# unit columns per block that ``materialize`` feeds the production
# methods: wide enough to amortize their per-call cost, narrow enough that
# a block's temporaries stay far below the dense matrices being filled
MATERIALIZE_BLOCK = 32


def materialize(op_name: str, scene: Scene) -> DenseOperator:
    """Dense matrix of an operator of the scene's End(E) complex: column
    j is the production operator applied to the j-th unit vector, fed to
    it in blocks of ``MATERIALIZE_BLOCK`` unit columns.  The matrix is
    Fortran-ordered: LAPACK's layout, in which each block is contiguous.
    Its size is gated by the ``DenseFrame`` that callers build first."""
    if op_name not in _OPERATORS:
        raise ValueError(f"unknown operator {op_name!r}")
    dom, cod, apply = _OPERATORS[op_name]
    cx = scene.endo
    dom_w, cod_w = getattr(cx, dom), getattr(cx, cod)
    dom_dim, cod_dim = dom_w.shape[0], cod_w.shape[0]
    M = np.empty((cod_dim, dom_dim), dtype=complex, order="F")
    for j in range(0, dom_dim, MATERIALIZE_BLOCK):
        k = min(MATERIALIZE_BLOCK, dom_dim - j)
        M[:, j : j + k] = apply(cx, np.eye(dom_dim, k, -j, dtype=complex))
    return DenseOperator(matrix=M, domain_weight=dom_w, codomain_weight=cod_w)


# ---------------------------------------------------------------------------
# the weight-orthonormal frame


def _nonzero(lam: np.ndarray) -> np.ndarray:
    """The kernel rule: eigenvalues of M^H M (ascending) above
    1e-10 max(lam_max, 1) are nonzero."""
    return lam > 1e-10 * max(lam[-1], 1.0)


class DenseFrame:
    """dbar of a complex in the weight-orthonormal frame,
    D = W1^{1/2} dbar W0^{-1/2}, with the eigendecomposition (lam
    ascending, V) of D^H D = W0^{1/2} Delta0 W0^{-1/2}; its top ``rank``
    eigenvalues are nonzero.  ``pinv`` is the framed Delta0^+; the
    harmonic projector is I - D Delta0^+ D^H.  D and V are
    Fortran-ordered: zherk reads D in place to form the lower triangle of
    D^H D, and divide-and-conquer (LAPACK's zheevd, whose eigenvectors are
    orthonormal to roundoff) decomposes it over itself.
    Raises DenseCapError when dim C^0 + dim C^{0,1} exceeds ``dense_cap``."""

    def __init__(self, cx: DolbeaultComplex, dense_cap: int = DENSE_CAP):
        dim = sum(cx.dbar.shape)
        if dim > dense_cap:
            raise DenseCapError(f"dense frame: dimension {dim} exceeds dense_cap {dense_cap}")
        self.D = DenseOperator(cx.dbar.toarray(order="F"), cx.w0, cx.w1).framed_in_place()
        G = scipy.linalg.blas.zherk(1.0, self.D, trans=2, lower=1)
        self.lam, self.V = scipy.linalg.eigh(G, lower=True, overwrite_a=True, check_finite=False, driver="evd")

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal columns spanning the numerical kernel of D."""
        return self.V[:, ~_nonzero(self.lam)]

    @property
    def rank(self) -> int:
        return int(np.sum(_nonzero(self.lam)))

    def pinv(self) -> np.ndarray:
        inv = np.where(_nonzero(self.lam), 1.0 / np.maximum(self.lam, 1e-300), 0.0)
        return (self.V * inv[None, :]) @ self.V.conj().T


def spectral_norm(X: np.ndarray, hermitian: bool = False) -> float:
    """Operator 2-norm of a dense complex matrix: the square root of the
    top eigenvalue of the smaller Gram matrix (X^H X or X X^H, the lower
    triangle that zherk forms, reading a Fortran-ordered X in place and
    leaving it as it was), or, for a matrix Hermitian by construction
    (``hermitian``; only its lower triangle is read), the largest
    |eigenvalue| of X itself.  The Hermitian way overwrites the lower
    triangle and the diagonal of X when X is Fortran-ordered, and leaves
    its strictly upper triangle as it was; a C-ordered X is copied and
    left as it was.

    The extreme eigenvalues carry the relative accuracy of a
    backward-stable eigensolver, so this agrees with the SVD norm to
    roundoff at a fraction of its cost; through the Gram matrix, for
    norms between about 1e-150 and 1e150 (its entries are squares)."""
    if hermitian:
        lam = scipy.linalg.eigh(X, lower=True, eigvals_only=True, overwrite_a=True)
        return float(max(-lam[0], lam[-1], 0.0))
    G = scipy.linalg.blas.zherk(1.0, X, trans=2 if X.shape[0] >= X.shape[1] else 0, lower=1)
    k = G.shape[0]
    top = scipy.linalg.eigh(G, eigvals_only=True, subset_by_index=[k - 1, k - 1], overwrite_a=True)
    return math.sqrt(max(float(top[0]), 0.0))


# ---------------------------------------------------------------------------
# dense certification


def certify_operators(scene: Scene, dense_cap: int = DENSE_CAP) -> dict:
    """Dense values of the operator suite of the scene's End(E) complex,
    in the weight-orthonormal frame against its D: the production dbar*
    against D^H, the materialized factorized projection P (P^2 = P,
    P = P^H, P D = 0, trace) and Delta0^{-1} (block solves of unit columns)
    against the frame's Delta0^+, and the frame's kernel count.  The
    frame's check of ``dense_cap`` comes before any other dense work, and
    every norm is a ``spectral_norm``.

    With n0 = dim C^0 and n1 = dim C^{0,1}, at most two n1 x n1 buffers
    are held at once: P and one of i (P - P^H) and P^2 - P, then, once P
    is released, P^2 - P and its Gram matrix.  All are Fortran-ordered,
    so BLAS and LAPACK read them in place.  The frame's V (n0 x n0) is
    released once Delta0^+ is formed, and its D (n1 x n0) once P D is."""
    frame = DenseFrame(scene.endo, dense_cap)
    D, lam, rank = frame.D, frame.lam, frame.rank
    # |D|_2 and |Delta0^+|_2 from the frame's eigenvalues
    d_norm = np.sqrt(lam[-1])
    pinv_norm = 1.0 / lam[-rank]
    star = materialize("dbar_star", scene).framed_in_place()
    star -= D.conj().T
    values = {"adjointness_residual": spectral_norm(star) / d_norm}
    del star
    X = materialize("delta0_inverse", scene).framed_in_place()
    X -= frame.pinv()
    values["delta0_factorized_vs_dense"] = spectral_norm(X) / pinv_norm
    del X, frame
    P = materialize("projection", scene).framed_in_place()
    PD = P @ D
    del D
    values["projector_annihilates_dbar"] = spectral_norm(PD) / d_norm
    del PD
    # i (P - P^H) is Hermitian by construction and has the norm of P - P^H
    S = np.conjugate(P.T, out=np.empty_like(P))
    np.subtract(P, S, out=S)
    S *= 1j
    values["projector_self_adjoint"] = spectral_norm(S, hermitian=True)
    del S
    values["harmonic_nu_dim"] = int(round(float(np.trace(P).real)))
    R = np.matmul(P, P, out=np.empty_like(P))
    R -= P
    del P
    values["projector_idempotent"] = spectral_norm(R)
    return {**values, "kernel_dim": int(lam.size - rank)}
