"""Dense brute-force materializations: ground truth for equivalence tests.

``_columns`` materializes a production operator of a scene's End(E)
complex by applying it to blocks of unit vectors, and ``_framed`` moves
the matrix into the weight-orthonormal frames (the projector checks
stream their blocks, materializing nothing).  Every dense spectral
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

import numpy as np
import scipy.linalg

from ._complexes import DolbeaultComplex
from .bundle import Scene
from .surface import InputError


class DenseCapError(InputError, ValueError):
    """Requested dense computation exceeds the configured dense cap."""


DENSE_CAP = 6000  # default bound on dim C^0 + dim C^{0,1}; DenseFrame alone checks it


def _framed(M: np.ndarray, domain_weight: np.ndarray, codomain_weight: np.ndarray) -> np.ndarray:
    """W_cod^{1/2} M W_dom^{-1/2}, written over M and returned: the matrix
    in the weight-orthonormal frames, where its weighted adjoint is the
    conjugate transpose."""
    M *= (1.0 / np.sqrt(domain_weight))[None, :]
    M *= np.sqrt(codomain_weight)[:, None]
    return M


# unit columns per block that ``_columns`` feeds the production methods:
# wide enough to amortize their per-call cost, narrow enough that a
# block's temporaries stay far below the dense matrices being filled
MATERIALIZE_BLOCK = 32


def _columns(apply, n_in: int, n_out: int) -> np.ndarray:
    """Dense n_out x n_in matrix of a production operator: column j is
    ``apply`` of the j-th unit vector, fed to it in blocks of
    ``MATERIALIZE_BLOCK`` unit columns.  The matrix is Fortran-ordered:
    LAPACK's layout, in which each block is contiguous.  Its size is gated
    by the ``DenseFrame`` that callers build first."""
    M = np.empty((n_out, n_in), dtype=complex, order="F")
    for j in range(0, n_in, MATERIALIZE_BLOCK):
        k = min(MATERIALIZE_BLOCK, n_in - j)
        M[:, j : j + k] = apply(np.eye(n_in, k, -j, dtype=complex))
    return M


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
    eigenvalues are nonzero, and on them it gives the framed Delta0^+
    (V lam^-1 V^H) and the harmonic projector I - D Delta0^+ D^H.  D and
    V are Fortran-ordered: zherk reads D in place to form the lower
    triangle of D^H D, and divide-and-conquer (LAPACK's zheevd, whose
    eigenvectors are orthonormal to roundoff) decomposes it over itself.
    Raises DenseCapError when dim C^0 + dim C^{0,1} exceeds ``dense_cap``."""

    def __init__(self, cx: DolbeaultComplex, dense_cap: int = DENSE_CAP):
        dim = sum(cx.dbar.shape)
        if dim > dense_cap:
            raise DenseCapError(f"dense frame: dimension {dim} exceeds dense_cap {dense_cap}")
        self.D = _framed(cx.dbar.toarray(order="F"), cx.w0, cx.w1)
        G = scipy.linalg.blas.zherk(1.0, self.D, trans=2, lower=1)
        self.lam, self.V = scipy.linalg.eigh(G, lower=True, overwrite_a=True, check_finite=False, driver="evd")

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal columns spanning the numerical kernel of D."""
        return self.V[:, ~_nonzero(self.lam)]

    @property
    def rank(self) -> int:
        return int(np.sum(_nonzero(self.lam)))


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
    return _gram_norm(scipy.linalg.blas.zherk(1.0, X, trans=2 if X.shape[0] >= X.shape[1] else 0, lower=1))


def _gram_norm(G: np.ndarray, lower: bool = True) -> float:
    """Square root of the top eigenvalue of the Gram matrix in the lower (or
    upper) triangle of G, found over it and the diagonal; the other is kept."""
    k = G.shape[0]
    top = scipy.linalg.eigh(G, lower=lower, eigvals_only=True, subset_by_index=[k - 1, k - 1], overwrite_a=True)
    return math.sqrt(max(float(top[0]), 0.0))


# ---------------------------------------------------------------------------
# dense certification


def certify_operators(scene: Scene, dense_cap: int = DENSE_CAP) -> dict:
    """Dense values of the operator suite of the scene's End(E) complex,
    in the weight-orthonormal frame against its D: the production dbar*
    against D^H, Delta0^{-1} (block solves of unit columns) against the
    frame's Delta0^+, the factorized projection P (P D = 0, P^2 = P,
    P = P^H, trace) and the frame's kernel count.  The frame's check of
    ``dense_cap`` comes before any other dense work, and every norm is an
    exact 2-norm from the eigenvalues of a Gram matrix or of i (P - P^H).

    With n0 = dim C^0 and n1 = dim C^{0,1}, one n1 x n1 buffer W is held,
    once the frame's D (n1 x n0) is released; P D, P^2 - P and P are not
    materialized.  P is applied through the production solves to D's
    columns over D, then twice to each block of unit columns, filling
    W's upper triangle with the Gram matrix of P^2 - P and its lower one
    with i (P - P^H).  All buffers are Fortran-ordered, worked on in place
    by BLAS and LAPACK; Delta0^+ is subtracted through the frame's V."""
    cx, blas, B = scene.endo, scipy.linalg.blas, MATERIALIZE_BLOCK
    frame = DenseFrame(cx, dense_cap)
    D, lam, rank, V = frame.D, frame.lam, frame.rank, frame.V
    n1, n0 = D.shape
    # |D|_2 and |Delta0^+|_2 from the frame's eigenvalues
    d_norm = np.sqrt(lam[-1])
    pinv_norm = 1.0 / lam[-rank]
    star = _framed(_columns(lambda E: cx.star(cx.dbar, E), n1, n0), cx.w1, cx.w0)
    star.real -= D.real.T  # star - D^H
    star.imag += D.imag.T
    values = {"adjointness_residual": spectral_norm(star) / d_norm}
    del star
    X = _framed(_columns(lambda E: cx.delta0_solve(E)[0], n0, n0), cx.w0, cx.w0)
    V *= np.where(_nonzero(lam), 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)[None, :]
    X = blas.zgemm(-1.0, V, V, trans_b=2, beta=1.0, c=X, overwrite_c=1)  # X - Delta0^+
    values["delta0_factorized_vs_dense"] = spectral_norm(X) / pinv_norm
    del X, V, frame
    s1 = np.sqrt(cx.w1)[:, None]
    for j in range(0, n0, B):
        D[:, j : j + B] = s1 * cx.harmonic_project(D[:, j : j + B] / s1)
    values["projector_annihilates_dbar"] = spectral_norm(D) / d_norm
    del D
    # a block E of unit columns at a time: zherk adds the Gram matrix of
    # (P^2 - P) E to W's upper triangle, and i (P - P^H) fills its strict
    # lower one, where P[r, c] (r > c) waits for column r
    W = np.empty((n1, n1), dtype=complex, order="F")
    diag = np.empty(n1, dtype=complex)
    for j in range(0, n1, B):
        J = slice(j, min(j + B, n1))
        Y = cx.harmonic_project(np.eye(n1, J.stop - j, -j, dtype=complex) / s1)
        Z = s1 * (cx.harmonic_project(Y) - Y)  # (P^2 - P) E in the frame
        W = blas.zherk(1.0, Z, beta=float(j > 0), c=W, lower=0, overwrite_c=1)
        Y *= s1  # P E in the frame
        W[J, :j] = 1j * (W[J, :j] - Y[:j].conj().T)
        W[J.stop :, J] = Y[J.stop :]
        W[J, J] = np.triu(W[J, J]) + np.tril(1j * (Y[J] - Y[J].conj().T), -1)
        diag[J] = Y[J].diagonal()
    values["projector_idempotent"] = _gram_norm(W, lower=False)
    values["harmonic_nu_dim"] = int(round(float(np.sum(diag.real))))
    np.fill_diagonal(W, -2.0 * diag.imag)  # the diagonal of i (P - P^H)
    values["projector_self_adjoint"] = spectral_norm(W, hermitian=True)
    return {**values, "kernel_dim": int(lam.size - rank)}
