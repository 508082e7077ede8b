"""Assembly of the twisted P1/P0 Dolbeault complexes.

One code path serves every twisted complex in the package.  A complex is
specified by a unitary ``transport`` matrix per (face, corner), carrying
the bundle conjugation (identity blocks for untwisted types), and a unit
``phase`` per face: 1, or for vector fields the chart rotation
``face_spin`` from face 0.

A 0-cochain value X at vertex v enters face f as
``phase[f] * T[f,k] X T[f,k]^H``; the face operators are the P1 hat
gradients of those transported values (``ConformalSurface.grad_bar``),
split into dz and dzbar parts.  Adjoints are true matrix adjoints under
diagonal weights, never an independent stencil, so adjointness
identities hold to roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import conventions
from .surface import ConformalSurface


class SolverError(Exception):
    """Restricted solve failed to reach the required residual; ``column``
    is the first failing column of the solved block, or None."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


SOLVE_RTOL = 1e-8


# ---------------------------------------------------------------------------
# assembled complex


def _assemble(weights, T, corner_vertex, n_vertices) -> tuple[sp.csr_matrix, ...]:
    """Sparse (F*m^2) x (V*m^2) operators X -> sum_k w[f,k] T X_v T^H,
    v = corner_vertex[f,k], T = T[f,k], one per corner weight w in
    ``weights``, broadcast to (F,3).  Row-major vec(T X T^H) is
    kron(T, conj T) vec(X), entry ((a,b), (c,d)) = T[a,c] conj T[b,d]:
    it is formed over the p nonzero columns of each row of T only (p = 1
    for monomial T), and only its nonzero values enter the operators."""
    F, n, p = T.shape[0], T.shape[-1], np.count_nonzero(T, axis=-1).max()
    col = np.argsort(T == 0, axis=-1, kind="stable")[..., :p]  # nonzero columns first, in order
    t = np.take_along_axis(T, col, axis=-1)
    prods = np.einsum("fkap,fkbq->fkabpq", t, np.conj(t))
    f, k, a, b, i, j = np.nonzero(prods)
    m2, vals = n * n, prods[f, k, a, b, i, j]
    entries = (f * m2 + a * n + b, corner_vertex[f, k] * m2 + col[f, k, a, i] * n + col[f, k, b, j])
    shape = (F * m2, n_vertices * m2)
    return tuple(
        sp.csr_matrix((np.broadcast_to(w, (F, 3))[f, k] * vals, entries), shape=shape, dtype=complex) for w in weights
    )


@dataclass(eq=False)
class DolbeaultComplex:
    """Assembled dbar/d pair with weighted adjoints and restricted solves.

    ``w0``/``w1`` are the diagonal L2 weights on 0-cochains and on face
    forms (per flattened entry), paired by ``inner``.  ``dbar``/``dhol`` map
    0-cochains to (0,1)/(1,0) coefficients.  ``corner_avg`` (B) is the
    barycenter value of the transported corner values, the same corner rule
    with weight 1/3 in place of the P1 gradient.  ``star`` applies weighted
    adjoints, and ``lift_to_vertices`` the area-weighted adjoint of B.
    ``laplacian`` is dbar* dbar, the one Laplacian every restricted solve
    uses; on a flat bundle it equals d* d to roundoff (see
    ``kahler_residual``).  Its exact ``kernel`` K is the orthonormal m^2 x k
    ``commutant`` C tiled over the vertices, sparse, over sqrt(sum_v w_v):
    K^H W0 K = I, as w0 is w_v on each of vertex v's m^2 entries.  The
    complex owns the cochain layout: ``apply`` (M x), ``star``, ``inner``
    and the solves take a vector, an (N, k) block, per-site values
    (N/m^2, m, m) or a block (N/m^2, m, m, k) of those, and answer in that
    layout (``inner`` with a number); any other shape raises ValueError.
    """

    m: int
    n_vertices: int
    n_faces: int
    w0: np.ndarray
    w1: np.ndarray
    dbar: sp.csr_matrix
    dhol: sp.csr_matrix
    corner_avg: sp.csr_matrix
    commutant: np.ndarray

    # -- operators and adjoints ------------------------------------------------
    def apply(self, M: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        """M x for an operator M of this complex."""
        return _layout(M @ self._read(x, M.shape[1]), x)

    def star(self, M: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
        """W0^-1 M^H W1 y for a face-valued operator M of this complex,
        applied through the transpose of M; the adjoint is never stored."""
        Y = self._read(y, M.shape[0])
        return _layout(np.conj(M.T @ np.conj(self.w1[:, None] * Y)) / self.w0[:, None], y)

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        """sum w x conj(y) of two cochains of one shape, w = w0 or w1 by the
        layout of x: the metric and, by the conventions, every wedge integral."""
        if np.shape(x) != np.shape(y):
            raise ValueError(f"cochains of shapes {np.shape(x)} and {np.shape(y)} do not pair")
        try:
            w, X = self.w0, self._read(x, self.w0.shape[0])
        except ValueError:
            w, X = self.w1, self._read(x, self.w1.shape[0])
        return complex(np.sum(w[:, None] * X * np.conj(y.reshape(X.shape))))

    def _read(self, x: np.ndarray, n: int) -> np.ndarray:
        """x as an (n, k) block, for a layout of n rows (see above)."""
        s, m = x.shape, self.m
        if not (s[:1] == (n,) and x.ndim <= 2 or s[:3] == (n // (m * m), m, m) and x.ndim <= 4):
            raise ValueError(f"cochain of shape {s} does not fit the layout of {n} rows")
        return x.reshape(n, -1)

    @functools.cached_property
    def laplacian(self) -> sp.csr_matrix:
        return _gram(self, self.dbar)

    @functools.cached_property
    def kernel(self) -> sp.csr_matrix:
        C = self.commutant
        return sp.kron(np.ones((self.n_vertices, 1)), C, format="csr") / np.sqrt(np.sum(self.w0) / len(C))

    # -- kernel-restricted solves --------------------------------------------
    @functools.cached_property
    def lu(self):
        """Sparse LU of the kernel-bordered Hermitian system
        [[W0 L, W0 K], [K^H W0, 0]], nonsingular exactly when K spans
        ker L; factorized on first use and kept.

        The matrix is Hermitian, so it is factored in SuperLU's symmetric
        mode, its columns ordered by minimum degree on the pattern of
        B + B^H (George and Liu, SIAM Review 31, 1989), which fills less
        than the default COLAMD order."""
        WK = sp.diags(self.w0) @ self.kernel
        WL = sp.diags(self.w0) @ self.laplacian
        B = sp.bmat([[WL, WK], [WK.conj().T, None]], format="csc")
        try:
            return spla.splu(B, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        except (RuntimeError, SystemError) as e:
            if "singular" in str(e):  # K misses part of the kernel
                raise SolverError(f"bordered Laplacian is singular: {e}") from e
            # SuperLU's allocator gave out ("Can't expand MemType", or gstrf's "invalid arguments")
            raise MemoryError(f"sparse LU of the bordered Laplacian: {e}") from e

    def delta0_solve(self, h: np.ndarray) -> tuple[np.ndarray, dict]:
        """Solve Laplacian x = (h projected off the kernel), x in ker^perp,
        for each column of h.

        One sparse LU per complex (see ``lu``), reused by every later
        solve, and one multi-column solve of [W0 h, 0] for all columns.
        W0 L is Hermitian and L K = 0, so the border unknowns are the
        kernel coefficients K^H W0 h and L x = h - K coef: the border
        splits off the kernel, with no separate projection.  Raises
        SolverError, carrying the first failing ``column``, when
        |L x + K coef - h| of a column exceeds ``SOLVE_RTOL`` times |h|
        of that column.  The stats carry the largest residual and removed
        kernel norm |coef| over the columns.
        """
        reused = "lu" in self.__dict__
        lu = self.lu
        H = self._read(h, self.w0.shape[0])
        n = H.shape[0]
        b = np.zeros((lu.shape[0], H.shape[1]), dtype=complex)
        b[:n] = self.w0[:, None] * H
        y = lu.solve(b)
        x, coef = y[:n], y[n:]
        res = _norms(self.laplacian @ x + self.kernel @ coef - H) / np.maximum(_norms(H), 1e-300)
        if not np.all(res <= SOLVE_RTOL):
            j = int(np.argmin(res <= SOLVE_RTOL))  # the first failing column
            raise SolverError(f"solve relative residual {res[j]:.3e} exceeds {SOLVE_RTOL:.0e}", column=j)
        removed = float(np.max(_norms(coef)))
        stats = {"kernel_removed": removed, "method": "splu", "residual": float(np.max(res)), "factor_reused": reused}
        return _layout(x, h), stats

    def harmonic_project(self, alpha: np.ndarray) -> np.ndarray:
        """alpha - dbar Delta0^{-1} dbar* alpha (orthogonal onto ker dbar*)."""
        x, _ = self.delta0_solve(self.star(self.dbar, alpha))
        return alpha - self.apply(self.dbar, x)


def _layout(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (N', k) result y of a method that read its input x with
    ``_read``, in the layout of x."""
    return y.reshape((-1,) + x.shape[1:])


def _norms(X: np.ndarray) -> np.ndarray:
    """Column 2-norms, each the norm of that 1-D column as for a vector."""
    return np.array([np.linalg.norm(c) for c in X.T])


def _gram(cx: DolbeaultComplex, M: sp.csr_matrix) -> sp.csr_matrix:
    """W0^-1 M^H W1 M for a face-valued operator M of ``cx``: a Laplacian."""
    return (sp.diags(1.0 / cx.w0) @ M.conj().T @ sp.diags(cx.w1) @ M).tocsr()


def kahler_residual(cx: DolbeaultComplex) -> float:
    """Relative Frobenius norm |dbar* dbar - d* d| / |dbar* dbar|: the
    discrete Kaehler identity, exact to roundoff on a flat bundle, which
    lets every solve use the one Laplacian dbar* dbar."""
    lap_hol = _gram(cx, cx.dhol)
    return float(spla.norm(cx.laplacian - lap_hol) / max(spla.norm(cx.laplacian), 1e-300))


# ---------------------------------------------------------------------------
# complex builders


def _build(S: ConformalSurface, T, w0, w1, commutant, phase=1.0) -> DolbeaultComplex:
    """Complex whose value at corner (f,k) is phase[f] T X T^H with T =
    T[f,k], (F,3,m,m), a unit ``phase`` per face (F,) or 1, the L2
    weights ``w0``/``w1`` per flattened entry and the kernel's ``commutant``."""
    V, cv = S.n_vertices, S.corner_vertex
    p = np.reshape(phase, (-1, 1))
    dbar, dhol, corner_avg = _assemble((p * S.grad_bar, p * np.conj(S.grad_bar), p / 3.0), T, cv, V)
    return DolbeaultComplex(
        m=T.shape[-1],
        n_vertices=V,
        n_faces=S.n_faces,
        w0=w0,
        w1=w1,
        dbar=dbar,
        dhol=dhol,
        corner_avg=corner_avg,
        commutant=commutant,
    )


def tangent_complex(S: ConformalSurface) -> DolbeaultComplex:
    """Vector fields -> Beltrami coefficients in the face gauge: the scalar
    P1 stencil times the chart rotation ``face_spin[f]`` of each face (1x1
    identity transports), with the Beltrami pairing rho * area on the
    faces.  Vertex values are written in the chart of face 0.

    The three P1 gradients of a face sum to zero, so the constants span
    the kernel.
    """
    T = np.ones(S.corner_vertex.shape + (1, 1), dtype=complex)
    rho = S.density
    return _build(S, T, S.lumped(rho**2 * S.area), rho * S.area, np.ones((1, 1)), S.face_spin)


def corner_transports(S: ConformalSurface, transport_per_he: np.ndarray) -> np.ndarray:
    """Unitary transport from each corner vertex frame into the face frame.

    The face frame is the frame of the corner with the lowest vertex
    index; other corners transport forward along the face boundary.
    """
    n = transport_per_he.shape[1]
    U = transport_per_he.reshape(S.n_faces, 3, n, n)
    a = np.argmin(S.corner_vertex, axis=1)
    step = ((a[:, None] - np.arange(3)) % 3)[:, :, None, None]
    # two steps from corner k: U[3f+k+1] @ U[3f+k]
    return np.where(step == 0, np.eye(n), np.where(step == 1, U, U[:, [1, 2, 0]] @ U))


def endo_complex(S: ConformalSurface, transport_per_he: np.ndarray, commutant: np.ndarray) -> DolbeaultComplex:
    """End(E)-valued complex for a unitary edge-transport field.

    ``transport_per_he[h]`` maps the frame at origin(h) to the frame at
    head(h); values conjugate as T X T^H, so central phases drop out.
    ``commutant`` holds the covariant constants' values at a vertex.
    """
    T = corner_transports(S, transport_per_he)
    gf, m2 = conventions.L2_GLOBAL_FACTOR, T.shape[-1] ** 2
    w0, w1 = np.repeat(gf * S.lumped(S.density * S.area), m2), np.repeat(gf * S.area, m2)
    return _build(S, T, w0, w1, commutant)


# ---------------------------------------------------------------------------
# pointwise machinery, each in the layout of its per-site input or block


def lift_to_vertices(cx: DolbeaultComplex, S: ConformalSurface, x_face: np.ndarray) -> np.ndarray:
    """Area-weighted average of a face field onto vertices, transported
    into vertex frames: diag(1/lumped area) B^H diag(area) per m^2 entry,
    applied through the transpose of B like ``star``, in the layout of
    ``x_face`` (see ``DolbeaultComplex``)."""
    m2 = cx.m * cx.m
    y = np.repeat(S.area, m2)[:, None] * cx._read(x_face, cx.corner_avg.shape[0])
    x = np.conj(cx.corner_avg.T @ np.conj(y)) / np.repeat(S.lumped(S.area), m2)[:, None]
    return _layout(x, x_face)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-site commutator ab - ba of (sites, m, m) values, either of them
    a block (sites, m, m, k), in the layout of the block."""
    return np.einsum("sab...,sbc...->sac...", a, b) - np.einsum("sab...,sbc...->sac...", b, a)


def ad(cx: DolbeaultComplex, nu: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Pointwise commutator [nu, B f] of a face field nu with the P1
    barycenter values B f of a vertex 0-cochain f or a block of them."""
    return _commutator(nu, cx.apply(cx.corner_avg, f))


def ad_star(cx: DolbeaultComplex, nu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Exact weighted adjoint of ``ad(cx, nu, .)``:
    W0^-1 B^H W1 (nu^H alpha - alpha nu^H)."""
    return cx.star(cx.corner_avg, _commutator(np.conj(np.swapaxes(nu, 1, 2)), alpha))
