"""Assembly of the twisted P1/P0 Dolbeault complexes.

One code path serves every twisted complex in the package.  A complex is
specified by, per (face, corner):

* a unit scalar ``spin`` factor carrying the chart-tensor indices of the
  0-cochain type (1 for functions, the chart-rotation transport for
  vector fields);
* a unitary ``transport`` matrix carrying the bundle conjugation
  (identity blocks for untwisted types).

A 0-cochain value X at vertex v enters face f as
``spin[f,k] * T[f,k] X T[f,k]^H``; the face operators are the P1 hat
gradients of those transported values, split into dz and dzbar parts.
Adjoints are true matrix adjoints under diagonal weights, never an
independent stencil, so adjointness identities hold to roundoff.

P1 hat gradients on a chart triangle (z0,z1,z2) with signed area S:
grad phi_k = i (z_{k+2} - z_{k+1}) / (2S) as gx + i gy, hence
dbar phi_k = grad/2 and d phi_k = conj(grad)/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import conventions
from .surface import ConformalSurface, bfs_tree


class SolverError(Exception):
    """Restricted solve failed to reach the required residual."""


SOLVE_RTOL = 1e-8


# ---------------------------------------------------------------------------
# per-surface geometry


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    corner_vertex: np.ndarray  # (F,3) int
    grad_bar: np.ndarray  # (F,3) complex, dbar of hat functions
    grad_hol: np.ndarray  # (F,3) complex
    area: np.ndarray  # (F,)
    rho: np.ndarray  # (F,)
    face_spin: np.ndarray  # (F,) unit complex, chart transport from face 0 via a BFS tree
    vertex_ref_face: np.ndarray  # (V,) int
    corner_spin: np.ndarray  # (F,3) complex, vector-type transport vertex -> face
    mass_rho: np.ndarray  # (V,) sum of rho*A/3 over incident corners
    mass_rho2: np.ndarray  # (V,) sum of rho^2*A/3
    mass_area: np.ndarray  # (V,) sum of A/3


@functools.lru_cache(maxsize=None)
def geometry(surface: ConformalSurface) -> SurfaceGeometry:
    mesh = surface.mesh
    F, V, H = mesh.n_faces, mesh.n_vertices, mesh.n_half_edges
    corner_vertex = mesh.origin.reshape(F, 3).copy()
    z = surface.chart
    S = surface.area
    grad = np.zeros((F, 3), dtype=complex)
    for k in range(3):
        grad[:, k] = 1j * (z[:, (k + 2) % 3] - z[:, (k + 1) % 3]) / (2.0 * S)
    grad_bar = grad / 2.0
    grad_hol = np.conj(grad) / 2.0
    # BFS tree over face adjacency accumulating chart rotations; tangent
    # coefficients in chart(f) equal face_spin[f]/face_spin[f'] times their
    # expression in chart(f') along tree paths.
    levels, tree = bfs_tree(np.arange(0, H + 1, 3), mesh.twin // 3)
    if sum(lvl.size for lvl in levels) != F:
        raise ValueError("face adjacency graph is not connected")
    face_spin = np.zeros(F, dtype=complex)
    face_spin[0] = 1.0
    for lvl in levels[1:]:
        h = tree[lvl]
        r, s = surface.edge_rotation[h], face_spin[h // 3]
        # the product written out, as the scalar product rounds it: numpy's
        # vectorized complex multiply may fuse multiply-adds
        face_spin[lvl] = (r.real * s.real - r.imag * s.imag) + 1j * (r.real * s.imag + r.imag * s.real)
    cv = corner_vertex.reshape(-1)
    vertex_ref_face = np.full(V, F, dtype=np.int64)
    np.minimum.at(vertex_ref_face, cv, np.arange(H) // 3)
    corner_spin = face_spin[:, None] / face_spin[vertex_ref_face[corner_vertex]]
    rho = surface.density

    def mass(per_face):
        return np.bincount(cv, weights=np.repeat(per_face / 3.0, 3), minlength=V)

    return SurfaceGeometry(
        corner_vertex=corner_vertex,
        grad_bar=grad_bar,
        grad_hol=grad_hol,
        area=S.copy(),
        rho=rho.copy(),
        face_spin=face_spin,
        vertex_ref_face=vertex_ref_face,
        corner_spin=corner_spin,
        mass_rho=mass(rho * S),
        mass_rho2=mass(rho**2 * S),
        mass_area=mass(S),
    )


# ---------------------------------------------------------------------------
# assembled complex


def _assemble(weight, T, corner_vertex, n_vertices) -> sp.csr_matrix:
    """Sparse (F*m^2) x (V*m^2) operator X -> sum_k weight[f,k] T X_v T^H,
    v = corner_vertex[f,k], T = T[f,k]; row-major vec(T X T^H) is
    kron(T, conj T) vec(X)."""
    F, _, m, _ = T.shape
    m2 = m * m
    blocks = np.einsum("fkac,fkbd->fkabcd", T, np.conj(T)).reshape(F, 3, m2, m2)
    blocks = weight[:, :, None, None] * blocks
    idx = np.arange(m2)
    rows = np.arange(F)[:, None, None, None] * m2 + idx[:, None]
    cols = corner_vertex[:, :, None, None] * m2 + idx
    rows, cols = np.broadcast_arrays(rows, cols)
    return sp.csr_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(F * m2, n_vertices * m2), dtype=complex
    )


@dataclass(eq=False)
class DolbeaultComplex:
    """Assembled dbar/d pair with weighted adjoints and restricted solves.

    ``w0``/``w1`` are the diagonal L2 weights on 0-cochains and on face
    forms (per flattened entry).  ``dbar``/``dhol`` map 0-cochains to
    (0,1)/(1,0) coefficients.  ``corner_avg`` (B) is the barycenter value
    of the transported corner values, the same corner rule with weight
    1/3 in place of the P1 gradient; ``lift`` is its area-weighted
    transpose diag(1/mass_area) B^H diag(area), taking face fields back
    to vertex frames.  ``laplacian`` is dbar_adj @ dbar;
    ``laplacian_sym`` the conjugation-equivariant symmetrization used by
    the variation formulas.  ``kernel`` holds the exact kernel shared by
    both Laplacians as columns; it is w0-orthonormalized on construction.
    """

    m: int
    n_vertices: int
    n_faces: int
    w0: np.ndarray
    w1: np.ndarray
    dbar: sp.csr_matrix
    dhol: sp.csr_matrix
    corner_avg: sp.csr_matrix
    lift: sp.csr_matrix
    kernel: np.ndarray

    def __post_init__(self):
        self._cache: dict = {}
        s = np.sqrt(self.w0)
        K = np.asarray(self.kernel, dtype=complex).reshape(s.shape[0], -1)
        self.kernel = np.linalg.qr(s[:, None] * K)[0] / s[:, None]

    # -- adjoints -----------------------------------------------------------
    def _adjoint(self, name: str) -> sp.csr_matrix:
        """W0^-1 M^H W1 for the face-valued operator ``name``, kept."""
        key = name + "_star"
        if key not in self._cache:
            M = getattr(self, name)
            A = sp.diags(1.0 / self.w0) @ M.conj().T.tocsr() @ sp.diags(self.w1)
            self._cache[key] = A.tocsr()
        return self._cache[key]

    @property
    def dbar_star(self) -> sp.csr_matrix:
        return self._adjoint("dbar")

    @property
    def dhol_star(self) -> sp.csr_matrix:
        return self._adjoint("dhol")

    @property
    def corner_avg_star(self) -> sp.csr_matrix:
        return self._adjoint("corner_avg")

    @property
    def laplacian(self) -> sp.csr_matrix:
        if "lap" not in self._cache:
            self._cache["lap"] = (self.dbar_star @ self.dbar).tocsr()
        return self._cache["lap"]

    @property
    def laplacian_sym(self) -> sp.csr_matrix:
        if "lap_sym" not in self._cache:
            self._cache["lap_sym"] = (
                0.5 * (self.dbar_star @ self.dbar + self.dhol_star @ self.dhol)
            ).tocsr()
        return self._cache["lap_sym"]

    def _lap(self, which: str) -> sp.csr_matrix:
        return self.laplacian if which == "dbar" else self.laplacian_sym

    # -- kernel-restricted solves --------------------------------------------
    def project_off_kernel(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Remove the w0-orthogonal projection onto the kernel.

        Returns the projected vector and the norm of the removed part.
        """
        K = self.kernel
        coef = K.conj().T @ (self.w0 * x)
        return x - K @ coef, float(np.linalg.norm(coef))

    def _factor(self, which: str):
        """Sparse LU of the kernel-bordered Hermitian system
        [[W0 L, W0 K], [K^H W0, 0]], nonsingular exactly when K spans
        ker L; factorized on first use and kept."""
        key = ("lu", which)
        if key not in self._cache:
            WK = sp.csr_matrix(self.w0[:, None] * self.kernel)
            WL = sp.diags(self.w0) @ self._lap(which)
            B = sp.bmat([[WL, WK], [WK.conj().T, None]], format="csc")
            try:
                self._cache[key] = spla.splu(B)
            except RuntimeError as e:  # exactly singular: K misses part of the kernel
                raise SolverError(f"bordered {which} Laplacian is singular: {e}") from e
        return self._cache[key]

    def delta0_solve(self, h: np.ndarray, which: str = "dbar") -> tuple[np.ndarray, dict]:
        """Solve Laplacian x = (h projected off the kernel), x in ker^perp.

        One sparse LU per Laplacian (see ``_factor``), reused by every
        later solve; raises SolverError when |L x - rhs| exceeds
        ``SOLVE_RTOL`` times |h|.
        """
        reused = ("lu", which) in self._cache
        lu = self._factor(which)
        rhs, removed = self.project_off_kernel(h)
        n = rhs.shape[0]
        b = np.zeros(lu.shape[0], dtype=complex)
        b[:n] = self.w0 * rhs
        x = lu.solve(b)[:n]
        # relative to h: projecting h off the kernel leaves roundoff of
        # order eps*|h| that no x can match, which would swamp a tiny rhs
        res = float(np.linalg.norm(self._lap(which) @ x - rhs) / max(np.linalg.norm(h), 1e-300))
        if not res <= SOLVE_RTOL:
            raise SolverError(f"{which} solve relative residual {res:.3e} exceeds {SOLVE_RTOL:.0e}")
        stats = {"kernel_removed": removed, "method": "splu", "residual": res, "factor_reused": reused}
        return x, stats

    def harmonic_project(self, alpha: np.ndarray, which: str = "dbar") -> np.ndarray:
        """alpha - dbar Delta0^{-1} dbar* alpha (orthogonal onto ker dbar*)."""
        h = self.dbar_star @ alpha
        x, _ = self.delta0_solve(h, which=which)
        return alpha - self.dbar @ x


# ---------------------------------------------------------------------------
# complex builders


def _weights(geom: SurfaceGeometry, m: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    gf = conventions.L2_GLOBAL_FACTOR
    m2 = m * m
    if kind == "function":
        w0 = np.repeat(gf * geom.mass_rho, m2)
        w1 = np.repeat(gf * geom.area, m2)
    elif kind == "vector":
        w0 = np.repeat(geom.mass_rho2, m2)
        w1 = np.repeat(geom.rho * geom.area, m2)  # Beltrami pairing
    else:
        raise ValueError(kind)
    return w0, w1


def _build(geom: SurfaceGeometry, kind: str, spin, T, kernel) -> DolbeaultComplex:
    """Complex whose value at corner (f,k) is spin[f,k] T X T^H with T =
    T[f,k], (F,3,m,m); the untwisted types pass 1x1 identity blocks."""
    m = T.shape[-1]
    w0, w1 = _weights(geom, m, kind)
    V = geom.mass_rho.shape[0]
    cv = geom.corner_vertex
    B = _assemble(spin / 3.0, T, cv, V)
    m2 = m * m
    lift = sp.diags(1.0 / np.repeat(geom.mass_area, m2)) @ B.conj().T
    lift = lift @ sp.diags(np.repeat(geom.area, m2))
    return DolbeaultComplex(
        m=m,
        n_vertices=V,
        n_faces=geom.area.shape[0],
        w0=w0,
        w1=w1,
        dbar=_assemble(geom.grad_bar * spin, T, cv, V),
        dhol=_assemble(geom.grad_hol * spin, T, cv, V),
        corner_avg=B,
        lift=lift.tocsr(),
        kernel=kernel,
    )


def _untwisted(geom: SurfaceGeometry) -> np.ndarray:
    return np.ones(geom.corner_vertex.shape + (1, 1), dtype=complex)


@functools.lru_cache(maxsize=None)
def scalar_complex(surface: ConformalSurface) -> DolbeaultComplex:
    """Functions -> scalar forms; the kernel is the constants."""
    geom = geometry(surface)
    ones = np.ones(geom.mass_rho.shape[0], dtype=complex)
    return _build(geom, "function", np.ones_like(geom.grad_bar), _untwisted(geom), ones)


@functools.lru_cache(maxsize=None)
def tangent_complex(surface: ConformalSurface) -> DolbeaultComplex:
    """Vector fields -> Beltrami coefficients (chart-rotation twisted).

    The field face_spin[ref(v)] reaches every corner of face f as
    face_spin[f] (see ``corner_spin``), so its P1 gradient vanishes: the
    twist is a pure gauge and this field spans the kernel.
    """
    geom = geometry(surface)
    kernel = geom.face_spin[geom.vertex_ref_face]
    return _build(geom, "vector", geom.corner_spin, _untwisted(geom), kernel)


def corner_transports(surface: ConformalSurface, transport_per_he: np.ndarray) -> np.ndarray:
    """Unitary transport from each corner vertex frame into the face frame.

    The face frame is the frame of the corner with the lowest vertex
    index; other corners transport forward along the face boundary.
    """
    mesh = surface.mesh
    F = mesh.n_faces
    n = transport_per_he.shape[1]
    U = transport_per_he.reshape(F, 3, n, n)
    a = np.argmin(mesh.origin.reshape(F, 3), axis=1)
    step = ((a[:, None] - np.arange(3)) % 3)[:, :, None, None]
    # two steps from corner k: U[3f+k+1] @ U[3f+k]
    return np.where(step == 0, np.eye(n), np.where(step == 1, U, U[:, [1, 2, 0]] @ U))


def endo_complex(
    surface: ConformalSurface, transport_per_he: np.ndarray, kernel: np.ndarray
) -> DolbeaultComplex:
    """End(E)-valued complex for a unitary edge-transport field.

    ``transport_per_he[h]`` maps the frame at origin(h) to the frame at
    head(h); values conjugate as T X T^H, so central phases drop out.
    ``kernel`` holds the covariant-constant sections as columns.
    """
    geom = geometry(surface)
    T = corner_transports(surface, transport_per_he)
    spin = np.ones((geom.area.shape[0], 3), dtype=complex)
    return _build(geom, "function", spin, T, kernel)


# ---------------------------------------------------------------------------
# pointwise machinery shared by bundle and variation code


def vertex_to_face(cx: DolbeaultComplex, x: np.ndarray) -> np.ndarray:
    """P1 barycenter value of a 0-cochain on each face, in the face frame:
    B x, with x of shape (V, m, m); returns (F, m, m)."""
    return (cx.corner_avg @ x.reshape(-1)).reshape(cx.n_faces, cx.m, cx.m)


def lift_to_vertices(cx: DolbeaultComplex, x_face: np.ndarray) -> np.ndarray:
    """Area-weighted average of a face field onto vertices, transported
    into vertex frames: diag(1/mass_area) B^H diag(area) per m^2 entry."""
    return (cx.lift @ x_face.reshape(-1)).reshape(cx.n_vertices, cx.m, cx.m)


def ad(cx: DolbeaultComplex, nu: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Pointwise commutator [nu, B f] of a face field nu with a vertex
    0-cochain f carried into the faces."""
    fa = vertex_to_face(cx, f)
    return nu @ fa - fa @ nu


def ad_star(cx: DolbeaultComplex, nu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Exact weighted adjoint of ``ad(cx, nu, .)``:
    W0^-1 B^H W1 (nu^H alpha - alpha nu^H)."""
    nu_h = np.conj(np.swapaxes(nu, 1, 2))
    comm = nu_h @ alpha - alpha @ nu_h
    return (cx.corner_avg_star @ comm.reshape(-1)).reshape(cx.n_vertices, cx.m, cx.m)
