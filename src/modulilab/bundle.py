"""Flat U(n) bundles as edge cocycles and their twisted Dolbeault operators.

A cocycle assigns a unitary parallel transport to every directed edge,
with the face holonomies trivial except for one marked face carrying the
central twist exp(2 pi i d/n).  End(E)-valued cochains conjugate by the
transports, so the twist location never enters any operator.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _complexes
from ._complexes import DolbeaultComplex, endo_complex
from .surface import ConformalSurface, HalfEdgeMesh, bfs_tree, split_half_edges, vertex_adjacency

logger = logging.getLogger(__name__)

UNITARITY_TOL = 1e-10
FLATNESS_TOL = 1e-10
RELATION_TOL = 1e-8
# Gram eigenvalues at or below this fraction of the largest (floored at 1)
# span the commutant; squared singular values, so 1e-10 here is 1e-5 there
COMMUTANT_REL_TOL = 1e-10


class RelationError(Exception):
    """Generator matrices violate the required central relation."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"generator relation violated: residual {residual:.3e} exceeds {RELATION_TOL:.0e}"
        )


class CocycleError(Exception):
    """Invalid cocycle data."""


@dataclass(frozen=True, eq=False)
class UnitaryCocycle:
    """Per-half-edge unitary transports with one central-twist face.

    ``transport[h]`` maps the frame at origin(h) to the frame at
    head(h); ``transport[twin(h)]`` is stored as the exact conjugate
    transpose.  ``generators`` optionally keeps the defining matrices
    for serialization.
    """

    mesh: HalfEdgeMesh
    rank: int
    degree: int
    transport: np.ndarray  # (H, n, n) complex
    marked_face: int
    generators: Optional[tuple] = None

    @property
    def twist_phase(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.degree / self.rank)


def validate_cocycle(c: UnitaryCocycle) -> None:
    mesh, U = c.mesh, c.transport
    H, n = mesh.n_half_edges, c.rank
    if U.shape != (H, n, n):
        raise CocycleError("transport array shape mismatch")
    eye = np.eye(n)
    UH = np.conj(np.swapaxes(U, 1, 2))
    # every half-edge check runs before any face check, and the first
    # offending index is named, with unitarity first at that index
    not_inverse = ~np.all(U[mesh.twin] == UH, axis=(1, 2))
    gram = UH @ U
    del UH
    gram -= eye
    not_unitary = np.linalg.norm(gram, axis=(1, 2)) > UNITARITY_TOL
    bad = np.flatnonzero(not_unitary | not_inverse)
    if bad.size:
        h = int(bad[0])
        if not_unitary[h]:
            raise CocycleError(f"transport on half-edge {h} is not unitary")
        raise CocycleError(f"reverse transport on half-edge {h} is not the exact inverse")
    U3 = U.reshape(mesh.n_faces, 3, n, n)
    hol = U3[:, 2] @ U3[:, 1] @ U3[:, 0]
    marked = np.arange(mesh.n_faces) == c.marked_face
    target = np.where(marked[:, None, None], c.twist_phase * eye, eye)
    bad = np.flatnonzero(np.linalg.norm(hol - target, axis=(1, 2)) > FLATNESS_TOL)
    if bad.size:
        raise CocycleError(f"face {int(bad[0])} holonomy violates flatness/twist")


def _store(mesh: HalfEdgeMesh, directed: np.ndarray, given: np.ndarray) -> np.ndarray:
    """(H,n,n) transports from the ``given`` entries of ``directed``, so
    that twins carry exact inverses: each twin pair keeps the entry of
    its lower half-edge when that one is given, else of its twin."""
    h = np.arange(mesh.n_half_edges)
    tw = mesh.twin
    lo = np.minimum(h, tw)
    own = np.where(given[lo], h == lo, h != lo)
    inverse = np.conj(np.swapaxes(directed[tw], 1, 2))
    return np.where(own[:, None, None], directed, inverse)


def from_generators(
    mesh: HalfEdgeMesh, n: int, d: int, generators: Sequence[np.ndarray]
) -> UnitaryCocycle:
    """Cocycle on the 4g-gon fan realizing given U(n) generators.

    ``generators`` is (A1, B1, ..., Ag, Bg).  The matrices must satisfy
    the ascending relation product (A1 B1 A1^-1 B1^-1)...(Ag Bg Ag^-1 Bg^-1)
    = exp(2 pi i d/n) I to 1e-8.  Transports: identity on a spanning
    spoke tree seeded by the recursion that makes every fan face flat,
    generator matrices on the labeled sides; the residual twist lands on
    the last face.
    """
    g = mesh.genus
    if len(generators) != 2 * g:
        raise CocycleError(f"need {2 * g} generators for genus {g}")
    gens = [np.asarray(G, dtype=complex) for G in generators]
    eye = np.eye(n)
    for G in gens:
        if G.shape != (n, n):
            raise CocycleError("generator size mismatch")
        if np.linalg.norm(G.conj().T @ G - eye) > UNITARITY_TOL:
            raise CocycleError("generator is not unitary")
    zeta = cmath.exp(2j * cmath.pi * d / n)
    rel = eye.copy()
    for j in range(g):
        A, B = gens[2 * j], gens[2 * j + 1]
        rel = rel @ (A @ B @ A.conj().T @ B.conj().T)
    residual = float(np.linalg.norm(rel - zeta * eye))
    if residual > RELATION_TOL:
        raise RelationError(residual)

    S = 4 * g
    # side transports from the labels: block base 4(g-j) holds
    # (Bj^-1, Aj^-1, Bj, Aj); twins receive inverses automatically.
    side = [None] * S
    for j in range(1, g + 1):
        base = 4 * (g - j)
        A, B = gens[2 * (j - 1)], gens[2 * (j - 1) + 1]
        side[base + 3] = A
        side[base + 2] = B
        side[base + 1] = A.conj().T
        side[base + 0] = B.conj().T
    directed = np.zeros((3 * S, n, n), dtype=complex)
    given = np.zeros(3 * S, dtype=bool)
    directed[1::3] = side
    given[0::3] = given[1::3] = True
    # spokes: S_0 = I and S_{i+1} = W_i S_i keeps faces 0..S-2 exactly flat;
    # the last face then carries the full relation product.
    spoke = eye.copy()
    for i in range(S):
        directed[3 * i] = spoke
        spoke = side[i] @ spoke
    U = _store(mesh, directed, given)
    c = UnitaryCocycle(
        mesh=mesh,
        rank=n,
        degree=d,
        transport=U,
        marked_face=S - 1,
        generators=tuple(G.copy() for G in gens),
    )
    validate_cocycle(c)
    return c


def trivial_cocycle(mesh: HalfEdgeMesh, n: int = 1) -> UnitaryCocycle:
    H = mesh.n_half_edges
    U = np.broadcast_to(np.eye(n), (H, n, n)).copy()
    return UnitaryCocycle(
        mesh=mesh, rank=n, degree=0, transport=U, marked_face=0, generators=None
    )


def su2_preset(mesh: HalfEdgeMesh) -> UnitaryCocycle:
    """Irreducible rank-2 degree-1 cocycle on a fan of any genus >= 2.

    Uses the quaternion pair i*sigma_x, i*sigma_y whose commutator is
    -I on the first handle, identities on the others.
    """
    if mesh.genus < 2:
        raise CocycleError("su2 preset needs genus >= 2")
    A1 = np.array([[0, 1j], [1j, 0]])
    B1 = np.array([[0, 1], [-1, 0]], dtype=complex)
    I2 = np.eye(2, dtype=complex)
    gens = [A1, B1] + [I2, I2] * (mesh.genus - 1)
    return from_generators(mesh, 2, 1, gens)


def refine_cocycle(c: UnitaryCocycle, child: HalfEdgeMesh) -> UnitaryCocycle:
    """Pull a cocycle back through one 1-to-4 refinement.

    Each parent half-edge splits into (U, I); the midline from the
    corner face at origin(h_k) gets U[h_k]^H so corner faces are exactly
    flat.  The central child face inherits the parent holonomy, so the
    twist moves to the central child of the old marked face.
    """
    rec = child.refinement
    if rec is None or rec.parent is not c.mesh:
        raise CocycleError("child mesh was not refined from the cocycle's mesh")
    mesh = c.mesh
    n = c.rank
    H = mesh.n_half_edges
    tw = mesh.twin
    first, second = split_half_edges(H)
    # split each parent edge once: full transport on the origin half of the
    # canonical direction, identity on the half into the head
    lo = np.flatnonzero(np.arange(H) < tw)
    directed = np.zeros((4 * H, n, n), dtype=complex)
    directed[first[lo]] = c.transport[lo]
    directed[second[lo]] = np.eye(n)
    directed[first[tw[lo]]] = np.eye(n)
    directed[second[tw[lo]]] = np.conj(np.swapaxes(c.transport[lo], 1, 2))
    given = np.zeros(4 * H, dtype=bool)
    given[first] = True
    given[second[lo]] = True
    # midline m_k -> m_{k-1} closes each corner face exactly; the central
    # face then carries a conjugate of the parent holonomy.
    faces = directed.reshape(mesh.n_faces, 4, 3, n, n)
    # corner face k: (v_k -> m_k) @ (m_{k-1} -> v_k), inverted
    faces[:, :3, 1] = np.conj(np.swapaxes(faces[:, :3, 0] @ faces[:, :3, 2], -1, -2))
    given.reshape(mesh.n_faces, 4, 3)[:, :3, 1] = True
    U2 = _store(child, directed, given)
    out = UnitaryCocycle(
        mesh=child,
        rank=n,
        degree=c.degree,
        transport=U2,
        marked_face=4 * c.marked_face + 3,
        generators=c.generators,
    )
    validate_cocycle(out)
    return out


def _commutant(c: UnitaryCocycle) -> np.ndarray:
    """Orthonormal basis (columns, row-major vec) of the matrices X with
    U X = X U for every transport: the null space of the n^2 x n^2 Gram
    matrix sum_h A_h^H A_h, A_h = U_h (x) I - I (x) U_h^T."""
    n = c.rank
    eye = np.eye(n)
    A = np.einsum("hab,cd->hacbd", c.transport, eye) - np.einsum(
        "ab,hdc->hacbd", eye, c.transport
    )
    A = A.reshape(-1, n * n, n * n)
    G = np.einsum("hki,hkj->ij", A.conj(), A)
    lam, vecs = np.linalg.eigh(0.5 * (G + G.conj().T))
    k = int(np.sum(lam <= COMMUTANT_REL_TOL * max(float(lam[-1]), 1.0)))
    return vecs[:, :k]


def is_irreducible(c: UnitaryCocycle) -> tuple[bool, int]:
    """Commutant dimension of the transport algebra."""
    commutant_dim = _commutant(c).shape[1]
    return commutant_dim == 1, commutant_dim


# ---------------------------------------------------------------------------
# cochains and twisted operators


@dataclass(frozen=True)
class BundleCochain:
    """End(E)-valued cochain: vertex 0-cochain or (0,1)/(1,0) face form.

    Vertex values live in each vertex's own frame; face coefficients in
    the face frame (lowest-index corner, transported along the boundary).
    """

    values: np.ndarray  # (V,n,n) or (F,n,n)
    degree: object  # "vertex", (0,1) or (1,0)

    def __post_init__(self):
        if self.degree not in ("vertex", (0, 1), (1, 0)):
            raise ValueError(f"bad cochain degree {self.degree!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite cochain entries")

    @property
    def rank(self) -> int:
        return self.values.shape[1]


def _covariant_constant_columns(c: UnitaryCocycle) -> np.ndarray:
    """Parallel extensions of commutant elements over a vertex spanning
    tree: the exact kernel of the twisted Laplacians for a flat cocycle."""
    mesh, n = c.mesh, c.rank
    commutant = _commutant(c)
    k = commutant.shape[1]
    indptr, out, heads = vertex_adjacency(mesh)
    levels, tree = bfs_tree(indptr, heads)
    vals = np.zeros((mesh.n_vertices, k, n, n), dtype=complex)
    vals[0] = commutant.T.reshape(k, n, n)
    for lvl in levels[1:]:
        h = out[tree[lvl]]
        U = c.transport[h][:, None]
        vals[lvl] = U @ vals[mesh.origin[h]] @ np.conj(np.swapaxes(U, -1, -2))
    return np.moveaxis(vals, 1, 0).reshape(k, -1).T


@functools.lru_cache(maxsize=None)
def operators(surface: ConformalSurface, c: UnitaryCocycle) -> DolbeaultComplex:
    if c.mesh is not surface.mesh:
        raise CocycleError("cocycle and surface live on different meshes")
    return endo_complex(surface, c.transport, _covariant_constant_columns(c))


def _flat(x: BundleCochain) -> np.ndarray:
    return x.values.reshape(-1)


def _vertex(values: np.ndarray, n: int) -> BundleCochain:
    return BundleCochain(values.reshape(-1, n, n), "vertex")


def _form(values: np.ndarray, n: int, tag) -> BundleCochain:
    return BundleCochain(values.reshape(-1, n, n), tag)


def twisted_dbar(phi: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    if phi.degree != "vertex" or phi.rank != c.rank:
        raise CocycleError("twisted_dbar expects a vertex cochain of matching rank")
    cx = operators(S, c)
    return _form(cx.dbar @ _flat(phi), c.rank, (0, 1))


def twisted_d_hol(phi: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    if phi.degree != "vertex" or phi.rank != c.rank:
        raise CocycleError("twisted_d_hol expects a vertex cochain of matching rank")
    cx = operators(S, c)
    return _form(cx.dhol @ _flat(phi), c.rank, (1, 0))


def twisted_dbar_star(alpha: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    if alpha.degree != (0, 1) or alpha.rank != c.rank:
        raise CocycleError("twisted_dbar_star expects a (0,1) cochain of matching rank")
    cx = operators(S, c)
    return _vertex(cx.dbar_star @ _flat(alpha), c.rank)


def twisted_d_star(beta: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    if beta.degree != (1, 0) or beta.rank != c.rank:
        raise CocycleError("twisted_d_star expects a (1,0) cochain of matching rank")
    cx = operators(S, c)
    return _vertex(cx.dhol_star @ _flat(beta), c.rank)


def laplacian(phi: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    cx = operators(S, c)
    return _vertex(cx.laplacian @ _flat(phi), c.rank)


def delta0_inverse(h: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    """Unique solution of Laplacian x = proj(h) orthogonal to the
    covariant-constant kernel (computed, not assumed one-dimensional)."""
    if h.degree != "vertex":
        raise CocycleError("delta0_inverse expects a vertex cochain")
    cx = operators(S, c)
    x, stats = cx.delta0_solve(_flat(h), which="dbar")
    logger.debug("delta0_inverse: %s", stats)
    return _vertex(x, c.rank)


def harmonic_projection(alpha: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    """Orthogonal projector onto ker(twisted_dbar_star)."""
    if alpha.degree != (0, 1):
        raise CocycleError("harmonic_projection expects a (0,1) cochain")
    cx = operators(S, c)
    return _form(cx.harmonic_project(_flat(alpha)), c.rank, (0, 1))


def ip_bundle(x: BundleCochain, y: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> complex:
    """L2 pairing tr(X conj(Y)^T) with the degree's diagonal weights."""
    if x.degree != y.degree:
        raise CocycleError("pairing needs equal degrees")
    cx = operators(S, c)
    w = cx.w0 if x.degree == "vertex" else cx.w1
    return complex(np.sum(w * _flat(x) * np.conj(_flat(y))))


# ---------------------------------------------------------------------------
# pointwise commutator action and its exact adjoint


def ad_on_scalar(nu: BundleCochain, f: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    """Pointwise nu f - f nu in each face frame (f transported to faces)."""
    if f.degree != "vertex" or f.rank != nu.rank:
        raise CocycleError("ad_on_scalar expects a vertex cochain of matching rank")
    return BundleCochain(_complexes.ad(operators(S, c), nu.values, f.values), (0, 1))


def ad_star(nu: BundleCochain, alpha: BundleCochain, c: UnitaryCocycle, S: ConformalSurface) -> BundleCochain:
    """Exact formal adjoint of ad_on_scalar(nu, .): W0^-1 B^H W1
    (conj(nu)^T alpha - alpha conj(nu)^T), B the corner average.

    Under the conventions table this is the vertex-averaged
    -rho^{-1} (alpha conj(nu)^T - conj(nu)^T alpha); the constant is
    pinned by adjointness, not chosen per input.
    """
    if nu.degree != (0, 1):
        raise CocycleError("ad expects a (0,1)-form argument")
    if alpha.degree != (0, 1) or alpha.rank != nu.rank:
        raise CocycleError("ad_star expects a (0,1) cochain of matching rank")
    return _vertex(_complexes.ad_star(operators(S, c), nu.values, alpha.values), c.rank)


# ---------------------------------------------------------------------------
# serialization


def save_cocycle(c: UnitaryCocycle, path) -> None:
    if c.generators is None:
        raise CocycleError("only generator-built cocycles serialize")
    g = c.mesh.genus
    names = [x for j in range(1, g + 1) for x in (f"a{j}", f"b{j}")]
    with open(path, "w") as fh:
        fh.write(f"cocycle {c.rank} {c.degree}\n")
        for name, G in zip(names, c.generators):
            nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in G.ravel())
            fh.write(f"gen {name} {nums}\n")
        fh.write(f"twist {c.marked_face}\n")


def _numbers(fields, kind, lineno: int) -> list:
    """Parse finite ``kind`` entries of one record line."""
    try:
        vals = [kind(x) for x in fields]
    except ValueError:
        vals = None
    if vals is None or not all(math.isfinite(v) for v in vals):
        raise CocycleError(f"line {lineno}: expected finite {kind.__name__} entries, got {' '.join(fields)!r}")
    return vals


def load_cocycle(mesh: HalfEdgeMesh, path) -> UnitaryCocycle:
    n = d = None
    gens: dict[str, np.ndarray] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "cocycle" and len(parts) == 3:
                n, d = _numbers(parts[1:], int, lineno)
            elif parts[0] == "gen":
                if n is None:
                    raise CocycleError(f"line {lineno}: gen before header")
                vals = _numbers(parts[2:], float, lineno)
                if len(vals) != 2 * n * n:
                    raise CocycleError(f"line {lineno}: need {2 * n * n} reals")
                M = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
                gens[parts[1]] = M.reshape(n, n)
            elif parts[0] == "twist" and len(parts) == 2:
                pass  # twist face is reconstructed by from_generators
            else:
                raise CocycleError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise CocycleError("missing cocycle header")
    g = mesh.genus
    try:
        ordered = [gens[x] for j in range(1, g + 1) for x in (f"a{j}", f"b{j}")]
    except KeyError as e:
        raise CocycleError(f"missing generator {e}")
    return from_generators(mesh, n, d, ordered)
