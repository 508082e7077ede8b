"""Flat U(n) bundles as edge cocycles and their twisted Dolbeault operators.

A cocycle assigns a unitary parallel transport to every directed edge,
with the face holonomies trivial except for one marked face carrying the
central twist exp(2 pi i d/n).  End(E)-valued cochains conjugate by the
transports, so the twist location never enters any operator.

A ``Scene`` pairs one surface with one cocycle on its mesh and owns the
complexes assembled on them; every computation takes the scene, or the
one complex it uses.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _complexes
from ._complexes import DolbeaultComplex, endo_complex
from .surface import (
    ConformalSurface,
    HalfEdgeMesh,
    InputError,
    Kind,
    Reals,
    RecordFileError,
    fan_half_edges,
    read_records,
    refine,
    split_half_edges,
)

UNITARITY_TOL = 1e-10
FLATNESS_TOL = 1e-10
# Gram eigenvalues at or below this fraction of the largest (floored at 1)
# span the commutant; squared singular values, so 1e-10 here is 1e-5 there
COMMUTANT_REL_TOL = 1e-10


class RelationError(InputError):
    """Generator matrices violate the required central relation."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"generator relation violated: residual {residual:.3e} exceeds {FLATNESS_TOL:.0e}"
        )


class CocycleError(InputError):
    """Invalid cocycle data."""


@dataclass(frozen=True, eq=False)
class UnitaryCocycle:
    """Per-half-edge unitary transports with one central-twist face.

    ``transport[h]`` (complex) maps the frame at origin(h) to the frame
    at head(h); each builder writes ``transport[twin(h)]`` as its exact
    conjugate transpose, which ``validate_cocycle`` checks with ``==``.
    ``generators`` keeps the defining matrices of a cocycle on the
    4g-gon fan for serialization; refinement drops them.
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


def from_generators(
    mesh: HalfEdgeMesh, n: int, d: int, generators: Sequence[np.ndarray]
) -> UnitaryCocycle:
    """Cocycle on the 4g-gon fan realizing given U(n) generators.

    ``generators`` is (A1, B1, ..., Ag, Bg).  The matrices must satisfy
    the ascending relation product (A1 B1 A1^-1 B1^-1)...(Ag Bg Ag^-1 Bg^-1)
    = exp(2 pi i d/n) I to ``FLATNESS_TOL``, the flatness gate of the
    last face, whose holonomy is that product.  Transports: generator
    matrices on the sides and, on the spokes, the recursion that makes
    every fan face flat; the twist lands on the last face.  The spoke
    recursion forms the relation product, and it is gated there.
    """
    g = mesh.genus
    if len(generators) != 2 * g:
        raise CocycleError(f"need {2 * g} generators for genus {g}")
    if g < 2 or mesh.n_vertices != 2 or not all(map(np.array_equal, (mesh.origin, mesh.twin), fan_half_edges(g))):
        raise CocycleError(
            "generator cocycles live on the 4g-gon fan; build them there and refine both together"
        )
    gens = [np.asarray(G, dtype=complex) for G in generators]
    eye = np.eye(n)
    for G in gens:
        if G.shape != (n, n):
            raise CocycleError("generator size mismatch")
        if np.linalg.norm(G.conj().T @ G - eye) > UNITARITY_TOL:
            raise CocycleError("generator is not unitary")
    S = 4 * g
    # side s of block b = s // 4 carries (Bj^-1, Aj^-1, Bj, Aj)[s % 4] with
    # j = g - b, so the last-face holonomy is the ascending commutator
    # product; side s and its twin s XOR 2 carry exact inverses.
    A, B = np.stack(gens[0::2]), np.stack(gens[1::2])
    side = np.stack([B.conj().swapaxes(1, 2), A.conj().swapaxes(1, 2), B, A], axis=1)[::-1].reshape(S, n, n)
    # spokes: S_0 = I and S_{i+1} = W_i S_i keeps faces 0..S-2 exactly flat;
    # the last face then carries the full relation product, the last spoke
    spokes = np.empty((S + 1, n, n), dtype=complex)
    spokes[0] = eye
    for i in range(S):
        spokes[i + 1] = side[i] @ spokes[i]
    residual = float(np.linalg.norm(spokes[S] - cmath.exp(2j * cmath.pi * d / n) * eye))
    if residual > FLATNESS_TOL:
        raise RelationError(residual)
    # face i is (S_i, side_i, S_{i+1}^H), and the last face closes on S_0
    spokes[S] = spokes[0]
    U = np.stack([spokes[:S], side, np.conj(np.swapaxes(spokes[1:], 1, 2))], axis=1).reshape(3 * S, n, n)
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
    U = np.broadcast_to(np.eye(n, dtype=complex), (H, n, n)).copy()
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


def refine_cocycle(c: UnitaryCocycle) -> UnitaryCocycle:
    """Pull a cocycle back through one 1-to-4 refinement of its mesh:
    the result lives on ``surface.refine(c.mesh)``.

    Each parent edge splits once, in its canonical direction h < twin(h),
    into (U[h], I), and the reverse halves carry the conjugate
    transposes.  The midline of each corner face closes it exactly, and
    the central face carries the reverse midlines.  The central child
    face inherits the parent holonomy, so the twist moves to the central
    child of the old marked face.
    """
    mesh, n = c.mesh, c.rank
    H = mesh.n_half_edges
    tw = mesh.twin
    first, second = split_half_edges(H)
    lo = (np.arange(H) < tw)[:, None, None]
    eye = np.eye(n)
    U = np.empty((4 * H, n, n), dtype=complex)
    U[first] = np.where(lo, c.transport, eye)
    U[second] = np.where(lo, eye, np.conj(np.swapaxes(c.transport[tw], 1, 2)))
    faces = U.reshape(mesh.n_faces, 4, 3, n, n)
    # corner face k: (v_k -> m_k) @ (m_{k-1} -> v_k), inverted, closes it
    # exactly; central half-edge j twins the midline of corner j + 1
    faces[:, :3, 1] = np.conj(np.swapaxes(faces[:, :3, 0] @ faces[:, :3, 2], -1, -2))
    faces[:, 3] = np.conj(np.swapaxes(faces[:, [1, 2, 0], 1], -1, -2))
    out = UnitaryCocycle(
        mesh=refine(mesh),
        rank=n,
        degree=c.degree,
        transport=U,
        marked_face=4 * c.marked_face + 3,
    )
    validate_cocycle(out)
    return out


def _commutant(c: UnitaryCocycle) -> np.ndarray:
    """Orthonormal basis (columns, row-major vec) of the matrices X with
    U X = X U for every transport: the null space of the n^2 x n^2 Gram
    matrix sum_h A_h^H A_h, A_h = U_h (x) I - I (x) U_h^T, summed over
    the distinct transports (keyed by their bytes; repeats would only
    reweight it).  A_h^H A_h = 2 I - M_h - M_h^H, M_h = U_h (x) conj U_h,
    and sum_h M_h is one product of the stacked transports."""
    n = c.rank
    U = np.ascontiguousarray(c.transport)
    keys = U.reshape(len(U), -1).view(f"V{U[0].nbytes}")[:, 0]
    U = U[np.unique(keys, return_index=True)[1]].reshape(-1, n * n)
    M = (U.T @ np.conj(U)).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    G = 2 * len(U) * np.eye(n * n) - (M + M.conj().T)
    lam, vecs = np.linalg.eigh(G)
    k = int(np.sum(lam <= COMMUTANT_REL_TOL * max(float(lam[-1]), 1.0)))
    return vecs[:, :k]


# ---------------------------------------------------------------------------
# the scene


def operators(S: ConformalSurface, c: UnitaryCocycle) -> DolbeaultComplex:
    """The End(E)-valued complex of ``c`` on a surface.  Its exact kernel,
    the covariant constants, is the commutant at every vertex: an X that
    commutes with every transport satisfies U X U^H = X on every edge."""
    return endo_complex(S, c.transport, _commutant(c))


@dataclass(frozen=True, eq=False)
class Scene:
    """One conformal surface with one flat cocycle on its mesh, and the
    complexes built on them.

    Each of the two complexes is assembled on first use and kept for the
    life of the scene, with its factorization: ``endo`` (End(E)-valued
    cochains) and ``tangent`` (vector fields to Beltrami coefficients).
    Nothing outlives the scene, so dropping it frees the surface with
    its geometry, the complexes and their LUs.
    """

    surface: ConformalSurface
    cocycle: UnitaryCocycle

    def __post_init__(self):
        if self.cocycle.mesh is not self.surface.mesh:
            raise CocycleError("cocycle and surface live on different meshes")

    @functools.cached_property
    def endo(self) -> DolbeaultComplex:
        return operators(self.surface, self.cocycle)

    @functools.cached_property
    def tangent(self) -> DolbeaultComplex:
        return _complexes.tangent_complex(self.surface)


# ---------------------------------------------------------------------------
# serialization


def generator_names(genus: int) -> tuple:
    """``a1, b1, ..., ag, bg``: the names of the generators (A1, B1, ...,
    Ag, Bg) of ``from_generators``, in relation order."""
    return tuple(f"{x}{j}" for j in range(1, genus + 1) for x in "ab")


def save_cocycle(c: UnitaryCocycle, path) -> None:
    """Write ``cocycle n d``, ``gen <name> <2 n^2 reals>`` per generator and ``twist <face>``."""
    if c.generators is None:
        raise CocycleError("only generator-built cocycles serialize")
    with open(path, "w") as fh:
        fh.write(f"cocycle {c.rank} {c.degree}\n")
        for name, G in zip(generator_names(c.mesh.genus), c.generators):
            nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in G.ravel())
            fh.write(f"gen {name} {nums}\n")
        fh.write(f"twist {c.marked_face}\n")


def load_cocycle(mesh: HalfEdgeMesh, path) -> UnitaryCocycle:
    """Build the cocycle of a generator file written by ``save_cocycle``
    on the fan ``mesh``; ``surface.read_records`` lists what it rejects.
    Each of a1, b1, ..., ag, bg needs one ``gen`` record, and ``twist``
    must name the face that ``from_generators`` marks."""
    names = generator_names(mesh.genus)

    def body(head):
        return {"gen": Kind((names, Reals(2 * head[0] ** 2))), "twist": Kind(("integer",))}

    records = read_records(path, "cocycle", Kind(("count", "integer")), body)
    n, d = records["cocycle"][1]
    c = from_generators(mesh, n, d, [records["gen"][x][1][1].view(complex).reshape(n, n) for x in names])
    line, (twist,) = records["twist"]
    if twist != c.marked_face:
        raise RecordFileError(f"twist face {twist} is not the marked face {c.marked_face}", line)
    return c
