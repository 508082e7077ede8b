"""Triangulated closed oriented surfaces with per-face conformal charts.

Meshes are stored in a flat half-edge layout: face ``f`` owns half-edges
``3f, 3f+1, 3f+2`` in boundary order, so ``next`` is implicit modulo the
stored array and every face is a triangle by construction.  Charts are
per-face complex corner positions; adjacent charts are related across
each interior edge by a unit rotation (plus a translation, which the
calculus never needs).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class MeshError(Exception):
    """Invalid mesh combinatorics."""


class MeshFileError(MeshError):
    """Malformed mesh or conformal-data file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ChartError(Exception):
    """Degenerate or inconsistent chart data."""


@dataclass(frozen=True, eq=False)
class RefinementRecord:
    """Links a refined mesh to its parent (needed to pull back transports)."""

    parent: "HalfEdgeMesh"
    edge_mid: np.ndarray  # (H_parent,) midpoint vertex id per parent half-edge


@dataclass(frozen=True, eq=False)
class HalfEdgeMesh:
    """Closed oriented triangulated surface of genus >= 1.

    ``origin[h]`` is the source vertex of half-edge ``h``; ``twin[h]`` the
    oppositely oriented mate; ``next`` of ``3f+k`` is ``3f+(k+1)%3``.
    ``labels`` marks the positively-directed generator half-edges of a
    polygon gluing (``a1``, ``b1``, ...).  ``layout`` optionally carries
    per-face corner positions of the construction layout (used for the
    hyperbolic density policy); it is not serialized.
    """

    origin: np.ndarray
    twin: np.ndarray
    genus: int
    n_vertices: int
    labels: dict = field(default_factory=dict)
    layout: Optional[np.ndarray] = None
    refinement: Optional[RefinementRecord] = None

    @property
    def n_half_edges(self) -> int:
        return self.origin.shape[0]

    @property
    def n_faces(self) -> int:
        return self.origin.shape[0] // 3

    @property
    def n_edges(self) -> int:
        return self.origin.shape[0] // 2

    def next_he(self, h: int) -> int:
        return 3 * (h // 3) + (h + 1) % 3

    def head(self, h: int) -> int:
        return int(self.origin[self.next_he(h)])

    def face_of(self, h: int) -> int:
        return h // 3

    def face_half_edges(self, f: int) -> tuple[int, int, int]:
        return (3 * f, 3 * f + 1, 3 * f + 2)

    def face_vertices(self, f: int) -> tuple[int, int, int]:
        return (int(self.origin[3 * f]), int(self.origin[3 * f + 1]), int(self.origin[3 * f + 2]))

    def edge_index(self) -> np.ndarray:
        """Undirected edge id per half-edge (shared with the twin)."""
        reps = np.minimum(np.arange(self.n_half_edges), self.twin)
        uniq = np.flatnonzero(reps == np.arange(self.n_half_edges))
        lookup = np.full(self.n_half_edges, -1, dtype=np.int64)
        lookup[uniq] = np.arange(uniq.size)
        return lookup[reps]

    def same_combinatorics(self, other: "HalfEdgeMesh") -> bool:
        return (
            self.genus == other.genus
            and self.n_vertices == other.n_vertices
            and np.array_equal(self.origin, other.origin)
            and np.array_equal(self.twin, other.twin)
            and self.labels == other.labels
        )


def next_index(n_half_edges: int) -> np.ndarray:
    """``next`` of every half-edge: ``3f+k -> 3f+(k+1)%3``."""
    h = np.arange(n_half_edges)
    return h - h % 3 + (h + 1) % 3


def vertex_adjacency(mesh: HalfEdgeMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outgoing half-edges of every vertex in increasing order, as CSR:
    vertex v leaves along ``half_edges[indptr[v]:indptr[v+1]]`` to the
    vertices ``heads`` at the same slots."""
    counts = np.bincount(mesh.origin, minlength=mesh.n_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    half_edges = np.argsort(mesh.origin, kind="stable")
    return indptr, half_edges, mesh.origin[next_index(mesh.n_half_edges)][half_edges]


def bfs_tree(indptr: np.ndarray, dst: np.ndarray) -> tuple[list, np.ndarray]:
    """Breadth-first search from node 0 of a graph in CSR form, one level
    at a time.

    Node u reaches ``dst[indptr[u]:indptr[u+1]]`` in that order.  Each
    level scans its frontier in queue order and a newly found node keeps
    the first slot that reaches it, so the levels and the tree are those
    of a FIFO queue.  Returns the levels (node arrays, node 0 first) and
    the tree slot of every node (-1 for node 0 and unreached nodes).
    """
    n = indptr.shape[0] - 1
    tree = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    levels = []
    while frontier.size:
        levels.append(frontier)
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        slots = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
        slots = slots[~seen[dst[slots]]]
        _, first = np.unique(dst[slots], return_index=True)
        slots = slots[np.sort(first)]
        frontier = dst[slots]
        seen[frontier] = True
        tree[frontier] = slots
    return levels, tree


def validate_mesh(mesh: HalfEdgeMesh) -> None:
    """Raise MeshError unless the mesh is a closed, connected, oriented
    triangulation whose Euler characteristic matches its genus."""
    H = mesh.n_half_edges
    if H == 0 or H % 3 != 0:
        raise MeshError("half-edge count must be a positive multiple of 3")
    if H % 2 != 0:
        raise MeshError("half-edge count must be even (closed surface)")
    tw, org = mesh.twin, mesh.origin
    if tw.shape != (H,) or org.shape != (H,):
        raise MeshError("array length mismatch")
    if tw.min() < 0 or tw.max() >= H:
        raise MeshError("twin index out of range (boundary half-edge?)")
    if org.min() < 0 or org.max() >= mesh.n_vertices:
        raise MeshError("origin vertex index out of range")
    ar = np.arange(H)
    if np.any(tw == ar):
        raise MeshError("half-edge is its own twin")
    if not np.array_equal(tw[tw], ar):
        raise MeshError("twin is not an involution (non-manifold edge)")
    # twins traverse the same edge in opposite directions
    head = org[next_index(H)]
    if not np.array_equal(org[tw], head):
        raise MeshError("twin endpoints inconsistent (orientation broken)")
    # every vertex is used
    if np.unique(org).size != mesh.n_vertices:
        raise MeshError("unused vertex indices")
    indptr, _, heads = vertex_adjacency(mesh)
    levels, _ = bfs_tree(indptr, heads)
    if sum(lvl.size for lvl in levels) != mesh.n_vertices:
        raise MeshError("mesh is not connected")
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_faces
    if euler != 2 - 2 * mesh.genus:
        raise MeshError(
            f"Euler characteristic {euler} does not match genus {mesh.genus}"
        )
    for label, h in mesh.labels.items():
        if not (0 <= h < H):
            raise MeshError(f"label {label} marks invalid half-edge {h}")


class UnsupportedGenusError(MeshError):
    """Polygon gluing requires genus at least 2."""


def _regular_polygon_radius(genus: int) -> float:
    # regular hyperbolic 4g-gon with interior angle 2*pi/(4g); the
    # center-to-vertex distance d satisfies cosh d = cot^2(pi/(4g)).
    a = math.pi / (4 * genus)
    c = 1.0 / math.tan(a) ** 2
    return math.sqrt((c - 1.0) / (c + 1.0))  # tanh(d/2)


def build_polygon_gluing(genus: int) -> HalfEdgeMesh:
    """Standard 4g-gon gluing, fan-triangulated from a center vertex.

    Vertices: 0 = center, 1 = the single glued boundary vertex.  Face i
    is the triangle (center, corner_i, corner_{i+1}); its half-edges are
    (spoke_i, side_i, reversed spoke_{i+1}).  Side pairing glues side s
    with side s+2 inside each block of four, realizing the relation word
    whose ordered product around the last face is
    (A1 B1 A1^-1 B1^-1)...(Ag Bg Ag^-1 Bg^-1).

    The mesh carries a layout: the regular hyperbolic 4g-gon in the
    Poincare disk (corners at the radius where the angle sum closes up),
    fan-triangulated from the origin.
    """
    if genus < 2:
        raise UnsupportedGenusError(f"genus must be >= 2, got {genus}")
    g = genus
    S = 4 * g  # polygon sides = fan faces
    H = 3 * S
    origin = np.zeros(H, dtype=np.int64)
    twin = np.full(H, -1, dtype=np.int64)
    # face i half-edges: 3i: center->corner_i (spoke_i), 3i+1: corner_i->corner_{i+1}
    # (side_i), 3i+2: corner_{i+1}->center (reversed spoke_{i+1}).
    for i in range(S):
        origin[3 * i] = 0
        origin[3 * i + 1] = 1
        origin[3 * i + 2] = 1
    for i in range(S):
        j = (i - 1) % S
        twin[3 * i] = 3 * j + 2  # spoke_i appears reversed in face i-1
        twin[3 * j + 2] = 3 * i
    for b in range(g):
        s0 = 4 * b
        for (sa, sb) in ((s0, s0 + 2), (s0 + 1, s0 + 3)):
            twin[3 * sa + 1] = 3 * sb + 1
            twin[3 * sb + 1] = 3 * sa + 1
    # generator labels: block base 4(g-j) carries (Bj^-1, Aj^-1, Bj, Aj)
    # on sides base..base+3, so the last-face holonomy is the ascending
    # commutator product.
    labels = {}
    for j in range(1, g + 1):
        base = 4 * (g - j)
        labels[f"a{j}"] = 3 * (base + 3) + 1
        labels[f"b{j}"] = 3 * (base + 2) + 1
    R = _regular_polygon_radius(g)
    corners = np.array([R * cmath.exp(2j * math.pi * i / S) for i in range(S)])
    layout = np.zeros((S, 3), dtype=complex)
    for i in range(S):
        layout[i] = (0.0, corners[i], corners[(i + 1) % S])
    mesh = HalfEdgeMesh(
        origin=origin, twin=twin, genus=g, n_vertices=2, labels=labels, layout=layout
    )
    validate_mesh(mesh)
    return mesh


def split_half_edges(n_half_edges: int) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of every parent half-edge under ``refine``: the
    child leaving its origin and the child entering its head."""
    f, k = np.divmod(np.arange(n_half_edges), 3)
    return 12 * f + 3 * k, 12 * f + 3 * ((k + 1) % 3) + 2


def _children(corners: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """(F,3) corner and (F,3) midpoint entries -> (4F,3) child faces
    (c_k, m_k, m_{k-1}) for k = 0, 1, 2, then (m_0, m_1, m_2)."""
    out = np.empty((corners.shape[0], 4, 3), dtype=np.result_type(corners, mids))
    out[:, :3, 0] = corners
    out[:, :3, 1] = mids
    out[:, :3, 2] = np.roll(mids, 1, axis=1)
    out[:, 3] = mids
    return out.reshape(-1, 3)


def refine(mesh: HalfEdgeMesh) -> HalfEdgeMesh:
    """1-to-4 triangle subdivision (one new vertex per edge).

    Children of face f (corners v0,v1,v2, midpoints m_k on half-edge
    3f+k) are, in order: (v0,m0,m2), (v1,m1,m0), (v2,m2,m1) and the
    central (m0,m1,m2).  Genus and layout shape are preserved.
    """
    validate_mesh(mesh)
    H, F, V = mesh.n_half_edges, mesh.n_faces, mesh.n_vertices
    edge_mid = V + mesh.edge_index()  # (H,) midpoint vertex per half-edge
    origin = _children(mesh.origin.reshape(F, 3), edge_mid.reshape(F, 3)).reshape(-1)
    # halves of parent edges: first half of h twins second half of twin(h)
    first, second = split_half_edges(H)
    twin = np.empty(4 * H, dtype=np.int64)
    twin[first] = second[mesh.twin]
    twin[second] = first[mesh.twin]
    # midline twins: corner-face he1 (m_k -> m_{k-1}) pairs with the
    # central he (m_{k-1} -> m_k)
    f, k = np.divmod(np.arange(H), 3)
    central = 12 * f + 9 + (k + 2) % 3
    twin[first + 1] = central
    twin[central] = first + 1
    labels = {name: int(first[h]) for name, h in mesh.labels.items()}  # the first segment
    layout = None
    if mesh.layout is not None:
        z = mesh.layout
        layout = _children(z, (z + np.roll(z, -1, axis=1)) / 2.0)
    out = HalfEdgeMesh(
        origin=origin,
        twin=twin,
        genus=mesh.genus,
        n_vertices=V + H // 2,
        labels=labels,
        layout=layout,
        refinement=RefinementRecord(parent=mesh, edge_mid=edge_mid),
    )
    validate_mesh(out)
    return out


def mesh_from_faces(faces, genus: int, layout: Optional[np.ndarray] = None) -> HalfEdgeMesh:
    """Build a half-edge mesh from (v0,v1,v2) triples.

    Each undirected vertex pair must be shared by exactly two faces with
    opposite orientations (used by the torus cross-check harness; the
    polygon gluings have multi-edges and cannot be expressed this way).
    """
    faces = [tuple(int(v) for v in f) for f in faces]
    F = len(faces)
    H = 3 * F
    origin = np.zeros(H, dtype=np.int64)
    for f, (a, b, c) in enumerate(faces):
        origin[3 * f] = a
        origin[3 * f + 1] = b
        origin[3 * f + 2] = c
    directed: dict[tuple[int, int], int] = {}
    for f, (a, b, c) in enumerate(faces):
        for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            if (p, q) in directed:
                raise MeshError(f"duplicate directed edge {(p, q)}")
            directed[(p, q)] = 3 * f + k
    twin = np.full(H, -1, dtype=np.int64)
    for (p, q), h in directed.items():
        t = directed.get((q, p))
        if t is None:
            raise MeshError(f"boundary edge {(p, q)} in closed mesh")
        twin[h] = t
    n_vertices = int(origin.max()) + 1
    mesh = HalfEdgeMesh(
        origin=origin, twin=twin, genus=genus, n_vertices=n_vertices, layout=layout
    )
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# conformal structure


@dataclass(frozen=True, eq=False)
class ConformalSurface:
    """Mesh with per-face charts, unit edge rotations and a density.

    ``chart[f]`` are the three corner positions of face f in its own
    chart, positively oriented.  ``edge_rotation[h]`` rotates tangent
    coefficients from chart(face(h)) to chart(face(twin(h))).
    ``density[f]`` is the positive area density rho on face f (for a
    hyperbolic-layout pullback, 1/rho plays the role of the squared
    height coordinate).
    """

    mesh: HalfEdgeMesh
    chart: np.ndarray  # (F,3) complex
    edge_rotation: np.ndarray  # (H,) complex, unit modulus
    density: np.ndarray  # (F,) float
    area: np.ndarray  # (F,) float, chart areas
    density_policy: str = "uniform"

    @property
    def n_faces(self) -> int:
        return self.mesh.n_faces

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    def total_area(self) -> float:
        return float(np.sum(self.density * self.area))


def _signed_area(z: np.ndarray) -> np.ndarray:
    return 0.5 * np.imag(np.conj(z[:, 1] - z[:, 0]) * (z[:, 2] - z[:, 0]))


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| rounded as the scalar ``abs`` rounds it (numpy's vectorized
    complex ``abs`` can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _edge_rotations(mesh: HalfEdgeMesh, chart: np.ndarray) -> np.ndarray:
    z = chart.reshape(-1)  # corner k of face f sits at 3f+k, like its half-edge
    nxt = next_index(mesh.n_half_edges)
    tw = mesh.twin
    p = z[nxt] - z  # half-edge h in its own chart
    q = z[tw] - z[nxt[tw]]  # the same edge in the twin's chart
    la, lb = _modulus(p), _modulus(q)
    zero = (la == 0.0) | (lb == 0.0)
    mismatch = np.abs(la - lb) > 1e-10 * np.maximum(la, lb)
    bad = np.flatnonzero(zero | mismatch)
    if bad.size:
        h = int(bad[0])
        if zero[h]:
            raise ChartError(f"zero-length edge in chart of face {h // 3}")
        raise ChartError(
            f"shared-edge chart lengths disagree across half-edge {h}: {la[h]} vs {lb[h]}"
        )
    r = q / p
    return r / _modulus(r)


def equip_conformal(
    mesh: HalfEdgeMesh, layout: str = "stored", density: str = "uniform"
) -> ConformalSurface:
    """Attach charts and a density to a mesh.

    layout: "stored" uses the construction layout carried by the mesh;
    "equilateral" gives every face the unit equilateral chart.
    density: "uniform" sets rho = 1; "hyperbolic" pulls back the Poincare
    density at the stored-layout barycenter (requires a stored layout).
    """
    validate_mesh(mesh)
    F = mesh.n_faces
    v = mesh.origin.reshape(F, 3)
    repeated = np.flatnonzero((v[:, 0] == v[:, 1]) | (v[:, 1] == v[:, 2]) | (v[:, 2] == v[:, 0]))
    if repeated.size:
        raise ChartError(
            f"face {int(repeated[0])} has repeated vertices; refine the mesh before equipping"
        )
    if layout == "stored":
        if mesh.layout is None:
            raise ChartError("mesh carries no stored layout")
        chart = np.array(mesh.layout, dtype=complex)
    elif layout == "equilateral":
        tri = np.array([0.0, 1.0, 0.5 + 0.5j * math.sqrt(3.0)])
        chart = np.tile(tri, (F, 1))
    else:
        raise ChartError(f"unknown layout policy {layout!r}")
    area = _signed_area(chart)
    if np.any(area <= 0.0):
        raise ChartError("degenerate or negatively oriented chart triangle")
    if density == "uniform":
        rho = np.ones(F)
    elif density == "hyperbolic":
        if mesh.layout is None:
            raise ChartError("hyperbolic density requires a stored layout")
        bary = np.mean(mesh.layout, axis=1)
        r2 = np.abs(bary) ** 2
        if np.any(r2 >= 1.0):
            raise ChartError("stored layout leaves the unit disk")
        rho = 4.0 / (1.0 - r2) ** 2
        if layout != "stored":
            raise ChartError("hyperbolic density requires the stored layout charts")
    else:
        raise ChartError(f"unknown density policy {density!r}")
    rot = _edge_rotations(mesh, chart)
    return ConformalSurface(
        mesh=mesh,
        chart=chart,
        edge_rotation=rot,
        density=rho,
        area=area,
        density_policy=density,
    )


# ---------------------------------------------------------------------------
# serialization (line-oriented text formats)


def save_mesh(mesh: HalfEdgeMesh, path) -> None:
    he_label = {h: name for name, h in mesh.labels.items()}
    with open(path, "w") as fh:
        fh.write(
            f"surf {mesh.n_vertices} {mesh.n_edges} {mesh.n_faces} {mesh.genus}\n"
        )
        for h in range(mesh.n_half_edges):
            nxt = mesh.next_he(h)
            line = f"he {h} {int(mesh.origin[h])} {int(mesh.twin[h])} {nxt} {h // 3}"
            if h in he_label:
                line += f" {he_label[h]}"
            fh.write(line + "\n")


def load_mesh(path) -> HalfEdgeMesh:
    origin = twin = None
    labels: dict[str, int] = {}
    header = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "surf":
                if len(parts) != 5:
                    raise MeshFileError("header needs V E F genus", lineno)
                try:
                    V, E, F, genus = (int(p) for p in parts[1:])
                except ValueError:
                    raise MeshFileError("non-integer header field", lineno)
                header = (V, E, F, genus)
                origin = np.full(3 * F, -1, dtype=np.int64)
                twin = np.full(3 * F, -1, dtype=np.int64)
            elif parts[0] == "he":
                if header is None:
                    raise MeshFileError("half-edge record before header", lineno)
                if len(parts) not in (6, 7):
                    raise MeshFileError("he record needs 5 integer fields", lineno)
                try:
                    h, org, tw, nxt, face = (int(p) for p in parts[1:6])
                except ValueError:
                    raise MeshFileError("non-integer he field", lineno)
                if not (0 <= h < origin.shape[0]):
                    raise MeshFileError(f"half-edge id {h} out of range", lineno)
                if face != h // 3 or nxt != 3 * (h // 3) + (h + 1) % 3:
                    raise MeshFileError(
                        "half-edges must be grouped 3 per face with cyclic next",
                        lineno,
                    )
                origin[h] = org
                twin[h] = tw
                if len(parts) == 7:
                    labels[parts[6]] = h
            else:
                raise MeshFileError(f"unknown record {parts[0]!r}", lineno)
    if header is None:
        raise MeshFileError("missing header")
    V, E, F, genus = header
    if origin is None or np.any(origin < 0) or np.any(twin < 0):
        raise MeshFileError("truncated file: missing half-edge records")
    mesh = HalfEdgeMesh(
        origin=origin, twin=twin, genus=genus, n_vertices=V, labels=labels
    )
    validate_mesh(mesh)
    if mesh.n_edges != E:
        raise MeshFileError(f"header edge count {E} != {mesh.n_edges}")
    return mesh


def save_conformal(surface: ConformalSurface, path) -> None:
    with open(path, "w") as fh:
        for f in range(surface.n_faces):
            z = surface.chart[f]
            nums = " ".join(f"{float(z[k].real)!r} {float(z[k].imag)!r}" for k in range(3))
            fh.write(f"chart {f} {nums}\n")
        for f in range(surface.n_faces):
            fh.write(f"rho {f} {float(surface.density[f])!r}\n")


def load_conformal(mesh: HalfEdgeMesh, path) -> ConformalSurface:
    F = mesh.n_faces
    chart = np.full((F, 3), np.nan, dtype=complex)
    rho = np.full(F, np.nan)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "chart" and len(parts) == 8:
                    f = int(parts[1])
                    vals = [float(p) for p in parts[2:]]
                    chart[f] = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(3)]
                elif parts[0] == "rho" and len(parts) == 3:
                    rho[int(parts[1])] = float(parts[2])
                else:
                    raise MeshFileError(f"unknown record {parts[0]!r}", lineno)
            except (ValueError, IndexError):
                raise MeshFileError("malformed conformal record", lineno)
    if np.any(np.isnan(chart)) or np.any(np.isnan(rho)):
        raise MeshFileError("missing chart or rho records")
    if np.any(rho <= 0.0):
        raise MeshFileError("density must be positive")
    area = _signed_area(chart)
    if np.any(area <= 0.0):
        raise ChartError("degenerate chart triangle in file")
    rot = _edge_rotations(mesh, chart)
    return ConformalSurface(
        mesh=mesh,
        chart=chart,
        edge_rotation=rot,
        density=rho,
        area=area,
        density_policy="file",
    )
