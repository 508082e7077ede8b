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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


class InputError(Exception):
    """A malformed config or input file; the CLI reports it and exits 2."""


class MeshError(InputError):
    """Invalid mesh combinatorics."""


class ChartError(InputError):
    """Degenerate or inconsistent chart data."""


@dataclass(frozen=True, eq=False)
class HalfEdgeMesh:
    """Closed oriented triangulated surface of genus >= 1.

    ``origin[h]`` is the source vertex of half-edge ``h``; ``twin[h]`` the
    oppositely oriented mate; ``next`` of ``3f+k`` is ``3f+(k+1)%3``
    (``next_index``).  ``layout`` optionally carries per-face corner
    positions of the construction layout (the stored charts, and the
    hyperbolic density policy).  A mesh is checked once, on
    construction (``validate_mesh``).
    """

    origin: np.ndarray
    twin: np.ndarray
    genus: int
    n_vertices: int
    layout: Optional[np.ndarray] = None

    def __post_init__(self):
        validate_mesh(self)

    @property
    def n_half_edges(self) -> int:
        return self.origin.shape[0]

    @property
    def n_faces(self) -> int:
        return self.origin.shape[0] // 3

    @property
    def n_edges(self) -> int:
        return self.origin.shape[0] // 2

    def edge_index(self) -> np.ndarray:
        """Undirected edge id per half-edge (shared with the twin): edges
        numbered in the order of their lower half-edge."""
        lower = np.minimum(np.arange(self.n_half_edges), self.twin)
        return (np.cumsum(lower == np.arange(self.n_half_edges)) - 1)[lower]


def next_index(n_half_edges: int) -> np.ndarray:
    """``next`` of every half-edge: ``3f+k -> 3f+(k+1)%3``."""
    h = np.arange(n_half_edges)
    return h - h % 3 + (h + 1) % 3


def face_tree(mesh: HalfEdgeMesh) -> tuple[list, np.ndarray]:
    """Breadth-first search over the faces of a mesh from face 0, one
    level at a time, across twins.

    Face f reaches the faces of ``twin[3f]``, ``twin[3f+1]`` and
    ``twin[3f+2]`` in that order.  Each level scans its frontier in queue
    order and a newly found face keeps the first half-edge that reaches
    it, so the levels and the tree are those of a FIFO queue.  Returns
    the levels (face arrays, face 0 first) and the tree half-edge of
    every face (-1 for face 0 and unreached faces).
    """
    dst = mesh.twin // 3
    tree = np.full(mesh.n_faces, -1, dtype=np.int64)
    seen = np.zeros(mesh.n_faces, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    levels = []
    while frontier.size:
        levels.append(frontier)
        slots = (3 * frontier[:, None] + np.arange(3)).reshape(-1)
        slots = slots[~seen[dst[slots]]]
        _, first = np.unique(dst[slots], return_index=True)
        slots = slots[np.sort(first)]
        frontier = dst[slots]
        seen[frontier] = True
        tree[frontier] = slots
    return levels, tree


def _cycle_minima(perm: np.ndarray, longest: int) -> np.ndarray:
    """The smallest element of the cycle of every element of a permutation
    whose cycles have at most ``longest`` elements, by pointer doubling."""
    low, step = np.arange(perm.size), perm
    for _ in range(max(longest - 1, 0).bit_length()):
        low, step = np.minimum(low, low[step]), step[step]
    return low


def validate_mesh(mesh: HalfEdgeMesh) -> None:
    """Raise MeshError unless the mesh is a closed, connected, oriented
    triangulation whose Euler characteristic matches its genus: its faces
    are connected across twins, and the half-edges leaving each vertex
    form one cycle (one fan, a disk) of h -> twin(prev(h))."""
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
    nxt = next_index(H)
    if not np.array_equal(org[tw], org[nxt]):
        raise MeshError("twin endpoints inconsistent (orientation broken)")
    degree = np.bincount(org, minlength=mesh.n_vertices)
    if degree.min() == 0:
        raise MeshError("unused vertex indices")
    levels, _ = face_tree(mesh)
    if sum(lvl.size for lvl in levels) != mesh.n_faces:
        raise MeshError("mesh is not connected")
    # h -> twin(prev(h)) keeps the origin, so a cycle is no longer than a degree
    first = np.flatnonzero(_cycle_minima(tw[nxt[nxt]], int(degree.max())) == ar)
    if first.size != mesh.n_vertices:
        fans = np.bincount(org[first], minlength=mesh.n_vertices)
        v = int(np.argmax(fans > 1))
        raise MeshError(f"vertex {v} is not a disk: the half-edges leaving it form {fans[v]} fans, not one")
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_faces
    if euler != 2 - 2 * mesh.genus:
        raise MeshError(
            f"Euler characteristic {euler} does not match genus {mesh.genus}"
        )


class UnsupportedGenusError(MeshError):
    """Polygon gluing requires genus at least 2."""


def _regular_polygon_radius(genus: int) -> float:
    # regular hyperbolic 4g-gon with interior angle 2*pi/(4g); the
    # center-to-vertex distance d satisfies cosh d = cot^2(pi/(4g)).
    a = math.pi / (4 * genus)
    c = 1.0 / math.tan(a) ** 2
    return math.sqrt((c - 1.0) / (c + 1.0))  # tanh(d/2)


def fan_half_edges(genus: int) -> tuple[np.ndarray, np.ndarray]:
    """``origin`` and ``twin`` of the fan-triangulated 4g-gon gluing
    (``build_polygon_gluing``), by index arithmetic: face i has the
    half-edges (spoke_i, side_i, reversed spoke_{i+1}), and side s is
    glued to side s XOR 2."""
    S = 4 * genus  # polygon sides = fan faces
    i = np.arange(S)
    origin = np.tile(np.array([0, 1, 1], dtype=np.int64), S)
    twin = np.empty(3 * S, dtype=np.int64)
    twin[0::3] = 3 * ((i - 1) % S) + 2  # spoke_i appears reversed in face i-1
    twin[2::3] = 3 * ((i + 1) % S)
    twin[1::3] = 3 * (i ^ 2) + 1  # side s glued to side s XOR 2
    return origin, twin


def build_polygon_gluing(genus: int) -> HalfEdgeMesh:
    """Standard 4g-gon gluing, fan-triangulated from a center vertex.

    Vertices: 0 = center, 1 = the single glued boundary vertex.  Face i
    is the triangle (center, corner_i, corner_{i+1}); its half-edges are
    (spoke_i, side_i, reversed spoke_{i+1}).  Side pairing glues side s
    with side s+2 inside each block of four; ``bundle.from_generators``
    places the generators on the sides.

    The mesh carries a layout: the regular hyperbolic 4g-gon in the
    Poincare disk (corners at the radius where the angle sum closes up),
    fan-triangulated from the origin.
    """
    if genus < 2:
        raise UnsupportedGenusError(f"genus must be >= 2, got {genus}")
    S = 4 * genus
    origin, twin = fan_half_edges(genus)
    R = _regular_polygon_radius(genus)
    # corners one scalar exp at a time: a vectorized exp may round differently
    corners = np.array([R * cmath.exp(2j * math.pi * k / S) for k in range(S)])
    layout = np.stack([np.zeros(S, dtype=complex), corners, np.roll(corners, -1)], axis=1)
    return HalfEdgeMesh(origin=origin, twin=twin, genus=genus, n_vertices=2, layout=layout)


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
    layout = None
    if mesh.layout is not None:
        z = mesh.layout
        layout = _children(z, (z + np.roll(z, -1, axis=1)) / 2.0)
    return HalfEdgeMesh(
        origin=origin,
        twin=twin,
        genus=mesh.genus,
        n_vertices=V + H // 2,
        layout=layout,
    )


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

    The record also carries the geometry its complexes read: the P1
    gradients ``grad_bar`` and the chart transport ``face_spin``,
    computed on first use and kept, and the lumped vertex sums ``lumped``.
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

    @property
    def corner_vertex(self) -> np.ndarray:
        """(F,3) vertex of corner k of face f."""
        return self.mesh.origin.reshape(-1, 3)

    @functools.cached_property
    def grad_bar(self) -> np.ndarray:
        """(F,3) dbar of the P1 hat functions; d is its conjugate.  On a
        chart triangle (z0,z1,z2) with signed area S,
        grad phi_k = i (z_{k+2} - z_{k+1}) / (2S) as gx + i gy, hence
        dbar phi_k = grad/2 and d phi_k = conj(grad)/2."""
        z, S = self.chart, self.area
        grad = np.zeros((self.n_faces, 3), dtype=complex)
        for k in range(3):
            grad[:, k] = 1j * (z[:, (k + 2) % 3] - z[:, (k + 1) % 3]) / (2.0 * S)
        return grad / 2.0

    @functools.cached_property
    def face_spin(self) -> np.ndarray:
        """(F,) unit complex chart transport from face 0 along a BFS tree
        over face adjacency: tangent coefficients in chart(f) equal
        face_spin[f]/face_spin[f'] times their expression in chart(f')
        along tree paths."""
        mesh = self.mesh  # face-connected: validate_mesh checks it
        levels, tree = face_tree(mesh)
        face_spin = np.zeros(mesh.n_faces, dtype=complex)
        face_spin[0] = 1.0
        for lvl in levels[1:]:
            h = tree[lvl]
            r, s = self.edge_rotation[h], face_spin[h // 3]
            # the product written out, as the scalar product rounds it: numpy's
            # vectorized complex multiply may fuse multiply-adds
            face_spin[lvl] = (r.real * s.real - r.imag * s.imag) + 1j * (r.real * s.imag + r.imag * s.real)
        return face_spin

    def lumped(self, per_face: np.ndarray) -> np.ndarray:
        """(V,) sum of per_face/3 over the corners at each vertex."""
        return np.bincount(self.mesh.origin, weights=np.repeat(per_face / 3.0, 3), minlength=self.n_vertices)


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
    density at the stored-layout barycenter (requires layout "stored").
    """
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
    if not np.all(np.isfinite(area) & (area > 0.0)):
        raise ChartError("degenerate, non-finite or negatively oriented chart triangle")
    if density == "uniform":
        rho = np.ones(F)
    elif density == "hyperbolic":
        if layout != "stored":
            raise ChartError(f"hyperbolic density requires the stored layout, got layout {layout!r}")
        bary = np.mean(mesh.layout, axis=1)
        r2 = np.abs(bary) ** 2
        if np.any(r2 >= 1.0):
            raise ChartError("stored layout leaves the unit disk")
        rho = 4.0 / (1.0 - r2) ** 2
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
# line-record files: one ``kind field ...`` record per line, ``#`` comments


class RecordFileError(InputError):
    """A line-record file that cannot be read exactly; ``line`` is the offending line or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class Reals(int):
    """A field of that many finite reals, read as one float array."""


class Kind(NamedTuple):
    """The fields of one record kind, after its name (see ``read_records``)."""

    fields: tuple
    required: bool = True


def _keys(kind: Kind):
    return kind.fields[0] if isinstance(kind.fields[0], (range, tuple)) else (None,)


def _value(field, tokens: list):
    if isinstance(field, tuple):
        if tokens[0] not in field:
            raise ValueError(f"name {tokens[0][:40]!r} is not one of {', '.join(field)}")
        return tokens[0]
    reals = isinstance(field, Reals)
    try:
        x = np.array([float(t) for t in tokens]) if reals else int(tokens[0])
    except ValueError:
        raise ValueError(f"non-{'numeric' if reals else 'integer'} entry in {' '.join(tokens)[:40]!r}") from None
    if reals and not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite entry in {' '.join(tokens)[:40]!r}")
    if field == "count" and x < 1 or isinstance(field, range) and x not in field:
        raise ValueError(f"{x} is out of range {'1..' if field == 'count' else f'0..{len(field) - 1}'}")
    return x


def read_records(path, header: str, head: Kind, body) -> dict:
    """The records of a line-record file: ``{key: (line, values)}`` for a
    kind keyed by its first field (a range of ids or a tuple of names),
    ``(line, values)`` for any other kind.

    Fields are ``"count"`` (positive), ``"integer"``, ranges, name tuples
    and ``Reals``; a kind that is not ``required`` may be absent.  The
    first record is ``header`` with fields ``head``; ``body(values)``
    gives the other kinds, raising ValueError on inconsistent values.

    One RecordFileError, naming the line, rejects an unknown record, a
    wrong field count, a non-numeric or non-finite entry, a count or id
    out of range, a name outside its set, a repeated key (or unkeyed
    record) and, after the last line, a missing record (naming its key).
    """
    kinds, out = {header: head}, {}
    with open(path, errors="replace") as fh:  # an undecodable byte reads as an unknown token
        for line, raw in enumerate(fh, start=1):
            name, *tokens = raw.split() or ["#"]
            if name.startswith("#"):
                continue
            kind = kinds.get(name)
            if kind is None:
                where = "" if out else f" before {header!r}"
                raise RecordFileError(f"unknown record {name!r}{where}", line)
            widths = [f if isinstance(f, Reals) else 1 for f in kind.fields]
            if len(tokens) != sum(widths):
                raise RecordFileError(f"{name} record needs {sum(widths)} fields, got {len(tokens)}", line)
            ends = np.cumsum(widths)
            try:
                values = [_value(f, tokens[e - w : e]) for f, e, w in zip(kind.fields, ends, widths)]
                if not out:
                    kinds.update(body(values))
            except ValueError as e:
                raise RecordFileError(f"{name} record: {e}", line) from None
            key = None if _keys(kind) == (None,) else values[0]
            if key in out.get(name, ()):
                raise RecordFileError(f"repeated {name} record" + ("" if key is None else f" for {key}"), line)
            out.setdefault(name, {})[key] = (line, values)
    for name, kind in kinds.items():
        if name in out or kind.required:
            for key in _keys(kind):
                if key not in out.get(name, ()):
                    raise RecordFileError(f"missing {name} record" + ("" if key is None else f" for {key}"))
            out[name] = out[name].get(None, out[name])
    return out


def save_mesh(mesh: HalfEdgeMesh, path) -> None:
    """Write ``surf V E F genus``, one ``he h origin twin next face``
    record per half-edge and, when the mesh has a layout, one ``layout f
    z0re z0im z1re z1im z2re z2im`` record per face in repr floats."""
    nxt = next_index(mesh.n_half_edges)
    with open(path, "w") as fh:
        fh.write(f"surf {mesh.n_vertices} {mesh.n_edges} {mesh.n_faces} {mesh.genus}\n")
        for h in range(mesh.n_half_edges):
            fh.write(f"he {h} {int(mesh.origin[h])} {int(mesh.twin[h])} {int(nxt[h])} {h // 3}\n")
        for f, z in enumerate([] if mesh.layout is None else np.asarray(mesh.layout, dtype=complex)):
            fh.write(f"layout {f} " + " ".join(repr(float(x)) for x in z.view(float)) + "\n")


def load_mesh(path) -> HalfEdgeMesh:
    """Read a mesh written by ``save_mesh``; ``read_records`` lists what
    it rejects.  The header must describe a closed triangulated surface
    (2E = 3F and V - E + F = 2 - 2 genus), the half-edges come three per
    face with cyclic ``next``, and the layout covers every face or none."""

    def body(header):
        V, E, F, genus = header
        if 2 * E != 3 * F or V - E + F != 2 - 2 * genus:
            raise ValueError(f"V, E, F = {V}, {E}, {F} do not close up to a surface of genus {genus}")
        he = Kind((range(3 * F), range(V), range(3 * F), "integer", "integer"))
        return {"he": he, "layout": Kind((range(F), Reals(6)), required=False)}

    records = read_records(path, "surf", Kind(("count",) * 4), body)
    V, _, F, genus = records["surf"][1]
    he, layout = records["he"], records.get("layout")
    for h, (line, (_, _, _, nxt, face)) in he.items():
        if face != h // 3 or nxt != 3 * (h // 3) + (h + 1) % 3:
            raise RecordFileError("half-edges must be grouped 3 per face with cyclic next", line)
    origin, twin = np.array([[he[h][1][k] for h in range(3 * F)] for k in (1, 2)], dtype=np.int64)
    if layout is not None:
        layout = np.array([layout[f][1][1] for f in range(F)]).view(complex)
    return HalfEdgeMesh(origin=origin, twin=twin, genus=genus, n_vertices=V, layout=layout)
