"""The array-at-a-time scene build against plain per-face loops.

The loop versions below are kept as the reference: they are the
straightforward statement of each construction, with FIFO queues for the
spanning trees.  Numbering and trees must agree exactly, floating-point
fields to 1e-15, and the validators must name the same first offender.
"""

import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab._complexes import corner_transports, geometry
from modulilab.surface import (
    ChartError,
    HalfEdgeMesh,
    MeshError,
    _edge_rotations,
    bfs_tree,
    equip_conformal,
    refine,
    validate_mesh,
    vertex_adjacency,
)
from test_bundle import _complex_transport_cocycle

FLOAT_TOL = 1e-15


# -- loop references ------------------------------------------------------------


def _refine_loop(mesh):
    H, F, V = mesh.n_half_edges, mesh.n_faces, mesh.n_vertices
    edge_mid = V + mesh.edge_index()
    origin = np.zeros(4 * H, dtype=np.int64)
    twin = np.full(4 * H, -1, dtype=np.int64)

    def child_he(f, c, k):
        return 12 * f + 3 * c + k

    for f in range(F):
        v = [int(mesh.origin[3 * f + k]) for k in range(3)]
        m = [int(edge_mid[3 * f + k]) for k in range(3)]
        for k in range(3):
            origin[child_he(f, k, 0)] = v[k]
            origin[child_he(f, k, 1)] = m[k]
            origin[child_he(f, k, 2)] = m[(k - 1) % 3]
            twin[child_he(f, k, 1)] = child_he(f, 3, (k + 2) % 3)
            twin[child_he(f, 3, (k + 2) % 3)] = child_he(f, k, 1)
        for k in range(3):
            origin[child_he(f, 3, k)] = m[k]
    for h in range(H):
        f, k = divmod(h, 3)
        t = int(mesh.twin[h])
        ft, kt = divmod(t, 3)
        twin[child_he(f, k, 0)] = child_he(ft, (kt + 1) % 3, 2)
        twin[child_he(ft, (kt + 1) % 3, 2)] = child_he(f, k, 0)
    labels = {name: child_he(*divmod(h, 3), 0) for name, h in mesh.labels.items()}
    layout = None
    if mesh.layout is not None:
        layout = np.zeros((4 * F, 3), dtype=complex)
        for f in range(F):
            z = mesh.layout[f]
            w = [(z[k] + z[(k + 1) % 3]) / 2.0 for k in range(3)]
            layout[4 * f + 0] = (z[0], w[0], w[2])
            layout[4 * f + 1] = (z[1], w[1], w[0])
            layout[4 * f + 2] = (z[2], w[2], w[1])
            layout[4 * f + 3] = (w[0], w[1], w[2])
    return origin, twin, labels, layout, edge_mid


def _store_loop(mesh, directed, n):
    U = np.zeros((mesh.n_half_edges, n, n), dtype=complex)
    done = np.zeros(mesh.n_half_edges, dtype=bool)
    for h in range(mesh.n_half_edges):
        if done[h]:
            continue
        t = int(mesh.twin[h])
        M = directed.get(h)
        if M is None:
            M = directed[t].conj().T
        U[h] = M
        U[t] = M.conj().T
        done[h] = done[t] = True
    return U


def _refine_cocycle_loop(c, child):
    mesh, n = c.mesh, c.rank
    H = mesh.n_half_edges

    def first_half(h):
        f, k = divmod(h, 3)
        return 12 * f + 3 * k

    def second_half(h):
        f, k = divmod(h, 3)
        return 12 * f + 3 * ((k + 1) % 3) + 2

    half = np.zeros((4 * H, n, n), dtype=complex)
    for h in range(H):
        t = int(mesh.twin[h])
        if h < t:
            half[first_half(h)] = c.transport[h]
            half[second_half(h)] = np.eye(n)
            half[first_half(t)] = np.eye(n)
            half[second_half(t)] = c.transport[h].conj().T
    directed = {}
    for h in range(H):
        directed[first_half(h)] = half[first_half(h)]
        if h < int(mesh.twin[h]):
            directed[second_half(h)] = half[second_half(h)]
    for f in range(mesh.n_faces):
        for k in range(3):
            A = half[12 * f + 3 * k]
            C = half[12 * f + 3 * k + 2]
            directed[12 * f + 3 * k + 1] = (A @ C).conj().T
    return _store_loop(child, directed, n)


def _edge_rotations_loop(mesh, chart):
    rot = np.zeros(mesh.n_half_edges, dtype=complex)
    for h in range(mesh.n_half_edges):
        f, k = divmod(h, 3)
        ft, kt = divmod(int(mesh.twin[h]), 3)
        pa, pb = chart[f, k], chart[f, (k + 1) % 3]
        qa, qb = chart[ft, kt], chart[ft, (kt + 1) % 3]
        la, lb = abs(pb - pa), abs(qa - qb)
        if la == 0.0 or lb == 0.0:
            raise ChartError(f"zero-length edge in chart of face {f}")
        if abs(la - lb) > 1e-10 * max(la, lb):
            raise ChartError(f"shared-edge chart lengths disagree across half-edge {h}: {la} vs {lb}")
        r = (qa - qb) / (pb - pa)
        rot[h] = r / abs(r)
    return rot


def _repeated_vertex_loop(mesh):
    for f in range(mesh.n_faces):
        if len(set(mesh.face_vertices(f))) != 3:
            return f"face {f} has repeated vertices; refine the mesh before equipping"
    return None


def _connected_loop(mesh):
    adj = [[] for _ in range(mesh.n_vertices)]
    for h in range(mesh.n_half_edges):
        adj[mesh.origin[h]].append(mesh.head(h))
    seen = np.zeros(mesh.n_vertices, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def _face_tree_loop(surface):
    """FIFO face tree: parent half-edge per face and the face spins."""
    mesh = surface.mesh
    F = mesh.n_faces
    parent_he = np.full(F, -1, dtype=np.int64)
    face_spin = np.zeros(F, dtype=complex)
    face_spin[0] = 1.0
    visited = np.zeros(F, dtype=bool)
    visited[0] = True
    queue = [0]
    while queue:
        f = queue.pop(0)
        for k in range(3):
            h = 3 * f + k
            ft = int(mesh.twin[h]) // 3
            if not visited[ft]:
                visited[ft] = True
                parent_he[ft] = h
                face_spin[ft] = surface.edge_rotation[h] * face_spin[f]
                queue.append(ft)
    return parent_he, face_spin


def _geometry_loop(surface):
    mesh = surface.mesh
    F, V = mesh.n_faces, mesh.n_vertices
    cv = mesh.origin.reshape(F, 3)
    _, face_spin = _face_tree_loop(surface)
    ref = np.full(V, F, dtype=np.int64)
    for f in range(F):
        for k in range(3):
            ref[cv[f, k]] = min(ref[cv[f, k]], f)
    corner_spin = np.zeros((F, 3), dtype=complex)
    masses = np.zeros((3, V))
    rho, S = surface.density, surface.area
    for f in range(F):
        for k in range(3):
            v = cv[f, k]
            corner_spin[f, k] = face_spin[f] / face_spin[ref[v]]
            masses[0, v] += rho[f] * S[f] / 3.0
            masses[1, v] += rho[f] ** 2 * S[f] / 3.0
            masses[2, v] += S[f] / 3.0
    return {
        "face_spin": face_spin,
        "vertex_ref_face": ref,
        "corner_spin": corner_spin,
        "mass_rho": masses[0],
        "mass_rho2": masses[1],
        "mass_area": masses[2],
    }


def _corner_transports_loop(surface, U):
    mesh = surface.mesh
    n = U.shape[1]
    T = np.zeros((mesh.n_faces, 3, n, n), dtype=complex)
    for f in range(mesh.n_faces):
        a = int(np.argmin([int(mesh.origin[3 * f + k]) for k in range(3)]))
        for k in range(3):
            step = (a - k) % 3
            if step == 0:
                T[f, k] = np.eye(n)
            elif step == 1:
                T[f, k] = U[3 * f + k]
            else:
                T[f, k] = U[3 * f + (k + 1) % 3] @ U[3 * f + k]
    return T


def _vertex_tree_loop(mesh):
    adj = [[] for _ in range(mesh.n_vertices)]
    for h in range(mesh.n_half_edges):
        adj[int(mesh.origin[h])].append((mesh.head(h), h))
    order, parent_he = [], np.full(mesh.n_vertices, -1, dtype=np.int64)
    seen = np.zeros(mesh.n_vertices, dtype=bool)
    seen[0] = True
    queue = [0]
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w, h in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent_he[w] = h
                queue.append(w)
    return order, parent_he


def _covariant_constant_loop(c):
    mesh, n = c.mesh, c.rank
    commutant = bnd._commutant(c)
    order, parent_he = _vertex_tree_loop(mesh)
    cols = np.zeros((mesh.n_vertices * n * n, commutant.shape[1]), dtype=complex)
    for i in range(commutant.shape[1]):
        vals = np.zeros((mesh.n_vertices, n, n), dtype=complex)
        vals[0] = commutant[:, i].reshape(n, n)
        for v in order[1:]:
            h = int(parent_he[v])
            U = c.transport[h]
            vals[v] = U @ vals[int(mesh.origin[h])] @ U.conj().T
        cols[:, i] = vals.reshape(-1)
    return cols


# -- scenes ------------------------------------------------------------------------


def _chain(base, levels, cocycle):
    """Mesh and cocycle after each refinement, checking each step against
    the loops."""
    mesh, c = base, cocycle(base)
    out = []
    for _ in range(levels):
        child = refine(mesh)
        origin, twin, labels, layout, edge_mid = _refine_loop(mesh)
        assert np.array_equal(child.origin, origin)
        assert np.array_equal(child.twin, twin)
        assert child.labels == labels
        assert np.array_equal(child.layout, layout)
        assert np.array_equal(child.refinement.edge_mid, edge_mid)
        ref = _refine_cocycle_loop(c, child)
        c = bnd.refine_cocycle(c, child)
        assert np.max(np.abs(c.transport - ref)) <= FLOAT_TOL
        mesh = child
        out.append((mesh, c))
    return out


SCENES = {
    "su2": (bnd.su2_preset, "stored", "hyperbolic"),
    "random_u2": (_complex_transport_cocycle, "stored", "hyperbolic"),
    "trivial": (lambda m: bnd.trivial_cocycle(m, 1), "equilateral", "uniform"),
}


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_scene_matches_loops_r1_to_r3(fan2, scene):
    cocycle, layout, density = SCENES[scene]
    for mesh, c in _chain(fan2, 3, cocycle):
        S = equip_conformal(mesh, layout=layout, density=density)
        assert np.max(np.abs(S.edge_rotation - _edge_rotations_loop(mesh, S.chart))) <= FLOAT_TOL
        geom, ref = geometry(S), _geometry_loop(S)
        assert np.array_equal(geom.vertex_ref_face, ref.pop("vertex_ref_face"))
        for name, want in ref.items():
            assert np.max(np.abs(getattr(geom, name) - want)) <= FLOAT_TOL, name
        T = corner_transports(S, c.transport)
        assert np.max(np.abs(T - _corner_transports_loop(S, c.transport))) <= FLOAT_TOL
        K = bnd._covariant_constant_columns(c)
        assert np.max(np.abs(K - _covariant_constant_loop(c))) <= FLOAT_TOL


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_spanning_trees_match_fifo_loops(fan2, levels):
    mesh, _ = _chain(fan2, levels, bnd.su2_preset)[-1]
    S = equip_conformal(mesh, layout="stored", density="hyperbolic")
    H = mesh.n_half_edges
    _, face_tree = bfs_tree(np.arange(0, H + 1, 3), mesh.twin // 3)
    assert np.array_equal(face_tree, _face_tree_loop(S)[0])
    indptr, out, heads = vertex_adjacency(mesh)
    levels_v, vertex_tree = bfs_tree(indptr, heads)
    order, parent_he = _vertex_tree_loop(mesh)
    assert np.array_equal(np.concatenate(levels_v), order)
    assert np.array_equal(np.where(vertex_tree >= 0, out[vertex_tree], -1), parent_he)


# -- validators name the same first offender ---------------------------------------


def _message(fn, *args):
    try:
        fn(*args)
    except (ChartError, MeshError) as e:
        return str(e)
    return None


@pytest.mark.parametrize("kind", ["zero_length", "length_mismatch"])
def test_edge_rotation_errors_match_loop(surf_hyp_r1, kind):
    mesh = surf_hyp_r1.mesh
    chart = surf_hyp_r1.chart.copy()
    if kind == "zero_length":  # its other edges change length too, later in order
        chart[0, 1] = chart[0, 0]
    else:
        chart[9] = chart[9, 0] + 1.5 * (chart[9] - chart[9, 0])
    want = _message(_edge_rotations_loop, mesh, chart)
    assert want is not None and want.startswith("zero-length" if kind == "zero_length" else "shared-edge")
    assert _message(_edge_rotations, mesh, chart) == want


def test_repeated_vertices_match_loop(fan2):
    for mesh in (fan2, refine(fan2)):
        want = _repeated_vertex_loop(mesh)
        assert _message(equip_conformal, mesh, "stored", "uniform") == want
    assert want is None


def _with(mesh, **fields):
    kw = dict(origin=mesh.origin, twin=mesh.twin, genus=mesh.genus, n_vertices=mesh.n_vertices, labels=mesh.labels)
    kw.update(fields)
    return HalfEdgeMesh(**kw)


def test_disconnected_mesh_named(fan2_r1):
    m = fan2_r1
    two = _with(
        m,
        origin=np.concatenate([m.origin, m.origin + m.n_vertices]),
        twin=np.concatenate([m.twin, m.twin + m.n_half_edges]),
        n_vertices=2 * m.n_vertices,
    )
    assert not _connected_loop(two)
    assert _message(validate_mesh, two) == "mesh is not connected"


def test_bad_label_named(fan2_r1):
    bad = _with(fan2_r1, labels={**fan2_r1.labels, "a1": fan2_r1.n_half_edges + 5})
    assert _connected_loop(bad)
    assert _message(validate_mesh, bad) == f"label a1 marks invalid half-edge {fan2_r1.n_half_edges + 5}"
