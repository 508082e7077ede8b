"""The array-at-a-time scene build against plain per-face loops.

The loop versions below are kept as the reference: they are the
straightforward statement of each construction, with FIFO queues for the
spanning trees.  Numbering and trees must agree exactly, floating-point
fields to 1e-15 (the fan and its generator transports bit for bit), and
the validators must name the same first offender.
"""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab._complexes import corner_transports, tangent_complex
from modulilab.surface import (
    ChartError,
    HalfEdgeMesh,
    MeshError,
    _edge_rotations,
    _regular_polygon_radius,
    build_polygon_gluing,
    equip_conformal,
    face_tree,
    next_index,
    refine,
)
from conftest import pinched_mesh
from flat_torus import build_torus
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
    return origin, twin, layout


def _polygon_gluing_loop(g):
    """origin, twin and layout of the 4g-gon fan, one side at a time."""
    S = 4 * g
    origin = np.zeros(3 * S, dtype=np.int64)
    twin = np.full(3 * S, -1, dtype=np.int64)
    for i in range(S):
        origin[3 * i] = 0
        origin[3 * i + 1] = 1
        origin[3 * i + 2] = 1
    for i in range(S):
        j = (i - 1) % S
        twin[3 * i] = 3 * j + 2
        twin[3 * j + 2] = 3 * i
    for b in range(g):
        s0 = 4 * b
        for sa, sb in ((s0, s0 + 2), (s0 + 1, s0 + 3)):
            twin[3 * sa + 1] = 3 * sb + 1
            twin[3 * sb + 1] = 3 * sa + 1
    R = _regular_polygon_radius(g)
    corners = np.array([R * cmath.exp(2j * math.pi * i / S) for i in range(S)])
    layout = np.zeros((S, 3), dtype=complex)
    for i in range(S):
        layout[i] = (0.0, corners[i], corners[(i + 1) % S])
    return origin, twin, layout


def _from_generators_loop(mesh, n, gens):
    """Transports of ``from_generators``: block base 4(g-j) holds
    (Bj^-1, Aj^-1, Bj, Aj), and the spokes close faces 0..S-2."""
    g = mesh.genus
    S = 4 * g
    side = [None] * S
    for j in range(1, g + 1):
        base = 4 * (g - j)
        A, B = gens[2 * (j - 1)], gens[2 * (j - 1) + 1]
        side[base + 3] = A
        side[base + 2] = B
        side[base + 1] = A.conj().T
        side[base + 0] = B.conj().T
    directed = {}
    spoke = np.eye(n, dtype=complex)
    for i in range(S):
        directed[3 * i] = spoke
        directed[3 * i + 1] = side[i]
        spoke = side[i] @ spoke
    return _store_loop(mesh, directed, n)


def _store_loop(mesh, directed, n):
    U = np.zeros((mesh.n_half_edges, n, n), dtype=complex)
    for h in range(mesh.n_half_edges):
        M = directed.get(h)
        U[h] = directed[int(mesh.twin[h])].conj().T if M is None else M
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
        if len(set(mesh.origin[3 * f : 3 * f + 3])) != 3:
            return f"face {f} has repeated vertices; refine the mesh before equipping"
    return None


def _connected_loop(mesh):
    """Whether every face is reached from face 0 across twins."""
    adj = [[] for _ in range(mesh.n_half_edges // 3)]
    for h in range(mesh.n_half_edges):
        adj[h // 3].append(int(mesh.twin[h]) // 3)
    seen = np.zeros(len(adj), dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def _fans_loop(mesh):
    """Cycles of h -> twin(prev(h)) at each vertex, one walk per cycle."""
    seen = np.zeros(mesh.twin.size, dtype=bool)
    fans = np.zeros(mesh.n_vertices, dtype=np.int64)
    for h in range(mesh.twin.size):
        if not seen[h]:
            fans[mesh.origin[h]] += 1
            g = h
            while not seen[g]:
                seen[g] = True
                g = int(mesh.twin[g - g % 3 + (g + 2) % 3])
    return fans


def _face_tree_loop(surface):
    """FIFO face tree: parent half-edge per face, the face spins and the
    faces in queue order."""
    mesh = surface.mesh
    F = mesh.n_faces
    parent_he = np.full(F, -1, dtype=np.int64)
    face_spin = np.zeros(F, dtype=complex)
    face_spin[0] = 1.0
    visited = np.zeros(F, dtype=bool)
    visited[0] = True
    queue, order = [0], []
    while queue:
        f = queue.pop(0)
        order.append(f)
        for k in range(3):
            h = 3 * f + k
            ft = int(mesh.twin[h]) // 3
            if not visited[ft]:
                visited[ft] = True
                parent_he[ft] = h
                face_spin[ft] = surface.edge_rotation[h] * face_spin[f]
                queue.append(ft)
    return parent_he, face_spin, order


def _geometry_loop(surface):
    mesh = surface.mesh
    F, V = mesh.n_faces, mesh.n_vertices
    cv = mesh.origin.reshape(F, 3)
    _, face_spin, _ = _face_tree_loop(surface)
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


def _twisted_dbar_loop(surface, corner_spin):
    """The P1 dzbar stencil twisted per corner by ``corner_spin``, (F, V)."""
    mesh, z, S = surface.mesh, surface.chart, surface.area
    D = np.zeros((mesh.n_faces, mesh.n_vertices), dtype=complex)
    for f in range(mesh.n_faces):
        for k in range(3):
            grad_bar = 1j * (z[f, (k + 2) % 3] - z[f, (k + 1) % 3]) / (4.0 * S[f])
            D[f, mesh.origin[3 * f + k]] += grad_bar * corner_spin[f, k]
    return D


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


def _corner_operators_loop(surface, T, phase):
    """dbar, dhol and corner_avg as dense matrices: w[f,k] kron(T, conj T)
    added into block (f, corner_vertex[f,k]) for each face f and corner k,
    with T = T[f,k] and w the corner weight of each operator."""
    F, _, m, _ = T.shape
    m2 = m * m
    p = np.broadcast_to(np.reshape(phase, (-1, 1)), (F, 3))
    out = []
    for w in (p * surface.grad_bar, p * np.conj(surface.grad_bar), p / 3.0):
        D = np.zeros((F * m2, surface.n_vertices * m2), dtype=complex)
        for f in range(F):
            for k in range(3):
                v = surface.corner_vertex[f, k]
                D[f * m2 : (f + 1) * m2, v * m2 : (v + 1) * m2] += w[f, k] * np.kron(T[f, k], np.conj(T[f, k]))
        out.append(D)
    return out


# -- scenes ------------------------------------------------------------------------


def _chain(base, levels, cocycle):
    """Mesh and cocycle after each refinement, checking each step against
    the loops."""
    mesh, c = base, cocycle(base)
    out = []
    for _ in range(levels):
        parent, c = c, bnd.refine_cocycle(c)
        child = c.mesh
        origin, twin, layout = _refine_loop(mesh)
        assert np.array_equal(child.origin, origin)
        assert np.array_equal(child.twin, twin)
        assert np.array_equal(child.layout, layout)
        ref = _refine_cocycle_loop(parent, child)
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
        ref = _geometry_loop(S)
        # the face-gauge tangent dbar is the twisted stencil times the
        # vertex gauge r = face_spin[ref(v)]
        r = ref["face_spin"][ref.pop("vertex_ref_face")]
        twisted = _twisted_dbar_loop(S, ref.pop("corner_spin")) * r
        rho, A = S.density, S.area
        got = {"face_spin": S.face_spin, "mass_rho": S.lumped(rho * A)}
        got.update(mass_rho2=S.lumped(rho**2 * A), mass_area=S.lumped(A))
        for name, want in ref.items():
            assert np.max(np.abs(got[name] - want)) <= FLOAT_TOL, name
        dbar = tangent_complex(S).dbar.toarray()
        assert np.max(np.abs(dbar - twisted)) <= FLOAT_TOL * np.max(np.abs(twisted))
        T = corner_transports(S, c.transport)
        assert np.max(np.abs(T - _corner_transports_loop(S, c.transport))) <= FLOAT_TOL
        # the kernel columns are covariant constants: U_h X(origin h) U_h^H
        # = X(head h) on every half-edge
        n, V = c.rank, mesh.n_vertices
        X = np.tile(bnd._commutant(c), (V, 1)).T.reshape(-1, V, n, n)
        U = c.transport
        moved = U @ X[:, mesh.origin] @ U.conj().swapaxes(1, 2)
        defect = np.max(np.abs(moved - X[:, mesh.origin[next_index(mesh.n_half_edges)]]))
        assert defect <= 16 * np.finfo(float).eps * np.max(np.abs(X))


def _check_face_tree(S):
    levels, tree = face_tree(S.mesh)
    parent_he, face_spin, order = _face_tree_loop(S)
    assert np.array_equal(tree, parent_he)
    assert np.array_equal(np.concatenate(levels), order)
    # equal values: the loop's scalar product and the written-out one can
    # round a zero part to opposite signs
    assert np.array_equal(S.face_spin, face_spin)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_spanning_trees_match_fifo_loops(fan2, levels):
    mesh, _ = _chain(fan2, levels, bnd.su2_preset)[-1]
    _check_face_tree(equip_conformal(mesh, layout="stored", density="hyperbolic"))


@pytest.mark.parametrize("layout", ["stored", "equilateral"])
@pytest.mark.parametrize("base", ["genus3", "genus4", "torus3", "torus4"])
def test_face_tree_matches_fifo_loop(base, layout):
    # the tori are built from face triples, not by refinement: another
    # numbering, another vertex degree and genus 1
    if base.startswith("torus"):
        meshes = [build_torus(int(base[-1]))]
    else:
        meshes = [refine(build_polygon_gluing(int(base[-1])))]
        meshes += [refine(meshes[-1]) for _ in range(2)]
    for mesh in meshes:
        _check_face_tree(equip_conformal(mesh, layout=layout, density="uniform"))


def test_face_tree_keeps_the_first_half_edge_of_its_parent():
    # open edge 0 (a -> b) of the refined fan into a digon and fill it
    # with faces X = (b, a, v) and Y = (a, b, v) around a new vertex v of
    # degree 2: X and Y share two edges, and Y is found only from X
    mesh = refine(build_polygon_gluing(2))
    H, F, V = mesh.n_half_edges, mesh.n_faces, mesh.n_vertices
    a, t = int(mesh.origin[0]), int(mesh.twin[0])
    b = int(mesh.origin[t])
    twin = np.concatenate([mesh.twin, [0, H + 5, H + 4, t, H + 2, H + 1]])
    twin[0], twin[t] = H, H + 3
    origin = np.concatenate([mesh.origin, [b, a, V, a, b, V]])
    digon = HalfEdgeMesh(origin=origin, twin=twin, genus=2, n_vertices=V + 1)
    assert face_tree(digon)[1][F + 1] == H + 1  # X's a -> v, not its v -> b
    _check_face_tree(equip_conformal(digon, layout="equilateral", density="uniform"))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("g", range(2, 9))
def test_fan_matches_loop_bit_for_bit(g):
    mesh = build_polygon_gluing(g)
    for got, want in zip((mesh.origin, mesh.twin, mesh.layout), _polygon_gluing_loop(g)):
        assert _same_bits(got, want)


def _conjugated_su2(g, rng):
    """The su2 pair conjugated by a random unitary on the first handle and
    a commuting random pair (W, W) on the others."""
    P, W = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0] for _ in range(2))
    pair = [P @ X @ P.conj().T for X in (np.array([[0, 1j], [1j, 0]]), np.array([[0, 1], [-1, 0]], dtype=complex))]
    return pair + [W, W] * (g - 1)


@pytest.mark.parametrize("g, preset", [(2, "su2"), (3, "su2"), (4, "su2"), (2, "conjugated"), (3, "conjugated")])
def test_generator_transports_match_loop_bit_for_bit(g, preset):
    mesh = build_polygon_gluing(g)
    if preset == "su2":
        c = bnd.su2_preset(mesh)
        gens = list(c.generators)
    else:
        gens = _conjugated_su2(g, np.random.default_rng(g))
        c = bnd.from_generators(mesh, 2, 1, gens)
    assert _same_bits(c.transport, _from_generators_loop(mesh, 2, gens))


@pytest.mark.parametrize(
    "g, kind", [(2, "su2"), (2, "conjugated"), (3, "conjugated"), (2, "trivial_rank3"), (2, "tangent")]
)
def test_operators_match_corner_loop(g, kind):
    fan = build_polygon_gluing(g)
    if kind == "conjugated":
        c = bnd.from_generators(fan, 2, 1, _conjugated_su2(g, np.random.default_rng(g)))
    else:
        c = bnd.su2_preset(fan)
    c = bnd.refine_cocycle(c)
    mesh = c.mesh
    if kind == "trivial_rank3":
        c = bnd.trivial_cocycle(mesh, 3)
    S = equip_conformal(mesh, layout="stored", density="hyperbolic")
    if kind == "tangent":
        cx, T, phase = tangent_complex(S), np.ones((S.n_faces, 3, 1, 1)), S.face_spin
    else:
        cx, T, phase = bnd.Scene(S, c).endo, corner_transports(S, c.transport), 1.0
    # preset transports have entries 0, +-1 and +-i, so each product is exact
    tol = 2 * np.finfo(float).eps if kind == "conjugated" else 0.0
    for M, ref in zip((cx.dbar, cx.dhol, cx.corner_avg), _corner_operators_loop(S, T, phase)):
        assert M.has_canonical_format
        assert M.nnz == np.count_nonzero(ref)  # no explicit zero is stored
        assert np.max(np.abs(M.toarray() - ref)) <= tol * np.max(np.abs(ref))


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
    kw = dict(origin=mesh.origin, twin=mesh.twin, genus=mesh.genus, n_vertices=mesh.n_vertices)
    kw.update(fields)
    return HalfEdgeMesh(**kw)


def test_disconnected_mesh_named(fan2_r1):
    # a mesh is validated on construction, so the message comes from there
    m = fan2_r1
    fields = dict(
        origin=np.concatenate([m.origin, m.origin + m.n_vertices]),
        twin=np.concatenate([m.twin, m.twin + m.n_half_edges]),
        n_vertices=2 * m.n_vertices,
    )
    assert not _connected_loop(SimpleNamespace(n_half_edges=2 * m.n_half_edges, **fields))
    assert _message(lambda: _with(m, **fields)) == "mesh is not connected"


def test_pinched_vertex_named(fan2, fan2_r2):
    # one fan of corners at every vertex of a surface; the first vertex
    # with more is named, with its count
    for m in (fan2, fan2_r2):
        assert np.all(_fans_loop(m) == 1)
    fields = pinched_mesh()
    fans = _fans_loop(SimpleNamespace(**fields))
    v = int(np.flatnonzero(fans > 1)[0])
    want = f"vertex {v} is not a disk: the half-edges leaving it form {fans[v]} fans, not one"
    assert _message(lambda: HalfEdgeMesh(**fields)) == want

