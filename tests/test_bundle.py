import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab import oracle
from modulilab._complexes import (
    SolverError,
    beltrami_complex,
    corner_transports,
    endo_complex,
    geometry,
    kahler_residual,
    lift_to_vertices,
    tangent_complex,
    vertex_to_face,
)
from modulilab.bundle import (
    BundleCochain,
    CocycleError,
    RelationError,
    UnitaryCocycle,
    from_generators,
    is_irreducible,
    load_cocycle,
    refine_cocycle,
    save_cocycle,
    su2_preset,
    validate_cocycle,
)
from modulilab.cli import KAHLER_TOL
from modulilab.surface import equip_conformal
from conftest import p1_dbar, random_cochain


def test_trivial_rank1_holonomies(fan2):
    c = from_generators(fan2, 1, 0, [np.eye(1)] * 4)
    validate_cocycle(c)
    assert np.allclose(c.transport, 1.0)


def test_su2_preset_marked_holonomy(fan2):
    c = su2_preset(fan2)
    f = c.marked_face
    hol = c.transport[3 * f + 2] @ c.transport[3 * f + 1] @ c.transport[3 * f]
    np.testing.assert_allclose(hol, -np.eye(2), atol=1e-12)


def test_relation_violation_reports_residual(fan2):
    gens = [np.eye(2, dtype=complex)] * 4
    gens[0] = np.diag([np.exp(0.01j), np.exp(-0.01j)])  # breaks the -I relation
    with pytest.raises(RelationError) as e:
        from_generators(fan2, 2, 1, gens)
    assert e.value.residual > 1e-2


def test_commutant_dimensions(fan2_r2, su2_r2, triv1_r2, triv2_r2):
    assert is_irreducible(su2_r2) == (True, 1)
    assert is_irreducible(triv1_r2) == (True, 1)
    irred, dim = is_irreducible(triv2_r2)
    assert not irred and dim == 4


def test_rank1_any_cocycle_irreducible(fan2):
    phases = [np.array([[np.exp(1j * t)]]) for t in (0.3, 1.1, -0.4, 2.2)]
    c = from_generators(fan2, 1, 0, phases)
    assert is_irreducible(c) == (True, 1)


def test_twisted_dbar_kills_identity(surf_hyp, su2_r2):
    V = surf_hyp.n_vertices
    phi = BundleCochain(np.broadcast_to(np.eye(2), (V, 2, 2)).copy(), "vertex")
    out = bnd.twisted_dbar(phi, su2_r2, surf_hyp)
    assert np.linalg.norm(out.values) <= 1e-12


def test_rank1_trivial_reduces_to_scalar(surf_hyp, triv1_r2, rng):
    # the scalar complex is End(E) of the trivial line bundle: the P1
    # stencil with weights 2 rho A/3 per corner on vertices, 2 A on faces
    from modulilab import conventions

    cx_b = bnd.operators(surf_hyp, triv1_r2)
    D = p1_dbar(surf_hyp)
    assert np.max(np.abs(cx_b.dbar.toarray() - D)) == 0.0
    geom = geometry(surf_hyp)
    w0 = conventions.L2_GLOBAL_FACTOR * geom.mass_rho
    w1 = conventions.L2_GLOBAL_FACTOR * geom.area
    D_star = (D.conj().T * w1[None, :]) / w0[:, None]
    assert np.max(np.abs(cx_b.dbar_star.toarray() - D_star)) <= 1e-14 * np.max(np.abs(D_star))


def test_rank1_gauge_cocycle_reduces_to_scalar(fan2_r1, surf_hyp_r1, rng):
    # End(E) of any line bundle is trivial: the conjugation kills phases
    phases = [np.array([[np.exp(1j * t)]]) for t in (0.9, -0.2, 0.5, 1.7)]
    c = from_generators(fan2_r1.refinement.parent, 1, 0, phases)
    c = refine_cocycle(c, fan2_r1)
    cx_b = bnd.operators(surf_hyp_r1, c)
    assert np.max(np.abs(cx_b.dbar.toarray() - p1_dbar(surf_hyp_r1))) <= 1e-14


def test_adjointness(surf_hyp, su2_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    worst = 0.0
    for _ in range(50):
        f = random_cochain(rng, V, 2, "vertex")
        a = random_cochain(rng, F, 2, (0, 1))
        lhs = bnd.ip_bundle(bnd.twisted_dbar(f, su2_r2, surf_hyp), a, su2_r2, surf_hyp)
        rhs = bnd.ip_bundle(f, bnd.twisted_dbar_star(a, su2_r2, surf_hyp), su2_r2, surf_hyp)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-10


def test_delta0_inverse_roundtrip(surf_hyp, su2_r2, rng):
    cx = bnd.operators(surf_hyp, su2_r2)
    V = surf_hyp.n_vertices
    g = random_cochain(rng, V, 2, "vertex")
    gperp, _ = cx.project_off_kernel(g.values.reshape(-1))
    h = bnd.laplacian(BundleCochain(gperp.reshape(V, 2, 2), "vertex"), su2_r2, surf_hyp)
    back = bnd.delta0_inverse(h, su2_r2, surf_hyp)
    assert np.linalg.norm(back.values.reshape(-1) - gperp) <= 1e-8 * np.linalg.norm(gperp)


def test_delta0_inverse_kills_covariant_constant(surf_hyp, su2_r2):
    V = surf_hyp.n_vertices
    h = BundleCochain(np.broadcast_to(np.eye(2), (V, 2, 2)).copy(), "vertex")
    out = bnd.delta0_inverse(h, su2_r2, surf_hyp)
    assert np.linalg.norm(out.values) <= 1e-10


def test_delta0_factorized_matches_dense_oracle(surf_hyp, su2_r2, rng):
    # the factorized solve against the independent dense spectral inverse
    V = surf_hyp.n_vertices
    inv = oracle.restricted_inverse_dense(oracle.materialize("laplacian", su2_r2, surf_hyp))
    h = random_cochain(rng, V, 2, "vertex")
    x_lu = bnd.delta0_inverse(h, su2_r2, surf_hyp).values.reshape(-1)
    x_dn = inv.matrix @ h.values.reshape(-1)
    assert np.linalg.norm(x_lu - x_dn) <= 1e-8 * np.linalg.norm(x_dn)


def test_harmonic_projection_properties(surf_hyp, su2_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    f = random_cochain(rng, V, 2, "vertex")
    exact = bnd.twisted_dbar(f, su2_r2, surf_hyp)
    killed = bnd.harmonic_projection(exact, su2_r2, surf_hyp)
    assert np.linalg.norm(killed.values) <= 1e-8 * np.linalg.norm(exact.values)
    a = random_cochain(rng, F, 2, (0, 1))
    p1 = bnd.harmonic_projection(a, su2_r2, surf_hyp)
    p2 = bnd.harmonic_projection(p1, su2_r2, surf_hyp)
    assert np.linalg.norm(p2.values - p1.values) <= 1e-8 * np.linalg.norm(p1.values)
    g = random_cochain(rng, V, 2, "vertex")
    ortho = bnd.ip_bundle(p1, bnd.twisted_dbar(g, su2_r2, surf_hyp), su2_r2, surf_hyp)
    assert abs(ortho) <= 1e-8 * np.linalg.norm(p1.values) * np.linalg.norm(g.values)


def test_kernel_dim_equals_commutant(surf_hyp, su2_r2, triv1_r2, triv2_r2):
    for c in (su2_r2, triv1_r2, triv2_r2):
        _, cdim = is_irreducible(c)
        lap = oracle.materialize("laplacian", c, surf_hyp)
        assert oracle.kernel_dimension_dense(lap) == cdim


def test_ad_rank1_vanishes(surf_hyp, triv1_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    nu = random_cochain(rng, F, 1, (0, 1))
    f = random_cochain(rng, V, 1, "vertex")
    assert np.linalg.norm(bnd.ad_on_scalar(nu, f, triv1_r2, surf_hyp).values) == 0.0
    a = random_cochain(rng, F, 1, (0, 1))
    assert np.linalg.norm(bnd.ad_star(nu, a, triv1_r2, surf_hyp).values) <= 1e-14


def test_ad_kills_identity(surf_hyp, su2_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    nu = random_cochain(rng, F, 2, (0, 1))
    ident = BundleCochain(np.broadcast_to(np.eye(2), (V, 2, 2)).copy(), "vertex")
    assert np.linalg.norm(bnd.ad_on_scalar(nu, ident, su2_r2, surf_hyp).values) <= 1e-13


def test_ad_bilinearity(surf_hyp, su2_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    nu1 = random_cochain(rng, F, 2, (0, 1))
    nu2 = random_cochain(rng, F, 2, (0, 1))
    f = random_cochain(rng, V, 2, "vertex")
    lam = 0.3 - 1.1j
    combo = BundleCochain(nu1.values + lam * nu2.values, (0, 1))
    lhs = bnd.ad_on_scalar(combo, f, su2_r2, surf_hyp).values
    rhs = bnd.ad_on_scalar(nu1, f, su2_r2, surf_hyp).values + lam * bnd.ad_on_scalar(
        nu2, f, su2_r2, surf_hyp
    ).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_ad_star_calibration_adjointness(surf_hyp, su2_r2, rng):
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    worst = 0.0
    for _ in range(20):
        nu = random_cochain(rng, F, 2, (0, 1))
        f = random_cochain(rng, V, 2, "vertex")
        a = random_cochain(rng, F, 2, (0, 1))
        lhs = bnd.ip_bundle(bnd.ad_on_scalar(nu, f, su2_r2, surf_hyp), a, su2_r2, surf_hyp)
        rhs = bnd.ip_bundle(f, bnd.ad_star(nu, a, su2_r2, surf_hyp), su2_r2, surf_hyp)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-10


def test_ad_star_self_commutator_vanishes(surf_hyp, su2_r2):
    # real diagonal nu commutes with its conjugate transpose
    F = surf_hyp.n_faces
    diag = np.zeros((F, 2, 2), dtype=complex)
    diag[:, 0, 0] = 1.0
    diag[:, 1, 1] = -2.0
    nu = BundleCochain(diag, (0, 1))
    out = bnd.ad_star(nu, nu, su2_r2, surf_hyp)
    assert np.linalg.norm(out.values) <= 1e-13


# -- corner average B and its lift ------------------------------------------------

CORNER_SCENES = [("surf_hyp_r1", "su2_r1"), ("surf_hyp", "su2_r2")]


def _complex_transport_cocycle(mesh):
    """Rank-2 cocycle with the su2 pair on the first handle and a commuting
    random U(2) pair (W, W) on the second, so that the conjugation action
    T X T^H of the corner transports is not real."""
    chain = [mesh]
    while chain[-1].refinement is not None:
        chain.append(chain[-1].refinement.parent)
    rng = np.random.default_rng(7)
    W = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    gens = [np.array([[0, 1j], [1j, 0]]), np.array([[0, 1], [-1, 0]], dtype=complex), W, W]
    c = from_generators(chain[-1], 2, 1, gens)
    for child in reversed(chain[:-1]):
        c = refine_cocycle(c, child)
    return c


def _corner_complexes(request, surf, su2):
    """su2, generic rank 2, trivial rank 2 and rank 1 End(E) complexes, and
    the spin-1 (vector) and spin-2 (Beltrami) complexes on one surface."""
    S = request.getfixturevalue(surf)
    cocycles = [
        request.getfixturevalue(su2),
        _complex_transport_cocycle(S.mesh),
        bnd.trivial_cocycle(S.mesh, 2),
        bnd.trivial_cocycle(S.mesh, 1),
    ]
    return S, [bnd.operators(S, c) for c in cocycles] + [tangent_complex(S), beltrami_complex(S)]


@pytest.mark.parametrize("surf", [surf for surf, _ in CORNER_SCENES])
def test_corner_average_is_mean_of_transported_corners(request, surf, rng):
    S = request.getfixturevalue(surf)
    c = _complex_transport_cocycle(S.mesh)
    T = corner_transports(S, c.transport)
    cv = geometry(S).corner_vertex
    x = random_cochain(rng, S.n_vertices, 2, "vertex").values
    ref = sum(T[:, k] @ x[cv[:, k]] @ np.conj(np.swapaxes(T[:, k], 1, 2)) for k in range(3)) / 3.0
    got = vertex_to_face(bnd.operators(S, c), x)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_lift_inverts_corner_average_on_kernel(request, surf, su2):
    # a covariant constant reaches all three corners of a face as the same
    # matrix, so averaging into faces and lifting back returns it
    _, complexes = _corner_complexes(request, surf, su2)
    for cx in complexes:
        for k in range(cx.kernel.shape[1]):
            x = cx.kernel[:, k].reshape(-1, cx.m, cx.m)
            back = lift_to_vertices(cx, vertex_to_face(cx, x))
            assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_lift_is_area_weighted_adjoint_of_corner_average(request, surf, su2, rng):
    S, complexes = _corner_complexes(request, surf, su2)
    geom = geometry(S)
    for cx in complexes:
        x = random_cochain(rng, cx.n_vertices, cx.m, "vertex").values
        y = random_cochain(rng, cx.n_faces, cx.m, (0, 1)).values
        lhs = np.einsum("v,vab,vab->", geom.mass_area, lift_to_vertices(cx, y), np.conj(x))
        rhs = np.einsum("f,fab,fab->", geom.area, y, np.conj(vertex_to_face(cx, x)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_restricted_inverse_positivity(surf_hyp, su2_r2, rng):
    V = surf_hyp.n_vertices
    for _ in range(10):
        h = random_cochain(rng, V, 2, "vertex")
        x = bnd.delta0_inverse(h, su2_r2, surf_hyp)
        val = bnd.ip_bundle(x, h, su2_r2, surf_hyp)
        assert val.real >= -1e-10 * abs(val)


def test_twist_location_invisible_to_operators(fan2_r1, surf_hyp_r1, su2_r1):
    # multiplying an edge transport by a central phase moves the twist
    # between adjacent faces; End(E) conjugation is unchanged
    c = su2_r1
    U = c.transport.copy()
    f = c.marked_face
    h = 3 * f  # shared with face twin(h)//3
    t = int(c.mesh.twin[h])
    phase = np.conj(c.twist_phase)
    U[h] = phase * U[h]
    U[t] = U[h].conj().T
    moved = UnitaryCocycle(
        mesh=c.mesh, rank=2, degree=1, transport=U, marked_face=t // 3, generators=None
    )
    validate_cocycle(moved)
    cx1 = bnd.operators(surf_hyp_r1, c)
    cx2 = bnd.operators(surf_hyp_r1, moved)
    assert np.max(np.abs((cx1.dbar - cx2.dbar).toarray())) <= 1e-12


def _first_defect_by_loop(c):
    # reference: the same checks as plain loops over half-edges, then faces
    U, eye = c.transport, np.eye(c.rank)
    for h in range(c.mesh.n_half_edges):
        if np.linalg.norm(U[h].conj().T @ U[h] - eye) > bnd.UNITARITY_TOL:
            return f"transport on half-edge {h} is not unitary"
        if not np.array_equal(U[int(c.mesh.twin[h])], U[h].conj().T):
            return f"reverse transport on half-edge {h} is not the exact inverse"
    for f in range(c.mesh.n_faces):
        hol = U[3 * f + 2] @ U[3 * f + 1] @ U[3 * f]
        target = c.twist_phase * eye if f == c.marked_face else eye
        if np.linalg.norm(hol - target) > bnd.FLATNESS_TOL:
            return f"face {f} holonomy violates flatness/twist"
    return None


def _break(c, kind):
    # half-edges 7 and 40 of the r1 mesh come before their twins (10, 45)
    U = c.transport.copy()
    twin = c.mesh.twin
    if kind == "not_unitary":  # also breaks the twin pair, at the same index
        U[40] = 1.1 * U[40]
    elif kind == "not_inverse":  # still unitary to 1e-10
        U[twin[40]] = U[twin[40]] + 1e-14
    elif kind == "holonomy":  # a phase on an edge pair breaks both of its faces
        U[40] = np.exp(0.1j) * U[40]
        U[twin[40]] = U[40].conj().T
    elif kind == "both":  # a twin break before a unitarity break
        U[twin[7]] = U[twin[7]] + 1e-14
        U[40] = 1.1 * U[40]
    return UnitaryCocycle(
        mesh=c.mesh, rank=c.rank, degree=c.degree, transport=U,
        marked_face=c.marked_face, generators=None,
    )


@pytest.mark.parametrize(
    "kind, message",
    [
        ("not_unitary", "transport on half-edge 40 is not unitary"),
        ("not_inverse", "reverse transport on half-edge 40 is not the exact inverse"),
        ("holonomy", "face 13 holonomy violates flatness/twist"),
        ("both", "reverse transport on half-edge 7 is not the exact inverse"),
    ],
)
def test_validate_cocycle_names_first_defect(su2_r1, kind, message):
    assert [int(su2_r1.mesh.twin[h]) for h in (7, 40)] == [10, 45]
    c = _break(su2_r1, kind)
    assert _first_defect_by_loop(c) == message
    with pytest.raises(CocycleError) as err:
        validate_cocycle(c)
    assert str(err.value) == message


def test_refine_preserves_flatness_and_irreducibility(fan2, fan2_r1):
    c = refine_cocycle(su2_preset(fan2), fan2_r1)
    validate_cocycle(c)
    assert is_irreducible(c) == (True, 1)
    assert c.marked_face == 4 * su2_preset(fan2).marked_face + 3


def test_cocycle_roundtrip(tmp_path, fan2):
    c = su2_preset(fan2)
    p = tmp_path / "c.coc"
    save_cocycle(c, p)
    loaded = load_cocycle(fan2, p)
    np.testing.assert_allclose(loaded.transport, c.transport, atol=1e-12)
    assert (loaded.rank, loaded.degree) == (2, 1)


def test_exact_kernel_supports_factorized_solves(surf_hyp_r1, su2_r1, rng):
    # the covariant constants the complex is built with annihilate the
    # Laplacian, and the factorized solve matches the dense spectral inverse
    cx = bnd.operators(surf_hyp_r1, su2_r1)
    K = cx.kernel
    assert K.shape[1] == 1
    assert np.linalg.norm(cx.laplacian @ K) <= 1e-12
    h = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
    dense = oracle.DenseOperator(cx.laplacian.toarray(), {}, {}, cx.w0, cx.w0)
    x_dense = oracle.restricted_inverse_dense(dense).matrix @ h
    x_lu, st = cx.delta0_solve(h)
    assert st["method"] == "splu"
    assert np.linalg.norm(x_lu - x_dense) <= 1e-8 * np.linalg.norm(x_dense)


@pytest.mark.parametrize("density", ["uniform", "hyperbolic"])
@pytest.mark.parametrize("mesh_name", ["fan2_r1", "fan2_r2"])
def test_kahler_identity_on_flat_bundles(request, mesh_name, density):
    # dbar* dbar = d* d to roundoff on End(E) of a flat bundle: su2, a
    # cocycle with a non-real conjugation action and a reducible rank 3
    mesh = request.getfixturevalue(mesh_name)
    S = equip_conformal(mesh, layout="stored", density=density)
    su2 = request.getfixturevalue({"fan2_r1": "su2_r1", "fan2_r2": "su2_r2"}[mesh_name])
    for c in (su2, _complex_transport_cocycle(mesh), bnd.trivial_cocycle(mesh, 3)):
        assert kahler_residual(bnd.operators(S, c)) <= KAHLER_TOL


def test_kahler_identity_fails_off_flat_bundles(surf_hyp_r1, rng):
    # random unitary transports have curvature on every face, and the
    # two Laplacians then differ at order one
    H = surf_hyp_r1.mesh.n_half_edges
    U = np.linalg.qr(rng.standard_normal((H, 2, 2)) + 1j * rng.standard_normal((H, 2, 2)))[0]
    V = surf_hyp_r1.n_vertices
    identity = np.broadcast_to(np.eye(2), (V, 2, 2)).reshape(-1, 1)
    assert kahler_residual(endo_complex(surf_hyp_r1, U, identity)) > 1e-2


def test_incomplete_kernel_fails_residual_gate(surf_hyp, triv2_r2, rng):
    # a bordered system missing one of the four kernel directions cannot
    # reach the residual gate: the solve must refuse, not return garbage
    K = bnd._covariant_constant_columns(triv2_r2)
    assert K.shape[1] == 4
    cx = endo_complex(surf_hyp, triv2_r2.transport, K[:, :3])
    h = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
    with pytest.raises(SolverError, match="residual"):
        cx.delta0_solve(h)


def test_cocycle_rejects_mismatched_surface(surf_hyp, fan2_r1):
    c = bnd.refine_cocycle(su2_preset(fan2_r1.refinement.parent), fan2_r1)
    with pytest.raises(CocycleError):
        bnd.operators(surf_hyp, c)
