import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from modulilab import bundle as bnd
from modulilab import oracle
from modulilab._complexes import (
    SOLVE_RTOL,
    SolverError,
    ad,
    ad_star,
    corner_transports,
    endo_complex,
    kahler_residual,
    lift_to_vertices,
)
from modulilab.bundle import (
    CocycleError,
    RelationError,
    Scene,
    UnitaryCocycle,
    _commutant,
    from_generators,
    load_cocycle,
    refine_cocycle,
    save_cocycle,
    su2_preset,
    validate_cocycle,
)
from modulilab.cli import TOLERANCES
from modulilab.surface import RecordFileError, build_polygon_gluing, equip_conformal, refine
from conftest import dense_delta0_inverse, dense_star, ip, p1_dbar, random_cochain


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


def test_relation_gated_where_the_last_face_is(fan2):
    # the last fan face carries the relation product and is gated at
    # FLATNESS_TOL, so the relation is too: a residual above it is named
    # as a relation residual, not as a face of the cocycle
    su2 = list(su2_preset(fan2).generators)

    def nudged(eps):
        return [su2[0] @ np.diag([np.exp(1j * eps), np.exp(-1j * eps)])] + su2[1:]

    validate_cocycle(from_generators(fan2, 2, 1, nudged(1e-11)))  # residual 2.8e-11
    for eps in (5e-11, 5e-10):  # residuals 1.4e-10 and 1.4e-9
        with pytest.raises(RelationError) as e:
            from_generators(fan2, 2, 1, nudged(eps))
        assert bnd.FLATNESS_TOL < e.value.residual <= 3 * eps
        assert f"{e.value.residual:.3e}" in str(e.value)


def test_commutant_dimensions(fan2_r2, su2_r2, triv1_r2, triv2_r2):
    assert _commutant(su2_r2).shape[1] == 1
    assert _commutant(triv1_r2).shape[1] == 1
    assert _commutant(triv2_r2).shape[1] == 4


def _traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _haar(rng, n):
    """A Haar-distributed U(n) matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _generator_cocycle(mesh, n, d, gens):
    """The cocycle of ``gens`` on the fan of the genus of ``mesh``, refined
    to the size of ``mesh`` and rebound to it: ``mesh`` must be that fan,
    refined."""
    c = from_generators(build_polygon_gluing(mesh.genus), n, d, gens)
    while c.mesh.n_faces < mesh.n_faces:
        c = refine_cocycle(c)
    assert np.array_equal(c.mesh.twin, mesh.twin)
    return dataclasses.replace(c, mesh=mesh)


def _haar_u3_cocycle(mesh):
    """Rank-3 generator cocycle (A, A, B, B) with Haar U(3) matrices A, B:
    dense transports and a scalar commutant."""
    rng = np.random.default_rng(3)
    A, B = _haar(rng, 3), _haar(rng, 3)
    return _generator_cocycle(mesh, 3, 0, [A, A, B, B])


def test_commutant_allocates_no_per_half_edge_stack(fan2, fan2_r2):
    # the Gram matrix is one product of the stacked distinct transports:
    # no (H, n^2, n^2) or (h, n^2, n^2) Kronecker stack, whose n^4 entries
    # per half-edge would be 16x the transports themselves at rank 4.  On
    # the fan's Haar U(3) cocycle (H = 24, 17 distinct) the peak stays
    # within a few n^4 + H n^2 entries, where h n^4 alone would be 3.6x that
    c = bnd.trivial_cocycle(refine(fan2_r2), 4)
    peak = _traced_peak(lambda: _commutant(c))
    assert peak <= 4 * c.transport.nbytes, (peak, c.transport.nbytes)
    c = _haar_u3_cocycle(fan2)
    assert _commutant(c).shape[1] == 1
    entries = 3**4 + c.transport.size
    peak = _traced_peak(lambda: _commutant(c))
    assert peak <= 4 * 16 * entries, (peak, entries)


def test_endo_assembly_peak_is_a_multiple_of_its_nonzeros(fan2_r2):
    # the corner products are formed over each transport row's nonzero
    # columns only: at trivial rank 8 the peak of the whole build is a
    # small multiple of the F 3 n^2 m^2 complex values the three operators
    # keep (m = 1), where one dense (F, 3, n^2, n^2) Kronecker stack would
    # be n^2 = 64 times them
    S = equip_conformal(fan2_r2, layout="equilateral", density="uniform")
    c = bnd.trivial_cocycle(fan2_r2, 8)
    C = _commutant(c)
    S.grad_bar  # geometry is computed and kept before the window opens
    nonzero_bytes = S.n_faces * 3 * 8**2 * 16
    peak = _traced_peak(lambda: endo_complex(S, c.transport, C))
    assert peak <= 16 * nonzero_bytes, (peak, nonzero_bytes)


@pytest.mark.parametrize("center", ["su2", "trivial3", "haar3"])
def test_kernel_is_the_commutant_tiled_over_vertices(request, surf_hyp_r1, center, rng):
    # both complexes keep their kernel as the commutant tiled over the
    # vertices and scaled: w0-orthonormal, with V nnz(C) entries, and the
    # solves give what a kernel w0-orthonormalized by a dense QR gives
    c = {
        "su2": lambda: request.getfixturevalue("su2_r1"),
        "trivial3": lambda: bnd.trivial_cocycle(surf_hyp_r1.mesh, 3),
        "haar3": lambda: _haar_u3_cocycle(surf_hyp_r1.mesh),
    }[center]()
    scene = Scene(surf_hyp_r1, c)
    for cx in (scene.endo, scene.tangent):
        K, V = cx.kernel, cx.n_vertices
        assert sp.issparse(K)
        gram = (K.conj().T @ sp.diags(cx.w0) @ K).toarray()
        assert np.max(np.abs(gram - np.eye(K.shape[1]))) <= 1e-14
        assert K.nnz == V * np.count_nonzero(cx.commutant)
        s = np.sqrt(cx.w0)[:, None]
        qr = dataclasses.replace(cx)
        qr.kernel = np.linalg.qr(s * np.tile(cx.commutant, (V, 1)))[0] / s
        h = np.column_stack([rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0]) for _ in range(2)])
        h[:, 1] += K @ rng.standard_normal(K.shape[1])
        (x, stats), (x_qr, stats_qr) = cx.delta0_solve(h), qr.delta0_solve(h)
        assert np.linalg.norm(x - x_qr) <= 1e-12 * np.linalg.norm(x_qr)
        assert abs(stats["kernel_removed"] - stats_qr["kernel_removed"]) <= 1e-13 * stats_qr["kernel_removed"]
        assert abs(stats["residual"] - stats_qr["residual"]) <= 1e-14


def test_rank1_any_cocycle_irreducible(fan2):
    phases = [np.array([[np.exp(1j * t)]]) for t in (0.3, 1.1, -0.4, 2.2)]
    c = from_generators(fan2, 1, 0, phases)
    assert _commutant(c).shape[1] == 1


def test_twisted_dbar_kills_identity(su2_scene):
    V = su2_scene.surface.n_vertices
    phi = np.broadcast_to(np.eye(2), (V, 2, 2)).reshape(-1)
    assert np.linalg.norm(su2_scene.endo.dbar @ phi) <= 1e-12


def test_rank1_trivial_reduces_to_scalar(triv1_scene, rng):
    # the scalar complex is End(E) of the trivial line bundle: the P1
    # stencil with weights 2 rho A/3 per corner on vertices, 2 A on faces
    from modulilab import conventions

    cx_b = triv1_scene.endo
    D = p1_dbar(triv1_scene.surface)
    assert np.max(np.abs(cx_b.dbar.toarray() - D)) == 0.0
    S = triv1_scene.surface
    w0 = conventions.L2_GLOBAL_FACTOR * S.lumped(S.density * S.area)
    w1 = conventions.L2_GLOBAL_FACTOR * S.area
    D_star = (D.conj().T * w1[None, :]) / w0[:, None]
    assert np.max(np.abs(dense_star(cx_b, cx_b.dbar) - D_star)) <= 1e-14 * np.max(np.abs(D_star))


def test_rank1_gauge_cocycle_reduces_to_scalar(fan2_r1, surf_hyp_r1, rng):
    # End(E) of any line bundle is trivial: the conjugation kills phases
    phases = [np.array([[np.exp(1j * t)]]) for t in (0.9, -0.2, 0.5, 1.7)]
    c = _generator_cocycle(fan2_r1, 1, 0, phases)
    cx_b = Scene(surf_hyp_r1, c).endo
    assert np.max(np.abs(cx_b.dbar.toarray() - p1_dbar(surf_hyp_r1))) <= 1e-14


def test_adjointness(su2_scene, rng):
    cx = su2_scene.endo
    worst = 0.0
    for _ in range(50):
        f = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
        a = random_cochain(rng, cx.n_faces, 2).reshape(-1)
        lhs = ip(cx.w1, cx.dbar @ f, a)
        rhs = ip(cx.w0, f, cx.star(cx.dbar, a))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-10


def test_delta0_inverse_roundtrip(su2_scene, rng):
    cx = su2_scene.endo
    g = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
    gperp = g - cx.kernel @ (cx.kernel.conj().T @ (cx.w0 * g))
    back, _ = cx.delta0_solve(cx.laplacian @ gperp)
    assert np.linalg.norm(back - gperp) <= 1e-8 * np.linalg.norm(gperp)


def test_delta0_inverse_kills_covariant_constant(su2_scene):
    cx = su2_scene.endo
    h = np.broadcast_to(np.eye(2), (cx.n_vertices, 2, 2)).reshape(-1)
    out, _ = cx.delta0_solve(h)
    assert np.linalg.norm(out) <= 1e-10


def test_delta0_factorized_matches_dense_oracle(su2_scene, rng):
    # the factorized solve against the independent dense spectral inverse
    cx = su2_scene.endo
    inv = dense_delta0_inverse(cx)
    h = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
    x_lu, _ = cx.delta0_solve(h)
    x_dn = inv @ h
    assert np.linalg.norm(x_lu - x_dn) <= 1e-8 * np.linalg.norm(x_dn)


def _parent_solve(cx, h):
    """delta0_solve of a vector, written out for one vector: the bordered
    solve of [W0 h, 0], whose border unknowns are the kernel coefficients."""
    n = h.shape[0]
    b = np.zeros(cx.lu.shape[0], dtype=complex)
    b[:n] = cx.w0 * h
    y = cx.lu.solve(b)
    x, coef = y[:n], y[n:]
    res = float(np.linalg.norm(cx.laplacian @ x + cx.kernel @ coef - h) / max(np.linalg.norm(h), 1e-300))
    return x, {"kernel_removed": float(np.linalg.norm(coef)), "method": "splu", "residual": res, "factor_reused": True}


def test_vector_calls_are_bit_identical_to_the_vector_formulas(su2_scene, rng):
    # taking blocks changed nothing for a vector: every value of the
    # second-variation pipeline goes through these calls
    cx = su2_scene.endo
    cx.lu
    y = random_cochain(rng, cx.n_faces, 2).reshape(-1)
    h = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
    star = np.conj(cx.dbar.T @ np.conj(cx.w1 * y)) / cx.w0
    assert np.array_equal(cx.star(cx.dbar, y), star)
    x, stats = cx.delta0_solve(h)
    x_ref, stats_ref = _parent_solve(cx, h)
    assert np.array_equal(x, x_ref) and stats == stats_ref
    assert np.array_equal(cx.harmonic_project(y), y - cx.dbar @ _parent_solve(cx, star)[0])


def test_block_calls_match_column_calls(su2_scene, rng):
    # an (N, k) block gives, column by column, the vector call's result;
    # the stats carry the worst column
    cx = su2_scene.endo
    faces = np.column_stack([random_cochain(rng, cx.n_faces, 2).reshape(-1) for _ in range(5)])
    verts = np.column_stack([random_cochain(rng, cx.n_vertices, 2).reshape(-1) for _ in range(5)])

    def agree(block, columns):
        ref = np.column_stack(columns)
        assert block.shape == ref.shape
        assert np.all(np.linalg.norm(block - ref, axis=0) <= 1e-14 * np.linalg.norm(ref, axis=0))

    agree(cx.star(cx.dbar, faces), [cx.star(cx.dbar, y) for y in faces.T])
    agree(cx.harmonic_project(faces), [cx.harmonic_project(y) for y in faces.T])
    x, stats = cx.delta0_solve(verts)
    columns = [cx.delta0_solve(h) for h in verts.T]
    agree(x, [c[0] for c in columns])
    worst = max(c[1]["kernel_removed"] for c in columns)
    assert abs(stats["kernel_removed"] - worst) <= 1e-12 * worst
    # residuals are roundoff, so the block's worst only shares their order
    assert stats["residual"] <= 100 * max(c[1]["residual"] for c in columns) <= SOLVE_RTOL


def test_complex_methods_keep_the_callers_layout(su2_scene_r1, rng):
    # a vector, an (N, k) block, per-site values (sites, m, m) and a block
    # (sites, m, m, k) of them all run the one (N, k) path and come back in
    # their own layout; per-site calls agree bit for bit with flat ones
    k = 3
    for cx in (su2_scene_r1.endo, su2_scene_r1.tangent):
        m, V, F = cx.m, cx.n_vertices, cx.n_faces
        calls = [
            (lambda x: cx.star(cx.dbar, x), F, V),
            (lambda x: cx.apply(cx.dbar, x), V, F),
            (lambda x: cx.delta0_solve(x)[0], V, V),
            (cx.harmonic_project, F, F),
        ]
        for call, sites_in, sites_out in calls:
            sites_block = rng.standard_normal((sites_in, m, m, k)) + 1j * rng.standard_normal((sites_in, m, m, k))
            sites = np.ascontiguousarray(sites_block[..., 0])
            vector, block = call(sites.reshape(-1)), call(sites_block.reshape(-1, k))
            assert vector.shape == (sites_out * m * m,) and block.shape == (sites_out * m * m, k)
            per_site, per_site_block = call(sites), call(sites_block)
            assert per_site.shape == (sites_out, m, m) and per_site_block.shape == (sites_out, m, m, k)
            assert np.array_equal(per_site.reshape(-1), vector)
            assert np.array_equal(per_site_block.reshape(-1, k), block)


def test_complex_refuses_a_layout_that_does_not_fit(su2_scene_r1):
    # twice the rows is no (N, 2) block, and per-site values need (m, m)
    cx = su2_scene_r1.endo
    N0, N1 = cx.w0.shape[0], cx.w1.shape[0]
    calls = [
        (lambda x: cx.star(cx.dbar, x), np.ones(2 * N1)),
        (lambda x: cx.apply(cx.dbar, x), np.ones(2 * N0)),
        (lambda x: cx.delta0_solve(x), np.ones(2 * N0)),
        (lambda x: cx.apply(cx.dbar, x), np.ones((cx.n_vertices, 1, 4))),
        (lambda x: cx.star(cx.dbar, x), np.ones((cx.n_faces, 2, 2, 1, 1))),
    ]
    for call, x in calls:
        with pytest.raises(ValueError, match=re.escape(f"shape {x.shape}")):
            call(x)


def test_block_solve_gates_each_column(su2_scene, rng):
    # one column that no solve can match fails the whole block
    cx = su2_scene.endo
    verts = np.column_stack([random_cochain(rng, cx.n_vertices, 2).reshape(-1) for _ in range(3)])
    verts[0, 1] = np.nan
    with pytest.raises(SolverError, match="residual nan"):
        cx.delta0_solve(verts)


def test_kernel_removed_is_the_border_of_the_solve(su2_scene, surf_hyp, triv2_r2, rng):
    # the border unknowns of the bordered solve are the kernel coefficients
    # K^H W0 h of each column: kernel_removed is the largest of their norms
    triv2 = Scene(surf_hyp, triv2_r2).endo
    assert triv2.kernel.shape[1] == 4
    for cx in (su2_scene.endo, triv2):
        h = np.column_stack([random_cochain(rng, cx.n_vertices, cx.m).reshape(-1) for _ in range(3)])
        h[:, 1] += cx.kernel @ (rng.standard_normal(cx.kernel.shape[1]) * np.sqrt(np.sum(cx.w0)))
        coef = cx.kernel.conj().T @ (cx.w0[:, None] * h)
        want = max(np.linalg.norm(c) for c in coef.T)
        _, stats = cx.delta0_solve(h)
        assert abs(stats["kernel_removed"] - want) <= 1e-12 * want


def test_harmonic_projection_properties(su2_scene, rng):
    cx = su2_scene.endo
    V, F = cx.n_vertices, cx.n_faces
    exact = cx.dbar @ random_cochain(rng, V, 2).reshape(-1)
    killed = cx.harmonic_project(exact)
    assert np.linalg.norm(killed) <= 1e-8 * np.linalg.norm(exact)
    a = random_cochain(rng, F, 2).reshape(-1)
    p1 = cx.harmonic_project(a)
    p2 = cx.harmonic_project(p1)
    assert np.linalg.norm(p2 - p1) <= 1e-8 * np.linalg.norm(p1)
    g = random_cochain(rng, V, 2).reshape(-1)
    ortho = ip(cx.w1, p1, cx.dbar @ g)
    assert abs(ortho) <= 1e-8 * np.linalg.norm(p1) * np.linalg.norm(g)


def test_kernel_dim_equals_commutant(surf_hyp, su2_r2, triv1_r2, triv2_r2):
    for c in (su2_r2, triv1_r2, triv2_r2):
        cdim = _commutant(c).shape[1]
        assert oracle.DenseFrame(Scene(surf_hyp, c).endo).kernel.shape[1] == cdim


def test_ad_rank1_vanishes(triv1_scene, rng):
    cx = triv1_scene.endo
    V, F = cx.n_vertices, cx.n_faces
    nu = random_cochain(rng, F, 1)
    f = random_cochain(rng, V, 1)
    assert np.linalg.norm(ad(cx, nu, f)) == 0.0
    a = random_cochain(rng, F, 1)
    assert np.linalg.norm(ad_star(cx, nu, a)) <= 1e-14


def test_ad_kills_identity(su2_scene, rng):
    cx = su2_scene.endo
    nu = random_cochain(rng, cx.n_faces, 2)
    ident = np.broadcast_to(np.eye(2), (cx.n_vertices, 2, 2))
    assert np.linalg.norm(ad(cx, nu, ident)) <= 1e-13


def test_ad_bilinearity(su2_scene, rng):
    cx = su2_scene.endo
    V, F = cx.n_vertices, cx.n_faces
    nu1 = random_cochain(rng, F, 2)
    nu2 = random_cochain(rng, F, 2)
    f = random_cochain(rng, V, 2)
    lam = 0.3 - 1.1j
    lhs = ad(cx, nu1 + lam * nu2, f)
    rhs = ad(cx, nu1, f) + lam * ad(cx, nu2, f)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_ad_star_calibration_adjointness(su2_scene, rng):
    cx = su2_scene.endo
    V, F = cx.n_vertices, cx.n_faces
    worst = 0.0
    for _ in range(20):
        nu = random_cochain(rng, F, 2)
        f = random_cochain(rng, V, 2)
        a = random_cochain(rng, F, 2)
        lhs = ip(cx.w1, ad(cx, nu, f), a)
        rhs = ip(cx.w0, f, ad_star(cx, nu, a))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-10


def test_ad_star_self_commutator_vanishes(su2_scene):
    # real diagonal nu commutes with its conjugate transpose
    F = su2_scene.surface.n_faces
    nu = np.zeros((F, 2, 2), dtype=complex)
    nu[:, 0, 0] = 1.0
    nu[:, 1, 1] = -2.0
    assert np.linalg.norm(ad_star(su2_scene.endo, nu, nu)) <= 1e-13


# -- corner average B and its lift ------------------------------------------------

CORNER_SCENES = [("surf_hyp_r1", "su2_r1"), ("surf_hyp", "su2_r2")]


def _complex_transport_cocycle(mesh):
    """Rank-2 cocycle with the su2 pair on the first handle and a commuting
    random U(2) pair (W, W) on the second, so that the conjugation action
    T X T^H of the corner transports is not real."""
    rng = np.random.default_rng(7)
    W = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    gens = [np.array([[0, 1j], [1j, 0]]), np.array([[0, 1], [-1, 0]], dtype=complex), W, W]
    return _generator_cocycle(mesh, 2, 1, gens)


def _corner_complexes(request, surf, su2):
    """su2, generic rank 2, trivial rank 2 and rank 1 End(E) complexes, and
    the spin-1 (vector) complex on one surface."""
    S = request.getfixturevalue(surf)
    cocycles = [
        request.getfixturevalue(su2),
        _complex_transport_cocycle(S.mesh),
        bnd.trivial_cocycle(S.mesh, 2),
        bnd.trivial_cocycle(S.mesh, 1),
    ]
    scenes = [Scene(S, c) for c in cocycles]
    return S, [sc.endo for sc in scenes] + [scenes[0].tangent]


@pytest.mark.parametrize("surf", [surf for surf, _ in CORNER_SCENES])
def test_corner_average_is_mean_of_transported_corners(request, surf, rng):
    S = request.getfixturevalue(surf)
    scene = Scene(S, _complex_transport_cocycle(S.mesh))
    T = corner_transports(S, scene.cocycle.transport)
    cv = S.corner_vertex
    x = random_cochain(rng, S.n_vertices, 2)
    ref = sum(T[:, k] @ x[cv[:, k]] @ np.conj(np.swapaxes(T[:, k], 1, 2)) for k in range(3)) / 3.0
    got = scene.endo.apply(scene.endo.corner_avg, x)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_lift_inverts_corner_average_on_kernel(request, surf, su2):
    # a covariant constant reaches all three corners of a face as the same
    # matrix, so averaging into faces and lifting back returns it
    S, complexes = _corner_complexes(request, surf, su2)
    for cx in complexes:
        for k in range(cx.kernel.shape[1]):
            x = cx.kernel[:, [k]].toarray().reshape(-1, cx.m, cx.m)
            back = lift_to_vertices(cx, S, cx.apply(cx.corner_avg, x))
            assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_lift_is_area_weighted_adjoint_of_corner_average(request, surf, su2, rng):
    S, complexes = _corner_complexes(request, surf, su2)
    for cx in complexes:
        x = random_cochain(rng, cx.n_vertices, cx.m)
        y = random_cochain(rng, cx.n_faces, cx.m)
        lhs = np.einsum("v,vab,vab->", S.lumped(S.area), lift_to_vertices(cx, S, y), np.conj(x))
        rhs = np.einsum("f,fab,fab->", S.area, y, np.conj(cx.apply(cx.corner_avg, x)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_lift_takes_a_block(request, surf, su2, rng):
    # an (F, m, m, k) or (F m^2, k) block lifts, column by column, bit for
    # bit as its per-column calls; a misfit is named by its shape
    S, complexes = _corner_complexes(request, surf, su2)
    for cx in complexes:
        y = np.stack([random_cochain(rng, cx.n_faces, cx.m) for _ in range(3)], axis=-1)
        block = lift_to_vertices(cx, S, y)
        assert block.shape == (cx.n_vertices, cx.m, cx.m, 3)
        for j in range(3):
            assert np.array_equal(block[..., j], lift_to_vertices(cx, S, np.ascontiguousarray(y[..., j])))
        assert np.array_equal(lift_to_vertices(cx, S, y.reshape(-1, 3)), block.reshape(-1, 3))
        bad = np.ones((cx.n_faces, cx.m + 1, cx.m + 1, 3))
        with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}")):
            lift_to_vertices(cx, S, bad)


@pytest.mark.parametrize("surf, su2", CORNER_SCENES)
def test_stored_operators_hold_no_explicit_zero(request, surf, su2):
    # every product with a stored operator, and with its transpose in
    # ``star``, runs over its stored entries: none of them may be a zero
    _, complexes = _corner_complexes(request, surf, su2)
    for cx in complexes:
        for M in (cx.dbar, cx.dhol, cx.corner_avg, cx.laplacian):
            assert M.nnz == np.count_nonzero(M.data)


def test_restricted_inverse_positivity(su2_scene, rng):
    cx = su2_scene.endo
    for _ in range(10):
        h = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
        x, _ = cx.delta0_solve(h)
        val = ip(cx.w0, x, h)
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
    cx1 = Scene(surf_hyp_r1, c).endo
    cx2 = Scene(surf_hyp_r1, moved).endo
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


@pytest.mark.parametrize("center", ["su2_g2", "su2_g3", "complex_transport", "trivial1", "trivial2", "trivial3"])
def test_builders_write_every_transport(center):
    # the fan builders and refine_cocycle write every transport, in
    # complex128, with each reverse half-edge the exact conjugate
    # transpose; refine_cocycle refines its own mesh as refine does
    fan = build_polygon_gluing(3 if center == "su2_g3" else 2)
    if center.startswith("su2"):
        c = su2_preset(fan)
    elif center == "complex_transport":
        c = _complex_transport_cocycle(fan)
    else:
        c = bnd.trivial_cocycle(fan, int(center[-1]))
    for r in range(4):
        if r:
            mesh, c = refine(c.mesh), refine_cocycle(c)
            for field in ("origin", "twin", "layout"):
                assert np.array_equal(getattr(c.mesh, field), getattr(mesh, field)), field
        U = c.transport
        assert U.dtype == np.complex128
        assert np.array_equal(U[c.mesh.twin], np.conj(np.swapaxes(U, 1, 2)))
        validate_cocycle(c)


def test_refine_preserves_flatness_and_irreducibility(fan2):
    c = refine_cocycle(su2_preset(fan2))
    validate_cocycle(c)
    assert _commutant(c).shape[1] == 1
    assert c.marked_face == 4 * su2_preset(fan2).marked_face + 3


def test_cocycle_roundtrip(tmp_path, fan2):
    c = su2_preset(fan2)
    p = tmp_path / "c.coc"
    save_cocycle(c, p)
    loaded = load_cocycle(fan2, p)
    assert np.array_equal(loaded.transport, c.transport)
    assert (loaded.rank, loaded.degree, loaded.marked_face) == (2, 1, 7)


def test_refined_cocycle_does_not_serialize(tmp_path, fan2):
    # generators describe a cocycle on the fan; a refined cocycle keeps
    # none, so it cannot write a file that no mesh loads
    c = refine_cocycle(su2_preset(fan2))
    assert c.generators is None
    with pytest.raises(CocycleError, match="only generator-built cocycles serialize"):
        save_cocycle(c, tmp_path / "r1.coc")
    assert not (tmp_path / "r1.coc").exists()


def _set_field(lines, index, field, value):
    parts = lines[index].split()
    parts[field] = value
    lines[index] = " ".join(parts)
    return lines


# the su2 generator file: line 1 is the header and lines 2-5 the gen
# records of a1, b1, a2, b2
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: _set_field(ls, 1, 1, "a9"), "line 2: gen record: name 'a9' is not one of a1, b1, a2, b2"),
        (lambda ls: ls[:5] + ls[4:], "line 6: repeated gen record for b2"),
        (lambda ls: ls[:3] + ls[4:], "^missing gen record for a2$"),
        # the twist record that older files carried
        (lambda ls: ls + ["twist 7"], "line 6: unknown record 'twist'$"),
        (lambda ls: _set_field(ls, 0, 1, "0"), "line 1: cocycle record: 0 is out of range 1.."),
        (lambda ls: ls[1:2] + ls[:1] + ls[2:], "line 1: unknown record 'gen' before 'cocycle'"),
        (lambda ls: [ls[0], ls[1] + " 0.0"] + ls[2:], "line 2: gen record needs 9 fields, got 10"),
        (lambda ls: _set_field(ls, 2, 4, "1e400"), "line 3: gen record: non-finite entry"),
    ],
    ids=[
        "unknown_name", "repeated_name", "missing_gen", "old_twist_record", "zero_rank", "before_header",
        "gen_count", "overflow",
    ],
)
def test_load_cocycle_rejects(tmp_path, fan2, edit, message):
    p = tmp_path / "c.coc"
    save_cocycle(su2_preset(fan2), p)
    p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
    with pytest.raises(RecordFileError, match=message):
        load_cocycle(fan2, p)


def test_exact_kernel_supports_factorized_solves(su2_scene_r1, rng):
    # the covariant constants the complex is built with annihilate the
    # Laplacian, and the factorized solve matches the dense spectral inverse
    cx = su2_scene_r1.endo
    K = cx.kernel
    assert K.shape[1] == 1
    assert np.linalg.norm((cx.laplacian @ K).toarray()) <= 1e-12
    h = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
    x_dense = dense_delta0_inverse(cx) @ h
    x_lu, st = cx.delta0_solve(h)
    assert st["method"] == "splu"
    assert np.linalg.norm(x_lu - x_dense) <= 1e-8 * np.linalg.norm(x_dense)


@pytest.mark.parametrize(
    "superlu, error, message",
    [
        ("Factor is exactly singular", SolverError, "bordered Laplacian is singular: Factor"),
        ("Can't expand MemType 0: jcol 7", MemoryError, "sparse LU of the bordered Laplacian: Can't expand"),
    ],
)
def test_lu_tells_a_singular_matrix_from_an_exhausted_allocator(su2_scene_r1, monkeypatch, superlu, error, message):
    # SuperLU raises RuntimeError both for an exactly singular matrix and
    # when its allocator gives out; only the first is a singular Laplacian
    from modulilab import _complexes

    def fail(A, **kw):
        raise RuntimeError(superlu)

    monkeypatch.setattr(_complexes.spla, "splu", fail)
    scene = su2_scene_r1
    cx = endo_complex(scene.surface, scene.cocycle.transport, scene.endo.commutant)
    with pytest.raises(error, match=message):
        cx.lu


def test_symmetric_order_keeps_lu_fill_low(fan2_r2):
    # the bordered Laplacian is Hermitian; in the minimum-degree order of
    # B + B^H the End(E) and tangent LUs of trivial rank 1 at r4 each fill
    # at most 0.7 of the L + U that the default COLAMD order gave
    mesh = refine(refine(fan2_r2))
    scene = Scene(equip_conformal(mesh, layout="equilateral", density="uniform"), bnd.trivial_cocycle(mesh, 1))
    for cx, colamd_fill in ((scene.endo, 90_765), (scene.tangent, 99_141)):
        assert cx.lu.L.nnz + cx.lu.U.nnz <= 0.7 * colamd_fill


@pytest.mark.parametrize("density", ["uniform", "hyperbolic"])
@pytest.mark.parametrize("mesh_name", ["fan2_r1", "fan2_r2"])
def test_kahler_identity_on_flat_bundles(request, mesh_name, density):
    # dbar* dbar = d* d to roundoff on End(E) of a flat bundle: su2, a
    # cocycle with a non-real conjugation action and a reducible rank 3
    mesh = request.getfixturevalue(mesh_name)
    S = equip_conformal(mesh, layout="stored", density=density)
    su2 = request.getfixturevalue({"fan2_r1": "su2_r1", "fan2_r2": "su2_r2"}[mesh_name])
    for c in (su2, _complex_transport_cocycle(mesh), bnd.trivial_cocycle(mesh, 3)):
        assert kahler_residual(Scene(S, c).endo) <= TOLERANCES["kahler_identity"]


def test_kahler_identity_fails_off_flat_bundles(surf_hyp_r1, rng):
    # random unitary transports have curvature on every face, and the
    # two Laplacians then differ at order one
    H = surf_hyp_r1.mesh.n_half_edges
    U = np.linalg.qr(rng.standard_normal((H, 2, 2)) + 1j * rng.standard_normal((H, 2, 2)))[0]
    identity = np.eye(2).reshape(-1, 1) / np.sqrt(2)
    assert kahler_residual(endo_complex(surf_hyp_r1, U, identity)) > 1e-2


def test_incomplete_kernel_fails_residual_gate(surf_hyp, triv2_r2, rng):
    # a bordered system missing one of the four kernel directions cannot
    # reach the residual gate: the solve must refuse, not return garbage
    C = _commutant(triv2_r2)
    assert C.shape[1] == 4
    cx = endo_complex(surf_hyp, triv2_r2.transport, C[:, :3])
    h = rng.standard_normal(cx.w0.shape[0]) + 1j * rng.standard_normal(cx.w0.shape[0])
    with pytest.raises(SolverError, match="residual"):
        cx.delta0_solve(h)


def test_cocycle_rejects_mismatched_surface(surf_hyp, fan2):
    c = bnd.refine_cocycle(su2_preset(fan2))
    with pytest.raises(CocycleError):
        Scene(surf_hyp, c)


def test_generators_need_the_fan(fan2, fan2_r1):
    # generator cocycles are built on the 4g-gon fan and refined with it;
    # a refined mesh of the same genus has other combinatorics
    gens = su2_preset(fan2).generators
    with pytest.raises(CocycleError, match="4g-gon fan"):
        from_generators(fan2_r1, 2, 1, gens)


def test_scene_builds_each_complex_on_first_use(surf_hyp_r1, su2_r1):
    # each of the two complexes is built once per scene, the surface's
    # geometry once per surface, and the second variations need no
    # complex beyond them; a freshly equipped surface has no cache yet
    from conftest import one_tangent
    from modulilab.variation import evaluate_quadruple, positivity_certificate

    S = equip_conformal(surf_hyp_r1.mesh, layout="stored", density="hyperbolic")
    scene = Scene(S, su2_r1)
    assert not {"endo", "tangent"} & set(vars(scene)) and "grad_bar" not in vars(S)
    v = one_tangent(scene, 0)
    positivity_certificate(*v, scene)
    assert {"endo", "tangent"} <= set(vars(scene)) and "grad_bar" in vars(S)
    built = (S.grad_bar, scene.endo, scene.tangent)
    evaluate_quadruple(v, v, v, v, scene)
    assert all(a is b for a, b in zip((S.grad_bar, scene.endo, scene.tangent), built))
    assert not hasattr(scene, "beltrami")


def test_dropped_scene_frees_its_surface(fan2_r1, su2_r1):
    # nothing outside the scene keeps its surface, complexes or LUs alive
    import gc
    import weakref

    from conftest import one_tangent

    S = equip_conformal(fan2_r1, layout="stored", density="hyperbolic")
    scene = Scene(S, su2_r1)
    v = one_tangent(scene, 0)
    x, _ = scene.endo.delta0_solve(np.ones(scene.endo.w0.shape[0], dtype=complex))
    refs = [weakref.ref(obj) for obj in (S, scene.endo, scene.tangent)]
    del S, scene, v, x
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
