"""Scalar calculus as the rank-1 trivial End(E) complex, the conventions
table, the wedge pairing and the Beltrami derivative."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from modulilab import bundle as bnd
from modulilab import conventions
from modulilab._complexes import DolbeaultComplex, _assemble, lift_to_vertices
from modulilab.bundle import Scene
from modulilab.calculus import beltrami_d_hol
from modulilab.surface import equip_conformal, refine
from modulilab.tangent import ks_center
from conftest import ip, random_cochain
from flat_torus import mesh_from_faces, torus_surface
from test_scene_vectorized import _geometry_loop


@pytest.fixture(scope="module")
def torus8():
    return torus_surface(8)


def _scalar_complex(S):
    """The scalar complex: End(E) of the trivial line bundle."""
    return Scene(S, bnd.trivial_cocycle(S.mesh, 1)).endo


def _spin2(S):
    """A scene on S, for the spin-2 derivative ``beltrami_d_hol``."""
    return Scene(S, bnd.trivial_cocycle(S.mesh, 1))


@pytest.fixture(scope="module")
def pillow():
    # two copies of the chart triangle (0, 1, i) glued along all edges
    mesh = mesh_from_faces([(0, 1, 2), (0, 2, 1)], genus=0)
    tri = np.array([0.0, 1.0, 1j])
    object.__setattr__(mesh, "layout", np.array([tri, tri]))
    return equip_conformal(mesh, layout="stored", density="uniform")


def _random(rng, count):
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def test_constant_has_zero_derivative(triv1_scene):
    cx = triv1_scene.endo
    f = np.full(cx.n_vertices, 2.3 - 0.7j)
    assert np.linalg.norm(cx.dbar @ f) <= 1e-12
    assert np.linalg.norm(cx.dhol @ f) <= 1e-12


def test_single_face_chart_gradient(pillow):
    # chart (0, 1, i) with values (0, 1, i): the identity chart function
    cx = _scalar_complex(pillow)
    f = np.array([0.0, 1.0, 1j])
    dh = cx.dhol @ f
    db = cx.dbar @ f
    assert abs(dh[0] - 1.0) < 1e-14 and abs(db[0]) < 1e-14
    # on the mirror face the same values read as i * conj(z)
    assert abs(db[1] - 1j) < 1e-14 and abs(dh[1]) < 1e-14


def test_adjointness_random(triv1_scene, rng):
    cx = triv1_scene.endo
    V, F = cx.n_vertices, cx.n_faces
    worst = 0.0
    for _ in range(100):
        f = _random(rng, V)
        a = _random(rng, F)
        b = _random(rng, F)
        r1 = ip(cx.w1, cx.dbar @ f, a) - ip(cx.w0, f, cx.star(cx.dbar, a))
        r2 = ip(cx.w1, cx.dhol @ f, b) - ip(cx.w0, f, cx.star(cx.dhol, b))
        worst = max(worst, abs(r1), abs(r2))
    assert worst <= 1e-10


def test_scalar_laplacian_annihilates_constants(surf_uni):
    cx = _scalar_complex(surf_uni)
    assert np.linalg.norm(cx.laplacian @ np.ones(cx.n_vertices)) <= 1e-14


def test_dbar_star_zero(triv1_scene):
    cx = triv1_scene.endo
    assert np.linalg.norm(cx.star(cx.dbar, np.zeros(cx.n_faces, dtype=complex))) == 0.0


def test_hodge_star_conventions(triv1_scene, rng):
    cx = triv1_scene.endo
    F = cx.n_faces
    nu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    beta = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    np.testing.assert_allclose(conventions.STAR_DZBAR * nu, 1j * nu)
    np.testing.assert_allclose(conventions.STAR_DZ * beta, -1j * beta)
    for star, w in ((conventions.STAR_DZBAR, nu), (conventions.STAR_DZ, beta)):
        np.testing.assert_allclose(star * (star * w), -w)
    # star is an isometry of the L2 pairing on 1-forms
    nu2 = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    star = conventions.STAR_DZBAR
    lhs = ip(cx.w1, star * nu, star * nu2)
    rhs = ip(cx.w1, nu, nu2)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_ip_properties(triv1_scene, rng):
    w0 = triv1_scene.endo.w0
    V = w0.shape[0]
    f = _random(rng, V)
    g = _random(rng, V)
    ff = ip(w0, f, f)
    assert ff.real > 0.0
    assert abs(ff.imag) <= 1e-14 * ff.real
    assert abs(ip(w0, f, g) - np.conj(ip(w0, g, f))) <= 1e-12


def test_ip_matches_dense_gram(triv1_scene, rng):
    # oracle: assemble the diagonal weight matrix explicitly
    S = triv1_scene.surface
    W = np.diag(conventions.L2_GLOBAL_FACTOR * S.lumped(S.density * S.area))
    w0 = triv1_scene.endo.w0
    V = w0.shape[0]
    basis = [rng.standard_normal(V) + 1j * rng.standard_normal(V) for _ in range(4)]
    for x in basis:
        for y in basis:
            direct = ip(w0, x, y)
            dense = np.conj(y) @ W @ x
            assert abs(direct - dense) <= 1e-12 * max(abs(direct), 1.0)


def test_ip_form_positive_definite_dense(triv1_scene):
    # Gram matrix of the standard coefficient basis under the form pairing
    w1 = triv1_scene.endo.w1
    np.testing.assert_array_equal(w1, conventions.L2_GLOBAL_FACTOR * triv1_scene.surface.area)
    assert np.min(np.linalg.eigvalsh(np.diag(w1))) > 0.0


def test_mu_contract(triv1_scene, rng):
    # the Beltrami contraction (f dz) -> mu f dzbar of the operator
    # variation has the adjoint alpha -> conj(mu) alpha under the form
    # pairing, so d* (mu-bar .) is the exact adjoint of mu d
    cx = triv1_scene.endo
    F, V = cx.n_faces, cx.n_vertices
    mu = _random(rng, F)
    f = _random(rng, V)
    alpha = _random(rng, F)
    contracted = mu * (cx.dhol @ f)
    back = cx.star(cx.dhol, np.conj(mu) * alpha)
    lhs = ip(cx.w1, contracted, alpha)
    rhs = ip(cx.w0, f, back)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _wedge(S, a, b):
    """-i * integral tr(a ^ b) of (F, n, n) (0,1)- and (1,0)-coefficient
    fields under the conventions table: sum_f WEDGE_AREA_FACTOR A_f tr(a_f b_f)."""
    return complex(np.einsum("f,fab,fba->", conventions.WEDGE_AREA_FACTOR * S.area, a, b))


def _ct(x):
    return np.conj(np.swapaxes(x, 1, 2))


def test_wedge_trace_positivity(triv1_scene, rng):
    S, cx = triv1_scene.surface, triv1_scene.endo
    nu = _random(rng, S.n_faces).reshape(-1, 1, 1)
    val = 1j * _wedge(S, nu, conventions.STAR_DZ * _ct(nu))  # star(conj(nu)^T)
    assert val.real > 0.0 and abs(val.imag) <= 1e-12 * val.real
    # conventions self-consistency: i * wedge pairing is the L2 form pairing
    assert abs(val - cx.inner(nu, nu)) <= 1e-12 * abs(val)


def test_wedge_trace_matrix_valued(su2_scene, rng):
    # the wedge integral of a with b^H is the w1 pairing inner(a, b):
    # C-linear in a, conjugate-linear in b
    S, cx = su2_scene.surface, su2_scene.endo
    nu, b = random_cochain(rng, S.n_faces, 2), random_cochain(rng, S.n_faces, 2)
    val = 1j * _wedge(S, nu, conventions.STAR_DZ * _ct(nu))
    assert val.real > 0.0 and abs(val.imag) <= 1e-10 * val.real
    assert abs(val - cx.inner(nu, nu)) <= 1e-12 * abs(val)
    base = cx.inner(nu, b)
    assert abs(_wedge(S, nu, _ct(b)) - base) <= 1e-12 * abs(base)
    lam = 0.7 + 0.1j
    assert abs(cx.inner(lam * nu, b) - lam * base) <= 1e-12 * abs(base)
    assert abs(cx.inner(nu, lam * b) - np.conj(lam) * base) <= 1e-12 * abs(base)


def test_wedge_trace_type_error(su2_scene, rng):
    # the pairing needs both fields on the same faces with equal matrix sizes
    cx = su2_scene.endo
    a = random_cochain(rng, cx.n_faces, 2)
    for b in (a[:-1], np.zeros((cx.n_faces, 2, 3))):
        with pytest.raises(ValueError):
            cx.inner(a, b)


def test_inner_weights_by_layout(su2_scene, rng):
    # w0 pairs 0-cochains and w1 face forms, in every layout of them
    cx = su2_scene.endo
    for sites, w in ((cx.n_vertices, cx.w0), (cx.n_faces, cx.w1)):
        x, y = random_cochain(rng, sites, 2), random_cochain(rng, sites, 2)
        want = ip(w, x, y)
        assert abs(cx.inner(x, y) - want) <= 1e-12 * abs(want)
        assert abs(cx.inner(x.reshape(-1), y.reshape(-1)) - want) <= 1e-12 * abs(want)


def test_face_derivative_constant(torus8):
    # uniform planar charts (face spin 1): a constant Beltrami
    # coefficient lifts to a constant, and its derivative vanishes
    assert np.array_equal(torus8.face_spin, np.ones(torus8.n_faces))
    d = beltrami_d_hol(np.full(torus8.n_faces, 1.7 - 0.3j), _spin2(torus8))
    assert np.linalg.norm(d) <= 1e-13


def test_face_derivative_linear_exact(torus8):
    # sample a linear function at barycenters; interior faces (no wrap)
    # recover the exact constant derivative
    bary = np.mean(torus8.chart, axis=1)
    a = 0.8 + 0.4j
    d = beltrami_d_hol(a * bary, _spin2(torus8))
    interior = []
    m = 8
    for f in range(torus8.n_faces):
        z = torus8.chart[f]
        if z.real.min() >= 1 and z.real.max() <= m - 1 and z.imag.min() >= 1 and z.imag.max() <= m - 1:
            interior.append(f)
    assert len(interior) > 10
    np.testing.assert_allclose(d[interior], a, atol=1e-12)


def test_face_derivative_deterministic(surf_hyp, rng):
    vals = rng.standard_normal(surf_hyp.n_faces) + 1j * rng.standard_normal(surf_hyp.n_faces)
    d1 = beltrami_d_hol(vals, _spin2(surf_hyp))
    d2 = beltrami_d_hol(vals.copy(), _spin2(surf_hyp))
    assert np.array_equal(d1, d2)


@pytest.fixture(scope="module")
def surf_uni_r4(fan2_r2):
    # trivial-r4 equilateral: the deepest face-spin tree of any workload
    return equip_conformal(refine(refine(fan2_r2)), layout="equilateral", density="uniform")


@pytest.mark.parametrize("surf", ["surf_hyp_r1", "surf_hyp", "surf_uni", "surf_uni_r4"])
def test_beltrami_d_hol_matches_two_step_stencil(request, surf, rng):
    # reference: average the face values, rotated into each vertex's
    # reference chart by corner_spin^-2 (corner_spin[f,k] =
    # face_spin[f]/face_spin[ref(v)], ref(v) the lowest face at v), onto
    # vertices with area weights, rotate back into every face chart and
    # take the P1 d/dz
    S = request.getfixturevalue(surf)
    vals = rng.standard_normal(S.n_faces) + 1j * rng.standard_normal(S.n_faces)
    spin = _geometry_loop(S)["corner_spin"] ** 2
    lifted = np.zeros(S.n_vertices, dtype=complex)
    np.add.at(lifted, S.corner_vertex, (S.area / 3.0 * vals)[:, None] / spin)
    lifted /= S.lumped(S.area)
    ref = np.sum(np.conj(S.grad_bar) * lifted[S.corner_vertex] * spin, axis=1)
    got = beltrami_d_hol(vals, _spin2(S))
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def _twisted_tangent(S):
    """The tangent complex twisted per corner by the loop reference's
    corner_spin, whose kernel is the vertex gauge face_spin[ref(v)]: not
    a constant tiled over the vertices, so it is set in place of the
    complex's own kernel, w0-normalized like it."""
    loop = _geometry_loop(S)
    spin, cv, V = loop["corner_spin"], S.corner_vertex, S.n_vertices
    T = np.ones(cv.shape + (1, 1), dtype=complex)
    dbar, dhol, corner_avg = _assemble((S.grad_bar * spin, np.conj(S.grad_bar) * spin, spin / 3.0), T, cv, V)
    cx = DolbeaultComplex(
        m=1,
        n_vertices=V,
        n_faces=S.n_faces,
        w0=S.lumped(S.density**2 * S.area),
        w1=S.density * S.area,
        dbar=dbar,
        dhol=dhol,
        corner_avg=corner_avg,
        commutant=np.ones((1, 1)),
    )
    gauge = loop["face_spin"][loop["vertex_ref_face"]]
    cx.kernel = sp.csr_matrix(gauge[:, None] / np.sqrt(np.sum(cx.w0)))
    return cx


@pytest.mark.parametrize("refinements", [1, 2, 3, 4])
@pytest.mark.parametrize("layout, density", [("stored", "hyperbolic"), ("equilateral", "uniform")])
def test_face_gauge_tangent_matches_twisted_reference(fan2, refinements, layout, density, rng):
    # the face-gauge complex is the twisted one times the unit vertex
    # gauge r = face_spin[ref(v)]: the constants span its kernel, and the
    # harmonic projection and the spin-2 derivative do not see r
    mesh = fan2
    for _ in range(refinements):
        mesh = refine(mesh)
    scene = _spin2(equip_conformal(mesh, layout=layout, density=density))
    tangent, fs = scene.tangent, scene.surface.face_spin
    assert np.linalg.norm(tangent.dbar @ np.ones(tangent.n_vertices)) <= 1e-13 * spla.norm(tangent.dbar)
    twisted = _twisted_tangent(scene.surface)
    mu = _random(rng, scene.surface.n_faces)
    got = ks_center(mu, np.zeros((mu.shape[0], 1, 1), dtype=complex), scene)[0]
    want = twisted.harmonic_project(mu)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    lifted = lift_to_vertices(twisted, scene.surface, np.conj(fs) * mu)
    want = fs * (twisted.dhol @ lifted.reshape(-1))
    assert np.linalg.norm(beltrami_d_hol(mu, scene) - want) <= 1e-13 * np.linalg.norm(want)


def test_beltrami_d_hol_takes_a_block(surf_hyp, rng):
    # an (F, k) block gives, column by column, its per-column calls bit for
    # bit; a misfit is named by its shape
    scene = _spin2(surf_hyp)
    mu = np.column_stack([_random(rng, surf_hyp.n_faces) for _ in range(3)])
    block = beltrami_d_hol(mu, scene)
    assert block.shape == mu.shape
    for j in range(3):
        assert np.array_equal(block[:, j], beltrami_d_hol(np.ascontiguousarray(mu[:, j]), scene))
    bad = np.ones((surf_hyp.n_faces, 2, 2, 3), dtype=complex)
    with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}")):
        beltrami_d_hol(bad, scene)


@settings(max_examples=20, deadline=None)
@given(
    re=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    im=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_star_involution_property(re, im):
    vals = np.array(re) + 1j * np.array(im)
    for star in (conventions.STAR_DZBAR, conventions.STAR_DZ):
        np.testing.assert_allclose(star * (star * vals), -vals)
